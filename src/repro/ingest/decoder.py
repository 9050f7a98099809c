"""Damage-tolerant chunk decoding.

:class:`ResilientDecoder` turns one :class:`~repro.ingest.sources.StreamChunk`
into per-keyframe cell ids without ever letting a codec failure escape.
A chunk is first offered to the normal partial decoder
(:meth:`~repro.features.pipeline.FingerprintExtractor.cell_ids_from_encoded`),
which for the byte-aligned format is one array scan that either proves
the whole chunk sound or raises before yielding anything; a chunk it
rejects goes to :func:`~repro.codec.resync.resilient_dc_scan`, which
hops the same records in varint-index space, recovers every GOP that
still parses and reports where the damage was.

The output is positional: a list of ``(keyframe_slot, cell_ids)``
segments, where ``keyframe_slot`` counts key frames from the start of
the chunk. Anchored segments (the stream head, and a tail that drains
cleanly to the end of the byte stream) carry exact slots; unanchored
interior segments — possible only with two or more corruption points —
are placed best-effort against their nearest anchored neighbour and
trimmed on overlap. A slot the decoder cannot fill is the degradation
layer's problem: :class:`~repro.ingest.session.StreamSession` either
skips the affected basic windows (``skip_window``), substitutes a fill
cell id (``zero_fill``), or raises (``fail``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.codec.gop import EncodedVideo
from repro.codec.resync import resilient_dc_scan
from repro.errors import CodecError, FeatureError, IngestError
from repro.features.pipeline import FingerprintExtractor
from repro.ingest.sources import StreamChunk

__all__ = ["DecodedChunk", "DegradationPolicy", "ResilientDecoder"]


class DegradationPolicy(enum.Enum):
    """What a session does with key frames the decoder could not recover.

    * ``SKIP_WINDOW`` — acknowledge the gap on the window clock
      (:meth:`~repro.serve.frontend.StreamFrontend.skip_frames`); every
      basic window overlapping damage is sacrificed whole, every intact
      window still matches at its true stream position.
    * ``ZERO_FILL`` — substitute a constant fill cell id for missing
      frames, keeping every window alive at the cost of diluted window
      similarity around the damage.
    * ``FAIL`` — raise :class:`~repro.errors.IngestError`; for
      deployments where a damaged stream must be quarantined, not
      degraded.
    """

    SKIP_WINDOW = "skip_window"
    ZERO_FILL = "zero_fill"
    FAIL = "fail"


@dataclass
class DecodedChunk:
    """Per-keyframe cell ids recovered from one chunk, with provenance.

    ``segments`` is sorted by slot and non-overlapping; slots lie in
    ``[0, expected_keyframes)``. ``keyframes_damaged`` counts the slots
    no segment covers.
    """

    expected_keyframes: int
    segments: List[Tuple[int, np.ndarray]] = field(default_factory=list)
    decode_errors: int = 0
    resyncs: int = 0
    bytes_skipped: int = 0
    header_lost: bool = False

    @property
    def keyframes_decoded(self) -> int:
        return sum(ids.shape[0] for _, ids in self.segments)

    @property
    def keyframes_damaged(self) -> int:
        return self.expected_keyframes - self.keyframes_decoded

    @property
    def clean(self) -> bool:
        """Whether the chunk decoded without any loss."""
        return (
            not self.header_lost
            and self.decode_errors == 0
            and self.keyframes_damaged == 0
        )


def _place_segments(
    scan_segments, total_slots: int
) -> List[Tuple[int, List[np.ndarray]]]:
    """Assign a keyframe slot to every recovered DC-grid run.

    Anchored runs take their exact slots. Unanchored runs are packed
    right-to-left against the next anchored run (they most plausibly sit
    just before the point where the walk re-anchored), trimmed wherever
    they would overlap already-placed slots, and dropped if nothing
    plausible remains.
    """
    placed: List[Tuple[int, List[np.ndarray]]] = []
    prev_end = -1  # last slot occupied so far
    index = 0
    while index < len(scan_segments):
        segment = scan_segments[index]
        if segment.kf_slots is not None:
            if segment.dc_grids:
                placed.append((segment.kf_slots[0], list(segment.dc_grids)))
                prev_end = segment.kf_slots[-1]
            index += 1
            continue
        run: List[List[np.ndarray]] = []
        while (
            index < len(scan_segments)
            and scan_segments[index].kf_slots is None
        ):
            if scan_segments[index].dc_grids:
                run.append(list(scan_segments[index].dc_grids))
            index += 1
        next_anchor: Optional[int] = None
        if index < len(scan_segments) and scan_segments[index].kf_slots:
            next_anchor = scan_segments[index].kf_slots[0]
        if next_anchor is not None:
            end = next_anchor - 1
            packed: List[Tuple[int, List[np.ndarray]]] = []
            for grids in reversed(run):
                start = end - len(grids) + 1
                if start <= prev_end:
                    grids = grids[prev_end - start + 1 :]
                    start = prev_end + 1
                if not grids or start > end:
                    break
                packed.append((start, grids))
                end = start - 1
            placed.extend(reversed(packed))
        else:
            start = prev_end + 1
            for grids in run:
                grids = grids[: max(0, total_slots - start)]
                if not grids:
                    break
                placed.append((start, grids))
                start += len(grids)
                prev_end = start - 1
    placed.sort(key=lambda item: item[0])
    return placed


class ResilientDecoder:
    """Chunk payloads in, positional cell-id segments out — no escapes.

    Parameters
    ----------
    extractor:
        The fingerprint pipeline; required for encoded and raw-frame
        payloads, optional for pre-extracted cell ids.
    """

    def __init__(
        self, extractor: Optional[FingerprintExtractor] = None
    ) -> None:
        self.extractor = extractor

    def _require_extractor(self) -> FingerprintExtractor:
        if self.extractor is None:
            raise IngestError(
                "this ResilientDecoder was built without a fingerprint "
                "extractor; feed pre-extracted cell-id chunks instead"
            )
        return self.extractor

    def _decode_encoded(self, encoded: EncodedVideo) -> DecodedChunk:
        extractor = self._require_extractor()
        expected = encoded.num_keyframes
        try:
            ids = extractor.cell_ids_from_encoded(encoded)
        except (CodecError, FeatureError):
            # FeatureError: an in-band frame count damaged to zero parses
            # cleanly and yields no key frame to fingerprint.
            pass
        else:
            if ids.shape[0] == expected:
                return DecodedChunk(
                    expected_keyframes=expected, segments=[(0, ids)]
                )
            # A parse that silently lost keyframes is damage too: fall
            # through to the accounting scan.

        try:
            scan = resilient_dc_scan(encoded)
        except CodecError:
            scan = None
        if scan is None or not (scan.segments or scan.decode_errors):
            # Header destroyed, or damaged into promising no frames so
            # the scan walked nothing and met no error: the whole chunk
            # is lost, but the EncodedVideo metadata still tells us how
            # many key frames the stream clock must account for.
            return DecodedChunk(
                expected_keyframes=expected,
                decode_errors=1,
                header_lost=True,
            )
        decoded = DecodedChunk(
            expected_keyframes=expected,
            decode_errors=scan.decode_errors,
            resyncs=scan.resyncs,
            bytes_skipped=scan.bytes_skipped,
        )
        for start, grids in _place_segments(scan.segments, expected):
            ids = extractor.cell_ids_from_dc_grids(
                grids, encoded.block_size
            )
            decoded.segments.append((start, ids))
        return decoded

    def decode_chunk(self, chunk: StreamChunk) -> DecodedChunk:
        """Decode one chunk; codec failures degrade, never propagate."""
        payload = chunk.payload
        if isinstance(payload, EncodedVideo):
            return self._decode_encoded(payload)
        array = np.asarray(payload)
        if array.ndim == 3:
            ids = self._require_extractor().cell_ids_from_frames(array)
            return DecodedChunk(
                expected_keyframes=int(array.shape[0]), segments=[(0, ids)]
            )
        if array.ndim == 1:
            ids = array.astype(np.int64, copy=False)
            return DecodedChunk(
                expected_keyframes=int(ids.shape[0]), segments=[(0, ids)]
            )
        raise IngestError(
            f"stream {chunk.stream_id} chunk {chunk.seq}: unsupported "
            f"payload shape {array.shape}"
        )
