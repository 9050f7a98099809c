"""GOP-boundary resynchronisation for damaged bitstreams.

A single flipped bit inside a frame record usually derails every varint
after it, so a naive decoder loses the rest of the stream. Real MPEG
decoders recover by scanning forward to the next start code; the toy
codec has no start codes, but every I frame record begins with the byte
``b"I"`` followed by a block-count varint that must equal the grid size —
a strong enough predicate to probe candidate offsets and accept the
first one from which a whole I-frame record parses.

Two layers are provided:

* :func:`resync_to_next_gop` — the scanning primitive: given raw bytes
  and a starting offset, find the next byte offset at which a complete
  I-frame record parses.
* :func:`resilient_dc_scan` — a fault-tolerant replacement for
  :func:`~repro.codec.gop.decode_dc_coefficients`: it walks the stream,
  and on any :class:`~repro.errors.BitstreamError` /
  :class:`~repro.errors.CodecError` records the damage, resynchronises at
  the next decodable GOP header and keeps going, returning *segments* of
  decoded DC grids together with enough anchoring information for the
  caller to keep its window clock aligned.

Both walk the records the strict decoder walks. A byte-aligned body is
decoded once into varints and hopped in varint-index space
(:class:`~repro.codec.gop._VarintRecords`): a resync candidate is an
``I`` byte, which is below 0x80 and so ends a varint, and the record
read from it is made of exactly the varints of that one parse. An
exp-Golomb body is walked a record at a time
(:class:`~repro.codec.gop._GolombRecords`).

Frame-index anchoring: the segment that starts at the stream head is
anchored at frame 0. After a resync the absolute frame index of the
recovered record is unknown (the toy format stores no frame numbers), so
interior segments are *unanchored* — except the **final** segment, which
can be back-anchored when the reader drains cleanly to the end of the
stream: its first record must sit at ``num_frames - records_remaining``,
and the I/P pattern of the recovered records is validated against the
GOP structure before the anchor is trusted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Union

import numpy as np

from repro.codec.bitstream import BitstreamReader
from repro.codec.gop import (
    _INTRA,
    EncodedVideo,
    _GolombRecords,
    _read_dc_layout,
    _VarintRecords,
)
from repro.errors import BitstreamError, CodecError

__all__ = ["DCSegment", "ResilientScanResult", "resilient_dc_scan",
           "resync_to_next_gop"]


def resync_to_next_gop(
    data: bytes,
    offset: int,
    *,
    num_blocks: int,
    entropy: bool,
) -> Optional[int]:
    """Scan forward from ``offset`` for the next decodable I-frame record.

    Returns the byte offset at which a complete I-frame record parses, or
    ``None`` if no such offset exists before the end of ``data``. Probing
    is exact, not heuristic: a candidate offset is accepted only if a
    full I record walks from it without error, so a stray ``0x49`` byte
    inside coefficient data cannot cause a false lock unless it is
    followed by an entire well-formed record.
    """
    offset = max(0, offset)
    if offset >= len(data):
        return None
    records: Union[_VarintRecords, _GolombRecords] = (
        _GolombRecords(data, num_blocks) if entropy
        else _VarintRecords(data, offset, num_blocks)
    )
    return records.resync(offset)


@dataclass
class DCSegment:
    """A maximal run of contiguously decoded frame records.

    Attributes
    ----------
    kf_slots:
        Absolute keyframe slots (``frame_index // gop_size``) of the
        decoded I frames, or ``None`` when the segment could not be
        anchored to an absolute position (interior segments between two
        corruption points).
    dc_grids:
        One ``(grid_rows, grid_cols)`` float array of dequantised DC
        values per decoded I frame, in stream order.
    record_count:
        Total frame records (I and P/M) the segment walked.
    """

    kf_slots: Optional[List[int]]
    dc_grids: List[np.ndarray] = field(default_factory=list)
    record_count: int = 0


@dataclass
class ResilientScanResult:
    """Everything :func:`resilient_dc_scan` recovered from one bitstream."""

    segments: List[DCSegment]
    decode_errors: int
    resyncs: int
    bytes_skipped: int
    reached_end: bool

    @property
    def keyframes_decoded(self) -> int:
        """I frames recovered across every segment."""
        return sum(len(segment.dc_grids) for segment in self.segments)


def _validate_anchor(
    anchor: int,
    frame_types: List[int],
    gop_size: int,
) -> bool:
    """Check that records starting at ``anchor`` match the I/P cadence."""
    if anchor < 0:
        return False
    for offset, frame_type in enumerate(frame_types):
        is_intra_slot = (anchor + offset) % gop_size == 0
        if is_intra_slot != (frame_type == _INTRA):
            return False
    return True


def resilient_dc_scan(encoded: EncodedVideo) -> ResilientScanResult:
    """DC-decode a possibly damaged bitstream, resyncing past corruption.

    Header corruption is *not* survivable — without trustworthy grid
    dimensions no record can be validated — so a bad header raises
    :class:`BitstreamError` and the caller should treat the whole chunk
    as lost (the :class:`EncodedVideo` metadata fields remain intact for
    frame accounting; fault injection only mutates ``data``). Everything
    needed to decode — grid, GOP size, quantiser — is read from that
    in-band header, as :func:`~repro.codec.gop.decode_dc_coefficients`
    does, so the two agree on any bytes both accept.

    Record-level corruption is survived: the scan resumes at the next
    offset where a complete I-frame record parses, opening a new
    :class:`DCSegment`. The first segment is anchored at frame 0; the
    last is back-anchored from the stream tail when the reader drains
    exactly to the end; segments in between (two or more corruption
    points) carry ``kf_slots=None``.
    """
    data = encoded.data
    reader = BitstreamReader(data)
    try:
        (grid_rows, grid_cols, gop_size, num_frames, dc_quant_step,
         entropy) = _read_dc_layout(reader, len(data))
    except CodecError:
        raise
    except Exception as error:  # pragma: no cover - typed-error backstop
        raise BitstreamError(f"unreadable header: {error}") from error
    num_blocks = grid_rows * grid_cols
    expected_keyframes = encoded.num_keyframes
    records: Union[_VarintRecords, _GolombRecords] = (
        _GolombRecords(data, num_blocks) if entropy
        else _VarintRecords.of(data, reader.position, num_blocks)
    )
    position = reader.position

    segments: List[DCSegment] = []
    segment_types: List[List[int]] = []
    decode_errors = 0
    resyncs = 0
    bytes_skipped = 0
    reached_end = False

    segment = DCSegment(kf_slots=[])
    frame_types: List[int] = []
    records_walked = 0
    keyframes_decoded = 0

    def close_segment() -> None:
        if segment.record_count:
            segments.append(segment)
            segment_types.append(frame_types)

    while records_walked < num_frames:
        if position >= len(data):
            reached_end = True
            break
        record_start = position
        try:
            frame_type, dc_levels, position = records.walk_at(position)
        except CodecError:
            decode_errors += 1
            close_segment()
            segment = DCSegment(kf_slots=None)
            frame_types = []
            if keyframes_decoded >= expected_keyframes:
                # Everything recoverable is in hand; don't chase ghosts
                # in a corrupted tail.
                break
            next_gop = records.resync(record_start + 1)
            if next_gop is None:
                bytes_skipped += len(data) - record_start
                break
            bytes_skipped += next_gop - record_start
            position = next_gop
            resyncs += 1
            continue
        segment.record_count += 1
        records_walked += 1
        frame_types.append(frame_type)
        if frame_type == _INTRA:
            if keyframes_decoded >= expected_keyframes:
                # More I frames than the metadata promises: the walk has
                # drifted into corrupted territory that happens to parse.
                decode_errors += 1
                segment.record_count -= 1
                records_walked -= 1
                frame_types.pop()
                close_segment()
                segment = DCSegment(kf_slots=None)
                frame_types = []
                break
            assert dc_levels is not None
            segment.dc_grids.append(
                dc_levels.reshape(grid_rows, grid_cols) * dc_quant_step
            )
            keyframes_decoded += 1
    else:
        reached_end = position >= len(data)

    close_segment()

    # Anchor the head segment at frame 0 when it was never interrupted
    # before its first record (i.e. it is literally the stream head).
    if segments and segments[0].kf_slots is not None:
        slots = []
        for offset, frame_type in enumerate(segment_types[0]):
            if frame_type == _INTRA:
                slots.append(offset // gop_size)
        segments[0].kf_slots = slots

    # Back-anchor the tail segment: if the reader drained exactly to the
    # end of the stream, the final segment's records must occupy the last
    # ``record_count`` frame slots.
    if (
        reached_end
        and len(segments) > 1
        and segments[-1].kf_slots is None
    ):
        tail = segments[-1]
        tail_types = segment_types[-1]
        anchor = num_frames - tail.record_count
        if _validate_anchor(anchor, tail_types, gop_size):
            slots = []
            for offset, frame_type in enumerate(tail_types):
                if frame_type == _INTRA:
                    slots.append((anchor + offset) // gop_size)
            # Anchoring is only trusted when it doesn't collide with the
            # anchored head segment.
            head_slots = segments[0].kf_slots or []
            if not head_slots or not slots or slots[0] > head_slots[-1]:
                tail.kf_slots = slots

    return ResilientScanResult(
        segments=segments,
        decode_errors=decode_errors,
        resyncs=resyncs,
        bytes_skipped=bytes_skipped,
        reached_end=reached_end,
    )
