"""Stream sources: where chunked video enters the ingestion layer.

A *source* is an iterable of :class:`StreamChunk` items for exactly one
stream. Three payload kinds flow through the same chunk type, matching
the three input adapters of :class:`~repro.core.live.LiveMonitor`:

* :class:`~repro.codec.gop.EncodedVideo` — a compressed bitstream
  segment (the production path: capture card / network tap). Only this
  kind can be bit-corrupted by the fault injector.
* a ``(n, h, w)`` float array — raw key frames (pixel path).
* a 1-D int64 array — pre-extracted cell ids (the cheap path used by
  equivalence tests and scheduling benchmarks, where codec work would
  drown the quantity under test).

Concrete sources:

* :class:`SyntheticSource` — procedurally generated content
  (:class:`~repro.video.synth.ClipSynthesizer`), encoded chunk by chunk
  on demand; selected chunks can be replaced with caller-provided clips
  so query copies appear at known stream positions.
* :class:`EncodedChunkSource` / :class:`CellIdSource` — wrap
  pre-materialised chunk lists.
* :class:`ReplaySource` — replays a stream recorded to disk with
  :func:`record_stream` (npz container), for deterministic re-runs of a
  captured incident.

Every source counts what it *offered* (``chunks_offered``,
``keyframes_offered``); the scheduler reconciles these against what the
sessions decoded, skipped and dropped — the chaos-survival invariant.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Union

import numpy as np

from repro.codec.gop import EncodedVideo, encode_video
from repro.errors import IngestError
from repro.persistence import open_archive
from repro.utils.atomic import atomic_savez
from repro.utils.rng import derive_seed
from repro.video.clip import VideoClip
from repro.video.formats import VideoFormat
from repro.video.synth import ClipSynthesizer, SynthesisConfig

__all__ = [
    "CellIdSource",
    "EncodedChunkSource",
    "INGEST_FORMAT",
    "ReplaySource",
    "StreamChunk",
    "StreamSource",
    "SyntheticSource",
    "record_stream",
]

#: Compact format for synthetic ingest streams: small frames and an
#: integer frame rate, so GOP cadence divides chunk boundaries exactly.
INGEST_FORMAT = VideoFormat(name="ingest", width=64, height=48, fps=12.0)


Payload = Union[EncodedVideo, np.ndarray]


@dataclass(frozen=True)
class StreamChunk:
    """One delivery unit of one stream.

    Attributes
    ----------
    stream_id:
        The stream this chunk belongs to.
    seq:
        Monotonic per-stream sequence number assigned by the source.
        Fault injection may duplicate a seq (re-delivery); sessions
        deduplicate on it.
    payload:
        :class:`EncodedVideo`, raw frames ``(n, h, w)``, or 1-D cell ids.
    stall_seconds:
        Simulated delivery delay attached by the fault injector. The
        scheduler accounts it (``ingest.stall_seconds``) and may sleep
        it in real-time mode.
    """

    stream_id: int
    seq: int
    payload: Payload
    stall_seconds: float = 0.0

    @property
    def expected_keyframes(self) -> int:
        """Key frames this chunk should contribute to the window clock.

        Derived from metadata only (never from decoding), so it stays
        correct for a chunk whose byte payload was corrupted in flight.
        """
        payload = self.payload
        if isinstance(payload, EncodedVideo):
            return payload.num_keyframes
        array = np.asarray(payload)
        if array.ndim == 3:
            return int(array.shape[0])
        if array.ndim == 1:
            return int(array.shape[0])
        raise IngestError(
            f"stream {self.stream_id} chunk {self.seq}: unsupported "
            f"payload shape {array.shape}"
        )


class StreamSource:
    """Base class: an iterable of chunks with offered-work counters."""

    def __init__(self, stream_id: int) -> None:
        self.stream_id = stream_id
        self.chunks_offered = 0
        self.keyframes_offered = 0

    def _chunks(self) -> Iterator[StreamChunk]:
        raise NotImplementedError

    def __iter__(self) -> Iterator[StreamChunk]:
        for chunk in self._chunks():
            self.chunks_offered += 1
            self.keyframes_offered += chunk.expected_keyframes
            yield chunk


class SyntheticSource(StreamSource):
    """Procedural content, encoded one chunk at a time on demand.

    Parameters
    ----------
    stream_id:
        Stream identifier (also salts the content substream).
    seed:
        Parent seed; content derives from
        ``derive_seed(seed, f"ingest-stream-{stream_id}")`` and the
        chunk label, so every chunk is reproducible in isolation.
    num_chunks:
        Chunks to emit.
    chunk_seconds:
        Duration of each chunk.
    video_format:
        Frame size / rate of the generated content.
    gop_size, quality, entropy_coding:
        Encoder settings; the keyframe cadence seen by the detector is
        ``fps / gop_size``.
    copies:
        Optional mapping ``chunk_index -> VideoClip``: those chunks
        carry the given clip's frames (a query copy at a known position)
        instead of fresh synthetic content. The clip must match the
        source's video format.
    """

    def __init__(
        self,
        stream_id: int,
        seed: int,
        num_chunks: int,
        chunk_seconds: float = 2.0,
        video_format: VideoFormat = INGEST_FORMAT,
        gop_size: int = 6,
        quality: int = 75,
        entropy_coding: bool = False,
        copies: Optional[Mapping[int, VideoClip]] = None,
    ) -> None:
        super().__init__(stream_id)
        if num_chunks <= 0:
            raise IngestError(f"num_chunks must be positive, got {num_chunks}")
        if chunk_seconds <= 0:
            raise IngestError(
                f"chunk_seconds must be positive, got {chunk_seconds}"
            )
        self.seed = seed
        self.num_chunks = num_chunks
        self.chunk_seconds = chunk_seconds
        self.video_format = video_format
        self.gop_size = gop_size
        self.quality = quality
        self.entropy_coding = entropy_coding
        self.copies: Dict[int, VideoClip] = dict(copies or {})
        self._synth = ClipSynthesizer(
            SynthesisConfig(video_format=video_format),
            seed=derive_seed(seed, f"ingest-stream-{stream_id}"),
        )

    @property
    def keyframes_per_second(self) -> float:
        """Keyframe cadence the downstream detector must be built with."""
        return self.video_format.fps / self.gop_size

    def encode_chunk(self, index: int) -> EncodedVideo:
        """Materialise chunk ``index`` (pure function of the seed)."""
        copy = self.copies.get(index)
        if copy is not None:
            frames = copy.frames
            fps = copy.fps
        else:
            clip = self._synth.generate_clip(
                self.chunk_seconds, f"s{self.stream_id}-chunk{index}"
            )
            frames = clip.frames
            fps = clip.fps
        return encode_video(
            frames,
            fps=fps,
            quality=self.quality,
            gop_size=self.gop_size,
            entropy_coding=self.entropy_coding,
        )

    def _chunks(self) -> Iterator[StreamChunk]:
        for index in range(self.num_chunks):
            yield StreamChunk(
                stream_id=self.stream_id,
                seq=index,
                payload=self.encode_chunk(index),
            )


class EncodedChunkSource(StreamSource):
    """A pre-materialised list of encoded bitstream chunks."""

    def __init__(
        self, stream_id: int, chunks: Sequence[EncodedVideo]
    ) -> None:
        super().__init__(stream_id)
        self._payloads = list(chunks)

    def _chunks(self) -> Iterator[StreamChunk]:
        for index, payload in enumerate(self._payloads):
            yield StreamChunk(
                stream_id=self.stream_id, seq=index, payload=payload
            )


class CellIdSource(StreamSource):
    """Pre-extracted cell-id chunks (codec-free fast path)."""

    def __init__(
        self, stream_id: int, chunks: Sequence[np.ndarray]
    ) -> None:
        super().__init__(stream_id)
        self._payloads = [
            np.asarray(chunk, dtype=np.int64) for chunk in chunks
        ]
        for index, payload in enumerate(self._payloads):
            if payload.ndim != 1:
                raise IngestError(
                    f"cell-id chunk {index} must be 1-D, "
                    f"got shape {payload.shape}"
                )

    def _chunks(self) -> Iterator[StreamChunk]:
        for index, payload in enumerate(self._payloads):
            yield StreamChunk(
                stream_id=self.stream_id, seq=index, payload=payload
            )


# ----------------------------------------------------------------------
# record / replay
# ----------------------------------------------------------------------

#: Format tag of recorded stream files.
RECORDING_FORMAT = "repro.stream/1"

_ENCODED_FIELDS = (
    "width", "height", "block_size", "quality", "gop_size", "num_frames"
)


def record_stream(
    path: Union[str, pathlib.Path],
    source: StreamSource,
) -> int:
    """Drain ``source`` into an npz recording; returns chunks written.

    The recording preserves payload kind per chunk (encoded bitstreams
    keep their full header metadata; cell-id and frame chunks keep their
    arrays), so a :class:`ReplaySource` reproduces the original chunk
    stream byte for byte — including any corruption already present if
    the recorded source was fault-wrapped.
    """
    payload: Dict[str, np.ndarray] = {
        "format": np.asarray([RECORDING_FORMAT]),
    }
    count = 0
    for chunk in source:
        prefix = f"chunk{count}_"
        item = chunk.payload
        if isinstance(item, EncodedVideo):
            payload[prefix + "kind"] = np.asarray(["encoded"])
            payload[prefix + "data"] = np.frombuffer(item.data, dtype=np.uint8)
            payload[prefix + "meta"] = np.asarray(
                [getattr(item, name) for name in _ENCODED_FIELDS]
                + [1 if item.entropy_coding else 0],
                dtype=np.int64,
            )
            payload[prefix + "fps"] = np.asarray([item.fps], dtype=np.float64)
        else:
            array = np.asarray(item)
            kind = "cells" if array.ndim == 1 else "frames"
            payload[prefix + "kind"] = np.asarray([kind])
            payload[prefix + "data"] = array
        count += 1
    payload["num_chunks"] = np.asarray([count], dtype=np.int64)
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    atomic_savez(path, payload)
    return count


class ReplaySource(StreamSource):
    """Replay a stream recorded with :func:`record_stream`.

    A recording is a file from outside the program: nothing in it is
    unpickled, and anything unreadable — an object array included, as
    in recordings made before the tags became unicode arrays — raises
    :class:`~repro.errors.IngestError`.
    """

    def __init__(
        self, stream_id: int, path: Union[str, pathlib.Path]
    ) -> None:
        super().__init__(stream_id)
        self.path = pathlib.Path(path)
        self._payloads: List[Payload] = []
        with open_archive(
            self.path, "stream recording", IngestError
        ) as archive:
            fmt = str(archive["format"][0])
            if fmt != RECORDING_FORMAT:
                raise IngestError(
                    f"unsupported recording format {fmt!r} "
                    f"(expected {RECORDING_FORMAT!r})"
                )
            for index in range(int(archive["num_chunks"][0])):
                prefix = f"chunk{index}_"
                kind = str(archive[prefix + "kind"][0])
                if kind == "encoded":
                    meta = archive[prefix + "meta"]
                    fields = dict(zip(_ENCODED_FIELDS, (int(v) for v in meta)))
                    self._payloads.append(
                        EncodedVideo(
                            data=archive[prefix + "data"].tobytes(),
                            fps=float(archive[prefix + "fps"][0]),
                            entropy_coding=bool(int(meta[-1])),
                            **fields,
                        )
                    )
                elif kind in ("cells", "frames"):
                    self._payloads.append(np.array(archive[prefix + "data"]))
                else:
                    raise IngestError(
                        f"chunk {index}: unknown payload kind {kind!r}"
                    )

    def _chunks(self) -> Iterator[StreamChunk]:
        for index, payload in enumerate(self._payloads):
            yield StreamChunk(
                stream_id=self.stream_id, seq=index, payload=payload
            )
