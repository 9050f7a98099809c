"""Sketch-once stream front end for the sharded detection service.

The paper's Section IV sketches each basic window of the stream once
and combines that sketch (Property 1) against every query. Under
sharding that means the stream-side work — window construction and
``(C, K)`` min-hash sketching — belongs in front of the workers, not in
each of them, or it is multiplied by the worker count.

:class:`StreamFrontend` is where the stream is sketched, and the only
place that knows it: the service buffers the chunk stream exactly like
a single-process :class:`~repro.core.live.LiveMonitor` (whole basic
windows cut at the same boundaries, a partial tail only at flush),
sketches every ready window of a chunk batch in **one**
:meth:`~repro.minhash.family.MinHashFamily.sketch_many` pass, and — in
bit mode without the index — encodes the packed window-vs-query
signature planes for the *full* sorted query population in one
broadcasted :func:`~repro.signature.bitsig.encode_planes_many` kernel.
The product is a :class:`WindowBatch`: flat arrays a worker can slice
per shard (plane rows by qid) without redoing any stream-side math.

Window coordinates inside a batch are **absolute** (the front end owns
the stream clock), so a worker that never sees a batch — lossy
backpressure policies — keeps later matches at their true stream
positions instead of silently shifting them (see ``docs/serving.md``).

Bit-for-bit equivalence: the per-window sketch values, the plane bits,
the processing order and every engine counter are identical to a
single-process ``StreamingDetector`` + ``LiveMonitor`` over the same
stream — the golden-equivalence suite checks the service against that
reference in every mode, order and engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.config import DetectorConfig, Representation
from repro.errors import ServeError
from repro.minhash.family import MinHashFamily
from repro.obs.registry import MetricsRegistry
from repro.signature.bitsig import (
    encode_planes,
    encode_planes_many,
    plane_words,
)

__all__ = ["StreamFrontend", "TailWindow", "WindowBatch"]


@dataclass(frozen=True)
class WindowBatch:
    """Precomputed stream-side artefacts for a batch of chunks.

    One batch covers ``num_chunks`` consecutive stream chunks starting
    at sequence number ``base_seq``; ``chunk_windows[i]`` whole basic
    windows were completed by chunk ``base_seq + i`` (possibly zero —
    the chunk's frames stayed buffered). All window coordinates are
    absolute stream positions.

    Attributes
    ----------
    base_seq:
        Sequence number of the first chunk in the batch.
    chunk_windows:
        ``(num_chunks,)`` int64 — whole windows completed per chunk.
    indices:
        ``(nw,)`` int64 absolute basic-window indices.
    starts:
        ``(nw,)`` int64 absolute start frames.
    frames:
        ``(nw,)`` int64 per-window frame counts (always the full window
        length; partial tails travel as :class:`TailWindow` at flush).
    sketch_values:
        ``(nw, K)`` int64 min-hash values, one row per window.
    plane_qids:
        The sorted qid tuple the plane rows are laid out against, or
        ``None`` when planes were not precomputed (index or sketch
        mode). Workers map their shard's qids to rows through this.
    ge, lt:
        ``(nw, Q, W)`` packed uint64 window-vs-query signature planes
        (``None`` alongside ``plane_qids``).
    """

    base_seq: int
    chunk_windows: np.ndarray
    indices: np.ndarray
    starts: np.ndarray
    frames: np.ndarray
    sketch_values: np.ndarray
    plane_qids: Optional[Tuple[int, ...]] = None
    ge: Optional[np.ndarray] = None
    lt: Optional[np.ndarray] = None

    @property
    def num_chunks(self) -> int:
        return int(self.chunk_windows.shape[0])

    @property
    def num_windows(self) -> int:
        return int(self.indices.shape[0])

    @property
    def nbytes(self) -> int:
        """Total payload bytes (transport accounting)."""
        total = (
            self.chunk_windows.nbytes
            + self.indices.nbytes
            + self.starts.nbytes
            + self.frames.nbytes
            + self.sketch_values.nbytes
        )
        if self.ge is not None:
            total += self.ge.nbytes + self.lt.nbytes
        return total


@dataclass(frozen=True)
class TailWindow:
    """The stream's final (possibly partial) window, built at flush.

    Same artefacts as one :class:`WindowBatch` row, but for a single
    window: ``sketch_values`` is ``(K,)`` and the planes are ``(Q, W)``.
    Small enough to travel inline on any backend.
    """

    index: int
    start_frame: int
    num_frames: int
    sketch_values: np.ndarray
    plane_qids: Optional[Tuple[int, ...]] = None
    ge: Optional[np.ndarray] = None
    lt: Optional[np.ndarray] = None


class StreamFrontend:
    """Buffers the chunk stream and sketches every window exactly once.

    Parameters
    ----------
    config:
        The shared detector configuration; decides whether signature
        planes are precomputed (bit representation without the index —
        the index path probes per shard, the sketch path needs none).
    family:
        The service's min-hash family (the queries' family).
    window_frames:
        Basic-window length in key frames.
    registry:
        The service registry; batch construction runs under its
        ``phase.frontend`` timer.
    """

    def __init__(
        self,
        config: DetectorConfig,
        family: MinHashFamily,
        window_frames: int,
        registry: MetricsRegistry,
    ) -> None:
        self.config = config
        self.family = family
        self.window_frames = int(window_frames)
        self.registry = registry
        self.precompute_planes = (
            config.representation is Representation.BIT
            and not config.use_index
        )
        self._pending = np.empty(0, dtype=np.int64)
        self._flushed = False
        self.windows_emitted = 0
        self.frames_emitted = 0
        self._qids: Tuple[int, ...] = ()
        self._matrix: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # query layout
    # ------------------------------------------------------------------

    def set_queries(self, queries) -> None:
        """Refresh the plane layout after construction or churn.

        ``queries`` maps qid → :class:`~repro.core.query.Query`; the
        plane rows follow sorted-qid order, matching every shard's
        :meth:`~repro.core.context.EvalContext.query_columns` layout so
        workers slice rows by a simple qid → row lookup.
        """
        if not self.precompute_planes:
            return
        qids = tuple(sorted(queries))
        self._qids = qids
        self._matrix = np.stack(
            [queries[qid].sketch.values for qid in qids]
        )

    # ------------------------------------------------------------------
    # stream clock / buffer
    # ------------------------------------------------------------------

    @property
    def pending_frames(self) -> int:
        """Key frames buffered but not yet forming a full window."""
        return int(self._pending.shape[0])

    @property
    def flushed(self) -> bool:
        return self._flushed

    def state(self) -> Tuple[np.ndarray, bool, int, int]:
        """``(pending, flushed, windows_emitted, frames_emitted)`` for
        checkpointing."""
        return (
            self._pending.copy(),
            self._flushed,
            self.windows_emitted,
            self.frames_emitted,
        )

    def restore(
        self,
        pending: np.ndarray,
        flushed: bool,
        windows_emitted: int,
        frames_emitted: int,
    ) -> None:
        """Reinstate a :meth:`state` snapshot (checkpoint resume)."""
        pending = np.asarray(pending, dtype=np.int64).copy()
        if windows_emitted < 0 or frames_emitted < 0:
            raise ServeError(
                "corrupt frontend snapshot: negative stream clock"
            )
        self._pending = pending
        self._flushed = bool(flushed)
        self.windows_emitted = int(windows_emitted)
        self.frames_emitted = int(frames_emitted)

    # ------------------------------------------------------------------
    # batch construction
    # ------------------------------------------------------------------

    def build(
        self, chunks: Sequence[np.ndarray], base_seq: int
    ) -> WindowBatch:
        """Sketch (and encode) every whole window the chunks complete.

        Chunks are appended to the pending buffer in order; each one
        records how many whole windows it completed (the same cut every
        worker's ``LiveMonitor`` used to make), then all ready windows
        of the batch are sketched in one ``sketch_many`` pass.
        """
        if self._flushed:
            raise ServeError(
                "the stream has already been flushed; no more chunks"
            )
        with self.registry.phase("phase.frontend"):
            return self._build(chunks, base_seq)

    def _build(
        self, chunks: Sequence[np.ndarray], base_seq: int
    ) -> WindowBatch:
        window_frames = self.window_frames
        counts: List[int] = []
        segments: List[np.ndarray] = []
        for chunk in chunks:
            ids = np.asarray(chunk, dtype=np.int64)
            if ids.ndim != 1:
                raise ServeError(
                    f"cell ids must be 1-D, got shape {ids.shape}"
                )
            self._pending = np.concatenate([self._pending, ids])
            full = (
                self._pending.shape[0] // window_frames
            ) * window_frames
            ready, self._pending = (
                self._pending[:full],
                self._pending[full:],
            )
            counts.append(full // window_frames)
            if full:
                segments.append(ready)
        num_windows = sum(counts)
        if segments:
            stream = np.concatenate(segments)
        else:
            stream = np.empty(0, dtype=np.int64)
        distinct = [
            np.unique(stream[start : start + window_frames])
            for start in range(0, stream.shape[0], window_frames)
        ]
        sketches = self.family.sketch_many(distinct)
        if num_windows:
            sketch_values = np.stack(
                [sketch.values for sketch in sketches]
            )
        else:
            sketch_values = np.empty(
                (0, self.config.num_hashes), dtype=np.int64
            )
        indices = self.windows_emitted + np.arange(
            num_windows, dtype=np.int64
        )
        starts = self.frames_emitted + np.arange(
            num_windows, dtype=np.int64
        ) * np.int64(window_frames)
        frames = np.full(num_windows, window_frames, dtype=np.int64)
        self.windows_emitted += num_windows
        self.frames_emitted += num_windows * window_frames
        plane_qids: Optional[Tuple[int, ...]] = None
        ge = lt = None
        if self.precompute_planes and self._matrix is not None:
            plane_qids = self._qids
            if num_windows:
                ge, lt = encode_planes_many(sketch_values, self._matrix)
            else:
                width = plane_words(self.config.num_hashes)
                shape = (0, len(plane_qids), width)
                ge = np.zeros(shape, dtype=np.uint64)
                lt = np.zeros(shape, dtype=np.uint64)
        return WindowBatch(
            base_seq=int(base_seq),
            chunk_windows=np.asarray(counts, dtype=np.int64),
            indices=indices,
            starts=starts,
            frames=frames,
            sketch_values=sketch_values,
            plane_qids=plane_qids,
            ge=ge,
            lt=lt,
        )

    def flush_tail(self) -> Optional[TailWindow]:
        """Sketch the trailing partial window; ``None`` when the stream
        ended exactly on a window boundary. Marks the stream flushed."""
        if self._flushed:
            return None
        self._flushed = True
        if self._pending.shape[0] == 0:
            return None
        with self.registry.phase("phase.frontend"):
            tail, self._pending = self._pending, np.empty(
                0, dtype=np.int64
            )
            distinct = np.unique(tail)
            sketch = self.family.sketch_many([distinct])[0]
            window = TailWindow(
                index=self.windows_emitted,
                start_frame=self.frames_emitted,
                num_frames=int(tail.shape[0]),
                sketch_values=sketch.values,
                plane_qids=(
                    self._qids
                    if self.precompute_planes and self._matrix is not None
                    else None
                ),
            )
            if window.plane_qids is not None:
                ge, lt = encode_planes(sketch.values, self._matrix)
                window = TailWindow(
                    index=window.index,
                    start_frame=window.start_frame,
                    num_frames=window.num_frames,
                    sketch_values=window.sketch_values,
                    plane_qids=window.plane_qids,
                    ge=ge,
                    lt=lt,
                )
            self.windows_emitted += 1
            self.frames_emitted += window.num_frames
            return window
