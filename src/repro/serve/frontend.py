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
:meth:`~repro.minhash.family.MinHashFamily.sketch_many` pass. The
product is a :class:`WindowBatch`: the batch's
:class:`~repro.minhash.windows.WindowBlock` — the detector's own input,
which every worker probes against its shard's index — so no stream-side
math is redone.

Window coordinates inside a batch are **absolute** (the front end owns
the stream clock), so a worker that never sees a batch — lossy
backpressure policies — keeps later matches at their true stream
positions instead of silently shifting them (see ``docs/serving.md``).

The clock also survives frames that never arrive.
:meth:`StreamFrontend.skip_frames` is the one gap discipline of the
tree (an ingest session's undecodable GOPs and lost chunks): it drops
the partial window, advances the clock over every window the gap
touches, and swallows the rest of the window where the gap ends. The
sacrificed windows and frames ride in-band on the next
:class:`WindowBatch` (``windows_skipped`` / ``frames_skipped``), so
every shard acknowledges the gap at the same point of its stream.

Bit-for-bit equivalence: the per-window sketch values, the processing
order and every engine counter are identical to the single-process
reference — a ``StreamingDetector`` behind a
:class:`~repro.core.live.LiveMonitor` — over the same stream; the
golden-equivalence suite checks the service against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.errors import ServeError
from repro.minhash.family import MinHashFamily
from repro.minhash.windows import WindowBlock, build_window_block
from repro.obs.registry import MetricsRegistry

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
    block:
        The batch's ``nw`` sketched windows
        (:class:`~repro.minhash.windows.WindowBlock`), every one of full
        length (partial tails travel as :class:`TailWindow` at flush).
    windows_skipped, frames_skipped:
        The gap acknowledged since the previous batch: windows the
        clock advanced over without sketching, and frames lost to them
        (see :meth:`StreamFrontend.skip_frames`). Every window of a gap
        precedes every window of the batch.
    """

    base_seq: int
    chunk_windows: np.ndarray
    block: WindowBlock
    windows_skipped: int = 0
    frames_skipped: int = 0

    @property
    def num_chunks(self) -> int:
        return int(self.chunk_windows.shape[0])

    @property
    def num_windows(self) -> int:
        return len(self.block)

    @property
    def nbytes(self) -> int:
        """Total payload bytes (transport accounting)."""
        block = self.block
        return (
            self.chunk_windows.nbytes
            + block.indices.nbytes
            + block.starts.nbytes
            + block.frames.nbytes
            + block.sketch_values.nbytes
        )


@dataclass(frozen=True)
class TailWindow:
    """The stream's final (possibly partial) window, built at flush.

    Same artefacts as one :class:`WindowBatch` row, but for a single
    window: ``sketch_values`` is ``(K,)``. Small enough to travel inline
    on any backend.
    """

    index: int
    start_frame: int
    num_frames: int
    sketch_values: np.ndarray


class StreamFrontend:
    """Buffers the chunk stream and sketches every window exactly once.

    Parameters
    ----------
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
        family: MinHashFamily,
        window_frames: int,
        registry: MetricsRegistry,
    ) -> None:
        self.family = family
        self.window_frames = int(window_frames)
        self.registry = registry
        self._pending = np.empty(0, dtype=np.int64)
        self._flushed = False
        self.windows_emitted = 0
        self.frames_emitted = 0
        # Arriving frames still to drop so the next kept frame starts a
        # window (see skip_frames); > 0 implies _pending is empty.
        self.skip_remaining = 0
        # The gap not yet shipped on a batch: windows, frames.
        self._gap = [0, 0]

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

    @property
    def gap_pending(self) -> bool:
        """Whether a gap is acknowledged but not yet on any batch."""
        return any(self._gap)

    def state(self) -> Tuple[np.ndarray, bool, int, int, int]:
        """``(pending, flushed, windows_emitted, frames_emitted,
        skip_remaining)`` for checkpointing. Take it with no gap
        pending: the shipped gap lives in the shards' counters."""
        return (
            self._pending.copy(),
            self._flushed,
            self.windows_emitted,
            self.frames_emitted,
            self.skip_remaining,
        )

    def restore(
        self,
        pending: np.ndarray,
        flushed: bool,
        windows_emitted: int,
        frames_emitted: int,
        skip_remaining: int = 0,
    ) -> None:
        """Reinstate a :meth:`state` snapshot (checkpoint resume)."""
        pending = np.asarray(pending, dtype=np.int64).copy()
        if windows_emitted < 0 or frames_emitted < 0 or skip_remaining < 0:
            raise ServeError(
                "corrupt frontend snapshot: negative stream clock"
            )
        if skip_remaining and pending.shape[0]:
            raise ServeError(
                "corrupt frontend snapshot: pending frames alongside an "
                "unfinished gap window"
            )
        self._pending = pending
        self._flushed = bool(flushed)
        self.windows_emitted = int(windows_emitted)
        self.frames_emitted = int(frames_emitted)
        self.skip_remaining = int(skip_remaining)

    def skip_frames(self, count: int) -> int:
        """Acknowledge ``count`` stream frames that will never arrive.

        Call at a chunk barrier. The semantics are exactly the oracle's
        (:meth:`repro.core.live.LiveMonitor.skip_frames`):

        * the buffered frames of the partial window are dropped (that
          window can never complete cleanly);
        * the clock advances over every window the gap touches;
        * if the gap ends mid-window, the rest of that window's real
          frames are dropped as they arrive (:attr:`skip_remaining`),
          so the next kept frame starts on a window boundary.

        Returns the windows the clock advanced over (the archive's
        gap). They and every lost frame ship on the next batch.
        """
        if self._flushed:
            raise ServeError(
                "the stream has already been flushed; no more chunks"
            )
        count = int(count)
        if count < 0:
            raise ServeError(f"cannot skip a negative frame count ({count})")
        if count == 0:
            return 0
        window_frames = self.window_frames
        clock = self.frames_emitted
        dropped = int(self._pending.shape[0])
        if self.skip_remaining:
            position = clock - self.skip_remaining
        else:
            position = clock + dropped
        self._pending = np.empty(0, dtype=np.int64)
        end = position + count
        boundary = -(-end // window_frames) * window_frames
        windows = max(0, boundary - clock) // window_frames
        self.windows_emitted += windows
        self.frames_emitted += windows * window_frames
        self.skip_remaining = max(boundary, clock) - end
        self._gap[0] += windows
        self._gap[1] += count + dropped
        return windows

    # ------------------------------------------------------------------
    # batch construction
    # ------------------------------------------------------------------

    def build(
        self, chunks: Sequence[np.ndarray], base_seq: int
    ) -> WindowBatch:
        """Sketch every whole window the chunks complete.

        Chunks are appended to the pending buffer in order (less any
        frames a gap still swallows); each one records how many whole
        windows it completed, then all ready windows of the batch are
        sketched in one ``sketch_many`` pass. The batch also carries
        the gap acknowledged since the previous one.
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
            if self.skip_remaining:
                drop = min(self.skip_remaining, int(ids.shape[0]))
                ids = ids[drop:]
                self.skip_remaining -= drop
                self._gap[1] += drop
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
        block = build_window_block(
            np.concatenate(segments) if segments else np.empty(0, np.int64),
            window_frames,
            self.family,
            first_index=self.windows_emitted,
            first_frame=self.frames_emitted,
        )
        num_windows = len(block)
        self.windows_emitted += num_windows
        self.frames_emitted += num_windows * window_frames
        (windows_skipped, frames_skipped), self._gap = self._gap, [0, 0]
        return WindowBatch(
            base_seq=int(base_seq),
            chunk_windows=np.asarray(counts, dtype=np.int64),
            block=block,
            windows_skipped=windows_skipped,
            frames_skipped=frames_skipped,
        )

    def flush_tail(self) -> Optional[TailWindow]:
        """Sketch the trailing partial window; ``None`` when the stream
        ended exactly on a window boundary. Marks the stream flushed
        (ship any pending gap on a batch first)."""
        if self._flushed:
            return None
        self._flushed = True
        self.skip_remaining = 0
        if self._pending.shape[0] == 0:
            return None
        with self.registry.phase("phase.frontend"):
            tail, self._pending = self._pending, np.empty(
                0, dtype=np.int64
            )
            values = build_window_block(
                tail, self.window_frames, self.family
            ).sketch_values[0]
            window = TailWindow(
                index=self.windows_emitted,
                start_frame=self.frames_emitted,
                num_frames=int(tail.shape[0]),
                sketch_values=values,
            )
            self.windows_emitted += 1
            self.frames_emitted += window.num_frames
            return window
