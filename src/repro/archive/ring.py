"""The sketch archive: a bounded in-memory ring that spills to disk.

:class:`SketchArchive` retains, for every basic window the stream front
end emits, exactly the *query-independent* artefact the detection
engines need to re-evaluate that window later: its ``(K,)`` K-min-hash
sketch plus the window's absolute coordinates (index, start frame,
frame count). Windows accumulate in an in-memory ring; once a
contiguous run reaches ``segment_windows`` (or is closed by a stream
gap) it is **sealed** to the :class:`~repro.archive.store.SegmentStore`
as an immutable ``repro.arch/1`` file, keeping resident memory bounded
by one open segment regardless of stream length.

Only sketches are archived: window-vs-query signatures are relative to
the queries subscribed at the time and useless to a query that arrives
later. The :class:`~repro.archive.backfill.BackfillEngine` probes the
archived sketches for its own query set through the same
``StreamingDetector.process_batch`` — one call per segment — so probing
archived windows exercises bit-for-bit the columnar path live windows
take (see ``docs/archive.md``).

**Watermark.** ``next_index`` is the next basic-window index the
archive expects. :meth:`append` silently drops rows below it, which
makes re-feeding a stream after checkpoint resume idempotent: the
service checkpoint carries the watermark and the unsealed ring,
so a resumed service neither re-archives nor drops windows, and
:meth:`restore` reconciles the snapshot against whatever segments made
it to disk before the crash (disk may be *ahead* of the snapshot —
sealing is synchronous, checkpointing periodic).

**Retention.** Oldest sealed segments are dropped once any configured
bound is exceeded — ``retain_windows`` (total retained windows),
``retain_bytes`` (on-disk footprint) or ``retain_seconds`` (segment
age). Segments pinned by an in-flight backfill survive until unpinned.

**One thread.** The service appends and the backfill engine reads on
the same thread, the service caller's, so the archive takes no lock;
do not share one between threads.
"""

from __future__ import annotations

import pathlib
import time
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.errors import ArchiveError
from repro.obs.registry import MetricsRegistry
from repro.archive.store import SegmentStore

__all__ = ["SketchArchive"]

Block = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


class SketchArchive:
    """Bounded, spillable archive of per-window K-min sketches.

    Parameters
    ----------
    family_fingerprint:
        ``(num_hashes, seed, prime)`` of the stream's hash family;
        recorded in every segment and checked by the backfill engine.
    num_hashes:
        Sketch width ``K`` (shapes empty payloads).
    directory:
        Segment directory. ``None`` keeps the archive memory-only: the
        ring itself is then the retained set and ``retain_windows``
        bounds it directly.
    segment_windows:
        Windows per sealed segment (and the resident-memory bound).
    retain_windows / retain_bytes / retain_seconds:
        Retention bounds; ``None`` disables that bound.
    registry:
        Service metrics registry for the ``archive.*`` series.
    """

    def __init__(
        self,
        family_fingerprint: Tuple[int, int, int],
        num_hashes: int,
        directory: Union[str, pathlib.Path, None] = None,
        segment_windows: int = 256,
        retain_windows: Optional[int] = None,
        retain_bytes: Optional[int] = None,
        retain_seconds: Optional[float] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if segment_windows < 1:
            raise ArchiveError(
                f"segment_windows must be >= 1, got {segment_windows}"
            )
        for name, bound in (
            ("retain_windows", retain_windows),
            ("retain_bytes", retain_bytes),
            ("retain_seconds", retain_seconds),
        ):
            if bound is not None and bound <= 0:
                raise ArchiveError(f"{name} must be positive, got {bound}")
        self.family_fingerprint = tuple(
            int(v) for v in family_fingerprint
        )
        self.num_hashes = int(num_hashes)
        self.segment_windows = int(segment_windows)
        self.retain_windows = retain_windows
        self.retain_bytes = retain_bytes
        self.retain_seconds = retain_seconds
        self.registry = registry or MetricsRegistry(timing_enabled=False)
        self.store: Optional[SegmentStore] = (
            SegmentStore(directory) if directory is not None else None
        )
        self._indices: List[int] = []
        self._starts: List[int] = []
        self._frames: List[int] = []
        self._values: List[np.ndarray] = []
        self.next_index = 0
        self._pins: Dict[int, Tuple[int, int]] = {}
        self._next_pin = 0
        for counter in (
            "archive.windows_archived",
            "archive.windows_deduped",
            "archive.windows_gapped",
            "archive.windows_dropped",
            "archive.windows_reconciled",
            "archive.segments_sealed",
            "archive.segments_compacted",
        ):
            self.registry.inc(counter, 0)
        if self.store is not None:
            self.store.recover()
            if self.store.segments:
                self.next_index = self.store.segments[-1].end_index
        self._publish_gauges()

    # -- introspection -------------------------------------------------

    @property
    def ring_windows(self) -> int:
        return len(self._indices)

    def windows_retained(self) -> int:
        sealed = self.store.windows_on_disk() if self.store else 0
        return sealed + len(self._indices)

    def bytes_on_disk(self) -> int:
        return self.store.bytes_on_disk() if self.store else 0

    def available(self) -> Tuple[int, int]:
        """``[lo, hi)`` — the retained index range (may contain holes
        from stream gaps or pruning; readers skip them)."""
        if self.store is not None and self.store.segments:
            lo = self.store.segments[0].first_index
        elif self._indices:
            lo = self._indices[0]
        else:
            lo = self.next_index
        return lo, self.next_index

    def fast_forward(self, next_index: int) -> None:
        """Advance the watermark to the live stream clock (archiving
        enabled mid-stream on a resumed service: the windows already
        streamed were never archived and are not gaps)."""
        if next_index > self.next_index:
            self.next_index = int(next_index)
            self._seal_ready()
            self._publish_gauges()

    # -- append path ---------------------------------------------------

    def append(
        self,
        indices: np.ndarray,
        starts: np.ndarray,
        frames: np.ndarray,
        sketch_values: np.ndarray,
    ) -> int:
        """Archive a batch of windows; returns how many were new.

        Rows below the watermark are deduplicated (checkpoint-resume
        re-feeds). Rows at or above it must be strictly ascending;
        jumps are stream gaps — counted, and the run before the gap is
        sealed so segments stay index-contiguous.
        """
        indices = np.asarray(indices, dtype=np.int64)
        starts = np.asarray(starts, dtype=np.int64)
        frames = np.asarray(frames, dtype=np.int64)
        sketch_values = np.asarray(sketch_values, dtype=np.int64)
        if indices.shape[0] == 0:
            return 0
        if sketch_values.shape != (indices.shape[0], self.num_hashes):
            raise ArchiveError(
                f"sketch block shape {sketch_values.shape} does not "
                f"match {indices.shape[0]} windows of K={self.num_hashes}"
            )
        fresh = indices >= self.next_index
        deduped = int(indices.shape[0] - np.count_nonzero(fresh))
        if deduped:
            self.registry.inc("archive.windows_deduped", deduped)
        new = 0
        for row in np.nonzero(fresh)[0]:
            index = int(indices[row])
            if index < self.next_index:
                raise ArchiveError(
                    "window indices must be ascending within a batch"
                )
            if index > self.next_index:
                self.registry.inc(
                    "archive.windows_gapped", index - self.next_index
                )
            self._indices.append(index)
            self._starts.append(int(starts[row]))
            self._frames.append(int(frames[row]))
            self._values.append(
                np.asarray(sketch_values[row], dtype=np.int64).copy()
            )
            self.next_index = index + 1
            new += 1
        if new:
            self.registry.inc("archive.windows_archived", new)
            self._seal_ready()
            self.enforce_retention()
        return new

    def note_gap(self, num_windows: int) -> None:
        """Advance the watermark over windows the stream lost (lossy
        degradation policies); the open run seals at the hole."""
        if num_windows <= 0:
            return
        self.registry.inc("archive.windows_gapped", num_windows)
        self.next_index += int(num_windows)
        self._seal_ready()
        self._publish_gauges()

    def _head_run(self) -> int:
        """Length of the contiguous index run at the ring head."""
        run = 0
        for position, index in enumerate(self._indices):
            if index != self._indices[0] + position:
                break
            run += 1
        return run

    def _seal_ready(self) -> None:
        if self.store is None:
            return
        while self._indices:
            run = self._head_run()
            closed = (
                run < len(self._indices)  # a gap sits inside the ring
                or self._indices[run - 1] + 1 < self.next_index
            )
            if run >= self.segment_windows:
                take = self.segment_windows
            elif closed:
                take = run
            else:
                break
            self._seal_head(take)

    def _seal_head(self, take: int) -> None:
        """Seal the ring's first ``take`` windows as one segment."""
        self.store.seal(
            self._indices[0],
            np.asarray(self._starts[:take], dtype=np.int64),
            np.asarray(self._frames[:take], dtype=np.int64),
            np.stack(self._values[:take]),
            self.family_fingerprint,
        )
        self.registry.inc("archive.segments_sealed")
        del self._indices[:take]
        del self._starts[:take]
        del self._frames[:take]
        del self._values[:take]

    def seal_open_run(self) -> None:
        """Force the unsealed ring to disk (shutdown/testing hook)."""
        if self.store is None or not self._indices:
            return
        while self._indices:
            self._seal_head(min(self._head_run(), self.segment_windows))
        self._publish_gauges()

    # -- retention -----------------------------------------------------

    def pin(self, lo: int, hi: int) -> int:
        """Protect ``[lo, hi)`` from retention until unpinned."""
        token = self._next_pin
        self._next_pin += 1
        self._pins[token] = (int(lo), int(hi))
        return token

    def unpin(self, token: int) -> None:
        self._pins.pop(token, None)
        self.enforce_retention()

    def _pinned(self, lo: int, hi: int) -> bool:
        return any(
            pin_lo < hi and lo < pin_hi
            for pin_lo, pin_hi in self._pins.values()
        )

    def enforce_retention(self) -> int:
        """Drop oldest windows until every configured bound holds;
        returns windows dropped. Pinned segments stop the sweep."""
        dropped = 0
        if self.store is not None:
            dropped += self._enforce_disk()
        elif self.retain_windows is not None:
            over = len(self._indices) - self.retain_windows
            while over > 0:
                index = self._indices[0]
                if self._pinned(index, index + 1):
                    break
                del self._indices[0]
                del self._starts[0]
                del self._frames[0]
                del self._values[0]
                dropped += 1
                over -= 1
        if dropped:
            self.registry.inc("archive.windows_dropped", dropped)
        self._publish_gauges()
        return dropped

    def _enforce_disk(self) -> int:
        assert self.store is not None
        dropped = 0
        now = time.time()
        while self.store.segments:
            victim = self.store.segments[0]
            over = (
                self.retain_windows is not None
                and self.windows_retained() > self.retain_windows
            )
            over = over or (
                self.retain_bytes is not None
                and self.store.bytes_on_disk() > self.retain_bytes
            )
            over = over or (
                self.retain_seconds is not None
                and now - victim.sealed_at > self.retain_seconds
            )
            if not over:
                break
            if self._pinned(victim.first_index, victim.end_index):
                break
            self.store.remove(victim)
            dropped += victim.num_windows
        return dropped

    def compact(self) -> int:
        """Coalesce undersized adjacent segments; returns merges."""
        if self.store is None:
            return 0
        merged = self.store.compact(
            self.segment_windows, self.family_fingerprint
        )
        if merged:
            self.registry.inc("archive.segments_compacted", merged)
        self._publish_gauges()
        return merged

    # -- read path -----------------------------------------------------

    def iter_blocks(self, start: int, stop: int) -> List[Block]:
        """``(indices, starts, frames, sketch_values)`` blocks covering
        every retained window in ``[start, stop)``, ascending. Holes
        (gaps, pruned segments) are skipped silently — callers see
        exactly what is retained. Materialised, so later appends
        cannot change a block already returned."""
        blocks: List[Block] = []
        if self.store is not None:
            for info in self.store.segments:
                if info.end_index <= start or info.first_index >= stop:
                    continue
                seg_starts, seg_frames, seg_values = self.store.load(
                    info
                )
                indices = info.first_index + np.arange(
                    info.num_windows, dtype=np.int64
                )
                keep = (indices >= start) & (indices < stop)
                if not keep.all():
                    indices = indices[keep]
                    seg_starts = seg_starts[keep]
                    seg_frames = seg_frames[keep]
                    seg_values = seg_values[keep]
                if indices.shape[0]:
                    blocks.append(
                        (indices, seg_starts, seg_frames, seg_values)
                    )
        if self._indices:
            indices = np.asarray(self._indices, dtype=np.int64)
            keep = (indices >= start) & (indices < stop)
            rows = np.nonzero(keep)[0]
            if rows.shape[0]:
                blocks.append(
                    (
                        indices[rows],
                        np.asarray(self._starts, dtype=np.int64)[rows],
                        np.asarray(self._frames, dtype=np.int64)[rows],
                        np.stack([self._values[row] for row in rows]),
                    )
                )
        return blocks

    # -- checkpoint ----------------------------------------------------

    def state(
        self,
    ) -> Tuple[int, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(next_index, ring indices, starts, frames, sketches)``."""
        if self._indices:
            values = np.stack(self._values)
        else:
            values = np.empty((0, self.num_hashes), dtype=np.int64)
        return (
            self.next_index,
            np.asarray(self._indices, dtype=np.int64),
            np.asarray(self._starts, dtype=np.int64),
            np.asarray(self._frames, dtype=np.int64),
            values,
        )

    def restore(
        self,
        next_index: int,
        indices: np.ndarray,
        starts: np.ndarray,
        frames: np.ndarray,
        sketch_values: np.ndarray,
    ) -> None:
        """Reinstate a snapshot, reconciled against the recovered disk
        catalogue: segments sealed *after* the snapshot win over their
        ring copies, and the watermark never moves backwards."""
        disk_next = (
            self.store.segments[-1].end_index
            if self.store is not None and self.store.segments
            else 0
        )
        indices = np.asarray(indices, dtype=np.int64)
        starts = np.asarray(starts, dtype=np.int64)
        frames = np.asarray(frames, dtype=np.int64)
        sketch_values = np.asarray(sketch_values, dtype=np.int64)
        keep = indices >= disk_next
        reconciled = int(indices.shape[0] - np.count_nonzero(keep))
        if reconciled:
            self.registry.inc(
                "archive.windows_reconciled", reconciled
            )
        self._indices = [int(v) for v in indices[keep]]
        self._starts = [int(v) for v in starts[keep]]
        self._frames = [int(v) for v in frames[keep]]
        self._values = [
            np.asarray(row, dtype=np.int64).copy()
            for row in sketch_values[keep]
        ]
        self.next_index = max(int(next_index), disk_next)
        if self._indices:
            self.next_index = max(
                self.next_index, self._indices[-1] + 1
            )
        self._publish_gauges()

    # -- metrics -------------------------------------------------------

    def _publish_gauges(self) -> None:
        self.registry.set_gauge(
            "archive.windows_retained", float(self.windows_retained())
        )
        self.registry.set_gauge(
            "archive.bytes_on_disk", float(self.bytes_on_disk())
        )
        self.registry.set_gauge(
            "archive.ring_windows", float(len(self._indices))
        )
        self.registry.set_gauge(
            "archive.next_index", float(self.next_index)
        )
        if self.store is not None:
            self.registry.set_gauge(
                "archive.segments", float(len(self.store.segments))
            )
