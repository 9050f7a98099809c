"""The public streaming copy-detection facade.

:class:`StreamingDetector` wires the pieces of Sections IV-V together for
one stream: it sketches basic windows, probes the Hash-Query index,
feeds the Sequential engine and accumulates statistics,
returning each call's match events — a block of windows per call
(:meth:`StreamingDetector.process_batch`). Queries can be subscribed and
unsubscribed while the stream is running, mirroring the paper's online
index maintenance.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.config import CombinationOrder, DetectorConfig, Representation
from repro.core.context import EvalContext
from repro.core.engine_sequential import ColumnarSequentialEngine
from repro.core.monitor import EngineStats
from repro.core.query import Query, QuerySet
from repro.core.results import Match
from repro.errors import DetectionError
from repro.index.hq import HashQueryIndex
from repro.minhash.windows import BasicWindow, WindowBlock, build_window_block
from repro.obs.registry import MetricsRegistry

__all__ = ["StreamingDetector"]

#: The most windows one engine pass takes. Longer blocks (a whole stream
#: pushed at once) are cut, so the per-block arrays — the ``(B, Q)`` row
#: map, the ``(window, class)`` grid — stay bounded.
MAX_BLOCK_WINDOWS = 64


class StreamingDetector:
    """Continuous copy detection of a query set over one video stream.

    Parameters
    ----------
    config:
        Engine configuration (K, δ, w, λ, order, index). The production
        engine runs the Sequential order on bit signatures with the
        index: a ``GEOMETRIC``, ``SKETCH`` or no-index configuration
        raises :class:`~repro.errors.DetectionError` (each runs on the
        oracle, ``repro.reference.ReferenceDetector``, which
        :func:`~repro.evaluation.runner.run_detector` picks for them).
    queries:
        The subscribed continuous queries; their sketches must come from
        the same hash family the stream windows will be sketched with.
    keyframes_per_second:
        Cadence of the incoming cell-id stream, used to convert the
        configured window length (seconds) into key frames.
    registry:
        Optional shared :class:`~repro.obs.registry.MetricsRegistry`;
        one is created when omitted. All engine counters and phase
        timers of this stream accumulate into it
        (``detector.stats`` is a typed view over the same registry).
    cap_hint:
        Optional floor (in basic windows) for the candidate-expiry
        horizon. Query-sharded deployments pass the global
        ``max(ceil(λL/w))`` over *all* shards so a shard that holds only
        short queries still expires candidates on the global schedule
        (see :meth:`set_cap_hint` and ``docs/serving.md``).
    """

    #: What a detector is built from and which orders, representations
    #: and ``use_index`` settings it runs. The oracle,
    #: ``repro.reference.ReferenceDetector``, differs in these and in
    #: nothing else.
    context_class = EvalContext
    engine_classes = {CombinationOrder.SEQUENTIAL: ColumnarSequentialEngine}
    representations = (Representation.BIT,)
    index_modes = (True,)

    def __init__(
        self,
        config: DetectorConfig,
        queries: QuerySet,
        keyframes_per_second: float,
        registry: Optional[MetricsRegistry] = None,
        cap_hint: int = 0,
    ) -> None:
        if keyframes_per_second <= 0:
            raise DetectionError(
                f"keyframes_per_second must be positive, "
                f"got {keyframes_per_second}"
            )
        for runs, what in (
            (config.order in self.engine_classes,
             f"the {config.order.value} order"),
            (config.representation in self.representations,
             f"the {config.representation.value} representation"),
            (config.use_index in self.index_modes, "without the index"),
        ):
            if not runs:
                raise DetectionError(
                    f"{type(self).__name__} does not run {what}; it runs "
                    "on the oracle, repro.reference.ReferenceDetector"
                )
        self.config = config
        self.queries = queries
        self.keyframes_per_second = keyframes_per_second
        self.window_frames = max(
            1, round(config.window_seconds * keyframes_per_second)
        )

        index: Optional[HashQueryIndex] = None
        if config.use_index:
            index = HashQueryIndex.build(
                queries.sketches(),
                queries.max_windows_map(self.window_frames, config.tempo_scale),
            )
            index.warm_caches()
        self.index = index
        self.registry = registry if registry is not None else MetricsRegistry()
        self.context = self.context_class(
            config=config,
            queries=queries,
            window_frames=self.window_frames,
            index=index,
            registry=self.registry,
            cap_hint=cap_hint,
        )
        self.engine = self.engine_classes[config.order](self.context)

    # ------------------------------------------------------------------
    # stream processing
    # ------------------------------------------------------------------

    @property
    def stats(self) -> EngineStats:
        """Instrumentation accumulated so far."""
        return self.context.stats

    @property
    def frames_processed(self) -> int:
        """Exact key frames consumed so far (counts partial windows by
        their true length, never as a full ``w``)."""
        return self.context.stats.frames_processed

    def process_batch(self, block: WindowBlock) -> List[List[Match]]:
        """Feed a block of pre-sketched basic windows; one match list per
        window.

        The production path: one probe and one engine pass cover the
        whole block — cut into runs of at most
        :data:`MAX_BLOCK_WINDOWS` — so the fixed cost of a call is paid
        once per block rather than once per window.
        """
        if not len(block):
            return []
        stats = self.context.stats
        frames = block.frames.tolist()
        stats.frames_processed += sum(frames)
        partial = sum(length < self.window_frames for length in frames)
        if partial:
            stats.partial_windows += partial
        per_window: List[List[Match]] = []
        for first in range(0, len(frames), MAX_BLOCK_WINDOWS):
            per_window += self._detect(block[first:first + MAX_BLOCK_WINDOWS])
        return per_window

    def _detect(self, block: WindowBlock) -> List[List[Match]]:
        payload = self.context.block_payload(block)
        return self.engine.process_batch(payload)

    def process_window(self, window: BasicWindow) -> List[Match]:
        """Feed one pre-sketched basic window: a one-row
        :meth:`process_batch`."""
        block = WindowBlock.single(
            window.index, window.start_frame, window.num_frames,
            window.sketch.values,
        )
        return self.process_batch(block)[0]

    def process_cell_ids(
        self, cell_ids: Sequence[int] | np.ndarray
    ) -> List[Match]:
        """Feed a whole per-key-frame cell-id stream; return all matches.

        The stream is chopped into basic windows of the configured length
        and processed in order. May be called repeatedly with consecutive
        stream chunks as long as each previous chunk was a whole number
        of windows: a chunk with a partial tail window is legal only as
        the *end* of the stream. Feeding more frames after a partial
        window raises :class:`~repro.errors.DetectionError`, because the
        window clock can no longer stay aligned with the query sketches.
        Window start frames are derived from the exact frame count
        consumed so far, so they remain correct even when the stream
        ends on a partial window.
        """
        stats = self.context.stats
        ids = np.asarray(cell_ids, dtype=np.int64)
        if stats.partial_windows and ids.size:
            raise DetectionError(
                "cannot push more frames after a partial basic window: "
                "the stream already ended mid-window and the window "
                "clock would misalign"
            )
        with self.registry.phase("phase.sketch"):
            # One batched hashing pass sketches every window of the
            # chunk (MinHashFamily.sketch_many) — same sketch values as
            # per-window hashing, a fraction of the calls.
            block = build_window_block(
                ids,
                self.window_frames,
                self.queries.family,
                first_index=stats.windows_processed,
                first_frame=stats.frames_processed,
            )
        all_matches: List[Match] = []
        for matches in self.process_batch(block):
            all_matches.extend(matches)
        return all_matches

    def acknowledge_gap(self, num_windows: int) -> None:
        """Advance the window clock over ``num_windows`` skipped windows.

        A decode-side gap (corrupt GOPs, dropped chunks) means whole
        basic windows will never be sketched. Silently omitting them
        would desynchronise every later window index and start frame
        from the stream clock; acknowledging them keeps window indices
        absolute, so candidate expiry and match positions stay correct.
        Candidate state in the engines is untouched — the index jump is
        observed by the engines on the next processed window, expiring
        candidates across the gap exactly as elapsed stream time should.
        """
        if num_windows < 0:
            raise DetectionError(
                f"cannot acknowledge a negative gap ({num_windows} windows)"
            )
        if num_windows == 0:
            return
        stats = self.context.stats
        if stats.partial_windows:
            raise DetectionError(
                "cannot acknowledge a gap after a partial basic window: "
                "the stream already ended mid-window"
            )
        stats.windows_processed += num_windows
        stats.frames_processed += num_windows * self.window_frames
        stats.windows_skipped += num_windows

    # ------------------------------------------------------------------
    # online query maintenance
    # ------------------------------------------------------------------

    def subscribe(self, query: Query) -> None:
        """Add a continuous query while the stream is running."""
        self.queries.add(query)
        if self.index is not None:
            self.index.insert(
                query.qid,
                query.sketch,
                query.max_candidate_windows(
                    self.window_frames, self.config.tempo_scale
                ),
            )
            self.index.warm_caches()
        self.context.refresh_queries()
        # Eagerly re-sync the engine's per-query layout: a state
        # snapshot taken before the next window must already include
        # the new query, or restore will see a phantom query set.
        self.engine.refresh()

    def unsubscribe(self, qid: int) -> None:
        """Remove a continuous query; purges its in-flight state."""
        self.queries.remove(qid)
        if self.index is not None:
            self.index.remove(qid)
            self.index.warm_caches()
        self.context.refresh_queries()
        self.engine.purge_query(qid)

    def set_cap_hint(self, cap_hint: int) -> None:
        """Update the global candidate-expiry floor (sharded serving)."""
        self.context.set_cap_hint(cap_hint)
