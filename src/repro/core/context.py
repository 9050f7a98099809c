"""Shared state and primitive operations of the two engine orders.

:class:`EvalContext` owns everything the Sequential and Geometric engines
both need: the query set, configuration-derived constants (window length
in frames, per-query candidate caps, the Lemma 2 bound), the optional
Hash-Query index, and the instrumented payload construction — one probe
or one batched encode per *block* of windows. Without the index the
block's ``(B, Q, W)`` planes are encoded whole; with it, the probe's
:class:`~repro.index.probe.RelatedQueries` rows are kept as they arrive
and a window's planes are laid out only when the engine reaches it,
with the columns its tracked pairs need encoded then (the lazy encode).
The planes are compared against this layout's ``QueryColumns.matrix``,
so the index keeps no second copy of the query sketches. Routing it through this class is what makes the engines' cost
profiles measurable (see :class:`~repro.core.monitor.EngineStats`).
Production payloads are bit signatures only. The one-window,
one-pair-at-a-time primitives of the paper's prose (sketch similarity
and combination, signature OR, the memoised lazy encode) and the
sketch representation itself are the oracle's: ``repro.reference``
adds them on top of this class.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.config import DetectorConfig
from repro.core.monitor import EngineStats
from repro.core.query import QuerySet
from repro.errors import DetectionError
from repro.index.hq import HashQueryIndex
from repro.index.probe import RelatedQueries, probe_index
from repro.minhash.sketch import SketchBlock
from repro.minhash.windows import WindowBlock
from repro.obs.registry import MetricsRegistry
from repro.signature.bitsig import (
    encode_planes,
    encode_planes_many,
    plane_words,
    popcount_planes,
)
from repro.signature.pruning import lemma2_prunable

__all__ = ["BlockPayload", "EvalContext", "QueryColumns"]


@dataclass(frozen=True)
class QueryColumns:
    """The active query set in columnar form, cached on the context.

    One column per subscribed query, in sorted-qid order. Rebuilt (and
    re-cached) whenever the query set changes; the engines remap their
    stores against the new layout on their next block.
    """

    qids: Tuple[int, ...]
    matrix: np.ndarray  #: ``(Q, K)`` int64 query sketch values
    max_windows: np.ndarray  #: ``(Q,)`` int64 per-query λL caps


@dataclass
class BlockPayload:
    """A block of basic windows plus its packed per-query artefacts.

    ``related[b]`` marks the queries window ``b`` brings into play: the
    probe's ``R_L`` with the index, every query without it, less the
    columns whose window signature fails Lemma 2. The window-vs-query
    signature planes come in one of two forms:
    ``planes``, the no-index encode's dense ``(B, Q, W)`` pair, valid on
    every cell; or ``probed``, the probe's sparse rows, valid on the
    related cells only. :meth:`EvalContext.window_planes` reads either.
    """

    block: WindowBlock
    related: np.ndarray  #: ``(B, Q)`` bool
    planes: Optional[Tuple[np.ndarray, np.ndarray]] = None
    probed: Optional[RelatedQueries] = None
    #: ``(B + 1,)``: window ``b``'s rows of ``probed`` are
    #: ``offsets[b]`` to ``offsets[b + 1]``
    offsets: Optional[np.ndarray] = None


class EvalContext:
    """Configuration-resolved engine state and instrumented primitives."""

    def __init__(
        self,
        config: DetectorConfig,
        queries: QuerySet,
        window_frames: int,
        index: Optional[HashQueryIndex] = None,
        registry: Optional[MetricsRegistry] = None,
        cap_hint: int = 0,
    ) -> None:
        if window_frames <= 0:
            raise DetectionError(
                f"window_frames must be positive, got {window_frames}"
            )
        if config.use_index and index is None:
            raise DetectionError("config requests an index but none was supplied")
        self.config = config
        self.queries = queries
        self.window_frames = window_frames
        self.index = index if config.use_index else None
        self.registry = registry if registry is not None else MetricsRegistry()
        self.stats = EngineStats(registry=self.registry)
        self.max_windows: Dict[int, int] = queries.max_windows_map(
            window_frames, config.tempo_scale
        )
        self.cap_hint = int(cap_hint)
        self.global_max_windows = max(
            max(self.max_windows.values()), self.cap_hint
        )
        self._query_columns_cache: Optional[QueryColumns] = None

    def refresh_queries(self) -> None:
        """Recompute query-derived state after subscribe/unsubscribe."""
        self.max_windows = self.queries.max_windows_map(
            self.window_frames, self.config.tempo_scale
        )
        self.global_max_windows = max(
            max(self.max_windows.values()), self.cap_hint
        )
        self._query_columns_cache = None

    def set_cap_hint(self, cap_hint: int) -> None:
        """Floor the candidate-expiry horizon at ``cap_hint`` windows.

        A query-sharded deployment (``repro.serve``) feeds each shard
        only a subset of the queries, yet candidate expiry must follow
        the *global* ``max(ceil(λL/w))`` so every shard's candidate
        lifecycle — and with it the expiry/combine/prune counters — stays
        identical to the single-process detector. The hint never lowers
        the bound below the shard's own queries' needs.
        """
        self.cap_hint = int(cap_hint)
        self.global_max_windows = max(
            max(self.max_windows.values()), self.cap_hint
        )

    def query_columns(self) -> QueryColumns:
        """The columnar view of the active query set (cached)."""
        if self._query_columns_cache is None:
            qids = tuple(self.queries.query_ids)
            matrix = np.stack(
                [self.queries.get(qid).sketch.values for qid in qids]
            )
            caps = np.array(
                [self.max_windows[qid] for qid in qids], dtype=np.int64
            )
            self._query_columns_cache = QueryColumns(
                qids=qids, matrix=matrix, max_windows=caps
            )
        return self._query_columns_cache

    # ------------------------------------------------------------------
    # phase timing
    # ------------------------------------------------------------------

    def phase(self, name: str):
        """Accumulating wall-clock timer for pipeline phase ``name``.

        A thin delegate to the shared registry so engines write
        ``with ctx.phase("combine"): ...``; canonical phase names are
        ``sketch``, ``probe``, ``combine``, ``prune`` and ``match_emit``
        (see ``docs/observability.md``).
        """
        return self.registry.phase(f"phase.{name}")

    # ------------------------------------------------------------------
    # block payload construction
    # ------------------------------------------------------------------

    def block_payload(
        self,
        block: WindowBlock,
        planes: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    ) -> BlockPayload:
        """Compare a block of arriving windows against the query population.

        With the index, one probe yields every window's related queries
        and their signatures; without it, every query is compared, in
        one batched encode. Runs under the ``probe`` phase
        timer either way (payload construction is the probe stage of the
        pipeline).

        ``planes`` optionally carries precomputed ``(ge, lt)`` packed
        plane arrays of shape ``(B, Q, W)`` in sorted-qid column order
        (the sketch-once serving front end). The no-index path
        substitutes them for its encode — with accounting identical to
        the self-encoding reference, since the encode *was* performed,
        just once upstream instead of once per shard. The index path
        ignores them (the probe, not a full encode, is its accounted
        operation).
        """
        with self.phase("probe"):
            return self._block_payload(block, planes)

    def _block_payload(
        self,
        block: WindowBlock,
        planes: Optional[Tuple[np.ndarray, np.ndarray]],
    ) -> BlockPayload:
        """Packed-plane payload with the oracle's exact accounting.

        Counter parity with ``ReferenceContext._window_payload``, which
        builds one payload per window, is load-bearing (the equivalence
        suite asserts it): per window, the index path charges one probe,
        and the no-index path one ``signature_encodes`` per
        subscribed query and one ``signature_prunes`` per window-level
        Lemma 2 casualty.
        """
        columns = self.query_columns()
        num_windows = len(block)
        num_queries = len(columns.qids)

        if self.index is not None:
            self.registry.inc("engine.index_probes", num_windows)
            # The index and the query set hold the same qids, so the
            # probe's sorted-qid columns are this layout's columns.
            probed = probe_index(
                SketchBlock(block.sketch_values, self.queries.family.fingerprint),
                self.index,
                columns.matrix,
                self.config.threshold,
                prune=self.config.prune,
            )
            mask = np.zeros((num_windows, num_queries), dtype=bool)
            mask[probed.windows, probed.columns] = True
            # Rows ascend by window: one search finds every window's run.
            offsets = probed.windows.searchsorted(
                np.arange(num_windows + 1)
            )
            return BlockPayload(
                block=block, related=mask, probed=probed, offsets=offsets
            )

        if planes is None:
            planes = encode_planes_many(block.sketch_values, columns.matrix)
        # else: the sketch-once front end's rows (already copied per
        # shard), identical bits to the local encode.
        self.registry.inc("engine.signature_encodes", num_windows * num_queries)
        if self.config.prune:
            prunable = lemma2_prunable(
                popcount_planes(planes[1]),
                self.config.num_hashes,
                self.config.threshold,
            )
            pruned = int(np.count_nonzero(prunable))
            if pruned:
                self.registry.inc("engine.signature_prunes", pruned)
            related = ~prunable
        else:
            related = np.ones((num_windows, num_queries), dtype=bool)
        return BlockPayload(block=block, related=related, planes=planes)

    def window_planes(
        self,
        payload: BlockPayload,
        t: int,
        lazy: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Window ``t``'s ``(Q, W)`` planes, valid on its related columns
        and on the ``lazy`` ones.

        ``lazy`` lists columns the window does not relate but a tracked
        pair needs. Each is charged one ``signature_encodes`` — the
        oracle's per-(window, query) memoised encode — even where the
        no-index planes already hold its bits; the index path encodes
        just those columns here, one window at a time, so its encode
        work follows the live pairs.
        """
        if lazy is not None and lazy.size:
            self.registry.inc("engine.signature_encodes", int(lazy.size))
        if payload.planes is not None:
            return payload.planes[0][t], payload.planes[1][t]
        shape = (len(payload.related[t]), plane_words(self.config.num_hashes))
        ge = np.zeros(shape, dtype=np.uint64)
        lt = np.zeros(shape, dtype=np.uint64)
        probed = payload.probed
        rows = slice(payload.offsets[t], payload.offsets[t + 1])
        columns = probed.columns[rows]
        ge[columns] = probed.ge[rows]
        lt[columns] = probed.lt[rows]
        if lazy is not None and lazy.size:
            ge[lazy], lt[lazy] = encode_planes(
                payload.block.sketch_values[t],
                self.query_columns().matrix.take(lazy, axis=0),
            )
        return ge, lt
