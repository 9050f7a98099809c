"""Shared state and primitive operations of the engines.

:class:`EvalContext` owns everything an engine needs: the query set,
configuration-derived constants (window length in frames, per-query
candidate caps, the Lemma 2 bound), the optional Hash-Query index, and
the instrumented payload construction — one probe or one batched encode
per *block* of windows. Without the index the block's ``(B, Q, W)``
planes are encoded whole; with it, the probe's
:class:`~repro.index.probe.RelatedQueries` rows are kept as one stacked
plane table with a ``(B, Q)`` row map, and the planes of any other
(window, column) cell an engine needs are encoded when it asks, for all
of a block's cells in one call (the lazy encode). The planes are
compared against this layout's ``QueryColumns.matrix``, so the index
keeps no second copy of the query sketches. Routing it through this
class is what makes the engines' cost profiles measurable (see
:class:`~repro.core.monitor.EngineStats`). Production payloads are bit
signatures only. The one-window, one-pair-at-a-time primitives of the
paper's prose (sketch similarity and combination, signature OR, the
memoised lazy encode) and the sketch representation itself are the
oracle's: ``repro.reference`` adds them on top of this class.
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
from repro.index.probe import probe_index
from repro.minhash.sketch import SketchBlock
from repro.minhash.windows import WindowBlock
from repro.obs.registry import MetricsRegistry
from repro.signature.bitsig import (
    encode_planes_many,
    pack_bool_planes,
    plane_words,
    popcount_planes,
)
from repro.signature.pruning import lemma2_prunable

__all__ = ["BlockPayload", "EvalContext", "QueryColumns"]

#: Most block cells one lazy-encode compare covers: bounds its
#: ``(cells, K)`` temporaries however many cells a pass asks for.
_ENCODE_CELLS = 4096


@dataclass(frozen=True)
class QueryColumns:
    """The active query set in columnar form, cached on the context.

    One column per subscribed query, in sorted-qid order. Rebuilt (and
    re-cached) whenever the query set changes; the engines remap their
    stores against the new layout on their next block.
    """

    qids: Tuple[int, ...]
    #: ``(Q, K)`` query sketch values: uint32 with the index, whose keys
    #: already hold every value below 2**32, int64 without it
    matrix: np.ndarray
    max_windows: np.ndarray  #: ``(Q,)`` int64 per-query λL caps


@dataclass
class BlockPayload:
    """A block of basic windows plus its packed per-query artefacts.

    ``related[b]`` marks the queries window ``b`` brings into play: the
    probe's ``R_L`` with the index, every query without it, less the
    columns whose window signature fails Lemma 2. The window-vs-query
    signature planes come in one of two forms: ``planes``, the no-index
    encode's dense ``(B, Q, W)`` pair, valid on every cell; or the
    probe's rows, valid on the related cells only, kept as ``cells`` —
    their ``(ge, lt)`` planes stacked ``(R + 1, 2, W)``, a zero row
    last — and ``rows``, the ``(B, Q)`` map from a cell to its row of
    ``cells`` (``-1``, the zero row, off ``R_L``).
    :meth:`EvalContext.cell_planes` reads either form.
    """

    block: WindowBlock
    related: np.ndarray  #: ``(B, Q)`` bool
    planes: Optional[Tuple[np.ndarray, np.ndarray]] = None
    cells: Optional[np.ndarray] = None
    rows: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return len(self.block)

    def __getitem__(self, windows: slice) -> "BlockPayload":
        """The payload of a run of the block's windows (views)."""
        return BlockPayload(
            block=self.block[windows],
            related=self.related[windows],
            planes=None if self.planes is None else (
                self.planes[0][windows], self.planes[1][windows]
            ),
            cells=self.cells,
            rows=None if self.rows is None else self.rows[windows],
        )


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
            if self.index is not None:
                matrix = matrix.astype(np.uint32)
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

    def block_payload(self, block: WindowBlock) -> BlockPayload:
        """Compare a block of arriving windows against the query population.

        With the index, one probe yields every window's related queries
        and their signatures; without it, every query is compared, in
        one batched encode. Runs under the ``probe`` phase
        timer either way (payload construction is the probe stage of the
        pipeline).
        """
        with self.phase("probe"):
            return self._block_payload(block)

    def _block_payload(self, block: WindowBlock) -> BlockPayload:
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
            count = len(probed)
            cells = np.zeros(
                (count + 1, 2, plane_words(self.config.num_hashes)),
                dtype=np.uint64,
            )
            cells[:count, 0] = probed.ge
            cells[:count, 1] = probed.lt
            rows = np.full((num_windows, num_queries), -1, dtype=np.int32)
            rows[probed.windows, probed.columns] = np.arange(count)
            return BlockPayload(
                block=block, related=rows >= 0, cells=cells, rows=rows
            )

        planes = encode_planes_many(block.sketch_values, columns.matrix)
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

    def cell_planes(
        self,
        payload: BlockPayload,
        windows: np.ndarray,
        cols: np.ndarray,
        at: np.ndarray,
        size: int,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Stacked ``(ge, lt)`` planes ``(size, 2, W)`` holding block cell
        ``(windows[i], cols[i])``'s at row ``at[i]`` and zeros elsewhere
        (``windows`` ascending), and which of the cells the block does
        not relate.

        ``lt`` is exact on every cell, ``ge`` on the related ones. With
        the index an unrelated cell's ``lt`` is encoded here — all of
        the block's asked cells in one call, a window's at a time and at
        most ``_ENCODE_CELLS`` per compare, so no temporary outgrows
        that — and its ``ge`` set equal to it. That is exact when the
        window shares no min-hash value with the query; the other way
        off ``R_L`` is failing Lemma 2 on ``lt`` alone, after which any
        OR holding it fails too, so that ``ge`` is never read. Charges
        no counter: what the oracle charges for a lazy encode is the
        caller's to count.
        """
        if payload.planes is not None:
            ge, lt = payload.planes
            out = np.zeros((size, 2, ge.shape[-1]), dtype=np.uint64)
            out[at, 0] = ge[windows, cols]
            out[at, 1] = lt[windows, cols]
            return out, ~payload.related[windows, cols]
        rows = payload.rows[windows, cols]
        # One gather lays out the grid: rows off the cells take the
        # table's zero row, its last.
        grid = np.full(size, -1, dtype=rows.dtype)
        grid[at] = rows
        out = payload.cells.take(grid, axis=0)
        unrelated = rows < 0
        miss = unrelated.nonzero()[0]
        if miss.size:
            matrix = self.query_columns().matrix
            values = payload.block.sketch_values.astype(matrix.dtype)
            cols = cols[miss]
            at = at[miss]
            # A window's cells share its row of values: compare against
            # it broadcast, a window (and at most _ENCODE_CELLS) at once.
            cuts = windows[miss].searchsorted(
                np.arange(values.shape[0] + 1)
            ).tolist()
            for t in range(values.shape[0]):
                for lo in range(cuts[t], cuts[t + 1], _ENCODE_CELLS):
                    part = slice(lo, min(lo + _ENCODE_CELLS, cuts[t + 1]))
                    lt = pack_bool_planes(
                        values[t] < matrix.take(cols[part], axis=0)
                    )
                    out[at[part]] = lt[:, np.newaxis]
        return out, unrelated
