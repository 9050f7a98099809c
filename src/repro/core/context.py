"""Shared state and primitive operations of the engines.

:class:`EvalContext` owns everything an engine needs: the query set,
configuration-derived constants (window length in frames, per-query
candidate caps, the Lemma 2 bound), the Hash-Query index, and the
instrumented payload construction — one probe per *block* of windows.
The probe's :class:`~repro.index.probe.RelatedQueries` rows are kept as
one stacked plane table with a ``(B, Q)`` row map, and the planes of any
other (window, column) cell an engine needs are encoded when it asks,
for all of a block's cells in one call (the lazy encode). The planes are
compared against this layout's ``QueryColumns.matrix``, so the index
keeps no second copy of the query sketches. Routing it through this
class is what makes the engines' cost profiles measurable (see
:class:`~repro.core.monitor.EngineStats`). Production payloads are bit
signatures from the index only. The one-window, one-pair-at-a-time
primitives of the paper's prose (sketch similarity and combination,
signature OR, the memoised lazy encode), the run without the index and
the sketch representation itself are the oracle's: ``repro.reference``
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
from repro.index.probe import probe_index
from repro.minhash.sketch import SketchBlock
from repro.minhash.windows import WindowBlock
from repro.obs.registry import MetricsRegistry
from repro.signature.bitsig import pack_bool_planes, plane_words

__all__ = ["BlockPayload", "EvalContext", "QueryColumns"]

#: Most block cells one lazy-encode compare covers: bounds its
#: ``(cells, K)`` temporaries, in cache (1,149 cells at K = 256 took
#: ≈ 230 µs in slices of 256, ≈ 340 µs in one).
_ENCODE_CELLS = 256


@dataclass(frozen=True)
class QueryColumns:
    """The active query set in columnar form, cached on the context.

    One column per subscribed query, in sorted-qid order. Rebuilt (and
    re-cached) whenever the query set changes; the engines remap their
    stores against the new layout on their next block.
    """

    qids: Tuple[int, ...]
    #: ``(Q, K)`` uint32 query sketch values (every family value is
    #: below 2**31)
    matrix: np.ndarray
    max_windows: np.ndarray  #: ``(Q,)`` int64 per-query λL caps
    #: distinct caps ascending, and each column's position among them
    cap_values: np.ndarray
    cap_index: np.ndarray


@dataclass
class BlockPayload:
    """A block of basic windows plus the probe's related cells.

    ``born`` lists the (window, column) cells the block brings into
    play, as ``(windows, columns)`` in that order: the probe's ``R_L``,
    less the columns whose window signature fails Lemma 2. Their
    window-vs-query signature planes are ``cells`` — the ``(ge, lt)``
    planes stacked ``(R + 1, 2, W)``, a zero row last — and ``rows`` is
    the ``(B, Q)`` map from a cell to its row of ``cells`` (``-1``, the
    zero row, off ``R_L``). :meth:`EvalContext.cell_planes` reads them.
    """

    block: WindowBlock
    born: Tuple[np.ndarray, np.ndarray]
    cells: np.ndarray
    rows: np.ndarray

    def __len__(self) -> int:
        return len(self.block)

    def __getitem__(self, windows: slice) -> "BlockPayload":
        """The payload of a run of the block's windows (views)."""
        run = range(len(self))[windows]
        born_t, born_col = self.born
        lo, hi = born_t.searchsorted((run.start, run.stop)).tolist()
        return BlockPayload(
            block=self.block[windows],
            born=(born_t[lo:hi] - run.start, born_col[lo:hi]),
            cells=self.cells,
            rows=self.rows[windows],
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
            ).astype(np.uint32)
            caps = np.array(
                [self.max_windows[qid] for qid in qids], dtype=np.int64
            )
            cap_values, cap_index = np.unique(caps, return_inverse=True)
            self._query_columns_cache = QueryColumns(
                qids=qids, matrix=matrix, max_windows=caps,
                cap_values=cap_values, cap_index=cap_index.reshape(-1),
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

        One probe of the index yields every window's related queries
        and their signatures. Runs under the ``probe`` phase timer
        (payload construction is the probe stage of the pipeline).
        """
        with self.phase("probe"):
            return self._block_payload(block)

    def _block_payload(self, block: WindowBlock) -> BlockPayload:
        """Packed-plane payload with the oracle's exact accounting.

        Counter parity with ``ReferenceContext._window_payload``, which
        builds one payload per window, is load-bearing (the equivalence
        suite asserts it): one probe per window.
        """
        columns = self.query_columns()
        num_windows = len(block)
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
        rows = np.full((num_windows, len(columns.qids)), -1, dtype=np.int32)
        rows[probed.windows, probed.columns] = np.arange(count)
        return BlockPayload(
            block=block, born=(probed.windows, probed.columns),
            cells=cells, rows=rows,
        )

    def cell_planes(
        self, payload: BlockPayload, cols: np.ndarray, entries: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Stacked ``(ge, lt)`` planes ``(B * G, 2, W)`` of a block's
        ``(window, class)`` grid, class ``g`` being of query column
        ``cols[g]``: the window's planes at the ``(B, G)`` ``entries``
        the block relates and zeros elsewhere. Also returns which
        entries the block does not relate, still zeros, for
        :meth:`encode_cells` to fill.

        ``lt`` is exact on every entry, ``ge`` on the related ones: a
        lazily encoded cell's ``ge`` is its ``lt``, exact when the window
        shares no min-hash value with the query; the other way off
        ``R_L`` is failing Lemma 2 on ``lt`` alone, after which any OR
        holding it fails too, so that ``ge`` is never read. Charges no
        counter: a lazy encode is the caller's to count.
        """
        # One gather lays out the grid: cells off the entries or off
        # R_L take the table's zero row, its last.
        rows = np.where(entries, payload.rows[:, cols], -1)
        return payload.cells.take(rows.ravel(), axis=0), entries & (rows < 0)

    def encode_cells(
        self, payload: BlockPayload, windows: np.ndarray, cols: np.ndarray
    ) -> np.ndarray:
        """``lt`` planes ``(n, W)`` of the block cells
        ``(windows[i], cols[i])``: one compare and pack per
        ``_ENCODE_CELLS``, in the query matrix's dtype."""
        matrix = self.query_columns().matrix
        values = payload.block.sketch_values.astype(matrix.dtype)
        parts = [
            pack_bool_planes(
                values.take(windows[lo:lo + _ENCODE_CELLS], axis=0)
                < matrix.take(cols[lo:lo + _ENCODE_CELLS], axis=0)
            )
            for lo in range(0, windows.shape[0], _ENCODE_CELLS)
        ]
        return parts[0] if len(parts) == 1 else np.concatenate(parts)
