"""Shared state and primitive operations of the two engine orders.

:class:`EvalContext` owns everything the Sequential and Geometric engines
both need: the query set, configuration-derived constants (window length
in frames, per-query candidate caps, the Lemma 2 bound), the optional
Hash-Query index, and the instrumented window-payload construction — one
probe or one batched encode per window, packed into the ``(Q, W)`` planes
the engines consume. With the index, the probe's
:class:`~repro.index.probe.RelatedQueries` already arrive as sorted-qid
columns with packed planes, so filling the payload is two row scatters.
The planes are compared against this layout's ``QueryColumns.matrix``,
so the index keeps no second copy of the query sketches. Routing it
through this class is what makes the engines' cost profiles measurable
(see :class:`~repro.core.monitor.EngineStats`). The one-pair-at-a-time
primitives of the paper's prose (sketch similarity, signature OR, the
memoised lazy encode) are the oracle's: ``repro.reference`` adds them on
top of this class.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.config import DetectorConfig, Representation
from repro.core.monitor import EngineStats
from repro.core.query import QuerySet
from repro.errors import DetectionError
from repro.index.hq import HashQueryIndex
from repro.index.probe import probe_index
from repro.obs.registry import MetricsRegistry
from repro.minhash.windows import BasicWindow
from repro.signature.bitsig import (
    encode_planes,
    plane_words,
    popcount_planes,
)
from repro.signature.pruning import lemma2_prunable

__all__ = ["EvalContext", "QueryColumns", "WindowPayload"]


@dataclass(frozen=True)
class QueryColumns:
    """The active query set in columnar form, cached on the context.

    One column per subscribed query, in sorted-qid order. Rebuilt (and
    re-cached) whenever the query set changes; the engines remap their
    stores against the new layout on their next window.
    """

    qids: Tuple[int, ...]
    matrix: np.ndarray  #: ``(Q, K)`` int64 query sketch values
    max_windows: np.ndarray  #: ``(Q,)`` int64 per-query λL caps


@dataclass
class WindowPayload:
    """A basic window plus its packed per-query comparison artefacts.

    ``related_mask`` marks the queries relevant to this window (the
    probe's ``R_L`` with the index, every query without it). The
    remaining arrays exist in bit mode only: ``ge``/``lt`` rows are the
    packed window-vs-query signature planes, and which rows hold valid
    data is tracked by ``encoded``. ``present`` marks the columns whose
    window signature survived payload-level Lemma 2, and ``lazy_charged``
    tracks which columns have already paid the one-per-(window, query)
    lazy ``signature_encodes`` (see :meth:`EvalContext.window_planes`).
    """

    window: BasicWindow
    related_mask: np.ndarray  #: ``(Q,)`` bool — relevance (sketch scoring)
    present: Optional[np.ndarray] = None  #: ``(Q,)`` bool — live window sigs
    ge: Optional[np.ndarray] = None  #: ``(Q, W)`` uint64
    lt: Optional[np.ndarray] = None  #: ``(Q, W)`` uint64
    encoded: Optional[np.ndarray] = None  #: ``(Q,)`` bool — rows computed
    lazy_charged: Optional[np.ndarray] = None  #: ``(Q,)`` bool — counted


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

    @property
    def is_bit(self) -> bool:
        """Whether the bit-signature representation is active."""
        return self.config.representation is Representation.BIT

    # ------------------------------------------------------------------
    # window payload construction
    # ------------------------------------------------------------------

    def window_payload(
        self,
        window: BasicWindow,
        planes: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    ) -> WindowPayload:
        """Compare an arriving basic window against the query population.

        With the index, a single probe yields the related queries and (in
        bit mode) their signatures; without it, every query is compared.
        Runs under the ``probe`` phase timer either way (payload
        construction is the probe stage of the pipeline).

        ``planes`` optionally carries precomputed ``(ge, lt)`` packed
        plane arrays of shape ``(Q, W)`` in sorted-qid column order (the
        sketch-once serving front end). The no-index bit paths substitute
        them for the window encode — with accounting identical to the
        self-encoding reference, since the encode *was* performed, just
        once upstream instead of once per shard. The index path ignores
        them (the probe, not a full encode, is its accounted operation),
        as does the sketch representation.
        """
        with self.phase("probe"):
            return self._window_payload(window, planes)

    def _window_payload(
        self,
        window: BasicWindow,
        planes: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    ) -> WindowPayload:
        """Packed-plane payload with the oracle's exact accounting.

        Counter parity with ``ReferenceContext._window_payload`` is
        load-bearing (the equivalence suite asserts it): the no-index bit
        path charges one ``signature_encodes`` per subscribed query and
        one ``signature_prunes`` per window-level Lemma 2 casualty; the
        index path charges only the probe.
        """
        columns = self.query_columns()
        num_queries = len(columns.qids)
        width = plane_words(self.config.num_hashes)

        if self.index is not None:
            self.registry.inc("engine.index_probes")
            # The index and the query set hold the same qids, so the
            # probe's sorted-qid columns are this layout's columns.
            related = probe_index(
                window.sketch,
                self.index,
                columns.matrix,
                self.config.threshold,
                prune=self.config.prune and self.is_bit,
            )
            related_mask = np.zeros(num_queries, dtype=bool)
            related_mask[related.columns] = True
            if not self.is_bit:
                return WindowPayload(window=window, related_mask=related_mask)
            ge = np.zeros((num_queries, width), dtype=np.uint64)
            lt = np.zeros((num_queries, width), dtype=np.uint64)
            ge[related.columns] = related.ge
            lt[related.columns] = related.lt
            return WindowPayload(
                window=window,
                related_mask=related_mask,
                present=related_mask.copy(),
                ge=ge,
                lt=lt,
                encoded=related_mask.copy(),
                lazy_charged=np.zeros(num_queries, dtype=bool),
            )

        if self.is_bit:
            if planes is not None:
                # Sketch-once front end: rows arrive pre-encoded (and
                # already copied per shard), identical bits to the local
                # encode below. Same per-query accounting either way.
                ge, lt = planes
            else:
                ge, lt = encode_planes(window.sketch.values, columns.matrix)
            self.registry.inc("engine.signature_encodes", num_queries)
            if self.config.prune:
                prunable = lemma2_prunable(
                    popcount_planes(lt),
                    self.config.num_hashes,
                    self.config.threshold,
                )
                pruned = int(np.count_nonzero(prunable))
                if pruned:
                    self.registry.inc("engine.signature_prunes", pruned)
                present = ~prunable
            else:
                present = np.ones(num_queries, dtype=bool)
            return WindowPayload(
                window=window,
                related_mask=present.copy(),
                present=present,
                ge=ge,
                lt=lt,
                encoded=np.ones(num_queries, dtype=bool),
                lazy_charged=np.zeros(num_queries, dtype=bool),
            )

        return WindowPayload(
            window=window, related_mask=np.ones(num_queries, dtype=bool)
        )

    def window_planes(
        self, payload: WindowPayload, needed: np.ndarray
    ) -> None:
        """Ensure window-vs-query planes exist for the ``needed`` columns.

        Columns outside the payload's ``present`` set that a candidate
        still tracks need the window's relation bits. Each such column is
        charged one ``signature_encodes`` on first use per window — the
        oracle's per-(window, query) memoised encode — even when the
        planes themselves were precomputed at payload construction.
        """
        to_charge = needed & ~payload.present & ~payload.lazy_charged
        charges = int(np.count_nonzero(to_charge))
        if charges:
            self.registry.inc("engine.signature_encodes", charges)
            payload.lazy_charged |= to_charge
        to_compute = needed & ~payload.encoded
        if to_compute.any():
            rows = np.flatnonzero(to_compute)
            payload.ge[rows], payload.lt[rows] = encode_planes(
                payload.window.sketch.values,
                np.take(self.query_columns().matrix, rows, axis=0),
            )
            payload.encoded[to_compute] = True
