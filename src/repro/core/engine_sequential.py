"""Sequential combination order (Section IV-A).

Every suffix of the window stream — up to the λL length cap — is kept as
a live candidate. When basic window ``t`` arrives, each existing candidate
(all of which end at ``t−1``) is extended with it, and a fresh length-1
candidate is opened at ``t``. This is the accuracy-first order: all
``⌈λL/w⌉`` alignments are tested, at ``⌈λL/w⌉`` combinations per window
(the first branch of Eq. (4)).

:class:`ColumnarSequentialEngine` holds the (candidate, query) bit
signatures the oracle holds, but not one by one. A pair adopts its
signature from the adopting window's planes alone and from then on only
ORs window planes, so every candidate that adopts query ``q`` at window
``a`` holds *the same* signature until its λL cap drops it, and Lemma 2
prunes all of those copies together. The store is therefore a *class
table*: one row per (query column, adoption window) with its ``ge``/``lt``
planes and a member bitset over the live candidates. Pairs exist only as
class × member.

A whole :class:`~repro.minhash.windows.WindowBlock` is one pass, not a
loop over its windows:

* **Signatures.** A class's signature at window ``t`` is the prefix-OR
  of its column's window planes from its adoption on, whoever its
  members are, and under OR its ``lt`` popcount never falls. One
  prefix-OR and one popcount over the block's ``(window, class)`` grid
  give every class's similarity per window and its Lemma 2 prune window.
* **Membership.** Every related (window, column) cell opens one class,
  since the fresh candidate always adopts. Its members are the
  candidates the cap allows at that window, less those the column's
  classes still alive there hold: one walk over the classes in adoption
  order on Python-int bitsets, of any width.
* **Counters and matches** are then (class × window) member counts,
  tallied in one loop over the grid's entries (a handful per class), and
  matches come out in the oracle's (start, column) order.
* **Lazy encode.** Cells the block does not relate are encoded ``lt``
  only, all of the block's at once (see
  :meth:`~repro.core.context.EvalContext.cell_planes`); the oracle's
  per-(window, tracked column) encode is what ``signature_encodes`` is
  charged.

A pass costs a fixed run of numpy calls plus Python work per class and
per entry, so B = 1 pays about what one step of a per-window loop did,
and a block pays it once. Work follows the classes and their windows,
not ``C × Q`` nor the live pairs — except where each class holds one
pair (no index and no Lemma 2: every window relates every query), and
the per-entry loop then walks one entry per pair the oracle holds. The
one-window, one-candidate-at-a-time form of the same semantics is the
oracle, ``repro.reference.SequentialEngine``;
``tests/test_engine_reference.py`` holds the two to identical matches,
counters and distributions (see ``docs/performance.md``).
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from itertools import compress
from typing import Dict, List, Tuple

import numpy as np

from repro.core.columnar import column_remap
from repro.core.context import BlockPayload, EvalContext, QueryColumns
from repro.core.results import Match
from repro.minhash.windows import WindowBlock
from repro.signature.bitsig import plane_words, popcount_planes
from repro.signature.pruning import lemma2_bound
from repro.utils.bitops import popcount

__all__ = ["GRID_CELLS", "ColumnarSequentialEngine"]

#: Most ``(window, class)`` cells one pass lays out. The born classes of
#: a block grow with its windows, so the grid grows as ``B²``; a block
#: past this is halved first (64 bytes a cell at K = 256: 4 MiB).
GRID_CELLS = 1 << 16


class ColumnarSequentialEngine:
    """Sequential order on a class table of bit signatures.

    Live candidates are rows of two meta vectors, ``start_window`` and
    ``start_frame``, ascending. Their per-query state is a *class table*:
    per class, ``class_col`` (the query column), ``class_adopt`` (the
    start window of its newest member: its adoption window),
    ``class_planes`` (its stacked ``(ge, lt)`` planes, ``(G, 2, W)``
    uint64, as of the last processed window) and ``class_members`` (a
    Python int whose bit ``i`` is candidate row ``i``). A member still
    counts as a pair only while the column's λL cap allows it.

    Counter accounting is identical to the oracle's.
    """

    def __init__(self, context: EvalContext) -> None:
        self.context = context
        self._qids: tuple = None
        self._sync_columns()
        # Similarity is 1 - (K - equal) / K (Lemma 1, as the oracle
        # computes it), so a hit is a lookup by equal count.
        config = context.config
        num_hashes = config.num_hashes
        self._scores = (
            1.0 - (num_hashes - np.arange(num_hashes + 1)) / num_hashes
            >= config.threshold
        ).tolist()
        self._bound = (
            lemma2_bound(num_hashes, config.threshold)
            if config.prune else num_hashes
        )

    # ------------------------------------------------------------------
    # store layout
    # ------------------------------------------------------------------

    def _alloc(self, columns: QueryColumns) -> None:
        self._qids = columns.qids
        self.start_window = np.empty(0, dtype=np.int64)
        self.start_frame = np.empty(0, dtype=np.int64)
        width = plane_words(self.context.config.num_hashes)
        self.class_col = np.empty(0, dtype=np.int64)
        self.class_adopt = np.empty(0, dtype=np.int64)
        self.class_planes = np.empty((0, 2, width), dtype=np.uint64)
        self.class_members: List[int] = []

    def _sync_columns(self) -> QueryColumns:
        """Adopt the current query-column layout, remapping live state."""
        columns = self.context.query_columns()
        if self._qids == columns.qids:
            return columns
        if self._qids is None or not len(self.start_window):
            self._alloc(columns)
            return columns
        old_idx, new_idx = column_remap(self._qids, columns.qids)
        # Move every class to its query's new column; the classes of
        # vanished queries drop.
        remap = np.full(len(self._qids), -1, dtype=np.int64)
        remap[old_idx] = new_idx
        moved = remap[self.class_col]
        kept = moved >= 0
        self.class_col = moved[kept]
        self.class_adopt = self.class_adopt[kept]
        self.class_planes = self.class_planes[kept]
        self.class_members = list(compress(self.class_members, kept.tolist()))
        self._qids = columns.qids
        return columns

    def purge_query(self, qid: int) -> None:
        """Drop one query's in-flight state (online unsubscribe)."""
        self._sync_columns()

    def refresh(self) -> None:
        """Adopt the current query set (online subscribe).

        Eager rather than lazy: a snapshot taken between a subscribe
        and the next window must already see the new column layout.
        """
        self._sync_columns()

    def live_pairs(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(rows, classes)`` of every (candidate, query) pair the oracle
        holds after the last processed window: the members each class's
        cap still allows there, class by class, rows ascending."""
        rows: List[int] = []
        classes: List[int] = []
        if len(self.start_window):
            caps = self.context.query_columns().max_windows
            low = self.start_window.searchsorted(
                self.start_window[-1] + 1 - caps.take(self.class_col)
            ).tolist()
            for number, (members, first) in enumerate(
                zip(self.class_members, low)
            ):
                members >>= first
                while members:
                    bit = members & -members
                    rows.append(first + bit.bit_length() - 1)
                    classes.append(number)
                    members ^= bit
        return (
            np.asarray(rows, dtype=np.int64),
            np.asarray(classes, dtype=np.int64),
        )

    @property
    def num_candidates(self) -> int:
        """Live candidate count ``C``."""
        return int(self.start_window.shape[0])

    # ------------------------------------------------------------------
    # block processing
    # ------------------------------------------------------------------

    def process_batch(self, payload: BlockPayload) -> List[List[Match]]:
        """Fold a block of basic windows into the columnar ``C_L``.

        Returns one match list per window, each in the oracle's
        (candidate start, query column) order. The block's fresh
        candidates are rows appended after the live ones, so
        ``start_window`` stays ascending and the rows a cap allows at a
        window are one suffix of the pass's rows, found by search. A
        block whose ``(window, class)`` grid would pass
        :data:`GRID_CELLS` is halved, down to one window.

        Phase accounting: the λL expiry search runs under the ``prune``
        timer; the pass (class planes, Lemma 2, membership walk, member
        counts) under ``combine``, with its plane kernels in the
        ``phase.combine.bitops`` sub-timer; match emission and the
        per-window stats sampling under ``match_emit``.
        """
        num_windows = len(payload)
        if num_windows > 1 and num_windows * (
            len(self.class_members) + np.count_nonzero(payload.related)
        ) > GRID_CELLS:
            half = num_windows // 2
            return (
                self.process_batch(payload[:half])
                + self.process_batch(payload[half:])
            )
        ctx = self.context
        columns = self._sync_columns()
        block = payload.block
        live = self.num_candidates
        with ctx.phase("prune"):
            starts = np.concatenate((self.start_window, block.indices))
            frames = np.concatenate((self.start_frame, block.starts))
            # A candidate spanning windows [s, t] has length t - s + 1.
            low = starts.searchsorted(
                block.indices + 1 - ctx.global_max_windows
            ).tolist()

        with ctx.phase("combine"):
            hits, resident = self._pass(payload, columns, starts, low[-1])
        self.start_window = starts[low[-1]:]
        self.start_frame = frames[low[-1]:]

        with ctx.phase("match_emit"):
            per_window = self._emit(hits, frames, columns, block)
            registry = ctx.registry
            if low[-1]:
                registry.inc("engine.expired_candidates", low[-1])
            registry.inc("engine.windows_processed", num_windows)
            for t, signatures in enumerate(resident):
                registry.observe("engine.signatures_maintained", signatures)
                registry.observe(
                    "engine.candidates_maintained", live + t + 1 - low[t]
                )
            registry.inc(
                "engine.matches_reported", sum(map(len, per_window))
            )
        return per_window

    def _pass(
        self,
        payload: BlockPayload,
        columns: QueryColumns,
        starts: np.ndarray,
        expired: int,
    ) -> Tuple[list, List[int]]:
        """The block's class table pass; returns the match hits and the
        per-window resident pair counts.

        Mirrors the oracle's ``_extend_bit`` and ``_evaluate_fresh``: per
        window, the per-query λL cap drops pairs first (touching no
        counter), tracked pairs OR with the window's planes (one
        ``signature_combines`` each, one lazy encode per tracked column
        the window does not relate), every live (row, related column)
        pair not yet tracked — the fresh row's included — adopts the
        window's planes, and Lemma 2 prunes.

        The planes are laid out flat over the ``(window, class)`` grid,
        carried classes first, then one per related cell. A class's
        *entries* are the cells where it has members: from its adoption
        window (the block's start, if carried) until the λL cap drops
        its newest member. It takes the window's planes at each, and the
        prefix-OR along the windows turns those into its signatures.
        """
        ctx = self.context
        block = payload.block
        num_windows = len(block)
        indices = block.indices
        live = starts.shape[0] - num_windows
        carried = len(self.class_members)
        # Related cells in (window, column) order: the probe's row order.
        born_t, born_col = payload.related.nonzero()
        if carried:
            col = np.concatenate((self.class_col, born_col))
            adopt = np.concatenate((self.class_adopt, indices[born_t]))
        else:
            col, adopt = born_col, indices[born_t]
        num_classes = col.shape[0]
        caps = columns.max_windows[col]
        # A class has members from its adoption (before the block, if
        # carried) while its newest member is inside the cap.
        horizon = adopt + caps
        at = indices[:, np.newaxis]
        entry_t, entry_class = ((at >= adopt) & (at < horizon)).nonzero()
        entry = entry_t * num_classes + entry_class
        entry_col = col[entry_class]
        flat, unrelated = ctx.cell_planes(
            payload, entry_t, entry_col, entry, num_windows * num_classes
        )

        with ctx.phase("combine.bitops"):
            if carried:
                flat[:carried] |= self.class_planes
            grid = flat.reshape((num_windows, num_classes) + flat.shape[1:])
            for t in range(1, num_windows):
                grid[t] |= grid[t - 1]
            # Popcounts of the ge and lt planes: a class's lt count says
            # where Lemma 2 prunes it (it never falls along the windows,
            # so the number of windows a class passes is its prune
            # window; none without pruning, whose bound is then K), and
            # ge's less lt's are its equal positions, which decide
            # Lemma 1.
            counts = popcount_planes(flat)
            lt_count = counts[:, 1]
            pruned_at = (lt_count <= self._bound).reshape(
                num_windows, num_classes
            ).sum(axis=0)
            equal = counts[:, 0] - lt_count

        # The rows the cap allows at (window, class) are rows >= low.
        low = starts.searchsorted(at + 1 - caps).ravel().tolist()
        ends = pruned_at.tolist()
        cols = col.tolist()
        born_t = born_t.tolist()
        members = self._walk(cols, born_t, ends, low, live)
        # Per entry, against its class's prune window: kept (before),
        # pruned (at) or past its class's end (after). The adoption
        # entry of a class born here adopts rather than combines.
        first = [-1] * carried + born_t
        equal = equal.tolist()
        scores = self._scores
        resident = [0] * num_windows
        combines = prunes = 0
        encodes = set()
        hits = []
        for t, c, missing in zip(
            entry_t.tolist(), entry_class.tolist(), unrelated.tolist()
        ):
            end = ends[c]
            if t > end:
                continue
            cell = t * num_classes + c
            pairs = popcount(members[c] >> low[cell])
            if t != first[c]:
                combines += pairs
                if missing:
                    # One encode per (window, column), however many of
                    # the column's classes track there.
                    encodes.add((t, cols[c]))
            if t == end:
                prunes += pairs
                continue
            resident[t] += pairs
            if scores[equal[cell]]:
                hits.append((t, cols[c], equal[cell], members[c], low[cell]))
        registry = ctx.registry
        registry.inc("engine.signature_combines", combines)
        registry.inc("engine.signature_prunes", prunes)
        if encodes:
            registry.inc("engine.signature_encodes", len(encodes))
        survive = (pruned_at == num_windows) & (horizon > indices[-1])
        self.class_col = col[survive]
        self.class_adopt = adopt[survive]
        self.class_planes = grid[-1][survive]
        self.class_members = [
            m >> expired for m in compress(members, survive.tolist())
        ]
        return hits, resident

    def _walk(
        self,
        cols: List[int],
        born_t: List[int],
        ends: List[int],
        low: List[int],
        live: int,
    ) -> List[int]:
        """Member bitsets of the pass's classes, carried ones first.

        A class born at block window ``a`` takes the rows its cap allows
        there — from its ``low`` cell up to the fresh row ``live + a`` —
        less the rows held by its column's older classes not pruned
        before ``a``. Born classes come in adoption order, so a column's
        older classes are all among its holders when one is born. A
        column's classes hold disjoint rows (a pair has one signature),
        so each column keeps its holders' union and a heap of their
        prune windows, and a holder that ends leaves the union by a mask.
        """
        carried = len(self.class_members)
        num_classes = len(cols)
        members = self.class_members + [0] * len(born_t)
        # column -> [heap of (prune window, class), union of their rows],
        # for the columns a class is born in
        holders: Dict[int, list] = {
            column: [[], 0] for column in cols[carried:]
        }
        for c in range(carried):
            column = holders.get(cols[c])
            if column is not None:
                column[0].append((ends[c], c))
                column[1] |= members[c]
        for column in holders.values():
            heapify(column[0])
        for c, at in enumerate(born_t, carried):
            column = holders[cols[c]]
            heap = column[0]
            while heap and heap[0][0] < at:
                column[1] &= ~members[heappop(heap)[1]]
            members[c] = rows = (
                (2 << (live + at)) - (1 << low[at * num_classes + c])
            ) & ~column[1]
            heappush(heap, (ends[c], c))
            column[1] |= rows
        return members

    def _emit(
        self,
        hits: list,
        frames: np.ndarray,
        columns: QueryColumns,
        block: WindowBlock,
    ) -> List[List[Match]]:
        """Match events per window, in the oracle's (start, column)
        order: one per live member of a class scoring at least δ, with
        the oracle's Lemma 1 similarity, ``1 − (K − equal) / K``."""
        per_window: List[List[Match]] = [[] for _ in range(len(block))]
        if not hits:
            return per_window
        events = []
        for t, column, equal, rows, row in hits:
            # The members at or above the cap's row, lowest first.
            rows >>= row
            while rows:
                skip = (rows & -rows).bit_length() - 1
                row += skip
                events.append((t, row, column, equal))
                rows >>= skip + 1
                row += 1
        events.sort()
        num_hashes = self.context.config.num_hashes
        qids = columns.qids
        indices = block.indices.tolist()
        starts = block.starts.tolist()
        lengths = block.frames.tolist()
        start_frames = frames.tolist()
        for t, row, column, equal in events:
            per_window[t].append(
                Match(
                    qid=qids[column],
                    window_index=indices[t],
                    start_frame=start_frames[row],
                    end_frame=starts[t] + lengths[t],
                    similarity=1.0 - (num_hashes - equal) / num_hashes,
                )
            )
        return per_window
