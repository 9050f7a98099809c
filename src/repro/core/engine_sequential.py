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
planes and its members, packed bits over the live candidates. Pairs
exist only as class × member.

A whole :class:`~repro.minhash.windows.WindowBlock` is one pass of numpy
calls over its ``(window, class)`` grid, not a loop over its windows:

* **Signatures.** A class's signature at window ``t`` is the prefix-OR
  of its column's window planes from its adoption on, whoever its
  members are, and under OR its ``lt`` popcount never falls. One
  prefix-OR and one popcount over the grid give every class's
  similarity per window and its Lemma 2 prune window.
* **Lazy encode, while alive.** Cells the block does not relate are
  encoded ``lt`` only, in two rounds: each class's first
  :data:`_FIRST_ROUND` such cells, then the rest up to the prune window
  the first round leaves (exact where it prunes: no OR lowers ``lt``).
* **Membership.** Every related (window, column) cell opens one class,
  since the fresh candidate always adopts. Its members are the
  candidates the cap allows at that window, less those the column's
  classes still alive there hold: one round of word operations per
  born rank, on member words of any width.
* **Counters and matches** are sums over the grid: an entry's pairs are
  the popcount of its class's words at or above its cap's row. Matches
  come out in the oracle's (start, column) order.

A pass costs a fixed run of numpy calls, one round per born rank and
Python work per match. Work follows the
classes and their windows, not ``C × Q`` nor the live pairs. The
one-window, one-candidate-at-a-time form of the same semantics is the
oracle, ``repro.reference.SequentialEngine``;
``tests/test_engine_reference.py`` holds the two to identical matches,
counters and distributions (see ``docs/performance.md``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.columnar import column_remap
from repro.core.context import BlockPayload, EvalContext, QueryColumns
from repro.core.results import Match
from repro.minhash.windows import WindowBlock
from repro.signature.bitsig import plane_words, popcount_planes
from repro.signature.pruning import lemma2_bound

__all__ = ["GRID_WORDS", "ColumnarSequentialEngine"]

#: Most uint64 words one pass's ``(window, class)`` grid holds (4 MiB):
#: a cell's ``(ge, lt)`` planes and, for the cap's rows and the members
#: it allows, two member words per 64 candidates. The born classes of a
#: block grow with its windows, so the grid grows as ``B²``, and the
#: member words with the candidates a cap spans; a block past this is
#: halved first.
GRID_WORDS = 1 << 19

#: Lazy encodes per class in the first encode round: ``fanin_queries``
#: prunes most classes at their 3rd or 4th, and encodes 1,149 cells an
#: 8-window pass with 1 here (450 past a prune), 913 with 3 (214).
_FIRST_ROUND = 3

#: Added to a class's prune window: a window before the first is kept,
#: one before the second kept or pruned. Shaped to lead a ``(window,
#: class)`` grid.
_KEPT_OR_PRUNED = np.array([0, 1])[:, np.newaxis, np.newaxis]

_ROWS_FROM: Dict[int, np.ndarray] = {}
_SHIFTS = np.arange(64, dtype=np.uint64)


def _rows_from(words: int) -> np.ndarray:
    """``(64 * words + 1, words)`` uint64 member masks, built once per
    width: row ``r`` sets candidate rows ``r`` and up, so ``members &
    table[low]`` keeps the members a cap allows."""
    if words not in _ROWS_FROM:
        below = np.array([(1 << n) - 1 for n in range(65)], dtype=np.uint64)
        shift = np.arange(64 * words + 1)[:, None] - 64 * np.arange(words)
        _ROWS_FROM[words] = ~below[np.clip(shift, 0, 64)]
    return _ROWS_FROM[words]


def _prefix_or(grid: np.ndarray) -> None:
    """OR each window of a ``(window, class, ...)`` grid into the next,
    in place: every cell then holds its class's signature so far."""
    for t in range(1, grid.shape[0]):
        grid[t] |= grid[t - 1]


def _drop_rows(members: np.ndarray, rows: int) -> np.ndarray:
    """Member words less their lowest ``rows`` rows, renumbered from 0."""
    whole, bits = divmod(rows, 64)
    members = members[:, whole:]
    if not bits or not members.shape[1]:
        return members
    shifted = members >> _SHIFTS[bits]
    if members.shape[1] > 1:  # carry each word's low bits down
        shifted[:, :-1] |= members[:, 1:] << _SHIFTS[64 - bits]
    return shifted


class ColumnarSequentialEngine:
    """Sequential order on a class table of bit signatures.

    Live candidates are rows of two meta vectors, ``start_window`` and
    ``start_frame``, ascending. Their per-query state is a *class table*:
    per class, ``class_col`` (the query column), ``class_adopt`` (the
    start window of its newest member: its adoption window),
    ``class_planes`` (its stacked ``(ge, lt)`` planes, ``(G, 2, W)``
    uint64, as of the last processed window) and ``class_members``
    (``(G, words)`` uint64; bit ``i % 64`` of word ``i // 64`` is
    candidate row ``i``). A member still counts as a pair only while the
    column's λL cap allows it.

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
        )
        self._bound = (
            lemma2_bound(num_hashes, config.threshold)
            if config.prune else num_hashes
        )
        self._plane_words = plane_words(num_hashes)

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
        self.class_members = np.empty((0, 0), dtype=np.uint64)

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
        self.class_members = self.class_members[kept]
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
        if not len(self.start_window):
            none = np.empty(0, dtype=np.int64)
            return none, none
        caps = self.context.query_columns().max_windows
        low = self.start_window.searchsorted(
            self.start_window[-1] + 1 - caps.take(self.class_col)
        )
        members = self.class_members & _rows_from(
            self.class_members.shape[1]
        )[low]
        classes, rows = np.unpackbits(  # little-endian: bit i is row i
            members.view(np.uint8), axis=1, bitorder="little"
        ).nonzero()
        return rows.astype(np.int64), classes.astype(np.int64)

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
        :data:`GRID_WORDS` is halved, down to one window.

        Phase accounting: the λL expiry search runs under the ``prune``
        timer; the pass (class planes, Lemma 2, membership walk, member
        counts) under ``combine``, with its plane kernels in the
        ``phase.combine.bitops`` sub-timer; match emission and the
        per-window stats sampling under ``match_emit``.
        """
        num_windows = len(payload)
        words = -(-(self.num_candidates + num_windows) // 64)
        if num_windows > 1 and num_windows * (
            self.class_col.shape[0] + payload.born[0].shape[0]
        ) * 2 * (self._plane_words + words) > GRID_WORDS:
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
    ) -> Tuple[Optional[tuple], List[int]]:
        """The block's class table pass; returns the match hits and the
        per-window resident pair counts.

        Mirrors the oracle's ``_extend_bit`` and ``_evaluate_fresh``: per
        window, the per-query λL cap drops pairs first (touching no
        counter), tracked pairs OR with the window's planes (one
        ``signature_combines`` each, one lazy encode per tracked column
        the window does not relate), every live (row, related column)
        pair not yet tracked — the fresh row's included — adopts the
        window's planes, and Lemma 2 prunes.

        The planes are laid out over the ``(window, class)`` grid,
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
        words = -(-starts.shape[0] // 64)
        carried = self.class_col.shape[0]
        born_t, born_col = payload.born
        col = np.concatenate((self.class_col, born_col))
        adopt = np.concatenate((self.class_adopt, indices[born_t]))
        num_classes = col.shape[0]
        registry = ctx.registry
        if not num_classes:  # no pair to extend, adopt or count
            registry.inc("engine.signature_combines", 0)
            registry.inc("engine.signature_prunes", 0)
            return None, [0] * num_windows
        born = np.arange(carried, num_classes)
        cap = columns.cap_index[col]
        # A class has members from its adoption (before the block, if
        # carried) while its newest member is inside the cap: one
        # unsigned compare, a window before the adoption wrapping round.
        at = indices[:, np.newaxis]
        entries = (at - adopt).view(np.uint64) < columns.cap_values[cap]
        # The rows the cap allows at (window, class) are the rows that
        # start after t - cap (one search per window and distinct cap);
        # off the entries, none.
        low = np.where(
            entries,
            starts.searchsorted(at - columns.cap_values, "right")[:, cap],
            64 * words,
        )
        window = np.arange(num_windows)[:, np.newaxis]
        flat, unrelated, lazy = ctx.cell_planes(payload, col, entries)

        with ctx.phase("combine.bitops"):
            grid = flat.reshape((num_windows, num_classes) + flat.shape[1:])
            asked = np.count_nonzero(unrelated)
            pending = 0 if lazy is None else asked
            if pending:  # a block no longer than a round has one round
                first = lazy
                if num_windows > _FIRST_ROUND:
                    nth = lazy.cumsum(axis=0)
                    first = lazy & (nth <= _FIRST_ROUND)
                pending -= self._encode(payload, grid, col, first, fold=False)
            if carried:
                flat[:carried] |= self.class_planes
            _prefix_or(grid)
            if pending:  # the rest, up to the windows lt alone prunes at
                ends = self._prune_windows(popcount_planes(grid[:, :, 1]))
                if self._encode(
                    payload, grid, col,
                    lazy & (nth > _FIRST_ROUND) & (window <= ends),
                    fold=True,
                ):
                    _prefix_or(grid)
            counts = popcount_planes(grid)
            ends = self._prune_windows(counts[..., 1])

        # The rows an entry's cap allows, as member words.
        rows_from = _rows_from(words)
        capped = rows_from[low]
        members = self._walk(
            len(columns.qids), col, born_t, born_col, born, ends, capped,
            rows_from[live + 1:],
        )
        # An entry's pairs are the members its cap still allows. Per
        # window, one sum counts the pairs kept (before the class's
        # prune window) and the pairs kept or pruned (up to it).
        allowed = members & capped
        pairs = popcount_planes(allowed)
        alive = window < ends + _KEPT_OR_PRUNED
        resident, up_to_prune = np.add.reduce(pairs * alive, axis=2).tolist()
        combined = sum(up_to_prune)
        prunes = combined - sum(resident)
        # A born class's adoption entry adopts rather than combines.
        adopted = int(np.add.reduce(pairs[born_t, born]))
        registry.inc("engine.signature_combines", combined - adopted)
        registry.inc("engine.signature_prunes", prunes)
        # One encode per (window, column), however many of the column's
        # classes track there.
        if asked:
            lazy_t, lazy_c = (unrelated & alive[1]).nonzero()
            encoded = np.zeros((num_windows, len(columns.qids)), dtype=bool)
            encoded[lazy_t, col[lazy_c]] = True
            encodes = int(np.count_nonzero(encoded))
            if encodes:
                registry.inc("engine.signature_encodes", encodes)
        # ge's count less lt's: the equal positions, which decide Lemma 1.
        equal = counts[..., 0] - counts[..., 1]
        hit_t, hit_c = (alive[0] & self._scores[equal]).nonzero()
        hits = None
        if hit_t.size:
            hits = (
                hit_t.tolist(),
                col[hit_c].tolist(),
                equal[hit_t, hit_c].tolist(),
                allowed[hit_t, hit_c].tolist(),
            )
        survive = (ends == num_windows) & entries[-1]
        self.class_col = col[survive]
        self.class_adopt = adopt[survive]
        self.class_planes = grid[-1][survive]
        self.class_members = _drop_rows(members[survive], expired)
        return hits, resident

    def _encode(self, payload: BlockPayload, grid: np.ndarray,
                col: np.ndarray, cells: np.ndarray, fold: bool) -> int:
        """Write (or, with ``fold``, OR into the prefix-OR) the lazy
        encodes of the ``(window, class)`` ``cells``; returns how many."""
        cell_t, cell_c = cells.nonzero()
        if cell_t.size:
            lt = self.context.encode_cells(payload, cell_t, col[cell_c])
            if fold:  # ge := lt (see EvalContext.cell_planes)
                grid[cell_t, cell_c] |= lt[:, np.newaxis]
            else:
                grid[cell_t, cell_c] = lt[:, np.newaxis]
        return cell_t.size

    def _prune_windows(self, lt_counts: np.ndarray) -> np.ndarray:
        """Every class's prune window from its prefix-OR'd ``(window,
        class)`` ``lt`` counts: they never fall along the windows, so it
        is the number of windows that pass Lemma 2 (the block's length
        if none; without pruning the bound is K)."""
        return np.add.reduce(lt_counts <= self._bound, axis=0)

    def _walk(self, num_queries: int, col: np.ndarray, born_t: np.ndarray,
              born_col: np.ndarray, born: np.ndarray, ends: np.ndarray,
              capped: np.ndarray, past_fresh: np.ndarray) -> np.ndarray:
        """Member words of the pass's classes, carried ones first, from
        the rows each ``(window, class)`` cell's cap allows and, per
        block window, the rows past its fresh one.

        A class born at block window ``a`` takes the rows its cap allows
        there, up to the fresh row ``live + a``, less the rows its
        column's older classes not pruned before ``a`` hold. Round ``k``
        opens every column's ``k``-th class of the block: older ones
        are carried or opened already, unopened ones hold no rows, so a
        round ORs every class alive at its column's adoption window into
        that column (one OR: a column's classes hold disjoint rows).
        """
        words = capped.shape[-1]
        carried = self.class_col.shape[0]
        members = np.zeros((col.shape[0], words), dtype=np.uint64)
        kept = self.class_members[:, :words]
        members[:carried, :kept.shape[1]] = kept
        if not born.size:
            return members
        # Rows from the cap's row up to the fresh one (an XOR: the fresh
        # row is at or above the cap's).
        span = capped[born_t, born] ^ past_fresh[born_t]
        # A class's rank: how many of its column's classes the block
        # bore before it. Born in one window, every class has rank 0 and
        # opens there. Rounds take the born classes sorted by rank, a
        # rank's run at a time: ``cuts`` bound the runs.
        cuts, one_window = [0, born.size], born_t[0] == born_t[-1]
        if not one_window:
            order = born_col.argsort(kind="stable")
            grouped = born_col[order]
            rank = np.empty_like(order)
            rank[order] = np.arange(order.size) - grouped.searchsorted(grouped)
            by_rank = rank.argsort(kind="stable")
            cuts = rank[by_rank].searchsorted(
                np.arange(int(rank[by_rank[-1]]) + 2)
            ).tolist()
            born, born_t, born_col, span = (
                born[by_rank], born_t[by_rank], born_col[by_rank],
                span[by_rank],
            )
            opens = np.zeros(num_queries, dtype=np.int64)
        if len(cuts) == 2 and not carried:
            members[carried:] = span  # nothing holds a row yet
            return members
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            cols = born_col[lo:hi]
            holding = members
            if not one_window:
                # Per column, the window its class of this rank opens
                # at (stale elsewhere, where nothing is read).
                opens[cols] = born_t[lo:hi]
                holding = members * (ends >= opens[col])[:, np.newaxis]
            elif born_t[0]:  # at the block's first, every class is alive
                holding = members * (ends >= born_t[0])[:, np.newaxis]
            # Alive holders of a column hold disjoint rows, so their sum
            # is their OR (and add.at the fast scatter).
            held = np.zeros((num_queries, words), dtype=np.uint64)
            for word in range(words):
                np.add.at(held[:, word], col, holding[:, word])
            members[born[lo:hi]] = span[lo:hi] & ~held[cols]
        return members

    def _emit(
        self,
        hits: Optional[tuple],
        frames: np.ndarray,
        columns: QueryColumns,
        block: WindowBlock,
    ) -> List[List[Match]]:
        """Match events per window, in the oracle's (start, column)
        order: one per live member of a class scoring at least δ, with
        the oracle's Lemma 1 similarity, ``1 − (K − equal) / K``."""
        per_window: List[List[Match]] = [[] for _ in range(len(block))]
        if hits is None:
            return per_window
        events = []
        for t, column, equal, words in zip(*hits):
            # The members at or above the cap's row, lowest first.
            rows = sum(word << 64 * at for at, word in enumerate(words))
            row = 0
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
