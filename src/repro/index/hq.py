"""The Hash-Query array ``HQ[K][m]`` (paper Figure 3/4).

Each of the ``K`` rows holds one triple ⟨value, up, down⟩ per subscribed
query, sorted by ``value``:

* ``value`` — the query's min-hash value under hash function ``i``;
* ``up``   — the *position* (column) of the same query's hash ``i−1``
  value in row ``i−1`` (undefined on row 0);
* ``down`` — the position of the same query's hash ``i+1`` value in row
  ``i+1`` (undefined on the last row).

Row 0 entries additionally carry the query id and the query length, which
is what an up-walk terminates on. Binary search over a row finds the
entries equal to a probe value; the up/down chains recover the rest of
that query's sketch without ever touching non-relevant queries.

Queries can be subscribed and unsubscribed online; insertion/removal at a
position shifts the tail of a row, so the neighbouring rows' pointers that
cross the shifted region are patched (the "up and down should also be
updated" maintenance from Section V-C.1).

The production probe (:func:`~repro.index.probe.probe_index`) reads two
flat views of the same rows instead of walking them: :attr:`keys`, every
row's values as one sorted ``row << 32 | value`` array, and
:attr:`qid_matrix`, the query id at every position (the up-walks done
ahead of time). :meth:`build` sets both straight from its sorted
matrices; insert/remove drop them, and they are rebuilt on next use. The
literal pointer walk of Figure 5 is ``repro.reference.probe``.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import IndexError_
from repro.minhash.sketch import Sketch

__all__ = ["HashQueryIndex", "IndexEntry"]

#: Bits below the row number in a :attr:`HashQueryIndex.keys` entry.
_KEY_SHIFT = 32


def _check_key_range(sketch: Sketch) -> None:
    """Refuse a sketch whose values could spill into a key's row bits.

    Every value of a family's sketch — the empty-set sentinel included —
    is at most its prime (``2³¹ − 1`` by default), so the family decides.
    """
    prime = sketch.family[2]
    if prime >> _KEY_SHIFT:
        raise IndexError_(
            f"the index keys values below 2**{_KEY_SHIFT}; the sketch's "
            f"family prime {prime} does not fit"
        )


def _row_keys(row_values: np.ndarray) -> np.ndarray:
    """Flatten a row-sorted ``(K, m)`` value matrix into ascending keys."""
    rows = np.arange(row_values.shape[0], dtype=np.int64)[:, np.newaxis]
    return ((rows << _KEY_SHIFT) | row_values).ravel()


@dataclass
class IndexEntry:
    """One ⟨value, up, down⟩ triple; row-0 entries also know their query.

    ``up``/``down`` are column positions in the adjacent rows, or ``-1``
    where undefined (``up`` on row 0, ``down`` on the last row).
    """

    value: int
    up: int = -1
    down: int = -1
    qid: Optional[int] = None
    length_windows: int = 0


class HashQueryIndex:
    """The ``K``-row Hash-Query structure with online maintenance.

    Parameters
    ----------
    num_hashes:
        ``K`` — every subscribed sketch must have this width.
    """

    def __init__(self, num_hashes: int) -> None:
        if num_hashes <= 0:
            raise IndexError_(f"num_hashes must be positive, got {num_hashes}")
        self.num_hashes = num_hashes
        self.rows: List[List[IndexEntry]] = [[] for _ in range(num_hashes)]
        # Parallel sorted value lists per row, kept in lockstep with
        # ``rows`` so probes can binary-search without attribute access.
        self._row_values: List[List[int]] = [[] for _ in range(num_hashes)]
        # The probe's flat views (see :attr:`keys`, :attr:`qid_matrix`,
        # :attr:`sorted_qids`): denormalised, built lazily, dropped by
        # any structural change. The structure of record remains the
        # pointer-linked rows.
        self._keys: Optional[np.ndarray] = None
        self._qid_matrix: Optional[np.ndarray] = None
        self._sorted_qids: Optional[np.ndarray] = None
        self._length_cache: Optional[Dict[int, int]] = None

    # ------------------------------------------------------------------
    # construction / maintenance
    # ------------------------------------------------------------------

    @classmethod
    def build(
        cls,
        sketches: Dict[int, Sketch],
        lengths_windows: Dict[int, int],
    ) -> "HashQueryIndex":
        """BuildIndex(QS): bulk-construct from query sketches.

        Parameters
        ----------
        sketches:
            Mapping query id -> K-min-hash sketch.
        lengths_windows:
            Mapping query id -> query length measured in basic windows
            (used for per-query candidate expiry, Section V-B remark (2)).
        """
        if not sketches:
            raise IndexError_("cannot build an index over zero queries")
        qids = sorted(sketches)
        for qid in qids:
            if qid not in lengths_windows:
                raise IndexError_(f"missing length for query {qid}")
            if lengths_windows[qid] <= 0:
                raise IndexError_(
                    f"length for query {qid} must be positive, "
                    f"got {lengths_windows[qid]}"
                )
        first = sketches[qids[0]]
        for qid in qids:
            if sketches[qid].num_hashes != first.num_hashes:
                raise IndexError_(
                    f"query {qid} sketch width differs from the others"
                )
            _check_key_range(sketches[qid])

        index = cls(first.num_hashes)
        num_queries = len(qids)
        # (m, K) value matrix, query row order matching ``qids``.
        values = np.stack([sketches[qid].values for qid in qids])
        # Each (m, K) temporary is dropped as soon as it is used up: the
        # bulk build is the set-up's memory peak.
        orders = np.argsort(values, axis=0, kind="stable")  # (m, K): rank -> query
        # (K, m): row i's values in column order, and each column's query.
        row_values = np.take_along_axis(values, orders, axis=0).T
        row_queries = orders.T
        del values

        # Column position of each query per row.
        positions = np.empty_like(orders)  # (m, K): query -> rank
        ranks = np.arange(num_queries)
        for i in range(index.num_hashes):
            positions[orders[:, i], i] = ranks
        unset = [-1] * num_queries
        for i in range(index.num_hashes):
            column_queries = row_queries[i]
            ups = positions[column_queries, i - 1].tolist() if i else unset
            downs = (
                positions[column_queries, i + 1].tolist()
                if i + 1 < index.num_hashes
                else unset
            )
            index._row_values[i] = row_values[i].tolist()
            index.rows[i] = [
                IndexEntry(value=value, up=up, down=down)
                for value, up, down in zip(index._row_values[i], ups, downs)
            ]
        del positions
        for entry, query_index in zip(index.rows[0], row_queries[0].tolist()):
            entry.qid = qids[query_index]
            entry.length_windows = lengths_windows[entry.qid]

        # The probe's flat views, straight from the sorted matrices: no
        # pointer walk is needed while the layout is the bulk one.
        index._keys = _row_keys(row_values)
        del row_values
        index._sorted_qids = np.asarray(qids, dtype=np.int64)
        index._qid_matrix = np.ascontiguousarray(
            index._sorted_qids[row_queries]
        )
        return index

    @property
    def num_queries(self) -> int:
        """Number of currently subscribed queries."""
        return len(self.rows[0])

    @property
    def query_ids(self) -> List[int]:
        """Subscribed query ids (in row-0 value order)."""
        return [entry.qid for entry in self.rows[0] if entry.qid is not None]

    def insert(self, qid: int, sketch: Sketch, length_windows: int) -> None:
        """Subscribe a query online.

        Inserts one triple into every row at its value-sorted position and
        patches every pointer that crosses a shifted region.
        """
        if sketch.num_hashes != self.num_hashes:
            raise IndexError_(
                f"sketch width {sketch.num_hashes} does not match index "
                f"K={self.num_hashes}"
            )
        if length_windows <= 0:
            raise IndexError_(
                f"length_windows must be positive, got {length_windows}"
            )
        _check_key_range(sketch)
        if any(entry.qid == qid for entry in self.rows[0]):
            raise IndexError_(f"query {qid} is already subscribed")

        previous_position = -1
        for i in range(self.num_hashes):
            value = int(sketch.values[i])
            position = bisect_right(self._row_values[i], value)
            entry = IndexEntry(value=value, up=previous_position)
            if i == 0:
                entry.qid = qid
                entry.length_windows = length_windows
            # Pointers in the row above that land at or past the insertion
            # point now refer to shifted columns.
            if i > 0:
                for above in self.rows[i - 1]:
                    if above.down >= position:
                        above.down += 1
                self.rows[i - 1][previous_position].down = position
            # Pointers in the row below still reference this row's old
            # layout; shift the crossers.
            if i + 1 < self.num_hashes:
                for below in self.rows[i + 1]:
                    if below.up >= position:
                        below.up += 1
            self.rows[i].insert(position, entry)
            self._row_values[i].insert(position, value)
            previous_position = position
        self._invalidate_caches()

    def remove(self, qid: int) -> None:
        """Unsubscribe a query online (inverse pointer maintenance)."""
        position = -1
        for column, entry in enumerate(self.rows[0]):
            if entry.qid == qid:
                position = column
                break
        if position < 0:
            raise IndexError_(f"query {qid} is not subscribed")

        for i in range(self.num_hashes):
            entry = self.rows[i][position]
            next_position = entry.down
            del self.rows[i][position]
            del self._row_values[i][position]
            if i > 0:
                for above in self.rows[i - 1]:
                    if above.down > position:
                        above.down -= 1
            if i + 1 < self.num_hashes:
                for below in self.rows[i + 1]:
                    if below.up > position:
                        below.up -= 1
            position = next_position
        self._invalidate_caches()

    # ------------------------------------------------------------------
    # batched views
    # ------------------------------------------------------------------

    def _invalidate_caches(self) -> None:
        self._keys = None
        self._qid_matrix = None
        self._sorted_qids = None
        self._length_cache = None

    def length_of(self, qid: int) -> int:
        """Query length in windows, from the row-0 entries (memoised)."""
        if self._length_cache is None:
            self._length_cache = {
                entry.qid: entry.length_windows for entry in self.rows[0]
            }
        if qid not in self._length_cache:
            raise IndexError_(f"query {qid} is not subscribed")
        return self._length_cache[qid]

    @property
    def keys(self) -> np.ndarray:
        """Every row's values as one ascending ``(K·m,)`` int64 key array.

        Entry ``(i, c)`` is ``i << 32 | value`` at flat position
        ``i·m + c`` (row-major): rows are value-sorted and the row number
        sits above every value, so the whole array is sorted and one
        ``np.searchsorted`` finds the equal run of any (row, value)
        pair (:meth:`targets`). Values fit below bit 32: build, insert
        and :meth:`targets` refuse a family whose prime does not.
        """
        if self._keys is None:
            self._keys = _row_keys(
                np.asarray(self._row_values, dtype=np.int64).reshape(
                    self.num_hashes, self.num_queries
                )
            )
        return self._keys

    def targets(self, sketch: Sketch) -> np.ndarray:
        """A sketch's ``K`` probe keys ``i << 32 | sk[i]``, ``(K,)`` int64.

        The :attr:`keys` entries equal to target ``i`` are row ``i``'s
        values equal to ``sk[i]``. Refuses a sketch of another width or
        of a family whose values do not fit below bit 32.
        """
        if sketch.num_hashes != self.num_hashes:
            raise IndexError_(
                f"sketch width {sketch.num_hashes} does not match index "
                f"K={self.num_hashes}"
            )
        _check_key_range(sketch)
        return _row_keys(sketch.values[:, np.newaxis])

    @property
    def sorted_qids(self) -> np.ndarray:
        """Subscribed query ids ascending, ``(m,)`` int64.

        A query's position here is its *column* everywhere outside the
        index: the engines lay queries out in sorted-qid order, and
        ``np.searchsorted(sorted_qids, qids)`` is the qid → column table.
        """
        if self._sorted_qids is None:
            self._sorted_qids = np.sort(
                np.asarray(self.query_ids, dtype=np.int64)
            )
        return self._sorted_qids

    def warm_caches(self) -> None:
        """Materialise the probe's views (offline, like index construction).

        The paper min-hashes query sequences offline; the flat views the
        probe reads belong to the same offline phase. Calling this after
        build/insert/remove keeps the online probe path free of one-time
        construction costs. After :meth:`build` all three are already
        set; after insert/remove :attr:`qid_matrix` costs one pass over
        the down chains.
        """
        _ = self.keys
        _ = self.qid_matrix
        _ = self.sorted_qids

    @property
    def qid_matrix(self) -> np.ndarray:
        """Per-row column -> query id map, shape ``(K, m)``.

        Materialised by following every down-chain once; equivalent to
        performing the probe's up-walks ahead of time. Its ``ravel()``
        is the qid of every :attr:`keys` entry.
        """
        if self._qid_matrix is None:
            qids = np.empty((self.num_hashes, self.num_queries), dtype=np.int64)
            for root_column, root in enumerate(self.rows[0]):
                column = root_column
                for i in range(self.num_hashes):
                    qids[i, column] = root.qid
                    column = self.rows[i][column].down
            self._qid_matrix = qids
        return self._qid_matrix

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------

    def equal_positions(self, row: int, value: int) -> range:
        """Columns of row ``row`` whose value equals ``value`` (may be empty).

        This is the BinarySearch/EqualSearch primitive of the probe
        algorithm: binary search for the equal run's bounds.
        """
        if not 0 <= row < self.num_hashes:
            raise IndexError_(f"row {row} outside [0, {self.num_hashes})")
        values = self._row_values[row]
        lo = bisect_left(values, value)
        hi = bisect_right(values, value)
        return range(lo, hi)

    def walk_up_to_root(self, row: int, column: int) -> List[int]:
        """Follow ``up`` pointers from (row, column) to row 0.

        Returns the visited columns, index ``i`` of the result being the
        column in row ``i`` (so the result has ``row + 1`` entries and the
        first one identifies the query).
        """
        if not 0 <= row < self.num_hashes:
            raise IndexError_(f"row {row} outside [0, {self.num_hashes})")
        if not 0 <= column < len(self.rows[row]):
            raise IndexError_(
                f"column {column} outside row {row} of size {len(self.rows[row])}"
            )
        columns = [0] * (row + 1)
        columns[row] = column
        current = column
        for i in range(row, 0, -1):
            current = self.rows[i][current].up
            columns[i - 1] = current
        return columns

    def query_of_column(self, row: int, column: int) -> IndexEntry:
        """Row-0 entry (query id + length) reached by an up-walk."""
        root_column = self.walk_up_to_root(row, column)[0]
        return self.rows[0][root_column]

    def sketch_values_of(self, qid: int) -> np.ndarray:
        """Recover a query's full sketch by a down-walk (Section V-C.1)."""
        position = -1
        for column, entry in enumerate(self.rows[0]):
            if entry.qid == qid:
                position = column
                break
        if position < 0:
            raise IndexError_(f"query {qid} is not subscribed")
        values = np.empty(self.num_hashes, dtype=np.int64)
        for i in range(self.num_hashes):
            entry = self.rows[i][position]
            values[i] = entry.value
            position = entry.down
        return values

    def canonical_state(self) -> Dict[int, Tuple[Tuple[int, ...], int]]:
        """Order-independent content view: qid → (sketch values, length).

        Two indexes holding the same queries are semantically equal iff
        their canonical states match — regardless of how equal-valued
        columns are ordered, which legitimately differs between an
        incrementally maintained index and one rebuilt from scratch.
        The online-maintenance fuzz compares this (plus
        :meth:`check_invariants` on both sides) after every
        insert/remove interleaving.
        """
        return {
            qid: (
                tuple(int(v) for v in self.sketch_values_of(qid)),
                self.length_of(qid),
            )
            for qid in self.query_ids
        }

    def check_invariants(self) -> None:
        """Validate structural invariants (used by tests).

        * every row is value-sorted and has one entry per query;
        * up/down chains are mutually inverse;
        * row-0 entries carry distinct query ids.
        """
        m = self.num_queries
        seen_qids = set()
        for entry in self.rows[0]:
            if entry.qid is None:
                raise IndexError_("row-0 entry without a query id")
            if entry.qid in seen_qids:
                raise IndexError_(f"duplicate query id {entry.qid} in row 0")
            seen_qids.add(entry.qid)
        for i, row in enumerate(self.rows):
            if len(row) != m:
                raise IndexError_(
                    f"row {i} has {len(row)} entries, expected {m}"
                )
            if self._row_values[i] != [e.value for e in row]:
                raise IndexError_(f"row {i} value cache out of sync")
            for column in range(1, m):
                if row[column - 1].value > row[column].value:
                    raise IndexError_(f"row {i} is not sorted at column {column}")
            for column, entry in enumerate(row):
                if i + 1 < self.num_hashes:
                    below = self.rows[i + 1][entry.down]
                    if below.up != column:
                        raise IndexError_(
                            f"down/up pointer mismatch at row {i}, column {column}"
                        )
