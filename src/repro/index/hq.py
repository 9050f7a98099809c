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

The record is two ``(K, m)`` arrays and a map: :attr:`values`, every
row's values in sorted order; :attr:`qid_matrix`, the query id at every
position (an up-walk's destination, known ahead of time); and each
query's length in windows. Queries are subscribed and unsubscribed
online (Section V-C.1) with array operations: :meth:`insert` finds every
row's insertion point with one ``searchsorted`` over :attr:`keys` and
scatters one new column into ``(K, m+1)``; :meth:`remove` drops the
query's ``K`` cells. The paper's "up and down should also be updated"
maintenance is implicit: the pointers are a function of
:attr:`qid_matrix`.

The production probe (:func:`~repro.index.probe.probe_index`) reads the
arrays and :attr:`keys`, every row's values as one sorted
``row << 32 | value`` array. The ⟨value, up, down⟩ triples of Figure 4
(:attr:`rows`, :class:`IndexEntry`) are a view derived from the arrays
on first access after a change and cached until the next one; only the
literal pointer walk of Figure 5, ``repro.reference.probe``, reads them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.errors import IndexError_
from repro.minhash.sketch import Sketch, SketchBlock

__all__ = ["HashQueryIndex", "IndexEntry"]

#: Bits below the row number in a :attr:`HashQueryIndex.keys` entry.
_KEY_SHIFT = 32


def _check_key_range(sketch: Union[Sketch, SketchBlock]) -> None:
    """Refuse sketches whose values could spill into a key's row bits.

    Every value of a family's sketch — the empty-set sentinel included —
    is at most its prime (``2³¹ − 1`` by default), so the family decides.
    """
    prime = sketch.family[2]
    if prime >> _KEY_SHIFT:
        raise IndexError_(
            f"the index keys values below 2**{_KEY_SHIFT}; the sketch's "
            f"family prime {prime} does not fit"
        )


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
        # The record: row-sorted values, the query at every position,
        # and every query's length.
        self._values = np.empty((num_hashes, 0), dtype=np.int64)
        self._qid_matrix = np.empty((num_hashes, 0), dtype=np.int64)
        self._lengths: Dict[int, int] = {}
        # Views derived from the record on first use, dropped by every
        # change: the probe's keys and sorted qids, the oracle's triples.
        self._keys: Optional[np.ndarray] = None
        self._sorted_qids: Optional[np.ndarray] = None
        self._key_columns: Optional[np.ndarray] = None
        self._rows: Optional[List[List[IndexEntry]]] = None
        # Row ``i``'s key bits, ``i << 32``: fixed by K alone.
        self._row_keys = (
            np.arange(num_hashes, dtype=np.int64) << _KEY_SHIFT
        )

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
        # (K, m): row i holds every query's hash i, in sorted-qid order.
        values = np.stack([sketches[qid].values for qid in qids], axis=1)
        # orders[i, c]: the sorted-qid position of the query at column c
        # of row i (ties in qid order, as the stable sort leaves them),
        # which is exactly :attr:`key_columns`.
        orders = np.argsort(values, axis=1, kind="stable")
        index._values = np.take_along_axis(values, orders, axis=1)
        # Each (K, m) temporary is dropped as soon as it is used up: the
        # bulk build is the set-up's memory peak.
        del values
        index._key_columns = orders.astype(np.int32).ravel()
        del orders
        index._sorted_qids = np.asarray(qids, dtype=np.int64)
        index._qid_matrix = index._sorted_qids[
            index._key_columns.reshape(index._values.shape)
        ]
        index._lengths = {qid: int(lengths_windows[qid]) for qid in qids}
        return index

    @property
    def num_queries(self) -> int:
        """Number of currently subscribed queries."""
        return int(self._values.shape[1])

    @property
    def query_ids(self) -> List[int]:
        """Subscribed query ids (in row-0 value order)."""
        return self._qid_matrix[0].tolist()

    def insert(self, qid: int, sketch: Sketch, length_windows: int) -> None:
        """Subscribe a query online.

        Every row gains the query's value at its ``bisect_right``
        position — after any equal values — found for all rows by one
        ``searchsorted`` over :attr:`keys`; one boolean mask scatters
        the old cells and the new column into ``(K, m+1)``.
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
        if qid in self._lengths:
            raise IndexError_(f"query {qid} is already subscribed")

        num_queries = self.num_queries
        rows = np.arange(self.num_hashes)
        columns = (
            self.keys.searchsorted(self.targets(sketch), "right")
            - rows * num_queries
        )
        new = np.zeros((self.num_hashes, num_queries + 1), dtype=bool)
        new[rows, columns] = True
        old = ~new
        values = np.empty(new.shape, dtype=np.int64)
        values[new] = sketch.values
        values[old] = self._values.ravel()
        qid_matrix = np.empty(new.shape, dtype=np.int64)
        qid_matrix[new] = qid
        qid_matrix[old] = self._qid_matrix.ravel()
        self._values = values
        self._qid_matrix = qid_matrix
        self._lengths[qid] = int(length_windows)
        self._invalidate_caches()

    def remove(self, qid: int) -> None:
        """Unsubscribe a query online: drop its cell from every row."""
        if qid not in self._lengths:
            raise IndexError_(f"query {qid} is not subscribed")
        keep = self._qid_matrix != qid
        shape = (self.num_hashes, self.num_queries - 1)
        self._values = self._values[keep].reshape(shape)
        self._qid_matrix = self._qid_matrix[keep].reshape(shape)
        del self._lengths[qid]
        self._invalidate_caches()

    # ------------------------------------------------------------------
    # batched views
    # ------------------------------------------------------------------

    def _invalidate_caches(self) -> None:
        self._keys = None
        self._sorted_qids = None
        self._key_columns = None
        self._rows = None

    def length_of(self, qid: int) -> int:
        """Query length in windows."""
        if qid not in self._lengths:
            raise IndexError_(f"query {qid} is not subscribed")
        return self._lengths[qid]

    @property
    def values(self) -> np.ndarray:
        """Every row's values in column order, ``(K, m)`` int64.

        Rows are value-sorted; the query at ``(i, c)`` is
        ``qid_matrix[i, c]``.
        """
        return self._values

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
            self._keys = (
                self._row_keys[:, np.newaxis] | self._values
            ).ravel()
        return self._keys

    def targets(self, sketches: Union[Sketch, SketchBlock]) -> np.ndarray:
        """Probe keys ``i << 32 | sk[i]`` of one sketch or a block, flat.

        ``sketches`` is one :class:`Sketch` or a ``(B, K)``
        :class:`SketchBlock`; entry ``b·K + i`` is window ``b``'s target
        on row ``i``, and the :attr:`keys` entries equal to it are row
        ``i``'s values equal to ``sk_b[i]``. Refuses sketches of another
        width or of a family whose values do not fit below bit 32.
        """
        values = sketches.values
        if values.shape[-1] != self.num_hashes:
            raise IndexError_(
                f"sketch width {values.shape[-1]} does not match index "
                f"K={self.num_hashes}"
            )
        _check_key_range(sketches)
        return (self._row_keys | values).ravel()

    @property
    def sorted_qids(self) -> np.ndarray:
        """Subscribed query ids ascending, ``(m,)`` int64.

        A query's position here is its *column* everywhere outside the
        index: the engines lay queries out in sorted-qid order, and
        ``np.searchsorted(sorted_qids, qids)`` is the qid → column table.
        """
        if self._sorted_qids is None:
            self._sorted_qids = np.sort(self._qid_matrix[0])
        return self._sorted_qids

    @property
    def key_columns(self) -> np.ndarray:
        """The query column of every :attr:`keys` entry, ``(K·m,)`` int32.

        Entry ``i·m + c`` is the position of ``qid_matrix[i, c]`` in
        :attr:`sorted_qids`: the probe's qid → column lookup, done once
        per change instead of once per probe.
        """
        if self._key_columns is None:
            self._key_columns = (
                self.sorted_qids.searchsorted(self._qid_matrix.ravel())
                .astype(np.int32)
            )
        return self._key_columns

    def warm_caches(self) -> None:
        """Materialise the probe's views (offline, like index construction).

        The paper min-hashes query sequences offline; the flat views the
        probe reads belong to the same offline phase. Calling this after
        build/insert/remove keeps the online probe path free of one-time
        construction costs: one vectorised pass each for :attr:`keys`,
        :attr:`sorted_qids` and :attr:`key_columns`.
        """
        _ = self.keys
        _ = self.sorted_qids
        _ = self.key_columns

    @property
    def qid_matrix(self) -> np.ndarray:
        """Per-row column -> query id map, shape ``(K, m)``.

        Equivalent to performing the probe's up-walks ahead of time. Its
        ``ravel()`` is the qid of every :attr:`keys` entry.
        """
        return self._qid_matrix

    @property
    def rows(self) -> List[List[IndexEntry]]:
        """The ⟨value, up, down⟩ triples of Figure 4, row by row.

        Derived from the arrays on first access after a change and
        cached until the next: ``up``/``down`` of a cell are the columns
        of the same query in the rows above and below. Row-0 entries
        carry the query id and length. Read by the reference walk only.
        """
        if self._rows is None:
            self._rows = self._derive_rows()
        return self._rows

    def _derive_rows(self) -> List[List[IndexEntry]]:
        num_hashes, num_queries = self._values.shape
        # ranks[i, c]: the query at (i, c) as a position in sorted_qids;
        # columns[i, r]: the column of the rank-r query on row i.
        ranks = self.sorted_qids.searchsorted(self._qid_matrix)
        columns = np.empty_like(ranks)
        np.put_along_axis(
            columns,
            ranks,
            np.broadcast_to(np.arange(num_queries), ranks.shape),
            axis=1,
        )
        unset = np.full((1, num_queries), -1, dtype=np.int64)
        ups = np.concatenate(
            [unset, np.take_along_axis(columns[:-1], ranks[1:], axis=1)]
        )
        downs = np.concatenate(
            [np.take_along_axis(columns[1:], ranks[:-1], axis=1), unset]
        )
        rows = [
            [
                IndexEntry(value=value, up=up, down=down)
                for value, up, down in zip(
                    self._values[i].tolist(), ups[i].tolist(), downs[i].tolist()
                )
            ]
            for i in range(num_hashes)
        ]
        for entry, qid in zip(rows[0], self._qid_matrix[0].tolist()):
            entry.qid = qid
            entry.length_windows = self._lengths[qid]
        return rows

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
        values = self._values[row]
        return range(
            int(values.searchsorted(value, "left")),
            int(values.searchsorted(value, "right")),
        )

    def walk_up_to_root(self, row: int, column: int) -> List[int]:
        """Follow ``up`` pointers from (row, column) to row 0.

        Returns the visited columns, index ``i`` of the result being the
        column in row ``i`` (so the result has ``row + 1`` entries and the
        first one identifies the query).
        """
        if not 0 <= row < self.num_hashes:
            raise IndexError_(f"row {row} outside [0, {self.num_hashes})")
        if not 0 <= column < self.num_queries:
            raise IndexError_(
                f"column {column} outside row {row} of size {self.num_queries}"
            )
        rows = self.rows
        columns = [0] * (row + 1)
        columns[row] = column
        current = column
        for i in range(row, 0, -1):
            current = rows[i][current].up
            columns[i - 1] = current
        return columns

    def query_of_column(self, row: int, column: int) -> IndexEntry:
        """Row-0 entry (query id + length) reached by an up-walk."""
        root_column = self.walk_up_to_root(row, column)[0]
        return self.rows[0][root_column]

    def sketch_values_of(self, qid: int) -> np.ndarray:
        """Recover a query's full sketch by a down-walk (Section V-C.1)."""
        if qid not in self._lengths:
            raise IndexError_(f"query {qid} is not subscribed")
        position = int(np.flatnonzero(self._qid_matrix[0] == qid)[0])
        values = np.empty(self.num_hashes, dtype=np.int64)
        for i, row in enumerate(self.rows):
            entry = row[position]
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

        * the arrays are ``(K, m)``, every row value-sorted and holding
          each subscribed query exactly once;
        * the length map names exactly the subscribed queries;
        * cached views equal a fresh derivation, and the derived
          up/down chains are mutually inverse.
        """
        shape = (self.num_hashes, len(self._lengths))
        for name, array in (
            ("values", self._values),
            ("qid_matrix", self._qid_matrix),
        ):
            if array.shape != shape:
                raise IndexError_(
                    f"{name} has shape {array.shape}, expected {shape}"
                )
        row_zero = self._qid_matrix[0].tolist()
        if len(set(row_zero)) != len(row_zero):
            raise IndexError_("duplicate query id in row 0")
        if set(row_zero) != set(self._lengths):
            raise IndexError_("row-0 query ids differ from the length map")
        expected = np.sort(self._qid_matrix[0])
        if not (np.sort(self._qid_matrix, axis=1) == expected).all():
            raise IndexError_("a row does not hold every query exactly once")
        unsorted = np.argwhere(np.diff(self._values, axis=1) < 0)
        if unsorted.size:
            row, column = unsorted[0].tolist()
            raise IndexError_(f"row {row} is not sorted at column {column + 1}")
        cached = (self._keys, self._sorted_qids, self._rows, self._key_columns)
        self._invalidate_caches()
        for name, old, new in (
            ("keys", cached[0], self.keys),
            ("sorted_qids", cached[1], self.sorted_qids),
            ("key_columns", cached[3], self.key_columns),
        ):
            if old is not None and not np.array_equal(old, new):
                raise IndexError_(f"cached {name} out of step with the arrays")
        if cached[2] is not None and cached[2] != self.rows:
            raise IndexError_("cached rows out of step with the arrays")
        for i, row in enumerate(self.rows):
            if [entry.value for entry in row] != self._values[i].tolist():
                raise IndexError_(f"row {i} triples disagree with the values")
            if i + 1 < self.num_hashes:
                for column, entry in enumerate(row):
                    if self.rows[i + 1][entry.down].up != column:
                        raise IndexError_(
                            f"down/up pointer mismatch at row {i}, column {column}"
                        )
