"""The 2K-bit relationship signature (Definition 3, Lemma 1).

For hash function ``r`` the candidate/query relationship is one of
``>``, ``=``, ``<``, encoded into the bit pair at positions
``(2r, 2r+1)`` as::

    ">"  ->  00        (candidate min is larger than the query's)
    "="  ->  01
    "<"  ->  11        (candidate min is smaller — can never equalise)

With the even bit as the *low* plane and the odd bit as the *high* plane,
the OR of two pairs is exactly the relationship of the min-merged sketches
(the six-case table of Section V-A), because the encoding is monotone in
the order ``>`` < ``=`` < ``<``.

Implementation: the two planes are stored as separate K-bit Python ints,
``ge`` (even positions: 1 unless the relation is ``>``) and ``lt`` (odd
positions: 1 iff the relation is ``<``). Then

* combine = OR of both planes,
* ``n0`` (zeros on even positions) = ``K − popcount(ge)`` = #(``>``),
* ``n1`` (ones on odd positions) = ``popcount(lt)`` = #(``<``),
* Lemma 1: ``sim = 1 − (n0 + n1) / K``.

The module also provides the *packed-plane* kernels used by the columnar
engines: planes stored as little-endian ``uint64`` word arrays of width
``⌈K/64⌉`` (`plane_words`), so whole ``(C, Q)`` blocks of signatures OR,
popcount and Lemma-2-prune as bulk bitwise numpy operations. Word ``w``,
bit ``b`` of a packed plane is bit ``64w + b`` of the equivalent Python
int.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import SignatureError
from repro.minhash.sketch import Sketch
from repro.utils.bitops import count_ones, low_mask

__all__ = [
    "BitSignature",
    "encode_planes",
    "encode_planes_many",
    "pack_bool_planes",
    "plane_words",
    "popcount_planes",
]

PLANE_WORD_BITS = 64


def plane_words(num_hashes: int) -> int:
    """``W = ⌈K/64⌉``, the packed width of one K-bit plane."""
    return (num_hashes + PLANE_WORD_BITS - 1) // PLANE_WORD_BITS


def pack_bool_planes(flags: np.ndarray) -> np.ndarray:
    """Pack ``(..., K)`` booleans into ``(..., W)`` little-endian uint64.

    Bit ``r`` of the flat K-bit plane is ``flags[..., r]``, matching the
    ``np.packbits(..., bitorder="little")`` / ``int.from_bytes`` layout
    used by the scalar :meth:`BitSignature` constructors. Zero leading
    rows (``(0, K)`` flags) pack to a ``(0, W)`` array.
    """
    packed = np.packbits(flags, axis=-1, bitorder="little")
    pad = (-packed.shape[-1]) % 8
    if pad:
        packed = np.concatenate(
            [packed, np.zeros(packed.shape[:-1] + (pad,), dtype=np.uint8)],
            axis=-1,
        )
    # Viewing the contiguous last axis as uint64 already yields
    # ``(..., W)``; no reshape, so an empty leading axis stays legal.
    return np.ascontiguousarray(packed).view("<u8")


if hasattr(np, "bitwise_count"):

    def popcount_planes(planes: np.ndarray) -> np.ndarray:
        """Per-plane popcount: sums ``(..., W)`` words to ``(...,)`` ints.

        On more than a thousand words the W word slices are added one
        by one: W is a handful, and a strided ``sum(axis=-1)`` over a
        short last axis costs several times the ``bitwise_count``
        itself. Below that the one reduction is cheaper than W calls.
        """
        counts = np.bitwise_count(planes)
        if counts.size <= 1024:
            return counts.sum(axis=-1, dtype=np.int64)
        total = counts[..., 0].astype(np.int64)
        for word in range(1, counts.shape[-1]):
            total += counts[..., word]
        return total

else:  # pragma: no cover - exercised only on numpy < 2.0
    _BYTE_POPCOUNT = np.array(
        [bin(i).count("1") for i in range(256)], dtype=np.uint8
    )

    def popcount_planes(planes: np.ndarray) -> np.ndarray:
        """Per-plane popcount via a byte lookup table (numpy < 2.0)."""
        as_bytes = planes.reshape(planes.shape[:-1] + (-1,)).view(np.uint8)
        return _BYTE_POPCOUNT[as_bytes].sum(axis=-1, dtype=np.int64)


def encode_planes(
    window_values: np.ndarray, query_matrix: np.ndarray
) -> tuple:
    """Packed window-vs-query planes for a stack of queries.

    Compares one window's ``(K,)`` min-hash values against a ``(Q, K)``
    query-value matrix and returns ``(ge, lt)`` planes of shape
    ``(Q, W)`` — the batched form of :meth:`BitSignature.encode`.
    """
    ge = pack_bool_planes(window_values[np.newaxis, :] <= query_matrix)
    lt = pack_bool_planes(window_values[np.newaxis, :] < query_matrix)
    return ge, lt


def encode_planes_many(
    window_matrix: np.ndarray, query_matrix: np.ndarray
) -> tuple:
    """Packed planes for a whole *batch* of windows at once.

    Compares ``(nw, K)`` window min-hash values against a ``(Q, K)``
    query-value matrix and returns ``(ge, lt)`` planes of shape
    ``(nw, Q, W)`` — row ``i`` equals ``encode_planes(window_matrix[i],
    query_matrix)`` bit for bit. This is the sketch-once front end's
    kernel: one broadcasted compare + pack covers every (window, query)
    pair of a chunk batch, so per-shard workers never re-encode.
    """
    ge = pack_bool_planes(window_matrix[:, np.newaxis, :] <= query_matrix)
    lt = pack_bool_planes(window_matrix[:, np.newaxis, :] < query_matrix)
    return ge, lt


def _pack_bits(flags: np.ndarray) -> int:
    """Pack a boolean vector into an int with bit ``r`` = ``flags[r]``."""
    packed = np.packbits(flags, bitorder="little")
    return int.from_bytes(packed.tobytes(), "little")


@dataclass(frozen=True)
class BitSignature:
    """A candidate-vs-query relationship signature.

    Attributes
    ----------
    ge:
        K-bit plane; bit ``r`` is 1 iff candidate min ``<=`` query min at
        hash ``r`` (i.e. the relation is *not* ``>``).
    lt:
        K-bit plane; bit ``r`` is 1 iff candidate min ``<`` query min.
    num_hashes:
        ``K``; the signature occupies ``2K`` bits as in the paper.
    """

    ge: int
    lt: int
    num_hashes: int

    def __post_init__(self) -> None:
        if self.num_hashes <= 0:
            raise SignatureError(f"num_hashes must be positive, got {self.num_hashes}")
        mask = low_mask(self.num_hashes)
        if self.ge < 0 or self.lt < 0 or self.ge > mask or self.lt > mask:
            raise SignatureError("signature planes exceed the K-bit width")
        if self.lt & ~self.ge:
            raise SignatureError(
                "invalid encoding: a '<' position must also be set in the "
                "ge plane (the pair 10 does not exist)"
            )

    @classmethod
    def _raw(cls, ge: int, lt: int, num_hashes: int) -> "BitSignature":
        """Unchecked constructor for internal hot paths.

        Skips ``__post_init__`` validation; callers guarantee the planes
        already satisfy the encoding invariant (OR of valid signatures is
        valid, packed masks are valid by construction).
        """
        signature = object.__new__(cls)
        object.__setattr__(signature, "ge", ge)
        object.__setattr__(signature, "lt", lt)
        object.__setattr__(signature, "num_hashes", num_hashes)
        return signature

    @classmethod
    def encode(cls, candidate: Sketch, query: Sketch) -> "BitSignature":
        """Encode the relationships between two sketches (Definition 3)."""
        if candidate.family != query.family:
            raise SignatureError(
                "cannot encode a signature across different hash families"
            )
        c = candidate.values
        q = query.values
        ge = _pack_bits(c <= q)
        lt = _pack_bits(c < q)
        return cls._raw(ge, lt, candidate.num_hashes)

    def combine(self, other: "BitSignature") -> "BitSignature":
        """Signature of the min-merged candidate: bitwise OR (Section V-A)."""
        if self.num_hashes != other.num_hashes:
            raise SignatureError(
                f"cannot combine signatures of widths {self.num_hashes} "
                f"and {other.num_hashes}"
            )
        return BitSignature._raw(
            self.ge | other.ge, self.lt | other.lt, self.num_hashes
        )

    @property
    def n0(self) -> int:
        """Number of ``>`` relations (zeros on even bit positions)."""
        return self.num_hashes - count_ones(self.ge)

    @property
    def n1(self) -> int:
        """Number of ``<`` relations (ones on odd bit positions)."""
        return count_ones(self.lt)

    @property
    def equal_count(self) -> int:
        """Number of ``=`` relations, ``K − n0 − n1``."""
        return self.num_hashes - self.n0 - self.n1

    @property
    def similarity(self) -> float:
        """Lemma 1: ``1 − (n0 + n1) / K``."""
        return 1.0 - (self.n0 + self.n1) / self.num_hashes

    def interleaved(self) -> int:
        """The literal 2K-bit vector of Definition 3 (for inspection).

        Bit ``2r`` is the even-position bit and bit ``2r+1`` the odd one,
        so the pair reads ``00``/``01``/``11`` for ``>``/``=``/``<``.
        """
        vector = 0
        for r in range(self.num_hashes):
            pair = ((self.ge >> r) & 1) | (((self.lt >> r) & 1) << 1)
            vector |= pair << (2 * r)
        return vector

    def relation(self, r: int) -> str:
        """The relation symbol at hash function ``r``: '>', '=' or '<'."""
        if not 0 <= r < self.num_hashes:
            raise SignatureError(f"hash index {r} outside [0, {self.num_hashes})")
        if (self.lt >> r) & 1:
            return "<"
        if (self.ge >> r) & 1:
            return "="
        return ">"
