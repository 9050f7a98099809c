"""The K-function universal hash family behind the min-hash sketches.

Each of the ``K`` functions is ``h_i(x) = (a_i m(x) + b_i) mod p`` with
``p = 2^31 - 1`` (a Mersenne prime comfortably larger than any cell-id
universe this library produces: the largest configuration, d=7, u=7, has
``2 * 7 * 7^7 ≈ 1.15e7`` cells) and ``m`` a fixed splitmix64-style bit
mixer. Universal (pairwise-independent) families are the standard
practical stand-in for the approximate min-wise families of Indyk /
Cohen et al. cited by the paper, but a *purely linear* hash is visibly
biased on arithmetically structured element sets (consecutive cell ids
map to arithmetic progressions, which linear maps keep structured); the
mixer destroys that structure, bringing the estimator bias far below
sampling noise at the K values studied.

The prime is fixed, so the reduction needs no division. With
``a, b < p`` and ``m(x) < 2^31`` (the mixer masks with ``0x7FFFFFFE``),
``h = a m(x) + b < 2^62`` fits uint64. Since ``2^31 ≡ 1 (mod p)``,
``r = (h & p) + (h >> 31)`` is congruent to ``h`` and at most
``p + (2^31 - 1) = 2p - 1``; one conditional subtraction,
``min(r, r - p)`` in wrapping uint64 arithmetic (``r - p`` wraps past
``2^63`` exactly when ``r < p``), leaves ``h mod p``.

All coefficients derive from a seed, and sketches remember the family
fingerprint, so combining sketches from different families is an error
instead of silent garbage.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, Iterable, Tuple

import numpy as np

from repro.errors import SketchError
from repro.minhash.sketch import Sketch, SketchBlock
from repro.utils.rng import make_rng

__all__ = ["MinHashFamily", "MERSENNE_PRIME_31"]

MERSENNE_PRIME_31 = (1 << 31) - 1


def _u64(value: int) -> np.ndarray:
    """A uint64 constant as a 0-d array.

    Ufuncs take it without the per-call conversion a numpy scalar costs
    (≈ 0.15 µs, ten times in a mixer call), and beside a uint64 array
    it stays uint64 under numpy 1.x's promotion rules too.
    """
    return np.array(value, dtype=np.uint64)


_PRIME = _u64(MERSENNE_PRIME_31)
_SHIFT_31 = _u64(31)

#: Rows hashed per block: a block and its scratch (``64 × K`` uint64
#: each, 128 KiB apiece at K = 256) stay in cache through the kernel's
#: seven passes, where a whole large batch would stream every pass
#: through memory.
_BLOCK_ROWS = 64

_GOLDEN = _u64(0x9E3779B97F4A7C15)
_MIX_1 = _u64(0xBF58476D1CE4E5B9)
_MIX_2 = _u64(0x94D049BB133111EB)
_SHIFTS = (_u64(30), _u64(27), _u64(31))
_LOW_31 = _u64(0x7FFFFFFE)


def _mix_bits(values: np.ndarray) -> np.ndarray:
    """Splitmix64 finalizer: a fixed, seedless avalanche permutation.

    Decorrelates structured element sets before the per-function linear
    hashes. Input int64 >= 0; output uint64 in [0, 2^31). The uint64
    array arithmetic wraps modulo 2^64, which is the finalizer's.
    """
    z = values.view(np.uint64) + _GOLDEN
    z ^= z >> _SHIFTS[0]
    z *= _MIX_1
    z ^= z >> _SHIFTS[1]
    z *= _MIX_2
    z ^= z >> _SHIFTS[2]
    z &= _LOW_31
    return z


def _reduce_mod_prime(h: np.ndarray, scratch: np.ndarray) -> None:
    """``h mod (2**31 - 1)`` in place, for uint64 ``h < 2**62``.

    Shift-and-add, then one conditional subtraction (module docstring);
    ``scratch`` is a uint64 array of ``h``'s shape, overwritten.
    """
    np.right_shift(h, _SHIFT_31, out=scratch)
    h &= _PRIME
    h += scratch  # r ≡ h (mod p), r <= 2p - 1
    np.subtract(h, _PRIME, out=scratch)  # wraps past 2**63 when r < p
    np.minimum(h, scratch, out=h)


@dataclass(frozen=True)
class MinHashFamily:
    """``K`` seeded universal hash functions modulo ``2**31 - 1``.

    Parameters
    ----------
    num_hashes:
        ``K``, the sketch width.
    seed:
        Seed from which all multipliers/offsets derive.
    """

    num_hashes: int
    seed: int = 0
    _a: np.ndarray = field(init=False, repr=False, compare=False)
    _b: np.ndarray = field(init=False, repr=False, compare=False)
    #: The field modulus, the same for every family: it exceeds every
    #: element hashed and keys below the HQ index's 32 value bits.
    prime: ClassVar[int] = MERSENNE_PRIME_31

    def __post_init__(self) -> None:
        if self.num_hashes <= 0:
            raise SketchError(f"num_hashes must be positive, got {self.num_hashes}")
        rng = make_rng(self.seed, "minhash-family")
        a = rng.integers(1, self.prime, size=self.num_hashes, dtype=np.int64)
        b = rng.integers(0, self.prime, size=self.num_hashes, dtype=np.int64)
        object.__setattr__(self, "_a", a.astype(np.uint64))
        object.__setattr__(self, "_b", b.astype(np.uint64))

    @property
    def fingerprint(self) -> Tuple[int, int, int]:
        """Identity of the family: (K, seed, prime).

        Sketches carry this so cross-family operations fail loudly.
        """
        return (self.num_hashes, self.seed, self.prime)

    def _hash_rows(self, ids: np.ndarray) -> np.ndarray:
        """Every function's hash of every element, ``(n, K)`` uint64.

        The one hash kernel: row ``j`` is ``(a m(x_j) + b) mod p``,
        reduced by :func:`_reduce_mod_prime`, evaluated in blocks of
        :data:`_BLOCK_ROWS` rows with one scratch block.
        """
        mixed = _mix_bits(ids)[:, np.newaxis]
        hashed = np.empty((mixed.shape[0], self.num_hashes), dtype=np.uint64)
        spare = np.empty(hashed[:_BLOCK_ROWS].shape, dtype=np.uint64)
        for lo in range(0, mixed.shape[0], _BLOCK_ROWS):
            block = hashed[lo : lo + _BLOCK_ROWS]
            scratch = spare[: block.shape[0]]
            np.multiply(mixed[lo : lo + _BLOCK_ROWS], self._a, out=block)
            block += self._b
            _reduce_mod_prime(block, scratch)
        return hashed

    def hash_values(self, elements: np.ndarray) -> np.ndarray:
        """Hash each element under each function.

        Parameters
        ----------
        elements:
            1-D integer array with values in ``[0, prime)``.

        Returns
        -------
        numpy.ndarray
            Shape ``(K, len(elements))`` of int64 hash values in
            ``[0, prime)``.
        """
        return self._hash_rows(self._checked_int64(elements)).T.view(np.int64)

    def _checked_int64(self, elements: np.ndarray) -> np.ndarray:
        """Validate an element array, copying only when conversion demands.

        The range check is one unsigned maximum: a negative int64
        reinterprets as a huge uint64, so ``[0, prime)`` membership is
        exactly ``max(uint64(x)) < prime`` (min/max are only computed on
        the cold error path).
        """
        ids = np.asarray(elements, dtype=np.int64)
        if ids.ndim != 1:
            raise SketchError(f"elements must be 1-D, got shape {ids.shape}")
        if ids.size and np.maximum.reduce(ids.view(np.uint64)) >= self.prime:
            raise SketchError(
                f"elements must lie in [0, {self.prime}); "
                f"got range [{ids.min()}, {ids.max()}]"
            )
        return ids

    def sketch(self, elements: Iterable[int]) -> Sketch:
        """K-min-hash sketch of a set of elements.

        Duplicate elements are harmless (min is idempotent) but each is
        hashed: callers holding repeated ids pass them deduplicated, as
        :meth:`~repro.core.query.QuerySet.from_cell_ids` does. Sketching
        an empty collection yields the :meth:`empty_sketch`, the
        identity of sketch combination.
        """
        if isinstance(elements, np.ndarray):
            ids = self._checked_int64(elements)
        else:
            ids = self._checked_int64(
                np.fromiter((int(e) for e in elements), dtype=np.int64)
            )
        if ids.size == 0:
            return self.empty_sketch()
        values = self._hash_rows(ids).min(axis=0).view(np.int64)
        return Sketch(values=values, family=self.fingerprint)

    def sketch_many(self, elements: np.ndarray, starts: np.ndarray) -> SketchBlock:
        """K-min-hash sketches of many element sets in one hashing pass.

        ``elements`` holds the non-empty sets back to back, set ``i``
        from ``starts[i]``. They are range-checked once and hashed as one
        ``(N, K)`` matrix, then reduced to per-set minima with one
        segmented reduction — the batched form `StreamingDetector` uses
        to sketch every basic window of a chunk at once. (``reduceat``
        pays a K-long loop per set, a few µs; a lone set, a one-window
        call's, takes the plain column minimum instead.) Returns the
        ``(B, K)`` :class:`~repro.minhash.sketch.SketchBlock`; row ``i``
        is :meth:`sketch` of set ``i``. Elements are assumed distinct
        within each set; duplicates cost work, not accuracy.
        """
        hashed = self._hash_rows(self._checked_int64(elements))
        if starts.shape[0] == 1:
            minima = hashed.min(axis=0, keepdims=True)
        else:
            minima = np.minimum.reduceat(hashed, starts, axis=0)
        return SketchBlock(minima.view(np.int64), self.fingerprint)

    def empty_sketch(self) -> Sketch:
        """The identity sketch: every coordinate at the +inf sentinel.

        The sentinel is ``prime`` itself, which no real hash value can
        reach, so combining with the empty sketch is a no-op.
        """
        values = np.full(self.num_hashes, self.prime, dtype=np.int64)
        return Sketch(values=values, family=self.fingerprint)
