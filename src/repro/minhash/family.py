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

All coefficients derive from a seed, and sketches remember the family
fingerprint, so combining sketches from different families is an error
instead of silent garbage.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Tuple

import numpy as np

from repro.errors import SketchError
from repro.minhash.sketch import Sketch, SketchBlock
from repro.utils.rng import make_rng

__all__ = ["MinHashFamily", "MERSENNE_PRIME_31"]

MERSENNE_PRIME_31 = (1 << 31) - 1

#: Moduli must stay below this: the hashes ``a·m(x) + b`` (``a, b < p``,
#: ``m(x) < 2**31``) then fit int64, and the values fit the HQ index's
#: 32 key bits.
_PRIME_LIMIT = 1 << 32


_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX_1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_2 = np.uint64(0x94D049BB133111EB)
_SHIFTS = (np.uint64(30), np.uint64(27), np.uint64(31))
_LOW_31 = np.uint64(0x7FFFFFFE)


def _mix_bits(values: np.ndarray) -> np.ndarray:
    """Splitmix64 finalizer: a fixed, seedless avalanche permutation.

    Decorrelates structured element sets before the per-function linear
    hashes. Input int64 >= 0; output int64 in [0, 2^31). The uint64
    array arithmetic wraps modulo 2^64, which is the finalizer's.
    """
    z = values.astype(np.uint64)
    z += _GOLDEN
    z ^= z >> _SHIFTS[0]
    z *= _MIX_1
    z ^= z >> _SHIFTS[1]
    z *= _MIX_2
    z ^= z >> _SHIFTS[2]
    z &= _LOW_31
    return z.view(np.int64)


@dataclass(frozen=True)
class MinHashFamily:
    """``K`` seeded universal hash functions over a bounded integer domain.

    Parameters
    ----------
    num_hashes:
        ``K``, the sketch width.
    seed:
        Seed from which all multipliers/offsets derive.
    prime:
        Field modulus; must exceed every element ever hashed, and stay
        below ``2**32`` so the int64 hashing cannot overflow.
    """

    num_hashes: int
    seed: int = 0
    prime: int = MERSENNE_PRIME_31
    _a: np.ndarray = field(init=False, repr=False, compare=False)
    _b: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.num_hashes <= 0:
            raise SketchError(f"num_hashes must be positive, got {self.num_hashes}")
        if self.prime <= 2:
            raise SketchError(f"prime must exceed 2, got {self.prime}")
        if self.prime >= _PRIME_LIMIT:
            # Past it a·m(x) + b would wrap int64 silently.
            raise SketchError(
                f"prime must be below 2**32 so hashing stays in int64, "
                f"got {self.prime}"
            )
        rng = make_rng(self.seed, "minhash-family")
        a = rng.integers(1, self.prime, size=self.num_hashes, dtype=np.int64)
        b = rng.integers(0, self.prime, size=self.num_hashes, dtype=np.int64)
        object.__setattr__(self, "_a", a)
        object.__setattr__(self, "_b", b)

    @property
    def fingerprint(self) -> Tuple[int, int, int]:
        """Identity of the family: (K, seed, prime).

        Sketches carry this so cross-family operations fail loudly.
        """
        return (self.num_hashes, self.seed, self.prime)

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
        ids = self._checked_int64(elements)
        mixed = _mix_bits(ids)
        return (
            self._a[:, np.newaxis] * mixed[np.newaxis, :] + self._b[:, np.newaxis]
        ) % self.prime

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

        Duplicate elements are harmless (min is idempotent). Sketching an
        empty collection yields the :meth:`empty_sketch`, the identity of
        sketch combination.
        """
        if isinstance(elements, np.ndarray):
            ids = self._checked_int64(elements)
        else:
            ids = self._checked_int64(
                np.fromiter((int(e) for e in elements), dtype=np.int64)
            )
        if ids.size == 0:
            return self.empty_sketch()
        mixed = _mix_bits(np.unique(ids))
        values = (
            (self._a[:, np.newaxis] * mixed[np.newaxis, :] + self._b[:, np.newaxis])
            % self.prime
        ).min(axis=1)
        return Sketch(values=values, family=self.fingerprint)

    def sketch_many(self, elements: np.ndarray, starts: np.ndarray) -> SketchBlock:
        """K-min-hash sketches of many element sets in one hashing pass.

        ``elements`` holds the non-empty sets back to back, set ``i``
        from ``starts[i]``. They are range-checked once and hashed as one
        ``(N, K)`` matrix, then reduced to per-set minima with one
        segmented reduction — the batched form `StreamingDetector` uses
        to sketch every basic window of a chunk at once. Returns the
        ``(B, K)`` :class:`~repro.minhash.sketch.SketchBlock`; row ``i``
        is :meth:`sketch` of set ``i``. Elements are assumed distinct
        within each set; duplicates cost work, not accuracy.
        """
        mixed = _mix_bits(self._checked_int64(elements))
        # (N, K): a set's hashes are a run of rows, its minima one row.
        hashed = mixed[:, np.newaxis] * self._a
        hashed += self._b
        hashed %= self.prime
        return SketchBlock(
            np.minimum.reduceat(hashed, starts, axis=0), self.fingerprint
        )

    def empty_sketch(self) -> Sketch:
        """The identity sketch: every coordinate at the +inf sentinel.

        The sentinel is ``prime`` itself, which no real hash value can
        reach, so combining with the empty sketch is a no-op.
        """
        values = np.full(self.num_hashes, self.prime, dtype=np.int64)
        return Sketch(values=values, family=self.fingerprint)
