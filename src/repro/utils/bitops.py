"""Bit-vector helpers for signature arithmetic.

Bit-vector signatures (Section V-A of the paper) are stored as arbitrary
precision Python integers: bit ``r`` of the integer is bit position ``r`` of
the signature plane. Python integers give free word-parallel OR/AND and a
constant-factor-fast population count through :meth:`int.bit_count` (or a
fallback on interpreters that lack it).
"""

from __future__ import annotations

__all__ = [
    "bit_length_words",
    "count_ones",
    "count_zeros_in_low_bits",
    "low_mask",
    "popcount",
]

_HAS_BIT_COUNT = hasattr(int, "bit_count")

#: The population count of a non-negative int, unchecked, for loops over
#: many small ints: :meth:`int.bit_count` itself where the interpreter
#: has it (Python 3.10+), so a call costs no wrapper.
popcount = (
    int.bit_count if _HAS_BIT_COUNT else lambda value: bin(value).count("1")
)


def count_ones(value: int) -> int:
    """Return the population count (number of 1 bits) of ``value``.

    ``value`` must be non-negative; signatures are always non-negative.
    """
    if value < 0:
        raise ValueError("population count is defined for non-negative ints")
    if _HAS_BIT_COUNT:
        return value.bit_count()
    return bin(value).count("1")


def low_mask(width: int) -> int:
    """Return an integer with the ``width`` lowest bits set."""
    if width < 0:
        raise ValueError(f"mask width must be non-negative, got {width}")
    return (1 << width) - 1


def count_zeros_in_low_bits(value: int, width: int) -> int:
    """Count zero bits among the ``width`` least-significant bits.

    Used by Lemma 1: ``n0`` is the number of zero bits in the ``ge`` plane
    of a signature of width ``K``.
    """
    if width < 0:
        raise ValueError(f"width must be non-negative, got {width}")
    return width - count_ones(value & low_mask(width))


def bit_length_words(width_bits: int, word_bits: int = 64) -> int:
    """Number of ``word_bits``-wide machine words needed for ``width_bits``.

    Purely informational — used by the memory-accounting monitor to convert
    signature bit widths into byte estimates the way the paper's Section VI
    reports memory (2K bits per signature).
    """
    if width_bits < 0 or word_bits <= 0:
        raise ValueError("widths must be positive")
    return (width_bits + word_bits - 1) // word_bits
