"""JPEG-style coefficient quantisation with a quality factor.

Quantisation is the lossy step of the codec and the mechanism through which
*re-compression attacks* perturb the DC coefficients the detector consumes:
encoding a clip at a different quality changes the quantisation matrix and
therefore the reconstructed block averages, just as the paper's VS2 stream
re-compresses its clips with different settings.

The luminance base matrix is the ITU-T T.81 Annex K table; the quality
scaling follows the convention popularised by libjpeg.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.errors import CodecError

__all__ = ["dequantize_block", "quantization_matrix", "quantize_block"]

#: ITU-T T.81 Annex K luminance quantisation table (quality 50 baseline).
_BASE_LUMINANCE = np.array(
    [
        [16, 11, 10, 16, 24, 40, 51, 61],
        [12, 12, 14, 19, 26, 58, 60, 55],
        [14, 13, 16, 24, 40, 57, 69, 56],
        [14, 17, 22, 29, 51, 87, 80, 62],
        [18, 22, 37, 56, 68, 109, 103, 77],
        [24, 35, 55, 64, 81, 104, 113, 92],
        [49, 64, 78, 87, 103, 121, 120, 101],
        [72, 92, 95, 98, 112, 100, 103, 99],
    ],
    dtype=np.float64,
)


@functools.lru_cache(maxsize=64)
def quantization_matrix(quality: int, block_size: int = 8) -> np.ndarray:
    """Return the quantisation matrix for the given JPEG-style quality.

    The matrix is computed once per ``(quality, block_size)`` and shared,
    read-only: every chunk's header asks for it.

    Parameters
    ----------
    quality:
        Integer in [1, 100]. 50 reproduces the Annex K table; higher keeps
        more detail, lower discards more.
    block_size:
        Side of the (square) block. For sizes other than 8 the Annex K
        table is resampled by nearest neighbour, which preserves its
        low-frequency-lenient structure.
    """
    if not 1 <= quality <= 100:
        raise CodecError(f"quality must be in [1, 100], got {quality}")
    if block_size <= 0:
        raise CodecError(f"block_size must be positive, got {block_size}")
    if quality < 50:
        scale = 5000.0 / quality
    else:
        scale = 200.0 - 2.0 * quality
    table = np.floor((_BASE_LUMINANCE * scale + 50.0) / 100.0)
    table = np.clip(table, 1.0, 255.0)
    if block_size != 8:
        idx = np.minimum((np.arange(block_size) * 8) // block_size, 7)
        table = table[np.ix_(idx, idx)]
    table.setflags(write=False)
    return table


def quantize_block(coefficients: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """Quantise DCT coefficients to integers: ``round(F / Q)``."""
    if coefficients.shape != matrix.shape:
        raise CodecError(
            f"coefficient shape {coefficients.shape} does not match "
            f"quantisation matrix shape {matrix.shape}"
        )
    return np.round(coefficients / matrix).astype(np.int32)


def dequantize_block(levels: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """Reconstruct coefficients from quantised levels: ``L * Q``."""
    if levels.shape != matrix.shape:
        raise CodecError(
            f"level shape {levels.shape} does not match "
            f"quantisation matrix shape {matrix.shape}"
        )
    return levels.astype(np.float64) * matrix
