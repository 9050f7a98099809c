"""Block mean-luminance extraction (the "DC coefficient" step).

Each key frame is spatially partitioned into ``rows x cols`` equal blocks
(the paper uses 3x3) and the average DC coefficient value of each block is
computed. Region boundaries are *fractional*: a 64-row frame and a 72-row
frame are both split into exact thirds, with boundary pixel rows weighted
proportionally. This keeps the fingerprint consistent across resolution
changes — the very attack the feature is supposed to survive.

Two paths produce the same ``(num_keyframes, D)`` matrix:

* :func:`block_means_from_encoded` — the faithful compressed-domain path:
  run the partial decoder over the toy-MPEG bitstream, recover each 8x8
  block's mean from its DC coefficient (``mean = DC / block_size + 128``),
  then average the 8x8-block means region-wise (fractionally weighted),
  all key frames of the chunk in one stacked pass.
* :func:`block_means_from_frames` — the pixel-domain reference path:
  average raw luminance over each region directly. Used by large workload
  builds; equals the compressed path up to quantisation error.
"""

from __future__ import annotations

import functools
from typing import Sequence, Tuple

import numpy as np

from repro.codec.gop import EncodedVideo, decode_dc_coefficients
from repro.errors import FeatureError

__all__ = [
    "block_means_from_dc_grids",
    "block_means_from_encoded",
    "block_means_from_frames",
    "region_mean_grid",
]


@functools.lru_cache(maxsize=64)
def _region_edges(length: int, parts: int) -> Tuple[np.ndarray, np.ndarray]:
    """Floor and fractional part of the ``parts + 1`` region boundaries of
    ``length`` samples (read-only: every caller shares them)."""
    edges = np.linspace(0.0, length, parts + 1)
    low = np.floor(edges).astype(np.intp)
    frac = edges - low
    low.setflags(write=False)
    frac.setflags(write=False)
    return low, frac


def _fractional_region_sums(stack: np.ndarray, parts: int, axis: int) -> np.ndarray:
    """Sum a stack over ``parts`` equal fractional regions along ``axis``.

    ``stack`` has shape (..., length, ...); the result replaces that axis
    with ``parts`` entries, each the (fractionally weighted) sum of its
    region ``[k * length/parts, (k+1) * length/parts)``.
    """
    length = stack.shape[axis]
    if parts <= 0:
        raise FeatureError(f"block grid side must be positive, got {parts}")
    if parts > length:
        raise FeatureError(f"cannot split {length} samples into {parts} blocks")
    moved = stack.swapaxes(axis, -1)  # the lanes to sum, last
    low, frac = _region_edges(length, parts)
    # Prefix sums with a leading zero (cumulative[..., j] = sum of the
    # first j) and the samples with a trailing zero, so both can be read
    # at every boundary, the last one (low == length) included.
    cumulative = np.zeros(moved.shape[:-1] + (length + 1,))
    np.cumsum(moved, axis=-1, out=cumulative[..., 1:])
    padded = np.zeros_like(cumulative)
    padded[..., :-1] = moved
    # Value of the prefix integral at a fractional position x:
    # cumulative[floor(x)] + frac * sample[floor(x)].
    at_edges = cumulative[..., low] + frac * padded[..., low]
    sums = at_edges[..., 1:] - at_edges[..., :-1]
    return sums.swapaxes(axis, -1)


def region_mean_grid(frame: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Average a 2-D array over a ``rows x cols`` grid of fractional
    regions."""
    if frame.ndim != 2:
        raise FeatureError(f"expected a 2-D frame, got ndim={frame.ndim}")
    return block_means_from_frames(frame[np.newaxis], rows, cols)[0].reshape(
        rows, cols
    )


def block_means_from_frames(
    frames: np.ndarray, rows: int = 3, cols: int = 3
) -> np.ndarray:
    """Per-frame D-block mean luminance from raw frames (vectorised).

    Parameters
    ----------
    frames:
        Array of shape ``(n, height, width)``.
    rows, cols:
        Fingerprint block grid (``D = rows * cols``).

    Returns
    -------
    numpy.ndarray
        Shape ``(n, rows * cols)``; blocks are flattened row-major. Each
        entry is the exact mean over its fractional region, so frames of
        different sizes with proportionally identical content produce
        identical block means (up to resampling error).
    """
    if frames.ndim != 3:
        raise FeatureError(f"expected (n, h, w) frames, got shape {frames.shape}")
    num_frames, height, width = frames.shape
    row_sums = _fractional_region_sums(
        np.asarray(frames, dtype=np.float64), rows, axis=1
    )
    region_sums = _fractional_region_sums(row_sums, cols, axis=2)
    area = (height / rows) * (width / cols)
    return (region_sums / area).reshape(num_frames, rows * cols)


def block_means_from_dc_grids(
    dc_grids: Sequence[np.ndarray],
    block_size: int,
    rows: int = 3,
    cols: int = 3,
) -> np.ndarray:
    """Per-key-frame D-block mean luminance from decoded DC grids.

    ``dc_grids`` is a sequence (or an ``(n, grid_rows, grid_cols)``
    array) of dequantised DC grids, one per key frame. They are stacked,
    converted to 8x8-block means (``DC / block_size + 128``) and averaged
    region-wise in one :func:`block_means_from_frames` call — the same
    arithmetic per frame as :func:`region_mean_grid`, so the result is
    byte-identical however the grids were grouped. Both the partial
    decoder and the damage-tolerant scan
    (:func:`repro.codec.resync.resilient_dc_scan`) feed this.
    """
    if not len(dc_grids):
        raise FeatureError("no DC grids to extract features from")
    block_means = np.asarray(dc_grids, dtype=np.float64) / block_size + 128.0
    return block_means_from_frames(block_means, rows, cols)


def block_means_from_encoded(
    encoded: EncodedVideo, rows: int = 3, cols: int = 3
) -> np.ndarray:
    """Per-key-frame D-block mean luminance via the partial decoder.

    Only I frames contribute (matching the paper's "DC coefficients of key
    (or I) frames"); the output has ``encoded.num_keyframes`` rows.
    """
    dc_grids = [dc_grid for _index, dc_grid in decode_dc_coefficients(encoded)]
    if not dc_grids:
        raise FeatureError("encoded stream contains no key frames")
    return block_means_from_dc_grids(dc_grids, encoded.block_size, rows, cols)
