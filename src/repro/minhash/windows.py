"""Basic windows: the unit of streaming sketch construction.

The stream of per-key-frame cell ids is chopped into fixed-length *basic
windows* of ``w`` key frames (Section IV-A). Each window carries its
distinct cell-id set and its K-min-hash sketch; candidate sequences are
combinations of consecutive basic windows.

The detector consumes windows a block at a time: a :class:`WindowBlock`
is a run of sketched windows as four arrays, built in one hashing pass
by :func:`build_window_block`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from repro.errors import SketchError
from repro.minhash.family import MinHashFamily
from repro.minhash.sketch import Sketch

__all__ = [
    "BasicWindow",
    "WindowBlock",
    "build_window_block",
    "iter_basic_windows",
]


@dataclass(frozen=True)
class BasicWindow:
    """One basic window of the stream.

    Attributes
    ----------
    index:
        Zero-based window position in the stream.
    start_frame:
        Key-frame index of the window's first frame.
    num_frames:
        Number of key frames in the window (the last window of a stream
        may be shorter than ``w``).
    cell_ids:
        The window's distinct frame-signature cell ids (sorted).
    sketch:
        K-min-hash sketch of :attr:`cell_ids`.
    """

    index: int
    start_frame: int
    num_frames: int
    cell_ids: np.ndarray = field(repr=False)
    sketch: Sketch = field(repr=False)

    @property
    def end_frame(self) -> int:
        """Key-frame index one past the window's last frame."""
        return self.start_frame + self.num_frames


def iter_basic_windows(
    cell_ids: Sequence[int] | np.ndarray,
    window_frames: int,
    family: MinHashFamily,
    drop_partial: bool = False,
) -> Iterator[BasicWindow]:
    """Chop a cell-id stream into sketched basic windows.

    Parameters
    ----------
    cell_ids:
        The per-key-frame signature stream.
    window_frames:
        ``w`` expressed in key frames.
    family:
        Hash family used for all sketches (queries must share it).
    drop_partial:
        When True, a trailing window shorter than ``w`` is discarded;
        otherwise it is emitted with its true (shorter) ``num_frames``.

    Yields
    ------
    BasicWindow
        In stream order, with consecutive ``index`` values from 0.
    """
    if window_frames <= 0:
        raise SketchError(f"window_frames must be positive, got {window_frames}")
    ids = np.asarray(cell_ids, dtype=np.int64)
    if ids.ndim != 1:
        raise SketchError(f"cell ids must be 1-D, got shape {ids.shape}")
    total = ids.shape[0]
    window_index = 0
    for start in range(0, total, window_frames):
        chunk = ids[start : start + window_frames]
        if chunk.shape[0] < window_frames and drop_partial:
            return
        distinct = np.unique(chunk)
        yield BasicWindow(
            index=window_index,
            start_frame=start,
            num_frames=int(chunk.shape[0]),
            cell_ids=distinct,
            sketch=family.sketch(distinct),
        )
        window_index += 1


@dataclass(frozen=True)
class WindowBlock:
    """A run of sketched basic windows as arrays: one engine pass.

    Row ``i`` is one :class:`BasicWindow` without its cell ids (nothing
    downstream of sketching reads them). Indices ascend; a gap in the
    stream may separate two rows.
    """

    indices: np.ndarray  #: ``(B,)`` int64 absolute window indices
    starts: np.ndarray  #: ``(B,)`` int64 absolute start frames
    frames: np.ndarray  #: ``(B,)`` int64 frame counts
    sketch_values: np.ndarray  #: ``(B, K)`` int64 min-hash values

    def __len__(self) -> int:
        return int(self.indices.shape[0])

    def __getitem__(self, rows: slice) -> "WindowBlock":
        """The sub-block of a run of rows (views, no copy)."""
        return WindowBlock(
            indices=self.indices[rows],
            starts=self.starts[rows],
            frames=self.frames[rows],
            sketch_values=self.sketch_values[rows],
        )

    @classmethod
    def single(
        cls,
        index: int,
        start_frame: int,
        num_frames: int,
        sketch_values: np.ndarray,
    ) -> "WindowBlock":
        """The one-row block of one window."""
        return cls(
            indices=np.asarray([index], dtype=np.int64),
            starts=np.asarray([start_frame], dtype=np.int64),
            frames=np.asarray([num_frames], dtype=np.int64),
            sketch_values=np.asarray(sketch_values, dtype=np.int64)[
                np.newaxis, :
            ],
        )


def build_window_block(
    cell_ids: Sequence[int] | np.ndarray,
    window_frames: int,
    family: MinHashFamily,
    first_index: int = 0,
    first_frame: int = 0,
) -> WindowBlock:
    """Chop a cell-id run into basic windows and sketch them all at once.

    Same windows as :func:`iter_basic_windows` (identical sketch values —
    min over the same hash matrix; a short tail is kept with its true
    length), but deduplicated with one sort over (window, id) — a row
    per window, a short tail padded with its last id — and hashed in one
    :meth:`~repro.minhash.family.MinHashFamily.sketch_many` pass. The
    block is placed at window ``first_index`` and frame ``first_frame``
    of the stream.
    """
    if window_frames <= 0:
        raise SketchError(f"window_frames must be positive, got {window_frames}")
    ids = np.asarray(cell_ids, dtype=np.int64)
    if ids.ndim != 1:
        raise SketchError(f"cell ids must be 1-D, got shape {ids.shape}")
    total = ids.shape[0]
    offsets = np.arange(0, total, window_frames, dtype=np.int64)
    pad = offsets.shape[0] * window_frames - total
    if pad:
        ids = np.concatenate((ids, np.repeat(ids[-1:], pad)))
    rows = np.sort(ids.reshape(-1, window_frames), axis=1)
    fresh = np.empty(rows.shape, dtype=bool)  # first of each value
    fresh[:, 0] = True
    np.not_equal(rows[:, 1:], rows[:, :-1], out=fresh[:, 1:])
    # Where each window's distinct ids start (its first is fresh).
    starts = np.add.accumulate(fresh.ravel())[::window_frames] - 1
    return WindowBlock(
        indices=first_index + np.arange(offsets.shape[0], dtype=np.int64),
        starts=first_frame + offsets,
        frames=np.minimum(window_frames, total - offsets),
        sketch_values=family.sketch_many(rows[fresh], starts).values,
    )
