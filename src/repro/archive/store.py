"""On-disk segment store for archived basic-window sketches.

The archive's durable tier: consecutive basic windows are sealed into
immutable ``repro.arch/1`` npz **segments**, one file per contiguous
index run. Every write goes through
:func:`repro.utils.atomic.atomic_savez` (fsync + tmp-rename), so a
crash can only ever leave behind a ``*.tmp`` sibling — never a torn
segment under its final name. Each segment embeds a CRC32 over its
window payload so bit rot is detected at read time, not silently
probed.

File naming carries the index range — ``seg-<first>-<count>.npz`` — so
a recovery scan can order segments without opening them. Validation
(:meth:`SegmentStore.recover`) still opens each file: format tag,
member shapes and the CRC are checked, leftover temporaries are swept,
and a corrupt *tail* segment (the only kind a crash can produce with
atomic writes: e.g. a file copied off a dying disk) is quarantined to
``*.corrupt`` rather than deleted. A corrupt segment strictly *before*
a valid one is not a crash artefact and raises
:class:`~repro.errors.ArchiveError`.

A segment is a file from outside the program: every read goes through
:func:`repro.persistence.open_archive`, so nothing in one is ever
unpickled, and a file holding an object array (segments sealed before
the format tag became a unicode array included) is simply unreadable.
"""

from __future__ import annotations

import pathlib
import time
import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.errors import ArchiveError
from repro.persistence import open_archive
from repro.utils.atomic import TMP_SUFFIX, atomic_savez

__all__ = ["ARCHIVE_FORMAT", "SegmentInfo", "SegmentStore"]

#: Format tag embedded in every segment file; loading rejects others.
ARCHIVE_FORMAT = "repro.arch/1"

#: Suffix quarantined (corrupt-tail) segments are renamed to.
CORRUPT_SUFFIX = ".corrupt"


def _open_segment(path: pathlib.Path):
    """A segment file, unpicklable; anything unreadable is ArchiveError."""
    return open_archive(path, "archive segment", ArchiveError)


def _segment_name(first_index: int, num_windows: int) -> str:
    return f"seg-{int(first_index):010d}-{int(num_windows):06d}.npz"


def _payload_crc(
    starts: np.ndarray, frames: np.ndarray, sketch_values: np.ndarray
) -> int:
    """CRC32 over the payload widened to int64, whatever its stored
    dtype: a narrow segment and an int64 one of the same windows
    share it."""
    crc = 0
    for array in (starts, frames, sketch_values):
        crc = zlib.crc32(np.ascontiguousarray(array, dtype=np.int64), crc)
    return crc & 0xFFFFFFFF


@dataclass(frozen=True)
class SegmentInfo:
    """Catalogue entry for one sealed segment.

    ``sealed_at`` is the wall-clock seal time recorded *inside* the
    file (age-based retention must survive copies that reset mtimes).
    """

    path: pathlib.Path
    first_index: int
    num_windows: int
    nbytes: int
    sealed_at: float

    @property
    def end_index(self) -> int:
        """One past the last window index in the segment."""
        return self.first_index + self.num_windows


class SegmentStore:
    """Seals, validates, loads, prunes and compacts archive segments.

    Parameters
    ----------
    directory:
        Segment directory, created if missing. One store owns it
        exclusively; foreign files are ignored by the name pattern.
    """

    def __init__(self, directory: Union[str, pathlib.Path]) -> None:
        self.directory = pathlib.Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._segments: List[SegmentInfo] = []

    # -- catalogue -----------------------------------------------------

    @property
    def segments(self) -> List[SegmentInfo]:
        """Validated segments, ascending by first window index."""
        return list(self._segments)

    def bytes_on_disk(self) -> int:
        return sum(info.nbytes for info in self._segments)

    def windows_on_disk(self) -> int:
        return sum(info.num_windows for info in self._segments)

    # -- seal ----------------------------------------------------------

    def seal(
        self,
        first_index: int,
        starts: np.ndarray,
        frames: np.ndarray,
        sketch_values: np.ndarray,
        family_fingerprint: Tuple[int, int, int],
        sealed_at: Optional[float] = None,
    ) -> SegmentInfo:
        """Atomically write one contiguous run as a segment file.

        The file is a stored (not deflated) npz: sketch values are
        near-random, so deflate saved little and cost most of the seal.
        They are stored in the narrowest unsigned type that holds the
        family's prime (the empty-set sentinel), ``uint32`` for the
        default ``2³¹ − 1``; a value outside ``[0, prime]`` is refused.
        """
        starts = np.asarray(starts, dtype=np.int64)
        frames = np.asarray(frames, dtype=np.int64)
        sketch_values = np.asarray(sketch_values, dtype=np.int64)
        num = int(starts.shape[0])
        if num == 0:
            raise ArchiveError("refusing to seal an empty segment")
        if frames.shape != (num,) or sketch_values.shape[0] != num:
            raise ArchiveError(
                f"segment arrays disagree on window count: starts {num}, "
                f"frames {frames.shape}, sketches {sketch_values.shape}"
            )
        prime = int(family_fingerprint[2])
        if sketch_values.size and (
            sketch_values.min() < 0 or sketch_values.max() > prime
        ):
            raise ArchiveError(
                f"sketch values outside [0, {prime}] do not belong to "
                "the archive's family"
            )
        for info in self._segments:
            if (
                info.first_index < first_index + num
                and first_index < info.end_index
            ):
                raise ArchiveError(
                    f"segment at [{first_index}, {first_index + num}) "
                    f"overlaps sealed segment {info.path.name}"
                )
        when = time.time() if sealed_at is None else float(sealed_at)
        payload: Dict[str, np.ndarray] = {
            "format": np.asarray([ARCHIVE_FORMAT]),
            "first_index": np.asarray([first_index], dtype=np.int64),
            "starts": starts,
            "frames": frames,
            "sketch_values": sketch_values.astype(np.min_scalar_type(prime)),
            "family": np.asarray(family_fingerprint, dtype=np.int64),
            "sealed_at": np.asarray([when], dtype=np.float64),
            "crc": np.asarray(
                [_payload_crc(starts, frames, sketch_values)],
                dtype=np.int64,
            ),
        }
        path = self.directory / _segment_name(first_index, num)
        atomic_savez(path, payload, compressed=False)
        info = SegmentInfo(
            path=path,
            first_index=int(first_index),
            num_windows=num,
            nbytes=path.stat().st_size,
            sealed_at=when,
        )
        self._segments.append(info)
        self._segments.sort(key=lambda seg: seg.first_index)
        return info

    # -- recovery ------------------------------------------------------

    def recover(self) -> List[SegmentInfo]:
        """Scan the directory: sweep temporaries, validate every
        segment, quarantine a torn tail; returns the valid catalogue."""
        candidates: List[Tuple[int, int, pathlib.Path]] = []
        for entry in sorted(self.directory.iterdir()):
            if entry.name.endswith(TMP_SUFFIX):
                entry.unlink(missing_ok=True)
                continue
            parsed = self._parse_name(entry.name)
            if parsed is not None:
                candidates.append((parsed[0], parsed[1], entry))
        candidates.sort()
        segments: List[SegmentInfo] = []
        bad: List[pathlib.Path] = []
        for first_index, num_windows, path in candidates:
            info = self._validate(path, first_index, num_windows)
            if info is None:
                bad.append(path)
                continue
            if bad:
                raise ArchiveError(
                    f"segment {bad[-1].name} is corrupt but later "
                    f"segment {path.name} is valid — not a torn tail; "
                    "refusing to silently drop archived windows"
                )
            if segments and info.first_index < segments[-1].end_index:
                raise ArchiveError(
                    f"segments {segments[-1].path.name} and {path.name} "
                    "overlap"
                )
            segments.append(info)
        for path in bad:
            path.rename(path.with_name(path.name + CORRUPT_SUFFIX))
        self._segments = segments
        return list(segments)

    @staticmethod
    def _parse_name(name: str) -> Optional[Tuple[int, int]]:
        if not (name.startswith("seg-") and name.endswith(".npz")):
            return None
        parts = name[4:-4].split("-")
        if len(parts) != 2:
            return None
        try:
            return int(parts[0]), int(parts[1])
        except ValueError:
            return None

    def _validate(
        self, path: pathlib.Path, first_index: int, num_windows: int
    ) -> Optional[SegmentInfo]:
        try:
            with _open_segment(path) as archive:
                if str(archive["format"][0]) != ARCHIVE_FORMAT:
                    return None
                if int(archive["first_index"][0]) != first_index:
                    return None
                starts = archive["starts"]
                frames = archive["frames"]
                values = archive["sketch_values"]
                if (
                    starts.shape != (num_windows,)
                    or frames.shape != (num_windows,)
                    or values.shape[0] != num_windows
                ):
                    return None
                if int(archive["crc"][0]) != _payload_crc(
                    starts, frames, values
                ):
                    return None
                sealed_at = float(archive["sealed_at"][0])
        except ArchiveError:
            return None
        return SegmentInfo(
            path=path,
            first_index=first_index,
            num_windows=num_windows,
            nbytes=path.stat().st_size,
            sealed_at=sealed_at,
        )

    # -- read ----------------------------------------------------------

    def load(
        self, info: SegmentInfo
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(starts, frames, sketch_values)`` with CRC verification."""
        with _open_segment(info.path) as archive:
            fmt = str(archive["format"][0])
            if fmt != ARCHIVE_FORMAT:
                raise ArchiveError(
                    f"segment {info.path} has a foreign format tag {fmt!r}"
                )
            starts = np.asarray(archive["starts"], dtype=np.int64)
            frames = np.asarray(archive["frames"], dtype=np.int64)
            values = np.asarray(archive["sketch_values"], dtype=np.int64)
            crc = int(archive["crc"][0])
        if crc != _payload_crc(starts, frames, values):
            raise ArchiveError(
                f"segment {info.path} failed its CRC check"
            )
        return starts, frames, values

    def family_fingerprint(
        self, info: SegmentInfo
    ) -> Tuple[int, int, int]:
        with _open_segment(info.path) as archive:
            family = np.asarray(archive["family"], dtype=np.int64)
        return int(family[0]), int(family[1]), int(family[2])

    # -- prune / compact ----------------------------------------------

    def remove(self, info: SegmentInfo) -> None:
        info.path.unlink(missing_ok=True)
        self._segments = [
            seg for seg in self._segments if seg.path != info.path
        ]

    def compact(
        self,
        segment_windows: int,
        family_fingerprint: Tuple[int, int, int],
    ) -> int:
        """Merge adjacent undersized contiguous segments.

        Retention-by-gap sealing can strand runt segments (a lossy
        stream seals at every hole). Greedily coalesce consecutive
        segments that are index-contiguous and whose combined size
        stays within ``segment_windows``; returns merges performed.
        """
        merged = 0
        index = 0
        while index < len(self._segments) - 1:
            group = [self._segments[index]]
            total = group[0].num_windows
            scan = index + 1
            while scan < len(self._segments):
                nxt = self._segments[scan]
                if nxt.first_index != group[-1].end_index:
                    break
                if total + nxt.num_windows > segment_windows:
                    break
                group.append(nxt)
                total += nxt.num_windows
                scan += 1
            if len(group) < 2:
                index += 1
                continue
            parts = [self.load(info) for info in group]
            starts = np.concatenate([part[0] for part in parts])
            frames = np.concatenate([part[1] for part in parts])
            values = np.concatenate([part[2] for part in parts])
            sealed_at = max(info.sealed_at for info in group)
            for info in group:
                self.remove(info)
            self.seal(
                group[0].first_index,
                starts,
                frames,
                values,
                family_fingerprint,
                sealed_at=sealed_at,
            )
            merged += 1
        return merged
