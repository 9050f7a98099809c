"""Checkpointing a sharded detection service to disk.

A service snapshot must let a *new process* — with no memory of the old
one — rebuild the exact same service and continue the stream where it
stopped, losing zero matches. One ``.npz`` file therefore carries
everything: a format tag, the detector configuration (checked on
restore, like :mod:`repro.persistence` does for query-set files), the
stream position (chunks ingested), the front end's undigested buffer
and stream clock, each worker's query subset and flattened detector
state (from :mod:`repro.serve.state`), the sketch archive's unsealed
tail and in-flight backfill jobs, and the matches the collector has
already merged — so the resumed service's cumulative match stream
equals an uninterrupted run's.

There is one format. :data:`CHECKPOINT_FORMAT` is the tag this build
writes and the only tag it reads; anything else — an older snapshot, a
newer one, a file holding pickled (object) arrays — is refused with a
:class:`~repro.persistence.PersistenceError` naming the tag found and
the tag supported. Files are opened with ``allow_pickle=False``, so
loading a snapshot can never execute code.

Writes are atomic and durable: the payload goes through
:func:`repro.utils.atomic.atomic_savez` (fsync + tmp-rename), so a
crash mid-write leaves the previous checkpoint intact rather than a
truncated archive.

File naming: :class:`CheckpointManager` owns a directory and names each
snapshot ``ckpt-<chunks_ingested>.npz``; :meth:`CheckpointManager.latest`
returns the newest by stream position. A bare path also works for
one-shot save/load. With ``keep_last=N`` the manager prunes older
snapshots after each save, but never the newest *loadable* one — if
every keeper candidate is corrupt, older snapshots survive.
"""

from __future__ import annotations

import pathlib
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.config import DetectorConfig
from repro.core.query import QuerySet
from repro.core.results import Match
from repro.errors import ServeError
from repro.persistence import (
    PersistenceError,
    detector_config_from_mapping,
    detector_config_payload,
    open_archive,
    query_set_from_mapping,
    query_set_payload,
    require_config_match,
)
from repro.utils.atomic import atomic_savez

__all__ = [
    "CHECKPOINT_FORMAT",
    "CheckpointManager",
    "ServiceCheckpoint",
]

#: Format tag embedded in every checkpoint archive — written, and the
#: only one read. Bump the suffix whenever the layout changes.
CHECKPOINT_FORMAT = "repro.ckpt/5"

_CKPT_NAME = re.compile(r"^ckpt-(\d+)\.npz$")


@dataclass
class ServiceCheckpoint:
    """Everything needed to rebuild a service mid-stream.

    Attributes
    ----------
    config:
        The detector configuration every worker runs.
    keyframes_per_second:
        Stream cadence the workers were constructed with.
    chunks_ingested:
        How many chunks the service had fully processed; the resuming
        caller re-feeds the stream from this offset.
    cap_hint:
        The global candidate-expiry floor in force at snapshot time.
    strategy:
        The shard-planning strategy (recorded for bookkeeping; the
        restored service reuses the recorded per-worker query subsets
        directly rather than re-planning).
    worker_queries:
        Per-worker query subsets, in worker order.
    worker_states:
        Per-worker flattened detector state
        (:func:`repro.serve.state.worker_state` dicts), in worker
        order. Each dict carries that shard's lifecycle ``epoch``.
    matches:
        The merged match stream collected before the snapshot.
    frontend_pending:
        The :class:`~repro.serve.frontend.StreamFrontend`'s buffered
        cell ids (frames not yet forming a whole basic window).
    frontend_flushed:
        Whether the front end had flushed the stream.
    frontend_windows / frontend_frames:
        The front end's absolute stream clock (whole windows / frames
        emitted).
    epoch:
        The service-level lifecycle epoch: how many subscribe /
        unsubscribe barriers the service had committed. A resumed
        service continues numbering from here, so a scripted churn
        schedule can skip the ops the checkpoint already contains.
    frontend_skip:
        Arriving frames the front end must still drop to re-align its
        window clock after a gap
        (:attr:`~repro.serve.frontend.StreamFrontend.skip_remaining`);
        0 unless an ingest session skipped frames mid-window.
    retro_matches:
        The retrospective (backfill) match stream collected before the
        snapshot, kept separate from the live stream so neither resume
        path can interleave them.
    archive_next:
        The sketch archive's watermark: the next basic-window index it
        expects. ``-1`` marks "no archive state recorded" (archiving
        was off).
    archive_ring_indices / archive_ring_starts / archive_ring_frames /
    archive_ring_sketches:
        The archive's unsealed in-memory tail (windows not yet in a
        disk segment) — without them a crash would lose the ring.
    backfill_jobs:
        In-flight/queued backfill jobs as ``(qid, start, live_start,
        end, emitted_through, cap_hint, retro_found)`` tuples. A resumed service
        re-probes each job from ``start`` (deterministic) but
        suppresses emission below ``emitted_through``, so no retro
        match is lost or doubled; ``live_start`` restores the job's
        subscription barrier (retro/live partition and the live-phantom
        suppression bound).
    """

    config: DetectorConfig
    keyframes_per_second: float
    chunks_ingested: int
    cap_hint: int
    strategy: str
    worker_queries: List[QuerySet]
    worker_states: List[Dict[str, np.ndarray]]
    matches: List[Match]
    frontend_pending: np.ndarray
    frontend_flushed: bool
    frontend_windows: int
    frontend_frames: int
    epoch: int = 0
    frontend_skip: int = 0
    retro_matches: List[Match] = field(default_factory=list)
    archive_next: int = -1
    archive_ring_indices: Optional[np.ndarray] = None
    archive_ring_starts: Optional[np.ndarray] = None
    archive_ring_frames: Optional[np.ndarray] = None
    archive_ring_sketches: Optional[np.ndarray] = None
    backfill_jobs: List[Tuple[int, int, int, int, int, int, int]] = field(
        default_factory=list
    )

    @property
    def num_workers(self) -> int:
        return len(self.worker_states)

    @property
    def has_archive(self) -> bool:
        """Whether the snapshot carries sketch-archive state."""
        return self.archive_next >= 0

    def worker_epochs(self) -> List[int]:
        """Per-shard lifecycle epochs recorded in the worker states."""
        return [int(state["epoch"][0]) for state in self.worker_states]


def _int_array(value: Optional[np.ndarray]) -> np.ndarray:
    return (
        np.empty(0, dtype=np.int64)
        if value is None
        else np.asarray(value, dtype=np.int64)
    )


def _matches_payload(
    matches: List[Match], prefix: str = "matches_"
) -> Dict[str, np.ndarray]:
    return {
        f"{prefix}qid": np.asarray([m.qid for m in matches], dtype=np.int64),
        f"{prefix}window": np.asarray(
            [m.window_index for m in matches], dtype=np.int64
        ),
        f"{prefix}start": np.asarray(
            [m.start_frame for m in matches], dtype=np.int64
        ),
        f"{prefix}end": np.asarray(
            [m.end_frame for m in matches], dtype=np.int64
        ),
        f"{prefix}similarity": np.asarray(
            [m.similarity for m in matches], dtype=np.float64
        ),
    }


def _matches_from_mapping(mapping, prefix: str = "matches_") -> List[Match]:
    return [
        Match(
            qid=int(qid),
            window_index=int(window),
            start_frame=int(start),
            end_frame=int(end),
            similarity=float(similarity),
        )
        for qid, window, start, end, similarity in zip(
            mapping[f"{prefix}qid"],
            mapping[f"{prefix}window"],
            mapping[f"{prefix}start"],
            mapping[f"{prefix}end"],
            mapping[f"{prefix}similarity"],
        )
    ]


class CheckpointManager:
    """Saves and restores :class:`ServiceCheckpoint` archives.

    Parameters
    ----------
    directory:
        Where snapshots live. Created on first save if missing.
    keep_last:
        Retention policy: after each managed save, keep only the ``N``
        newest snapshots (by stream position) and delete the rest —
        but never the newest *loadable* one: before deleting anything
        the manager verifies at least one keeper actually loads, so a
        corrupt newest snapshot cannot orphan the directory. ``None``
        (the default) keeps everything, the pre-policy behaviour.
    """

    def __init__(
        self,
        directory: Union[str, pathlib.Path],
        keep_last: Optional[int] = None,
    ) -> None:
        if keep_last is not None and keep_last < 1:
            raise ServeError(
                f"keep_last must be >= 1 when set, got {keep_last}"
            )
        self.directory = pathlib.Path(directory)
        self.keep_last = keep_last

    # -- paths ---------------------------------------------------------

    def path_for(self, chunks_ingested: int) -> pathlib.Path:
        """The canonical file name for a snapshot at a stream position."""
        return self.directory / f"ckpt-{int(chunks_ingested):010d}.npz"

    def snapshots(self) -> List[pathlib.Path]:
        """Every managed snapshot, oldest stream position first."""
        if not self.directory.is_dir():
            return []
        found: List[Tuple[int, pathlib.Path]] = []
        for entry in self.directory.iterdir():
            parsed = _CKPT_NAME.match(entry.name)
            if parsed:
                found.append((int(parsed.group(1)), entry))
        return [path for _, path in sorted(found)]

    def latest(self) -> Optional[pathlib.Path]:
        """The snapshot with the highest stream position, if any."""
        snapshots = self.snapshots()
        return snapshots[-1] if snapshots else None

    # -- retention -----------------------------------------------------

    def prune(self) -> List[pathlib.Path]:
        """Apply the ``keep_last`` policy; returns the paths deleted.

        The newest loadable snapshot always survives: deletion only
        proceeds once at least one of the keepers (checked newest
        first) loads cleanly. If every keeper is corrupt, nothing is
        deleted — the older snapshots are then the only recoverable
        state and the next :meth:`load` walk can still reach them.
        """
        if self.keep_last is None:
            return []
        snapshots = self.snapshots()
        victims = snapshots[: -self.keep_last]
        if not victims:
            return []
        keepers = snapshots[-self.keep_last:]
        if not any(self._loadable(path) for path in reversed(keepers)):
            return []
        deleted: List[pathlib.Path] = []
        for path in victims:
            try:
                path.unlink()
            except OSError:
                continue
            deleted.append(path)
        return deleted

    def _loadable(self, path: pathlib.Path) -> bool:
        try:
            self.load(path)
        except (PersistenceError, ServeError):
            return False
        return True

    # -- save ----------------------------------------------------------

    def save(
        self,
        checkpoint: ServiceCheckpoint,
        path: Union[str, pathlib.Path, None] = None,
    ) -> pathlib.Path:
        """Atomically write ``checkpoint``; returns the final path.

        Managed saves (``path`` omitted) also apply the ``keep_last``
        retention policy after the new snapshot lands.
        """
        managed = path is None
        if path is None:
            self.directory.mkdir(parents=True, exist_ok=True)
            path = self.path_for(checkpoint.chunks_ingested)
        path = pathlib.Path(path)
        payload: Dict[str, np.ndarray] = {
            "format": np.asarray([CHECKPOINT_FORMAT]),
            "num_workers": np.asarray([checkpoint.num_workers]),
            "chunks_ingested": np.asarray([checkpoint.chunks_ingested]),
            "cap_hint": np.asarray([checkpoint.cap_hint]),
            "epoch": np.asarray([checkpoint.epoch]),
            "keyframes_per_second": np.asarray(
                [checkpoint.keyframes_per_second], dtype=np.float64
            ),
            "strategy": np.asarray([checkpoint.strategy]),
            "frontend_pending": np.asarray(
                checkpoint.frontend_pending, dtype=np.int64
            ),
            "frontend_flushed": np.asarray(
                [int(checkpoint.frontend_flushed)]
            ),
            "frontend_windows": np.asarray([checkpoint.frontend_windows]),
            "frontend_frames": np.asarray([checkpoint.frontend_frames]),
            "frontend_skip": np.asarray([checkpoint.frontend_skip]),
            "archive_next": np.asarray([checkpoint.archive_next]),
            "archive_ring_indices": _int_array(
                checkpoint.archive_ring_indices
            ),
            "archive_ring_starts": _int_array(
                checkpoint.archive_ring_starts
            ),
            "archive_ring_frames": _int_array(
                checkpoint.archive_ring_frames
            ),
            "archive_ring_sketches": _int_array(
                checkpoint.archive_ring_sketches
            ),
            "backfill_jobs": np.asarray(
                checkpoint.backfill_jobs, dtype=np.int64
            ).reshape(len(checkpoint.backfill_jobs), 7),
            **detector_config_payload(checkpoint.config),
            **_matches_payload(checkpoint.matches),
            **_matches_payload(checkpoint.retro_matches, prefix="retro_"),
        }
        if len(checkpoint.worker_queries) != checkpoint.num_workers:
            raise ServeError(
                "checkpoint has "
                f"{len(checkpoint.worker_queries)} query subsets for "
                f"{checkpoint.num_workers} worker states"
            )
        for index, (queries, state) in enumerate(
            zip(checkpoint.worker_queries, checkpoint.worker_states)
        ):
            payload.update(query_set_payload(queries, prefix=f"w{index}_qs_"))
            for key, value in state.items():
                payload[f"w{index}_{key}"] = value
        atomic_savez(path, payload)
        if managed:
            self.prune()
        return path

    # -- load ----------------------------------------------------------

    def load(
        self,
        path: Union[str, pathlib.Path, None] = None,
        expected_config: Optional[DetectorConfig] = None,
    ) -> ServiceCheckpoint:
        """Read a snapshot (the latest one when ``path`` is omitted).

        Raises
        ------
        PersistenceError
            If no snapshot exists, the archive is unreadable, holds
            pickled arrays or carries any format tag but
            :data:`CHECKPOINT_FORMAT` (both tags are named), or
            ``expected_config`` differs from the recorded configuration
            (every differing field listed).
        """
        if path is None:
            path = self.latest()
            if path is None:
                raise PersistenceError(
                    f"no checkpoint found in {self.directory}"
                )
        path = pathlib.Path(path)
        with open_archive(path, "checkpoint") as archive:
            fmt = str(archive["format"][0])
            if fmt != CHECKPOINT_FORMAT:
                raise PersistenceError(
                    f"checkpoint file {path} has format {fmt!r}; this "
                    f"build reads and writes {CHECKPOINT_FORMAT!r} only"
                )
            config = detector_config_from_mapping(archive)
            if expected_config is not None:
                require_config_match(
                    config, expected_config, source=f"checkpoint {path}"
                )
            worker_queries = []
            worker_states: List[Dict[str, np.ndarray]] = []
            for index in range(int(archive["num_workers"][0])):
                worker_queries.append(
                    query_set_from_mapping(
                        archive,
                        prefix=f"w{index}_qs_",
                        source=f"checkpoint {path}",
                    )
                )
                prefix = f"w{index}_"
                skip = f"w{index}_qs_"
                worker_states.append(
                    {
                        key[len(prefix):]: archive[key]
                        for key in archive.files
                        if key.startswith(prefix)
                        and not key.startswith(skip)
                    }
                )
            return ServiceCheckpoint(
                config=config,
                keyframes_per_second=float(
                    archive["keyframes_per_second"][0]
                ),
                chunks_ingested=int(archive["chunks_ingested"][0]),
                cap_hint=int(archive["cap_hint"][0]),
                strategy=str(archive["strategy"][0]),
                worker_queries=worker_queries,
                worker_states=worker_states,
                matches=_matches_from_mapping(archive),
                frontend_pending=_int_array(archive["frontend_pending"]),
                frontend_flushed=bool(int(archive["frontend_flushed"][0])),
                frontend_windows=int(archive["frontend_windows"][0]),
                frontend_frames=int(archive["frontend_frames"][0]),
                epoch=int(archive["epoch"][0]),
                frontend_skip=int(archive["frontend_skip"][0]),
                retro_matches=_matches_from_mapping(
                    archive, prefix="retro_"
                ),
                archive_next=int(archive["archive_next"][0]),
                archive_ring_indices=_int_array(
                    archive["archive_ring_indices"]
                ),
                archive_ring_starts=_int_array(
                    archive["archive_ring_starts"]
                ),
                archive_ring_frames=_int_array(
                    archive["archive_ring_frames"]
                ),
                archive_ring_sketches=_int_array(
                    archive["archive_ring_sketches"]
                ),
                backfill_jobs=[
                    tuple(int(v) for v in row)
                    for row in _int_array(
                        archive["backfill_jobs"]
                    ).reshape(-1, 7)
                ],
            )
