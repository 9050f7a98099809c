"""Saving and loading query subscriptions.

A monitoring deployment sketches its query videos once ("offline", as
the paper puts it) and then runs for days; re-fingerprinting hundreds of
clips on every restart would be wasteful. This module persists a
:class:`~repro.core.query.QuerySet` — cell-id sets, frame counts, labels
and the hash-family parameters — to a single ``.npz`` file, and restores
it with sketches recomputed from the (exactly preserved) cell ids under
the same family, so a reloaded set is bit-for-bit equivalent to the
original.

The file may also record the detector-relevant configuration (order,
representation, threshold, ...) alongside the query set: a saved
subscription is only meaningful for the engine it was built for, and
silently loading it into a differently configured detector would change
which copies are detected. Loading therefore
fails loudly when the caller's expected configuration differs from the
recorded one.

The file embeds a format version, and this build reads exactly the
version it writes: any other version, a corrupted file, or a file
holding pickled (object) arrays raises :class:`PersistenceError`
instead of mis-detecting quietly. Files are opened with
``allow_pickle=False`` — labels and tags are fixed-width unicode arrays
— so loading one can never execute code.

The payload helpers (:func:`query_set_payload`,
:func:`query_set_from_mapping`, :func:`detector_config_payload`,
:func:`detector_config_from_mapping`) are shared with the serving
layer's :class:`~repro.serve.checkpoint.CheckpointManager`, which embeds
per-worker query sets and the service configuration in its snapshots.
"""

from __future__ import annotations

import contextlib
import pathlib
from typing import Dict, Iterator, Mapping, Optional, Type, Union

import numpy as np

from repro.config import CombinationOrder, DetectorConfig, Representation
from repro.core.query import QuerySet
from repro.errors import ReproError, SketchError
from repro.minhash.family import MERSENNE_PRIME_31, MinHashFamily

__all__ = [
    "CONFIG_FIELDS",
    "PersistenceError",
    "detector_config_from_mapping",
    "detector_config_payload",
    "load_query_set",
    "load_recorded_config",
    "open_archive",
    "query_set_from_mapping",
    "query_set_payload",
    "require_config_match",
    "save_query_set",
]

#: Written, and the only version read. Bump whenever the layout changes.
FORMAT_VERSION = 3

#: Detector configuration fields recorded alongside a saved query set —
#: everything that changes which matches the engine reports.
CONFIG_FIELDS = (
    "num_hashes",
    "threshold",
    "window_seconds",
    "tempo_scale",
    "order",
    "representation",
    "use_index",
    "prune",
)


class PersistenceError(ReproError):
    """A query-set file is missing, corrupt or from an unknown version."""


@contextlib.contextmanager
def open_archive(
    path: pathlib.Path,
    what: str,
    error: Type[ReproError] = PersistenceError,
) -> Iterator[Mapping]:
    """Open an ``.npz`` that came from outside the program.

    Nothing is ever unpickled, the file is closed on exit, and whatever
    goes wrong while the caller reads it — no file, not a zip, a
    missing member, an object array — surfaces as the caller's typed
    ``error`` naming the file (``what`` says which kind of file:
    ``"query-set"``, ``"checkpoint"``, ``"stream recording"``).
    """
    if not path.exists():
        raise error(f"no {what} file at {path}")
    try:
        with np.load(path, allow_pickle=False) as archive:
            yield archive
    except ReproError:
        raise
    except KeyError as missing:
        raise error(
            f"{what} file {path} is missing field {missing}"
        ) from missing
    except Exception as cause:  # zipfile/format errors vary by numpy
        raise error(f"cannot read {what} file {path}: {cause}") from cause


# ----------------------------------------------------------------------
# payload helpers (shared with repro.serve.checkpoint)
# ----------------------------------------------------------------------


def query_set_payload(
    queries: QuerySet, prefix: str = ""
) -> Dict[str, np.ndarray]:
    """Flatten a query set into npz-storable arrays, keys ``prefix``-ed.

    Sketch values are *not* stored — they are a pure function of
    (cell ids, family) and recomputing them on load keeps the layout
    independent of the sketch representation.
    """
    qids = queries.query_ids
    payload: Dict[str, np.ndarray] = {
        f"{prefix}family_num_hashes": np.asarray([queries.family.num_hashes]),
        f"{prefix}family_seed": np.asarray([queries.family.seed]),
        f"{prefix}family_prime": np.asarray([queries.family.prime]),
        f"{prefix}qids": np.asarray(qids, dtype=np.int64),
        f"{prefix}num_frames": np.asarray(
            [queries.get(qid).num_frames for qid in qids], dtype=np.int64
        ),
        f"{prefix}labels": np.asarray(
            [queries.get(qid).label for qid in qids], dtype=str
        ),
    }
    for qid in qids:
        payload[f"{prefix}cells_{qid}"] = queries.get(qid).cell_ids
    return payload


def query_set_from_mapping(
    mapping: Mapping[str, np.ndarray], prefix: str = "", source: str = "payload"
) -> QuerySet:
    """Rebuild a query set from :func:`query_set_payload` arrays.

    ``mapping`` may be an open ``np.load`` archive or a plain dict;
    ``source`` names it in error messages. The stored prime must be the
    family's fixed ``2**31 - 1``: sketches of any other modulus would
    not be the ones the stream reproduces.
    """
    try:
        prime = int(mapping[f"{prefix}family_prime"][0])
        if prime != MERSENNE_PRIME_31:
            raise SketchError(
                f"{source} records family prime {prime}; every family "
                f"hashes modulo 2**31 - 1 = {MERSENNE_PRIME_31}"
            )
        family = MinHashFamily(
            num_hashes=int(mapping[f"{prefix}family_num_hashes"][0]),
            seed=int(mapping[f"{prefix}family_seed"][0]),
        )
        qids = [int(qid) for qid in mapping[f"{prefix}qids"]]
        if len(set(qids)) != len(qids):
            raise PersistenceError(f"{source} lists a query id twice: {qids}")
        return QuerySet.from_cell_ids(
            {qid: mapping[f"{prefix}cells_{qid}"] for qid in qids},
            {
                qid: int(frames)
                for qid, frames in zip(qids, mapping[f"{prefix}num_frames"])
            },
            family,
            labels={
                qid: str(label)
                for qid, label in zip(qids, mapping[f"{prefix}labels"])
            },
        )
    except KeyError as error:
        raise PersistenceError(f"{source} is missing field {error}")


def detector_config_payload(
    config: DetectorConfig, prefix: str = "config_"
) -> Dict[str, np.ndarray]:
    """Flatten the detector-relevant configuration into npz arrays.

    Enum fields are stored by value (their stable string names), the
    rest as one-element numeric arrays.
    """
    payload: Dict[str, np.ndarray] = {}
    for name in CONFIG_FIELDS:
        value = getattr(config, name)
        if isinstance(value, (CombinationOrder, Representation)):
            payload[f"{prefix}{name}"] = np.asarray([value.value])
        elif isinstance(value, bool):
            payload[f"{prefix}{name}"] = np.asarray([int(value)])
        else:
            payload[f"{prefix}{name}"] = np.asarray([value])
    return payload


def detector_config_from_mapping(
    mapping: Mapping[str, np.ndarray], prefix: str = "config_"
) -> DetectorConfig:
    """Rebuild a :class:`DetectorConfig` from recorded payload arrays."""
    try:
        return DetectorConfig(
            num_hashes=int(mapping[f"{prefix}num_hashes"][0]),
            threshold=float(mapping[f"{prefix}threshold"][0]),
            window_seconds=float(mapping[f"{prefix}window_seconds"][0]),
            tempo_scale=float(mapping[f"{prefix}tempo_scale"][0]),
            order=CombinationOrder(str(mapping[f"{prefix}order"][0])),
            representation=Representation(
                str(mapping[f"{prefix}representation"][0])
            ),
            use_index=bool(int(mapping[f"{prefix}use_index"][0])),
            prune=bool(int(mapping[f"{prefix}prune"][0])),
        )
    except KeyError as error:
        raise PersistenceError(f"recorded config is missing field {error}")


def require_config_match(
    recorded: DetectorConfig, expected: DetectorConfig, source: str = "file"
) -> None:
    """Fail loudly when a recorded config differs from the caller's.

    Raises
    ------
    PersistenceError
        Listing every differing field with both values.
    """
    differing = []
    for name in CONFIG_FIELDS:
        have = getattr(recorded, name)
        want = getattr(expected, name)
        if have != want:
            have_repr = have.value if hasattr(have, "value") else have
            want_repr = want.value if hasattr(want, "value") else want
            differing.append(f"{name}: recorded={have_repr} expected={want_repr}")
    if differing:
        raise PersistenceError(
            f"{source} was saved under a different detector "
            f"configuration — " + "; ".join(differing)
        )


# ----------------------------------------------------------------------
# query-set files
# ----------------------------------------------------------------------


def save_query_set(
    queries: QuerySet,
    path: Union[str, pathlib.Path],
    config: Optional[DetectorConfig] = None,
) -> None:
    """Write a query set (and its family parameters) to ``path``.

    The ``.npz`` holds, per query: id, label, key-frame count and the
    distinct cell-id array, plus — when ``config`` is given — the
    detector configuration the subscription was built for, checked on
    load (see :func:`load_query_set`).
    """
    path = pathlib.Path(path)
    payload = {
        "format_version": np.asarray([FORMAT_VERSION]),
        **query_set_payload(queries),
    }
    if config is not None:
        payload.update(detector_config_payload(config))
    with open(path, "wb") as handle:
        np.savez_compressed(handle, **payload)


def _require_version(archive: Mapping, path: pathlib.Path) -> None:
    version = int(archive["format_version"][0])
    if version != FORMAT_VERSION:
        raise PersistenceError(
            f"query-set file {path} has format version {version}; "
            f"this build reads and writes version {FORMAT_VERSION} only"
        )


def load_recorded_config(
    path: Union[str, pathlib.Path]
) -> Optional[DetectorConfig]:
    """The detector configuration recorded in a query-set file, or
    ``None`` for a file saved without one."""
    path = pathlib.Path(path)
    with open_archive(path, "query-set") as archive:
        _require_version(archive, path)
        if "config_num_hashes" not in archive:
            return None
        return detector_config_from_mapping(archive)


def load_query_set(
    path: Union[str, pathlib.Path],
    expected_config: Optional[DetectorConfig] = None,
) -> QuerySet:
    """Restore a query set saved by :func:`save_query_set`.

    Parameters
    ----------
    expected_config:
        The configuration the caller intends to run the queries under.
        When given and the file records one, every differing field
        raises :class:`PersistenceError` — a saved subscription
        silently loaded into a different engine would change detection
        results.

    Raises
    ------
    PersistenceError
        If the file is unreadable, structurally incomplete, holds
        pickled arrays, was written under another format version, or
        was recorded under a configuration that differs from
        ``expected_config``.
    """
    path = pathlib.Path(path)
    with open_archive(path, "query-set") as archive:
        _require_version(archive, path)
        if expected_config is not None and "config_num_hashes" in archive:
            require_config_match(
                detector_config_from_mapping(archive),
                expected_config,
                source=f"query-set file {path}",
            )
        return query_set_from_mapping(
            archive, source=f"query-set file {path}"
        )
