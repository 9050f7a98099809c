"""Snapshot / restore of one worker's full detector state.

A checkpointed worker must resume *exactly* where it stopped: the same
live candidates, the same per-(candidate, query)
signatures, and the same counters, distributions and timers — so that
the post-restore match stream and the final metrics are bit-for-bit
what an uninterrupted run would have produced. :func:`worker_state`
flattens all of that into a dict of numpy arrays (directly storable in
an ``.npz`` without pickling — names are fixed-width unicode arrays —
and cheap to send across a process boundary);
:func:`restore_worker_state` reinstates it onto a freshly constructed
detector built from the same queries and configuration. The
partial-window buffer and gap state are not a worker's: the service's
front end, which cuts the stream into windows, checkpoints them.

The service runs one engine, Sequential, so there is one state
``kind``, ``columnar-sequential``. A ``repro.ckpt/6`` checkpoint stores
its class table as the engine holds it: the candidates' start window
and frame vectors (``eng_start_window``, ``eng_start_frame``, ``C``
each), and per class its query column, adoption window, ``(2, W)``
planes and ``⌈C/64⌉`` member words (``eng_class_col``,
``eng_class_adopt``, ``eng_class_planes``, ``eng_class_members``).
Restore checks their dtypes and shapes, the column range and the member
width against the detector it restores onto, then assigns them: two
classes of one column holding equal planes stay two classes, so a
resumed engine holds what the snapshotted one held, byte for byte.

The oracle in ``repro.reference`` is never checkpointed: its
engines are refused here, as is a snapshot whose ``kind`` names one —
or names ``columnar-geometric``, the ladder older builds wrote (the
Geometric order now runs on the oracle only).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.core.detector import StreamingDetector
from repro.core.engine_sequential import ColumnarSequentialEngine
from repro.errors import ServeError
from repro.obs.registry import MetricsRegistry

__all__ = ["restore_worker_state", "worker_state"]


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------


def _names(pairs: List[Tuple[str, object]]) -> np.ndarray:
    """Metric names as a fixed-width unicode array (never pickled)."""
    return np.asarray([name for name, _ in pairs], dtype=str)


def _registry_state(registry: MetricsRegistry) -> Dict[str, np.ndarray]:
    counters = list(registry.counters())
    gauges = list(registry.gauges())
    dists = list(registry.distributions())
    timers = list(registry.timers())
    dist_states = np.asarray(
        [stats.state() for _, stats in dists], dtype=np.float64
    ).reshape(len(dists), 5)
    return {
        "reg_counter_names": _names(counters),
        "reg_counter_values": np.asarray(
            [value for _, value in counters], dtype=np.int64
        ),
        "reg_gauge_names": _names(gauges),
        "reg_gauge_values": np.asarray(
            [value for _, value in gauges], dtype=np.float64
        ),
        "reg_dist_names": _names(dists),
        "reg_dist_states": dist_states,
        "reg_timer_names": _names(timers),
        "reg_timer_calls": np.asarray(
            [timer.calls for _, timer in timers], dtype=np.int64
        ),
        "reg_timer_seconds": np.asarray(
            [timer.seconds for _, timer in timers], dtype=np.float64
        ),
    }


def _restore_registry(
    registry: MetricsRegistry, state: Dict[str, np.ndarray]
) -> None:
    for name, value in zip(
        state["reg_counter_names"], state["reg_counter_values"]
    ):
        registry.set_counter(str(name), int(value))
    for name, value in zip(
        state["reg_gauge_names"], state["reg_gauge_values"]
    ):
        registry.set_gauge(str(name), float(value))
    for name, dist_state in zip(
        state["reg_dist_names"], state["reg_dist_states"]
    ):
        registry.distribution(str(name)).load_state(tuple(dist_state))
    for name, calls, seconds in zip(
        state["reg_timer_names"],
        state["reg_timer_calls"],
        state["reg_timer_seconds"],
    ):
        timer = registry.timer(str(name))
        timer.calls = int(calls)
        timer.seconds = float(seconds)


# ----------------------------------------------------------------------
# engines
# ----------------------------------------------------------------------


def _engine_kind(engine) -> str:
    if isinstance(engine, ColumnarSequentialEngine):
        return "columnar-sequential"
    raise ServeError(f"unknown engine type {type(engine).__name__}")


#: The class table's arrays in a snapshot: key, engine attribute, dtype.
_CLASS_TABLE = (
    ("eng_start_window", "start_window", np.int64),
    ("eng_start_frame", "start_frame", np.int64),
    ("eng_class_col", "class_col", np.int64),
    ("eng_class_adopt", "class_adopt", np.int64),
    ("eng_class_planes", "class_planes", np.uint64),
    ("eng_class_members", "class_members", np.uint64),
)


def _columnar_sequential_state(engine: ColumnarSequentialEngine) -> Dict:
    # The column layout is adopted lazily; sync before reading so a
    # snapshot taken right after a subscribe/unsubscribe (before the
    # next window) records the live query set, not a stale one.
    engine._sync_columns()
    state = {"eng_qids": np.asarray(engine._qids, dtype=np.int64)}
    for key, name, _ in _CLASS_TABLE:
        state[key] = np.array(getattr(engine, name))
    return state


def _restore_columnar_sequential(
    engine: ColumnarSequentialEngine, state: Dict[str, np.ndarray]
) -> None:
    engine._sync_columns()
    _check_qids(engine._qids, state["eng_qids"])
    candidates = len(state.get("eng_start_window", ()))
    classes = len(state.get("eng_class_col", ()))
    shapes = {
        "eng_start_window": (candidates,),
        "eng_start_frame": (candidates,),
        "eng_class_col": (classes,),
        "eng_class_adopt": (classes,),
        "eng_class_planes": (classes,) + engine.class_planes.shape[1:],
        "eng_class_members": (classes, -(-candidates // 64)),
    }
    for key, _, dtype in _CLASS_TABLE:
        array = state.get(key)
        if array is None or (array.dtype, array.shape) != (dtype, shapes[key]):
            found = "missing" if array is None else (
                f"{array.dtype} {array.shape}"
            )
            raise ServeError(
                f"engine state {key} is {found}, expected "
                f"{np.dtype(dtype)} {shapes[key]} for {candidates} "
                f"candidates and {classes} classes"
            )
    col = state["eng_class_col"]
    if classes and not (0 <= col.min() and col.max() < len(engine._qids)):
        raise ServeError(
            f"engine state names query columns {col.min()}..{col.max()} "
            f"of {len(engine._qids)}"
        )
    for key, name, _ in _CLASS_TABLE:
        setattr(engine, name, state[key].copy())


def _check_qids(current: tuple, recorded: np.ndarray) -> None:
    if tuple(int(qid) for qid in recorded) != tuple(current):
        raise ServeError(
            "engine state was checkpointed for a different query set: "
            f"recorded qids {[int(q) for q in recorded]} vs current "
            f"{list(current)}"
        )


# ----------------------------------------------------------------------
# public API
# ----------------------------------------------------------------------


def worker_state(detector: StreamingDetector) -> Dict[str, np.ndarray]:
    """Flatten one worker's restorable state into numpy arrays.

    Covers: the engine's candidate state and the full metrics
    registry (counters, gauges, distributions, timers — the stream clock
    ``stream.frames_processed`` and window counter live here). Matches
    already emitted are *not* part of the state: they were delivered to
    the caller before the snapshot was taken.
    """
    kind = _engine_kind(detector.engine)
    return {
        "kind": np.asarray([kind]),
        **_columnar_sequential_state(detector.engine),
        **_registry_state(detector.registry),
    }


def restore_worker_state(
    detector: StreamingDetector, state: Dict[str, np.ndarray]
) -> None:
    """Reinstate a :func:`worker_state` snapshot.

    ``detector`` must be freshly constructed from the same
    configuration and query set the snapshot was taken under (the
    checkpoint layer verifies both before calling this).
    """
    kind = str(state["kind"][0])
    expected = _engine_kind(detector.engine)
    if kind != expected:
        raise ServeError(
            f"checkpointed engine kind {kind!r} does not match the "
            f"configured engine {expected!r}"
        )
    _restore_columnar_sequential(detector.engine, state)
    _restore_registry(detector.registry, state)
