"""Snapshot / restore of one worker's full detector state.

A checkpointed worker must resume *exactly* where it stopped: the same
live candidates (or ladder segments), the same per-(candidate, query)
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

Both engines are covered. The on-disk layout is the dense one every
``repro.ckpt/5`` checkpoint has always had; the Sequential bit store is
sparse in memory, dense on disk:

===========  ========================  ===================================
order        on-disk ``kind``          state
===========  ========================  ===================================
Sequential   ``columnar-sequential``   start/frame vectors + ``(C, Q)``
                                       presence and ``(C, Q, W)`` planes
                                       (the pair store scattered densely,
                                       gathered back under ``presence``
                                       on restore) / ``(C, K)`` sketch
                                       block
Geometric    ``columnar-geometric``    ``_ColumnarSegment`` ladder
===========  ========================  ===================================

Planes under ``presence == False`` are ignored on restore, so a
checkpoint whose dense store kept stale planes there resumes the same.

The test-only oracle in ``repro.reference`` is never checkpointed: its
engines are refused here, as is a snapshot whose ``kind`` names one.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.core.detector import StreamingDetector
from repro.core.engine_geometric import (
    ColumnarGeometricEngine,
    _ColumnarSegment,
)
from repro.core.engine_sequential import ColumnarSequentialEngine
from repro.errors import ServeError
from repro.obs.registry import MetricsRegistry
from repro.signature.bitsig import plane_words

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
    if isinstance(engine, ColumnarGeometricEngine):
        return "columnar-geometric"
    raise ServeError(f"unknown engine type {type(engine).__name__}")


def _columnar_sequential_state(engine: ColumnarSequentialEngine) -> Dict:
    # The column layout is adopted lazily; sync before reading so a
    # snapshot taken right after a subscribe/unsubscribe (before the
    # next window) records the live query set, not a stale one.
    engine._sync_columns()
    state = {
        "eng_qids": np.asarray(engine._qids, dtype=np.int64),
        "eng_start_window": engine.start_window.copy(),
        "eng_start_frame": engine.start_frame.copy(),
    }
    if engine.context.is_bit:
        rows = np.searchsorted(engine.start_window, engine.pair_start)
        cells = (len(engine.start_window), len(engine._qids))
        width = engine.pair_ge.shape[1]
        presence = np.zeros(cells, dtype=bool)
        presence[rows, engine.pair_col] = True
        state["eng_presence"] = presence
        for name, planes in (("ge", engine.pair_ge), ("lt", engine.pair_lt)):
            dense = np.zeros(cells + (width,), dtype=np.uint64)
            dense[rows, engine.pair_col] = planes
            state[f"eng_{name}"] = dense
    else:
        state["eng_block"] = engine.block.values.copy()
        state["eng_relevant"] = engine.relevant.copy()
    return state


def _restore_columnar_sequential(
    engine: ColumnarSequentialEngine, state: Dict[str, np.ndarray]
) -> None:
    engine._sync_columns()
    _check_qids(engine._qids, state["eng_qids"])
    engine.start_window = state["eng_start_window"].astype(np.int64)
    engine.start_frame = state["eng_start_frame"].astype(np.int64)
    if engine.context.is_bit:
        rows, cols = np.nonzero(state["eng_presence"])
        engine.pair_start = engine.start_window[rows]
        engine.pair_col = cols.astype(np.int64)
        engine.pair_ge = state["eng_ge"][rows, cols].astype(np.uint64)
        engine.pair_lt = state["eng_lt"][rows, cols].astype(np.uint64)
    else:
        engine.block.values = state["eng_block"].astype(np.int64)
        engine.relevant = state["eng_relevant"].astype(bool)


def _columnar_geometric_state(engine: ColumnarGeometricEngine) -> Dict:
    engine._sync_columns()
    segments = engine.segments
    is_bit = engine.context.is_bit
    num_hashes = engine.context.config.num_hashes
    count = len(segments)
    num_queries = len(engine._qids)
    width = plane_words(num_hashes)
    state = {
        "eng_qids": np.asarray(engine._qids, dtype=np.int64),
        "eng_seg_size": np.asarray(
            [s.size for s in segments], dtype=np.int64
        ),
        "eng_seg_start": np.asarray(
            [s.start_frame for s in segments], dtype=np.int64
        ),
        "eng_seg_end": np.asarray(
            [s.end_frame for s in segments], dtype=np.int64
        ),
        "eng_seg_sketch": np.asarray(
            [s.sketch_values for s in segments], dtype=np.int64
        ).reshape(count, num_hashes),
    }
    if is_bit:
        state["eng_presence"] = np.asarray(
            [s.presence for s in segments], dtype=bool
        ).reshape(count, num_queries)
        state["eng_ge"] = np.asarray(
            [s.ge for s in segments], dtype=np.uint64
        ).reshape(count, num_queries, width)
        state["eng_lt"] = np.asarray(
            [s.lt for s in segments], dtype=np.uint64
        ).reshape(count, num_queries, width)
    else:
        state["eng_relevant"] = np.asarray(
            [s.relevant for s in segments], dtype=bool
        ).reshape(count, num_queries)
    return state


def _restore_columnar_geometric(
    engine: ColumnarGeometricEngine, state: Dict[str, np.ndarray]
) -> None:
    engine._sync_columns()
    _check_qids(engine._qids, state["eng_qids"])
    is_bit = engine.context.is_bit
    segments: List[_ColumnarSegment] = []
    for row in range(len(state["eng_seg_size"])):
        segments.append(
            _ColumnarSegment(
                size=int(state["eng_seg_size"][row]),
                start_frame=int(state["eng_seg_start"][row]),
                end_frame=int(state["eng_seg_end"][row]),
                sketch_values=state["eng_seg_sketch"][row].astype(np.int64),
                presence=(
                    state["eng_presence"][row].astype(bool) if is_bit else None
                ),
                ge=state["eng_ge"][row].astype(np.uint64) if is_bit else None,
                lt=state["eng_lt"][row].astype(np.uint64) if is_bit else None,
                relevant=(
                    None
                    if is_bit
                    else state["eng_relevant"][row].astype(bool)
                ),
            )
        )
    engine.segments = segments


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

    Covers: the engine's candidate/ladder state and the full metrics
    registry (counters, gauges, distributions, timers — the stream clock
    ``stream.frames_processed`` and window counter live here). Matches
    already emitted are *not* part of the state: they were delivered to
    the caller before the snapshot was taken.
    """
    kind = _engine_kind(detector.engine)
    if kind == "columnar-sequential":
        engine_state = _columnar_sequential_state(detector.engine)
    else:
        engine_state = _columnar_geometric_state(detector.engine)
    return {
        "kind": np.asarray([kind]),
        **engine_state,
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
    if kind == "columnar-sequential":
        _restore_columnar_sequential(detector.engine, state)
    else:
        _restore_columnar_geometric(detector.engine, state)
    _restore_registry(detector.registry, state)
