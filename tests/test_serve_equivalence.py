"""Golden equivalence: the sharded service vs the single-process detector.

The serving subsystem promises that sharding is *transparent*: for any
shard count, the merged match stream is bit-for-bit the single-process
detector's (same matches, same canonical order), stream-scoped counters
replicate per shard, query-scoped counters sum to the serial values, and
a mid-stream checkpoint/restore loses zero matches. This suite drives
randomized workloads (hypothesis) with subscribe/unsubscribe churn
through 1, 2 and 5 shards in the one configuration the service runs
(Sequential, bit, with the index); a backend smoke test covers the
process executor.
"""

from __future__ import annotations

from dataclasses import astuple as _match_key
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import CombinationOrder, DetectorConfig, Representation
from repro.core.detector import StreamingDetector
from repro.core.live import LiveMonitor
from repro.core.query import Query, QuerySet
from repro.minhash.family import MinHashFamily
from repro.reference import ReferenceDetector
from repro.serve import (
    CheckpointManager,
    DetectionService,
    canonical_sort_key,
)

CELL_SPACE = 500
NUM_HASHES = 32
WINDOW_SECONDS = 2.5
KEYFRAMES_PER_SECOND = 2.0  # w = 5 key frames
SHARD_COUNTS = (1, 2, 5)

#: The one configuration the service runs.
SERVED = [pytest.param(CombinationOrder.SEQUENTIAL, Representation.BIT, True,
                       id="sequential-bit-idx")]

#: Stream-scoped counters: every shard processes the identical stream,
#: so these must equal the serial value (not sum to it).
REPLICATED = {
    "engine.windows_processed",
    "stream.frames_processed",
    "stream.partial_windows",
    "engine.index_probes",
    "engine.expired_candidates",
    "engine.sketch_combines",
}


def _config(threshold, **modes):
    """The suite's detector (K hashes, w-frame windows) in ``modes``."""
    return DetectorConfig(num_hashes=NUM_HASHES, threshold=threshold,
                          window_seconds=WINDOW_SECONDS, **modes)


@st.composite
def workloads(draw):
    """A serving session: queries, stream chunks, churn actions."""
    family_seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    num_queries = draw(st.integers(2, 6))
    queries = {}
    frames = {}
    for qid in range(num_queries):
        n = draw(st.integers(8, 40))
        queries[qid] = rng.integers(0, CELL_SPACE, size=n)
        frames[qid] = n

    threshold = draw(st.sampled_from([0.05, 0.3, 0.5, 0.7, 0.9]))

    window_frames = round(WINDOW_SECONDS * KEYFRAMES_PER_SECOND)
    num_chunks = draw(st.integers(1, 3))
    chunks = []
    actions = []
    next_qid = num_queries
    for position in range(num_chunks):
        final = position == num_chunks - 1
        num_windows = draw(st.integers(1, 10))
        length = num_windows * window_frames
        if final and draw(st.booleans()):
            length += draw(st.integers(1, window_frames - 1))  # partial
        chunk = rng.integers(0, CELL_SPACE, size=length)
        if draw(st.booleans()):
            victim = draw(st.sampled_from(sorted(queries)))
            copy = np.asarray(queries[victim])[:length]
            at = draw(st.integers(0, length - copy.size))
            chunk[at : at + copy.size] = copy
        chunks.append(chunk)
        if final:
            break
        action = draw(st.sampled_from(["none", "subscribe", "unsubscribe"]))
        if action == "subscribe":
            n = draw(st.integers(8, 40))
            queries[next_qid] = rng.integers(0, CELL_SPACE, size=n)
            frames[next_qid] = n
            actions.append(("subscribe", next_qid))
            next_qid += 1
        elif action == "unsubscribe":
            victim = draw(st.sampled_from(sorted(queries)[:num_queries]))
            actions.append(("unsubscribe", victim))
        else:
            actions.append(("none", -1))
    return family_seed, queries, frames, threshold, chunks, actions


def _make_query(family, queries, frames, qid):
    distinct = np.unique(np.asarray(queries[qid], dtype=np.int64))
    return Query(qid=qid, cell_ids=distinct, num_frames=frames[qid],
                 sketch=family.sketch(distinct))


def _initial_set(family, queries, frames, actions):
    subscribed_first = [
        qid for qid in queries if ("subscribe", qid) not in actions
    ]
    return QuerySet.from_cell_ids(
        {qid: queries[qid] for qid in subscribed_first},
        {qid: frames[qid] for qid in subscribed_first},
        family,
    )


def _run_service(config, family, queries, frames, chunks, actions,
                 num_workers, backend="serial"):
    """Drive a service through the workload; returns (service, applied).

    ``applied`` records which churn actions actually executed: an
    unsubscribe is skipped when the victim is its shard's last query or
    was never subscribed, and the serial reference replays exactly the
    same decisions.
    """
    service = DetectionService(
        config,
        _initial_set(family, queries, frames, actions),
        KEYFRAMES_PER_SECOND,
        num_workers=num_workers,
        backend=backend,
    )
    applied = []  # (boundary, kind, qid) — kept aligned for the replay
    for position, chunk in enumerate(chunks):
        final = position == len(chunks) - 1
        service.run([chunk], flush=final)
        if final or position >= len(actions):
            continue
        kind, qid = actions[position]
        if kind == "subscribe":
            service.subscribe(_make_query(family, queries, frames, qid))
            applied.append((position, "subscribe", qid))
        elif kind == "unsubscribe":
            try:
                worker = service.shard_of(qid)
            except Exception:
                continue  # already unsubscribed earlier
            if service.shard_sizes()[worker] < 2:
                continue  # would empty the shard
            service.unsubscribe(qid)
            applied.append((position, "unsubscribe", qid))
    return service, applied


@pytest.mark.parametrize("order,representation,use_index", SERVED)
@settings(max_examples=10, deadline=None)
@given(workload=workloads())
def test_sharded_equals_serial(order, representation, use_index, workload):
    family_seed, queries, frames, threshold, chunks, actions = workload
    family = MinHashFamily(num_hashes=NUM_HASHES, seed=family_seed)
    config = _config(threshold, order=order, representation=representation,
                     use_index=use_index)
    for num_workers in SHARD_COUNTS:
        service, applied = _run_service(
            config, family, queries, frames, chunks, actions, num_workers
        )
        # Which churn actions execute depends on shard topology (an
        # unsubscribe that would empty a shard is skipped), so the
        # serial reference replays exactly this run's applied actions.
        ref_detector, ref_matches = _serial_with_actions(
            config, family, queries, frames, chunks, applied
        )
        # Bit-for-bit stream: same matches in the canonical order.
        assert [
            _match_key(m) for m in sorted(ref_matches, key=canonical_sort_key)
        ] == [_match_key(m) for m in service.matches]
        _assert_counters(ref_detector, service)
        service.close()


@pytest.mark.parametrize(
    "representation,use_index",
    # "columnar-": the id this case has always had.
    [pytest.param(Representation.BIT, True, id="columnar-bit-idx")],
)
def test_sketch_once_all_engines(representation, use_index):
    """Workers fed the front end's sketched batches reproduce the
    serial stream and its counters."""
    rng = np.random.default_rng(67)
    family = MinHashFamily(num_hashes=NUM_HASHES, seed=6)
    cells = {qid: rng.integers(0, CELL_SPACE, size=25) for qid in range(4)}
    frames = {qid: 25 for qid in cells}
    chunks = [rng.integers(0, CELL_SPACE, size=35) for _ in range(3)]
    chunks[1][4:29] = cells[1]
    config = _config(0.3, representation=representation,
                     use_index=use_index)
    detector = StreamingDetector(
        config, QuerySet.from_cell_ids(cells, frames, family),
        KEYFRAMES_PER_SECOND,
    )
    monitor = LiveMonitor(detector)
    serial = []
    for chunk in chunks:
        serial.extend(monitor.push_cell_ids(chunk))
    serial.extend(monitor.flush())
    with DetectionService(
        config, QuerySet.from_cell_ids(cells, frames, family),
        KEYFRAMES_PER_SECOND, num_workers=2, batch_chunks=2,
    ) as service:
        service.run(chunks)
        assert sorted(map(_match_key, service.matches)) == sorted(
            map(_match_key, serial)
        )
        counters = service.metrics_snapshot()["counters"]
        for name, value in detector.registry.counters():
            assert counters.get(name, 0) == value, name


def _serial_with_actions(config, family, queries, frames, chunks, applied):
    """Run the plain detector applying ``applied`` at the *same* chunk
    boundaries the service applied them at (skipped actions leave gaps,
    so each entry carries its boundary index)."""
    by_boundary = {boundary: (kind, qid) for boundary, kind, qid in applied}
    detector = StreamingDetector(
        config,
        _initial_set(
            family, queries, frames,
            [("subscribe", qid) for _, kind, qid in applied
             if kind == "subscribe"],
        ),
        KEYFRAMES_PER_SECOND,
    )
    monitor = LiveMonitor(detector)
    matches = []
    for index, chunk in enumerate(chunks):
        matches.extend(monitor.push_cell_ids(chunk))
        if index == len(chunks) - 1:
            break
        if index in by_boundary:
            kind, qid = by_boundary[index]
            if kind == "subscribe":
                detector.subscribe(
                    _make_query(family, queries, frames, qid)
                )
            else:
                detector.unsubscribe(qid)
    matches.extend(monitor.flush())
    return detector, matches


def _run_service_with_kill_resume(config, family, queries, frames, chunks,
                                  actions, num_workers, ckpt_dir):
    """Like :func:`_run_service`, but kill/resume mid-stream.

    The service is checkpointed at the middle chunk boundary *after*
    that boundary's churn action executes (matching the CLI's
    ops-before-checkpoint ordering), closed, and restored from disk
    before the remaining chunks run. Returns (service, applied) with the
    restored service holding the full merged match stream.
    """
    service = DetectionService(
        config,
        _initial_set(family, queries, frames, actions),
        KEYFRAMES_PER_SECOND,
        num_workers=num_workers,
    )
    applied = []
    kill_at = (len(chunks) - 1) // 2 if len(chunks) > 1 else None
    for position, chunk in enumerate(chunks):
        final = position == len(chunks) - 1
        service.run([chunk], flush=final)
        if not final and position < len(actions):
            kind, qid = actions[position]
            if kind == "subscribe":
                service.subscribe(_make_query(family, queries, frames, qid))
                applied.append((position, "subscribe", qid))
            elif kind == "unsubscribe":
                try:
                    worker = service.shard_of(qid)
                except Exception:
                    worker = None  # already unsubscribed earlier
                if (worker is not None
                        and service.shard_sizes()[worker] >= 2):
                    service.unsubscribe(qid)
                    applied.append((position, "unsubscribe", qid))
        if position == kill_at and not final:
            path = service.checkpoint(ckpt_dir)
            service.close()
            service = DetectionService.restore(
                path, expected_config=config
            )
    return service, applied


@pytest.mark.parametrize("order,representation,use_index", SERVED)
@settings(max_examples=5, deadline=None)
@given(workload=workloads())
def test_kill_resume_mid_churn_equals_serial(
    order, representation, use_index, workload
):
    """Churn + checkpoint kill/resume still equals the serial detector.

    The checkpoint lands immediately after a subscribe/unsubscribe
    (before the next chunk), the exact spot where stale columnar
    snapshots and leaked per-query state used to corrupt restores.
    """
    family_seed, queries, frames, threshold, chunks, actions = workload
    family = MinHashFamily(num_hashes=NUM_HASHES, seed=family_seed)
    config = _config(threshold, order=order, representation=representation,
                     use_index=use_index)
    for num_workers in SHARD_COUNTS:
        # tempfile (not the tmp_path fixture): function-scoped fixtures
        # trip hypothesis' health check across examples.
        with tempfile.TemporaryDirectory() as tmp:
            service, applied = _run_service_with_kill_resume(
                config, family, queries, frames, chunks, actions,
                num_workers, Path(tmp),
            )
            ref_detector, ref_matches = _serial_with_actions(
                config, family, queries, frames, chunks, applied
            )
            assert [
                _match_key(m)
                for m in sorted(ref_matches, key=canonical_sort_key)
            ] == [_match_key(m) for m in service.matches]
            _assert_counters(ref_detector, service)
            service.close()


def test_resume_carries_partial_buffer(tmp_path):
    """Ragged chunks leave a non-empty front-end buffer at the
    checkpoint barrier; the resumed service must carry it over and end
    equal to the single-process detector, counters included."""
    rng = np.random.default_rng(101)
    family = MinHashFamily(num_hashes=NUM_HASHES, seed=11)
    cells = {qid: rng.integers(0, CELL_SPACE, size=25) for qid in range(4)}
    frames = {qid: 25 for qid in cells}
    # w = 5 key frames; 13-frame chunks keep 3 then 1 frames buffered
    # at the first two barriers.
    chunks = [rng.integers(0, CELL_SPACE, size=13) for _ in range(4)]
    chunks[1][0:13] = cells[2][5:18]
    config = _config(0.2)
    detector = StreamingDetector(
        config, QuerySet.from_cell_ids(cells, frames, family),
        KEYFRAMES_PER_SECOND,
    )
    monitor = LiveMonitor(detector)
    serial = []
    for chunk in chunks:
        serial.extend(monitor.push_cell_ids(chunk))
    serial.extend(monitor.flush())

    service = DetectionService(
        config, QuerySet.from_cell_ids(cells, frames, family),
        KEYFRAMES_PER_SECOND, num_workers=2,
    )
    service.run(chunks[:2], flush=False)
    path = service.checkpoint(tmp_path)
    service.close()
    assert CheckpointManager(tmp_path).load(path).frontend_pending.size == 1
    resumed = DetectionService.restore(path, expected_config=config)
    resumed.run(chunks[2:], flush=True)
    assert [_match_key(m) for m in resumed.matches] == [
        _match_key(m) for m in serial
    ]
    counters = resumed.metrics_snapshot()["counters"]
    for name, value in detector.registry.counters():
        assert counters.get(name, 0) == value, name
    resumed.close()


@pytest.mark.parametrize("order,representation,use_index", [
    pytest.param(CombinationOrder.SEQUENTIAL, Representation.BIT, True,
                 id="sequential-bit-idx")
])
@settings(max_examples=10, deadline=None)
@given(workload=workloads())
def test_scalar_matches_columnar_under_churn(
    order, representation, use_index, workload
):
    """Golden equivalence of production and oracle under churn.

    A subscribe must not leave the columnar path scoring a stale query
    column set, and an unsubscribe must purge the query's columns; the
    scalar store keys state by qid and is immune, so any divergence in
    the match streams pins the bug on the production path.
    """
    family_seed, queries, frames, threshold, chunks, actions = workload
    family = MinHashFamily(num_hashes=NUM_HASHES, seed=family_seed)
    initial = [qid for qid in queries if ("subscribe", qid) not in actions]
    config = _config(threshold, order=order, representation=representation,
                     use_index=use_index)
    results = {}
    for vectorized, detector_cls in (
        (False, ReferenceDetector), (True, StreamingDetector)
    ):
        detector = detector_cls(
            config,
            _initial_set(family, queries, frames, actions),
            KEYFRAMES_PER_SECOND,
        )
        monitor = LiveMonitor(detector)
        subscribed = set(initial)
        matches = []
        for position, chunk in enumerate(chunks):
            matches.extend(monitor.push_cell_ids(chunk))
            if position == len(chunks) - 1 or position >= len(actions):
                continue
            kind, qid = actions[position]
            if kind == "subscribe":
                detector.subscribe(_make_query(family, queries, frames, qid))
                subscribed.add(qid)
            elif (kind == "unsubscribe" and qid in subscribed
                    and len(subscribed) > 1):
                detector.unsubscribe(qid)
                subscribed.discard(qid)
        matches.extend(monitor.flush())
        results[vectorized] = sorted(map(_match_key, matches))
    assert results[False] == results[True]


def _assert_counters(ref_detector, service):
    """Merged counters match serial: replicated equal, additive sum."""
    merged = service.metrics_snapshot()
    serial = dict(ref_detector.registry.counters())
    assert merged["conflicts"] == [], merged["conflicts"]
    for name, value in serial.items():
        assert merged["counters"].get(name, 0) == value, name


@pytest.mark.parametrize("backend", ["process"])
def test_backends_match_serial(backend):
    """The process executor produces the serial backend's output."""
    rng = np.random.default_rng(23)
    family = MinHashFamily(num_hashes=NUM_HASHES, seed=4)
    cells = {qid: rng.integers(0, CELL_SPACE, size=30) for qid in range(5)}
    frames = {qid: 30 for qid in cells}
    chunks = [rng.integers(0, CELL_SPACE, size=40) for _ in range(3)]
    chunks[1][5:35] = cells[2]
    config = _config(0.3)

    def run(backend_name):
        queries = QuerySet.from_cell_ids(cells, frames, family)
        with DetectionService(
            config, queries, KEYFRAMES_PER_SECOND,
            num_workers=3, backend=backend_name,
        ) as service:
            service.run(chunks)
            return list(service.matches)

    assert [_match_key(m) for m in run(backend)] == [
        _match_key(m) for m in run("serial")
    ]


@pytest.mark.parametrize("order", [CombinationOrder.SEQUENTIAL])
def test_checkpoint_restore_loses_nothing(order, tmp_path):
    """Mid-stream snapshot + restore reproduces the uninterrupted run."""
    rng = np.random.default_rng(31)
    family = MinHashFamily(num_hashes=NUM_HASHES, seed=9)
    cells = {qid: rng.integers(0, CELL_SPACE, size=25) for qid in range(4)}
    frames = {qid: 25 for qid in cells}
    chunks = [rng.integers(0, CELL_SPACE, size=35) for _ in range(4)]
    chunks[0][3:28] = cells[1]
    chunks[2][7:32] = cells[3]
    config = _config(0.3, order=order)

    def fresh_queries():
        return QuerySet.from_cell_ids(cells, frames, family)

    uninterrupted = DetectionService(
        config, fresh_queries(), KEYFRAMES_PER_SECOND, num_workers=2
    )
    uninterrupted.run(chunks)

    first = DetectionService(
        config, fresh_queries(), KEYFRAMES_PER_SECOND, num_workers=2
    )
    first.run(chunks[:2], flush=False)
    path = first.checkpoint(tmp_path)
    first.close()

    resumed = DetectionService.restore(path, expected_config=config)
    assert resumed.chunks_ingested == 2
    resumed.run(chunks[2:], flush=True)

    assert [_match_key(m) for m in resumed.matches] == [
        _match_key(m) for m in uninterrupted.matches
    ]
    merged_a = uninterrupted.metrics_snapshot()["counters"]
    merged_b = resumed.metrics_snapshot()["counters"]
    for name in [k for k in merged_a if k.startswith(("engine.", "stream."))]:
        assert merged_a[name] == merged_b[name], name
    uninterrupted.close()
    resumed.close()


def test_sub_window_chunks_send_no_empty_batches():
    """3-frame chunks on 5-frame windows, with a gap: a batch that
    completes no window and carries no gap reaches no shard, yet the
    process service's stream and engine counters equal the serial
    service's and the oracle's."""
    rng = np.random.default_rng(29)
    family = MinHashFamily(num_hashes=NUM_HASHES, seed=6)
    cells = {qid: rng.integers(0, CELL_SPACE, size=20) for qid in range(4)}
    frames = {qid: 20 for qid in cells}
    stream = rng.integers(0, CELL_SPACE, size=120)
    stream[30:50] = cells[1]
    stream[78:98] = cells[3]
    chunks = [stream[start : start + 3] for start in range(0, 120, 3)]
    gap_after, gap_frames = 20, 7
    config = _config(0.3)

    oracle = ReferenceDetector(
        config, QuerySet.from_cell_ids(cells, frames, family),
        KEYFRAMES_PER_SECOND,
    )
    monitor = LiveMonitor(oracle)
    expected = []
    for position, chunk in enumerate(chunks):
        expected.extend(monitor.push_cell_ids(chunk))
        if position == gap_after:
            monitor.skip_frames(gap_frames)
    expected.extend(monitor.flush())
    assert expected, "the workload must produce matches"

    def run(backend, num_workers):
        service = DetectionService(
            config, QuerySet.from_cell_ids(cells, frames, family),
            KEYFRAMES_PER_SECOND, num_workers=num_workers,
            backend=backend, batch_chunks=1,
        )
        for position, chunk in enumerate(chunks):
            service.process_chunk(chunk)
            if position == gap_after:
                service.skip_frames(gap_frames)
        service.flush()
        return service

    for service in (run("serial", 1), run("process", 2)):
        with service:
            counters = service.metrics_snapshot()["counters"]
            assert counters["serve.transport.chunks"] == len(chunks)
            assert counters["serve.transport.batches"] < len(chunks)
            assert [_match_key(m) for m in service.matches] == [
                _match_key(m) for m in sorted(expected, key=canonical_sort_key)
            ]
            _assert_counters(oracle, service)
