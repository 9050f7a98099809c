"""Query-admission control plane: placement, epochs, purge, checkpoints.

Regression anchors for the online-maintenance bug sweep:

* a checkpoint taken *right after* a subscribe/unsubscribe (before the
  next basic window) must restore — pre-fix, the columnar engines'
  lazily synced column layout left a phantom query set in the snapshot
  and restore refused it;
* an unsubscribed qid must leave no trace in worker-state snapshots,
  and re-subscribing the same qid must start from zeroed state;
* lifecycle epochs must survive the checkpoint round-trip;
* the ingest scheduler must forward lifecycle ops to every session at
  chunk boundaries, and the ``repro serve`` churn flags must replay a
  scripted schedule exactly across a kill/resume.
"""

from __future__ import annotations

from dataclasses import astuple as _match_key, replace
import numpy as np
import pytest

from repro.cli import main
from repro.config import CombinationOrder, DetectorConfig, Representation
from repro.core.detector import StreamingDetector
from repro.core.live import LiveMonitor
from repro.core.query import Query, QuerySet
from repro.errors import ServeError
from repro.ingest import CellIdSource, StreamScheduler, StreamSession
from repro.minhash.family import MinHashFamily
from repro.minhash.windows import build_window_block
from repro.persistence import save_query_set
from repro.reference import ReferenceDetector
from repro.serve import (
    CHECKPOINT_FORMAT,
    CheckpointManager,
    DetectionService,
    QueryInfo,
    ShardPlanner,
    restore_worker_state,
    worker_state,
)

CELL_SPACE = 500
NUM_HASHES = 32
WINDOW_SECONDS = 2.5
KEYFRAMES_PER_SECOND = 2.0  # w = 5 key frames

#: The one configuration the service runs (and checkpoints).
ENGINE_MODES = [
    pytest.param(CombinationOrder.SEQUENTIAL, Representation.BIT,
                 id="sequential-bit")
]


def _config(order=CombinationOrder.SEQUENTIAL,
            representation=Representation.BIT,
            use_index=True, threshold=0.3):
    return DetectorConfig(
        num_hashes=NUM_HASHES,
        threshold=threshold,
        window_seconds=WINDOW_SECONDS,
        order=order,
        representation=representation,
        use_index=use_index,
    )


def _fixture(num_queries=4, seed=7, frames_each=25):
    rng = np.random.default_rng(seed)
    family = MinHashFamily(num_hashes=NUM_HASHES, seed=3)
    cells = {
        qid: rng.integers(0, CELL_SPACE, size=frames_each)
        for qid in range(num_queries)
    }
    frames = {qid: frames_each for qid in cells}
    return family, cells, frames, rng


def _query(family, qid, cell_ids, num_frames):
    distinct = np.unique(np.asarray(cell_ids, dtype=np.int64))
    return Query(qid=qid, cell_ids=distinct, num_frames=num_frames,
                 sketch=family.sketch(distinct))


# ----------------------------------------------------------------------
# bug sweep: snapshot-after-churn staleness
# ----------------------------------------------------------------------


@pytest.mark.parametrize("order,representation", ENGINE_MODES)
@pytest.mark.parametrize("churn", ["subscribe", "unsubscribe"])
def test_checkpoint_right_after_churn_restores(
    order, representation, churn, tmp_path
):
    """Snapshot between a lifecycle op and the next window must restore.

    Pre-fix the columnar engines only adopted the new column layout on
    the next processed window, so the snapshot recorded the *old* qid
    tuple and restore raised ``ServeError`` ("checkpointed for a
    different query set")."""
    family, cells, frames, rng = _fixture()
    config = _config(order, representation)
    chunks = [rng.integers(0, CELL_SPACE, size=35) for _ in range(3)]
    chunks[0][3:28] = cells[1]
    service = DetectionService(
        config, QuerySet.from_cell_ids(cells, frames, family),
        KEYFRAMES_PER_SECOND, num_workers=2,
    )
    service.run(chunks[:2], flush=False)
    if churn == "subscribe":
        extra = rng.integers(0, CELL_SPACE, size=20)
        service.subscribe(_query(family, 77, extra, 20))
    else:
        service.unsubscribe(1)
    path = service.checkpoint(tmp_path)  # no window processed since
    service.close()

    resumed = DetectionService.restore(path, expected_config=config)
    resumed.run(chunks[2:], flush=True)
    if churn == "subscribe":
        assert 77 in [info.qid for info in resumed.list_queries()]
    else:
        assert 1 not in [info.qid for info in resumed.list_queries()]
    resumed.close()


@pytest.mark.parametrize("order,representation", ENGINE_MODES)
def test_worker_state_sees_subscribe_immediately(order, representation):
    """worker_state right after a detector-level subscribe includes the
    new qid (columnar engines must sync eagerly, not on next window)."""
    family, cells, frames, rng = _fixture()
    config = _config(order, representation)
    detector = StreamingDetector(
        config, QuerySet.from_cell_ids(cells, frames, family),
        KEYFRAMES_PER_SECOND,
    )
    monitor = LiveMonitor(detector)
    monitor.push_cell_ids(rng.integers(0, CELL_SPACE, size=20))
    detector.subscribe(_query(family, 42, cells[0] + 1, 18))
    state = worker_state(detector)
    assert 42 in state["eng_qids"].tolist()

    fresh = StreamingDetector(
        config,
        QuerySet.from_cell_ids(
            {**cells, 42: np.unique(cells[0] + 1)},
            {**frames, 42: 18},
            family,
        ),
        KEYFRAMES_PER_SECOND,
    )
    restore_worker_state(fresh, state)  # must not raise


def test_the_oracle_is_never_checkpointed():
    """One engine kind is checkpointable, production's Sequential: a
    snapshot naming a scalar kind or the Geometric ladder (older builds
    wrote both) is refused, and so is a :class:`ReferenceDetector`
    handed to ``worker_state``."""
    family, cells, frames, rng = _fixture()
    queries = QuerySet.from_cell_ids(cells, frames, family)
    detector = StreamingDetector(_config(), queries, KEYFRAMES_PER_SECOND)
    state = worker_state(detector)
    assert str(state["kind"][0]) == "columnar-sequential"
    for kind in ("scalar-sequential", "columnar-geometric"):
        state["kind"] = np.asarray([kind])
        with pytest.raises(ServeError, match=f"'{kind}'"):
            restore_worker_state(detector, state)
    oracle = ReferenceDetector(_config(), queries, KEYFRAMES_PER_SECOND)
    with pytest.raises(ServeError, match="unknown engine type"):
        worker_state(oracle)


@pytest.mark.parametrize("old", [
    {"order": CombinationOrder.GEOMETRIC}, {"use_index": False},
], ids=["geometric", "noidx"])
def test_checkpoint_of_an_unserved_configuration_is_refused(
    old, tmp_path, monkeypatch
):
    """A ``repro.ckpt/5`` of a configuration older builds served —
    Geometric (with ``columnar-geometric`` worker state) or no-index —
    is refused with a typed error naming ``run_detector`` before any
    worker starts, whether or not the caller expects that config."""
    family, cells, frames, rng = _fixture()
    manager = CheckpointManager(tmp_path)
    with DetectionService(
        _config(), QuerySet.from_cell_ids(cells, frames, family),
        KEYFRAMES_PER_SECOND, num_workers=2,
    ) as service:
        service.run([rng.integers(0, CELL_SPACE, size=20)], flush=False)
        checkpoint = manager.load(service.checkpoint(manager))
    checkpoint.config = replace(checkpoint.config, **old)
    if "order" in old:
        for state in checkpoint.worker_states:
            state["kind"] = np.asarray(["columnar-geometric"])
    path = manager.save(checkpoint)

    def no_executor(*args, **kwargs):
        raise AssertionError("a worker was started")

    monkeypatch.setattr("repro.serve.service.SerialExecutor", no_executor)
    monkeypatch.setattr("repro.serve.service.ProcessExecutor", no_executor)
    for expected in (None, checkpoint.config, _config()):
        with pytest.raises(ServeError, match="run_detector"):
            DetectionService.restore(
                path, expected_config=expected, backend="process"
            )


@pytest.mark.parametrize("use_index", [True, False])
def test_sequential_state_round_trips_byte_for_byte(use_index):
    """Mid-stream, save → restore → save gives the same arrays byte for
    byte at every block boundary — classes whose members are not one run
    of candidate rows included, since restore regroups the dense pairs by
    equal ``(column, ge, lt)`` — and a detector resumed from a snapshot
    runs on exactly as the uninterrupted one."""
    rng = np.random.default_rng(2)
    family = MinHashFamily(num_hashes=NUM_HASHES, seed=2)
    cells = {q: rng.integers(0, 60, size=int(rng.integers(20, 40)))
             for q in range(8)}
    frames = {q: len(ids) for q, ids in cells.items()}
    config = _config(use_index=use_index, threshold=0.5)

    def detector():
        return StreamingDetector(
            config, QuerySet.from_cell_ids(cells, frames, family),
            KEYFRAMES_PER_SECOND,
        )

    block = build_window_block(rng.integers(0, 60, size=5 * 56), 5, family)
    uninterrupted = detector()
    resumed = None
    split = False
    # The matches of both after the resume point, as the calls return them.
    expected, got = [], []
    for first in range(0, len(block), 7):
        per_window = uninterrupted.process_batch(block[first:first + 7])
        if resumed is not None:
            expected += [m for matches in per_window for m in matches]
            got += [
                m for matches in resumed.process_batch(block[first:first + 7])
                for m in matches
            ]
            continue
        state = worker_state(uninterrupted)
        twin = detector()
        restore_worker_state(twin, state)
        again = worker_state(twin)
        assert state.keys() == again.keys()
        for name, array in state.items():
            assert array.dtype == again[name].dtype, name
            assert array.tobytes() == again[name].tobytes(), name
        for engine in (uninterrupted.engine, twin.engine):
            # A class's adoption window, which bounds the windows it is
            # evaluated at, is its newest member's start, restored too.
            rows, classes = engine.live_pairs()
            newest = [
                rows[classes == c].max()
                for c in range(len(engine.class_col))
            ]
            assert (
                engine.class_adopt.tolist()
                == engine.start_window[newest].tolist()
            )
        split |= any(
            np.ptp(rows[classes == c]) + 1 != np.count_nonzero(classes == c)
            for c in np.unique(classes)
        )
        if first == 28:
            resumed = twin
    assert split and expected
    assert [_match_key(m) for m in got] == [_match_key(m) for m in expected]
    assert dict(resumed.registry.counters()) == dict(
        uninterrupted.registry.counters()
    )
    for name, dist in uninterrupted.registry.distributions():
        assert dist.state() == resumed.registry.distribution(name).state()


def test_dense_state_with_stale_planes_resumes_identically():
    """The Sequential bit state is dense on disk — ``(C, Q)`` presence,
    ``(C, Q, W)`` planes — as older builds wrote it, stale planes under
    ``presence == False`` included; restore reads only present cells."""
    family, cells, frames, rng = _fixture(num_queries=6)
    stream = rng.integers(0, CELL_SPACE, size=80)
    stream[5:30], stream[40:65] = cells[2], cells[4]
    whole, first, resumed = (StreamingDetector(_config(), QuerySet.from_cell_ids(
        cells, frames, family), KEYFRAMES_PER_SECOND) for _ in range(3))
    whole_matches = whole.process_cell_ids(stream)
    first_matches = first.process_cell_ids(stream[:40])
    state = worker_state(first)
    stale = ~state["eng_presence"]
    assert state["eng_ge"].shape == stale.shape + (1,) and stale.any()
    noise = rng.integers(2**63, size=(stale.sum(), 1), dtype=np.uint64)
    state["eng_ge"][stale] = state["eng_lt"][stale] = noise
    restore_worker_state(resumed, state)
    resumed_matches = resumed.process_cell_ids(stream[40:])
    assert list(map(_match_key, first_matches + resumed_matches)) == list(
        map(_match_key, whole_matches))
    assert dict(resumed.registry.counters()) == dict(whole.registry.counters())


# ----------------------------------------------------------------------
# bug sweep: full purge on unsubscribe, clean re-subscribe
# ----------------------------------------------------------------------


@pytest.mark.parametrize("order,representation", [
    # "columnar-": the ids these cases have always had.
    pytest.param(*mode.values, id=f"columnar-{mode.id}")
    for mode in ENGINE_MODES
])
def test_unsubscribe_leaves_no_trace_in_snapshots(order, representation):
    """After unsubscribe, the removed qid appears nowhere in the worker
    state: not in the column layout or the query listing."""
    family, cells, frames, rng = _fixture()
    config = _config(order, representation)
    detector = StreamingDetector(
        config, QuerySet.from_cell_ids(cells, frames, family),
        KEYFRAMES_PER_SECOND,
    )
    monitor = LiveMonitor(detector)
    chunk = rng.integers(0, CELL_SPACE, size=30)
    chunk[2:27] = cells[1]  # plant a copy so qid 1 accrues state
    monitor.push_cell_ids(chunk)
    detector.unsubscribe(1)
    state = worker_state(detector)
    assert 1 not in state["eng_qids"].tolist()
    assert 1 not in detector.queries.query_ids


@pytest.mark.parametrize("order,representation", ENGINE_MODES + [
    pytest.param(CombinationOrder.GEOMETRIC, Representation.BIT,
                 id="geometric-bit"),
])
def test_resubscribe_same_qid_starts_clean(order, representation):
    """Unsubscribe + re-subscribe of the same qid behaves exactly like a
    detector that subscribed the fresh query at the same boundary (the
    Geometric ladder is the oracle's)."""
    detector_cls = (ReferenceDetector if order is CombinationOrder.GEOMETRIC
                    else StreamingDetector)
    family, cells, frames, rng = _fixture()
    config = _config(order, representation)
    chunks = [rng.integers(0, CELL_SPACE, size=30) for _ in range(4)]
    chunks[0][1:26] = cells[1]  # old life of qid 1
    chunks[2][3:28] = cells[1]  # would re-match the *old* sketch only
    replacement = _query(family, 1, cells[2] + 3, 22)

    def drive(initial, boundary_ops):
        detector = detector_cls(config, initial, KEYFRAMES_PER_SECOND)
        monitor = LiveMonitor(detector)
        matches = []
        for index, chunk in enumerate(chunks):
            matches.extend(monitor.push_cell_ids(chunk))
            for op, arg in boundary_ops.get(index, ()):  # at the barrier
                getattr(detector, op)(arg)
        matches.extend(monitor.flush())
        return matches

    churned = drive(
        QuerySet.from_cell_ids(cells, frames, family),
        {1: (("unsubscribe", 1), ("subscribe", replacement))},
    )
    reference = drive(
        QuerySet.from_cell_ids(
            {qid: cells[qid] for qid in cells if qid != 1},
            {qid: frames[qid] for qid in frames if qid != 1},
            family,
        ),
        {1: (("subscribe", replacement),)},
    )
    # qid 1's pre-churn matches are its old life, legitimately emitted
    # only by the churned run; windows ending after the boundary frame
    # (2 chunks × 30 frames) must treat the replacement as freshly born.
    boundary_frame = 2 * 30
    churned_after = [
        m for m in churned
        if m.qid == 1 and m.end_frame > boundary_frame
    ]
    reference_after = [
        m for m in reference
        if m.qid == 1 and m.end_frame > boundary_frame
    ]
    assert list(map(_match_key, churned_after)) == list(
        map(_match_key, reference_after)
    )


# ----------------------------------------------------------------------
# control plane: placement, epochs, listing, metrics
# ----------------------------------------------------------------------


def test_subscribe_places_on_least_loaded_shard():
    family, cells, frames, rng = _fixture(num_queries=4)
    # Uneven lengths => uneven caps under the "load" strategy.
    frames = {0: 60, 1: 10, 2: 10, 3: 10}
    queries = QuerySet.from_cell_ids(cells, frames, family)
    service = DetectionService(
        config := _config(), queries, KEYFRAMES_PER_SECOND,
        num_workers=2, strategy="load",
    )
    loads = service.shard_loads()
    lighter = loads.index(min(loads))
    target = service.subscribe(
        _query(family, 9, rng.integers(0, CELL_SPACE, size=15), 15)
    )
    assert target == lighter
    assert service.shard_of(9) == lighter
    # The online rule is the planner's greedy step.
    assert ShardPlanner(2, "load").place(loads) == lighter
    assert config is service.config
    service.close()


def test_epoch_barrier_counts_and_metrics():
    family, cells, frames, rng = _fixture()
    service = DetectionService(
        _config(), QuerySet.from_cell_ids(cells, frames, family),
        KEYFRAMES_PER_SECOND, num_workers=2,
    )
    assert service.epoch == 0
    extra = _query(family, 50, rng.integers(0, CELL_SPACE, size=80), 80)
    service.subscribe(extra)  # longer query raises the global cap
    assert service.epoch == 1
    service.unsubscribe(50)  # cap shrinks back
    assert service.epoch == 2
    merged = service.metrics_snapshot()
    assert merged["serve"]["epoch"] == 2
    assert merged["counters"]["serve.queries.subscribed"] == 1
    assert merged["counters"]["serve.queries.unsubscribed"] == 1
    assert merged["counters"]["serve.queries.cap_rebroadcasts"] == 2
    assert merged["gauges"]["serve.queries.active"] == len(cells)
    assert merged["gauges"]["serve.queries.epoch"] == 2
    service.close()


def test_list_queries_reports_placement():
    family, cells, frames, _ = _fixture()
    service = DetectionService(
        _config(), QuerySet.from_cell_ids(cells, frames, family),
        KEYFRAMES_PER_SECOND, num_workers=2,
    )
    listing = service.list_queries()
    assert [info.qid for info in listing] == sorted(cells)
    for info in listing:
        assert isinstance(info, QueryInfo)
        assert service.shard_of(info.qid) == info.shard
        assert info.cap_windows >= 1
        assert info.num_frames == frames[info.qid]
    service.close()


def test_subscribe_rejects_duplicates_and_foreign_family():
    family, cells, frames, rng = _fixture()
    service = DetectionService(
        _config(), QuerySet.from_cell_ids(cells, frames, family),
        KEYFRAMES_PER_SECOND, num_workers=2,
    )
    with pytest.raises(ServeError, match="already subscribed"):
        service.subscribe(_query(family, 1, cells[1], 25))
    other_family = MinHashFamily(num_hashes=NUM_HASHES, seed=99)
    with pytest.raises(ServeError, match="different hash family"):
        service.subscribe(
            _query(other_family, 88, rng.integers(0, CELL_SPACE, 12), 12)
        )
    service.close()


# ----------------------------------------------------------------------
# checkpoint format: epochs round-trip
# ----------------------------------------------------------------------


def test_checkpoint_records_epochs(tmp_path):
    family, cells, frames, rng = _fixture()
    service = DetectionService(
        _config(), QuerySet.from_cell_ids(cells, frames, family),
        KEYFRAMES_PER_SECOND, num_workers=2,
    )
    service.run([rng.integers(0, CELL_SPACE, size=30)], flush=False)
    service.subscribe(
        _query(family, 30, rng.integers(0, CELL_SPACE, size=12), 12)
    )
    path = service.checkpoint(tmp_path)
    service.close()

    manager = CheckpointManager(tmp_path)
    checkpoint = manager.load(path)
    assert checkpoint.epoch == 1
    assert checkpoint.worker_epochs() == [1, 1]
    with np.load(path) as archive:  # nothing in a snapshot is pickled
        assert str(archive["format"][0]) == CHECKPOINT_FORMAT == "repro.ckpt/5"

    resumed = DetectionService.restore(checkpoint)
    assert resumed.epoch == 1
    resumed.subscribe(
        _query(family, 31, rng.integers(0, CELL_SPACE, size=12), 12)
    )
    assert resumed.epoch == 2  # numbering continues, not restarts
    resumed.close()


def test_restore_after_flush_stays_flushed(tmp_path):
    """A snapshot taken after flush() resumes closed: it takes no more
    chunks, and a second flush() is a no-op that reaches no shard."""
    family, cells, frames, rng = _fixture()
    service = DetectionService(
        _config(), QuerySet.from_cell_ids(cells, frames, family),
        KEYFRAMES_PER_SECOND, num_workers=2,
    )
    service.run([rng.integers(0, CELL_SPACE, size=33)], flush=True)
    path = service.checkpoint(tmp_path)
    service.close()

    resumed = DetectionService.restore(path)
    sent = []
    send = resumed._executor.send
    resumed._executor.send = lambda *args: sent.append(args) or send(*args)
    with pytest.raises(ServeError, match="already been flushed"):
        resumed.run([np.arange(5)])
    assert resumed.flush() == []
    assert sent == []
    resumed.close()


# ----------------------------------------------------------------------
# ingest: scheduler lifecycle forwarding
# ----------------------------------------------------------------------


def test_scheduler_forwards_lifecycle_ops():
    """Ops registered on the scheduler reach every session's service
    exactly once, at a chunk boundary."""
    family, cells, frames, rng = _fixture(num_queries=3)
    config = _config()
    chunks_by_stream = [
        [rng.integers(0, CELL_SPACE, size=20) for _ in range(3)]
        for _ in range(2)
    ]
    pairs = []
    for stream_id, chunks in enumerate(chunks_by_stream):
        session = StreamSession(
            stream_id, config,
            QuerySet.from_cell_ids(cells, frames, family),
            KEYFRAMES_PER_SECOND,
        )
        pairs.append((CellIdSource(stream_id, chunks), session))
    scheduler = StreamScheduler(pairs)
    extra = _query(family, 71, rng.integers(0, CELL_SPACE, size=14), 14)
    scheduler.subscribe(extra)
    scheduler.unsubscribe(0)
    scheduler.run()
    for _, session in pairs:
        qids = {info.qid for info in session.service.list_queries()}
        assert 71 in qids
        assert 0 not in qids
        assert session.registry.counter("ingest.queries_subscribed") == 1
        assert session.registry.counter("ingest.queries_unsubscribed") == 1
    counters = scheduler.registry.counters()
    lifecycle = {
        name: value for name, value in counters
        if ".lifecycle_ops." in name
    }
    assert set(lifecycle.values()) == {2}


# ----------------------------------------------------------------------
# CLI: scripted churn, kill/resume replay
# ----------------------------------------------------------------------


def _cli_base():
    # 4 queries on 2 workers → 2 per shard, so any single unsubscribe
    # never empties a shard regardless of planner placement.
    return ["serve", "--stream", "vs1", "--queries", "4",
            "--stream-seconds", "240", "--hashes", "32",
            "--chunk-seconds", "30", "--workers", "2",
            "--window-seconds", "2.0"]


def _cli_query_file(tmp_path):
    """A single-query file sketched under the serve command's family."""
    from repro.minhash.family import MinHashFamily as Family

    rng = np.random.default_rng(2026)
    family = Family(num_hashes=32, seed=0)  # matches _command_serve
    cells = np.unique(rng.integers(0, 4096, size=60))
    query = Query(qid=901, cell_ids=cells, num_frames=40,
                  sketch=family.sketch(cells))
    path = tmp_path / "extra-query.npz"
    save_query_set(QuerySet([query], family), path)
    return str(path)


@pytest.mark.slow
def test_cli_churn_schedule_and_resume(capsys, tmp_path):
    """--subscribe-at/--unsubscribe-at replay exactly across a kill."""
    base = _cli_base()
    query_file = _cli_query_file(tmp_path)
    churn = ["--unsubscribe-at", "1:0",
             "--subscribe-at", f"2:{query_file}",
             "--unsubscribe-at", "5:901"]

    assert main(base + churn) == 0
    full = capsys.readouterr().out
    assert "unsubscribed query 0" in full
    assert "subscribed query 901" in full
    final = full.splitlines()[-1]
    assert final.startswith("matches=")

    ckpt = ["--checkpoint-dir", str(tmp_path / "ckpt")]
    assert main(base + churn + ckpt + ["--stop-after", "3"]) == 0
    first_half = capsys.readouterr().out
    assert "subscribed query 901" in first_half  # churn before the kill
    assert main(base + churn + ckpt + ["--resume"]) == 0
    resumed = capsys.readouterr().out
    assert "skipping 2 lifecycle op(s)" in resumed
    assert "unsubscribed query 901" in resumed  # churn after the kill
    assert resumed.splitlines()[-1] == final


def test_cli_rejects_malformed_churn_flags(capsys):
    assert main(["serve", "--subscribe-at", "nonsense"]) == 2
    assert "WINDOW:QUERYFILE" in capsys.readouterr().err
    assert main(["serve", "--unsubscribe-at", "3:"]) == 2
    assert "WINDOW:QID" in capsys.readouterr().err
