"""Self-healing shards: crash-anytime equivalence, quarantine, chaos.

The supervisor's contract is that worker death is invisible in the
output: for any shard count, killing (or stalling, or poisoning) any
worker at any chunk boundary under supervision yields bit-for-bit the
match stream of an uninterrupted run — same matches, same canonical
order — because the shard is respawned from its rolling snapshot and
the window batches since then are replayed from the in-memory log. Exhausting the restart budget must *degrade*
(queries flagged, surviving shards exact), never corrupt. This suite
drives randomized workloads (hypothesis) through that promise, plus
deterministic coverage for the chaos plan format, the dead-worker
error path, crash-aware shared-memory sweeping and close() hygiene.
"""

from __future__ import annotations

from dataclasses import astuple as _match_key
import os
from pathlib import Path
import signal
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import DetectorConfig
from repro.core.query import Query, QuerySet
from repro.errors import ServeError, WorkerDeadError
from repro.minhash.family import MinHashFamily
from repro.minhash.windows import WindowBlock
from repro.serve import (
    ChaosEvent,
    ChaosPlan,
    CheckpointManager,
    DetectionService,
    ShmBatchRing,
    SupervisorConfig,
)

CELL_SPACE = 500
NUM_HASHES = 32
WINDOW_SECONDS = 2.5
KEYFRAMES_PER_SECOND = 2.0  # w = 5 key frames
SHARD_COUNTS = (1, 2, 5)

#: A dead worker process is seen at once by ``is_alive``; the recv
#: deadline only decides how long a *live* but silent worker may stall,
#: so a short one keeps the stall drills fast.
FAST = SupervisorConfig(recv_deadline=1.0)


def _make_query(family, queries, frames, qid):
    distinct = np.unique(np.asarray(queries[qid], dtype=np.int64))
    return Query(qid=qid, cell_ids=distinct, num_frames=frames[qid],
                 sketch=family.sketch(distinct))


@st.composite
def crash_workloads(draw):
    """Queries, a chunked stream with planted copies, and a chaos draw.

    ``at_seq`` ranges over every stream-message boundary the batching
    can produce (one batch per ``run`` call here), so hypothesis probes
    "kill any worker at any chunk boundary" directly.
    """
    family_seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    num_queries = draw(st.integers(2, 5))
    queries = {}
    frames = {}
    for qid in range(num_queries):
        n = draw(st.integers(8, 30))
        queries[qid] = rng.integers(0, CELL_SPACE, size=n)
        frames[qid] = n
    threshold = draw(st.sampled_from([0.05, 0.3, 0.5]))
    window_frames = round(WINDOW_SECONDS * KEYFRAMES_PER_SECOND)
    num_chunks = draw(st.integers(2, 4))
    chunks = []
    for _ in range(num_chunks):
        length = draw(st.integers(1, 5)) * window_frames
        chunk = rng.integers(0, CELL_SPACE, size=length)
        victim = draw(st.sampled_from(sorted(queries)))
        copy = np.asarray(queries[victim])[:length]
        at = draw(st.integers(0, length - copy.size))
        chunk[at : at + copy.size] = copy
        chunks.append(chunk)
    kind = draw(st.sampled_from(["kill", "kill", "poison"]))
    at_seq = draw(st.integers(1, num_chunks))
    return family_seed, queries, frames, threshold, chunks, kind, at_seq


def _config(threshold):
    return DetectorConfig(num_hashes=NUM_HASHES, threshold=threshold,
                          window_seconds=WINDOW_SECONDS)


def _service(config, family, queries, frames, num_workers, backend,
             **extra):
    return DetectionService(
        config,
        QuerySet.from_cell_ids(queries, frames, family),
        KEYFRAMES_PER_SECOND,
        num_workers=num_workers,
        backend=backend,
        **extra,
    )


def _drive(service, chunks):
    for position, chunk in enumerate(chunks):
        service.run([chunk], flush=position == len(chunks) - 1)
    return [_match_key(m) for m in service.matches]


@pytest.mark.parametrize("backend", [
    # "columnar-process": the id this case has always had.
    pytest.param("process", id="columnar-process"),
])
@settings(max_examples=5, deadline=None)
@given(workload=crash_workloads())
def test_crash_anytime_equals_uninterrupted(backend, workload):
    family_seed, queries, frames, threshold, chunks, kind, at_seq = workload
    family = MinHashFamily(num_hashes=NUM_HASHES, seed=family_seed)
    config = _config(threshold)
    reference = _service(config, family, queries, frames, 2, "serial")
    expected = _drive(reference, chunks)
    reference.close()
    for num_workers in SHARD_COUNTS:
        # The service clamps the shard count to the query count.
        effective = min(num_workers, len(queries))
        victim = at_seq % effective  # any worker, any boundary
        plan = ChaosPlan((
            ChaosEvent(kind=kind, worker_id=victim, at_seq=at_seq),
        ))
        service = _service(
            config, family, queries, frames, num_workers, backend,
            chaos=plan, supervisor=FAST,
        )
        try:
            got = _drive(service, chunks)
            assert got == expected, (
                f"{kind}:{victim}@{at_seq} under {num_workers} "
                f"{backend} shards diverged from the uninterrupted run"
            )
            counters = service.metrics_snapshot()["counters"]
            assert counters.get("serve.supervisor.kills", 0) >= 1
            assert counters.get("serve.supervisor.restarts", 0) >= 1
            assert service.metrics_snapshot()["serve"][
                "shm_outstanding_refs"
            ] == 0, "crashed worker leaked shared-memory refs"
        finally:
            service.close()


@settings(max_examples=5, deadline=None)
@given(workload=crash_workloads(), barrier=st.integers(1, 3))
def test_checkpoint_resume_mid_recovery(tmp_path_factory, workload,
                                        barrier):
    """A checkpoint taken *after* a supervised recovery restores into a
    run whose total match stream equals the uninterrupted one."""
    family_seed, queries, frames, threshold, chunks, kind, at_seq = workload
    barrier = min(barrier, len(chunks) - 1)
    at_seq = min(at_seq, barrier)  # crash before the checkpoint barrier
    family = MinHashFamily(num_hashes=NUM_HASHES, seed=family_seed)
    config = _config(threshold)
    reference = _service(config, family, queries, frames, 2, "serial")
    expected = _drive(reference, chunks)
    reference.close()

    manager = CheckpointManager(
        tmp_path_factory.mktemp("supervised-ckpt")
    )
    plan = ChaosPlan((
        ChaosEvent(kind=kind, worker_id=0, at_seq=at_seq),
    ))
    first = _service(
        config, family, queries, frames, 2, "process",
        chaos=plan, supervisor=FAST,
    )
    for chunk in chunks[:barrier]:
        first.run([chunk], flush=False)
    assert first.registry.counter("serve.supervisor.restarts") >= 1
    first.checkpoint(manager)
    first.close()

    resumed = DetectionService.restore(
        manager, expected_config=config, backend="process",
        supervisor=FAST,
    )
    try:
        for position in range(barrier, len(chunks)):
            resumed.run([chunks[position]],
                        flush=position == len(chunks) - 1)
        assert [_match_key(m) for m in resumed.matches] == expected
    finally:
        resumed.close()


def _fixed_workload():
    """Config, family, queries, frames and chunks of the fixed cases."""
    rng = np.random.default_rng(42)
    queries = {qid: rng.integers(0, CELL_SPACE, size=20)
               for qid in range(4)}
    frames = {qid: 20 for qid in queries}
    chunks = []
    for _ in range(6):
        chunk = rng.integers(0, CELL_SPACE, size=20)
        victim = int(rng.integers(0, 4))
        chunk[:20] = np.asarray(queries[victim])[:20]
        chunks.append(chunk)
    family = MinHashFamily(num_hashes=NUM_HASHES, seed=3)
    return _config(0.3), family, queries, frames, chunks


def test_quarantine_flags_queries_and_keeps_survivors_exact():
    """Budget exhaustion quarantines the shard: its queries stay listed
    (``degraded``), the service reports partial output, planner load
    biases away from the dead shard, and the surviving shard's matches
    are bit-for-bit the reference's."""
    config, family, queries, frames, chunks = _fixed_workload()
    reference = _service(config, family, queries, frames, 2, "serial")
    expected = _drive(reference, chunks)
    shard_of = {qid: reference.shard_of(qid) for qid in queries}
    reference.close()

    plan = ChaosPlan((ChaosEvent("kill", worker_id=0, at_seq=2),))
    service = _service(
        config, family, queries, frames, 2, "process", chaos=plan,
        supervisor=SupervisorConfig(recv_deadline=1.0, max_restarts=0),
    )
    try:
        got = _drive(service, chunks)
        assert service.degraded_shards() == [0]
        assert service.partial
        counters = service.metrics_snapshot()["counters"]
        assert counters["serve.supervisor.quarantines"] == 1
        # Flagged, not dropped: every query is still listed, the dead
        # shard's with the degraded status.
        status = {info.qid: info.status for info in service.list_queries()}
        assert set(status) == set(queries)
        for qid, shard in shard_of.items():
            assert status[qid] == (
                "degraded" if shard == 0 else "active"
            )
        # Stream message 2 starts basic window 4 on this workload; the
        # quarantined shard contributed nothing from there on, and the
        # survivors are exact.
        survivors = [
            key for key in expected
            if shard_of[key[0]] != 0 or key[1] < 4
        ]
        assert got == survivors
        # New subscriptions route around the quarantined shard.
        extra = _make_query(
            family, {9: np.arange(20) % CELL_SPACE}, {9: 20}, 9
        )
        assert service.subscribe(extra) != 0
    finally:
        service.close()


@pytest.mark.parametrize("backend", ["process"])
def test_unsupervised_dead_worker_raises_not_hangs(backend):
    """Satellite: without supervision, a dead worker must surface as a
    typed ``WorkerDeadError`` (worker id + acked watermark), never as
    an indefinite ``recv`` hang — and ``close()`` must still succeed,
    twice, afterwards."""
    config, family, queries, frames, chunks = _fixed_workload()
    service = _service(config, family, queries, frames, 2, backend)
    try:
        service.run([chunks[0]], flush=False)
        service._executor.kill(0)
        with pytest.raises(WorkerDeadError) as caught:
            for chunk in chunks[1:]:
                service.run([chunk], flush=False)
        assert caught.value.worker_id == 0
        assert caught.value.last_acked >= 1
    finally:
        service.close()
        service.close()  # idempotent, including after a crash


#: Run in a child process: on a build whose blocked put ignores a dead
#: worker, ``run_chunks`` never returns, and the test must not hang.
_DEAD_WORKER_RUN_CHUNKS = """
from tests.test_serve_supervisor import _fixed_workload, _service
from repro.errors import WorkerDeadError

config, family, queries, frames, chunks = _fixed_workload()
service = _service(config, family, queries, frames, 2, "process",
                   queue_capacity=1, batch_chunks=1)
try:
    service.run_chunks(chunks[:1])
    service._executor.kill(0)
    try:
        service.run_chunks(chunks[1:] + chunks)
    except WorkerDeadError as exc:
        print("raised WorkerDeadError", exc.worker_id)
finally:
    service.close()
print("closed")
"""


def test_unsupervised_dead_worker_fails_a_long_run_chunks_not_hangs():
    """A dead worker's inbox fills up: a ``run_chunks`` of many chunks
    (one batch each, one slot per inbox) then blocks on a put, not on a
    receive, and that put must raise ``WorkerDeadError`` too; the
    service still closes."""
    repo = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(repo / "src"), str(repo), env.get("PYTHONPATH", "")]
    )
    child = subprocess.Popen(
        [sys.executable, "-c", _DEAD_WORKER_RUN_CHUNKS],
        cwd=repo, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, err = child.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        # Take the child's workers down with it.
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        pytest.fail("run_chunks hung on a dead worker's full inbox")
    assert child.returncode == 0, err
    assert out.split("\n")[:2] == ["raised WorkerDeadError 0", "closed"]


def test_close_is_idempotent_on_healthy_service():
    config, family, queries, frames, chunks = _fixed_workload()
    service = _service(config, family, queries, frames, 2, "process")
    _drive(service, chunks)
    service.close()
    service.close()


def test_two_backends_and_one_supervision_switch():
    """Only ``serial`` and ``process`` exist; ``supervisor=`` is the one
    way to ask for supervision, and serial workers still cannot have
    it. Every refusal comes before a worker is built."""
    config, family, queries, frames, _ = _fixed_workload()
    with pytest.raises(ServeError, match=r"\('serial', 'process'\)"):
        _service(config, family, queries, frames, 2, "thread")
    with pytest.raises(TypeError, match="supervise"):
        _service(config, family, queries, frames, 2, "process",
                 supervise=True)
    with pytest.raises(ServeError, match="serial backend"):
        _service(config, family, queries, frames, 2, "serial",
                 supervisor=SupervisorConfig())


# ----------------------------------------------------------------------
# shared-memory crash hygiene (satellite)
# ----------------------------------------------------------------------


class _Batch:
    """Minimal publishable payload (shape of a WindowBatch)."""

    def __init__(self, base_seq=0):
        self.base_seq = base_seq
        self.chunk_windows = np.asarray([1], dtype=np.int64)
        self.block = WindowBlock.single(0, 0, 5, np.zeros(NUM_HASHES))
        self.num_chunks = 1
        self.windows_skipped = self.frames_skipped = 0


def test_shm_reader_refcounts_survive_crashes():
    ring = ShmBatchRing(2)
    try:
        descriptor = ring.publish(
            _Batch(), readers=[0, 1], wait_for_slot=lambda: None
        )
        assert ring.total_outstanding_refs() == 2
        assert ring.outstanding() == {descriptor.slot: (0, 1)}
        # Releasing the same reader twice is a no-op, not a double-free
        # (a replayed reply must not corrupt the arming of the slot).
        ring.release(descriptor.slot, 0)
        ring.release(descriptor.slot, 0)
        assert ring.total_outstanding_refs() == 1
        # A crashed reader's refs are swept in one pass.
        assert ring.sweep_reader(1) == 1
        assert ring.total_outstanding_refs() == 0
        # Fully released slots reject further releases.
        with pytest.raises(ServeError):
            ring.release(descriptor.slot, 1)
        # sweep_all clears whatever is left at teardown.
        ring.publish(_Batch(1), readers=[7], wait_for_slot=lambda: None)
        assert ring.sweep_all() == 1
        assert ring.total_outstanding_refs() == 0
    finally:
        ring.close()


# ----------------------------------------------------------------------
# chaos plan format
# ----------------------------------------------------------------------


def test_chaos_plan_parse_and_render_round_trip():
    plan = ChaosPlan.parse("kill:0@2, stall:1@3:0.25, poison:0@7")
    assert plan.spec() == "kill:0@2,stall:1@3:0.25,poison:0@7"
    assert [e.kind for e in plan.for_worker(0)] == ["kill", "poison"]
    assert plan.for_worker(1)[0].stall_seconds == 0.25
    assert ChaosPlan.parse(plan.spec()).spec() == plan.spec()


def test_chaos_plan_rejects_malformed_specs():
    with pytest.raises(ServeError):
        ChaosPlan.parse("melt:0@2")  # unknown kind
    with pytest.raises(ServeError):
        ChaosPlan.parse("kill:0@0")  # positions are 1-based
    with pytest.raises(ServeError):
        ChaosPlan.parse("kill:0@2,kill:0@2")  # duplicate slot
    with pytest.raises(ServeError):
        ChaosEvent("stall", worker_id=0, at_seq=1)  # needs a duration
    plan = ChaosPlan.parse("kill:5@1")
    with pytest.raises(ServeError):
        plan.validate_workers(2)


def test_chaos_plan_generation_is_deterministic():
    one = ChaosPlan.generate(99, num_workers=3, horizon=10)
    two = ChaosPlan.generate(99, num_workers=3, horizon=10)
    other = ChaosPlan.generate(100, num_workers=3, horizon=10)
    assert one.spec() == two.spec()
    assert one.spec() != other.spec()
    assert all(1 <= e.at_seq <= 10 for e in one.events)
    assert {e.worker_id for e in one.events} == {0, 1, 2}
    one.validate_workers(3)
