"""End-to-end gateway tests: parity, resume, flow control, hygiene.

The workload here is the repo's canonical match-producing stream: two
sketched queries planted verbatim inside a 120-frame stream, detected
by a 32-hash family at threshold 0.3. Every parity assertion compares
the gateway's pushed match stream bit-for-bit (similarity included)
against a fresh in-process session over the same chunks.
"""

import functools
import socket
import threading
import time
from dataclasses import astuple as _match_key

import numpy as np
import pytest

from repro.archive import SketchArchive
from repro.config import DetectorConfig
from repro.core.query import QuerySet
from repro.features.pipeline import FingerprintExtractor
from repro.gateway import (
    AdminClient,
    GatewayServer,
    IngestClient,
    WatchClient,
)
from repro.ingest import (
    DegradationPolicy, EncodedChunkSource, FaultInjector, FaultPlan,
    StreamChunk, StreamSession, SyntheticSource,
)
from repro.minhash.family import MinHashFamily
from repro.serve import ChaosPlan, DetectionService, SupervisorConfig
from repro.serve.queues import BackpressurePolicy, BoundedChannel
from tests.test_backfill import LATE_QID, _from_start

CELL_SPACE = 500
NUM_HASHES = 32
KPS = 2.0
STREAM_FRAMES = 120
CHUNK_FRAMES = 10


def _config() -> DetectorConfig:
    return DetectorConfig(
        num_hashes=NUM_HASHES, threshold=0.3, window_seconds=2.5
    )


def _workload():
    """Queries + chunked stream with both queries planted verbatim."""
    rng = np.random.default_rng(42)
    qcells = {
        0: rng.integers(0, CELL_SPACE, size=20),
        1: rng.integers(0, CELL_SPACE, size=30),
    }
    frames = {0: 20, 1: 30}
    stream = rng.integers(0, CELL_SPACE, size=STREAM_FRAMES)
    stream[30:50] = qcells[0]
    stream[70:100] = qcells[1]
    chunks = [
        stream[start : start + CHUNK_FRAMES].astype(np.int64)
        for start in range(0, STREAM_FRAMES, CHUNK_FRAMES)
    ]
    return qcells, frames, chunks


@functools.lru_cache(maxsize=None)
def _encoded_workload():
    """Toy-MPEG chunks (KPS key frames/s) under seeded bit flips that
    destroy key frames, and two queries cut from the clean stream."""
    source = SyntheticSource(0, seed=40, num_chunks=12)
    clean = [source.encode_chunk(index) for index in range(12)]
    cells = [FingerprintExtractor().cell_ids_from_encoded(v) for v in clean]
    qcells = {0: np.concatenate(cells[3:5]), 1: np.concatenate(cells[8:11])}
    damaged = FaultInjector(
        EncodedChunkSource(0, clean), FaultPlan(bit_flip=0.5, max_flips=2),
        seed=0,
    )
    frames = {qid: len(ids) for qid, ids in qcells.items()}
    return qcells, frames, [chunk.payload for chunk in damaged]


def make_service(backend: str = "process", workload=_workload, **extra):
    qcells, frames, _ = workload()
    family = MinHashFamily(num_hashes=NUM_HASHES, seed=5)
    queries = QuerySet.from_cell_ids(qcells, frames, family)
    return DetectionService(
        _config(), queries, KPS, num_workers=2, backend=backend, **extra
    )


def _match_tuple(source) -> tuple:
    if isinstance(source, dict):  # a watch event header
        return (source["qid"], source["window_index"],
                source["start_frame"], source["end_frame"],
                source["similarity"])
    return (source.qid, source.window_index, source.start_frame,
            source.end_frame, source.similarity)


def _reference_run(workload=_workload, degrade=DegradationPolicy.ZERO_FILL):
    """The in-process ground truth: same chunks through a session over
    the same service shape."""
    _, _, chunks = workload()
    service = make_service(workload=workload)
    session = StreamSession(
        0, extractor=FingerprintExtractor(), policy=degrade, service=service
    )
    try:
        for seq, chunk in enumerate(chunks):
            session.process_chunk(StreamChunk(0, seq, chunk))
        session.finish()
        matches = [_match_tuple(m) for m in service.collector.matches]
        metrics = service.metrics_snapshot()
    finally:
        service.close()
    return matches, metrics


def _stable_metrics(snapshot: dict) -> dict:
    """The deterministic counters only — timing-dependent backpressure
    and shared-memory-wait counts differ run to run by design, and so
    does the batch count, which follows how many chunks were queued
    when the gateway's service thread took them."""
    return {
        name: value
        for name, value in snapshot["counters"].items()
        if not any(
            s in name
            for s in ("backpressure", "shm", "wait", "transport.batches")
        )
    }


@pytest.mark.parametrize("case", ["process", "skip_window"])
def test_kill_resume_parity(case):
    """A mid-stream client crash + token resume must change nothing:
    the watched match stream is bit-for-bit the in-process stream —
    with ``skip_window``, over encoded chunks whose damage the shared
    front end turns into window-clock gaps."""
    workload, degrade = _workload, DegradationPolicy.ZERO_FILL
    if case == "skip_window":
        workload, degrade = _encoded_workload, DegradationPolicy.SKIP_WINDOW
    reference, ref_metrics = _reference_run(workload, degrade)
    assert reference, "workload must produce matches to be a real test"
    gaps = ref_metrics["counters"]["stream.windows_skipped"]
    assert bool(gaps) == (case == "skip_window")

    _, _, chunks = workload()
    service = make_service(workload=workload)
    server = GatewayServer(service, credits=4, degrade=degrade)
    handle = server.run_in_thread()
    try:
        watcher = WatchClient("127.0.0.1", handle.port, credits=1 << 16)

        first = IngestClient("127.0.0.1", handle.port)
        push = first.push if case == "process" else first.push_encoded
        token = first.token
        assert first.last_seq == -1
        for seq in range(6):
            push(seq, chunks[seq])
        first.drain()
        first.kill()  # crash: no bye, no end

        second = IngestClient(
            "127.0.0.1", handle.port, resume_token=token
        )
        assert second.token == token
        assert second.last_seq == 5
        # Deliberately replay two already-processed chunks: the
        # session's seq-dedupe must absorb the overlap.
        push = second.push if case == "process" else second.push_encoded
        for seq in range(second.last_seq - 1, len(chunks)):
            push(seq, chunks[seq])
        total = second.end()
        second.close()

        watched = [_match_tuple(event) for event in watcher.matches()]
        assert watcher.total == len(reference)
        watcher.close()

        assert total == len(reference)
        assert watched == reference
        assert _stable_metrics(service.metrics_snapshot()) == \
            _stable_metrics(ref_metrics)
        assert server.registry.counter("gateway.resumes") == 1
    finally:
        handle.stop(drain=False, flush=False)
        service.close()


def test_watch_resume_continues_without_replay_or_loss():
    reference, _ = _reference_run()
    _, _, chunks = _workload()
    service = make_service()
    server = GatewayServer(service, credits=4)
    handle = server.run_in_thread()
    try:
        first = WatchClient("127.0.0.1", handle.port, credits=1 << 16)
        token = first.token

        client = IngestClient("127.0.0.1", handle.port)
        for seq, chunk in enumerate(chunks):
            client.push(seq, chunk)
        total = client.end()
        client.close()
        assert total == len(reference)

        seen = []
        for event in first.matches():
            seen.append(_match_tuple(event))
            if len(seen) == len(reference) // 2:
                break
        first.kill()  # crash mid-consumption

        resumed = WatchClient(
            "127.0.0.1", handle.port,
            resume_token=token, last_acked=first.last_acked,
        )
        assert resumed.next_match == first.last_acked + 1
        seen.extend(_match_tuple(event) for event in resumed.matches())
        resumed.close()
        assert seen == reference
    finally:
        handle.stop(drain=False, flush=False)
        service.close()


class _StalledSession:
    """Holds the service thread inside process_chunks until released."""

    def __init__(self, server):
        self.gate = threading.Event()
        self.entered = threading.Event()
        self.calls = []  # chunks per session call
        self._server = server

    def install(self):
        session = self._server._session
        original = session.process_chunks

        def stalled(chunks):
            self.calls.append(len(chunks))
            self.entered.set()
            assert self.gate.wait(timeout=30), "test gate never released"
            return original(chunks)

        session.process_chunks = stalled


def _chunk_matches():
    """Each chunk's match count when chunks go one call at a time."""
    _, _, chunks = _workload()
    service = make_service(backend="serial")
    session = StreamSession(0, service=service)
    try:
        return [
            len(session.process_chunk(StreamChunk(0, seq, chunk)))
            for seq, chunk in enumerate(chunks)
        ]
    finally:
        service.close()


def test_queued_chunks_share_one_session_call():
    """Chunks queued behind a busy service thread go through one session
    call, as ceil(N / batch_chunks) transport batches; the acks still
    come one per chunk in seq order with the uncoalesced ``matches``
    counts, and the watched stream is the reference."""
    reference, _ = _reference_run()
    expected = _chunk_matches()
    assert any(expected), "chunks must carry matches to be a real test"
    _, _, chunks = _workload()
    service = make_service()
    server = GatewayServer(service, credits=8)
    handle = server.run_in_thread()
    stall = None
    try:
        watcher = WatchClient("127.0.0.1", handle.port, credits=1 << 16)
        client = IngestClient("127.0.0.1", handle.port)
        stall = _StalledSession(server)
        stall.install()

        client.push(0, chunks[0])
        assert stall.entered.wait(timeout=10)
        queued = server.credit_window - 1
        for seq in range(1, 1 + queued):
            client.push(seq, chunks[seq])
        deadline = time.monotonic() + 10
        while len(server._pending) < queued:
            assert time.monotonic() < deadline, "chunks never queued"
            time.sleep(0.01)
        batches = service.registry.counter("serve.transport.batches")
        stall.gate.set()
        client.drain()
        assert stall.calls == [1, queued]
        assert service.registry.counter("serve.transport.batches") - \
            batches == 1 + -(-queued // service.batch_chunks)

        for seq in range(1 + queued, len(chunks)):
            client.push(seq, chunks[seq])
        total = client.end()
        assert list(client.acked) == list(range(len(chunks)))
        assert list(client.acked.values()) == expected

        watched = [_match_tuple(event) for event in watcher.matches()]
        assert watched == reference
        assert total == len(reference)
        watcher.close()
        client.close()
    finally:
        if stall is not None:
            stall.gate.set()
        handle.stop(drain=False, flush=False)
        service.close()


def test_lone_chunk_is_acked_at_once():
    """An idle gateway ships a lone chunk without waiting for company."""
    expected = _chunk_matches()
    _, _, chunks = _workload()
    service = make_service()
    handle = GatewayServer(service, credits=8).run_in_thread()
    try:
        client = IngestClient("127.0.0.1", handle.port)
        client.push(0, chunks[0])
        drained = threading.Thread(target=client.drain, daemon=True)
        drained.start()
        drained.join(timeout=10)
        assert not drained.is_alive(), "the lone chunk was never acked"
        assert client.acked == {0: expected[0]}
        client.close()
    finally:
        handle.stop(drain=False, flush=False)
        service.close()


@pytest.mark.parametrize(
    "policy", [BackpressurePolicy.SHED, BackpressurePolicy.DROP_OLDEST]
)
def test_lossy_policies_surface_counted_drop_notices(policy):
    """With a backed-up channel, lossy policies must refuse chunks,
    refund the credit, notify the client, and count ``gateway.drops``."""
    service = make_service()
    server = GatewayServer(service, credits=4, policy=policy)
    # The credit window normally sizes the channel so a compliant
    # client can never overrun it; shrink the channel to model a
    # gateway whose service is slower than its wire.
    server._pending = BoundedChannel(2)
    handle = server.run_in_thread()
    try:
        _, _, chunks = _workload()
        client = IngestClient("127.0.0.1", handle.port)
        assert client.policy == policy.value

        stall = _StalledSession(server)
        stall.install()

        # seq 0 is taken by the service thread and parked; the channel
        # (capacity 2) then fills with seqs 1-2; seq 3 must overflow.
        client.push(0, chunks[0])
        assert stall.entered.wait(timeout=10)
        for seq in (1, 2, 3):
            client.push(seq, chunks[seq])
        deadline = time.monotonic() + 10
        while not client.dropped and time.monotonic() < deadline:
            client._pump_once()
        assert client.dropped, "no drop notice arrived"
        if policy is BackpressurePolicy.SHED:
            assert client.dropped == [3]  # the refused newcomer
        else:
            assert client.dropped == [1]  # the stolen oldest
        stall.gate.set()
        client.drain()
        # Exactly one loss: the other three chunks were all acked, and
        # every lost credit was refunded.
        assert sorted(client.acked) == sorted(
            set(range(4)) - set(client.dropped)
        )
        assert client.credits == 4
        assert server.registry.counter("gateway.drops") == 1
        client.close()
    finally:
        stall.gate.set()
        handle.stop(drain=False, flush=False)
        service.close()


def test_block_policy_starves_credits_not_memory():
    """Under ``block``, a slow service stalls the client's credit
    window instead of queueing unboundedly; the stall is counted."""
    service = make_service()
    server = GatewayServer(
        service, credits=2, policy=BackpressurePolicy.BLOCK
    )
    handle = server.run_in_thread()
    try:
        _, _, chunks = _workload()
        client = IngestClient("127.0.0.1", handle.port)
        stall = _StalledSession(server)
        stall.install()

        client.push(0, chunks[0])
        assert stall.entered.wait(timeout=10)
        client.push(1, chunks[1])
        assert client.credits == 0

        done = threading.Event()

        def push_third():
            client.push(2, chunks[2])  # must block awaiting a refund
            done.set()

        thread = threading.Thread(target=push_third, daemon=True)
        thread.start()
        assert not done.wait(timeout=0.5), (
            "push with zero credits returned while the service was "
            "stalled — flow control is not real"
        )
        stall.gate.set()
        assert done.wait(timeout=10)
        thread.join(timeout=10)
        client.drain()
        assert sorted(client.acked) == [0, 1, 2]
        assert client.dropped == []
        assert server.registry.counter("gateway.credit_stalls") >= 1
        client.close()
    finally:
        stall.gate.set()
        handle.stop(drain=False, flush=False)
        service.close()


def test_admin_lifecycle_and_checkpoint(tmp_path):
    """Mid-stream subscribe detects a later-planted copy; stats carry
    the gateway section; checkpoint lands on disk at a chunk barrier."""
    rng = np.random.default_rng(7)
    late_cells = rng.integers(0, CELL_SPACE, size=15)
    _, _, chunks = _workload()
    # Plant the late query's copy in the last 15 frames (seqs 10-11).
    chunks = [chunk.copy() for chunk in chunks]
    tail = np.concatenate(chunks[10:])
    tail[5:] = late_cells
    chunks[10], chunks[11] = tail[:10].copy(), tail[10:].copy()

    service = make_service()
    server = GatewayServer(
        service, credits=4, checkpoint_dir=tmp_path
    )
    handle = server.run_in_thread()
    try:
        admin = AdminClient("127.0.0.1", handle.port)
        client = IngestClient("127.0.0.1", handle.port)

        for seq in range(6):
            client.push(seq, chunks[seq])
        client.drain()

        shard = admin.subscribe(2, late_cells, 15, label="late")
        assert shard >= 0
        qids = {entry["qid"] for entry in admin.list_queries()}
        assert qids == {0, 1, 2}

        for seq in range(6, len(chunks)):
            client.push(seq, chunks[seq])
        total = client.end()

        matched_qids = {m.qid for m in service.collector.matches}
        assert 2 in matched_qids, "mid-stream subscription never fired"
        assert total == len(service.collector.matches)

        stats = admin.stats()
        assert stats["gateway"]["counters"]["gateway.chunks"] == 12
        path = admin.checkpoint()
        assert (tmp_path / path).exists() or __import__(
            "pathlib"
        ).Path(path).exists()

        admin.unsubscribe(2)
        qids = {entry["qid"] for entry in admin.list_queries()}
        assert qids == {0, 1}

        admin.close()
        client.close()
    finally:
        handle.stop(drain=False, flush=False)
        service.close()


def _late_entry(admin):
    return {entry["qid"]: entry for entry in admin.list_queries()}[LATE_QID]


def _wait_for(predicate, seconds=10.0):
    deadline = time.monotonic() + seconds
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.01)


def test_mid_stream_backfill_over_the_wire_equals_from_start():
    """A query subscribed mid-stream over the admin channel with
    ``backfill=N`` reports, once the stream ends, exactly what it would
    have reported subscribed from the first chunk: the service thread
    pumps backfill while idle and between chunk calls, and the final
    flush finishes it."""
    rng = np.random.default_rng(11)
    late_cells = rng.integers(0, CELL_SPACE, size=15)
    qcells, frames, chunks = _workload()
    # Copies of the late query before its subscription (retro) and
    # after it (live).
    chunks = [chunk.copy() for chunk in chunks]
    stream = np.concatenate(chunks)
    stream[12:27] = late_cells
    stream[100:115] = late_cells
    chunks = np.split(stream, len(chunks))
    family = MinHashFamily(num_hashes=NUM_HASHES, seed=5)
    reference = _from_start(
        _config(), family, qcells, frames, late_cells, 15, chunks,
        num_workers=2,
    )

    service = make_service(
        archive=SketchArchive(family.fingerprint, NUM_HASHES)
    )
    server = GatewayServer(service, credits=4)
    handle = server.run_in_thread()
    try:
        admin = AdminClient("127.0.0.1", handle.port)
        client = IngestClient("127.0.0.1", handle.port)
        for seq in range(6):
            client.push(seq, chunks[seq])
        client.drain()
        admin.subscribe(LATE_QID, late_cells, 15, backfill=10**6)
        # No chunk follows yet: the idle service thread pumps the
        # archived windows on its own.
        _wait_for(lambda: _late_entry(admin)["backfill_done"] > 0)
        idle_done = _late_entry(admin)["backfill_done"]
        for seq in range(6, len(chunks)):
            client.push(seq, chunks[seq])
        client.drain()
        # The shadow windows arrive with the chunks, before any flush.
        _wait_for(
            lambda: _late_entry(admin)["backfill_done"] > idle_done
        )
        client.end()
        client.close()

        late = _late_entry(admin)
        admin.close()
        assert late["backfill_total"] > 0
        assert late["backfill_done"] == late["backfill_total"]
        assert late["retro_matches"] == len(service.retro_matches) > 0
        got = [_match_key(m) for m in service.all_matches()]
        assert got == reference
    finally:
        handle.stop(drain=False, flush=False)
        service.close()


def test_backfill_read_failure_leaves_the_gateway_serving(tmp_path):
    """A sealed segment that fails its CRC check fails the backfill job
    reading it, on the service thread: the failure is counted, the job
    is retired, and the same thread goes on acking chunks, answering
    admin ops and ending the stream, whose live matches are the
    reference's."""
    from tests.test_backfill import _damage_sealed_segments

    qcells, frames, chunks = _workload()
    reference = [
        m for m in _reference_run()[0] if m[0] in qcells
    ]
    family = MinHashFamily(num_hashes=NUM_HASHES, seed=5)
    service = make_service(
        archive=SketchArchive(
            family.fingerprint, NUM_HASHES,
            directory=tmp_path, segment_windows=4,
        )
    )
    server = GatewayServer(service, credits=4)
    handle = server.run_in_thread()
    try:
        admin = AdminClient("127.0.0.1", handle.port)
        client = IngestClient("127.0.0.1", handle.port)
        for seq in range(6):
            client.push(seq, chunks[seq])
        client.drain()
        _damage_sealed_segments(tmp_path)
        admin.subscribe(LATE_QID, qcells[0], 20, backfill=10**6)
        _wait_for(
            lambda: service.registry.counter("archive.backfill_failures")
        )
        for seq in range(6, len(chunks)):
            client.push(seq, chunks[seq])
        client.end()
        client.close()
        late = _late_entry(admin)
        admin.close()
        assert late["backfill_done"] < late["backfill_total"]
        assert service.registry.counter("archive.backfill_failures") == 1
        got = [
            _match_tuple(m) for m in service.matches if m.qid in qcells
        ]
        assert got == reference
    finally:
        handle.stop(drain=False, flush=False)
        service.close()


def test_graceful_drain_sends_goaway_and_leaks_nothing():
    """Shutdown must flush the tail, goaway the clients with resume
    state, join every thread, and release the port."""
    before = {t.name for t in threading.enumerate()}
    reference, _ = _reference_run()
    _, _, chunks = _workload()
    service = make_service()
    server = GatewayServer(service, credits=4)
    handle = server.run_in_thread()
    port = handle.port

    watcher = WatchClient("127.0.0.1", port, credits=1 << 16)
    client = IngestClient("127.0.0.1", port)
    for seq, chunk in enumerate(chunks):
        client.push(seq, chunk)
    client.drain()

    # Drain with flush: the unflushed window tail must be processed,
    # remaining matches pushed, and everyone told to go away.
    handle.stop(drain=True, flush=True)
    service.close()

    watched = [_match_tuple(event) for event in watcher.matches()]
    assert watched == reference
    assert server.registry.counter("gateway.goaways") >= 1
    watcher.close()
    client.close()

    with pytest.raises(OSError):
        socket.create_connection(("127.0.0.1", port), timeout=0.5)

    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        leaked = {
            t.name for t in threading.enumerate() if t.is_alive()
        } - before
        if not leaked:
            break
        time.sleep(0.05)
    assert not leaked, f"threads leaked across shutdown: {leaked}"


def test_shard_restart_starves_credits_and_keeps_parity():
    """A mid-stream worker kill under supervision is invisible on the
    wire: the ingest session only ever sees flow control (credit
    starvation while the shard restarts and its batches replay), never
    a ``chunk_error``, and the final stream is bit-for-bit the
    undisturbed reference."""
    reference, _ = _reference_run()
    assert reference, "workload must produce matches to be a real test"

    _, _, chunks = _workload()
    service = make_service(
        chaos=ChaosPlan.parse("kill:0@3"),
        supervisor=SupervisorConfig(recv_deadline=1.0),
    )
    server = GatewayServer(service, credits=1)
    handle = server.run_in_thread()
    try:
        watcher = WatchClient("127.0.0.1", handle.port, credits=1 << 16)
        client = IngestClient("127.0.0.1", handle.port)
        for seq, chunk in enumerate(chunks):
            client.push(seq, chunk)
        total = client.end()

        # The crash surfaced as backpressure, not as an error.
        assert sorted(client.acked) == list(range(len(chunks)))
        assert client.dropped == []
        assert server.registry.counter("gateway.errors") == 0
        assert server.registry.counter("gateway.credit_stalls") >= 1
        assert service.registry.counter("serve.supervisor.restarts") >= 1

        # Watchers see every post-recovery match exactly once.
        watched = [_match_tuple(event) for event in watcher.matches()]
        assert watched == reference
        assert total == len(reference)
        watcher.close()
        client.close()
    finally:
        handle.stop(drain=False, flush=False)
        service.close()


def test_quarantined_shard_degrades_queries_not_the_stream():
    """When the restart budget is exhausted the shard is quarantined:
    its queries report ``degraded`` over admin (flagged, not dropped),
    the ended reply is marked partial, and the surviving shard's
    matches are bit-for-bit the reference's."""
    reference, _ = _reference_run()
    _, _, chunks = _workload()
    service = make_service(
        chaos=ChaosPlan.parse("kill:0@3"),
        supervisor=SupervisorConfig(recv_deadline=1.0, max_restarts=0),
    )
    server = GatewayServer(service, credits=4)
    handle = server.run_in_thread()
    try:
        watcher = WatchClient("127.0.0.1", handle.port, credits=1 << 16)
        admin = AdminClient("127.0.0.1", handle.port)
        client = IngestClient("127.0.0.1", handle.port)
        for seq, chunk in enumerate(chunks):
            client.push(seq, chunk)
        total = client.end()

        assert service.registry.counter(
            "serve.supervisor.quarantines"
        ) == 1
        degraded = service.degraded_shards()
        assert degraded, "the kill should have exhausted the budget"
        status = {
            entry["qid"]: entry["status"]
            for entry in admin.list_queries()
        }
        degraded_qids = {
            qid for qid, state in status.items() if state == "degraded"
        }
        assert degraded_qids == {
            qid for qid in status
            if service.shard_of(qid) in degraded
        }
        assert degraded_qids and degraded_qids != set(status)
        assert service.partial

        # The quarantined shard stops contributing after its last
        # consumed reply (stream message 3 = basic window 4 on this
        # workload); the surviving shard is untouched.
        expected = [
            m for m in reference
            if m[0] not in degraded_qids or m[1] < 4
        ]
        watched = [_match_tuple(event) for event in watcher.matches()]
        assert watched == expected
        assert total == len(expected)
        watcher.close()
        admin.close()
        client.close()
    finally:
        handle.stop(drain=False, flush=False)
        service.close()
