"""``wire_small_chunks``: 8 queries, 10-frame chunks over the gateway.

The service (``backend="process"``, 2 shards) and its ``GatewayServer``
live in a child process (``wire_child.py``); the harness is the load
generator: one ``IngestClient`` on the main thread, one ``WatchClient``
thread receiving matches.

* Phase A — closed loop under the credit window: push every chunk, end
  the stream, stop the clock when the watcher has seen the stream end.
  Gives ``frames_per_s``.
* Phase B — open loop on a fresh child: chunk ``i`` is due at
  ``t0 + i / rate`` whatever the system does; a match's latency runs
  from the *scheduled* send of the chunk holding its last frame to the
  watcher receiving it, so a stalled generator counts against the
  system. Gives ``latency_ms_p50`` and the tail beside it.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.config import DetectorConfig
from repro.core.query import QuerySet
from repro.gateway import AdminClient, IngestClient, WatchClient
from repro.minhash.family import MinHashFamily
from repro.serve import DetectionService

from benchmarks.ledger import spec
from benchmarks.ledger.common import (
    REPO_ROOT, PassResult, first_difference, match_key, percentile,
)
from benchmarks.ledger.fanin import cell_id_reference, chunked

NAME = "wire_small_chunks"
NUM_QUERIES = 8
#: short queries (2-3 basic windows): a planted copy then yields a few
#: match events in one or two chunks, so matches — the latency samples —
#: spread evenly over the stream instead of arriving in bursts.
QUERY_FRAMES = (10, 15)
CELL_SPACE = 4000
WINDOW_SECONDS = 2.5
THRESHOLD = 0.7
CHUNK_FRAMES = 10
#: one planted copy per this many chunks. Phase A: about one match
#: event per chunk. Phase B plants twice as densely: a match is the only
#: way to see a latency, and over a thousand chunks with one give the
#: tail five blocks of 200 samples to take its median over.
COPY_EVERY_CHUNKS = 4
COPY_EVERY_CHUNKS_B = 2
HOST = "127.0.0.1"
CHILD_TIMEOUT_S = 60.0


def detector_config() -> DetectorConfig:
    return DetectorConfig(
        num_hashes=spec.NUM_HASHES,
        threshold=THRESHOLD,
        window_seconds=WINDOW_SECONDS,
    )


def make_queries(seed: int) -> Dict[int, np.ndarray]:
    """The query cell ids — a pure function of the seed, because the
    child process rebuilds them instead of receiving them."""
    rng = np.random.default_rng([seed, 2])
    return {
        qid: rng.integers(
            0, CELL_SPACE,
            size=int(rng.integers(QUERY_FRAMES[0], QUERY_FRAMES[1] + 1)),
        )
        for qid in range(NUM_QUERIES)
    }


def build_queries(seed: int) -> QuerySet:
    cells = make_queries(seed)
    return QuerySet.from_cell_ids(
        cells,
        {qid: int(ids.shape[0]) for qid, ids in cells.items()},
        MinHashFamily(num_hashes=spec.NUM_HASHES, seed=seed),
    )


def _stream(
    rng, cells, num_chunks: int, copy_every: int = COPY_EVERY_CHUNKS
) -> List[np.ndarray]:
    stream = rng.integers(0, CELL_SPACE, size=num_chunks * CHUNK_FRAMES)
    for start in range(0, num_chunks - 4, copy_every):
        copy = cells[int(rng.integers(0, NUM_QUERIES))]
        at = start * CHUNK_FRAMES + int(rng.integers(0, CHUNK_FRAMES))
        stream[at : at + copy.shape[0]] = copy
    return chunked(stream, CHUNK_FRAMES)


@dataclass
class Inputs:
    seed: int
    config: DetectorConfig
    phase_a: List[np.ndarray]
    phase_b: List[np.ndarray]
    rate: float


def make_inputs(seed: int, seconds: float, scale: spec.Scale) -> Inputs:
    rng = np.random.default_rng([seed, 3])
    cells = make_queries(seed)
    rate = spec.WIRE_OPEN_LOOP_CHUNKS_PER_SECOND
    return Inputs(
        seed=seed,
        config=detector_config(),
        phase_a=_stream(
            rng, cells,
            max(40, round(seconds * spec.WIRE_A_CHUNKS_PER_SECOND)),
        ),
        phase_b=_stream(
            rng, cells,
            max(40, round(seconds * spec.WIRE_B_SHARE * rate)),
            COPY_EVERY_CHUNKS_B,
        ),
        rate=rate,
    )


def size(inputs: Inputs) -> int:
    return len(inputs.phase_a)


# ----------------------------------------------------------------------
# the gateway child
# ----------------------------------------------------------------------


def _group_alive(group: int) -> bool:
    try:
        os.killpg(group, 0)
    except ProcessLookupError:
        return False
    return True


class GatewayChild:
    """The service + gateway process, driven over stdin/stdout."""

    def __init__(self, seed: int, trace_dir: Optional[Path]) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(REPO_ROOT / "src"), str(REPO_ROOT)]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        self._process = subprocess.Popen(
            [sys.executable, "-m", "benchmarks.ledger.wire_child",
             json.dumps({
                 "seed": seed,
                 "trace_dir": str(trace_dir) if trace_dir else None,
             })],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            cwd=REPO_ROOT, env=env,
            # its own process group, so kill() reaches its shard workers
            start_new_session=True,
        )
        try:
            ready = self._read()
        except Exception:
            self.kill()
            raise
        self.port: int = ready["port"]
        self.setup_samples: List[float] = ready["setup_samples"]

    def _read(self) -> Dict[str, object]:
        line = self._process.stdout.readline()
        if not line:
            raise RuntimeError(
                "the gateway child exited without answering "
                f"(code {self._process.poll()})"
            )
        return json.loads(line)

    def kill(self) -> None:
        """The failure path: SIGKILL the child with its workers and
        resource tracker, and return once the whole group is gone."""
        group = self._process.pid
        try:
            os.killpg(group, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self._process.wait()
        deadline = time.monotonic() + 5.0
        while _group_alive(group) and time.monotonic() < deadline:
            time.sleep(0.01)

    def stop(self) -> Dict[str, object]:
        """Drain and close the child; returns its parting report."""
        try:
            self._process.stdin.write("stop\n")
            self._process.stdin.flush()
            report = self._read()
            self._process.wait(timeout=CHILD_TIMEOUT_S)
        except Exception:
            self.kill()
            raise
        if self._process.returncode != 0:
            raise RuntimeError(
                f"the gateway child exited {self._process.returncode}"
            )
        return report


class _Watcher:
    """The second load-generator thread: receives every match event
    and stamps its arrival."""

    def __init__(self, port: int) -> None:
        self._client = WatchClient(HOST, port, credits=1 << 16)
        self.events: List[Tuple[float, Dict]] = []
        self._thread = threading.Thread(target=self._consume, daemon=True)
        self._thread.start()

    def _consume(self) -> None:
        clock = time.perf_counter
        for event in self._client.matches():
            self.events.append((clock(), event))

    def join(self) -> None:
        """Returns once the server announced the end of the stream."""
        self._thread.join(timeout=CHILD_TIMEOUT_S)
        if self._thread.is_alive() or self._client.total is None:
            raise RuntimeError("the watcher never saw the stream end")

    def close(self) -> None:
        self._client.close()


def _failed_ops(client: IngestClient, pushed: int) -> int:
    refused = len(client.dropped) + len(client.chunk_errors)
    return refused + (pushed - refused - len(client.acked))


@dataclass
class _Phase:
    begin: float
    elapsed_s: float
    progress: List[Tuple[float, int]]
    events: List[Tuple[float, Dict]]
    failed: int
    child_report: Dict[str, object]
    setup_samples: List[float]
    snapshot: Dict[str, object]
    send_log: Optional[Dict[str, object]] = None


def _run_phase(
    inputs: Inputs,
    chunks: List[np.ndarray],
    trace_dir: Optional[Path],
    open_loop: bool,
) -> _Phase:
    child = GatewayChild(inputs.seed, trace_dir)
    try:
        watcher = _Watcher(child.port)
        client = IngestClient(HOST, child.port)
        send_log = None
        clock = time.perf_counter
        begin = clock()
        progress = [(begin, 0)]
        if open_loop:
            send_log = _send_on_schedule(client, chunks, inputs.rate, begin)
        else:
            # Closed loop: push() returns as credit allows, so the push
            # times track the server's progress to within the window.
            for seq, chunk in enumerate(chunks):
                client.push(seq, chunk)
                progress.append((clock(), (seq + 1) * CHUNK_FRAMES))
        client.end()
        watcher.join()
        progress[-1] = (clock(), progress[-1][1])
        elapsed = progress[-1][0] - begin
        with AdminClient(HOST, child.port) as admin:
            snapshot = admin.stats()
        failed = _failed_ops(client, len(chunks))
        client.close()
        watcher.close()
    except Exception:
        child.kill()
        raise
    report = child.stop()
    return _Phase(
        begin=begin, elapsed_s=elapsed, progress=progress,
        events=watcher.events, failed=failed, child_report=report,
        setup_samples=child.setup_samples, snapshot=snapshot,
        send_log=send_log,
    )


def _send_on_schedule(
    client: IngestClient, chunks, rate: float, begin: float
) -> Dict[str, object]:
    """Open loop: chunk ``i`` is due at ``begin + i / rate``."""
    clock = time.perf_counter
    interval = 1.0 / rate
    late_ms: List[float] = []
    backlog_mid = 0
    half = len(chunks) // 2

    def backlog(sent: int) -> int:
        # Chunks due but not yet sent: when the server falls behind,
        # push() blocks on credit and the generator lags its schedule.
        # (The client's own credit count is only refreshed when it is
        # starved, so it cannot tell how many chunks are in flight.)
        due = min(len(chunks), int((clock() - begin) * rate) + 1)
        return max(0, due - sent)

    for seq, chunk in enumerate(chunks):
        due = begin + seq * interval
        wait = due - clock()
        if wait > 0:
            time.sleep(wait)
        late_ms.append(1e3 * max(0.0, clock() - due))
        client.push(seq, chunk)
        if seq == half:
            backlog_mid = backlog(seq + 1)
    return {
        "begin": begin,
        "late_ms": late_ms,
        "late_share": float(
            np.mean(np.asarray(late_ms) > 1e3 * interval)
        ),
        "backlog_mid": backlog_mid,
        "backlog_end": backlog(len(chunks)),
    }


def run_pass(
    inputs: Inputs,
    limit: Optional[int] = None,
    trace_dir: Optional[Path] = None,
) -> PassResult:
    if limit is not None:
        # Warm-up: one closed-loop child over a prefix is enough to
        # page in the interpreter, numpy and the fork path.
        phase = _run_phase(inputs, inputs.phase_a[:limit], None, False)
        return PassResult(
            frames=0, timed=(phase.begin, phase.begin + phase.elapsed_s),
            matches=[], setup_samples=phase.setup_samples,
        )
    phase_a = _run_phase(inputs, inputs.phase_a, trace_dir, False)
    frames = len(inputs.phase_a) * CHUNK_FRAMES
    window_frames = round(WINDOW_SECONDS * spec.KEYFRAMES_PER_SECOND)
    if trace_dir is not None:
        # The ledger follows the closed-loop phase; latency is only ever
        # measured untraced.
        return PassResult(
            setup_samples=phase_a.setup_samples,
            frames=frames,
            windows=frames // window_frames,
            timed=(phase_a.begin, phase_a.begin + phase_a.elapsed_s),
            progress=phase_a.progress,
            matches=[match_key(event) for _, event in phase_a.events],
            snapshot=phase_a.snapshot,
            chunks=len(inputs.phase_a),
            batches=len(inputs.phase_a),
        )
    phase_b = _run_phase(inputs, inputs.phase_b, None, True)

    log = phase_b.send_log
    interval = 1.0 / inputs.rate
    # One sample per chunk that produced matches: the arrival of its
    # last match (events arrive in stream order) minus the instant the
    # chunk holding the match's last frame was *due* to be sent.
    delivered: Dict[int, float] = {}
    for received, event in phase_b.events:
        delivered[(event["end_frame"] - 1) // CHUNK_FRAMES] = received
    latencies = [
        1e3 * (received - (log["begin"] + index * interval))
        for index, received in sorted(delivered.items())
    ]
    valid = (
        log["late_share"] <= 0.05
        and log["backlog_end"] <= max(log["backlog_mid"], spec.WIRE_CREDITS)
    )
    gateway = phase_a.snapshot.get("gateway", {}).get("counters", {})
    return PassResult(
        setup_samples=phase_a.setup_samples + phase_b.setup_samples,
        frames=frames,
        windows=frames // window_frames,
        timed=(phase_a.begin, phase_a.begin + phase_a.elapsed_s),
        progress=phase_a.progress,
        latencies_ms=latencies,
        matches=(
            [match_key(event) for _, event in phase_a.events]
            + [match_key(event) for _, event in phase_b.events]
        ),
        ops_attempted=len(inputs.phase_a) + len(inputs.phase_b),
        ops_failed=phase_a.failed + phase_b.failed,
        peak_rss_kb=max(
            phase_a.child_report["peak_rss_kb"],
            phase_b.child_report["peak_rss_kb"],
        ),
        snapshot=phase_a.snapshot,
        extra={
            "gateway.protocol.bytes_per_chunk": (
                (gateway.get("gateway.bytes_in", 0)
                 + gateway.get("gateway.bytes_out", 0))
                / len(inputs.phase_a)
            ),
            "gateway.credit_starved": float(
                gateway.get("gateway.credit_stalls", 0)
            ),
            "gateway.frames_in": float(gateway.get("gateway.frames_in", 0)),
            "gateway.match_latency_samples": float(len(latencies)),
            "gateway.match_events": float(len(phase_b.events)),
            "loadgen.late_ms_p95": percentile(log["late_ms"], 95.0),
            "loadgen.late_share": log["late_share"],
            "loadgen.backlog_end": float(log["backlog_end"]),
        },
        notes={
            "phase_b_valid": valid,
            "phase_b_chunks": len(inputs.phase_b),
            "phase_b_rate_chunks_per_s": inputs.rate,
            "phase_b_backlog_mid": log["backlog_mid"],
            "phase_a_matches": len(phase_a.events),
        },
        chunks=len(inputs.phase_a),
        batches=len(inputs.phase_a),
    )


def reference(inputs: Inputs) -> PassResult:
    """Single-process detector over each phase's stream; the rate is
    phase A's."""
    phase_a = cell_id_reference(
        inputs.config, build_queries(inputs.seed), inputs.phase_a
    )
    phase_b = cell_id_reference(
        inputs.config, build_queries(inputs.seed), inputs.phase_b
    )
    phase_a.notes["phase_a_matches"] = len(phase_a.matches)
    phase_a.matches = phase_a.matches + phase_b.matches
    return phase_a


def mismatch(result: PassResult, reference: PassResult) -> Optional[str]:
    """A traced pass runs phase A only; compare what was run."""
    expected = reference.matches
    if not result.latencies_ms:
        expected = expected[: reference.notes["phase_a_matches"]]
    return first_difference(result.matches, expected)


def twin_elapsed_s(inputs: Inputs) -> float:
    """Phase A's chunks through the same service without the wire: the
    figure the gateway's tax is measured against."""
    service = DetectionService(
        inputs.config, build_queries(inputs.seed),
        spec.KEYFRAMES_PER_SECOND, num_workers=2, backend="process",
    )
    try:
        begin = time.perf_counter()
        for chunk in inputs.phase_a:
            service.run([chunk], flush=False)
        service.flush()
        return time.perf_counter() - begin
    finally:
        service.close()
