"""Supervisor benchmark: recovery latency and supervision overhead.

Measures what the self-healing layer (`repro.serve.supervisor`) costs
when nothing fails, and how fast it heals when something does:

* **steady-state supervision overhead** — the identical chunk stream
  through an unsupervised process-backend service and a supervised one
  (no chaos), per worker count. Supervision adds a request log, a rolling
  ``("state",)`` snapshot probe every ``snapshot_every`` stream
  messages, and per-reply validation; the target is **< 5 %** of
  baseline throughput (enforced in full mode, reported in ``--quick``).
* **recovery latency** — a seeded ``kill:0@N`` chaos plan fells one
  worker mid-stream; the ``serve.supervisor.recovery`` timer measures
  kill detection → respawn from the rolling snapshot → replay of the
  logged batches → first post-restart reply, reported as mean
  milliseconds per recovery.

Every run of a workload must produce the identical match stream — the
serial reference, the unsupervised run, the supervised run and the
chaos run — and leave zero outstanding shared-memory references
after close.

Usage::

    PYTHONPATH=src python benchmarks/bench_supervisor.py [--quick]

Writes ``BENCH_SUPERVISOR.json`` at the repository root (override with
``--output``). Standalone CLI, not a pytest module; the rows feed
docs/robustness.md and the CI chaos-serve step.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time
from pathlib import Path
from typing import Dict, List

import numpy as np

from repro.config import DetectorConfig
from repro.core.query import QuerySet
from repro.minhash.family import MinHashFamily
from repro.serve import ChaosPlan, DetectionService, SupervisorConfig

BENCH_SEED = 20080407  # ICDE 2008 in Cancún
KEYFRAMES_PER_SECOND = 2.0
WINDOW_SECONDS = 5.0
THRESHOLD = 0.7
CELL_ID_SPACE = 40_960
QUERY_SECONDS = (40.0, 60.0)
CHUNK_WINDOWS = 8
SNAPSHOT_EVERY = 8
OVERHEAD_BUDGET = 0.05  # the satellite's steady-state target


def available_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def build_workload(rng: np.random.Generator, num_queries: int,
                   stream_frames: int):
    """Query cell ids and a chunked stream with planted copies."""
    frames_min = int(QUERY_SECONDS[0] * KEYFRAMES_PER_SECOND)
    frames_max = int(QUERY_SECONDS[1] * KEYFRAMES_PER_SECOND)
    cell_ids: Dict[int, np.ndarray] = {}
    frame_counts: Dict[int, int] = {}
    for qid in range(num_queries):
        n = int(rng.integers(frames_min, frames_max + 1))
        cell_ids[qid] = rng.integers(0, CELL_ID_SPACE, size=n)
        frame_counts[qid] = n
    stream = rng.integers(0, CELL_ID_SPACE, size=stream_frames)
    for qid in range(0, num_queries, max(1, num_queries // 3)):
        copy = np.asarray(cell_ids[qid])
        at = int(rng.integers(0, stream_frames - copy.size))
        stream[at : at + copy.size] = copy
    window_frames = max(1, round(WINDOW_SECONDS * KEYFRAMES_PER_SECOND))
    chunk_frames = CHUNK_WINDOWS * window_frames
    chunks = [
        stream[offset : offset + chunk_frames]
        for offset in range(0, stream_frames, chunk_frames)
    ]
    return cell_ids, frame_counts, chunks


def run_stream(config, family, cell_ids, frame_counts, chunks,
               workers, backend, **extra):
    """One timed pass, chunk by chunk (one stream message per chunk,
    matching the CLI's cadence so chaos positions mean chunk indices).
    Returns throughput, the match keys, and the metrics snapshot."""
    queries = QuerySet.from_cell_ids(cell_ids, frame_counts, family)
    service = DetectionService(
        config, queries, KEYFRAMES_PER_SECOND,
        num_workers=workers, backend=backend, **extra,
    )
    try:
        start = time.perf_counter()
        for position, chunk in enumerate(chunks):
            service.run([chunk], flush=position == len(chunks) - 1)
        elapsed = time.perf_counter() - start
        matches = [
            (m.qid, m.window_index, m.start_frame, m.end_frame,
             m.similarity)
            for m in service.matches
        ]
        metrics = service.metrics_snapshot()
    finally:
        service.close()
    frames = sum(len(chunk) for chunk in chunks)
    return {
        "frames_per_sec": frames / elapsed if elapsed > 0 else 0.0,
        "matches": matches,
        "metrics": metrics,
    }


def recovery_ms(metrics: Dict[str, object]) -> float:
    timer = metrics["timers"].get("serve.supervisor.recovery")
    if not timer or not timer["calls"]:
        raise SystemExit("chaos run recorded no recovery — plan misfired")
    return 1e3 * timer["seconds"] / timer["calls"]


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke mode: small stream, two workers, one repeat, "
        "overhead reported but not enforced",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=Path(__file__).resolve().parent.parent
        / "BENCH_SUPERVISOR.json",
        help="where to write the JSON report (default: repo root)",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=None,
        help="timed repeats per configuration (best throughput is kept)",
    )
    args = parser.parse_args(argv)

    num_queries = 8 if args.quick else 16
    stream_frames = 1600 if args.quick else 6400
    repeats = args.repeats or (1 if args.quick else 5)
    worker_counts = [2] if args.quick else [2, 4]

    config = DetectorConfig(
        num_hashes=128 if args.quick else 256,
        threshold=THRESHOLD,
        window_seconds=WINDOW_SECONDS,
    )
    family = MinHashFamily(num_hashes=config.num_hashes, seed=BENCH_SEED)
    rng = np.random.default_rng(BENCH_SEED)
    cell_ids, frame_counts, chunks = build_workload(
        rng, num_queries, stream_frames
    )
    kill_at = max(2, len(chunks) // 2)
    supervisor = SupervisorConfig(
        recv_deadline=2.0, snapshot_every=SNAPSHOT_EVERY
    )

    reference = run_stream(
        config, family, cell_ids, frame_counts, chunks, 1, "serial"
    )["matches"]
    if not reference:
        raise SystemExit("workload produced no matches — nothing to verify")

    results: List[Dict[str, object]] = []
    for workers in worker_counts:
        best_base = best_sup = None
        paired_overheads: List[float] = []
        recoveries: List[float] = []
        restarts = 0
        for _ in range(repeats):
            base = run_stream(
                config, family, cell_ids, frame_counts, chunks,
                workers, "process",
            )
            sup = run_stream(
                config, family, cell_ids, frame_counts, chunks,
                workers, "process", supervisor=supervisor,
            )
            chaos = run_stream(
                config, family, cell_ids, frame_counts, chunks,
                workers, "process", supervisor=supervisor,
                chaos=ChaosPlan.parse(f"kill:0@{kill_at}"),
            )
            for label, sample in (
                ("baseline", base), ("supervised", sup),
                ("chaos-kill", chaos),
            ):
                if sample["matches"] != reference:
                    raise SystemExit(
                        f"{label} w={workers} diverged from the serial "
                        f"reference ({len(sample['matches'])} vs "
                        f"{len(reference)} matches)"
                    )
                refs = sample["metrics"]["serve"]["shm_outstanding_refs"]
                if refs:
                    raise SystemExit(
                        f"{label} w={workers} leaked {refs} "
                        "shared-memory refs"
                    )
            recoveries.append(recovery_ms(chaos["metrics"]))
            restarts = chaos["metrics"]["counters"][
                "serve.supervisor.restarts"
            ]
            paired_overheads.append(
                1.0 - sup["frames_per_sec"] / base["frames_per_sec"]
            )
            if best_base is None or (
                base["frames_per_sec"] > best_base
            ):
                best_base = base["frames_per_sec"]
            if best_sup is None or sup["frames_per_sec"] > best_sup:
                best_sup = sup["frames_per_sec"]
        # Machine throughput drifts several percent over the minutes
        # a full run takes; the median of *adjacent-pair* ratios
        # cancels that drift where best-of ratios do not.
        overhead = float(np.median(paired_overheads))
        row = {
            "workers": workers,
            "baseline_frames_per_sec": best_base,
            "supervised_frames_per_sec": best_sup,
            "supervision_overhead": overhead,
            "recovery_ms": float(np.mean(recoveries)),
            "chaos_restarts": int(restarts),
            "matches": len(reference),
        }
        results.append(row)
        print(
            f"w={workers}: baseline "
            f"{best_base:9.0f} f/s, supervised {best_sup:9.0f} f/s "
            f"(overhead {100 * overhead:+5.1f}%), recovery "
            f"{row['recovery_ms']:7.1f} ms over {restarts} restart(s)"
        )
        if not args.quick and overhead > OVERHEAD_BUDGET:
            raise SystemExit(
                f"supervision overhead {100 * overhead:.1f}% at "
                f"w={workers} exceeds the "
                f"{100 * OVERHEAD_BUDGET:.0f}% budget"
            )

    report = {
        "benchmark": "supervisor",
        "backend": "process",
        "seed": BENCH_SEED,
        "quick": args.quick,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "cpu_cores": available_cores(),
        "overhead_budget": OVERHEAD_BUDGET,
        "workload": {
            "num_queries": num_queries,
            "stream_frames": stream_frames,
            "num_chunks": len(chunks),
            "chunk_windows": CHUNK_WINDOWS,
            "window_seconds": WINDOW_SECONDS,
            "keyframes_per_second": KEYFRAMES_PER_SECOND,
            "num_hashes": config.num_hashes,
            "threshold": THRESHOLD,
            "kill_at_chunk": kill_at,
            "snapshot_every": SNAPSHOT_EVERY,
            "matches": len(reference),
        },
        "results": results,
    }
    args.output.write_text(json.dumps(report, indent=1, sort_keys=True))
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
