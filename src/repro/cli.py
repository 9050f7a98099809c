"""Command-line interface: ``python -m repro <command>``.

Four subcommands cover the workflow a user of the original system would
need without writing Python:

* ``demo``   — build a seeded synthetic workload (VS1 or VS2), run the
  detector and print the detection report with precision/recall.
* ``sweep``  — sweep one detector parameter (K, delta or w) over the
  same workload and print the resulting series, the way the paper's
  figures are produced.
* ``stats``  — run the detector once and emit its full observability
  snapshot (phase timers + engine counters) as JSON plus a one-line
  logfmt digest.
* ``inspect``— encode a synthetic clip through the toy codec and report
  the bitstream structure plus partial-decode statistics.
* ``serve``  — run the same workload through the sharded multi-worker
  detection service (``repro.serve``): pick a worker count and backend,
  optionally checkpoint every N chunks and resume a killed run from the
  latest snapshot with ``--resume``.
* ``ingest`` — run the fault-tolerant multi-stream ingestion layer
  (``repro.ingest``): N synthetic bitstream sources, optional fault
  injection (bit flips, truncation, drops, duplicates, stalls), a
  degradation policy for damaged GOPs and a scheduling policy across
  streams. A query copy is planted in every stream so detection can be
  eyeballed end to end.
* ``gateway`` — serve detection over TCP (``repro.gateway``): builds
  the workload's query set, fronts a sharded service with the
  ``repro.wire/1`` protocol and runs until interrupted (graceful
  drain + final checkpoint on SIGINT/SIGTERM).
* ``push``   — stream the workload's chunks into a running gateway as
  an ingest client; ``--kill-after`` crashes mid-stream and prints the
  resume token, ``--resume-token`` continues where that left off.
* ``watch``  — subscribe to a running gateway's match stream and print
  events in canonical order as they happen.

``demo``, ``sweep``, ``stats``, ``serve`` and ``ingest`` all accept
``--metrics-out PATH`` to write the same ``repro.obs/1`` JSON snapshot
benchmarks dump next to their figures (sweeps write one snapshot per
swept value; serve writes the cross-worker merged snapshot).

``serve`` and ``ingest`` exit cleanly on SIGINT/SIGTERM: in-flight
chunks drain, stream tails flush (ingest) and — when a checkpoint
directory is configured — a final snapshot is written so ``--resume``
can continue the run.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import time
from itertools import accumulate
from typing import List, Optional, Sequence

from repro.codec.gop import decode_dc_coefficients, encode_video
from repro.config import (
    CombinationOrder,
    DetectorConfig,
    Representation,
    ScaleProfile,
)
from repro.core.results import merge_matches
from repro.evaluation.reporting import format_series, format_table
from repro.evaluation.runner import PreparedWorkload, run_detector
from repro.obs.registry import MetricsRegistry
from repro.obs.export import logfmt_digest
from repro.video.synth import ClipSynthesizer
from repro.workloads.doctor import StreamDoctor
from repro.workloads.library import ClipLibrary

__all__ = ["build_parser", "main"]


def _add_workload_args(parser: argparse.ArgumentParser) -> None:
    """Workload-construction options shared by demo/sweep/stats."""
    parser.add_argument("--stream", choices=("vs1", "vs2"), default="vs2",
                        help="original inserts (vs1) or attacked ones (vs2)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--queries", type=int, default=6)
    parser.add_argument("--stream-seconds", type=float, default=900.0)


def _add_detector_args(parser: argparse.ArgumentParser) -> None:
    """Detector-configuration options shared by demo/stats/serve/gateway.

    The engine choice is not among them: serving runs one configuration
    (Sequential, bit, indexed), so only demo and stats take
    :func:`_add_engine_args`."""
    parser.add_argument("--hashes", type=int, default=400, metavar="K")
    parser.add_argument("--threshold", type=float, default=0.7,
                        metavar="DELTA")
    parser.add_argument("--window-seconds", type=float, default=5.0,
                        metavar="W")


def _add_engine_args(parser: argparse.ArgumentParser) -> None:
    """Engine options of demo/stats, which run through
    :func:`~repro.evaluation.runner.run_detector` (a Geometric or
    sketch run executes on the oracle)."""
    parser.add_argument("--order", choices=("sequential", "geometric"),
                        default="sequential")
    parser.add_argument("--no-index", action="store_true")
    parser.add_argument("--representation", choices=("bit", "sketch"),
                        default="bit")


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Continuous content-based copy detection over "
        "streaming videos (ICDE 2008 reproduction).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    demo = subparsers.add_parser(
        "demo", help="build a synthetic workload and run the detector"
    )
    _add_workload_args(demo)
    _add_detector_args(demo)
    _add_engine_args(demo)
    demo.add_argument("--metrics-out", metavar="PATH", default=None,
                      help="write the run's JSON metrics snapshot here")

    sweep = subparsers.add_parser(
        "sweep", help="sweep one detector parameter over a workload"
    )
    sweep.add_argument("parameter", choices=("hashes", "threshold", "window"))
    sweep.add_argument("values", nargs="+", type=float,
                       help="parameter values to sweep")
    _add_workload_args(sweep)
    sweep.add_argument("--metrics-out", metavar="PATH", default=None,
                       help="write one JSON metrics snapshot per swept "
                       "value here")

    stats = subparsers.add_parser(
        "stats", help="run the detector and emit its metrics snapshot"
    )
    _add_workload_args(stats)
    _add_detector_args(stats)
    _add_engine_args(stats)
    stats.add_argument("--metrics-out", metavar="PATH", default=None,
                       help="write the JSON snapshot here instead of stdout")
    stats.add_argument("--no-timers", action="store_true",
                       help="disable phase wall-clock timers (counters "
                       "only)")

    serve = subparsers.add_parser(
        "serve", help="run the sharded multi-worker detection service"
    )
    _add_workload_args(serve)
    _add_detector_args(serve)
    serve.add_argument("--workers", type=int, default=2,
                       help="shard / worker count")
    serve.add_argument("--backend", choices=("serial", "process"),
                       default="serial",
                       help="executor: in-process, or one OS process per "
                       "worker")
    serve.add_argument("--plan", choices=("count", "load"), default="load",
                       help="shard balancing strategy")
    serve.add_argument("--queue-capacity", type=int, default=4,
                       help="bound on each worker's ingestion queue")
    serve.add_argument("--policy",
                       choices=("block", "drop_oldest", "shed"),
                       default="block",
                       help="backpressure policy when a queue is full "
                       "(only 'block' preserves exact single-process "
                       "equivalence)")
    serve.add_argument("--chunk-seconds", type=float, default=30.0,
                       help="stream seconds per ingested chunk")
    serve.add_argument("--batch-chunks", type=int, default=4,
                       help="chunks sketched and shipped per WindowBatch")
    serve.add_argument("--checkpoint-dir", metavar="DIR", default=None,
                       help="directory for service snapshots")
    serve.add_argument("--checkpoint-every", type=int, default=0,
                       metavar="N", help="snapshot every N chunks")
    serve.add_argument("--checkpoint-keep", type=int, default=0,
                       metavar="N", help="retain only the newest N "
                       "snapshots (0 = keep everything; pruning never "
                       "deletes the only loadable snapshot)")
    serve.add_argument("--archive-dir", metavar="DIR", default=None,
                       help="retain every basic window's sketch in a "
                       "repro.arch/1 segment archive under DIR, "
                       "enabling --subscribe-at ...:backfill=N")
    serve.add_argument("--archive-retain", metavar="SPEC", default=None,
                       help="archive retention bounds as KEY=VALUE "
                       "pairs joined by ',': windows=N, bytes=N, "
                       "seconds=S (e.g. 'windows=5000,bytes=64000000'; "
                       "with no --archive-dir the archive stays "
                       "in-memory, bounded by windows=)")
    serve.add_argument("--archive-segment-windows", type=int,
                       default=256, metavar="N",
                       help="windows per sealed archive segment (also "
                       "the archive's resident-memory bound)")
    serve.add_argument("--stop-after", type=int, default=0, metavar="N",
                       help="stop (without flushing) after N chunks — "
                       "pairs with --resume to exercise recovery")
    serve.add_argument("--resume", action="store_true",
                       help="resume from the latest snapshot in "
                       "--checkpoint-dir")
    serve.add_argument("--subscribe-at", action="append", default=[],
                       metavar="WINDOW:QUERYFILE[:backfill=N]",
                       help="subscribe every query in the "
                       "repro.persistence query-set file QUERYFILE at "
                       "the chunk barrier after WINDOW chunks "
                       "(0 = before the first chunk; repeatable; on "
                       "--resume, barriers the checkpoint already "
                       "contains are skipped). An optional "
                       ":backfill=N suffix retrospectively probes the "
                       "last N archived basic windows for each query "
                       "(requires --archive-dir or --archive-retain)")
    serve.add_argument("--unsubscribe-at", action="append", default=[],
                       metavar="WINDOW:QID",
                       help="unsubscribe query QID at the chunk barrier "
                       "after WINDOW chunks (repeatable, resume-aware "
                       "like --subscribe-at)")
    serve.add_argument("--metrics-out", metavar="PATH", default=None,
                       help="write the merged cross-worker JSON snapshot "
                       "here")
    serve.add_argument("--pace", type=float, default=0.0, metavar="SECONDS",
                       help="sleep between chunks to simulate live "
                       "arrival (also makes signal-driven shutdown "
                       "deterministic to test)")
    serve.add_argument("--supervise", action="store_true",
                       help="wrap the executor in the shard supervisor: "
                       "dead/stalled/poisoned workers are respawned and "
                       "their shard replayed from the last rolling "
                       "snapshot (process backend only)")
    serve.add_argument("--chaos", metavar="PLAN", default=None,
                       help="deterministic fault injection (implies "
                       "--supervise): either explicit events "
                       "'kind:worker@seq[:seconds]' comma-separated "
                       "(kinds: kill, stall, poison) or 'seed:N' to "
                       "generate one event per worker")
    serve.add_argument("--shard-snapshot-every", type=int, default=8,
                       metavar="N",
                       help="supervisor rolling-snapshot cadence: probe "
                       "each shard's state every N stream messages "
                       "(bounds replay-buffer depth; default 8)")
    serve.add_argument("--recovery-deadline", type=float, default=5.0,
                       metavar="SECONDS",
                       help="supervisor recv deadline before a worker "
                       "counts as stalled (default 5.0)")
    serve.add_argument("--max-restarts", type=int, default=3, metavar="N",
                       help="restarts per shard before the circuit "
                       "breaker quarantines it (default 3)")

    ingest = subparsers.add_parser(
        "ingest",
        help="run the fault-tolerant multi-stream ingestion scheduler",
    )
    ingest.add_argument("--streams", type=int, default=3,
                        help="number of concurrent synthetic streams")
    ingest.add_argument("--chunks", type=int, default=10,
                        help="chunks per stream")
    ingest.add_argument("--chunk-seconds", type=float, default=2.0,
                        help="stream seconds per chunk")
    ingest.add_argument("--faults", choices=("none", "light", "heavy"),
                        default="light",
                        help="fault-injection preset applied to every "
                        "stream")
    ingest.add_argument("--policy", choices=("round_robin", "deficit"),
                        default="round_robin",
                        help="scheduling discipline across streams")
    ingest.add_argument("--degrade",
                        choices=("skip_window", "zero_fill", "fail"),
                        default="skip_window",
                        help="what to do with undecodable key frames")
    ingest.add_argument("--queue-capacity", type=int, default=4,
                        help="per-stream chunk queue bound")
    ingest.add_argument("--seed", type=int, default=42)
    ingest.add_argument("--entropy", action="store_true",
                        help="use exp-Golomb entropy coding in the "
                        "synthetic bitstreams")
    ingest.add_argument("--hashes", type=int, default=128, metavar="K")
    ingest.add_argument("--threshold", type=float, default=0.7,
                        metavar="DELTA")
    ingest.add_argument("--window-seconds", type=float, default=2.0,
                        metavar="W")
    ingest.add_argument("--metrics-out", metavar="PATH", default=None,
                        help="write the nested repro.ingest/2 JSON "
                        "snapshot here")

    gateway = subparsers.add_parser(
        "gateway",
        help="serve detection over TCP (the repro.wire/1 protocol)",
    )
    _add_workload_args(gateway)
    _add_detector_args(gateway)
    gateway.add_argument("--host", default="127.0.0.1")
    gateway.add_argument("--port", type=int, default=0,
                         help="TCP port (0 picks a free one)")
    gateway.add_argument("--workers", type=int, default=2,
                         help="shard / worker count")
    gateway.add_argument("--backend", choices=("serial", "process"),
                         default="process",
                         help="executor: in-process, or one OS process "
                         "per worker")
    gateway.add_argument("--policy",
                         choices=("block", "drop_oldest", "shed"),
                         default="block",
                         help="backpressure policy behind the credit "
                         "window (lossy policies surface as counted "
                         "drop notices)")
    gateway.add_argument("--credits", type=int, default=8,
                         help="ingest credit window (bounds server-side "
                         "buffered chunks)")
    gateway.add_argument("--heartbeat", type=float, default=10.0,
                         metavar="SECONDS")
    gateway.add_argument("--idle-timeout", type=float, default=60.0,
                         metavar="SECONDS")
    gateway.add_argument("--checkpoint-dir", metavar="DIR", default=None,
                         help="write a final service snapshot here on "
                         "shutdown (and on admin checkpoint requests)")
    gateway.add_argument("--port-file", metavar="PATH", default=None,
                         help="write the bound port here once listening "
                         "(for scripts that need to find a 0-port "
                         "server)")

    push = subparsers.add_parser(
        "push", help="stream workload chunks into a running gateway"
    )
    _add_workload_args(push)
    push.add_argument("--host", default="127.0.0.1")
    push.add_argument("--port", type=int, required=True)
    push.add_argument("--chunk-seconds", type=float, default=30.0,
                      help="stream seconds per pushed chunk")
    push.add_argument("--kill-after", type=int, default=0, metavar="N",
                      help="crash the connection after N chunks and "
                      "print the resume token (tests reconnect/resume)")
    push.add_argument("--resume-token", default=None, metavar="TOKEN",
                      help="resume a crashed push session; re-pushes "
                      "from the server's last acknowledged chunk")
    push.add_argument("--no-end", action="store_true",
                      help="leave the stream open (no tail flush) after "
                      "the last chunk")

    watch = subparsers.add_parser(
        "watch", help="print a running gateway's match stream"
    )
    watch.add_argument("--host", default="127.0.0.1")
    watch.add_argument("--port", type=int, required=True)
    watch.add_argument("--credits", type=int, default=32,
                       help="match-event flow-control window granted to "
                       "the server")
    watch.add_argument("--resume-token", default=None, metavar="TOKEN")
    watch.add_argument("--last-acked", type=int, default=None, metavar="ID",
                       help="resume the event stream after this match id")

    inspect = subparsers.add_parser(
        "inspect", help="encode a synthetic clip and inspect the bitstream"
    )
    inspect.add_argument("--seconds", type=float, default=10.0)
    inspect.add_argument("--quality", type=int, default=75)
    inspect.add_argument("--gop", type=int, default=12)
    inspect.add_argument("--motion", action="store_true",
                         help="use motion-compensated prediction")
    inspect.add_argument("--entropy", action="store_true",
                         help="use exp-Golomb entropy coding")
    inspect.add_argument("--seed", type=int, default=0)
    return parser


def _build_workload(args: argparse.Namespace) -> PreparedWorkload:
    profile = ScaleProfile(
        stream_seconds=args.stream_seconds,
        num_queries=args.queries,
        query_min_seconds=20.0,
        query_max_seconds=50.0,
    )
    library = ClipLibrary.generate(profile, seed=args.seed)
    doctor = StreamDoctor(profile, seed=args.seed)
    stream = (
        doctor.build_vs1(library)
        if args.stream == "vs1"
        else doctor.build_vs2(library, noise_sigma=2.0)
    )
    print(f"Built {stream.name}: {stream.clip.num_frames} key frames, "
          f"{len(stream.ground_truth)} insertions, "
          f"{len(library)} continuous queries")
    return PreparedWorkload.prepare(stream, library)


def _detector_config(args: argparse.Namespace) -> DetectorConfig:
    return DetectorConfig(
        num_hashes=args.hashes,
        threshold=args.threshold,
        window_seconds=args.window_seconds,
        order=CombinationOrder(getattr(args, "order", "sequential")),
        representation=Representation(getattr(args, "representation", "bit")),
        use_index=not getattr(args, "no_index", False),
    )


def _write_metrics(path: str, payload: object) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"metrics snapshot written to {path}")


def _command_demo(args: argparse.Namespace) -> int:
    prepared = _build_workload(args)
    config = _detector_config(args)
    result = run_detector(prepared, config)
    window_frames = max(
        1, round(args.window_seconds * prepared.keyframes_per_second)
    )
    detections = merge_matches(result.matches, gap_frames=window_frames)
    rows = [
        [d.qid, d.start_frame, d.end_frame, f"{d.peak_similarity:.2f}"]
        for d in detections
    ]
    print()
    print(format_table(
        ["query", "start frame", "end frame", "peak sim"],
        rows,
        title="Detections",
    ))
    print()
    print(f"precision={result.quality.precision:.3f} "
          f"recall={result.quality.recall:.3f} "
          f"cpu={result.cpu_seconds:.3f}s "
          f"avg_signatures={result.stats.avg_signatures:.1f}")
    if args.metrics_out:
        _write_metrics(args.metrics_out, result.metrics)
    return 0


def _command_sweep(args: argparse.Namespace) -> int:
    prepared = _build_workload(args)
    precisions: List[float] = []
    recalls: List[float] = []
    cpu: List[float] = []
    snapshots: List[dict] = []
    for value in args.values:
        if args.parameter == "hashes":
            config = DetectorConfig(num_hashes=int(value))
        elif args.parameter == "threshold":
            config = DetectorConfig(threshold=value)
        else:
            config = DetectorConfig(window_seconds=value)
        result = run_detector(prepared, config)
        precisions.append(result.quality.precision)
        recalls.append(result.quality.recall)
        cpu.append(result.cpu_seconds)
        snapshots.append(
            {"parameter": args.parameter, "value": value,
             "metrics": result.metrics}
        )
    print()
    print(format_series("precision", args.values, precisions))
    print(format_series("recall", args.values, recalls))
    print(format_series("cpu_seconds", args.values, cpu))
    if args.metrics_out:
        _write_metrics(args.metrics_out, snapshots)
    return 0


def _command_stats(args: argparse.Namespace) -> int:
    prepared = _build_workload(args)
    config = _detector_config(args)
    registry = MetricsRegistry(timing_enabled=not args.no_timers)
    result = run_detector(prepared, config, registry=registry)
    print()
    print(logfmt_digest(registry))
    if args.metrics_out:
        _write_metrics(args.metrics_out, result.metrics)
    else:
        print()
        print(json.dumps(result.metrics, indent=2, sort_keys=True))
    return 0


def _churn_schedule(args: argparse.Namespace) -> list:
    """Parse --subscribe-at/--unsubscribe-at into a sorted op list.

    Returns ``(window, kind, payload)`` tuples; subscribes sort before
    unsubscribes at the same barrier so a swap never empties a shard.
    """
    schedule = []
    for spec in args.subscribe_at:
        window, sep, rest = spec.partition(":")
        path, _, option = rest.rpartition(":")
        if path and option.startswith("backfill="):
            if not option[len("backfill="):].isdigit():
                raise ValueError(
                    f"--subscribe-at backfill needs a number, got {spec!r}"
                )
            backfill = int(option[len("backfill="):])
        else:
            path, backfill = rest, 0
        if not sep or not path or not window.isdigit():
            raise ValueError(
                f"--subscribe-at needs WINDOW:QUERYFILE[:backfill=N], "
                f"got {spec!r}"
            )
        schedule.append((int(window), 0, "subscribe", (path, backfill)))
    for spec in args.unsubscribe_at:
        window, sep, qid = spec.partition(":")
        if not sep or not window.isdigit() or not qid.lstrip("-").isdigit():
            raise ValueError(
                f"--unsubscribe-at needs WINDOW:QID, got {spec!r}"
            )
        schedule.append((int(window), 1, "unsubscribe", int(qid)))
    schedule.sort(key=lambda item: item[:2])
    return [(window, kind, payload) for window, _, kind, payload in schedule]


def _parse_archive_retain(spec: str) -> dict:
    """Parse ``--archive-retain`` KEY=VALUE pairs into SketchArchive
    retention kwargs."""
    keys = {"windows": ("retain_windows", int),
            "bytes": ("retain_bytes", int),
            "seconds": ("retain_seconds", float)}
    bounds = {}
    for part in spec.split(","):
        key, sep, value = part.partition("=")
        key = key.strip()
        if not sep or key not in keys:
            raise ValueError(
                "--archive-retain needs windows=/bytes=/seconds= "
                f"pairs, got {part!r}"
            )
        name, cast = keys[key]
        try:
            bounds[name] = cast(value)
        except ValueError:
            raise ValueError(
                f"--archive-retain {key}= needs a number, got {value!r}"
            )
    return bounds


def _command_serve(args: argparse.Namespace) -> int:
    from repro.archive import SketchArchive
    from repro.core.query import QuerySet
    from repro.evaluation.metrics import score_matches
    from repro.minhash.family import MinHashFamily
    from repro.persistence import load_query_set
    from repro.serve import (
        BackpressurePolicy,
        ChaosPlan,
        CheckpointManager,
        DetectionService,
        SupervisorConfig,
    )

    if args.resume and not args.checkpoint_dir:
        print("--resume requires --checkpoint-dir", file=sys.stderr)
        return 2
    supervise = args.supervise or args.chaos is not None
    if supervise and args.backend == "serial":
        print("--supervise/--chaos require --backend process",
              file=sys.stderr)
        return 2
    try:
        churn = _churn_schedule(args)
        retain = (
            _parse_archive_retain(args.archive_retain)
            if args.archive_retain
            else {}
        )
    except ValueError as error:
        print(str(error), file=sys.stderr)
        return 2
    wants_backfill = any(
        kind == "subscribe" and payload[1]
        for _, kind, payload in churn
    )
    if wants_backfill and not (args.archive_dir or args.archive_retain):
        print("--subscribe-at ...:backfill=N requires --archive-dir "
              "or --archive-retain", file=sys.stderr)
        return 2
    prepared = _build_workload(args)
    config = _detector_config(args)
    chunk_frames = max(
        1, round(args.chunk_seconds * prepared.keyframes_per_second)
    )
    stream = prepared.stream_cell_ids
    chunks = [
        stream[offset : offset + chunk_frames]
        for offset in range(0, len(stream), chunk_frames)
    ]
    manager = (
        CheckpointManager(
            args.checkpoint_dir, keep_last=args.checkpoint_keep or None
        )
        if args.checkpoint_dir
        else None
    )
    policy = BackpressurePolicy(args.policy)
    chaos_plan = None
    if args.chaos:
        # Chaos positions count stream messages per worker: one per
        # WindowBatch. Each chunk below is its own call, so its own
        # batch, and a batch is sent only when its frames complete a
        # window (the stream has no gaps).
        window_frames = max(
            1, round(args.window_seconds * prepared.keyframes_per_second)
        )
        ends = list(accumulate(len(chunk) for chunk in chunks))
        per_worker = max(1, sum(
            end // window_frames > start // window_frames
            for start, end in zip([0] + ends, ends)
        ))
        try:
            if args.chaos.startswith("seed:"):
                chaos_plan = ChaosPlan.generate(
                    int(args.chaos[len("seed:"):]),
                    args.workers,
                    horizon=per_worker,
                )
            else:
                chaos_plan = ChaosPlan.parse(args.chaos)
        except Exception as error:
            print(f"bad --chaos plan: {error}", file=sys.stderr)
            return 2
    supervisor_config = (
        SupervisorConfig(
            recv_deadline=args.recovery_deadline,
            snapshot_every=args.shard_snapshot_every,
            max_restarts=args.max_restarts,
        )
        if supervise
        else None
    )
    # The CLI always derives its family deterministically (seed 0), so an
    # archive built here carries the same fingerprint on fresh starts and
    # resumes alike; on resume, recovery reconciles the checkpointed ring
    # against whatever segments survived on disk.
    archive = None
    if args.archive_dir or args.archive_retain:
        family = MinHashFamily(num_hashes=config.num_hashes, seed=0)
        archive = SketchArchive(
            family.fingerprint,
            config.num_hashes,
            directory=args.archive_dir,
            segment_windows=args.archive_segment_windows,
            **retain,
        )
    if args.resume:
        service = DetectionService.restore(
            manager,
            expected_config=config,
            backend=args.backend,
            queue_capacity=args.queue_capacity,
            policy=policy,
            batch_chunks=args.batch_chunks,
            archive=archive,
            supervisor=supervisor_config,
            chaos=chaos_plan,
        )
        start = service.chunks_ingested
        print(f"resumed from chunk {start} "
              f"({len(service.matches)} matches already collected)")
    else:
        family = MinHashFamily(num_hashes=config.num_hashes, seed=0)
        queries = QuerySet.from_cell_ids(
            prepared.query_cell_ids, prepared.query_frames, family
        )
        service = DetectionService(
            config,
            queries,
            prepared.keyframes_per_second,
            num_workers=args.workers,
            backend=args.backend,
            strategy=args.plan,
            queue_capacity=args.queue_capacity,
            policy=policy,
            batch_chunks=args.batch_chunks,
            archive=archive,
            supervisor=supervisor_config,
            chaos=chaos_plan,
        )
        start = 0
    print(f"serving {len(chunks)} chunks from chunk {start} across "
          f"{service.num_workers} {args.backend} worker(s), "
          f"shards {service.shard_sizes()}")

    def apply_churn(barrier: int) -> None:
        for window, kind, payload in churn:
            if window != barrier:
                continue
            if kind == "subscribe":
                path, backfill = payload
                loaded = load_query_set(path, expected_config=config)
                for qid in sorted(loaded.query_ids):
                    shard = service.subscribe(loaded.get(qid), backfill=backfill)
                    suffix = f", backfill={backfill}" if backfill else ""
                    print(f"chunk {barrier}: subscribed query {qid} to "
                          f"shard {shard} (epoch {service.epoch}{suffix})")
            else:
                service.unsubscribe(payload)
                print(f"chunk {barrier}: unsubscribed query {payload} "
                      f"(epoch {service.epoch})")

    if args.resume:
        # Churn at barriers the checkpoint already covers replayed
        # before the snapshot was written; re-applying would double it.
        replayed = sum(1 for window, _, _ in churn if window <= start)
        if replayed:
            print(f"skipping {replayed} lifecycle op(s) already in the "
                  f"checkpoint (barrier <= {start}, epoch {service.epoch})")
    else:
        apply_churn(0)
    stopped_early = False
    signalled: List[int] = []
    previous_handlers = {
        sig: signal.signal(sig, lambda signum, frame: signalled.append(signum))
        for sig in (signal.SIGINT, signal.SIGTERM)
    }
    try:
        for position in range(start, len(chunks)):
            service.process_chunk(chunks[position])
            ingested = service.chunks_ingested
            apply_churn(ingested)
            # Backfill runs here, at the chunk barrier, never mid-chunk,
            # so retro output is deterministic.
            service.pump_backfill()
            if manager and args.checkpoint_every and (
                ingested % args.checkpoint_every == 0
            ):
                path = service.checkpoint(manager)
                print(f"checkpointed at chunk {ingested}: {path}")
            if args.stop_after and ingested >= args.stop_after:
                stopped_early = True
                break
            if signalled:
                # Graceful drain: the chunk boundary we are on is a
                # legal checkpoint barrier — snapshot and exit clean.
                print(f"received {signal.Signals(signalled[0]).name}, "
                      "draining")
                stopped_early = True
                break
            if args.pace > 0:
                time.sleep(args.pace)
    finally:
        for sig, handler in previous_handlers.items():
            signal.signal(sig, handler)
    if stopped_early:
        if manager:
            path = service.checkpoint(manager)
            print(f"stopped after chunk {service.chunks_ingested}; "
                  f"snapshot {path} — rerun with --resume to continue")
        else:
            print(f"stopped after chunk {service.chunks_ingested} "
                  "(no --checkpoint-dir, nothing saved)")
    else:
        service.flush()  # also finishes every backfill job
        quality = score_matches(
            service.matches,
            prepared.ground_truth,
            max(1, round(
                args.window_seconds * prepared.keyframes_per_second
            )),
        )
        retro = (
            f" retro={len(service.retro_matches)}"
            if archive is not None
            else ""
        )
        print(f"matches={len(service.matches)}{retro} "
              f"precision={quality.precision:.3f} "
              f"recall={quality.recall:.3f}")
    if supervise:
        counters = service.metrics_snapshot()["counters"]
        summary = " ".join(
            f"{name}={counters.get(f'serve.supervisor.{name}', 0)}"
            for name in ("kills", "stalls", "poisoned", "restarts",
                         "replayed_batches", "quarantines")
        )
        print(f"supervisor: {summary}")
        degraded = service.degraded_shards()
        if degraded:
            print(f"degraded shards: {sorted(degraded)} — matches are "
                  "partial for their queries")
    if args.metrics_out:
        _write_metrics(args.metrics_out, service.metrics_snapshot())
    service.close()
    return 0


def _command_ingest(args: argparse.Namespace) -> int:
    from repro.core.query import QuerySet
    from repro.features.pipeline import FingerprintExtractor
    from repro.ingest import (
        FAULT_PRESETS,
        DegradationPolicy,
        FaultInjector,
        INGEST_FORMAT,
        SchedulingPolicy,
        StreamScheduler,
        StreamSession,
        SyntheticSource,
    )
    from repro.minhash.family import MinHashFamily
    from repro.utils.rng import derive_seed
    from repro.video.synth import ClipSynthesizer, SynthesisConfig

    if args.streams < 1:
        print("--streams must be >= 1", file=sys.stderr)
        return 2
    config = DetectorConfig(
        num_hashes=args.hashes,
        threshold=args.threshold,
        window_seconds=args.window_seconds,
    )
    extractor = FingerprintExtractor()
    plan = FAULT_PRESETS[args.faults]
    policy = DegradationPolicy(args.degrade)

    # Plant one query copy into every stream at a known chunk so each
    # stream has something to detect; fault injection may destroy it.
    query_synth = ClipSynthesizer(
        SynthesisConfig(video_format=INGEST_FORMAT),
        seed=derive_seed(args.seed, "ingest-query"),
    )
    query_clip = query_synth.generate_clip(args.chunk_seconds, "query")
    copy_at = min(2, args.chunks - 1)
    sources = [
        SyntheticSource(
            stream_id,
            args.seed,
            args.chunks,
            chunk_seconds=args.chunk_seconds,
            entropy_coding=args.entropy,
            copies={copy_at: query_clip},
        )
        for stream_id in range(args.streams)
    ]
    # Query fingerprints come from the *encoded* copy so the query and
    # stream sides see identical quantisation.
    query_ids = extractor.cell_ids_from_encoded(
        sources[0].encode_chunk(copy_at)
    )
    family = MinHashFamily(num_hashes=config.num_hashes, seed=0)
    queries = QuerySet.from_cell_ids(
        {1: query_ids}, {1: int(query_ids.shape[0])}, family,
        labels={1: "planted-copy"},
    )

    hint = int(round(
        args.chunk_seconds * sources[0].keyframes_per_second
    ))
    pairs = []
    for source in sources:
        session = StreamSession(
            source.stream_id,
            config,
            queries,
            source.keyframes_per_second,
            extractor=extractor,
            policy=policy,
            chunk_keyframes_hint=hint,
        )
        feed = (
            source
            if args.faults == "none"
            else FaultInjector(
                source, plan,
                seed=derive_seed(args.seed, f"faults-{source.stream_id}"),
            )
        )
        pairs.append((feed, session))

    scheduler = StreamScheduler(
        pairs,
        policy=SchedulingPolicy(args.policy),
        queue_capacity=args.queue_capacity,
    )
    print(f"ingesting {args.streams} stream(s) x {args.chunks} chunks "
          f"({args.faults} faults, {args.degrade} degradation, "
          f"{args.policy} scheduling)")
    # SIGINT/SIGTERM stop the scheduler at the next round boundary:
    # tails flush, then the report prints.
    previous_handlers = {
        sig: signal.signal(
            sig, lambda signum, frame: scheduler.request_stop()
        )
        for sig in (signal.SIGINT, signal.SIGTERM)
    }
    try:
        matches_by_stream = scheduler.run()
    finally:
        for sig, handler in previous_handlers.items():
            signal.signal(sig, handler)

    rows = []
    for feed, session in pairs:
        counter = session.registry.counter
        rows.append([
            session.stream_id,
            counter("ingest.chunks_processed"),
            counter("ingest.frames_decoded"),
            counter("ingest.frames_damaged"),
            counter("ingest.frames_missing"),
            len(matches_by_stream[session.stream_id]),
            "failed" if session.failed else "ok",
        ])
    print()
    print(format_table(
        ["stream", "chunks", "decoded", "damaged", "missing",
         "matches", "state"],
        rows,
        title="Ingestion report",
    ))
    print()
    recon = scheduler.reconciliation()
    print(" ".join(f"{key}={value}" for key, value in recon.items()))
    if args.metrics_out:
        _write_metrics(args.metrics_out, scheduler.metrics_snapshot())
    return 0


def _command_gateway(args: argparse.Namespace) -> int:
    import asyncio

    from repro.core.query import QuerySet
    from repro.gateway import GatewayServer
    from repro.minhash.family import MinHashFamily
    from repro.serve import BackpressurePolicy, DetectionService

    prepared = _build_workload(args)
    config = _detector_config(args)
    family = MinHashFamily(num_hashes=config.num_hashes, seed=0)
    queries = QuerySet.from_cell_ids(
        prepared.query_cell_ids, prepared.query_frames, family
    )
    service = DetectionService(
        config,
        queries,
        prepared.keyframes_per_second,
        num_workers=args.workers,
        backend=args.backend,
        policy=BackpressurePolicy(args.policy),
    )
    server = GatewayServer(
        service,
        host=args.host,
        port=args.port,
        credits=args.credits,
        policy=BackpressurePolicy(args.policy),
        heartbeat_seconds=args.heartbeat,
        idle_timeout_seconds=args.idle_timeout,
        checkpoint_dir=args.checkpoint_dir,
    )

    async def _serve() -> None:
        await server.start()
        print(f"gateway listening on {server.host}:{server.port} "
              f"({service.num_workers} {args.backend} worker(s), "
              f"{args.policy} policy, {args.credits} credits)", flush=True)
        if args.port_file:
            with open(args.port_file, "w", encoding="utf-8") as handle:
                handle.write(f"{server.port}\n")
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(
                sig, lambda: asyncio.ensure_future(server.shutdown())
            )
        await server.wait_stopped()

    asyncio.run(_serve())
    print(f"gateway drained: {len(service.matches)} matches collected, "
          f"{service.chunks_ingested} chunks ingested")
    service.close()
    return 0


def _command_push(args: argparse.Namespace) -> int:
    from repro.gateway import IngestClient

    prepared = _build_workload(args)
    chunk_frames = max(
        1, round(args.chunk_seconds * prepared.keyframes_per_second)
    )
    stream = prepared.stream_cell_ids
    chunks = [
        stream[offset : offset + chunk_frames]
        for offset in range(0, len(stream), chunk_frames)
    ]
    client = IngestClient(
        args.host, args.port, resume_token=args.resume_token
    )
    start = client.last_seq + 1
    if args.resume_token:
        print(f"resumed: server already holds chunks through seq "
              f"{client.last_seq}")
    pushed = 0
    for seq in range(start, len(chunks)):
        client.push(seq, chunks[seq])
        pushed += 1
        if args.kill_after and pushed >= args.kill_after:
            print(f"killing the connection after {pushed} chunk(s); "
                  f"continue with --resume-token {client.token}")
            client.kill()
            return 0
    if args.no_end:
        client.drain()
        print(f"pushed {pushed} chunk(s), stream left open "
              f"(dropped={len(client.dropped)})")
    else:
        total = client.end()
        print(f"pushed {pushed} chunk(s): {total} total matches "
              f"(dropped={len(client.dropped)})")
    client.close()
    return 0


def _command_watch(args: argparse.Namespace) -> int:
    from repro.gateway import WatchClient

    client = WatchClient(
        args.host,
        args.port,
        credits=args.credits,
        resume_token=args.resume_token,
        last_acked=args.last_acked,
    )
    print(f"watching from match {client.next_match} "
          f"(resume token {client.token})", flush=True)
    count = 0
    for event in client.matches():
        print(f"match id={event['id']} qid={event['qid']} "
              f"window={event['window_index']} "
              f"frames={event['start_frame']}..{event['end_frame']} "
              f"sim={event['similarity']:.3f}", flush=True)
        count += 1
    if client.total is not None:
        print(f"stream ended: {client.total} total matches "
              f"({count} seen this session)")
    client.close()
    return 0


def _command_inspect(args: argparse.Namespace) -> int:
    synth = ClipSynthesizer(seed=args.seed)
    clip = synth.generate_clip(args.seconds, label="inspect", fps=10.0)
    encoded = encode_video(
        clip.frames,
        fps=clip.fps,
        quality=args.quality,
        gop_size=args.gop,
        use_motion=args.motion,
        entropy_coding=args.entropy,
    )
    dc_frames = list(decode_dc_coefficients(encoded))
    raw_bytes = clip.frames.size  # one byte per pixel, uncompressed
    print(format_table(
        ["field", "value"],
        [
            ["frames", encoded.num_frames],
            ["I frames", encoded.num_keyframes],
            ["frame size", f"{encoded.width}x{encoded.height}"],
            ["quality", encoded.quality],
            ["GOP", encoded.gop_size],
            ["prediction", "motion-compensated" if args.motion else "difference"],
            ["entropy coding", "exp-Golomb" if args.entropy else "varint"],
            ["bitstream bytes", encoded.size_bytes],
            ["compression", f"{raw_bytes / encoded.size_bytes:.1f}x"],
            ["partial-decode I frames", len(dc_frames)],
            ["DC grid per I frame",
             f"{dc_frames[0][1].shape[0]}x{dc_frames[0][1].shape[1]}"],
        ],
        title="Bitstream report",
    ))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "demo":
        return _command_demo(args)
    if args.command == "sweep":
        return _command_sweep(args)
    if args.command == "stats":
        return _command_stats(args)
    if args.command == "serve":
        return _command_serve(args)
    if args.command == "ingest":
        return _command_ingest(args)
    if args.command == "gateway":
        return _command_gateway(args)
    if args.command == "push":
        return _command_push(args)
    if args.command == "watch":
        return _command_watch(args)
    return _command_inspect(args)


if __name__ == "__main__":
    sys.exit(main())
