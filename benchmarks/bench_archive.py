"""Archive benchmark: tap overhead, backfill probe rate, seal/recover.

Measures what the sketch archive costs the live pipeline and what it
buys a late subscriber:

* **live throughput A/B** — key frames/second through
  ``DetectionService.run`` with archiving off vs. on (directory-backed,
  segments sealing as the stream advances). The archive tap reuses the
  sketches the frontend already computed, so the delta is bookkeeping
  plus npz serialisation; the bench asserts the degradation stays
  under 10 %.
* **backfill probe throughput** — archived windows probed per second
  when a late query subscribes with deep backfill and the service's
  final flush runs the job to its end (the same columnar kernels as
  the live path, fed from the ring + sealed segments).
* **seal / recover latency** — wall-clock to append-and-seal a stream
  into segments, and to re-open the directory afterwards (catalogue
  scan + CRC spot checks on the torn-tail sweep).
* **memory bound under spill** — after streaming many windows through
  a directory-backed archive, the in-memory ring must hold fewer than
  two segments' worth of windows; everything older lives on disk.

Usage::

    PYTHONPATH=src python benchmarks/bench_archive.py [--quick]

Writes ``BENCH_ARCHIVE.json`` at the repository root (override with
``--output``). Standalone CLI, not a pytest module; the rows feed
docs/archive.md and the CI archive-smoke step.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import tempfile
import time
from pathlib import Path
from typing import Dict, List

import numpy as np

from repro.archive import SketchArchive
from repro.config import DetectorConfig
from repro.core.query import Query, QuerySet
from repro.minhash.family import MinHashFamily
from repro.serve import DetectionService

BENCH_SEED = 20080407  # ICDE 2008 in Cancún
KEYFRAMES_PER_SECOND = 2.0
WINDOW_SECONDS = 5.0
THRESHOLD = 0.5
CELL_ID_SPACE = 40_960
QUERY_SECONDS = (40.0, 60.0)
CHUNK_WINDOWS = 8
LATE_QID = 10_000
MAX_DEGRADATION_PCT = 10.0


def available_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def build_workload(rng: np.random.Generator, num_queries: int,
                   stream_frames: int):
    """Resident query cells, one late query, and the chunked stream."""
    frames_min = int(QUERY_SECONDS[0] * KEYFRAMES_PER_SECOND)
    frames_max = int(QUERY_SECONDS[1] * KEYFRAMES_PER_SECOND)
    cell_ids: Dict[int, np.ndarray] = {}
    frame_counts: Dict[int, int] = {}
    for qid in range(num_queries):
        n = int(rng.integers(frames_min, frames_max + 1))
        cell_ids[qid] = rng.integers(0, CELL_ID_SPACE, size=n)
        frame_counts[qid] = n
    late_frames = frames_min
    late_cells = rng.integers(0, CELL_ID_SPACE, size=late_frames)
    stream = rng.integers(0, CELL_ID_SPACE, size=stream_frames)
    for copy in (np.asarray(cell_ids[0]), late_cells):
        at = int(rng.integers(0, stream_frames - copy.size))
        stream[at : at + copy.size] = copy
    window_frames = max(1, round(WINDOW_SECONDS * KEYFRAMES_PER_SECOND))
    chunk_frames = CHUNK_WINDOWS * window_frames
    chunks = [
        stream[offset : offset + chunk_frames]
        for offset in range(0, stream_frames, chunk_frames)
    ]
    return cell_ids, frame_counts, late_cells, late_frames, chunks


def make_service(config, family, cell_ids, frame_counts, archive=None):
    return DetectionService(
        config,
        QuerySet.from_cell_ids(cell_ids, frame_counts, family),
        KEYFRAMES_PER_SECOND,
        num_workers=1,
        archive=archive,
    )


def timed_stream(service, chunks):
    start = time.perf_counter()
    service.run(chunks, flush=False)
    return time.perf_counter() - start


def bench_live_ab(config, family, cell_ids, frame_counts, chunks,
                  segment_windows, repeats, scratch):
    """Best-of-``repeats`` frames/s with archiving off, then on."""
    frames = sum(len(chunk) for chunk in chunks)
    # Untimed warm-up: first-touch costs (zipfile import, npz codec)
    # land on the archive side otherwise and skew the A/B.
    warm = SketchArchive(
        family.fingerprint, config.num_hashes,
        directory=Path(scratch) / "ab-warm",
        segment_windows=8,  # tiny: force a real seal during warm-up
    )
    service = make_service(
        config, family, cell_ids, frame_counts, archive=warm
    )
    try:
        service.run(chunks[:2], flush=True)
    finally:
        service.close()

    best_off = best_on = 0.0
    matches_off = matches_on = None
    for attempt in range(repeats):
        service = make_service(config, family, cell_ids, frame_counts)
        try:
            elapsed = timed_stream(service, chunks)
            service.flush()
            matches_off = len(service.matches)
        finally:
            service.close()
        best_off = max(best_off, frames / elapsed)

        archive = SketchArchive(
            family.fingerprint, config.num_hashes,
            directory=Path(scratch) / f"ab-{attempt}",
            segment_windows=segment_windows,
        )
        service = make_service(
            config, family, cell_ids, frame_counts, archive=archive
        )
        try:
            elapsed = timed_stream(service, chunks)
            service.flush()
            matches_on = len(service.matches)
        finally:
            service.close()
        best_on = max(best_on, frames / elapsed)
    if matches_on != matches_off:
        raise SystemExit(
            f"archiving changed the live match stream: "
            f"{matches_on} vs {matches_off}"
        )
    degradation = 100.0 * (1.0 - best_on / best_off) if best_off else 0.0
    return {
        "frames_per_sec_off": best_off,
        "frames_per_sec_on": best_on,
        "degradation_pct": degradation,
        "matches": matches_off,
    }


def bench_backfill(config, family, cell_ids, frame_counts, late_cells,
                   late_frames, chunks, segment_windows, scratch):
    """Windows/s probed by a deep backfill that the final flush runs."""
    archive = SketchArchive(
        family.fingerprint, config.num_hashes,
        directory=Path(scratch) / "probe",
        segment_windows=segment_windows,
    )
    service = make_service(
        config, family, cell_ids, frame_counts, archive=archive
    )
    try:
        service.run(chunks, flush=False)
        distinct = np.unique(np.asarray(late_cells, dtype=np.int64))
        late = Query(qid=LATE_QID, cell_ids=distinct,
                     num_frames=late_frames,
                     sketch=family.sketch(distinct))
        service.subscribe(late, backfill=10**9)
        # The flush archives the tail, closes the shadow horizon at the
        # watermark and probes the whole job; the tail window it also
        # detects is one window among thousands.
        start = time.perf_counter()
        service.flush()
        elapsed = time.perf_counter() - start
        total, done, found = service.backfill_progress()[LATE_QID]
        if done != total:
            raise SystemExit("backfill did not complete at flush")
    finally:
        service.close()
    return {
        "windows_probed": done,
        "probe_windows_per_sec": done / elapsed if elapsed > 0 else 0.0,
        "retro_matches": found,
        "drain_seconds": elapsed,
    }


def bench_seal_recover(num_hashes, num_windows, segment_windows,
                       scratch):
    """Append-and-seal a synthetic stream, then re-open the directory."""
    rng = np.random.default_rng(BENCH_SEED)
    family = MinHashFamily(num_hashes=num_hashes, seed=BENCH_SEED)
    fingerprint = family.fingerprint
    directory = Path(scratch) / "seal"
    archive = SketchArchive(
        fingerprint, num_hashes,
        directory=directory, segment_windows=segment_windows,
    )
    window_frames = max(1, round(WINDOW_SECONDS * KEYFRAMES_PER_SECOND))
    batch = CHUNK_WINDOWS
    start = time.perf_counter()
    for first in range(0, num_windows, batch):
        count = min(batch, num_windows - first)
        indices = np.arange(first, first + count, dtype=np.int64)
        archive.append(
            indices,
            indices * window_frames,
            np.full(count, window_frames, dtype=np.int64),
            # Any value a sketch of the family can hold: [0, prime].
            rng.integers(0, family.prime, size=(count, num_hashes),
                         dtype=np.int64, endpoint=True),
        )
    archive.seal_open_run()
    seal_elapsed = time.perf_counter() - start
    ring_after = archive.ring_windows
    bytes_on_disk = archive.bytes_on_disk()

    start = time.perf_counter()
    revived = SketchArchive(
        fingerprint, num_hashes,
        directory=directory, segment_windows=segment_windows,
    )
    recover_elapsed = time.perf_counter() - start
    if revived.next_index != num_windows:
        raise SystemExit(
            f"recovery lost windows: watermark {revived.next_index} "
            f"after sealing {num_windows}"
        )
    return {
        "windows_sealed": num_windows,
        "seal_windows_per_sec": (
            num_windows / seal_elapsed if seal_elapsed > 0 else 0.0
        ),
        "recover_seconds": recover_elapsed,
        "bytes_on_disk": bytes_on_disk,
        "ring_windows_after_spill": ring_after,
        "ring_bytes_resident": ring_after * num_hashes * 8,
        "memory_bounded": ring_after < 2 * segment_windows,
    }


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke mode: small stream, one repeat",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=Path(__file__).resolve().parent.parent
        / "BENCH_ARCHIVE.json",
        help="where to write the JSON report (default: repo root)",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=None,
        help="timed repeats for the live A/B (best throughput kept)",
    )
    args = parser.parse_args(argv)

    num_queries = 8 if args.quick else 32
    stream_frames = 2400 if args.quick else 6400
    seal_windows = 512 if args.quick else 4096
    segment_windows = 64
    repeats = args.repeats or (3 if args.quick else 4)

    config = DetectorConfig(
        num_hashes=128 if args.quick else 256,
        threshold=THRESHOLD,
        window_seconds=WINDOW_SECONDS,
    )
    family = MinHashFamily(num_hashes=config.num_hashes, seed=BENCH_SEED)
    rng = np.random.default_rng(BENCH_SEED)
    cell_ids, frame_counts, late_cells, late_frames, chunks = (
        build_workload(rng, num_queries, stream_frames)
    )

    with tempfile.TemporaryDirectory() as scratch:
        live = bench_live_ab(
            config, family, cell_ids, frame_counts, chunks,
            segment_windows, repeats, scratch,
        )
        print(f"live A/B: off {live['frames_per_sec_off']:.1f} f/s, "
              f"on {live['frames_per_sec_on']:.1f} f/s "
              f"({live['degradation_pct']:+.1f}% slower, "
              f"{live['matches']} matches)")
        if live["degradation_pct"] > MAX_DEGRADATION_PCT:
            # One retry: shared runners are noisy and the A/B compares
            # two separate passes over the same chunks.
            live = bench_live_ab(
                config, family, cell_ids, frame_counts, chunks,
                segment_windows, repeats, scratch,
            )
            print(f"live A/B retry: "
                  f"{live['degradation_pct']:+.1f}% slower")
            if live["degradation_pct"] > MAX_DEGRADATION_PCT:
                raise SystemExit(
                    f"archive tap degrades live throughput by "
                    f"{live['degradation_pct']:.1f}% "
                    f"(> {MAX_DEGRADATION_PCT}%)"
                )

        probe = bench_backfill(
            config, family, cell_ids, frame_counts, late_cells,
            late_frames, chunks, segment_windows, scratch,
        )
        print(f"backfill: {probe['windows_probed']} windows in "
              f"{probe['drain_seconds']:.3f}s "
              f"({probe['probe_windows_per_sec']:.1f} windows/s, "
              f"{probe['retro_matches']} retro matches)")

        seal = bench_seal_recover(
            config.num_hashes, seal_windows, segment_windows, scratch,
        )
        print(f"seal: {seal['windows_sealed']} windows at "
              f"{seal['seal_windows_per_sec']:.1f} windows/s, "
              f"recover {seal['recover_seconds']*1e3:.1f} ms, "
              f"ring holds {seal['ring_windows_after_spill']} windows "
              f"({seal['bytes_on_disk']} bytes on disk)")
        if not seal["memory_bounded"]:
            raise SystemExit(
                f"ring grew to {seal['ring_windows_after_spill']} "
                f"windows with segment_windows={segment_windows} — "
                f"spill is not bounding memory"
            )

    report = {
        "benchmark": "archive",
        "seed": BENCH_SEED,
        "quick": args.quick,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "cpu_cores": available_cores(),
        "workload": {
            "keyframes_per_second": KEYFRAMES_PER_SECOND,
            "window_seconds": WINDOW_SECONDS,
            "threshold": THRESHOLD,
            "num_hashes": config.num_hashes,
            "num_queries": num_queries,
            "stream_frames": stream_frames,
            "chunk_windows": CHUNK_WINDOWS,
            "segment_windows": segment_windows,
            "seal_windows": seal_windows,
            "repeats": repeats,
        },
        "live_ab": live,
        "backfill": probe,
        "seal_recover": seal,
    }
    args.output.write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n"
    )
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
