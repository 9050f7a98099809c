"""The system under test of ``wire_small_chunks``, in its own process.

Started by :class:`benchmarks.ledger.wire.GatewayChild` with one JSON
argument. Builds the query set, a two-shard process-backend
``DetectionService`` and a ``GatewayServer`` on a free localhost port
(``SETUPS_PER_CHILD`` times over, each timed), prints ``{"port",
"setup_samples"}``, serves until a line arrives on stdin (or stdin
closes), then drains, reports its peak memory and exits.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from repro.gateway import GatewayServer
from repro.serve import DetectionService

from benchmarks.ledger import spec, wire
from benchmarks.ledger.common import owned_processes, peak_rss_kb
from benchmarks.ledger.tracing import Tracer

SETUPS_PER_CHILD = 5


def main() -> int:
    # The child's own resource tracker and workers end before it does,
    # so the parent's wait() covers the whole process tree.
    with owned_processes():
        return _serve(json.loads(sys.argv[1]))


def _set_up(seed: int):
    """One timed set-up: first ``QuerySet`` build call to the listener
    being ready."""
    started = time.perf_counter()
    service = DetectionService(
        wire.detector_config(), wire.build_queries(seed),
        spec.KEYFRAMES_PER_SECOND, num_workers=2, backend="process",
    )
    try:
        handle = GatewayServer(
            service, credits=spec.WIRE_CREDITS
        ).run_in_thread()
    except BaseException:
        service.close()
        raise
    return service, handle, time.perf_counter() - started


def _serve(options) -> int:
    tracer = None
    if options["trace_dir"]:
        tracer = Tracer(Path(options["trace_dir"]))
        tracer.install()
    # The set-up is some 25 ms of forks and first calls, and doubles for
    # seconds at a time on a shared host: it is done several times and
    # every time is reported; the last service is the one that serves.
    setup_samples = []
    for _ in range(SETUPS_PER_CHILD - 1):
        service, handle, setup_s = _set_up(options["seed"])
        setup_samples.append(setup_s)
        handle.stop()
        service.close()
    service, handle, setup_s = _set_up(options["seed"])
    setup_samples.append(setup_s)
    try:
        print(json.dumps({"port": handle.port,
                          "setup_samples": setup_samples}), flush=True)
        sys.stdin.readline()
        rss = peak_rss_kb()
        handle.stop()
    finally:
        service.close()
    if tracer is not None:
        tracer.uninstall()
        tracer.dump()
    print(json.dumps({"peak_rss_kb": rss}), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
