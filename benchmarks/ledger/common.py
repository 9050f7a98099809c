"""Helpers every workload shares: host facts, percentiles, RSS, results."""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import platform
import shutil
import signal
import subprocess
import tempfile
import time
from dataclasses import dataclass, field
from multiprocessing import resource_tracker
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

LEDGER_DIR = Path(__file__).resolve().parent
REPO_ROOT = LEDGER_DIR.parent.parent
#: Checkpoints, archive segments and span files live here while a run
#: is in flight; the directory is git-ignored and emptied on the way out.
WORK_ROOT = LEDGER_DIR / ".work"

MatchKey = Tuple[int, int, int, int, float]


def available_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def git_commit() -> str:
    """HEAD of the checkout, or ``unknown`` outside a git repository."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, timeout=10,
            capture_output=True, text=True, check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def host_fingerprint(seed: int) -> Dict[str, object]:
    return {
        "cpu_cores": available_cores(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "seed": seed,
        "git_commit": git_commit(),
    }


def match_key(match) -> MatchKey:
    """A match as the correctness gate compares it (a ``Match`` or a
    wire ``match`` event header)."""
    if isinstance(match, dict):
        return (match["qid"], match["window_index"], match["start_frame"],
                match["end_frame"], match["similarity"])
    return (match.qid, match.window_index, match.start_frame,
            match.end_frame, match.similarity)


def percentile(samples: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(samples, dtype=np.float64), q))


#: A p95 needs ten samples beyond it.
TAIL_BLOCK = 200
#: ``frames_per_s`` is the median rate over this many equal stretches.
RATE_SEGMENTS = 8


def tail_percentile(samples: Sequence[float]) -> Tuple[float, float]:
    """``(q, value)`` of the latency tail.

    p95 when at least ten samples lie beyond it, otherwise the highest
    percentile that still has ten beyond. With several hundred samples
    the value is the median of the p95s of consecutive blocks of 200, so
    a few seconds of a busy host moves one block, not the figure.
    """
    count = len(samples)
    if count < TAIL_BLOCK:
        q = max(50.0, 100.0 * (1.0 - 10.0 / count))
        return q, percentile(samples, q)
    blocks = np.array_split(np.asarray(samples), count // TAIL_BLOCK)
    return 95.0, percentile(
        [percentile(block, 95.0) for block in blocks], 50.0
    )


def median_rate(progress: Sequence[Tuple[float, int]]) -> float:
    """Frames per second as the median over ``RATE_SEGMENTS`` equal
    stretches of ``progress`` — ``(perf_counter, frames so far)`` marks,
    the first at the start of the pass and the last after the final
    match was delivered."""
    edges = np.linspace(
        0, len(progress) - 1, min(RATE_SEGMENTS, len(progress) - 1) + 1
    ).round().astype(int)
    rates = [
        (progress[b][1] - progress[a][1]) / (progress[b][0] - progress[a][0])
        for a, b in zip(edges[:-1], edges[1:])
    ]
    return percentile(rates, 50.0)


def vm_hwm_kb(pid: int) -> int:
    """Peak resident set of one process, from ``/proc/<pid>/status``."""
    try:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def peak_rss_kb() -> int:
    """Summed VmHWM of this process and its live (worker) children."""
    pids = [os.getpid()] + [
        child.pid for child in multiprocessing.active_children()
    ]
    return sum(vm_hwm_kb(pid) for pid in pids)


#: How long a process of the run gets to end by itself before it is
#: killed on the way out.
REAP_GRACE_S = 10.0


def _wait_or_kill(pid: int, grace_s: float) -> None:
    """Reap child ``pid``; SIGKILL it if it outlives ``grace_s``."""
    deadline = time.monotonic() + grace_s
    try:
        while os.waitpid(pid, os.WNOHANG) == (0, 0):
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                return
            time.sleep(0.005)
    except (ChildProcessError, ProcessLookupError):
        pass  # already reaped


@contextlib.contextmanager
def owned_processes() -> Iterator[None]:
    """No process of the run outlives the block, on any way out of it.

    ``multiprocessing.shared_memory`` starts a resource-tracker process
    on first use and nobody waits for it: it ends only once its parent
    is gone, so it is still there when the parent's exit is observed.
    A worker forked *before* the parent's tracker exists starts one of
    its own, which is then orphaned the same way. So the tracker is
    started here, before any service forks (every worker then inherits
    it — the case ``repro.serve.shm`` already handles), and on the way
    out stray workers are stopped and the tracker is closed and waited
    for.
    """
    tracker = resource_tracker._resource_tracker
    tracker.ensure_running()
    try:
        yield
    finally:
        for child in multiprocessing.active_children():
            child.join(timeout=REAP_GRACE_S)
            if child.is_alive():
                child.kill()
                child.join()
        # Closing the last write end of its pipe is what ends the
        # tracker (the workers' inherited copies went with them).
        fd, pid = tracker._fd, tracker._pid
        tracker._fd = tracker._pid = None
        if fd is not None:
            os.close(fd)
        if pid is not None:
            _wait_or_kill(pid, REAP_GRACE_S)


@contextlib.contextmanager
def work_dir(label: str) -> Iterator[Path]:
    """A scratch directory inside the checkout, removed afterwards."""
    WORK_ROOT.mkdir(parents=True, exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix=f"{label}-", dir=WORK_ROOT))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


@dataclass
class PassResult:
    """What one pass over a workload's input produced."""

    frames: int
    #: the measured interval, ``perf_counter`` seconds at its two ends.
    timed: Tuple[float, float]
    #: live match stream in delivery order, and retro (backfill) matches.
    matches: List[MatchKey]
    retro: List[MatchKey] = field(default_factory=list)
    #: seconds from the first QuerySet build call to ready, one sample
    #: per service the pass built.
    setup_samples: List[float] = field(default_factory=list)
    #: ``(perf_counter, frames consumed so far)`` after every call, from
    #: the start of the measured interval to the last match delivered.
    progress: List[Tuple[float, int]] = field(default_factory=list)
    #: steady-state latency samples (see ``spec.END_TO_END``).
    latencies_ms: List[float] = field(default_factory=list)
    ops_attempted: int = 0
    ops_failed: int = 0
    peak_rss_kb: int = 0
    #: merged ``repro.obs/1`` snapshot taken before the service closed.
    snapshot: Dict[str, object] = field(default_factory=dict)
    #: workload-specific measurements, by per-layer metric name.
    extra: Dict[str, float] = field(default_factory=dict)
    #: free-form diagnostics for the human report.
    notes: Dict[str, object] = field(default_factory=dict)
    #: denominators of the per-layer rates.
    windows: int = 0
    chunks: int = 0
    batches: int = 0

    @property
    def elapsed_s(self) -> float:
        return self.timed[1] - self.timed[0]

    @property
    def frames_per_s(self) -> float:
        """Robust rate when the pass logged its progress, plain
        frames / wall time otherwise (reference runs)."""
        if len(self.progress) > 2:
            return median_rate(self.progress)
        return self.frames / self.elapsed_s


def end_to_end_metrics(
    result: PassResult, setup_samples: Sequence[float]
) -> Dict[str, float]:
    return {
        "setup_s": percentile(setup_samples, 50.0),
        "frames_per_s": result.frames_per_s,
        "latency_ms_p50": percentile(result.latencies_ms, 50.0),
        "peak_rss_mb": result.peak_rss_kb / 1024.0,
    }


def first_difference(
    got: Sequence[MatchKey], expected: Sequence[MatchKey]
) -> Optional[str]:
    """``None`` when the two ordered streams are identical."""
    if list(got) == list(expected):
        return None
    for index, (a, b) in enumerate(zip(got, expected)):
        if a != b:
            return f"match {index}: got {a}, reference {b}"
    return f"{len(got)} matches, reference has {len(expected)}"


def mismatch(result: PassResult, reference: PassResult) -> Optional[str]:
    """The correctness gate: live and retro streams equal the
    reference's — qid, window, start, end, similarity and order."""
    live = first_difference(result.matches, reference.matches)
    if live is not None:
        return "live " + live
    retro = first_difference(result.retro, reference.retro)
    return None if retro is None else "retro " + retro
