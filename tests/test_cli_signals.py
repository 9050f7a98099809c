"""SIGTERM/SIGINT handling of the long-running CLI verbs.

Each test launches the real CLI in a subprocess, waits for it to make
progress, sends the signal, and asserts a clean exit: drained at a
chunk boundary, checkpoint written where configured, exit code 0.
"""

import json
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


def _spawn(*args: str) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-u", "-m", "repro", *args],
        cwd=REPO,
        env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


def _wait_for_line(proc: subprocess.Popen, needle: str, timeout: float):
    """Read stdout lines until one contains ``needle``."""
    deadline = time.monotonic() + timeout
    lines = []
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            if proc.poll() is not None:
                break
            continue
        lines.append(line)
        if needle in line:
            return lines
    raise AssertionError(
        f"never saw {needle!r} within {timeout}s; got: {lines!r} / "
        f"stderr: {proc.stderr.read() if proc.poll() is not None else '?'}"
    )


@pytest.mark.parametrize("sig", [signal.SIGTERM, signal.SIGINT])
def test_serve_signal_drains_and_checkpoints(tmp_path, sig):
    ckpt_dir = tmp_path / "ckpt"
    proc = _spawn(
        "serve",
        "--stream-seconds", "600", "--queries", "4", "--hashes", "16",
        "--workers", "2", "--backend", "process",
        "--chunk-seconds", "10", "--pace", "0.2",
        "--checkpoint-dir", str(ckpt_dir),
    )
    try:
        # --pace keeps chunks slow enough that the signal lands
        # mid-run; wait for real progress first (startup banner).
        _wait_for_line(proc, "serving", 60)
        time.sleep(1.0)
        proc.send_signal(sig)
        stdout, stderr = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert proc.returncode == 0, f"stderr: {stderr}"
    assert f"received {signal.Signals(sig).name}, draining" in stdout
    assert "snapshot" in stdout and "--resume" in stdout
    snapshots = list(ckpt_dir.glob("**/*"))
    assert snapshots, "no checkpoint written on signalled exit"


def test_serve_resume_after_sigterm_completes(tmp_path):
    """The checkpoint a signal leaves behind must actually resume."""
    ckpt_dir = tmp_path / "ckpt"
    common = (
        "serve",
        "--stream-seconds", "120", "--queries", "4", "--hashes", "16",
        "--workers", "2", "--backend", "process",
        "--chunk-seconds", "10",
        "--checkpoint-dir", str(ckpt_dir),
    )
    proc = _spawn(*common, "--pace", "0.2")
    try:
        _wait_for_line(proc, "serving", 60)
        time.sleep(1.0)
        proc.send_signal(signal.SIGTERM)
        stdout, stderr = proc.communicate(timeout=60)
        assert proc.returncode == 0, f"stderr: {stderr}"
        resumed = _spawn(*common, "--resume")
        stdout, stderr = resumed.communicate(timeout=300)
        assert resumed.returncode == 0, f"stderr: {stderr}"
        assert "precision" in stdout or "matches" in stdout
    finally:
        for p in (proc, locals().get("resumed")):
            if p is not None and p.poll() is None:
                p.kill()
                p.communicate()


def test_ingest_sigterm_stops_at_round_boundary(tmp_path):
    metrics = tmp_path / "ingest.json"
    proc = _spawn(
        "ingest",
        "--streams", "2", "--chunks", "400", "--chunk-seconds", "5",
        "--faults", "light", "--hashes", "16",
        "--metrics-out", str(metrics),
    )
    try:
        _wait_for_line(proc, "ingesting", 60)
        time.sleep(1.5)
        proc.send_signal(signal.SIGTERM)
        stdout, stderr = proc.communicate(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert proc.returncode == 0, f"stderr: {stderr}"
    # The scheduler stopped early but still flushed and reported.
    assert "stream" in stdout
    report = json.loads(metrics.read_text())
    assert report, "metrics snapshot missing after signalled stop"
