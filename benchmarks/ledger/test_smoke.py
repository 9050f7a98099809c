"""Smoke test of the cost ledger: ``--quick --traced`` on all four
workloads, then the shape of what it emitted.

Not part of tier-1 (``testpaths = tests``); run it with
``PYTHONPATH=src python -m pytest benchmarks/ledger/test_smoke.py``.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

LEDGER_DIR = Path(__file__).resolve().parent
REPO_ROOT = LEDGER_DIR.parent.parent
sys.path[:0] = [str(REPO_ROOT / "src"), str(REPO_ROOT)]

from benchmarks.ledger import spec  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    out = tmp_path_factory.mktemp("ledger") / "quick.json"
    done = subprocess.run(
        [sys.executable, str(LEDGER_DIR / "run.py"), "--quick", "--traced",
         "--json", str(out)],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    return json.loads(out.read_text())["reports"]


def test_every_workload_ran_and_matched_its_reference(reports):
    assert [report["workload"] for report in reports] == list(spec.WORKLOADS)
    for report in reports:
        if report["skipped"]:
            assert report["workload"] in spec.NEEDS_TWO_CORES
            assert report["host"]["cpu_cores"] < 2
            continue
        assert report["correct"], report["mismatch"]
        assert report["ops_attempted"] >= 1
        assert report["ops_failed"] == 0
        assert report["matches"] > 0
        assert set(report["host"]) == {
            "cpu_cores", "python", "numpy", "machine", "seed", "git_commit"
        }


def test_metric_names_and_counts(reports):
    assert len(spec.END_TO_END) <= 16
    assert len(spec.PER_LAYER) <= 128
    for name in list(spec.WORKLOADS) + list(spec.UNITS):
        assert NAME.match(name), name
    assert "setup_s" in spec.END_TO_END_NAMES
    for report in reports:
        if report["skipped"]:
            continue
        assert list(report["end_to_end"]) == spec.END_TO_END_NAMES
        assert set(report["per_layer"]) == set(spec.PER_LAYER_NAMES)
        # An end-to-end metric a workload cannot produce would read 0.
        for name, value in report["end_to_end"].items():
            assert value > 0, (report["workload"], name)


def test_every_layer_metric_names_what_it_should_move():
    for metric in spec.PER_LAYER:
        for end_to_end, workload in metric.moves:
            assert end_to_end in spec.END_TO_END_NAMES, metric.name
            assert workload in spec.WORKLOADS, metric.name
    for layer in spec.LEDGER_LAYERS:
        assert spec.ledger_row(layer) in spec.PER_LAYER_NAMES


def test_ledger_rows_reconcile_with_the_end_to_end_figure(reports):
    for report in reports:
        if report["skipped"]:
            continue
        layers = report["per_layer"]
        rows = sum(
            layers[spec.ledger_row(layer)] for layer in spec.LEDGER_LAYERS
        )
        assert rows > 0
        assert rows + layers["ledger.unattributed.us_per_window"] == (
            pytest.approx(layers["ledger.e2e.us_per_window"], rel=1e-9)
        )
        assert not report["missing_trace_targets"]


def test_benchmark_json_agrees_with_the_spec():
    document = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    assert set(document) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert document["paths"] == ["benchmarks/ledger"]
    assert document["run_seconds"] == spec.FULL_SECONDS
    assert {w["name"]: w["why"] for w in document["workloads"]} == (
        spec.WORKLOADS
    )
    assert document["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better,
         "bound": m.bound}
        for m in spec.END_TO_END
    ]
    assert document["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in spec.PER_LAYER
    ]
    assert all(m["bound"] <= 0.25 for m in document["end_to_end"])


#: Runs ``argv[1:]`` as a child subreaper: whatever the command leaves
#: unreaped or running is re-parented here when it exits. Prints them.
_ORPHANS = """
import ctypes, os, subprocess, sys
ctypes.CDLL(None).prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
code = subprocess.run(sys.argv[1:], stdout=subprocess.DEVNULL).returncode
left = []
for pid in filter(str.isdigit, os.listdir("/proc")):
    try:
        with open(f"/proc/{pid}/stat") as stat:
            parent = int(stat.read().rsplit(")", 1)[1].split()[1])
    except OSError:
        continue
    if parent == os.getpid():
        left.append(int(pid))
print(code, left)
"""


@pytest.mark.skipif(sys.platform != "linux", reason="needs prctl and /proc")
@pytest.mark.parametrize("workload", sorted(spec.NEEDS_TWO_CORES))
def test_a_run_leaves_no_process_behind(workload):
    done = subprocess.run(
        [sys.executable, "-c", _ORPHANS, sys.executable,
         str(LEDGER_DIR / "run.py"), "--quick", "--workload", workload],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=300,
    )
    # exit 3 = skipped on a one-core host; it must be clean all the same
    assert done.stdout.split(maxsplit=1)[0] in ("0", "3"), done.stderr[-3000:]
    assert done.stdout.split(maxsplit=1)[1].strip() == "[]"


def test_no_module_here_is_collected_as_a_benchmark():
    # pyproject collects bench_*.py; a full run must never start from
    # ``pytest benchmarks/``.
    assert not list(LEDGER_DIR.glob("bench_*.py"))
