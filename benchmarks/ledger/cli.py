"""Command line of the cost ledger.

Two ways in:

* the benchmark contract —
  ``python3 benchmarks/ledger/run.py --workload NAME --seed N --seconds S
  --trace 0|1`` runs one workload and prints, as the last line of
  standard output, one JSON object with ``correct``, ``attempted``,
  ``failed`` and ``metrics`` (end-to-end metrics for ``--trace 0``,
  per-layer metrics for ``--trace 1``);
* by hand — ``PYTHONPATH=src python -m benchmarks.ledger [--quick]
  [--traced] [--workload NAME] [--seed N] [--json PATH]`` runs every
  workload (or one) and prints every metric by name with its unit;
  ``--aa N`` runs N alternating sets and prints the noise table.

Exit status is 0 only when every match stream equalled its reference.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

from benchmarks.ledger import spec
from benchmarks.ledger.common import (
    LEDGER_DIR, host_fingerprint, owned_processes, work_dir,
)
from benchmarks.ledger.runner import Report, run_workload

DEFAULT_SEED = 20080407  # ICDE 2008 in Cancún


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="benchmarks.ledger", description=__doc__.splitlines()[0]
    )
    parser.add_argument("--workload", choices=list(spec.WORKLOADS),
                        help="run one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="how long one pass measures on the reference "
                        f"host (default {spec.FULL_SECONDS}, "
                        f"--quick {spec.QUICK_SECONDS})")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: add a traced pass and report the "
                        "per-layer metrics")
    parser.add_argument("--traced", action="store_const", const=1,
                        dest="trace", help="same as --trace 1")
    parser.add_argument("--quick", action="store_true",
                        help="small sizes: all four workloads in under "
                        "a minute (smoke test, not a measurement)")
    parser.add_argument("--json", type=Path, default=None, metavar="PATH",
                        help="also write the full reports as JSON")
    parser.add_argument("--aa", type=int, default=0, metavar="N",
                        help="run N alternating untraced sets of the same "
                        "code, each with its own seed, and print median, "
                        "quartiles and spread per metric and workload")
    return parser


def _print_report(report: Report) -> None:
    print(f"== {report.workload} (seed {report.host['seed']}, "
          f"{report.seconds:g} s, {report.host['cpu_cores']} cores) ==")
    if report.skipped:
        print(f"   skipped: {report.skipped}")
        return
    status = "ok" if report.correct else f"FAILED: {report.mismatch}"
    print(f"   correctness: {status}; ops {report.ops_attempted} "
          f"attempted, {report.ops_failed} failed; "
          f"{report.matches} matches; "
          f"{report.latency_samples} latency samples "
          f"(tail = p{report.tail_percentile:g})")
    for name, value in report.end_to_end.items():
        print(f"   {name:<44s} {value:>14.4f} {spec.UNITS[name]}")
    for key, value in sorted(report.notes.items()):
        print(f"   note {key} = {value}")
    if not report.traced:
        return
    print("   -- per layer --")
    for name, value in report.per_layer.items():
        if value:
            print(f"   {name:<44s} {value:>14.4f} {spec.UNITS[name]}")
    rows = {
        layer: report.per_layer[spec.ledger_row(layer)]
        for layer in spec.LEDGER_LAYERS
    }
    attributed = sum(rows.values())
    e2e = report.per_layer["ledger.e2e.us_per_window"]
    print(f"   -- ledger: {e2e:.1f} us/window end to end, "
          f"{attributed:.1f} attributed, "
          f"{e2e - attributed:+.1f} unattributed "
          f"({abs(e2e - attributed) / e2e:.0%} of end to end) --")
    for layer, value in sorted(rows.items(), key=lambda row: -row[1]):
        if value:
            print(f"   {layer:<20s} {value:>10.1f} us/window "
                  f"{value / attributed:>6.1%} of attributed")
    if report.missing_trace_targets:
        print("   trace targets not found (spans skipped): "
              + ", ".join(report.missing_trace_targets))


def _fresh_process_run(
    name: str, seed: int, seconds: float, quick: bool, trace: int,
    echo: bool,
) -> Dict[str, object]:
    """One workload exactly as the driver runs it — a fresh process with
    the contract's arguments — returning its full report. Peak memory
    and warm caches then never leak from one workload into the next."""
    with work_dir("run") as scratch:
        out = scratch / "report.json"
        command = [
            sys.executable, str(LEDGER_DIR / "run.py"), "--workload", name,
            "--seed", str(seed), "--seconds", f"{seconds:g}",
            "--trace", str(trace), "--json", str(out),
        ] + (["--quick"] if quick else [])
        done = subprocess.run(
            command, capture_output=True, text=True, timeout=900,
            check=False,
        )
        if not out.exists():
            raise SystemExit(
                f"{name} seed {seed} exited {done.returncode} without a "
                f"report:\n{done.stdout[-2000:]}\n{done.stderr[-2000:]}"
            )
        if echo:
            lines = done.stdout.splitlines()
            # the contract's result line is for the driver, not the eye
            print("\n".join(
                lines[:-1] if lines and lines[-1].startswith("{") else lines
            ), flush=True)
        return json.loads(out.read_text())["reports"][0]


# ----------------------------------------------------------------------
# A/A noise mode
# ----------------------------------------------------------------------


def spread_table(
    samples: Dict[str, Dict[str, List[float]]]
) -> Dict[str, Dict[str, Dict[str, float]]]:
    """Per workload and metric: median, quartiles, (q3 - q1) / median."""
    bounds = {metric.name: metric.bound for metric in spec.END_TO_END}
    table: Dict[str, Dict[str, Dict[str, float]]] = {}
    for workload, by_metric in samples.items():
        table[workload] = {}
        for metric, values in by_metric.items():
            q1, median, q3 = statistics.quantiles(values, n=4)
            table[workload][metric] = {
                "runs": len(values), "median": median, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / median, "bound": bounds[metric],
            }
    return table


def _run_aa(args, seconds: float) -> Dict[str, object]:
    names = [args.workload] if args.workload else list(spec.WORKLOADS)
    samples: Dict[str, Dict[str, List[float]]] = {
        name: {metric: [] for metric in spec.END_TO_END_NAMES}
        for name in names
    }
    failed = invalid = 0
    for index in range(args.aa):
        # Alternate the order so a drift over the session does not
        # land on the same workload every time.
        order = names if index % 2 == 0 else list(reversed(names))
        for name in order:
            report = _fresh_process_run(
                name, args.seed + index, seconds, args.quick, trace=0,
                echo=False,
            )
            failed += report["ops_failed"]
            # An open-loop phase that fell behind its schedule measured
            # the run length, not the system: leave it out.
            valid = report["notes"].get("phase_b_valid", True)
            invalid += 0 if valid else 1
            for metric, value in report["end_to_end"].items():
                if valid or not metric.startswith("latency_ms"):
                    samples[name][metric].append(value)
        print(f"set {index + 1}/{args.aa} done", flush=True)
    table = spread_table(samples)
    if invalid:
        print(f"{invalid} run(s) with an invalid open-loop phase left out "
              "of the latency rows")
    print(f"{'workload':<20s}{'metric':<18s}{'median':>12s}{'q1':>12s}"
          f"{'q3':>12s}{'spread':>9s}{'bound':>8s}")
    for workload, by_metric in table.items():
        for metric, row in by_metric.items():
            flag = "" if row["spread"] <= row["bound"] / 3 else (
                "  > bound/3" if row["spread"] <= row["bound"]
                else "  > BOUND"
            )
            print(f"{workload:<20s}{metric:<18s}{row['median']:>12.4f}"
                  f"{row['q1']:>12.4f}{row['q3']:>12.4f}"
                  f"{row['spread']:>9.2%}{row['bound']:>8.0%}{flag}")
    return {
        "host": host_fingerprint(args.seed), "sets": args.aa,
        "seconds": seconds, "quick": args.quick, "ops_failed": failed,
        "invalid_open_loop_runs": invalid, "table": table,
        "samples": samples,
    }


# ----------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    scale = spec.QUICK if args.quick else spec.FULL
    seconds = args.seconds or (
        spec.QUICK_SECONDS if args.quick else spec.FULL_SECONDS
    )
    if args.aa:
        if args.aa < 2:
            raise SystemExit("--aa needs at least 2 sets for quartiles")
        document = _run_aa(args, seconds)
        if args.json:
            args.json.write_text(json.dumps(document, indent=1) + "\n")
        return 0 if document["ops_failed"] == 0 else 1

    if args.workload:
        with owned_processes():
            report = run_workload(
                args.workload, args.seed, seconds, scale, bool(args.trace)
            )
        _print_report(report)
        reports = [report.to_json()]
    else:
        reports = [
            _fresh_process_run(
                name, args.seed, seconds, args.quick, args.trace, echo=True
            )
            for name in spec.WORKLOADS
        ]
    if args.json:
        args.json.write_text(
            json.dumps({"reports": reports}, indent=1) + "\n"
        )
    measured = [report for report in reports if not report["skipped"]]
    if args.workload:
        if not measured:
            return 3  # skipped: no result line, the driver must not pass it
        print(json.dumps(report.result_line()))
    return 0 if all(report["correct"] for report in measured) else 1
