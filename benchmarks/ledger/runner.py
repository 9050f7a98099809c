"""One run of one workload: warm up, measure, trace, check, report."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from benchmarks.ledger import churn, encoded, fanin, spec, wire
from benchmarks.ledger.common import (
    available_cores, end_to_end_metrics, host_fingerprint,
    mismatch, tail_percentile, work_dir,
)
from benchmarks.ledger.ledger import per_layer_metrics
from benchmarks.ledger.tracing import Tracer, merge_span_files

MODULES = {
    module.NAME: module for module in (fanin, wire, encoded, churn)
}
assert list(MODULES) == list(spec.WORKLOADS)

#: Throw-away set-ups per run beside the warm-up's and the measured
#: pass's own. The short ones (4 ms encoded, 55 ms churn) are noisy and
#: cheap, so their median is taken over more; fanin's takes a second
#: and repeats to 3 %; the wire's gateway child sets up several times
#: by itself.
BARE_SETUPS = {encoded.NAME: 6, churn.NAME: 4}


@dataclass
class Report:
    """Everything one run produced, JSON-ready via ``to_json``."""

    workload: str
    seconds: float
    traced: bool
    host: Dict[str, object]
    skipped: Optional[str] = None
    correct: bool = False
    mismatch: Optional[str] = None
    ops_attempted: int = 0
    ops_failed: int = 0
    end_to_end: Dict[str, float] = field(default_factory=dict)
    per_layer: Dict[str, float] = field(default_factory=dict)
    latency_samples: int = 0
    tail_percentile: float = 0.0
    setup_samples: List[float] = field(default_factory=list)
    matches: int = 0
    notes: Dict[str, object] = field(default_factory=dict)
    missing_trace_targets: List[str] = field(default_factory=list)

    def to_json(self) -> Dict[str, object]:
        return dict(self.__dict__)

    def result_line(self) -> Dict[str, object]:
        """The benchmark contract's result object."""
        values = self.per_layer if self.traced else self.end_to_end
        return {
            "correct": self.correct,
            "attempted": self.ops_attempted,
            "failed": self.ops_failed,
            "metrics": {
                name: {"value": value, "unit": spec.UNITS[name]}
                for name, value in values.items()
            },
        }


def _traced_pass(module, inputs, label: str):
    """One pass with the wrappers installed; returns the pass result,
    the spans merged over every process, and the skipped targets."""
    with work_dir(f"trace-{label}") as trace_dir:
        tracer = Tracer(trace_dir)
        tracer.install()
        try:
            result = module.run_pass(inputs, trace_dir=trace_dir)
        finally:
            tracer.uninstall()
        tracer.dump()
        return (
            result, merge_span_files(trace_dir, result.timed), tracer.missing
        )


def run_workload(
    name: str, seed: int, seconds: float, scale: spec.Scale, traced: bool
) -> Report:
    report = Report(
        workload=name, seconds=seconds, traced=traced,
        host=host_fingerprint(seed),
    )
    if name in spec.NEEDS_TWO_CORES and available_cores() < 2:
        report.skipped = (
            f"needs 2 cores, {available_cores()} available: its shard "
            "and gateway processes would time-slice one CPU"
        )
        return report

    module = MODULES[name]
    inputs = module.make_inputs(seed, seconds, scale)
    # Nothing is timed before a throw-away service has run a prefix.
    # Its set-up, the bare ones and the measured pass's own give the
    # run's set-up samples.
    warm = module.run_pass(
        inputs, limit=max(1, round(spec.WARMUP_SHARE * module.size(inputs)))
    )
    bare = [
        sample
        for _ in range(BARE_SETUPS.get(name, 1))
        for sample in module.run_pass(inputs, limit=1).setup_samples
    ]
    untraced = module.run_pass(inputs)
    setups = warm.setup_samples + bare + untraced.setup_samples

    traced_result = merged = None
    if traced:
        traced_result, merged, report.missing_trace_targets = _traced_pass(
            module, inputs, name
        )
    reference = module.reference(inputs)

    check = getattr(module, "mismatch", mismatch)
    report.mismatch = check(untraced, reference)
    if report.mismatch is None and traced_result is not None:
        report.mismatch = check(traced_result, reference)
        if report.mismatch is not None:
            report.mismatch = "traced pass: " + report.mismatch
    report.correct = report.mismatch is None and untraced.ops_failed == 0
    report.ops_attempted = untraced.ops_attempted
    # A wrong match stream fails every op of the run.
    report.ops_failed = (
        untraced.ops_failed if report.mismatch is None
        else untraced.ops_attempted
    )
    report.end_to_end = end_to_end_metrics(untraced, setups)
    report.latency_samples = len(untraced.latencies_ms)
    report.tail_percentile = tail_percentile(untraced.latencies_ms)[0]
    report.setup_samples = setups
    report.matches = len(untraced.matches)
    report.notes = dict(untraced.notes)
    report.notes["retro_matches"] = len(untraced.retro)

    if traced_result is not None:
        twin = wire.twin_elapsed_s(inputs) if module is wire else None
        report.per_layer = per_layer_metrics(
            untraced, traced_result, merged, reference, twin
        )
    return report
