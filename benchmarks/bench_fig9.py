"""Figure 9 — CPU cost vs number of continuous queries m.

Paper protocol (Section VI-C): four methods (Sketch/Bit x Index/NoIndex)
under both orders, m from 10 to 200. Expected shape: the NoIndex methods
grow roughly linearly in m (every query is compared at every window); the
Index methods stay nearly flat (a probe touches only related queries).

Scaled analogue: m from 6 to 48 query clips; only the first 12 are
actually inserted into the stream (extra queries monitor without ever
matching — exactly the regime the index exploits).

Measurement method. As in ``bench_fig6.py``, the shapes are asserted on
the engines' deterministic operation counts, which the oracle and the
production engines report identically: ``sketch_comparisons`` for the
Sketch methods, ``signature_combines`` and ``signature_encodes`` for the
Bit methods. At m ≤ 48 the per-window fixed cost of the production
engines hides the m-dependence in wall time, so wall time is printed
beside the counts but not asserted. The Sketch methods run on the
oracle, ``repro.reference.ReferenceDetector`` (``run_detector`` picks
it for a sketch configuration), so their wall time is the paper's
algorithm one pair at a time.
"""

from __future__ import annotations

import pytest

from repro.config import CombinationOrder, DetectorConfig, Representation
from repro.evaluation.reporting import format_series, format_table
from repro.evaluation.runner import PreparedWorkload, run_detector
from repro.video.synth import ClipSynthesizer
from repro.workloads.doctor import StreamDoctor
from repro.workloads.library import ClipLibrary

from benchmarks.conftest import BENCH_SEED

M_SWEEP = (6, 12, 24, 48)
NUM_INSERTED = 12

METHODS = [
    ("SketchIndex", Representation.SKETCH, True),
    ("SketchNoIndex", Representation.SKETCH, False),
    ("BitIndex", Representation.BIT, True),
    ("BitNoIndex", Representation.BIT, False),
]

#: The counted work each representation's shape is asserted on.
COUNTERS = {
    Representation.SKETCH: ("sketch_comparisons",),
    Representation.BIT: ("signature_combines", "signature_encodes"),
}


@pytest.fixture(scope="module")
def fig9_prepared(bench_profile):
    """A 48-query library whose first 12 clips are inserted into VS1."""
    profile = bench_profile.replace(num_queries=max(M_SWEEP))
    library = ClipLibrary(
        profile, ClipSynthesizer(seed=BENCH_SEED), seed=BENCH_SEED
    )
    stream = StreamDoctor(profile, seed=BENCH_SEED).build_vs1(
        library.subset(NUM_INSERTED)
    )
    return PreparedWorkload.prepare(stream, library)


@pytest.mark.parametrize("order", list(CombinationOrder))
def test_fig9_cpu_vs_m(benchmark, fig9_prepared, order):
    def sweep():
        # Warm caches (numpy, allocator, fixture pages) so the first
        # measured configuration is not inflated by cold-start costs.
        run_detector(
            fig9_prepared.subset_queries(M_SWEEP[0]),
            DetectorConfig(num_hashes=400, order=order),
        )
        results = {}
        for name, representation, use_index in METHODS:
            results[name] = [
                run_detector(
                    fig9_prepared.subset_queries(num_queries),
                    DetectorConfig(
                        num_hashes=400,
                        representation=representation,
                        use_index=use_index,
                        order=order,
                    ),
                )
                for num_queries in M_SWEEP
            ]
        return results

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    counts = {
        (name, counter): [getattr(r.stats, counter) for r in results[name]]
        for name, representation, _use_index in METHODS
        for counter in COUNTERS[representation]
    }
    print()
    print(
        format_table(
            ["method", "counter"] + [f"m={m}" for m in M_SWEEP],
            [
                [name, counter] + [f"{value:,}" for value in series]
                for (name, counter), series in counts.items()
            ],
            title=f"Figure 9 ({order.value}): counted work vs m (VS1)",
        )
    )
    print(
        format_table(
            ["method"] + [f"m={m}" for m in M_SWEEP],
            [
                [name] + [f"{r.cpu_seconds:.3f}" for r in runs]
                for name, runs in results.items()
            ],
            title=f"Figure 9 ({order.value}): wall seconds vs m "
            "(unasserted; Sketch on the oracle)",
        )
    )
    for name, runs in results.items():
        print(format_series(
            f"{name}-{order.value}", M_SWEEP, [r.cpu_seconds for r in runs]
        ))

    # Shape assertions bind on the Sequential order, where candidate
    # maintenance dominates (the paper's default); the Geometric ladder
    # is so cheap at this scale that the probe's fixed overhead hides
    # the m-dependence, so its table is reported unasserted.
    if order is CombinationOrder.SEQUENTIAL:
        for representation, counters in COUNTERS.items():
            representation = representation.value.capitalize()
            for counter in counters:
                indexed = counts[(f"{representation}Index", counter)]
                unindexed = counts[(f"{representation}NoIndex", counter)]
                grew_indexed = indexed[-1] - indexed[0]
                grew_unindexed = unindexed[-1] - unindexed[0]
                assert grew_unindexed > grew_indexed, (
                    f"{representation} {counter}: NoIndex +{grew_unindexed} "
                    f"should exceed Index +{grew_indexed} over the m sweep"
                )
                # At the largest m the indexed variant does less work.
                assert indexed[-1] < unindexed[-1], (
                    f"{representation} {counter} at m={M_SWEEP[-1]}: "
                    f"Index {indexed[-1]} should be below NoIndex "
                    f"{unindexed[-1]}"
                )
