"""Figure 6 — CPU cost vs number of hash functions K.

Paper protocol (Section VI-B): run Bit and Sketch representations under
both combination orders on VS1, sweeping K. Expected shape: the Sketch
method's cost grows steeply with K (every comparison and combination is
an O(K) vector operation), the Bit method stays nearly flat
(word-parallel bit operations); Geometric order is much cheaper than
Sequential for the Sketch method.

Measurement method. At this reproduction's scale the detector's absolute
wall-clock sits at ~0.1-0.3 s, where scheduler noise swamps the
representational term, so the figure is regenerated the way Eq. (4)
expresses it: the engines' *deterministic primitive-operation counts*
(instrumented per run) are priced with per-operation costs measured
once in tight micro-benchmarks at each K and frozen below
(:data:`PER_OP_SECONDS`), so the asserted figure is a pure function of
the counts and cannot follow host noise. The same micro-benchmarks are
re-run live and their figure printed beside the frozen one, as is
wall-clock; neither is asserted on.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from benchmarks.conftest import dump_metrics_snapshot
from repro.config import CombinationOrder, DetectorConfig, Representation
from repro.evaluation.ascii_chart import render_chart
from repro.evaluation.reporting import format_series, format_table
from repro.evaluation.runner import run_detector
from repro.minhash.family import MinHashFamily
from repro.signature.bitsig import BitSignature

#: The sweep reaches past the paper's 3000 because numpy's fixed per-call
#: overhead flattens O(K) costs below K ≈ 1000; the asymptotic contrast
#: the paper's C++ shows at K=3000 appears here at the top of this range.
K_SWEEP = (100, 400, 1600, 6400)

#: Seconds per primitive operation at each K: the median of five runs of
#: :func:`_per_op_costs`, measured 2026-10-18 on a shared 2-vCPU
#: "Intel(R) Xeon(R) Processor" host (Python 3.11.7, numpy 2.4.6).
PER_OP_SECONDS = {
    100: {"sketch_compare": 2.145e-6, "sketch_combine": 1.991e-6,
          "bit_or_score": 2.393e-6, "bit_encode": 3.583e-6},
    400: {"sketch_compare": 2.406e-6, "sketch_combine": 2.877e-6,
          "bit_or_score": 2.569e-6, "bit_encode": 4.002e-6},
    1600: {"sketch_compare": 2.583e-6, "sketch_combine": 3.476e-6,
           "bit_or_score": 2.161e-6, "bit_encode": 5.592e-6},
    6400: {"sketch_compare": 5.435e-6, "sketch_combine": 5.139e-6,
           "bit_or_score": 3.648e-6, "bit_encode": 11.601e-6},
}

VARIANTS = [
    ("Bit-Seq", Representation.BIT, CombinationOrder.SEQUENTIAL),
    ("Bit-Geo", Representation.BIT, CombinationOrder.GEOMETRIC),
    ("Sketch-Seq", Representation.SKETCH, CombinationOrder.SEQUENTIAL),
    ("Sketch-Geo", Representation.SKETCH, CombinationOrder.GEOMETRIC),
]


def _measure(operation, repetitions=3000):
    """Median-of-3 timing of ``repetitions`` calls (seconds per call)."""
    samples = []
    for _trial in range(3):
        started = time.perf_counter()
        for _ in range(repetitions):
            operation()
        samples.append((time.perf_counter() - started) / repetitions)
    return sorted(samples)[1]


def _per_op_costs(num_hashes, num_queries=12):
    """Micro-benchmark the primitive costs at width K.

    ``bit_encode`` is priced the way the engine performs it: one batched
    (m, K) comparison + packbits per window, divided by m.
    """
    family = MinHashFamily(num_hashes=num_hashes, seed=1)
    rng = np.random.default_rng(0)
    sketch_a = family.sketch(rng.choice(10_000, size=40, replace=False))
    sketch_b = family.sketch(rng.choice(10_000, size=40, replace=False))
    sig_a = BitSignature.encode(sketch_a, sketch_b)
    sig_b = BitSignature.encode(sketch_b, sketch_a)
    matrix = np.stack(
        [
            family.sketch(rng.choice(10_000, size=40, replace=False)).values
            for _ in range(num_queries)
        ]
    )
    values = sketch_a.values

    def batched_encode():
        ge = np.packbits(values[np.newaxis, :] <= matrix, axis=1, bitorder="little")
        lt = np.packbits(values[np.newaxis, :] < matrix, axis=1, bitorder="little")
        for row in range(num_queries):
            BitSignature._raw(
                int.from_bytes(ge[row].tobytes(), "little"),
                int.from_bytes(lt[row].tobytes(), "little"),
                num_hashes,
            )

    return {
        "sketch_compare": _measure(lambda: sketch_a.similarity(sketch_b)),
        "sketch_combine": _measure(lambda: sketch_a.combine(sketch_b)),
        "bit_or_score": _measure(lambda: sig_a.combine(sig_b).similarity),
        "bit_encode": _measure(batched_encode, repetitions=500) / num_queries,
    }


def _model_cost(stats, costs):
    """Price a run's instrumented op counts with per-op constants."""
    return (
        stats.sketch_comparisons * costs["sketch_compare"]
        + stats.sketch_combines * costs["sketch_combine"]
        + (stats.signature_combines + stats.signature_prunes)
        * costs["bit_or_score"]
        + stats.signature_encodes * costs["bit_encode"]
    )


def test_fig6_cost_vs_k(benchmark, vs1_prepared):
    def sweep():
        modeled = {name: [] for name, _r, _o in VARIANTS}
        live = {name: [] for name, _r, _o in VARIANTS}
        wall = {name: [] for name, _r, _o in VARIANTS}
        prices = {}
        for num_hashes in K_SWEEP:
            live_costs = prices[num_hashes] = _per_op_costs(num_hashes)
            for name, representation, order in VARIANTS:
                config = DetectorConfig(
                    num_hashes=num_hashes,
                    representation=representation,
                    order=order,
                    use_index=False,
                )
                result = run_detector(vs1_prepared, config)
                dump_metrics_snapshot(
                    f"fig6_{name}_K{num_hashes}", result.metrics
                )
                modeled[name].append(
                    _model_cost(result.stats, PER_OP_SECONDS[num_hashes])
                )
                live[name].append(_model_cost(result.stats, live_costs))
                wall[name].append(result.cpu_seconds)
        return modeled, live, wall, prices

    modeled, live, wall, prices = benchmark.pedantic(
        sweep, rounds=1, iterations=1
    )
    print()
    print(
        format_table(
            ["op"] + [f"K={k}" for k in K_SWEEP],
            [
                [op] + [
                    f"{1e6 * PER_OP_SECONDS[k][op]:.2f} / "
                    f"{1e6 * prices[k][op]:.2f}"
                    for k in K_SWEEP
                ]
                for op in PER_OP_SECONDS[K_SWEEP[0]]
            ],
            title="per-op cost, us: frozen / live",
        )
    )
    rows = [
        [name] + [f"{t:.4f}" for t in series] for name, series in modeled.items()
    ]
    print(
        format_table(
            ["method"] + [f"K={k}" for k in K_SWEEP],
            rows,
            title="Figure 6: modeled query-processing seconds vs K "
            "(Eq. (4) op counts x frozen per-op cost; VS1, no index)",
        )
    )
    print(render_chart(modeled, K_SWEEP, title="modeled cost vs K",
                       y_label="sec"))
    for name, series in modeled.items():
        print(format_series(f"model {name}", K_SWEEP, series))
    for name, series in live.items():
        print(format_series(f"live  {name}", K_SWEEP, series))
    for name, series in wall.items():
        print(format_series(f"wall  {name}", K_SWEEP, series))

    # Shape assertions on the deterministic model (frozen prices; the
    # live-priced figure above is for comparison only). The paper's C++
    # prototype compares K raw values per sketch operation, so its Bit
    # method wins by the word-parallel factor (~64x in op count); our
    # Sketch comparisons are numpy (already word-parallel C), which
    # compresses the magnitude. The *shape* survives: Bit sits below
    # Sketch under the Sequential order and its K-growth is slower.
    sketch_growth = modeled["Sketch-Seq"][-1] - modeled["Sketch-Seq"][0]
    bit_growth = modeled["Bit-Seq"][-1] - modeled["Bit-Seq"][0]
    assert sketch_growth > bit_growth, (
        f"Sketch should grow faster: +{sketch_growth:.4f}s "
        f"vs +{bit_growth:.4f}s"
    )
    # At the largest K, Bit beats Sketch under the Sequential order
    # (where candidate maintenance dominates).
    assert modeled["Bit-Seq"][-1] < modeled["Sketch-Seq"][-1]
    # Geometric is far cheaper than Sequential for the Sketch method.
    assert modeled["Sketch-Geo"][-1] < modeled["Sketch-Seq"][-1] / 2
