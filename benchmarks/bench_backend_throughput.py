"""Backend throughput: kernels vs the per-branch interp loop.

A fig9-style configuration sweep (table sizes across the gshare/bimodal
families) on the ``numpy`` [I] scan and on the ``native`` C kernel under
[I] and [C], the TAGE group on the kernel under [I], and the neural
(perceptron/GEHL) group on it under [I] and [C].
Parity is asserted bit for bit before any timing claim; the measured
speedup is recorded in the benchmark JSON ``extra_info`` (and so lands in
the CI ``BENCH_*.json`` artifacts), beside the kernel's branches/s.

The sweeps use at least :data:`MIN_BRANCHES` branches however small
``REPRO_BENCH_BRANCHES`` is: sub-millisecond interp times would make the
speedup ratio noise instead of a measurement.
"""

from __future__ import annotations

import time

from benchmarks.conftest import BENCH_BRANCHES, BENCH_PIPELINE, BENCH_SEED, run_once
from repro.backends import get_backend
from repro.pipeline.config import PipelineConfig
from repro.pipeline.engine import SimulationEngine
from repro.pipeline.scenarios import UpdateScenario
from repro.predictors.registry import PredictorSpec
from repro.traces.suite import generate_trace

MIN_BRANCHES = 4_000

#: The fig9-style axis: power-of-two size sweeps of both table families.
SWEEP_SPECS = [
    PredictorSpec("gshare", {"log2_entries": n}) for n in range(8, 14)
] + [PredictorSpec("bimodal", {"entries": 1 << n}) for n in range(8, 14)]

#: The neural group (native kernel): perceptron row counts and GEHL table sizes.
NEURAL_SPECS = [
    PredictorSpec("perceptron", {"log2_rows": n}) for n in range(7, 13)
] + [
    PredictorSpec(
        "gehl",
        {
            "num_tables": 6,
            "log2_entries": n,
            "counter_bits": 5,
            "min_history": 2,
            "max_history": 120,
        },
    )
    for n in range(7, 13)
]

#: The TAGE group (native kernel): the reference configuration plus a generated variant.
TAGE_SPECS = [
    PredictorSpec("tage"),
    PredictorSpec(
        "tage",
        {
            "num_tagged_tables": 6,
            "min_history": 4,
            "max_history": 300,
            "base_log2_entries": 9,
            "bimodal_log2_entries": 11,
        },
    ),
]


def _sweep_trace():
    return generate_trace(
        "INT01", branches_per_trace=max(BENCH_BRANCHES, MIN_BRANCHES), seed=BENCH_SEED
    )


def _record_tasks(benchmark, tasks, runs, minimum_speedup, label, backend_name="numpy"):
    """Time the interp loop vs one ``run_tasks`` call over ``tasks``, per
    (scenario, config) pair in ``runs``; the timed call runs them all."""
    backend = get_backend(backend_name)
    branches = sum(len(trace) for _, trace in tasks)
    benchmark.extra_info["configs"] = len(tasks)
    benchmark.extra_info["branches"] = branches
    speedups = {}
    for scenario, config in runs:
        assert all(backend.supports(spec, scenario, config) for spec, _ in tasks)
        start = time.perf_counter()
        interp_results = [
            SimulationEngine(spec.build(), scenario, config).run(trace) for spec, trace in tasks
        ]
        interp_seconds = time.perf_counter() - start

        start = time.perf_counter()
        batched = backend.run_tasks(tasks, scenario, config)
        kernel_seconds = time.perf_counter() - start
        assert batched == interp_results  # parity before any speed claim

        speedup = speedups[scenario.label] = interp_seconds / kernel_seconds
        prefix = "" if len(runs) == 1 else f"{scenario.value}_"
        benchmark.extra_info[f"{prefix}interp_seconds"] = round(interp_seconds, 4)
        benchmark.extra_info[f"{prefix}{backend_name}_seconds"] = round(kernel_seconds, 4)
        benchmark.extra_info[f"{prefix}speedup"] = round(speedup, 2)
        benchmark.extra_info[f"{prefix}{backend_name}_branches_per_s"] = round(
            branches / kernel_seconds)
        print(
            f"\n{scenario.label} {label} of {len(tasks)} lanes / {branches} branches: "
            f"interp {interp_seconds:.3f}s, {backend_name} {kernel_seconds:.3f}s, {speedup:.1f}x"
        )
    run_once(benchmark, lambda: [backend.run_tasks(tasks, *run) for run in runs])
    for scenario_label, speedup in speedups.items():
        assert speedup >= minimum_speedup, (
            f"{backend_name} backend only {speedup:.2f}x over the per-branch loop "
            f"(expected >= {minimum_speedup}x on a {len(tasks)}-lane {label} "
            f"under {scenario_label})"
        )


def test_bench_backend_immediate_sweep(benchmark):
    """Scenario [I]: the segmented-scan kernel vs N interp passes (>= 3x)."""
    trace = _sweep_trace()
    _record_tasks(benchmark, [(spec, trace) for spec in SWEEP_SPECS],
                  [(UpdateScenario.IMMEDIATE, PipelineConfig())], minimum_speedup=3.0,
                  label="sweep")


def test_bench_backend_twobit_native(benchmark):
    """The same two-bit sweep on the native C kernel vs interp, [I] and [C] (>= 10x).

    Each (family, scenario) pair runs its own compiled instance of the
    kernel loop; one timed call covers both scenarios, each gated on its own.
    """
    trace = _sweep_trace()
    runs = [(UpdateScenario.IMMEDIATE, PipelineConfig()),
            (UpdateScenario.REREAD_ON_MISPREDICTION, BENCH_PIPELINE)]
    _record_tasks(benchmark, [(spec, trace) for spec in SWEEP_SPECS], runs,
                  minimum_speedup=10.0, label="sweep", backend_name="native")


def test_bench_backend_tage_native(benchmark):
    """TAGE on the native C kernel vs the interp engine (>= 10x).

    The kernel runs the whole simulation in C — about 70x the interp loop
    on this group — so the gate leaves a wide margin for a busy host.
    """
    tasks = [(spec, _sweep_trace()) for spec in TAGE_SPECS]
    _record_tasks(benchmark, tasks, [(UpdateScenario.IMMEDIATE, PipelineConfig())],
                  minimum_speedup=10.0, label="sweep", backend_name="native")


def test_bench_backend_neural_native(benchmark):
    """Perceptron/GEHL sweep on the native C kernel vs interp, [I] and [C] (>= 10x).

    The interp loop pays a per-branch Python dot product (perceptron) or
    adder tree (GEHL); the kernel runs the same arithmetic in C.  One
    timed call covers both scenarios, each gated on its own.
    """
    trace = _sweep_trace()
    runs = [(UpdateScenario.IMMEDIATE, PipelineConfig()),
            (UpdateScenario.REREAD_ON_MISPREDICTION, BENCH_PIPELINE)]
    _record_tasks(benchmark, [(spec, trace) for spec in NEURAL_SPECS], runs,
                  minimum_speedup=10.0, label="neural sweep", backend_name="native")
