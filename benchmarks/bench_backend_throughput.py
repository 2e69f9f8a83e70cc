"""Backend throughput: batched kernels vs the per-branch interp loop.

Fig9-style configuration sweeps (table sizes across the gshare/bimodal
families, row/entry counts across the perceptron/GEHL families) over one
trace and a fig10-style suite run where one ``run_tasks`` call spans
every trace — the two batch axes the ``numpy`` backend stacks: derive
each trace's history streams once from its columns, then run every
(configuration, trace) lane off them — plus a TAGE group on the
``native`` C kernel.
Parity is asserted bit for bit before any timing claim; the measured
speedup is recorded in the benchmark JSON ``extra_info`` (and so lands in
the CI ``BENCH_*.json`` artifacts).

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
from repro.traces.suite import generate_suite, generate_trace

MIN_BRANCHES = 4_000

#: The fig9-style axis: power-of-two size sweeps of both table families.
SWEEP_SPECS = [
    PredictorSpec("gshare", {"log2_entries": n}) for n in range(8, 14)
] + [PredictorSpec("bimodal", {"entries": 1 << n}) for n in range(8, 14)]

#: The neural fig9-style axis: perceptron row counts and GEHL table sizes.
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


def _record_tasks(benchmark, tasks, scenario, config, minimum_speedup, label,
                  backend_name="numpy"):
    """Time the interp loop vs one batched ``run_tasks`` call over ``tasks``."""
    backend = get_backend(backend_name)
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

    speedup = interp_seconds / kernel_seconds
    branches = sum(len(trace) for _, trace in tasks)
    benchmark.extra_info["configs"] = len(tasks)
    benchmark.extra_info["branches"] = branches
    benchmark.extra_info["interp_seconds"] = round(interp_seconds, 4)
    benchmark.extra_info[f"{backend_name}_seconds"] = round(kernel_seconds, 4)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    print(
        f"\n{scenario.label} {label} of {len(tasks)} lanes / {branches} branches: "
        f"interp {interp_seconds:.3f}s, {backend_name} {kernel_seconds:.3f}s, {speedup:.1f}x"
    )
    run_once(benchmark, lambda: backend.run_tasks(tasks, scenario, config))
    assert speedup >= minimum_speedup, (
        f"{backend_name} backend only {speedup:.2f}x over the per-branch loop "
        f"(expected >= {minimum_speedup}x on a {len(tasks)}-lane {label})"
    )


def _record(benchmark, trace, scenario, config, minimum_speedup, specs=SWEEP_SPECS):
    tasks = [(spec, trace) for spec in specs]
    _record_tasks(benchmark, tasks, scenario, config, minimum_speedup, "sweep")


def test_bench_backend_immediate_sweep(benchmark):
    """Scenario [I]: the segmented-scan kernel vs N interp passes (>= 3x)."""
    _record(benchmark, _sweep_trace(), UpdateScenario.IMMEDIATE, PipelineConfig(),
            minimum_speedup=3.0)


def test_bench_backend_delayed_lockstep(benchmark):
    """Scenario [C]: the lockstep kernel batches the sweep into one pass."""
    _record(benchmark, _sweep_trace(), UpdateScenario.REREAD_ON_MISPREDICTION,
            BENCH_PIPELINE, minimum_speedup=2.0)


def test_bench_backend_neural_sweep(benchmark):
    """Fig9-style neural sweep: perceptron/GEHL lockstep kernels (>= 3x).

    The interp loop pays a per-branch Python dot product per lane; the
    lockstep kernel amortises one set of array ops across all 12 lanes.
    """
    _record(benchmark, _sweep_trace(), UpdateScenario.IMMEDIATE, PipelineConfig(),
            minimum_speedup=3.0, specs=NEURAL_SPECS)


def test_bench_backend_neural_delayed(benchmark):
    """Neural sweep under delayed updates [C]: same lockstep loop (>= 3x)."""
    _record(benchmark, _sweep_trace(), UpdateScenario.REREAD_ON_MISPREDICTION,
            BENCH_PIPELINE, minimum_speedup=3.0, specs=NEURAL_SPECS)


def test_bench_backend_tage_native(benchmark):
    """TAGE on the native C kernel vs the interp engine (>= 10x).

    The kernel runs the whole simulation in C — about 70x the interp loop
    on this group — so the gate leaves a wide margin for a busy host.
    """
    tasks = [(spec, _sweep_trace()) for spec in TAGE_SPECS]
    _record_tasks(benchmark, tasks, UpdateScenario.IMMEDIATE, PipelineConfig(),
                  minimum_speedup=10.0, label="sweep", backend_name="native")


def test_bench_backend_multi_trace_batch(benchmark):
    """Fig10-style suite run: one ``run_tasks`` call spans every trace (>= 2x).

    Lanes are (configuration, trace) pairs — the suite's traces are padded
    to the longest and masked, so a whole scenario bucket runs as one
    batched call instead of one kernel invocation per trace.
    """
    suite = generate_suite(
        traces_per_category=1,
        branches_per_trace=max(BENCH_BRANCHES, MIN_BRANCHES),
        seed=BENCH_SEED,
    )
    specs = [
        PredictorSpec("perceptron", {"log2_rows": 9}),
        PredictorSpec(
            "gehl",
            {
                "num_tables": 6,
                "log2_entries": 9,
                "counter_bits": 5,
                "min_history": 2,
                "max_history": 120,
            },
        ),
    ]
    tasks = [(spec, trace) for spec in specs for trace in suite]
    _record_tasks(benchmark, tasks, UpdateScenario.REREAD_AT_RETIRE, BENCH_PIPELINE,
                  minimum_speedup=2.0, label="suite batch")
