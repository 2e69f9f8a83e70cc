"""Kernel parity for the headline families: perceptron, GEHL, TAGE.

Same acceptance bar as :mod:`tests.backends.test_numpy_parity` — the
:class:`SimulationResult` dataclass equality asserts prediction bits,
effective writes, retire/entry reads and warmup accounting in one ``==``
— applied to the batched kernel of each family: the numpy lockstep
kernels for perceptron and GEHL, the native C kernel for TAGE (the numpy
backend has no TAGE kernel), plus the trace-batched ``run_tasks`` entry
point where one kernel group spans several traces of different lengths.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.backends import get_backend
from repro.pipeline.config import PipelineConfig
from repro.pipeline.engine import SimulationEngine
from repro.pipeline.scenarios import UpdateScenario
from repro.predictors.registry import PredictorSpec
from repro.traces.sharding import plan_shards, shard_trace
from repro.traces.suite import generate_trace
from repro.traces.trace import Trace

HEADLINE_SPECS = {
    "perceptron-default": PredictorSpec("perceptron", {}),
    "perceptron-small": PredictorSpec(
        "perceptron", {"log2_rows": 7, "history_length": 12, "weight_bits": 8}
    ),
    "gehl-default": PredictorSpec("gehl", {}),
    "gehl-small": PredictorSpec(
        "gehl",
        {
            "num_tables": 5,
            "log2_entries": 8,
            "counter_bits": 4,
            "min_history": 2,
            "max_history": 60,
        },
    ),
    "tage-reference": PredictorSpec("tage", {}),
    "tage-small": PredictorSpec(
        "tage",
        {
            "num_tagged_tables": 4,
            "min_history": 4,
            "max_history": 80,
            "base_log2_entries": 8,
            "bimodal_log2_entries": 10,
        },
    ),
}

ALL_SCENARIOS = list(UpdateScenario)


def engine_result(spec, trace, scenario, config=None):
    return SimulationEngine(spec.build(), scenario, config or PipelineConfig()).run(trace)


def kernel(spec):
    """The backend whose kernel runs ``spec``'s family."""
    return get_backend("native" if spec.kind == "tage" else "numpy")


@pytest.fixture(scope="module")
def numpy_backend():
    return get_backend("numpy")


@pytest.mark.parametrize("scenario", ALL_SCENARIOS, ids=[s.value for s in ALL_SCENARIOS])
def test_group_matches_engine_for_every_headline_spec(scenario, tiny_trace):
    """One batched group call per backend equals N individual engine runs."""
    config = PipelineConfig()
    for name in ("numpy", "native"):
        backend = get_backend(name)
        specs = [spec for spec in HEADLINE_SPECS.values() if kernel(spec) is backend]
        assert specs and all(backend.supports(spec, scenario, config) for spec in specs)
        batched = backend.run_group(specs, tiny_trace, scenario, config)
        for spec, result in zip(specs, batched):
            assert result == engine_result(spec, tiny_trace, scenario, config)


@pytest.mark.parametrize("name", ["perceptron-small", "gehl-small", "tage-small"])
@pytest.mark.parametrize("scenario", ALL_SCENARIOS, ids=[s.value for s in ALL_SCENARIOS])
def test_single_spec_parity_on_structured_traces(name, scenario, loop_trace, biased_trace):
    spec = HEADLINE_SPECS[name]
    for trace in (loop_trace, biased_trace):
        assert kernel(spec).run_one(spec, trace, scenario, PipelineConfig()) == engine_result(
            spec, trace, scenario
        )


@pytest.mark.parametrize(
    "config",
    [
        PipelineConfig(retire_delay=1, execute_delay=0),
        PipelineConfig(retire_delay=8, execute_delay=8),
        PipelineConfig(retire_delay=64, execute_delay=16),
    ],
    ids=["tight", "execute-at-retire", "wide"],
)
@pytest.mark.parametrize("name", ["perceptron-small", "gehl-small", "tage-small"])
def test_parity_across_window_shapes(name, config, tiny_trace):
    """Delayed-scenario parity for any window depth, including windows
    longer than the trace (pure drain path for the lockstep kernels)."""
    spec = HEADLINE_SPECS[name]
    short = tiny_trace.slice(0, 40)
    for scenario in (UpdateScenario.REREAD_AT_RETIRE, UpdateScenario.REREAD_ON_MISPREDICTION):
        assert kernel(spec).run_one(spec, tiny_trace, scenario, config) == engine_result(
            spec, tiny_trace, scenario, config
        )
        assert kernel(spec).run_one(spec, short, scenario, config) == engine_result(
            spec, short, scenario, config
        )


@pytest.mark.parametrize("scenario", ALL_SCENARIOS, ids=[s.value for s in ALL_SCENARIOS])
def test_warmup_shard_parity(numpy_backend, scenario):
    """Shards replay their warmup prefix unaccounted, exactly like the engine."""
    trace = generate_trace("MM01", branches_per_trace=3000, seed=17)
    specs = [HEADLINE_SPECS["perceptron-small"], HEADLINE_SPECS["gehl-small"]]
    tage = HEADLINE_SPECS["tage-small"]
    for window in plan_shards(len(trace), 3, warmup=400):
        shard = shard_trace(trace, window)
        batched = numpy_backend.run_group(specs, shard, scenario, PipelineConfig())
        batched.append(kernel(tage).run_one(tage, shard, scenario, PipelineConfig()))
        for spec, result in zip([*specs, tage], batched):
            assert result == engine_result(spec, shard, scenario)
            assert result.warmup_branches == shard.warmup_count
            assert result.window == shard.window


def test_all_warmup_and_empty_traces():
    """Degenerate measurement windows: nothing measured, nothing counted."""
    trace = generate_trace("INT02", branches_per_trace=300, seed=3)
    all_warmup = replace(trace, name="warmup-only", warmup_count=len(trace))
    empty = Trace(name="empty")
    for name in ("perceptron-small", "gehl-small", "tage-small"):
        spec = HEADLINE_SPECS[name]
        for scenario in (UpdateScenario.IMMEDIATE, UpdateScenario.REREAD_AT_RETIRE):
            for degenerate in (all_warmup, empty):
                assert kernel(spec).run_one(
                    spec, degenerate, scenario, PipelineConfig()
                ) == engine_result(spec, degenerate, scenario)


@pytest.mark.parametrize(
    "scenario", [UpdateScenario.IMMEDIATE, UpdateScenario.REREAD_ON_MISPREDICTION],
    ids=["I", "C"],
)
def test_multi_trace_run_tasks_parity(numpy_backend, scenario, mini_suite):
    """The trace-batched entry point: one call, (spec, trace) lanes across a
    whole suite of different-length traces, padded and masked internally."""
    traces = list(mini_suite) + [
        generate_trace("WS01", 100, seed=5).slice(0, 37)
    ]
    specs = [HEADLINE_SPECS["perceptron-small"], HEADLINE_SPECS["gehl-small"],
             HEADLINE_SPECS["tage-small"],
             PredictorSpec("gshare", {"log2_entries": 10})]
    config = PipelineConfig()
    assert all(kernel(spec).supports(spec, scenario, config) for spec in specs)
    for name in ("numpy", "native"):
        backend = get_backend(name)
        tasks = [(spec, trace) for spec in specs for trace in traces
                 if backend.supports(spec, scenario, config)]
        batched = backend.run_tasks(tasks, scenario, config)
        for (spec, trace), result in zip(tasks, batched):
            assert result == engine_result(spec, trace, scenario, config)


def test_run_tasks_rejects_unsupported_specs(numpy_backend, tiny_trace):
    with pytest.raises(ValueError, match="not supported by the numpy backend"):
        numpy_backend.run_tasks(
            [(PredictorSpec("tage-lsc"), tiny_trace)],
            UpdateScenario.IMMEDIATE,
            PipelineConfig(),
        )


def test_suite_trace_parity_through_scheduler(mini_suite):
    """fig10-shaped run: one config across a suite, through run_scheduled."""
    import pickle

    from repro.pipeline.parallel import run_scheduled

    spec = HEADLINE_SPECS["gehl-small"]
    tasks = [
        (spec, trace, UpdateScenario.REREAD_AT_RETIRE, PipelineConfig())
        for trace in mini_suite
    ]
    via_numpy = run_scheduled(tasks, max_workers=1, backend="numpy")
    via_interp = run_scheduled(tasks, max_workers=1, backend="interp")
    assert [pickle.dumps(r) for r in via_numpy] == [pickle.dumps(r) for r in via_interp]
