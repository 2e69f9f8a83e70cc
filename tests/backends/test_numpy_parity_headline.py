"""Numpy-selection parity for the headline families: perceptron, GEHL, TAGE.

Same acceptance bar as :mod:`tests.backends.test_numpy_parity` — the
:class:`SimulationResult` dataclass equality asserts prediction bits,
effective writes, retire/entry reads and warmup accounting in one ``==``.
The numpy backend has no kernel for these families, so a ``numpy``
selection of them runs on the native C kernel: every case goes through
:func:`~repro.pipeline.parallel.run_scheduled` and must land on a kernel,
never on the interp pool — including one kernel group spanning several
traces of different lengths.
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


@pytest.fixture
def via_numpy(on_kernel):
    """``via_numpy(pairs, scenario, config)``: a numpy selection's results."""

    def run(pairs, scenario, config=None):
        config = config or PipelineConfig()
        return on_kernel([(spec, trace, scenario, config) for spec, trace in pairs], "numpy")

    return run


@pytest.mark.parametrize("scenario", ALL_SCENARIOS, ids=[s.value for s in ALL_SCENARIOS])
def test_group_matches_engine_for_every_headline_spec(via_numpy, scenario, tiny_trace):
    """One scheduled group equals N individual engine runs."""
    config = PipelineConfig()
    specs = list(HEADLINE_SPECS.values())
    assert all(get_backend("native").supports(spec, scenario, config) for spec in specs)
    batched = via_numpy([(spec, tiny_trace) for spec in specs], scenario, config)
    for spec, result in zip(specs, batched):
        assert result == engine_result(spec, tiny_trace, scenario, config)


@pytest.mark.parametrize("name", ["perceptron-small", "gehl-small", "tage-small"])
@pytest.mark.parametrize("scenario", ALL_SCENARIOS, ids=[s.value for s in ALL_SCENARIOS])
def test_single_spec_parity_on_structured_traces(
    via_numpy, name, scenario, loop_trace, biased_trace
):
    spec = HEADLINE_SPECS[name]
    for trace in (loop_trace, biased_trace):
        assert via_numpy([(spec, trace)], scenario) == [engine_result(spec, trace, scenario)]


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
def test_parity_across_window_shapes(via_numpy, name, config, tiny_trace):
    """Delayed-scenario parity for any window depth, including windows
    longer than the trace (pure drain path)."""
    spec = HEADLINE_SPECS[name]
    short = tiny_trace.slice(0, 40)
    for scenario in (UpdateScenario.REREAD_AT_RETIRE, UpdateScenario.REREAD_ON_MISPREDICTION):
        for trace in (tiny_trace, short):
            assert via_numpy([(spec, trace)], scenario, config) == [
                engine_result(spec, trace, scenario, config)
            ]


@pytest.mark.parametrize("scenario", ALL_SCENARIOS, ids=[s.value for s in ALL_SCENARIOS])
def test_warmup_shard_parity(via_numpy, scenario):
    """Shards replay their warmup prefix unaccounted, exactly like the engine."""
    trace = generate_trace("MM01", branches_per_trace=3000, seed=17)
    specs = [HEADLINE_SPECS[name] for name in ("perceptron-small", "gehl-small", "tage-small")]
    for window in plan_shards(len(trace), 3, warmup=400):
        shard = shard_trace(trace, window)
        for spec, result in zip(specs, via_numpy([(spec, shard) for spec in specs], scenario)):
            assert result == engine_result(spec, shard, scenario)
            assert result.warmup_branches == shard.warmup_count
            assert result.window == shard.window


def test_all_warmup_and_empty_traces(via_numpy):
    """Degenerate measurement windows: nothing measured, nothing counted."""
    trace = generate_trace("INT02", branches_per_trace=300, seed=3)
    all_warmup = replace(trace, name="warmup-only", warmup_count=len(trace))
    empty = Trace(name="empty")
    for name in ("perceptron-small", "gehl-small", "tage-small"):
        spec = HEADLINE_SPECS[name]
        for scenario in (UpdateScenario.IMMEDIATE, UpdateScenario.REREAD_AT_RETIRE):
            for degenerate in (all_warmup, empty):
                assert via_numpy([(spec, degenerate)], scenario) == [
                    engine_result(spec, degenerate, scenario)
                ]


@pytest.mark.parametrize(
    "scenario", [UpdateScenario.IMMEDIATE, UpdateScenario.REREAD_ON_MISPREDICTION],
    ids=["I", "C"],
)
def test_multi_trace_run_tasks_parity(via_numpy, scenario, mini_suite):
    """One scheduled pass whose (spec, trace) tasks span a whole suite of
    different-length traces: one kernel group per backend."""
    traces = list(mini_suite) + [
        generate_trace("WS01", 100, seed=5).slice(0, 37)
    ]
    specs = [HEADLINE_SPECS["perceptron-small"], HEADLINE_SPECS["gehl-small"],
             HEADLINE_SPECS["tage-small"],
             PredictorSpec("gshare", {"log2_entries": 10})]
    pairs = [(spec, trace) for spec in specs for trace in traces]
    for (spec, trace), result in zip(pairs, via_numpy(pairs, scenario)):
        assert result == engine_result(spec, trace, scenario)


def test_run_tasks_rejects_unsupported_specs(tiny_trace):
    with pytest.raises(ValueError, match="not supported by the numpy backend"):
        get_backend("numpy").run_tasks(
            [(PredictorSpec("tage-lsc"), tiny_trace)],
            UpdateScenario.IMMEDIATE,
            PipelineConfig(),
        )


def test_suite_trace_parity_through_scheduler(on_kernel, mini_suite):
    """fig10-shaped run: one config across a suite, through run_scheduled."""
    import pickle

    from repro.pipeline.parallel import run_scheduled

    spec = HEADLINE_SPECS["gehl-small"]
    tasks = [
        (spec, trace, UpdateScenario.REREAD_AT_RETIRE, PipelineConfig())
        for trace in mini_suite
    ]
    via_numpy = on_kernel(tasks, "numpy")
    via_interp = run_scheduled(tasks, max_workers=1, backend="interp")
    assert [pickle.dumps(r) for r in via_numpy] == [pickle.dumps(r) for r in via_interp]
