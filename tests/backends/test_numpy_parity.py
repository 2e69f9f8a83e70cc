"""Numpy-selection parity: bit-identical to the staged engine, everywhere.

The acceptance bar for any backend kernel (see
:mod:`repro.backends.base`): for every supported registry kind, every
update scenario and every trace shape — whole traces, warmup shards,
empty measurement windows — the :class:`SimulationResult` must equal the
interpreter's, misprediction for misprediction and access for access.
The dataclass equality below covers the full access profile, so one
``==`` asserts prediction bits, effective writes, retire reads and
warmup accounting at once.

A ``numpy`` selection runs on the native kernel wherever it loads, and
on the numpy scan (the two-bit tables under [I]) only where it does not.
Every case goes through :func:`~repro.pipeline.parallel.run_scheduled`
on both kinds of host (the ``numpy_selection`` fixture): on the native
kernel with the library loaded, and on the scan — the interp path for
what the scan declines — with it unavailable.
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

SUPPORTED_SPECS = {
    "bimodal-small": PredictorSpec("bimodal", {"entries": 256}),
    "bimodal-default": PredictorSpec("bimodal", {}),
    "gshare-small": PredictorSpec("gshare", {"log2_entries": 10}),
    "gshare-short-history": PredictorSpec("gshare", {"log2_entries": 12, "history_length": 5}),
    "gshare-no-history": PredictorSpec("gshare", {"log2_entries": 8, "history_length": 0}),
}

ALL_SCENARIOS = list(UpdateScenario)


def engine_result(spec, trace, scenario, config=None):
    return SimulationEngine(spec.build(), scenario, config or PipelineConfig()).run(trace)


@pytest.fixture
def via_numpy(numpy_selection):
    """``via_numpy(specs, trace, scenario, config)``: a numpy selection's results."""

    def run(specs, trace, scenario, config=None):
        config = config or PipelineConfig()
        return numpy_selection([(spec, trace, scenario, config) for spec in specs])

    return run


@pytest.mark.parametrize("scenario", ALL_SCENARIOS, ids=[s.value for s in ALL_SCENARIOS])
def test_group_matches_engine_for_every_supported_spec(via_numpy, scenario, tiny_trace):
    """One scheduled group equals N individual engine runs, bit for bit."""
    specs = list(SUPPORTED_SPECS.values())
    config = PipelineConfig()
    numpy_backend = get_backend("numpy")
    immediate = scenario is UpdateScenario.IMMEDIATE
    assert all(numpy_backend.supports(spec, scenario, config) is immediate for spec in specs)
    for spec, result in zip(specs, via_numpy(specs, tiny_trace, scenario, config)):
        assert result == engine_result(spec, tiny_trace, scenario, config)


@pytest.mark.parametrize("name", sorted(SUPPORTED_SPECS))
@pytest.mark.parametrize("scenario", ALL_SCENARIOS, ids=[s.value for s in ALL_SCENARIOS])
def test_single_spec_parity_on_structured_traces(
    via_numpy, name, scenario, loop_trace, biased_trace
):
    spec = SUPPORTED_SPECS[name]
    for trace in (loop_trace, biased_trace):
        assert via_numpy([spec], trace, scenario) == [engine_result(spec, trace, scenario)]


@pytest.mark.parametrize(
    "config",
    [
        PipelineConfig(retire_delay=1, execute_delay=0),
        PipelineConfig(retire_delay=8, execute_delay=8),
        PipelineConfig(retire_delay=64, execute_delay=16),
    ],
    ids=["tight", "execute-at-retire", "wide"],
)
def test_parity_across_window_shapes(via_numpy, config, tiny_trace):
    """Delayed-scenario parity holds for any in-flight window depth,
    including windows longer than the trace (pure drain path)."""
    spec = SUPPORTED_SPECS["gshare-small"]
    short = tiny_trace.slice(0, 40)
    for scenario in (UpdateScenario.REREAD_AT_RETIRE, UpdateScenario.REREAD_ON_MISPREDICTION):
        for trace in (tiny_trace, short):
            assert via_numpy([spec], trace, scenario, config) == [
                engine_result(spec, trace, scenario, config)
            ]


@pytest.mark.parametrize("scenario", ALL_SCENARIOS, ids=[s.value for s in ALL_SCENARIOS])
def test_warmup_shard_parity(via_numpy, scenario):
    """Shards replay their warmup prefix unaccounted, exactly like the engine."""
    trace = generate_trace("MM01", branches_per_trace=3000, seed=17)
    specs = [SUPPORTED_SPECS["bimodal-small"], SUPPORTED_SPECS["gshare-short-history"]]
    for window in plan_shards(len(trace), 3, warmup=400):
        shard = shard_trace(trace, window)
        for spec, result in zip(specs, via_numpy(specs, shard, scenario)):
            assert result == engine_result(spec, shard, scenario)
            assert result.warmup_branches == shard.warmup_count
            assert result.window == shard.window


def test_all_warmup_and_empty_traces(via_numpy):
    """Degenerate measurement windows: nothing measured, nothing counted."""
    spec = SUPPORTED_SPECS["gshare-small"]
    trace = generate_trace("INT02", branches_per_trace=300, seed=3)
    all_warmup = replace(trace, name="warmup-only", warmup_count=len(trace))
    empty = Trace(name="empty")
    for scenario in (UpdateScenario.IMMEDIATE, UpdateScenario.REREAD_AT_RETIRE):
        for degenerate in (all_warmup, empty):
            assert via_numpy([spec], degenerate, scenario) == [
                engine_result(spec, degenerate, scenario)
            ]


def test_unsupported_specs_are_declined():
    """The numpy scan takes bimodal/gshare under [I] only; the rest is
    declined and takes the default route."""
    numpy_backend = get_backend("numpy")
    config = PipelineConfig()
    scenario = UpdateScenario.IMMEDIATE
    declined = [
        PredictorSpec("bimodal", {"entries": 256, "hysteresis_sharing": 4}),
        PredictorSpec("bimodal", {"entries": 300}),  # not a power of two
        PredictorSpec("bimodal", {"bogus": 1}),
        PredictorSpec("gshare", {"log2_entries": 30}),
        PredictorSpec("perceptron", {"bogus": 1}),
        PredictorSpec("gehl", {"num_tables": 0}),
        PredictorSpec("tage", {"config": object(), "num_tagged_tables": 4}),
        PredictorSpec("tage-lsc"),
        PredictorSpec("not-registered"),
    ]
    for spec in declined:
        assert not numpy_backend.supports(spec, scenario, config)
    for delayed in (UpdateScenario.FETCH_READ_ONLY, UpdateScenario.REREAD_ON_MISPREDICTION):
        assert not numpy_backend.supports(SUPPORTED_SPECS["gshare-small"], delayed, config)
    with pytest.raises(ValueError, match="not supported by the numpy backend"):
        numpy_backend.run_tasks([(SUPPORTED_SPECS["gshare-small"], Trace(name="empty"))],
                                UpdateScenario.REREAD_AT_RETIRE, config)


def test_scheduler_falls_back_transparently(numpy_selection, tiny_trace):
    """A spec the scan declines (shared hysteresis) runs on the default
    route beside one it takes, in one pass, on either kind of host."""
    specs = [PredictorSpec("bimodal", {"entries": 128, "hysteresis_sharing": 4}),
             SUPPORTED_SPECS["gshare-small"]]
    results = numpy_selection(
        [(spec, tiny_trace, UpdateScenario.IMMEDIATE, PipelineConfig()) for spec in specs])
    for spec, result in zip(specs, results):
        assert result == engine_result(spec, tiny_trace, UpdateScenario.IMMEDIATE)
