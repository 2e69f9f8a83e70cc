"""Native-kernel parity beyond the golden rows: knobs, windows, PCs, shards.

The golden counts pin the default specs; these cases drive the parts of
the kernel they leave cold — generated and scaled TAGE geometries, the
IUM's outcome mode, every retire-read scope, side predictors switched on
and off, the global useful-bit reset, windows wider than the IUM and
SLIM buffers, 48-bit PCs with live path history, perceptron and GEHL
geometries down to 2-entry tables, and warmup shards — and check what
the kernel must decline.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.backends import get_backend
from repro.backends.native import _library
from repro.core.loop_predictor import LoopPredictor
from repro.pipeline.config import PipelineConfig
from repro.pipeline.engine import SimulationEngine
from repro.pipeline.parallel import run_scheduled
from repro.pipeline.scenarios import UpdateScenario
from repro.predictors import registry
from repro.predictors.registry import PredictorSpec
from repro.traces.refs import resolve_trace_ref
from repro.traces.sharding import plan_shards, shard_trace
from repro.traces.trace import Trace

#: Tables of 8-16 entries: on RESET_TRACE, allocations fail often enough
#: to trigger the global useful-bit reset under every scenario.
TINY_TAGE = PredictorSpec("tage", {
    "num_tagged_tables": 4, "min_history": 3, "max_history": 60, "base_log2_entries": 4,
    "bimodal_log2_entries": 8, "allocation_tick_bits": 2, "max_allocations": 1,
})
RESET_TRACE = "hard:INT01?branches=8000&seed=11"

SPECS = [
    PredictorSpec("tage", {"num_tagged_tables": 5, "min_history": 3, "max_history": 90,
                           "base_log2_entries": 7, "bimodal_log2_entries": 9}),
    PredictorSpec("isl-tage", {"retire_read_scope": "tage-only", "interleaved": True}),
    PredictorSpec("isl-tage", {"retire_read_scope": "local-only", "use_ium": False}),
    PredictorSpec("tage-lsc", {"use_loop": True, "use_sc": True, "local_history_entries": 16}),
    PredictorSpec("augmented-tage", {"ium_mode": "outcome", "interleaved": True}),
    PredictorSpec("scaled-tage-lsc", {"log2_factor": -2}),
    PredictorSpec("scaled-tage", {"log2_factor": 1}),
    PredictorSpec("bimodal", {"entries": 1024, "hysteresis_sharing": 4}),
    PredictorSpec("gshare", {"log2_entries": 12, "history_length": 7}),
]

#: Perceptron and GEHL: the defaults, then non-default history lengths,
#: weight widths and thresholds, a 2-table GEHL and 2-entry tables.
NEURAL_SPECS = {
    "perceptron-default": PredictorSpec("perceptron"),
    "perceptron-long-narrow": PredictorSpec(
        "perceptron", {"log2_rows": 6, "history_length": 45, "weight_bits": 5}),
    "perceptron-tiny": PredictorSpec(
        "perceptron", {"log2_rows": 1, "history_length": 3, "weight_bits": 2}),
    "gehl-default": PredictorSpec("gehl"),
    "gehl-threshold": PredictorSpec("gehl", {
        "num_tables": 6, "log2_entries": 9, "counter_bits": 3, "min_history": 3,
        "max_history": 200, "initial_threshold": 2}),
    "gehl-two-tables": PredictorSpec("gehl", {
        "num_tables": 2, "log2_entries": 7, "min_history": 12, "max_history": 12}),
    "gehl-tiny": PredictorSpec("gehl", {
        "num_tables": 4, "log2_entries": 1, "counter_bits": 2, "min_history": 1,
        "max_history": 9, "initial_threshold": 40}),
}

CONFIGS = [
    PipelineConfig(),
    PipelineConfig(retire_delay=1, execute_delay=0),
    PipelineConfig(retire_delay=300, execute_delay=280),
]


@pytest.fixture(scope="module")
def wide_pc_trace() -> Trace:
    """3000 branches over 200 random 48-bit PCs, about half of them odd."""
    rng = random.Random(5)
    static = [rng.getrandbits(48) for _ in range(200)]
    pcs = [static[min(rng.getrandbits(8), rng.getrandbits(8)) % 200] for _ in range(3000)]
    taken = [(pc >> 5) % 3 != index % 4 or rng.random() < 0.1 for index, pc in enumerate(pcs)]
    return Trace(name="wide-pc", pcs=pcs, taken=taken, preceding=[2] * len(pcs))


def engine_result(spec, trace, scenario, config):
    return SimulationEngine(spec.build(), scenario, config).run(trace)


@pytest.mark.parametrize("spec", SPECS, ids=lambda spec: spec.kind)
@pytest.mark.parametrize("config", CONFIGS, ids=["default", "tight", "wide"])
def test_matches_the_engine(spec, config, wide_pc_trace):
    native = get_backend("native")
    for scenario in UpdateScenario:
        assert native.supports(spec, scenario, config)
        (result,) = native.run_tasks([(spec, wide_pc_trace)], scenario, config)
        assert result == engine_result(spec, wide_pc_trace, scenario, config)


@pytest.mark.parametrize("name", sorted(NEURAL_SPECS))
@pytest.mark.parametrize("config", CONFIGS, ids=["default", "tight", "wide"])
def test_neural_matches_the_engine(name, config, wide_pc_trace):
    spec, native = NEURAL_SPECS[name], get_backend("native")
    trace = wide_pc_trace.slice(0, 1500)
    for scenario in UpdateScenario:
        assert native.supports(spec, scenario, config)
        (result,) = native.run_tasks([(spec, trace)], scenario, config)
        assert result == engine_result(spec, trace, scenario, config)


@pytest.mark.parametrize("scenario", list(UpdateScenario), ids=lambda scenario: scenario.value)
def test_neural_warmup_shards_match_the_engine(scenario, wide_pc_trace):
    native = get_backend("native")
    specs = [NEURAL_SPECS["perceptron-long-narrow"], NEURAL_SPECS["gehl-threshold"]]
    trace = wide_pc_trace.slice(0, 1500)
    for window in plan_shards(len(trace), 3, warmup=300):
        shard = shard_trace(trace, window)
        results = native.run_tasks([(spec, shard) for spec in specs], scenario, PipelineConfig())
        for spec, result in zip(specs, results):
            assert result == engine_result(spec, shard, scenario, PipelineConfig())
            assert result.warmup_branches == shard.warmup_count


@pytest.mark.parametrize("spec", [
    PredictorSpec("perceptron", {"log2_rows": 4, "weight_bits": 17}),
    PredictorSpec("perceptron", {"log2_rows": 2, "history_length": 4097}),
    PredictorSpec("gehl", {"num_tables": 4, "log2_entries": 6, "counter_bits": 9}),
    PredictorSpec("gehl", {"num_tables": 33, "log2_entries": 4, "max_history": 100}),
], ids=["weight-bits", "history", "counter-bits", "tables"])
def test_neural_past_the_limits_runs_on_interp(spec, wide_pc_trace):
    """A config past the kernel's limits is declined; the default route
    then runs it on the interpreter, byte for byte the interp selection."""
    import pickle

    from repro.obs import MetricsRegistry, set_metrics

    scenario, config = UpdateScenario.REREAD_ON_MISPREDICTION, PipelineConfig()
    assert not get_backend("native").supports(spec, scenario, config)
    trace = wide_pc_trace.slice(0, 40)
    registry = MetricsRegistry()
    previous = set_metrics(registry)
    try:
        (default,) = run_scheduled([(spec, trace, scenario, config)], max_workers=1)
    finally:
        set_metrics(previous)
    routes = registry.counter("repro_sched_tasks_total", "", ("route",))
    assert routes.value(route="interp") == 1
    (interp,) = run_scheduled([(spec, trace, scenario, config)], max_workers=1,
                              backend="interp")
    assert pickle.dumps(default) == pickle.dumps(interp)


@pytest.mark.parametrize("scenario", list(UpdateScenario), ids=lambda scenario: scenario.value)
def test_useful_bit_resets_match_the_engine(scenario):
    (trace,) = resolve_trace_ref(RESET_TRACE)
    predictor = TINY_TAGE.build()
    expected = SimulationEngine(predictor, scenario).run(trace)
    assert predictor.useful_resets > 0  # the reset path really ran
    (result,) = get_backend("native").run_tasks([(TINY_TAGE, trace)], scenario, PipelineConfig())
    assert result == expected


def test_warmup_shards_match_the_engine(wide_pc_trace):
    native = get_backend("native")
    spec = PredictorSpec("tage-lsc")
    for scenario in (UpdateScenario.IMMEDIATE, UpdateScenario.REREAD_ON_MISPREDICTION):
        for window in plan_shards(len(wide_pc_trace), 3, warmup=300):
            shard = shard_trace(wide_pc_trace, window)
            (result,) = native.run_tasks([(spec, shard)], scenario, PipelineConfig())
            assert result == engine_result(spec, shard, scenario, PipelineConfig())
            assert result.warmup_branches == shard.warmup_count


def test_declines_what_it_does_not_model():
    native, config, scenario = get_backend("native"), PipelineConfig(), UpdateScenario.IMMEDIATE
    declined = [
        PredictorSpec("perceptron", {"weight_bits": 17}),
        PredictorSpec("gehl", {"counter_bits": 9}),
        PredictorSpec("snap"),
        PredictorSpec("ftl"),
        PredictorSpec("tage", {"config": object()}),  # the factory rejects it
        PredictorSpec("gshare", {"bogus": 1}),
        PredictorSpec("not-registered"),
        # A live part may carry state from earlier runs.
        PredictorSpec("augmented-tage", {"loop_predictor": LoopPredictor()}),
    ]
    for spec in declined:
        assert not native.supports(spec, scenario, config)
    with pytest.raises(ValueError, match="not supported by the native backend"):
        native.run_tasks([(PredictorSpec("snap"), Trace(name="empty"))], scenario, config)


def test_a_replaced_factory_is_declined():
    original = registry._REGISTRY["gshare"]
    original_tags = registry._BACKEND_SUPPORT["gshare"]
    try:
        registry.register("gshare", original, description="replaced")
        assert not get_backend("native").supports(
            PredictorSpec("gshare"), UpdateScenario.IMMEDIATE, PipelineConfig())
    finally:
        registry._REGISTRY["gshare"] = original
        registry._BACKEND_SUPPORT["gshare"] = original_tags


@pytest.mark.parametrize("sharing, status", [(1, 0), (4, 0), (16, 0), (3, -1), (32, -1), (0, -1)])
def test_the_kernel_checks_the_hysteresis_sharing(sharing, status):
    """The kernel takes the bimodal hysteresis index by shift, so a plan
    whose sharing is not a power of two within the 16-entry table is
    refused as a bad plan (-1) instead of indexed wrongly."""
    library = _library()
    plan = np.array([0, 0, 24, 6, 4, sharing], dtype=np.int64)  # bimodal, [I], 16 entries
    columns = [np.zeros(8, dtype=np.int64), np.ones(8, dtype=np.uint8),
               np.zeros(8, dtype=np.int64)]
    out = np.zeros(10, dtype=np.int64)
    assert library.repro_simulate(plan.ctypes.data, len(plan),
                                  *(column.ctypes.data for column in columns), 8, 0,
                                  out.ctypes.data) == status
