"""Native-kernel parity beyond the golden rows: knobs, windows, PCs, shards.

The golden counts pin the default specs; these cases drive the parts of
the kernel they leave cold — generated and scaled TAGE geometries, the
IUM's outcome mode, every retire-read scope, side predictors switched on
and off, the global useful-bit reset, windows wider than the IUM and
SLIM buffers, 48-bit PCs with live path history, and warmup shards — and
check what the kernel must decline.
"""

from __future__ import annotations

import random

import pytest

from repro.backends import get_backend
from repro.core.loop_predictor import LoopPredictor
from repro.pipeline.config import PipelineConfig
from repro.pipeline.engine import SimulationEngine
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
        PredictorSpec("perceptron"),
        PredictorSpec("snap"),
        PredictorSpec("tage", {"config": object()}),  # the factory rejects it
        PredictorSpec("gshare", {"bogus": 1}),
        PredictorSpec("not-registered"),
        # A live part may carry state from earlier runs.
        PredictorSpec("augmented-tage", {"loop_predictor": LoopPredictor()}),
    ]
    for spec in declined:
        assert not native.supports(spec, scenario, config)
    with pytest.raises(ValueError, match="not supported by the native backend"):
        native.run_tasks([(PredictorSpec("perceptron"), Trace(name="empty"))], scenario, config)


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
