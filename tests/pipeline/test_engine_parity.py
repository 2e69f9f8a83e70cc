"""Parity tests: the staged engine vs. the seed per-branch loops.

``_legacy_simulate`` and ``_legacy_simulate_delayed`` below are verbatim
copies of the original (pre-engine) simulation loops.
:class:`~repro.pipeline.engine.SimulationEngine` must produce *identical*
``SimulationResult`` values — same mispredictions, same access profile,
same IUM override counts — for every update scenario, including the
end-of-trace drain of the in-flight window.
"""

from __future__ import annotations

from collections import deque

import pytest

from repro.core.augmented import AugmentedTAGE
from repro.core.tage import make_reference_tage
from repro.hardware.access_counter import AccessProfile
from repro.pipeline.config import PipelineConfig
from repro.pipeline.engine import SimulationEngine
from repro.pipeline.metrics import SimulationResult
from repro.pipeline.scenarios import UpdateScenario
from repro.predictors.gehl import GEHLConfig, GEHLPredictor
from repro.predictors.gshare import GSharePredictor
from repro.traces.suite import generate_trace


def _ium_overrides(predictor) -> int:
    ium = getattr(predictor, "ium", None)
    return getattr(ium, "overrides", 0) if ium is not None else 0


def _legacy_simulate(predictor, trace, config=None) -> SimulationResult:
    """The seed immediate-update loop, kept verbatim as the parity oracle."""
    config = config or PipelineConfig()
    accesses = AccessProfile()
    mispredictions = 0
    overrides_before = _ium_overrides(predictor)

    for record in trace:
        info = predictor.predict(record.pc)
        mispredicted = info.taken != record.taken
        if mispredicted:
            mispredictions += 1
        accesses.record_prediction(mispredicted)
        predictor.update_history(record.pc, record.taken, info)
        stats = predictor.update(record.pc, record.taken, info, reread=True)
        accesses.record_update(stats, retire_read=False)

    return SimulationResult(
        trace_name=trace.name,
        predictor_name=predictor.name,
        branches=trace.branch_count,
        instructions=trace.instruction_count,
        mispredictions=mispredictions,
        misprediction_penalty=config.misprediction_penalty,
        accesses=accesses,
        scenario=UpdateScenario.IMMEDIATE.label,
        ium_overrides=_ium_overrides(predictor) - overrides_before,
    )


def _legacy_simulate_delayed(predictor, trace, scenario, config=None) -> SimulationResult:
    """The seed delayed-update loop, kept verbatim as the parity oracle."""
    if scenario is UpdateScenario.IMMEDIATE:
        return _legacy_simulate(predictor, trace, config)

    config = config or PipelineConfig()
    accesses = AccessProfile()
    mispredictions = 0
    overrides_before = _ium_overrides(predictor)
    inflight: deque[list] = deque()

    def retire(entry: list) -> None:
        record, info, mispredicted, executed = entry
        if not executed:
            predictor.notify_execute(record.pc, record.taken, info)
        reread = scenario.reread_at_retire(mispredicted)
        stats = predictor.update(record.pc, record.taken, info, reread=reread)
        accesses.record_update(stats, retire_read=reread)

    for record in trace:
        info = predictor.predict(record.pc)
        mispredicted = info.taken != record.taken
        if mispredicted:
            mispredictions += 1
        accesses.record_prediction(mispredicted)
        predictor.update_history(record.pc, record.taken, info)
        inflight.append([record, info, mispredicted, False])

        if len(inflight) > config.execute_delay:
            entry = inflight[-1 - config.execute_delay]
            if not entry[3]:
                predictor.notify_execute(entry[0].pc, entry[0].taken, entry[1])
                entry[3] = True

        if len(inflight) > config.retire_delay:
            retire(inflight.popleft())

    while inflight:
        retire(inflight.popleft())

    return SimulationResult(
        trace_name=trace.name,
        predictor_name=predictor.name,
        branches=trace.branch_count,
        instructions=trace.instruction_count,
        mispredictions=mispredictions,
        misprediction_penalty=config.misprediction_penalty,
        accesses=accesses,
        scenario=scenario.label,
        ium_overrides=_ium_overrides(predictor) - overrides_before,
    )


PREDICTOR_FACTORIES = {
    "gshare": lambda: GSharePredictor(log2_entries=12),
    "gehl": lambda: GEHLPredictor(GEHLConfig(num_tables=6, log2_entries=9, max_history=200)),
    "tage": make_reference_tage,
    "tage+ium": lambda: AugmentedTAGE(use_ium=True, name="tage+ium"),
}

ALL_SCENARIOS = list(UpdateScenario)


@pytest.mark.parametrize("name", sorted(PREDICTOR_FACTORIES))
@pytest.mark.parametrize("scenario", ALL_SCENARIOS, ids=[s.value for s in ALL_SCENARIOS])
def test_engine_matches_legacy_loop(name, scenario, tiny_trace):
    """Engine results equal the seed loops for every predictor x scenario."""
    factory = PREDICTOR_FACTORIES[name]
    legacy = _legacy_simulate_delayed(factory(), tiny_trace, scenario)
    engine = SimulationEngine(factory(), scenario).run(tiny_trace)
    assert engine == legacy


@pytest.mark.parametrize("scenario", ALL_SCENARIOS, ids=[s.value for s in ALL_SCENARIOS])
def test_engine_drain_path(scenario):
    """A trace shorter than the window retires everything through the drain."""
    trace = generate_trace("WS01", branches_per_trace=100, seed=5)
    config = PipelineConfig(retire_delay=256, execute_delay=32)
    legacy = _legacy_simulate_delayed(
        AugmentedTAGE(use_ium=True, name="tage+ium"), trace, scenario, config
    )
    engine = SimulationEngine(
        AugmentedTAGE(use_ium=True, name="tage+ium"), scenario, config
    ).run(trace)
    assert engine == legacy
    # Every fetched branch must have retired (updated the tables).
    assert engine.accesses.branches == trace.branch_count


def test_simulate_wrapper_is_zero_delay_engine(tiny_trace):
    """The engine's default run is exactly its degenerate zero-delay [I] setup."""
    default = SimulationEngine(make_reference_tage()).run(tiny_trace)
    staged = SimulationEngine(make_reference_tage(), UpdateScenario.IMMEDIATE).run(tiny_trace)
    assert default == staged
    assert default.scenario == "[I]"
    # The oracle never charges a retire-time read.
    assert default.accesses.retire_reads == 0


def test_engine_immediate_matches_legacy_simulate(tiny_trace):
    legacy = _legacy_simulate(make_reference_tage(), tiny_trace)
    engine = SimulationEngine(make_reference_tage()).run(tiny_trace)
    assert engine == legacy


def test_engine_is_rerunnable(tiny_trace, loop_trace):
    """One engine instance can drive sequential runs (state fully re-armed)."""
    engine = SimulationEngine(GSharePredictor(log2_entries=12))
    first = engine.run(tiny_trace)
    second = engine.run(loop_trace)
    assert first.trace_name == tiny_trace.name
    assert second.trace_name == loop_trace.name
    assert second.accesses.branches == loop_trace.branch_count


@pytest.mark.parametrize(
    "config",
    [
        PipelineConfig(retire_delay=1, execute_delay=0),
        PipelineConfig(retire_delay=8, execute_delay=8),
        PipelineConfig(retire_delay=24, execute_delay=6),
    ],
    ids=["tight", "execute-at-retire", "default"],
)
def test_engine_matches_legacy_across_window_shapes(config, tiny_trace):
    scenario = UpdateScenario.REREAD_ON_MISPREDICTION
    legacy = _legacy_simulate_delayed(
        AugmentedTAGE(use_ium=True, name="tage+ium"), tiny_trace, scenario, config
    )
    engine = SimulationEngine(
        AugmentedTAGE(use_ium=True, name="tage+ium"), scenario, config
    ).run(tiny_trace)
    assert engine == legacy
