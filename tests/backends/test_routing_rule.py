"""The routing rule (:func:`repro.pipeline.parallel._route`) and the native limits.

A task pinned to ``interp`` runs on the reference engine; every other
task runs on native where the library loads and supports it, else on the
two-bit scan where the scan supports it, else on the interpreter.  The
property below draws small specs of every natively supported family and
checks, for each, that the three routes give pickle-identical results and
that each run went where the rule says.  The boundary cases probe every
limit of :func:`repro.backends.native._plan` at the limit and one past it.
A second property draws the in-flight window too (retire delay 1-64,
execute delay 0 up to it), holding each compiled kernel instance to interp
across window shapes.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.backends import native
from repro.core.augmented import AugmentedTAGE
from repro.core.config import TAGEConfig
from repro.core.loop_predictor import LoopPredictor
from repro.core.statistical_corrector import StatisticalCorrectorConfig
from repro.obs import MetricsRegistry, set_metrics
from repro.pipeline.config import PipelineConfig
from repro.pipeline.parallel import run_scheduled
from repro.pipeline.scenarios import UpdateScenario
from repro.predictors import registry
from repro.predictors.registry import PredictorSpec
from repro.traces.refs import resolve_trace_ref


def routed(task, backend=None) -> tuple[bytes, str]:
    """The pickled result of one task and the engine that ran it, read
    from ``repro_sched_tasks_total`` and ``repro_backend_kernel_seconds``."""
    metrics = MetricsRegistry()
    previous = set_metrics(metrics)
    try:
        (result,) = run_scheduled([task], max_workers=1, backend=backend)
    finally:
        set_metrics(previous)
    routes = metrics.counter("repro_sched_tasks_total", "", ("route",))
    kernel = metrics.histogram("repro_backend_kernel_seconds", "", ("backend",))
    calls = {name: kernel.count(backend=name) for name in ("native", "numpy")}
    if routes.value(route="interp"):
        assert (routes.value(route="interp"), routes.value(route="kernel")) == (1, 0)
        assert calls == {"native": 0, "numpy": 0}
        return pickle.dumps(result), "interp"
    assert routes.value(route="kernel") == 1
    (engine,) = [name for name, count in calls.items() if count == 1]
    return pickle.dumps(result), engine


def gshare_configs():
    return st.integers(2, 12).flatmap(lambda log2: st.fixed_dictionaries(
        {"log2_entries": st.just(log2)},
        optional={"history_length": st.integers(0, log2)}))


def gehl_configs():
    return st.tuples(st.integers(1, 4), st.integers(0, 60)).flatmap(
        lambda history: st.fixed_dictionaries({
            "num_tables": st.integers(2, 6), "log2_entries": st.integers(2, 9),
            "counter_bits": st.integers(2, 6), "min_history": st.just(history[0]),
            "max_history": st.just(sum(history))}))


def small_tage_configs():
    return st.tuples(st.integers(1, 6), st.integers(0, 120)).flatmap(
        lambda history: st.fixed_dictionaries({
            "num_tagged_tables": st.integers(2, 5), "min_history": st.just(history[0]),
            "max_history": st.just(sum(history)), "base_log2_entries": st.integers(3, 7),
            "bimodal_log2_entries": st.integers(4, 9)}))


#: kind -> strategy of small configs; every kind here is one native models.
CONFIGS = {
    "always-taken": st.just({}),
    "always-not-taken": st.just({}),
    "bimodal": st.fixed_dictionaries({
        "entries": st.sampled_from([4, 16, 256, 4096]),
        "hysteresis_sharing": st.sampled_from([1, 1, 2, 4])}),
    "gshare": gshare_configs(),
    "perceptron": st.fixed_dictionaries({
        "log2_rows": st.integers(1, 8), "history_length": st.integers(1, 40),
        "weight_bits": st.integers(2, 10)}),
    "gehl": gehl_configs(),
    "tage": small_tage_configs(),
}


def specs():
    return st.sampled_from(sorted(CONFIGS)).flatmap(
        lambda kind: CONFIGS[kind].map(lambda config: PredictorSpec(kind, config)))


def scan_runs(spec: PredictorSpec, scenario: UpdateScenario) -> bool:
    """Whether the two-bit scan models ``spec`` under ``scenario``."""
    if scenario is not UpdateScenario.IMMEDIATE:
        return False
    return spec.kind == "gshare" or (
        spec.kind == "bimodal" and spec.config["hysteresis_sharing"] == 1)


@given(spec=specs(), scenario=st.sampled_from(list(UpdateScenario)),
       length=st.integers(50, 300), seed=st.integers(0, 50))
@settings(max_examples=100, deadline=None, derandomize=True)
def test_every_route_gives_the_interp_result(spec, scenario, length, seed):
    (trace,) = resolve_trace_ref(f"synthetic:mixed?length={length}&seed={seed}")
    task = (spec, trace, scenario, PipelineConfig())
    default, default_engine = routed(task)
    pinned, pinned_engine = routed(task, "interp")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(native, "_library_state", False)
        fallback, fallback_engine = routed(task)
    assert default_engine == "native"
    assert pinned_engine == "interp"
    assert fallback_engine == ("numpy" if scan_runs(spec, scenario) else "interp")
    assert default == pinned == fallback


@pytest.fixture(scope="module")
def trace():
    (trace,) = resolve_trace_ref("synthetic:mixed?length=300&seed=5")
    return trace


@pytest.fixture
def loop_tage():
    """A ``loop-tage`` kind the kernel models: a small TAGE plus a loop
    predictor of ``ways`` ways (4 sets), tagged for native like the
    built-in TAGE family."""

    def build(ways: int) -> AugmentedTAGE:
        config = TAGEConfig.generate(num_tagged_tables=3, min_history=3, max_history=40,
                                     base_log2_entries=5, bimodal_log2_entries=6)
        return AugmentedTAGE(config, use_ium=False,
                             loop_predictor=LoopPredictor(entries=4 * ways, ways=ways))

    registry.register("loop-tage", build, backends=("native",))
    yield "loop-tage"
    for table in (registry._REGISTRY, registry._DESCRIPTIONS, registry._BACKEND_SUPPORT):
        table.pop("loop-tage", None)


def tage(**overrides) -> dict:
    """A small generated TAGE config with ``overrides``."""
    return {"num_tagged_tables": 3, "min_history": 3, "max_history": 40,
            "base_log2_entries": 5, "bimodal_log2_entries": 6, **overrides}


def corrector(tables: int, longest: int) -> StatisticalCorrectorConfig:
    """``tables`` corrector tables, history lengths 0 .. ``longest``."""
    lengths = tuple(longest * table // (tables - 1) for table in range(tables))
    return StatisticalCorrectorConfig(history_lengths=lengths, log2_entries=6)


SMALL = TAGEConfig.generate(**tage())

#: limit -> (a spec at the limit, the spec one past it).
LIMITS = {
    "tagged-tables": (PredictorSpec("tage", tage(num_tagged_tables=32, max_history=300)),
                      PredictorSpec("tage", tage(num_tagged_tables=33, max_history=300))),
    "counter-bits": (PredictorSpec("tage", tage(counter_bits=8)),
                     PredictorSpec("tage", tage(counter_bits=9))),
    "useful-bits": (PredictorSpec("tage", tage(useful_bits=8)),
                    PredictorSpec("tage", tage(useful_bits=9))),
    "sc-tables": (PredictorSpec("isl-tage", {"config": SMALL, "sc_config": corrector(16, 30)}),
                  PredictorSpec("isl-tage", {"config": SMALL, "sc_config": corrector(17, 30)})),
    "sc-history": (PredictorSpec("isl-tage", {"config": SMALL, "sc_config": corrector(4, 64)}),
                   PredictorSpec("isl-tage", {"config": SMALL, "sc_config": corrector(4, 65)})),
    "lsc-tables": (PredictorSpec("tage-lsc", {"config": SMALL, "lsc_config": corrector(16, 30)}),
                   PredictorSpec("tage-lsc", {"config": SMALL, "lsc_config": corrector(17, 30)})),
    "lsc-history": (PredictorSpec("tage-lsc", {"config": SMALL, "lsc_config": corrector(4, 64)}),
                    PredictorSpec("tage-lsc", {"config": SMALL, "lsc_config": corrector(4, 65)})),
    "loop-ways": (PredictorSpec("loop-tage", {"ways": 16}),
                  PredictorSpec("loop-tage", {"ways": 17})),
    "perceptron-weight-bits": (
        PredictorSpec("perceptron", {"log2_rows": 4, "weight_bits": 16}),
        PredictorSpec("perceptron", {"log2_rows": 4, "weight_bits": 17})),
    "perceptron-history": (
        PredictorSpec("perceptron", {"log2_rows": 2, "history_length": 4096}),
        PredictorSpec("perceptron", {"log2_rows": 2, "history_length": 4097})),
    "gehl-tables": (
        PredictorSpec("gehl", {"num_tables": 32, "log2_entries": 4, "max_history": 300}),
        PredictorSpec("gehl", {"num_tables": 33, "log2_entries": 4, "max_history": 300})),
}

#: The interpreter's perceptron costs O(history) Python steps per branch.
SHORT = {"perceptron-history": 40}


@pytest.mark.parametrize("limit", sorted(LIMITS))
def test_native_limits(limit, trace, loop_tage):
    """At each :func:`~repro.backends.native._plan` limit the default route
    runs native; one past it, the fallback (the interpreter: the scan
    models none of these kinds).  Both equal the ``interp`` result."""
    trace = trace.slice(0, SHORT.get(limit, len(trace)))
    for spec, engine in zip(LIMITS[limit], ("native", "interp")):
        task = (spec, trace, UpdateScenario.REREAD_ON_MISPREDICTION, PipelineConfig())
        result, ran_on = routed(task)
        assert ran_on == engine, spec
        assert result == routed(task, "interp")[0]


def pipeline_configs():
    return st.integers(1, 64).flatmap(lambda retire: st.builds(
        PipelineConfig, retire_delay=st.just(retire), execute_delay=st.integers(0, retire)))


#: ``CONFIGS`` plus two small composites, so the IUM's execute-time hook
#: (and the SC, LSC and loop predictor) sees every window shape too.
WINDOW_CONFIGS = {
    **CONFIGS,
    "isl-tage": st.just({"config": SMALL}),
    "tage-lsc": st.just({"config": SMALL}),
}
EDGE_SPEC = PredictorSpec("isl-tage", {"config": SMALL})


@given(spec=st.sampled_from(sorted(WINDOW_CONFIGS)).flatmap(
           lambda kind: WINDOW_CONFIGS[kind].map(lambda config: PredictorSpec(kind, config))),
       scenario=st.sampled_from(list(UpdateScenario)), config=pipeline_configs(),
       length=st.integers(50, 300), seed=st.integers(0, 50))
@example(spec=EDGE_SPEC, scenario=UpdateScenario.REREAD_ON_MISPREDICTION,
         config=PipelineConfig(retire_delay=1, execute_delay=0), length=120, seed=1)
@example(spec=EDGE_SPEC, scenario=UpdateScenario.REREAD_AT_RETIRE,
         config=PipelineConfig(retire_delay=1, execute_delay=1), length=120, seed=2)
@example(spec=EDGE_SPEC, scenario=UpdateScenario.FETCH_READ_ONLY,
         config=PipelineConfig(retire_delay=64, execute_delay=64), length=300, seed=3)
@example(spec=PredictorSpec("gshare", {"log2_entries": 6}),
         scenario=UpdateScenario.REREAD_ON_MISPREDICTION,
         config=PipelineConfig(retire_delay=64, execute_delay=0), length=300, seed=4)
@settings(max_examples=100, deadline=None, derandomize=True)
def test_every_window_shape_gives_the_interp_result(spec, scenario, config, length, seed):
    """Native equals interp whatever the in-flight window's shape: the
    kernel's ring wraps by compare, and each (family, scenario) instance
    must hold for every retire and execute delay, including a one-slot
    window and an execute delay equal to the retire delay."""
    (trace,) = resolve_trace_ref(f"synthetic:mixed?length={length}&seed={seed}")
    task = (spec, trace, scenario, config)
    default, default_engine = routed(task)
    pinned, pinned_engine = routed(task, "interp")
    assert (default_engine, pinned_engine) == ("native", "interp")
    assert default == pinned
