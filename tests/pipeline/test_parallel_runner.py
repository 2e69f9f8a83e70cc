"""Suites through the runner: pool vs in-process parity, the result cache
and a power-on predictor per trace."""

import pytest

from repro.api import Runner, RunnerConfig
from repro.pipeline.config import PipelineConfig
from repro.pipeline.engine import SimulationEngine
from repro.pipeline.metrics import SuiteResult
from repro.pipeline.parallel import SuiteCache, trace_fingerprint
from repro.pipeline.scenarios import UpdateScenario
from repro.predictors import registry
from repro.predictors.gshare import GSharePredictor
from repro.predictors.registry import PredictorSpec

SPEC = PredictorSpec("gshare", {"log2_entries": 12})


def _fresh_suite(build, traces, scenario=UpdateScenario.IMMEDIATE, config=None):
    """The reference: a newly built predictor per trace, one engine run each."""
    suite = SuiteResult(predictor_name=build().name)
    for trace in traces:
        suite.add(SimulationEngine(build(), scenario, config).run(trace))
    return suite


def _assert_same_suite(left, right):
    assert left.predictor_name == right.predictor_name
    assert left.mispredictions == right.mispredictions
    assert left.branches == right.branches
    assert left.mppki == right.mppki
    assert [r.trace_name for r in left.results] == [r.trace_name for r in right.results]
    assert vars(left.access_profile) == vars(right.access_profile)


class TestParallelMatchesSerial:
    def test_two_workers_equal_serial(self, mini_suite):
        serial = _fresh_suite(SPEC.build, mini_suite)
        parallel_suite = Runner(RunnerConfig(workers=2)).run_suite(SPEC, mini_suite)
        _assert_same_suite(parallel_suite, serial)

    def test_two_workers_equal_serial_delayed(self, mini_suite):
        scenario = UpdateScenario.REREAD_ON_MISPREDICTION
        config = PipelineConfig(retire_delay=8, execute_delay=2)
        serial = _fresh_suite(SPEC.build, mini_suite, scenario, config)
        parallel_suite = Runner(RunnerConfig(workers=2)).run_suite(
            SPEC, mini_suite, scenario=scenario, pipeline=config
        )
        _assert_same_suite(parallel_suite, serial)

    def test_single_worker_runs_in_process(self, mini_suite):
        serial = _fresh_suite(SPEC.build, mini_suite)
        inproc = Runner(RunnerConfig(workers=1)).run_suite(SPEC, mini_suite)
        _assert_same_suite(inproc, serial)

    def test_spec_accepts_kind_string_and_predictor(self, tiny_trace):
        runner = Runner(RunnerConfig(workers=1))
        by_string = runner.run_suite("always-taken", [tiny_trace])
        by_predictor = runner.run_suite(PredictorSpec("always-taken").build(), [tiny_trace])
        _assert_same_suite(by_string, by_predictor)

    def test_empty_suite_rejected(self):
        with pytest.raises(ValueError, match="at least one trace"):
            Runner(RunnerConfig(workers=1)).run_suite(SPEC, [])


class TestSuiteCache:
    def test_second_run_is_served_from_cache(self, mini_suite, tmp_path):
        config = RunnerConfig(workers=1, cache_dir=str(tmp_path))
        runner = Runner(config)
        first = runner.run_suite(SPEC, mini_suite)
        assert runner.cache.hits == 0
        assert runner.cache.misses == len(mini_suite)

        rerun = Runner(config)
        second = rerun.run_suite(SPEC, mini_suite)
        assert rerun.cache.hits == len(mini_suite)
        assert rerun.cache.misses == 0
        _assert_same_suite(second, first)

    def test_cache_key_depends_on_trace_content(self, tiny_trace, loop_trace):
        config = PipelineConfig()
        key_a = SuiteCache.key(SPEC, tiny_trace, UpdateScenario.IMMEDIATE, config)
        key_b = SuiteCache.key(SPEC, loop_trace, UpdateScenario.IMMEDIATE, config)
        assert key_a != key_b

    def test_cache_key_depends_on_scenario_and_config(self, tiny_trace):
        config = PipelineConfig()
        immediate = SuiteCache.key(SPEC, tiny_trace, UpdateScenario.IMMEDIATE, config)
        delayed = SuiteCache.key(SPEC, tiny_trace, UpdateScenario.REREAD_AT_RETIRE, config)
        shallow = SuiteCache.key(
            SPEC, tiny_trace, UpdateScenario.IMMEDIATE,
            PipelineConfig(retire_delay=4, execute_delay=1),
        )
        assert len({immediate, delayed, shallow}) == 3

    def test_fingerprint_tracks_content(self, tiny_trace):
        assert trace_fingerprint(tiny_trace) == trace_fingerprint(tiny_trace)
        shorter = tiny_trace.slice(0, 100)
        shorter.name = tiny_trace.name  # same name, different content
        assert trace_fingerprint(shorter) != trace_fingerprint(tiny_trace)


@pytest.fixture
def counting_kind():
    """Register a test-only kind that counts its builds."""
    registered = []

    def register(kind, predictor_class, **config):
        builds = []

        def build():
            builds.append(1)
            return predictor_class(**config)

        registry.register(kind, build, description="test-only counting kind")
        registered.append(kind)
        return PredictorSpec(kind), builds

    yield register
    for kind in registered:
        registry._REGISTRY.pop(kind, None)
        registry._DESCRIPTIONS.pop(kind, None)
        registry._BACKEND_SUPPORT.pop(kind, None)


class TestPowerOnPerTrace:
    """Every interp task starts from a freshly built predictor (the CBP
    rule), so no trace sees tables another trace trained."""

    def test_serial_suite_builds_once_per_trace(self, mini_suite, counting_kind):
        spec, builds = counting_kind("test-counting-gshare", GSharePredictor, log2_entries=12)
        suite = Runner(RunnerConfig(workers=1, backend="interp")).run_suite(spec, mini_suite)
        assert len(builds) == len(mini_suite)
        fresh = [
            SimulationEngine(GSharePredictor(log2_entries=12)).run(trace) for trace in mini_suite
        ]
        assert suite.results == fresh

    def test_results_do_not_depend_on_task_order(self, mini_suite):
        """Forward and reversed trace orders give every trace its fresh-run
        result: serially, on an ephemeral 2-worker pool, and twice on one
        persistent 1-worker runner."""
        forward = list(mini_suite[:3])
        backward = forward[::-1]
        expected = {trace.name: SimulationEngine(SPEC.build()).run(trace) for trace in forward}

        def check(suite, traces):
            assert suite.results == [expected[trace.name] for trace in traces]

        for workers in (1, 2):
            runner = Runner(RunnerConfig(workers=workers, backend="interp"))
            for traces in (forward, backward):
                check(runner.run_suite(SPEC, traces), traces)
        with Runner(RunnerConfig(workers=1, backend="interp"), persistent=True) as runner:
            for traces in (forward, backward):
                check(runner.run_suite(SPEC, traces), traces)
            assert runner.pool.stats()["tasks_executed"] == 2 * len(forward)
