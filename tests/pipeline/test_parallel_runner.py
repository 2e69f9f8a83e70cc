"""Suites through the runner: pool vs in-process parity, the result cache
and per-trace predictor reuse."""

import pytest

from repro.api import Runner, RunnerConfig
from repro.pipeline import parallel
from repro.pipeline.config import PipelineConfig
from repro.pipeline.engine import SimulationEngine
from repro.pipeline.metrics import SuiteResult
from repro.pipeline.parallel import SuiteCache, trace_fingerprint
from repro.pipeline.scenarios import UpdateScenario
from repro.predictors import registry
from repro.predictors.bimodal import BimodalPredictor
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


class _NoResetGShare(GSharePredictor):
    """A learning predictor that does not implement reset(): reusing one
    instance across traces would carry trained tables over."""

    def reset(self):
        raise NotImplementedError("no reset")


@pytest.fixture
def counting_kind(monkeypatch):
    """Register a test-only kind that counts its builds; start the
    in-process predictor cache empty so earlier tests cannot serve it."""
    monkeypatch.setattr(parallel._WORKER_PREDICTORS, "cache", {}, raising=False)
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


class TestSuiteReuse:
    def test_resettable_predictor_build_count_is_constant(self, mini_suite, counting_kind):
        """In-process, a resettable predictor is built once and reset for
        every further trace, however many traces the suite has."""
        spec, builds = counting_kind("test-counting-bimodal", BimodalPredictor, entries=1024)
        suite = Runner(RunnerConfig(workers=1)).run_suite(spec, mini_suite)
        assert len(suite) == len(mini_suite) > 2
        assert len(builds) == 1

    def test_single_trace_builds_once(self, tiny_trace, counting_kind):
        spec, builds = counting_kind("test-counting-bimodal", BimodalPredictor, entries=1024)
        Runner(RunnerConfig(workers=1)).run_suite(spec, [tiny_trace])
        assert len(builds) == 1

    def test_interleaved_reset_clears_the_bank_selector(self, tiny_trace, loop_trace):
        """reset() must restore power-on state for interleaved organisations
        too — including the shared BankSelector's recent-bank window."""
        from repro.pipeline.simulator import simulate

        spec = PredictorSpec(
            "augmented-tage", {"use_ium": False, "name": "tage-il", "interleaved": True}
        )
        reused = spec.build()
        simulate(reused, tiny_trace)
        reused.reset()
        assert reused.tage.bank_selector.recent_banks == ()
        second = simulate(reused, loop_trace)
        fresh = simulate(spec.build(), loop_trace)
        assert second.mispredictions == fresh.mispredictions
        assert vars(second.accesses) == vars(fresh.accesses)

    def test_reset_reuse_matches_fresh_instances(self, mini_suite, counting_kind):
        """Reset-and-reuse must be indistinguishable from building a new
        predictor per trace: per-trace results equal fresh engine runs."""
        spec, builds = counting_kind("test-counting-gshare", GSharePredictor, log2_entries=12)
        reused = Runner(RunnerConfig(workers=1)).run_suite(spec, mini_suite)
        assert len(builds) == 1  # really reused, not rebuilt
        fresh = [
            SimulationEngine(GSharePredictor(log2_entries=12)).run(trace)
            for trace in mini_suite
        ]
        assert [vars(r) for r in reused.results] == [vars(r) for r in fresh]

    def test_factory_without_reset_is_rebuilt_per_trace(self, mini_suite, counting_kind):
        """A predictor whose reset() raises NotImplementedError is rebuilt
        for every trace, so no trace sees tables another trained."""
        spec, builds = counting_kind("test-no-reset-gshare", _NoResetGShare, log2_entries=12)
        suite = Runner(RunnerConfig(workers=1)).run_suite(spec, mini_suite)
        assert len(suite) == len(mini_suite)
        assert len(builds) == len(mini_suite)
        fresh = [
            SimulationEngine(_NoResetGShare(log2_entries=12)).run(trace)
            for trace in mini_suite
        ]
        assert [vars(r) for r in suite.results] == [vars(r) for r in fresh]
