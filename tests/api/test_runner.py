"""Runner facade: env config, cross-product scheduling, cache versioning."""

import pickle

import pytest

from repro.api import Runner, RunnerConfig, RunRequest, active_runner, using_runner
from repro.api.config import (
    DEFAULT_CACHE_MAX_MB,
    ENV_CACHE,
    ENV_CACHE_VERSION,
    ENV_WORKERS,
    default_cache_dir,
)
from repro.pipeline.parallel import SuiteCache
from repro.pipeline.engine import SimulationEngine
from repro.predictors.registry import PredictorSpec

REF_A = "synthetic:biased?length=250&seed=4"
REF_B = "synthetic:loop?iterations=9&length=250&seed=4"


class TestRunnerConfig:
    def test_defaults(self):
        config = RunnerConfig.from_env({})
        # The cache is on by default: platform directory, bounded size.
        assert config == RunnerConfig(
            workers=1,
            cache_dir=default_cache_dir({}),
            cache_version="",
            cache_max_mb=DEFAULT_CACHE_MAX_MB,
        )

    def test_cache_off_and_default_resolution(self, tmp_path):
        assert RunnerConfig.from_env({ENV_CACHE: "off"}).cache_dir is None
        assert RunnerConfig.from_env({ENV_CACHE: "none"}).cache_dir is None
        resolved = RunnerConfig.from_env({"XDG_CACHE_HOME": str(tmp_path)})
        assert resolved.cache_dir == str(tmp_path / "repro-suite")
        home = RunnerConfig.from_env({"HOME": str(tmp_path)})
        assert home.cache_dir == str(tmp_path / ".cache" / "repro-suite")

    def test_cache_max_mb_default_and_unbounded(self):
        assert RunnerConfig.from_env({}).cache_max_mb == DEFAULT_CACHE_MAX_MB
        env = {"REPRO_SUITE_CACHE_MAX_MB": "unbounded"}
        assert RunnerConfig.from_env(env).cache_max_mb is None

    def test_env_parsing(self):
        config = RunnerConfig.from_env({
            ENV_WORKERS: "4", ENV_CACHE: "/tmp/c", ENV_CACHE_VERSION: "v2",
        })
        assert (config.workers, config.cache_dir, config.cache_version) == (4, "/tmp/c", "v2")

    def test_auto_workers(self):
        assert RunnerConfig.from_env({ENV_WORKERS: "auto"}).workers is None

    def test_invalid_workers_raise_instead_of_silently_serialising(self):
        with pytest.raises(ValueError, match=ENV_WORKERS):
            RunnerConfig.from_env({ENV_WORKERS: "eihgt"})
        with pytest.raises(ValueError, match=ENV_WORKERS):
            RunnerConfig.from_env({ENV_WORKERS: "0"})

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="workers"):
            RunnerConfig(workers=0)
        with pytest.raises(ValueError, match="workers"):
            RunnerConfig(workers="four")


class TestRunnerExecution:
    def test_run_suite_matches_fresh_engine_runs(self, mini_suite):
        spec = PredictorSpec("gshare", {"log2_entries": 12})
        facade = Runner().run_suite(spec, mini_suite)
        serial = [SimulationEngine(spec.build()).run(trace) for trace in mini_suite]
        assert facade.predictor_name == serial[0].predictor_name
        assert [vars(a) for a in facade.results] == [vars(b) for b in serial]

    def test_batch_matches_individual_runs(self):
        requests = [
            RunRequest("gshare", REF_A),
            RunRequest("bimodal", REF_B, scenario="A"),
            RunRequest("gshare", REF_A, scenario="C"),
        ]
        batch = Runner().run_batch(requests)
        singles = [Runner().run(request) for request in requests]
        assert [pickle.dumps(s) for s in batch] == [pickle.dumps(s) for s in singles]

    def test_parallel_batch_matches_serial_batch(self):
        requests = [RunRequest("gshare", REF_A), RunRequest("bimodal", REF_B)]
        serial = Runner(RunnerConfig(workers=1)).run_batch(requests)
        parallel = Runner(RunnerConfig(workers=2)).run_batch(requests)
        assert [pickle.dumps(s) for s in serial] == [pickle.dumps(s) for s in parallel]

    def test_product_order_is_predictor_major_and_deterministic(self):
        runner = Runner()
        requests = runner.product(["gshare", "bimodal"], [REF_A, REF_B], ["I", "A"])
        combos = [(r.predictor.kind, r.trace, r.scenario.value) for r in requests]
        assert combos == [
            ("gshare", REF_A, "I"), ("gshare", REF_A, "A"),
            ("gshare", REF_B, "I"), ("gshare", REF_B, "A"),
            ("bimodal", REF_A, "I"), ("bimodal", REF_A, "A"),
            ("bimodal", REF_B, "I"), ("bimodal", REF_B, "A"),
        ]
        assert requests == runner.product(["gshare", "bimodal"], [REF_A, REF_B], ["I", "A"])

    def test_run_product_pairs_requests_with_results(self):
        pairs = Runner().run_product(["always-taken"], [REF_A], ["I"])
        assert len(pairs) == 1
        request, result = pairs[0]
        assert request.predictor.kind == "always-taken"
        assert result.branches == 250

    def test_empty_product_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            Runner().product([], [REF_A])

    def test_duplicate_requests_share_resolution_and_results(self):
        runner = Runner()
        results = runner.run_batch([RunRequest("gshare", REF_A)] * 3)
        assert len(results) == 3
        assert results[0].results[0] is results[1].results[0]  # simulated once

    def test_dedup_survives_different_spellings_of_one_ref(self):
        runner = Runner()
        spellings = [
            "synthetic:biased?length=250&seed=4",
            "synthetic:biased?seed=4&length=250",
            "synthetic:biased?seed=4&length=250&bias=0.7",  # explicit default
        ]
        assert runner.resolve(spellings[0])[0] is runner.resolve(spellings[1])[0]
        results = runner.run_batch([RunRequest("gshare", ref) for ref in spellings])
        assert results[0].results[0] is results[2].results[0]  # simulated once

    def test_empty_job_rejected(self):
        with pytest.raises(ValueError, match="at least one trace"):
            Runner().run_suites([("gshare", [], "I", None)])


class TestRunnerCache:
    def test_batch_populates_and_serves_cache(self, tmp_path):
        config = RunnerConfig(cache_dir=str(tmp_path))
        request = RunRequest("gshare", REF_A)
        first = Runner(config).run(request)
        rerun = Runner(config)
        second = rerun.run(request)
        assert rerun.cache.hits == 1 and rerun.cache.misses == 0
        assert pickle.dumps(first) == pickle.dumps(second)

    def test_cache_version_invalidates_without_deleting(self, tmp_path):
        request = RunRequest("gshare", REF_A)
        Runner(RunnerConfig(cache_dir=str(tmp_path), cache_version="v1")).run(request)
        other = Runner(RunnerConfig(cache_dir=str(tmp_path), cache_version="v2"))
        other.run(request)
        assert other.cache.hits == 0 and other.cache.misses == 1
        assert SuiteCache(str(tmp_path)).stats()["entries"] == 2

    def test_cache_stats_and_clear(self, tmp_path):
        config = RunnerConfig(cache_dir=str(tmp_path))
        Runner(config).run_batch([RunRequest("gshare", REF_A), RunRequest("gshare", REF_B)])
        (tmp_path / "deadbeef.pkl.tmp.123").write_bytes(b"orphan")  # interrupted put()
        cache = SuiteCache(str(tmp_path))
        stats = cache.stats()
        assert stats["entries"] == 2 and stats["bytes"] > 0
        assert cache.clear() == 2  # tmp orphans deleted but not counted
        assert cache.stats()["entries"] == 0
        assert list(tmp_path.glob("*.pkl.tmp.*")) == []


class TestAmbientRunner:
    def test_using_runner_overrides_env(self):
        runner = Runner(RunnerConfig(workers=1))
        with using_runner(runner):
            assert active_runner() is runner
        assert active_runner() is not runner

    def test_experiment_drivers_use_the_ambient_runner(self, tmp_path, mini_suite):
        from repro.analysis.experiments import run_suite_characteristics

        runner = Runner(RunnerConfig(cache_dir=str(tmp_path)))
        with using_runner(runner):
            run_suite_characteristics(mini_suite)
        assert SuiteCache(str(tmp_path)).stats()["entries"] == len(mini_suite)
