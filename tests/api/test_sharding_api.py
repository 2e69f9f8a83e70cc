"""Sharding through the run API: requests, runner scheduling, CLI flags."""

import json
import pickle

import pytest

from repro.api import Runner, RunnerConfig, RunRequest, ShardingPolicy, validate_shard_coverage
from repro.api.cli import main
from repro.api.config import ENV_AUTOSHARD, parse_auto_shard
from repro.obs import MetricsRegistry, set_metrics
from repro.pipeline.config import PipelineConfig
from repro.pipeline.parallel import run_scheduled
from repro.pipeline.scenarios import UpdateScenario
from repro.predictors.registry import PredictorSpec
from repro.traces.refs import resolve_trace_ref
from repro.traces.sharding import shard_refs

REF = "synthetic:mixed?length=4000&seed=21"


def _serial(**kwargs):
    kwargs.setdefault("workers", 1)
    return Runner(RunnerConfig(**kwargs))


class TestRunRequestSharding:
    def test_policy_round_trips_through_json(self):
        request = RunRequest("gshare", REF, "A", sharding=ShardingPolicy(2, 100, "exact"))
        clone = RunRequest.from_dict(json.loads(request.to_json()))
        assert clone == request and clone.sharding == ShardingPolicy(2, 100, "exact")

    def test_absent_policy_round_trips_as_none(self):
        request = RunRequest("gshare", REF)
        payload = request.to_dict()
        assert "sharding" not in payload
        assert RunRequest.from_dict(payload).sharding is None

    def test_policy_accepts_a_plain_dict(self):
        request = RunRequest("gshare", REF, sharding={"shards": 3})
        assert request.sharding == ShardingPolicy(shards=3)

    def test_policy_type_validated(self):
        with pytest.raises(ValueError, match="ShardingPolicy or a dict"):
            RunRequest("gshare", REF, sharding=4)

    def test_shard_ref_plus_policy_rejected(self):
        with pytest.raises(ValueError, match="cannot shard it again"):
            RunRequest("gshare", f"{REF}#shard=0/2", sharding=ShardingPolicy(shards=2))

    def test_shard_ref_alone_is_fine(self):
        request = RunRequest("gshare", f"{REF}#shard=0/2")
        assert request.sharding is None


class TestShardCoverage:
    def test_disjoint_shards_pass(self):
        validate_shard_coverage(
            [RunRequest("gshare", f"{REF}#shard={i}/3") for i in range(3)]
        )

    def test_duplicate_shard_rejected(self):
        with pytest.raises(ValueError, match="duplicate shard submission"):
            validate_shard_coverage(
                [RunRequest("gshare", f"{REF}#shard=0/2"),
                 RunRequest("gshare", f"{REF}#shard=0/2&warmup=9")]
            )

    def test_inconsistent_plans_rejected(self):
        with pytest.raises(ValueError, match="inconsistent shard plans"):
            validate_shard_coverage(
                [RunRequest("gshare", f"{REF}#shard=0/2"),
                 RunRequest("gshare", f"{REF}#shard=1/4")]
            )

    def test_different_predictors_or_scenarios_never_conflict(self):
        validate_shard_coverage(
            [RunRequest("gshare", f"{REF}#shard=0/2"),
             RunRequest("bimodal", f"{REF}#shard=0/2"),
             RunRequest("gshare", f"{REF}#shard=0/2", scenario="A")]
        )

    def test_whole_trace_requests_exempt(self):
        validate_shard_coverage(
            [RunRequest("gshare", REF), RunRequest("gshare", REF),
             RunRequest("gshare", f"{REF}#shard=0/2")]
        )


class TestRunnerSharding:
    def test_exact_policy_matches_unsharded(self):
        with _serial() as runner:
            base = runner.run(RunRequest("gshare", REF, "A"))
            exact = runner.run(
                RunRequest("gshare", REF, "A", sharding=ShardingPolicy(3, mode="exact"))
            )
        assert exact.results[0] == base.results[0]

    def test_warmup_policy_merges_back_to_one_result(self):
        with _serial() as runner:
            suite = runner.run(
                RunRequest("gshare", REF, sharding=ShardingPolicy(4, warmup=200))
            )
        (result,) = suite.results
        assert result.window is None
        assert result.warmup_branches == 3 * 200

    def test_shards_1_disables_sharding(self):
        with _serial(auto_shard_branches=100) as runner:
            suite = runner.run(RunRequest("gshare", REF, sharding=ShardingPolicy(shards=1)))
        assert suite.results[0].warmup_branches == 0

    def test_auto_shard_engages_past_the_threshold(self):
        with _serial(auto_shard_branches=1000) as runner:
            suite = runner.run(RunRequest("gshare", REF))
        (result,) = suite.results
        assert result.warmup_branches > 0 and result.window is None

    def test_auto_shard_ignores_short_traces(self):
        with _serial(auto_shard_branches=1_000_000) as runner:
            suite = runner.run(RunRequest("gshare", REF))
        assert suite.results[0].warmup_branches == 0

    def test_auto_shard_never_reshards_a_shard_ref(self):
        with _serial(auto_shard_branches=100) as runner:
            suite = runner.run(RunRequest("gshare", f"{REF}#shard=0/2&warmup=0"))
        (result,) = suite.results
        assert result.window is not None and result.warmup_branches == 0

    def test_batch_mixes_whole_and_sharded_requests(self):
        with _serial() as runner:
            whole, sharded = runner.run_batch(
                [RunRequest("bimodal", REF),
                 RunRequest("bimodal", REF, sharding=ShardingPolicy(2, mode="exact"))]
            )
        assert whole.results[0] == sharded.results[0]

    def test_shard_refs_of_one_trace_generate_it_once(self):
        """Every ``#shard=`` reference of one trace in a batch is cut from
        one generation of the base, with the results each reference gives
        when resolved on its own."""
        refs = shard_refs(REF, 4, warmup=300)
        registry = MetricsRegistry()
        previous = set_metrics(registry)
        try:
            with _serial() as runner:
                suites = runner.run_batch([RunRequest("gshare", ref) for ref in refs])
        finally:
            set_metrics(previous)
        generated = registry.counter("repro_trace_generated_branches_total", "", ("path",))
        (base,) = resolve_trace_ref(REF)
        assert generated.value(path="native") + generated.value(path="python") == len(base)
        alone = run_scheduled(
            [(PredictorSpec("gshare"), resolve_trace_ref(ref)[0], UpdateScenario.IMMEDIATE,
              PipelineConfig()) for ref in refs], max_workers=1)
        assert [pickle.dumps(suite.results[0]) for suite in suites] == [
            pickle.dumps(result) for result in alone]

    def test_duplicate_shard_batch_rejected(self):
        with _serial() as runner, pytest.raises(ValueError, match="duplicate shard"):
            runner.run_batch(
                [RunRequest("gshare", f"{REF}#shard=0/2"),
                 RunRequest("gshare", f"{REF}#shard=0/2")]
            )


class TestAutoShardConfig:
    def test_parse_auto_shard(self):
        assert parse_auto_shard("off") is None
        assert parse_auto_shard("0") is None
        assert parse_auto_shard("50000") == 50_000
        with pytest.raises(ValueError, match="positive branch count"):
            parse_auto_shard("many")
        with pytest.raises(ValueError, match="positive"):
            parse_auto_shard("-3")

    def test_from_env_reads_the_threshold(self):
        config = RunnerConfig.from_env({ENV_AUTOSHARD: "12345"})
        assert config.auto_shard_branches == 12_345
        assert RunnerConfig.from_env({ENV_AUTOSHARD: "off"}).auto_shard_branches is None
        assert RunnerConfig.from_env({}).auto_shard_branches is not None

    def test_invalid_threshold_validated(self):
        with pytest.raises(ValueError, match="auto_shard_branches"):
            RunnerConfig(auto_shard_branches=-1)


class TestCLISharding:
    def test_dump_request_includes_the_policy(self, capsys):
        assert main(["run", "gshare", "--trace", REF, "--shards", "2",
                     "--warmup", "99", "--shard-mode", "exact", "--dump-request"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["sharding"] == {"shards": 2, "warmup": 99, "mode": "exact"}

    def test_sharded_run_reports_whole_trace_numbers(self, capsys):
        assert main(["run", "gshare", "--trace", REF, "--shards", "3",
                     "--warmup", "100", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["traces"] == 1
        assert payload["branches"] >= 4000

    def test_shard_flags_conflict_with_request_files(self, tmp_path, capsys):
        path = tmp_path / "request.json"
        path.write_text(RunRequest("gshare", REF).to_json())
        assert main(["run", "--request", str(path), "--shards", "2"]) == 2
        assert "--shards" in capsys.readouterr().err

    def test_shard_ref_runs_from_the_command_line(self, capsys):
        assert main(["run", "gshare", "--trace", f"{REF}#shard=0/2&warmup=0",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["branches"] < 4000  # one half of the trace


def test_request_pipeline_still_round_trips_with_sharding():
    request = RunRequest(
        "gshare", REF, "C",
        pipeline=PipelineConfig(retire_delay=8, execute_delay=2),
        sharding=ShardingPolicy(shards=2),
    )
    clone = RunRequest.from_dict(json.loads(request.to_json()))
    assert clone == request
