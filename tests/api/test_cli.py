"""CLI smoke tests: in-process `main()` plus `python -m repro` subprocess."""

import json
import os
import re
import subprocess
import sys

import pytest

from repro.api.cli import main
from repro.api.runner import Runner

TINY = "synthetic:biased?length=250&seed=4"


def run_cli(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


def run_cli_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    assert code == 0
    return json.loads(out)


class TestListCommands:
    def test_list_predictors_json(self, capsys):
        payload = run_cli_json(capsys, "list", "predictors", "--json")
        kinds = {entry["kind"] for entry in payload}
        assert {"tage", "tage-lsc", "gshare", "isl-tage"} <= kinds
        backends = {entry["kind"]: entry["backends"] for entry in payload}
        assert backends["tage"] == ["interp", "native"]
        assert backends["gehl"] == ["interp", "native"]
        assert backends["gshare"] == ["interp", "native", "numpy"]
        assert backends["tage-lsc"] == ["interp", "native"]
        assert backends["snap"] == ["interp"]

    def test_list_predictors_table_has_backends_column(self, capsys):
        code, out = run_cli(capsys, "list", "predictors")
        assert code == 0
        header, *lines = out.splitlines()
        assert "backends" in header
        perceptron = next(line for line in lines if line.startswith("perceptron "))
        assert "interp, native" in perceptron

    def test_list_traces_json(self, capsys):
        payload = run_cli_json(capsys, "list", "traces", "--json")
        patterns = " ".join(entry["pattern"] for entry in payload)
        assert "suite:all" in patterns and "synthetic:loop" in patterns

    def test_list_experiments_json(self, capsys):
        payload = run_cli_json(capsys, "list", "experiments", "--json")
        names = {entry["name"] for entry in payload}
        assert "fig10" in names and "update-scenarios" in names


class TestRunCommand:
    def test_run_json_payload(self, capsys):
        payload = run_cli_json(
            capsys, "run", "gshare", "--trace", TINY, "--scenario", "A", "--json",
        )
        assert payload["spec"] == {"kind": "gshare", "config": {}}
        assert payload["scenario"] == "A"
        assert payload["branches"] == 250
        assert 0.0 <= payload["accuracy"] <= 1.0
        assert payload["mppki"] == pytest.approx(
            20_000.0 * payload["mispredictions"] / payload["instructions"]
        )

    def test_dump_request_round_trips(self, capsys):
        from repro.api import RunRequest

        payload = run_cli_json(
            capsys, "run", "tage", "--trace", TINY, "--scenario", "C",
            "--retire-delay", "8", "--execute-delay", "2", "--dump-request",
        )
        request = RunRequest.from_dict(payload)
        assert request.predictor.kind == "tage"
        assert request.pipeline.retire_delay == 8

    def test_run_from_request_file_matches_inline_run(self, capsys, tmp_path):
        _, dumped = run_cli(capsys, "run", "gshare", "--trace", TINY, "--dump-request")
        path = tmp_path / "request.json"
        path.write_text(dumped)
        inline = run_cli_json(capsys, "run", "gshare", "--trace", TINY, "--json")
        from_file = run_cli_json(capsys, "run", "--request", str(path), "--json")
        assert from_file == inline

    def test_unknown_kind_is_a_clean_error(self, capsys):
        code = main(["run", "not-a-predictor", "--trace", TINY])
        assert code == 2
        assert "unknown predictor kind" in capsys.readouterr().err

    def test_bad_predictor_config_key_is_a_clean_error(self, capsys):
        code = main(["run", "tage", "--config", '{"bogus": 1}', "--trace", TINY])
        assert code == 2
        assert "bogus" in capsys.readouterr().err

    def test_bad_pipeline_key_in_request_file_is_a_clean_error(self, capsys, tmp_path):
        _, dumped = run_cli(capsys, "run", "gshare", "--trace", TINY, "--dump-request")
        payload = json.loads(dumped)
        payload["pipeline"]["bogus"] = 1
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        code = main(["run", "--request", str(path)])
        assert code == 2
        assert "unknown keys" in capsys.readouterr().err

    def test_multi_trace_dump_replays_through_request_file(self, capsys, tmp_path):
        other = "synthetic:loop?iterations=7&length=250&seed=4"
        _, dumped = run_cli(
            capsys, "run", "gshare", "--trace", TINY, "--trace", other, "--dump-request",
        )
        assert isinstance(json.loads(dumped), list)
        path = tmp_path / "batch.json"
        path.write_text(dumped)
        inline = run_cli_json(capsys, "run", "gshare", "--trace", TINY,
                              "--trace", other, "--json")
        replayed = run_cli_json(capsys, "run", "--request", str(path), "--json")
        assert replayed == inline

    def test_bad_trace_ref_is_a_clean_error(self, capsys):
        code = main(["run", "gshare", "--trace", "suite:GOBMK01"])
        assert code == 2
        assert "unknown suite trace" in capsys.readouterr().err

    def test_kind_and_request_are_mutually_exclusive(self, capsys):
        code = main(["run"])
        assert code == 2

    def test_request_file_rejects_conflicting_flags(self, capsys, tmp_path):
        _, dumped = run_cli(capsys, "run", "gshare", "--trace", TINY, "--dump-request")
        path = tmp_path / "request.json"
        path.write_text(dumped)
        code = main(["run", "--request", str(path), "--scenario", "C"])
        assert code == 2
        assert "--scenario" in capsys.readouterr().err


class TestSuiteCommand:
    def test_cross_product_payload(self, capsys):
        payload = run_cli_json(
            capsys, "suite",
            "--predictor", "gshare", "--predictor", "bimodal",
            "--trace", TINY, "--scenario", "I", "--scenario", "A", "--json",
        )
        combos = [(p["spec"]["kind"], p["scenario"]) for p in payload]
        assert combos == [
            ("gshare", "I"), ("gshare", "A"), ("bimodal", "I"), ("bimodal", "A"),
        ]

    def test_predictor_config_json(self, capsys):
        payload = run_cli_json(
            capsys, "suite",
            "--predictor", 'gshare={"log2_entries": 12}', "--trace", TINY, "--json",
        )
        assert payload[0]["spec"]["config"] == {"log2_entries": 12}


class TestExperimentCommand:
    def test_fig10_matches_the_driver_on_the_same_traces(self, capsys):
        from repro.analysis.experiments import run_fig10_hard_traces

        refs = ["suite:INT03?branches=400&seed=3", "hard:INT01?branches=400&seed=3"]
        payload = run_cli_json(
            capsys, "experiment", "fig10", "--trace", refs[0], "--trace", refs[1], "--json",
        )
        traces = [trace for ref in refs for trace in Runner().resolve(ref)]
        expected = run_fig10_hard_traces(traces)
        assert payload["headers"] == expected.headers
        assert payload["rows"] == expected.rows
        assert payload["traces"] == ["INT03", "INT01"]

    def test_explicit_suite_shape_conflicts_with_trace_refs(self, capsys):
        code = main(["experiment", "e13", "--trace", "suite:MM01?branches=300",
                     "--branches", "500"])
        assert code == 2
        assert "--branches" in capsys.readouterr().err

    def test_alias_and_unknown_name(self, capsys):
        payload = run_cli_json(
            capsys, "experiment", "e13", "--trace", "suite:MM01?branches=300", "--json",
        )
        assert payload["name"] == "suite-characteristics"
        code = main(["experiment", "fig99"])
        assert code == 2
        assert "unknown experiment" in capsys.readouterr().err


class TestCacheCommand:
    def test_stats_and_clear(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        assert main(["run", "gshare", "--trace", TINY, "--cache-dir", cache_dir]) == 0
        capsys.readouterr()
        stats = run_cli_json(capsys, "cache", "stats", "--cache-dir", cache_dir, "--json")
        assert stats["entries"] == 1
        cleared = run_cli_json(capsys, "cache", "clear", "--cache-dir", cache_dir, "--json")
        assert cleared["removed"] == 1
        assert run_cli_json(
            capsys, "cache", "stats", "--cache-dir", cache_dir, "--json"
        )["entries"] == 0

    def test_cache_off_errors(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SUITE_CACHE", "off")
        assert main(["cache", "stats"]) == 2
        assert "no cache directory" in capsys.readouterr().err

    def test_cache_stats_shows_the_resolved_default_path(self, capsys, monkeypatch, tmp_path):
        # With REPRO_SUITE_CACHE unset the default-on directory resolves
        # (XDG-style) and `cache stats` reports exactly where it landed.
        monkeypatch.delenv("REPRO_SUITE_CACHE", raising=False)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        stats = run_cli_json(capsys, "cache", "stats", "--json")
        assert stats["directory"] == str(tmp_path / "repro-suite")
        assert stats["max_bytes"] == 512 * 1024 * 1024


class TestPythonDashM:
    """End-to-end smoke through a real interpreter (`python -m repro`)."""

    @staticmethod
    def _run(*argv):
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
        return subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            capture_output=True, text=True, env=env, timeout=300,
        )

    def test_module_run_json(self):
        proc = self._run("run", "gshare", "--trace", TINY, "--json")
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["branches"] == 250
        assert 0.0 <= payload["accuracy"] <= 1.0

    def test_module_reports_errors_on_stderr(self):
        proc = self._run("run", "gshare", "--trace", "nope")
        assert proc.returncode == 2
        assert "repro:" in proc.stderr


class TestRunTimings:
    REF = "synthetic:mixed?length=3000&seed=9"

    @pytest.fixture(autouse=True)
    def fresh_obs(self):
        from repro.obs import MetricsRegistry, SpanRecorder, set_metrics, set_tracer

        previous = set_metrics(MetricsRegistry()), set_tracer(SpanRecorder(sample_rate=1.0))
        yield
        set_metrics(previous[0])
        set_tracer(previous[1])

    def test_generation_is_its_own_row_and_absent_on_a_hit(self, capsys, tmp_path):
        argv = ["run", "gshare", "--trace", self.REF, "--cache-dir", str(tmp_path),
                "--timings", "--json"]
        cold = run_cli_json(capsys, *argv)["timings"]
        assert cold["resolve_seconds"] > 0
        assert cold["breakdown"]["trace.resolve"] == cold["resolve_seconds"]
        warm = run_cli_json(capsys, *argv)["timings"]
        assert warm["resolve_seconds"] == 0
        assert "trace.resolve" not in warm["breakdown"]
        assert warm["cache"] == {"hit": 1}

    def test_exact_request_schedules_one_whole_trace_task(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SUITE_CACHE", "off")
        code, out = run_cli(capsys, "run", "gshare", "--trace", self.REF, "--shards", "3",
                            "--shard-mode", "exact", "--timings", "--backend", "interp")
        assert code == 0
        assert "scheduled: interp=1;" in out
        assert re.search(r", resolve \d+\.\d{3}s,", out), out

    @staticmethod
    def _assert_int_counts(timings):
        counts = [timings["scheduled"], timings["generated"], timings["cache"]]
        assert all(counts[:2]), timings
        for section in counts:
            assert all(type(value) is int for value in section.values()), timings
        assert type(timings["wall_seconds"]) is float

    def test_counts_are_ints(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SUITE_CACHE", "off")
        timings = run_cli_json(
            capsys, "run", "gshare", "--trace", self.REF, "--timings", "--json")["timings"]
        assert timings["spans"] > 0
        self._assert_int_counts(timings)

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_default_route_reports_kernel_seconds(self, capsys, monkeypatch, workers):
        """Native kernel time shows on the default route, summed over every
        call (with two workers the calls run on two threads)."""
        monkeypatch.setenv("REPRO_SUITE_CACHE", "off")
        timings = run_cli_json(capsys, "run", "isl-tage", "--trace", "hard:all?branches=2000",
                               "--workers", workers, "--timings", "--json")["timings"]
        assert timings["scheduled"] == {"kernel": 7}, timings
        assert timings["kernel_seconds"] > 0, timings
        assert timings["breakdown"]["backend.kernel"] == timings["kernel_seconds"]

    def test_counts_are_ints_when_tracing_is_sampled_off(self, capsys, tmp_path):
        from repro.obs import SpanRecorder, set_tracer

        set_tracer(SpanRecorder(sample_rate=0.0))
        timings = run_cli_json(capsys, "run", "gshare", "--trace", self.REF,
                               "--cache-dir", str(tmp_path), "--timings", "--json")["timings"]
        assert "spans" not in timings
        assert timings["cache"]
        self._assert_int_counts(timings)
