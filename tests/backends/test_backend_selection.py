"""Backend selection plumbing: env var, request field, CLI flag, scheduler.

Precedence is env < request < CLI: ``REPRO_SUITE_BACKEND`` sets the
ambient default, a request's ``backend`` field overrides it, and an
explicit ``--backend`` flag (``backend_forced``) overrides both.  All
selections are bit-identical, so every test can assert result equality
against the plain interpreter path.  A ``numpy`` selection runs on the
native kernel where it loads and on the numpy scan where it does not; the
tests named ``*without_native*`` make the library unavailable so that
the scan runs.
"""

from __future__ import annotations

import json
import pickle

import pytest

from repro.api import Runner, RunnerConfig, RunRequest
from repro.api.cli import main
from repro.api.config import ENV_BACKEND, parse_backend
from repro.pipeline.config import PipelineConfig
from repro.pipeline.parallel import run_scheduled
from repro.pipeline.scenarios import UpdateScenario
from repro.predictors.registry import PredictorSpec
from repro.traces.suite import generate_trace

TINY = "synthetic:biased?length=250&seed=4"


class TestConfig:
    def test_env_selection(self):
        assert RunnerConfig.from_env({}).backend is None
        assert RunnerConfig.from_env({ENV_BACKEND: "numpy"}).backend == "numpy"
        assert RunnerConfig.from_env({ENV_BACKEND: " Interp "}).backend == "interp"

    def test_invalid_backend_raises_naming_the_variable(self):
        with pytest.raises(ValueError, match=ENV_BACKEND):
            RunnerConfig.from_env({ENV_BACKEND: "cuda"})
        with pytest.raises(ValueError, match="backend"):
            RunnerConfig(backend="cuda")

    def test_parse_backend(self):
        assert parse_backend("numpy") == "numpy"
        with pytest.raises(ValueError, match="backend"):
            parse_backend("vulkan")


class TestRequestField:
    def test_round_trips_through_json(self):
        request = RunRequest("gshare", TINY, backend="numpy")
        clone = RunRequest.from_dict(json.loads(request.to_json()))
        assert clone == request
        assert clone.backend == "numpy"

    def test_default_omits_the_key(self):
        payload = RunRequest("gshare", TINY).to_dict()
        assert "backend" not in payload

    def test_invalid_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            RunRequest("gshare", TINY, backend="cuda")
        with pytest.raises(ValueError, match="backend"):
            RunRequest("gshare", TINY, backend=7)


class TestPrecedence:
    REQUEST = RunRequest("gshare", TINY, backend="numpy")
    PLAIN = RunRequest("gshare", TINY)

    def test_env_is_the_ambient_default(self):
        runner = Runner(RunnerConfig(backend="numpy"))
        assert runner.backend_for(self.PLAIN) == "numpy"
        assert Runner().backend_for(self.PLAIN) is None  # the default route

    def test_request_overrides_env(self):
        runner = Runner(RunnerConfig(backend="interp"))
        assert runner.backend_for(self.REQUEST) == "numpy"

    def test_forced_cli_flag_overrides_request(self):
        runner = Runner(RunnerConfig(backend="interp", backend_forced=True))
        assert runner.backend_for(self.REQUEST) == "interp"


class TestSchedulerRouting:
    @pytest.fixture
    def entry_calls(self, monkeypatch):
        """(backend, tasks) of every call into the methods the scheduler
        hands kernel tasks to: numpy's ``run_tasks`` and native's ``bind``."""
        from repro.backends import get_backend

        calls = []
        for name, method in (("numpy", "run_tasks"), ("native", "bind")):
            backend = get_backend(name)
            entry = getattr(type(backend), method)

            def spy(self, tasks, *args, _name=name, _entry=entry):
                calls.append((_name, len(tasks)))
                return _entry(self, tasks, *args)

            monkeypatch.setattr(type(backend), method, spy)
        return calls

    @staticmethod
    def lone_runs(backend):
        """A lone gshare task under [C], then under [I], each in its own pass."""
        spec = PredictorSpec("gshare", {"log2_entries": 10})
        trace = generate_trace("CLIENT01", branches_per_trace=300, seed=9)
        return [
            run_scheduled([(spec, trace, UpdateScenario(scenario), PipelineConfig())],
                          max_workers=1, backend=backend)[0]
            for scenario in ("C", "I")
        ]

    def test_run_scheduled_backend_matches_interp(self, numpy_selection):
        trace = generate_trace("WS01", branches_per_trace=800, seed=5)
        specs = [
            PredictorSpec("gshare", {"log2_entries": n}) for n in (8, 10, 12)
        ] + [PredictorSpec("bimodal", {"entries": 512})]
        tasks = [
            (spec, trace, scenario, PipelineConfig())
            for spec in specs
            for scenario in (UpdateScenario.IMMEDIATE, UpdateScenario.FETCH_READ_ONLY)
        ]
        via_interp = run_scheduled(tasks, max_workers=1, backend="interp")
        via_numpy = numpy_selection(tasks)
        assert [pickle.dumps(r) for r in via_numpy] == [pickle.dumps(r) for r in via_interp]

    def test_mixed_support_falls_back_per_task(self, numpy_selection):
        """A batch mixing kernel-supported and interp-only specs runs both."""
        trace = generate_trace("INT03", branches_per_trace=400, seed=5)
        tasks = [
            (PredictorSpec("gshare", {"log2_entries": 10}), trace,
             UpdateScenario.IMMEDIATE, PipelineConfig()),
            (PredictorSpec("tage-lsc"), trace, UpdateScenario.IMMEDIATE, PipelineConfig()),
        ]
        via_numpy = numpy_selection(tasks)
        via_interp = run_scheduled(tasks, max_workers=1, backend="interp")
        assert [pickle.dumps(r) for r in via_numpy] == [pickle.dumps(r) for r in via_interp]

    def test_lone_delayed_numpy_task_on_native(self, entry_calls):
        """Where native loads it runs every task a numpy selection sends,
        the [I] one the scan could take too: lone [C] and [I] gshare
        tasks each reach native's ``bind``, never numpy's ``run_tasks``."""
        results = self.lone_runs("numpy")
        assert entry_calls == [("native", 1), ("native", 1)]
        assert [pickle.dumps(r) for r in results] == [
            pickle.dumps(r) for r in self.lone_runs("interp")]

    def test_numpy_selection_without_native_runs_the_scan(self, entry_calls, without_native):
        """Where native does not load, the lone [I] task reaches the numpy
        scan and the [C] one, which the scan declines, the interp path."""
        results = self.lone_runs("numpy")
        assert entry_calls == [("numpy", 1)]
        assert [pickle.dumps(r) for r in results] == [
            pickle.dumps(r) for r in self.lone_runs("interp")]

    def test_per_task_backend_list(self):
        trace = generate_trace("INT03", branches_per_trace=400, seed=5)
        task = (PredictorSpec("gshare", {"log2_entries": 10}), trace,
                UpdateScenario.IMMEDIATE, PipelineConfig())
        mixed = run_scheduled([task, task], max_workers=1, backend=["numpy", None])
        assert mixed[0] == mixed[1]
        with pytest.raises(ValueError, match="per-task backend"):
            run_scheduled([task], max_workers=1, backend=["numpy", "numpy"])

    def test_per_task_backend_list_without_native(self, without_native, record_routes):
        """Deduplicated tasks take the first one's selection: the scan."""
        trace = generate_trace("INT03", branches_per_trace=400, seed=5)
        task = (PredictorSpec("gshare", {"log2_entries": 10}), trace,
                UpdateScenario.IMMEDIATE, PipelineConfig())
        with record_routes() as routes:
            mixed = run_scheduled([task, task], max_workers=1, backend=["numpy", None])
        assert routes == {"numpy": 1}
        assert mixed[0] == mixed[1] == run_scheduled([task], max_workers=1, backend="interp")[0]


class TestRunnerEndToEnd:
    def test_run_batch_identical_across_backends(self):
        requests = [
            RunRequest("gshare", TINY, scenario="C"),
            RunRequest("bimodal", TINY),
            RunRequest("tage", TINY),
            RunRequest("tage-lsc", TINY),
            RunRequest("perceptron", TINY, scenario="C"),
        ]
        baseline = Runner(RunnerConfig(backend="interp")).run_batch(requests)
        for backend in ("numpy", "native", None):
            other = Runner(RunnerConfig(backend=backend)).run_batch(requests)
            assert [pickle.dumps(s) for s in other] == [pickle.dumps(s) for s in baseline]

    def test_sharded_request_through_numpy_backend(self):
        request = RunRequest(
            "gshare", "synthetic:mixed?length=4000&seed=11",
            sharding={"shards": 3, "warmup": 300}, backend="numpy",
        )
        sharded = Runner().run(request)
        whole = Runner().run(RunRequest("gshare", "synthetic:mixed?length=4000&seed=11"))
        # Warmup-mode sharding is approximate; the backend must agree
        # with the interp engine on the sharded run itself.
        interp = Runner(RunnerConfig(backend="interp")).run(
            RunRequest("gshare", "synthetic:mixed?length=4000&seed=11",
                       sharding={"shards": 3, "warmup": 300})
        )
        assert pickle.dumps(sharded) == pickle.dumps(interp)
        assert sharded.branches == whole.branches

    def test_run_batch_without_native_runs_the_scan(self, without_native, record_routes):
        """Where native does not load, a numpy selection runs bimodal and
        sharded gshare under [I] on the scan and the rest on interp."""
        ref = "synthetic:mixed?length=4000&seed=11"
        requests = [
            RunRequest("bimodal", TINY),
            RunRequest("gshare", TINY, scenario="C"),
            RunRequest("gshare", ref, sharding={"shards": 3, "warmup": 300}),
        ]
        baseline = Runner(RunnerConfig(backend="interp")).run_batch(requests)
        with record_routes() as routes:
            via_numpy = Runner(RunnerConfig(backend="numpy")).run_batch(requests)
        assert routes == {"numpy": 1, "interp": 1}  # one scan call for the [I] group
        assert [pickle.dumps(s) for s in via_numpy] == [pickle.dumps(s) for s in baseline]


#: The two ``repro run`` arguments CI's scan step checks: a 4-entry bimodal
#: puts the whole trace in four huge segments; a sharded gshare over a
#: local pattern mixes short segments, warmup and maps that stay
#: non-constant.
SCAN_RUNS = {
    "bimodal4": ["bimodal", "--config", '{"entries": 4}',
                 "--trace", "synthetic:mixed?length=50000&seed=7"],
    "local": ["gshare", "--trace", "synthetic:local-pattern?length=50000&seed=3",
              "--shards", "2", "--warmup", "200"],
}


class TestCLI:
    @pytest.mark.parametrize("name", sorted(SCAN_RUNS))
    def test_numpy_without_native_runs_the_scan(self, name, without_native, record_routes,
                                                capsys):
        """Where native does not load, ``--backend numpy`` runs the scan
        and prints the ``--backend interp`` bytes."""
        printed = {}
        for backend in ("numpy", "interp"):
            with record_routes() as routes:
                assert main(["run", *SCAN_RUNS[name], "--backend", backend, "--json"]) == 0
            printed[backend] = capsys.readouterr().out
            assert set(routes) == {backend}, routes
        assert printed["numpy"] == printed["interp"]

    def test_run_backend_flag_matches_interp(self, capsys):
        code = main(["run", "gshare", "--trace", TINY, "--backend", "interp", "--json"])
        assert code == 0
        baseline = json.loads(capsys.readouterr().out)
        for backend in (["--backend", "numpy"], ["--backend", "native"], []):
            code = main(["run", "gshare", "--trace", TINY, *backend, "--json"])
            assert code == 0
            assert json.loads(capsys.readouterr().out) == baseline

    def test_bad_backend_is_an_argparse_error(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "gshare", "--trace", TINY, "--backend", "cuda"])
        assert "backend" in capsys.readouterr().err

    def test_dump_request_carries_the_submit_backend(self, capsys):
        code = main(["submit", "gshare", "--trace", TINY, "--backend", "numpy",
                     "--no-wait", "--url", "http://127.0.0.1:1", "--json"])
        # The service is not running; the point is that the request built
        # by `submit` carries the backend (exercised via --request conflict
        # below and the round-trip in TestRequestField).
        assert code == 2
        assert "cannot reach" in capsys.readouterr().err

    def test_submit_backend_conflicts_with_request_file(self, capsys, tmp_path):
        path = tmp_path / "request.json"
        path.write_text(RunRequest("gshare", TINY).to_json())
        code = main(["submit", "--request", str(path), "--backend", "numpy",
                     "--url", "http://127.0.0.1:1"])
        assert code == 2
        assert "--backend" in capsys.readouterr().err
