"""The scheduling pass: kernel groups, pool tasks and exact-mode requests.

``run_scheduled`` is the single pass behind ``Runner.run_batch``: every
task of a batch (including the backend-kernel groups) is dispatched
together, and an exact-mode request contributes one whole-trace task per
trace.  Overlap must never change results — everything here asserts
bitwise equality against fresh engine runs.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from functools import partial

import pytest

from repro.api import Runner, RunnerConfig, RunRequest
from repro.obs import MetricsRegistry, SpanRecorder, bind_trace_id, set_metrics, set_tracer
from repro.pipeline import parallel
from repro.pipeline.config import PipelineConfig
from repro.pipeline.engine import SimulationEngine
from repro.pipeline.parallel import WorkerPool, run_scheduled
from repro.pipeline.scenarios import UpdateScenario
from repro.predictors.registry import PredictorSpec
from repro.traces.refs import resolve_trace_ref
from repro.traces.suite import generate_trace

SPEC = PredictorSpec("gshare", {"log2_entries": 10})
CONFIG = PipelineConfig()
REF = "synthetic:mixed?length=3000&seed=13"


@pytest.fixture(scope="module")
def traces():
    return [generate_trace(name, branches_per_trace=900, seed=23) for name in
            ("INT01", "MM02", "WS01")]


def expected_whole(trace, spec=SPEC):
    return SimulationEngine(spec.build(), UpdateScenario.IMMEDIATE, CONFIG).run(trace)


def exact_request(ref=REF, shards=3, kind="gshare") -> RunRequest:
    return RunRequest(kind, ref, sharding={"shards": shards, "mode": "exact"})


@pytest.fixture
def obs():
    """A fresh metrics registry and span recorder for this test only."""
    registry = MetricsRegistry()
    recorder = SpanRecorder(sample_rate=1.0)
    previous_registry, previous_recorder = set_metrics(registry), set_tracer(recorder)
    yield registry, recorder
    set_metrics(previous_registry)
    set_tracer(previous_recorder)


class TestCombinedPass:
    @pytest.mark.parametrize("workers", [1, 3], ids=["serial", "parallel"])
    def test_whole_and_exact_requests_in_one_batch(self, workers):
        whole_ref = "synthetic:mixed?length=2000&seed=5"
        runner = Runner(RunnerConfig(workers=workers))
        suites = runner.run_batch(
            [RunRequest("gshare", whole_ref), exact_request(), exact_request(shards=2)]
        )
        expected = [
            SimulationEngine(PredictorSpec("gshare").build()).run(trace)
            for trace in resolve_trace_ref(whole_ref) + resolve_trace_ref(REF) * 2
        ]
        assert [suite.results[0] for suite in suites] == expected

    def test_exact_request_on_a_persistent_pool_with_other_tasks(self):
        with Runner(RunnerConfig(workers=2, backend="interp"), persistent=True) as runner:
            suites = runner.run_batch([RunRequest("bimodal", REF), exact_request()])
            stats = runner.pool.stats()
            # The exact request is one ordinary pool task; no shard jobs.
            assert stats["tasks_executed"] == 2
            assert stats["batches"] == 1
        (trace,) = resolve_trace_ref(REF)
        assert suites[0].results[0] == SimulationEngine(PredictorSpec("bimodal").build()).run(trace)
        assert suites[1].results[0] == SimulationEngine(PredictorSpec("gshare").build()).run(trace)

    @staticmethod
    def mixed_selection_pass(traces, rest=None):
        """Three gshare sizes selected for numpy, two traces selected by ``rest``."""
        flat = [
            (PredictorSpec("gshare", {"log2_entries": n}), traces[0],
             UpdateScenario.IMMEDIATE, CONFIG)
            for n in (8, 10, 12)
        ] + [(SPEC, trace, UpdateScenario.IMMEDIATE, CONFIG) for trace in traces[1:]]
        results = run_scheduled(flat, max_workers=2, backend=["numpy"] * 3 + [rest] * 2)
        for (spec, trace, _, _), result in zip(flat, results):
            assert result == expected_whole(trace, spec)

    def test_backend_groups_overlap_with_pool_tasks(self, traces, record_routes):
        """Where native loads, every task of the pass runs on it."""
        with record_routes() as routes:
            self.mixed_selection_pass(traces)
        assert routes == {"native": 5}

    def test_scan_overlaps_with_pool_tasks_without_native(self, traces, without_native,
                                                          record_routes):
        """Where native does not load, the default route runs all five [I]
        gshare tasks in one scan call; with the last two pinned to interp,
        the scan runs in-process while those run on the pool."""
        with record_routes() as routes:
            self.mixed_selection_pass(traces)
        assert routes == {"numpy": 1}
        with record_routes() as routes:
            self.mixed_selection_pass(traces, rest="interp")
        assert routes == {"numpy": 1, "interp": 2}

    def test_exact_only_batch_matches_whole_runs(self):
        other = "synthetic:mixed?length=2500&seed=17"
        suites = Runner(RunnerConfig(workers=2)).run_batch(
            [exact_request(), exact_request(other)]
        )
        expected = [
            SimulationEngine(PredictorSpec("gshare").build()).run(trace)
            for trace in resolve_trace_ref(REF) + resolve_trace_ref(other)
        ]
        assert [pickle.dumps(suite.results[0]) for suite in suites] == [
            pickle.dumps(result) for result in expected
        ]


class TestSchedulingPaths:
    """Which pool a pass runs on: the caller's, a short-lived one, or none."""

    @pytest.fixture
    def pools(self, monkeypatch):
        """Every WorkerPool the scheduler builds itself, in creation order."""
        created = []

        class RecordingPool(WorkerPool):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                created.append(self)

        monkeypatch.setattr(parallel, "WorkerPool", RecordingPool)
        return created

    def test_without_a_pool_runs_on_one_short_lived_worker_pool(self, traces, pools):
        flat = [(SPEC, trace, UpdateScenario.IMMEDIATE, CONFIG) for trace in traces[:2]]
        results = run_scheduled(flat, max_workers=3, backend="interp")
        (pool,) = pools
        assert pool.max_workers == 2  # min(max_workers, jobs)
        assert pool.closed and pool.stats()["tasks_executed"] == 2
        assert multiprocessing.active_children() == []
        assert results == [expected_whole(trace) for trace in traces[:2]]

    def test_short_lived_pool_closes_when_a_task_fails(self, traces, pools):
        bad = PredictorSpec("gshare", {"bogus": 1})
        flat = [
            (SPEC, traces[0], UpdateScenario.IMMEDIATE, CONFIG),
            (bad, traces[1], UpdateScenario.IMMEDIATE, CONFIG),
        ]
        with pytest.raises(TypeError):
            run_scheduled(flat, max_workers=2, backend="interp")
        (pool,) = pools
        assert pool.closed
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("max_workers, jobs", [(1, 3), (4, 1)], ids=["one-worker", "one-job"])
    def test_one_worker_or_one_job_starts_no_pool(self, traces, pools, max_workers, jobs):
        flat = [(SPEC, trace, UpdateScenario.IMMEDIATE, CONFIG) for trace in traces[:jobs]]
        results = run_scheduled(flat, max_workers=max_workers)
        assert pools == []
        assert results == [expected_whole(trace) for trace in traces[:jobs]]

    def test_in_process_tasks_record_in_the_driving_process(self, traces, obs):
        """In-process tasks add their metrics and spans to this process's
        registry and recorder, leaving what was there alone."""
        registry, recorder = obs
        registry.counter("repro_test_marker_total").inc()
        flat = [(SPEC, trace, UpdateScenario.IMMEDIATE, CONFIG) for trace in traces]
        with bind_trace_id("tr-inproc-tasks"):
            results = run_scheduled(flat, max_workers=1, backend="interp")
        assert results == [expected_whole(trace) for trace in traces]
        assert registry.counter("repro_test_marker_total").value() == 1
        tasks = registry.counter("repro_pool_tasks_total", "", ("kind",))
        assert tasks.value(kind="sim") == 3
        spans = recorder.drain()
        (scheduled,) = [record for record in spans if record["name"] == "sched.run"]
        pool_tasks = [record for record in spans if record["name"] == "pool.task"]
        assert [record["attrs"]["trace"] for record in pool_tasks] == [t.name for t in traces]
        assert {record["parent_id"] for record in pool_tasks} == {scheduled["span_id"]}


class TestPoolObservability:
    """Pool tasks are recorded once, in the driving process, under both
    start methods: the workers ship a result and its timing, nothing else."""

    @pytest.fixture(params=["fork", "spawn"], autouse=True)
    def start_method(self, request, monkeypatch):
        """Every pool of the test starts its workers with this method."""
        try:
            context = multiprocessing.get_context(request.param)
        except ValueError:
            pytest.skip(f"start method {request.param!r} unavailable")
        monkeypatch.setattr(
            parallel, "ProcessPoolExecutor", partial(ProcessPoolExecutor, mp_context=context))

    @pytest.fixture(scope="class")
    def seven(self):
        """Seven interp tasks, one per hard trace."""
        return [(PredictorSpec("bimodal"), trace, UpdateScenario.REREAD_ON_MISPREDICTION, CONFIG)
                for trace in resolve_trace_ref("hard:all?branches=400&seed=3")]

    @staticmethod
    def pass_spans(spans, trace_id):
        """The ``sched.run`` span of ``trace_id`` and the ``pool.task`` spans under it."""
        (scheduled,) = [record for record in spans
                        if record["name"] == "sched.run" and record["trace_id"] == trace_id]
        return scheduled, [record for record in spans if record["name"] == "pool.task"
                           and record["parent_id"] == scheduled["span_id"]]

    def test_a_pool_pass_records_every_task_once(self, obs, seven):
        registry, recorder = obs
        with bind_trace_id("tr-pool-pass"):
            results = run_scheduled(seven, max_workers=2, backend="interp")
        assert results == [SimulationEngine(spec.build(), scenario, CONFIG).run(trace)
                           for spec, trace, scenario, _ in seven]
        tasks = registry.counter("repro_pool_tasks_total", "", ("kind",))
        seconds = registry.histogram("repro_pool_task_seconds", "", ("kind",))
        assert tasks.value(kind="sim") == 7
        assert seconds.count(kind="sim") == 7 and seconds.sum(kind="sim") > 0
        spans = recorder.drain()
        _, pool_tasks = self.pass_spans(spans, "tr-pool-pass")
        assert len([record for record in spans if record["name"] == "pool.task"]) == 7
        assert sorted(record["attrs"]["trace"] for record in pool_tasks) == sorted(
            trace.name for _, trace, _, _ in seven)
        assert all(record["attrs"]["kind"] == "sim" and record["status"] == "ok"
                   and record["duration"] > 0 for record in pool_tasks)
        pids = {record["pid"] for record in pool_tasks}
        assert os.getpid() not in pids and len(pids) <= 2

    def test_a_persistent_pool_keeps_each_batch_in_its_trace(self, obs, seven):
        _, recorder = obs
        with WorkerPool(max_workers=2) as pool:
            for trace_id, batch in (("tr-batch-a", seven[:4]), ("tr-batch-b", seven[4:])):
                with bind_trace_id(trace_id):
                    run_scheduled(batch, pool=pool, backend="interp")
        spans = recorder.drain()
        for trace_id, batch in (("tr-batch-a", seven[:4]), ("tr-batch-b", seven[4:])):
            _, pool_tasks = self.pass_spans(spans, trace_id)
            assert sorted(record["attrs"]["trace"] for record in pool_tasks) == sorted(
                trace.name for _, trace, _, _ in batch)
            assert {record["trace_id"] for record in pool_tasks} == {trace_id}
        assert len([record for record in spans if record["name"] == "pool.task"]) == 7

    @pytest.mark.parametrize("workers", [1, 2], ids=["in-process", "pool"])
    def test_a_failing_task_records_no_span_then_or_later(self, obs, seven, workers):
        """A task that raises leaves no ``pool.task`` span, in its own
        request's spans or in the next request's."""
        registry, recorder = obs
        bad = (PredictorSpec("bimodal", {"bogus": 1}),) + seven[0][1:]
        with WorkerPool(max_workers=1) as pool:
            pool_arg = pool if workers == 2 else None
            with bind_trace_id("tr-fails"), pytest.raises(TypeError):
                run_scheduled([bad], max_workers=workers, pool=pool_arg, backend="interp")
            with bind_trace_id("tr-after"):
                run_scheduled(seven[1:3], max_workers=workers, pool=pool_arg, backend="interp")
        spans = recorder.drain()
        failed, failed_tasks = self.pass_spans(spans, "tr-fails")
        assert failed["status"] == "error" and failed_tasks == []
        _, later_tasks = self.pass_spans(spans, "tr-after")
        pool_tasks = [record for record in spans if record["name"] == "pool.task"]
        assert pool_tasks == later_tasks and len(pool_tasks) == 2
        assert {record["trace_id"] for record in pool_tasks} == {"tr-after"}
        assert registry.counter("repro_pool_tasks_total", "", ("kind",)).value(kind="sim") == 2


class TestExactRequests:
    def test_one_task_per_trace_and_no_shard_spans(self, obs):
        registry, recorder = obs
        with bind_trace_id("tr-exact-whole"):
            Runner(RunnerConfig(workers=1, backend="interp")).run(exact_request())
        routes = registry.counter("repro_sched_tasks_total", "", ("route",))
        assert routes.value(route="interp") == 1
        names = [record["name"] for record in recorder.drain()]
        assert names.count("pool.task") == 1
        assert "pool.shard" not in names

    def test_exact_result_caches_on_the_whole_trace_key(self, tmp_path):
        config = RunnerConfig(cache_dir=str(tmp_path), workers=1)
        first = Runner(config).run(exact_request())
        rerun = Runner(config)
        second = rerun.run(exact_request())
        assert rerun.cache.hits == 1  # never simulated again
        assert pickle.dumps(first) == pickle.dumps(second)

    @pytest.mark.parametrize("first", ["exact", "whole"])
    def test_exact_and_whole_requests_share_one_cache_entry(self, tmp_path, first):
        config = RunnerConfig(cache_dir=str(tmp_path), workers=1)
        requests = {"exact": exact_request(), "whole": RunRequest("gshare", REF)}
        second = "whole" if first == "exact" else "exact"
        leader = Runner(config).run(requests[first])
        follower = Runner(config)
        served = follower.run(requests[second])
        # Exact mode is the unsharded run, so either request's cache
        # entry satisfies the other directly.
        assert follower.cache.hits == 1 and follower.cache.misses == 0
        assert pickle.dumps(served) == pickle.dumps(leader)

    def test_uncached_runner_runs_exact_requests(self):
        runner = Runner(RunnerConfig(workers=1))
        result = runner.run(exact_request())
        whole = runner.run(RunRequest("gshare", REF))
        assert pickle.dumps(result) == pickle.dumps(whole)
