"""The combined scheduling pass: flat tasks + exact chains in one pool.

``run_scheduled`` is the single pass behind ``Runner.run_batch``: flat
tasks (including the backend-kernel groups) and the first shard of every
exact-mode chain are dispatched together, so the latency-bound chains
overlap with the flat work.  Overlap must never change results —
everything here asserts bitwise equality against the separate paths.
"""

from __future__ import annotations

import multiprocessing
import pickle

import pytest

from repro.api import Runner, RunnerConfig, RunRequest
from repro.obs import MetricsRegistry, SpanRecorder, bind_trace_id, set_metrics, set_tracer
from repro.pipeline import parallel
from repro.pipeline.config import PipelineConfig
from repro.pipeline.engine import SimulationEngine
from repro.pipeline.parallel import ExactShardChain, WorkerPool, run_scheduled
from repro.pipeline.scenarios import UpdateScenario
from repro.predictors.registry import PredictorSpec
from repro.traces.sharding import plan_shards
from repro.traces.suite import generate_trace

SPEC = PredictorSpec("gshare", {"log2_entries": 10})
CONFIG = PipelineConfig()


def make_chain(trace, shards=3) -> ExactShardChain:
    return ExactShardChain(
        SPEC, trace, plan_shards(len(trace), shards), UpdateScenario.IMMEDIATE, CONFIG
    )


@pytest.fixture(scope="module")
def traces():
    return [generate_trace(name, branches_per_trace=900, seed=23) for name in
            ("INT01", "MM02", "WS01")]


def expected_whole(trace):
    return SimulationEngine(SPEC.build(), UpdateScenario.IMMEDIATE, CONFIG).run(trace)


class TestCombinedPass:
    @pytest.mark.parametrize("max_workers", [1, 3], ids=["serial", "parallel"])
    def test_flat_and_chains_in_one_pass(self, traces, max_workers):
        flat = [(SPEC, traces[0], UpdateScenario.IMMEDIATE, CONFIG)]
        chains = [make_chain(traces[1]), make_chain(traces[2], shards=2)]
        results, chain_results = run_scheduled(flat, chains, max_workers=max_workers)
        assert results[0] == expected_whole(traces[0])
        # Exact chains reassemble to the bit-identical whole-trace result.
        assert chain_results[0] == expected_whole(traces[1])
        assert chain_results[1] == expected_whole(traces[2])

    def test_chains_on_a_persistent_pool_with_flat_tasks(self, traces):
        flat = [
            (SPEC, traces[0], UpdateScenario.IMMEDIATE, CONFIG),
            (PredictorSpec("bimodal", {"entries": 256}), traces[0],
             UpdateScenario.IMMEDIATE, CONFIG),
        ]
        chains = [make_chain(traces[1])]
        with WorkerPool(max_workers=2) as pool:
            results, chain_results = run_scheduled(flat, chains, pool=pool)
            stats = pool.stats()
            # Flat tasks are pool-accounted; chain shards count separately.
            assert stats["tasks_executed"] == 2
            assert stats["exact_shards"] == 3
            assert stats["batches"] == 1
        assert results[0] == expected_whole(traces[0])
        assert chain_results[0] == expected_whole(traces[1])

    def test_backend_groups_overlap_with_chains(self, traces):
        """Kernel-supported flat tasks run in-process alongside the chains."""
        flat = [
            (PredictorSpec("gshare", {"log2_entries": n}), traces[0],
             UpdateScenario.IMMEDIATE, CONFIG)
            for n in (8, 10, 12)
        ]
        chains = [make_chain(traces[1])]
        results, chain_results = run_scheduled(
            flat, chains, max_workers=2, backend="numpy"
        )
        for task, result in zip(flat, results):
            spec = task[0]
            assert result == SimulationEngine(
                spec.build(), UpdateScenario.IMMEDIATE, CONFIG
            ).run(traces[0])
        assert chain_results[0] == expected_whole(traces[1])

    def test_chains_only_pass_matches_whole_runs(self, traces):
        chains = [make_chain(traces[1]), make_chain(traces[2])]
        results, chain_results = run_scheduled([], chains, max_workers=2)
        assert results == []
        assert [pickle.dumps(r) for r in chain_results] == [
            pickle.dumps(expected_whole(traces[1])),
            pickle.dumps(expected_whole(traces[2])),
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
        results, _ = run_scheduled(flat, max_workers=3)
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
            run_scheduled(flat, max_workers=2)
        (pool,) = pools
        assert pool.closed
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("max_workers, jobs", [(1, 3), (4, 1)], ids=["one-worker", "one-job"])
    def test_one_worker_or_one_job_starts_no_pool(self, traces, pools, max_workers, jobs):
        flat = [(SPEC, trace, UpdateScenario.IMMEDIATE, CONFIG) for trace in traces[:jobs]]
        results, _ = run_scheduled(flat, max_workers=max_workers)
        assert pools == []
        assert results == [expected_whole(trace) for trace in traces[:jobs]]

    def test_in_process_shards_record_in_the_driving_process(self, traces):
        """In-process exact shards add their metrics and spans to this
        process's registry and recorder, leaving what was there alone."""
        registry = MetricsRegistry()
        recorder = SpanRecorder(sample_rate=1.0)
        previous_registry, previous_recorder = set_metrics(registry), set_tracer(recorder)
        try:
            registry.counter("repro_test_marker_total").inc()
            chain = make_chain(traces[1])
            with bind_trace_id("tr-inproc-shards"):
                _, (merged,) = run_scheduled([], [chain], max_workers=1)
        finally:
            set_metrics(previous_registry)
            set_tracer(previous_recorder)
        assert merged == expected_whole(traces[1])
        assert registry.counter("repro_test_marker_total").value() == 1
        tasks = registry.counter("repro_pool_tasks_total", "", ("kind",))
        assert tasks.value(kind="exact") == 3
        spans = recorder.drain()
        (scheduled,) = [record for record in spans if record["name"] == "sched.run"]
        shards = [record for record in spans if record["name"] == "pool.shard"]
        assert [record["attrs"]["start_branch"] for record in shards] == [
            window.start for window in chain.windows
        ]
        assert {record["parent_id"] for record in shards} == {scheduled["span_id"]}


class TestExactChainCache:
    def _request(self) -> RunRequest:
        return RunRequest(
            "gshare", "synthetic:mixed?length=3000&seed=13",
            sharding={"shards": 3, "mode": "exact"},
        )

    def test_exact_chain_result_caches_on_the_whole_trace_key(self, tmp_path):
        config = RunnerConfig(cache_dir=str(tmp_path), workers=1)
        first = Runner(config).run(self._request())
        rerun = Runner(config)
        second = rerun.run(self._request())
        assert rerun.cache.hits == 1  # the chain never re-ran
        assert pickle.dumps(first) == pickle.dumps(second)

    def test_exact_chain_serves_a_whole_trace_request_and_vice_versa(self, tmp_path):
        config = RunnerConfig(cache_dir=str(tmp_path), workers=1)
        whole_request = RunRequest("gshare", "synthetic:mixed?length=3000&seed=13")
        exact = Runner(config).run(self._request())
        follower = Runner(config)
        whole = follower.run(whole_request)
        # Exact sharding is bit-identical to unsharded, so the cache entry
        # written by the chain satisfies the whole-trace request directly.
        assert follower.cache.hits == 1
        assert pickle.dumps(whole) == pickle.dumps(exact)

    def test_uncached_runner_still_runs_chains(self):
        runner = Runner(RunnerConfig(workers=1))
        result = runner.run(self._request())
        whole = runner.run(RunRequest("gshare", "synthetic:mixed?length=3000&seed=13"))
        assert pickle.dumps(result) == pickle.dumps(whole)
