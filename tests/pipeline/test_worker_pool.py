"""WorkerPool: persistent-pool parity, lifecycle, scheduling integration."""

import pickle

import pytest

from repro.api import Runner, RunnerConfig, RunRequest
from repro.pipeline.config import PipelineConfig
from repro.pipeline.parallel import WorkerPool, run_scheduled
from repro.pipeline.scenarios import UpdateScenario
from repro.predictors.registry import PredictorSpec
from repro.traces.refs import resolve_trace_ref

REF_A = "synthetic:biased?length=250&seed=4"
REF_B = "synthetic:loop?iterations=9&length=250&seed=4"


def _tasks(kind: str, ref: str, scenario=UpdateScenario.IMMEDIATE):
    config = PipelineConfig()
    return [(PredictorSpec(kind), trace, scenario, config) for trace in resolve_trace_ref(ref)]


class TestWorkerPool:
    def test_warm_pool_matches_cold_serial_byte_for_byte(self):
        """A persistent worker serving the same spec twice must produce
        byte-identical results to a cold in-process run."""
        tasks = _tasks("gshare", REF_A)
        cold = [run_scheduled(tasks, max_workers=1) for _ in range(2)]
        with WorkerPool(max_workers=1) as pool:
            first = run_scheduled(tasks, pool=pool, backend="interp")
            second = run_scheduled(tasks, pool=pool, backend="interp")  # same workers
        for warm in (first, second):
            assert [pickle.dumps(r) for r in warm] == [pickle.dumps(r) for r in cold[0]]
        assert [pickle.dumps(r) for r in cold[0]] == [pickle.dumps(r) for r in cold[1]]

    def test_warm_reuse_across_mixed_specs(self):
        """Interleaved specs on one persistent pool show no cross-talk."""
        tasks = _tasks("gshare", REF_A) + _tasks("bimodal", REF_B)
        cold = run_scheduled(tasks, max_workers=1)
        with WorkerPool(max_workers=1) as pool:
            run_scheduled(tasks, pool=pool)
            warm = run_scheduled(tasks, pool=pool)
        assert [pickle.dumps(r) for r in warm] == [pickle.dumps(r) for r in cold]

    def test_run_scheduled_with_pool_matches_without(self):
        tasks = _tasks("gshare", REF_A, UpdateScenario.REREAD_AT_RETIRE)
        plain = run_scheduled(tasks, max_workers=2)
        with WorkerPool(max_workers=2) as pool:
            pooled = run_scheduled(tasks, pool=pool)
        assert [pickle.dumps(r) for r in pooled] == [pickle.dumps(r) for r in plain]

    def test_pool_is_lazy_and_counts_batches(self):
        pool = WorkerPool(max_workers=1)
        assert not pool.started
        run_scheduled(_tasks("always-taken", REF_A), pool=pool, backend="interp")
        assert pool.started
        stats = pool.stats()
        assert stats["batches"] == 1 and stats["tasks_executed"] == 1
        pool.close()

    def test_close_is_idempotent_and_submit_after_close_raises(self):
        pool = WorkerPool(max_workers=1)
        run_scheduled(_tasks("always-taken", REF_A), pool=pool, backend="interp")
        pool.close()
        pool.close()
        assert pool.closed and not pool.started
        with pytest.raises(RuntimeError, match="closed"):
            run_scheduled(_tasks("always-taken", REF_A), pool=pool, backend="interp")

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ValueError, match="max_workers"):
            WorkerPool(max_workers=0)

    def test_task_exception_leaves_pool_warm(self):
        """One bad task must not tear down the persistent pool."""
        good = _tasks("gshare", REF_A)
        bad = [(PredictorSpec("gshare", {"bogus": 1}), good[0][1], good[0][2], good[0][3])]
        with WorkerPool(max_workers=1) as pool:
            run_scheduled(good, pool=pool, backend="interp")
            with pytest.raises(TypeError):
                run_scheduled(bad, pool=pool)
            assert not pool.closed and pool.started
            results = run_scheduled(good, pool=pool, backend="interp")  # same workers
        cold = run_scheduled(good, max_workers=1)
        assert [pickle.dumps(r) for r in results] == [pickle.dumps(r) for r in cold]


class TestRunnerLifecycle:
    def test_persistent_runner_matches_fresh_runners(self):
        requests = [RunRequest("gshare", REF_A), RunRequest("bimodal", REF_B)]
        fresh = [Runner().run(request) for request in requests]
        with Runner(RunnerConfig(workers=2, backend="interp"), persistent=True) as runner:
            again = [runner.run(request) for request in requests]
            rerun = [runner.run(request) for request in requests]
            pool = runner.pool
            assert pool is not None and pool.stats()["batches"] == 4
        assert [pickle.dumps(r) for r in again] == [pickle.dumps(r) for r in fresh]
        assert [pickle.dumps(r) for r in rerun] == [pickle.dumps(r) for r in fresh]

    def test_context_exit_closes_pool(self):
        with Runner(RunnerConfig(workers=1, backend="interp"), persistent=True) as runner:
            runner.run(RunRequest("always-taken", REF_A))
            pool = runner.pool
            assert pool is not None and pool.started
        assert pool.closed
        assert runner.pool is None

    def test_ephemeral_runner_has_no_pool_and_close_is_noop(self):
        runner = Runner()
        runner.run(RunRequest("always-taken", REF_A))
        assert runner.pool is None
        runner.close()

    def test_runner_usable_after_close_rebuilds_pool(self):
        runner = Runner(RunnerConfig(workers=1), persistent=True)
        first = runner.run(RunRequest("gshare", REF_A))
        old_pool = runner.pool
        runner.close()
        second = runner.run(RunRequest("gshare", REF_A))
        assert runner.pool is not old_pool
        assert pickle.dumps(first) == pickle.dumps(second)
        runner.close()
