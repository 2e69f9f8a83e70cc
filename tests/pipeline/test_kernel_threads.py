"""Native kernel calls fanned out over ``max_workers`` threads.

``run_scheduled`` runs each native task as its own kernel call and
spreads the calls over ``max_workers`` threads, the driving thread among
them.  Thread count must never change results, a failing call must
surface as that task's error with every helper stopped, and spans opened
on helper threads must join the request's tree.
"""

from __future__ import annotations

import pickle
import sys
import threading

import pytest

from repro.backends import native
from repro.obs import MetricsRegistry, SpanRecorder, bind_trace_id, set_metrics, set_tracer
from repro.pipeline.config import PipelineConfig
from repro.pipeline.parallel import run_scheduled
from repro.pipeline.scenarios import UpdateScenario
from repro.predictors.registry import PredictorSpec
from repro.traces.refs import resolve_trace_ref
from repro.traces.sharding import plan_shards, shard_trace

CONFIG = PipelineConfig()
SCENARIOS = (UpdateScenario.IMMEDIATE, UpdateScenario.REREAD_ON_MISPREDICTION)


@pytest.fixture(scope="module")
def tasks():
    """16 native tasks: the TAGE family under [I] and [C], then gshare
    over four warmup shards of a second trace under both."""
    whole = resolve_trace_ref("hard:INT01?branches=3000&seed=11")[0]
    sharded = resolve_trace_ref("synthetic:mixed?length=4000&seed=5")[0]
    shards = [shard_trace(sharded, window) for window in plan_shards(len(sharded), 4, 300)]
    family = [(PredictorSpec(kind), whole, scenario, CONFIG)
              for kind in ("tage", "l-tage", "isl-tage", "tage-lsc") for scenario in SCENARIOS]
    gshare = [(PredictorSpec("gshare", {"log2_entries": 12}), shard, scenario, CONFIG)
              for shard in shards for scenario in SCENARIOS]
    return family + gshare


@pytest.fixture
def recorder():
    recorder = SpanRecorder(sample_rate=1.0)
    previous = set_tracer(recorder)
    yield recorder
    set_tracer(previous)


def spy(monkeypatch, before=None):
    """Wrap the native kernel call: ``before(spec, trace, scenario)`` runs
    first on the calling thread; returns the ``(thread id, trace name)`` log."""
    real, log, lock = native._simulate, [], threading.Lock()

    def wrapped(library, spec, entry, trace, scenario, config):
        with lock:
            log.append((threading.get_ident(), trace.name))
        if before is not None:
            before(spec, trace, scenario)
        return real(library, spec, entry, trace, scenario, config)

    monkeypatch.setattr(native, "_simulate", wrapped)
    return log


def test_results_match_across_thread_counts(tasks):
    outputs = {workers: [pickle.dumps(result) for result in run_scheduled(tasks, workers)]
               for workers in (1, 2, 4)}
    assert outputs[2] == outputs[1]
    assert outputs[4] == outputs[1]
    assert len(set(outputs[1])) == len(tasks)  # every task its own result


def test_more_threads_than_cores_lose_no_update(tasks, recorder):
    """Eight threads switching every microsecond: every result, histogram
    observation and span of the pass must still arrive."""
    serial = [pickle.dumps(result) for result in run_scheduled(tasks, max_workers=1)]
    recorder.drain()
    registry, interval = MetricsRegistry(), sys.getswitchinterval()
    previous = set_metrics(registry)
    sys.setswitchinterval(1e-6)
    try:
        with bind_trace_id("tr-kernel-stress"):
            results = run_scheduled(tasks, max_workers=8)
    finally:
        sys.setswitchinterval(interval)
        set_metrics(previous)
    assert [pickle.dumps(result) for result in results] == serial
    kernel_seconds = registry.histogram("repro_backend_kernel_seconds", "", ("backend",))
    assert kernel_seconds.count(backend="native") == len(tasks)
    names = [record["name"] for record in recorder.drain()]
    assert names.count("backend.kernel") == len(tasks)


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_failure_raises_the_first_failing_tasks_error(tasks, monkeypatch, workers):
    # Task 3 ([C]) comes after task 12 ([I]) in (scenario, config) group
    # order, but first in task order.
    failing = {3: "third", 12: "late"}
    labels = {(spec, id(trace), scenario): failing[index]
              for index, (spec, trace, scenario, _) in enumerate(tasks) if index in failing}

    def before(spec, trace, scenario):
        label = labels.get((spec, id(trace), scenario))
        if label is not None:
            raise RuntimeError(f"injected kernel failure ({label})")

    baseline = threading.active_count()
    spy(monkeypatch, before)
    with pytest.raises(RuntimeError, match=r"injected kernel failure \(third\)"):
        run_scheduled(tasks, max_workers=workers)
    assert threading.active_count() == baseline


def test_interrupt_on_the_driving_thread_wins_over_a_helper_error(tasks, monkeypatch):
    # The first two calls wait for each other, so each thread holds one;
    # the helper's fails, and the driving thread's is interrupted.
    barrier, main = threading.Barrier(2, timeout=30), threading.main_thread()

    def before(spec, trace, scenario):
        barrier.wait()
        if threading.current_thread() is main:
            raise KeyboardInterrupt
        raise RuntimeError("injected helper failure")

    baseline = threading.active_count()
    spy(monkeypatch, before)
    with pytest.raises(KeyboardInterrupt):
        run_scheduled(tasks, max_workers=2)
    assert threading.active_count() == baseline


def test_helper_spans_nest_under_sched_run(tasks, monkeypatch, recorder):
    # The first two calls wait for each other, so both threads run one.
    barrier, lock, started = threading.Barrier(2, timeout=30), threading.Lock(), []

    def before(spec, trace, scenario):
        with lock:
            started.append(trace.name)
            first_two = len(started) <= 2
        if first_two:
            barrier.wait()

    log = spy(monkeypatch, before)
    with bind_trace_id("tr-kernel-threads"):
        run_scheduled(tasks, max_workers=2)
    assert len({thread for thread, _ in log}) == 2
    spans = recorder.drain()
    (scheduled,) = [record for record in spans if record["name"] == "sched.run"]
    kernels = [record for record in spans if record["name"] == "backend.kernel"]
    assert len(kernels) == len(tasks)
    assert {record["parent_id"] for record in kernels} == {scheduled["span_id"]}
    assert {record["trace_id"] for record in kernels} == {"tr-kernel-threads"}


def test_one_worker_starts_no_thread(tasks, monkeypatch, recorder):
    starts = []
    real_start = threading.Thread.start

    def counting_start(thread):
        starts.append(thread.name)
        real_start(thread)

    log = spy(monkeypatch)
    monkeypatch.setattr(threading.Thread, "start", counting_start)
    with bind_trace_id("tr-one-worker"):
        run_scheduled(tasks, max_workers=1)
    assert starts == []
    assert {thread for thread, _ in log} == {threading.get_ident()}
    assert [name for _, name in log] == [trace.name for _, trace, _, _ in tasks]  # task order
    run_scheduled(tasks, max_workers=2)
    assert len(starts) == 1  # the spy sees the helper a second worker starts
