"""Span timers around the public entry points of each repro layer.

Only traced runs (``--trace 1``) install these wrappers, and they install
them before any worker pool forks, so pool children inherit them.  Every
timer records one span (name, start, duration, parent, run id) in memory;
nothing is written until the run ends.

Spans recorded in a pool child cannot reach this process's recorder
directly.  They go into the child's ``repro.obs`` span recorder, which the
pool already drains and ships home with every task result; the recorder
installed here with :func:`repro.obs.set_tracer` diverts them back out of
the program's own span stream, so the service's span store never sees
them.

The layers are the repro modules (see ``LAYERS``); a span's *self time*
is its duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import concurrent.futures
import functools
import multiprocessing.process
import pickle
import time
from collections import defaultdict

import repro.api
import repro.api.request
import repro.api.results
import repro.api.runner
import repro.distrib.worker
import repro.pipeline.parallel
import repro.service.core
import repro.traces
import repro.traces.refs
import repro.traces.sharding
from repro.api import Runner
from repro.backends import get_backend
from repro.backends.vector import twobit
from repro.distrib import FileBroker
from repro.obs import SpanRecorder, set_tracer
from repro.pipeline import SimulationEngine
from repro.pipeline.parallel import SuiteCache
from repro.predictors import PredictorSpec
from repro.service import SimulationService

from timer import MARK, Recorder, current_recorder, set_recorder, timed

#: Layer names, in table order; ``driver`` is the benchmark's own code.
LAYERS = ("traces", "cache", "ipc", "pool", "engine", "backends", "runner",
          "results", "service", "distrib", "driver")


class _DivertingRecorder(SpanRecorder):
    """The process span recorder, minus the spans this benchmark made."""

    def __init__(self, recorder: Recorder) -> None:
        super().__init__()
        self._bench = recorder

    def merge(self, spans) -> None:
        spans = list(spans or ())
        self._bench.absorb([record for record in spans if record["attrs"].get(MARK)])
        super().merge([record for record in spans if not record["attrs"].get(MARK)])


def _wrap(owners, attr: str, name: str, layer: str, annotate=None) -> None:
    """Replace ``attr`` on every owner holding the same original object."""
    original = getattr(owners[0], attr)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        with timed(name, layer) as attrs:
            result = original(*args, **kwargs)
            if annotate is not None:
                annotate(attrs, args, result)
            return result

    for owner in owners:
        if getattr(owner, attr, None) is original:
            setattr(owner, attr, wrapper)


def _count_branches(attrs, args, result) -> None:
    attrs["branches"] = sum(len(trace.records) for trace in result)


def _lookup_outcome(attrs, args, result) -> None:
    attrs["hit"] = result is not None


def _lease_outcome(attrs, args, result) -> None:
    attrs["empty"] = result is None


def _twobit_kind(attrs, args, result) -> None:
    # Kernel names read "gshare-64Kbits" / "bimodal-16384"; only the scan
    # stage (kernel, idx, taken, warmup) counts branches, once per lane.
    attrs["kind"] = args[0].name.split("-")[0]
    attrs["branches"] = len(args[2]) if len(args) > 2 else 0


#: id(predictor) -> registry kind, filled by the build timer (per process).
_KINDS: dict[int, str] = {}


def _note_kind(attrs, args, result) -> None:
    _KINDS[id(result)] = args[0].kind
    attrs["kind"] = args[0].kind


def _engine_run(attrs, args, result) -> None:
    engine, trace = args
    attrs["kind"] = _KINDS.get(id(engine.predictor), type(engine.predictor).__name__)
    attrs["scenario"] = engine.scenario.value
    attrs["branches"] = len(trace.records)


def _install_pool_submit(recorder: Recorder) -> None:
    """Time the bytes every pool task ships, and each task's turnaround."""
    original = concurrent.futures.ProcessPoolExecutor.submit

    @functools.wraps(original)
    def submit(self, fn, *args, **kwargs):
        if current_recorder() is not recorder:
            return original(self, fn, *args, **kwargs)  # outside the traced window
        task = args[0][0] if args and isinstance(args[0], tuple) and args[0] else None
        trace = task[1] if isinstance(task, tuple) and len(task) == 4 else None
        branches = len(trace.records) if hasattr(trace, "records") else 0
        with timed("ipc.pickle", "ipc", branches=branches) as attrs:
            blob = pickle.dumps(args, protocol=pickle.HIGHEST_PROTOCOL)
            attrs["bytes"] = len(blob)
        with timed("ipc.unpickle", "ipc"):
            pickle.loads(blob)
        start = time.perf_counter()
        future = original(self, fn, *args, **kwargs)
        future.add_done_callback(
            lambda _: recorder.task_turnaround.append(time.perf_counter() - start))
        return future

    concurrent.futures.ProcessPoolExecutor.submit = submit


def install(run_id: str) -> Recorder:
    """Wrap every layer's entry points; call once, before any pool starts."""
    recorder = Recorder(run_id)
    set_recorder(recorder)
    set_tracer(_DivertingRecorder(recorder))
    _wrap([repro.traces.refs, repro.api.runner, repro.api.request, repro.traces],
          "resolve_trace_ref", "traces.resolve", "traces", _count_branches)
    _wrap([repro.traces.sharding, repro.api.runner, repro.traces.refs, repro.traces],
          "shard_trace", "traces.shard", "traces")
    _wrap([repro.pipeline.parallel], "trace_fingerprint", "cache.fingerprint", "cache")
    _wrap([SuiteCache], "get", "cache.lookup", "cache", _lookup_outcome)
    _wrap([SuiteCache], "put", "cache.put", "cache")
    _wrap([repro.pipeline.parallel, repro.api.runner], "run_scheduled",
          "pool.schedule", "pool")
    _wrap([repro.pipeline.parallel], "wait", "pool.wait", "pool")
    _wrap([multiprocessing.process.BaseProcess], "start", "pool.spawn", "pool")
    _install_pool_submit(recorder)
    _wrap([SimulationEngine], "run", "engine.run", "engine", _engine_run)
    _wrap([PredictorSpec], "build", "engine.build", "engine", _note_kind)
    _wrap([type(get_backend("numpy"))], "run_tasks", "backends.numpy.run_tasks", "backends")
    _wrap([twobit], "index_stream", "backends.numpy.index", "backends", _twobit_kind)
    _wrap([twobit], "run_immediate", "backends.numpy.scan", "backends", _twobit_kind)
    _wrap([Runner], "run_batch", "runner.run_batch", "runner")
    _wrap([repro.api.results, repro.api, repro.service.core, repro.distrib.worker],
          "suite_payload", "results.render", "results")
    _wrap([SimulationService], "submit", "service.submit", "service")
    _wrap([FileBroker], "publish", "distrib.publish", "distrib")
    _wrap([FileBroker], "lease", "distrib.lease", "distrib", _lease_outcome)
    _wrap([FileBroker], "snapshot", "distrib.snapshot", "distrib")
    _wrap([FileBroker], "complete", "distrib.complete", "distrib",
          lambda attrs, args, result: recorder.completed_at.__setitem__(args[1], time.time()))
    return recorder


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------

def self_times(spans: list[dict]) -> dict[str, float]:
    """span_id -> duration minus the union of its children's intervals."""
    children: dict[str, list[tuple[float, float]]] = defaultdict(list)
    for record in spans:
        if record["parent_id"] is not None:
            children[record["parent_id"]].append(
                (record["start"], record["start"] + record["duration"]))
    result = {}
    for record in spans:
        start, end = record["start"], record["start"] + record["duration"]
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(record["span_id"], ())):
            child_start, child_end = max(child_start, cursor), min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                cursor = child_end
        result[record["span_id"]] = max(0.0, record["duration"] - covered)
    return result


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _rate(work: float, seconds: float) -> float:
    return work / seconds if seconds > 0 else 0.0


def layer_metrics(recorder: Recorder, documents: list[dict], refused: int,
                  observed_at: dict[str, float]) -> dict[str, float]:
    """Every per-layer metric; 0 where the workload never used the layer.

    ``documents`` are the job documents the service returned (for lane
    queue/exec times and retries); ``observed_at`` maps job id to the time
    the service reported the job terminal (for the broker observe lag).
    """
    spans = recorder.spans
    by_name: dict[str, list[dict]] = defaultdict(list)
    for record in spans:
        by_name[record["name"]].append(record)
    own = self_times(spans)

    def durations(name):
        return [record["duration"] for record in by_name[name]]

    metrics: dict[str, float] = {}
    resolves = by_name["traces.resolve"]
    resolved_branches = sum(record["attrs"]["branches"] for record in resolves)
    metrics["traces.resolve_s"] = _mean(durations("traces.resolve"))
    metrics["traces.branches"] = resolved_branches
    metrics["traces.resolve_branches_per_s"] = _rate(
        resolved_branches, sum(durations("traces.resolve")))
    metrics["traces.shard_s"] = _mean(durations("traces.shard"))

    lookups = by_name["cache.lookup"]
    metrics["cache.fingerprint_s"] = _mean(durations("cache.fingerprint"))
    metrics["cache.lookup_s"] = _mean(durations("cache.lookup"))
    metrics["cache.put_s"] = _mean(durations("cache.put"))
    metrics["cache.hit_ratio"] = _rate(
        sum(1 for record in lookups if record["attrs"]["hit"]), len(lookups))

    pickles = by_name["ipc.pickle"]
    metrics["ipc.pickle_s"] = _mean(durations("ipc.pickle"))
    metrics["ipc.unpickle_s"] = _mean(durations("ipc.unpickle"))
    metrics["ipc.bytes_per_branch"] = _rate(
        sum(record["attrs"]["bytes"] for record in pickles),
        sum(record["attrs"]["branches"] for record in pickles))

    metrics["pool.spawn_s"] = _mean(durations("pool.spawn"))
    metrics["pool.task_s"] = _mean(recorder.task_turnaround)
    schedules = len(by_name["pool.schedule"])
    metrics["pool.wait_s"] = _rate(sum(durations("pool.wait")), schedules)

    engine = defaultdict(lambda: [0, 0.0])
    for record in by_name["engine.run"]:
        key = (record["attrs"]["kind"], record["attrs"]["scenario"])
        engine[key][0] += record["attrs"]["branches"]
        engine[key][1] += record["duration"]
    for kind in ("tage", "isl-tage", "tage-lsc"):
        for scenario in ("I", "C"):
            branches, seconds = engine.get((kind, scenario), (0, 0.0))
            metrics[f"engine.branches_per_s.{kind}.{scenario}"] = _rate(branches, seconds)
    metrics["engine.build_s"] = _mean(durations("engine.build"))

    metrics["backends.numpy.kernel_s"] = _mean(durations("backends.numpy.run_tasks"))
    kernels = defaultdict(lambda: [0, 0.0])
    for name in ("backends.numpy.index", "backends.numpy.scan"):
        for record in by_name[name]:
            kernels[record["attrs"]["kind"]][0] += record["attrs"]["branches"]
            kernels[record["attrs"]["kind"]][1] += record["duration"]
    for kind in ("gshare", "bimodal"):
        branches, seconds = kernels.get(kind, (0, 0.0))
        metrics[f"backends.numpy.branches_per_s.{kind}"] = _rate(branches, seconds)

    metrics["runner.plan_self_s"] = _mean(
        own[record["span_id"]] for record in by_name["runner.run_batch"])
    metrics["results.render_s"] = _mean(durations("results.render"))

    metrics["service.submit_s"] = _mean(durations("service.submit"))
    for lane in ("interactive", "batch", "default"):
        lane_docs = [doc for doc in documents
                     if doc.get("lane") == lane and doc.get("started") and doc.get("finished")]
        metrics[f"service.queue_wait_s.{lane}"] = _mean(
            doc["started"] - doc["created"] for doc in lane_docs)
        metrics[f"service.exec_s.{lane}"] = _mean(
            doc["finished"] - doc["started"] for doc in lane_docs)
    metrics["service.refused"] = refused

    leases = by_name["distrib.lease"]
    metrics["distrib.publish_s"] = _mean(durations("distrib.publish"))
    metrics["distrib.lease_s"] = _mean(durations("distrib.lease"))
    metrics["distrib.complete_s"] = _mean(durations("distrib.complete"))
    metrics["distrib.lease_empty_ratio"] = _rate(
        sum(1 for record in leases if record["attrs"]["empty"]), len(leases))
    metrics["distrib.observe_lag_s"] = _mean(
        observed_at[job] - done for job, done in recorder.completed_at.items()
        if job in observed_at)
    metrics["distrib.retries"] = sum(
        max(0, (doc.get("attempts") or 1) - 1) for doc in documents
        if doc.get("lane") == "default")

    for layer in LAYERS:
        metrics[f"self_s.{layer}"] = sum(
            own[record["span_id"]] for record in spans if record["attrs"]["layer"] == layer)
    return metrics


def unit_of(name: str) -> str:
    """The unit of one per-layer metric, read off its name."""
    if "branches_per_s" in name:
        return "1/s"
    if name.endswith("_ratio"):
        return "ratio"
    if name == "ipc.bytes_per_branch":
        return "B/branch"
    if name.endswith("_s") or "_s." in name:
        return "s"
    return "count"


def self_time_table(recorder: Recorder, until: float) -> str:
    """Self time by layer and thread over the traced window.

    A thread does one thing at a time, so in each thread of this process
    the self times of its spans plus the untimed rest add up to the window
    (install to ``until``).  Pool children run alongside, in their own
    column; their time shows up in this process as ``pool.wait``.
    """
    window = until - recorder.opened
    own = self_times(recorder.spans)
    columns: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    children = set()
    for record in recorder.spans:
        if record["pid"] == recorder.pid:
            column = record["attrs"]["thread"]
        else:
            column = "pool children"
            children.add(record["pid"])
        columns[column][record["attrs"]["layer"]] += own[record["span_id"]]
    threads = sorted(name for name in columns if name != "pool children")
    names = threads + (["pool children"] if children else [])
    labels = [f"T{index}" for index in range(1, len(threads) + 1)] + (["P"] if children else [])
    lines = [f"self time (s) by layer over the {window:.3f} s traced window",
             f"{'layer':<10}" + "".join(f"{label:>9}" for label in labels)]
    for layer in LAYERS:
        if any(columns[name][layer] for name in names):
            lines.append(f"{layer:<10}" + "".join(f"{columns[name][layer]:>9.3f}"
                                                  for name in names))
    timed_s = [sum(columns[name].values()) for name in threads]
    lines.append(f"{'untimed':<10}" + "".join(f"{window - value:>9.3f}" for value in timed_s))
    lines.append(f"{'window':<10}" + "".join(f"{window:>9.3f}" for _ in threads))
    lines.extend(f"  {label} = thread {name} ({value / window:.1%} timed)"
                 for label, name, value in zip(labels, threads, timed_s))
    if children:
        lines.append(f"  P = {len(children)} pool child process(es), concurrent with the "
                     "threads above")
    return "\n".join(lines)


def timer_cost(recorder: Recorder) -> float:
    """Seconds the timers themselves added: per-span cost plus re-pickling.

    The ``ipc`` timers pickle every pool task a second time to measure it;
    that work exists only in traced runs.
    """
    probe = Recorder("calibration")
    previous = current_recorder()
    set_recorder(probe)
    try:
        start = time.perf_counter()
        for _ in range(2000):
            with timed("calibration", "driver"):
                pass
        per_span = (time.perf_counter() - start) / 2000
    finally:
        set_recorder(previous)
    repickling = sum(record["duration"] for record in recorder.spans
                     if record["name"] in ("ipc.pickle", "ipc.unpickle"))
    return len(recorder.spans) * per_span + repickling
