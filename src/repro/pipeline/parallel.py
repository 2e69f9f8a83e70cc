"""Simulation scheduling: native kernel threads, the process pool and the result cache.

A full experiment sweeps predictor configurations over dozens of traces;
each (predictor, trace) run is independent, so the work is
embarrassingly parallel.  :func:`run_scheduled` is the one scheduling
pass every :class:`~repro.api.runner.Runner` call goes through:

* workers receive a picklable
  :class:`~repro.predictors.registry.PredictorSpec` — never a live
  predictor — and build a fresh instance per task, so every run starts
  from the power-on state the predictor's constructor defines,
* results come back as plain :class:`~repro.pipeline.metrics.SimulationResult`
  values in task order, identical to the in-process path's,
* a task returns its timing next to its result and touches no metrics
  or spans, so the driving process records every task the same way,
  wherever it ran: one ``pool.task`` span and the two pool metrics,
* an opt-in on-disk cache keyed by (spec, trace, scenario, pipeline
  config) lets repeated sweeps skip traces they have already simulated;
  it also stores the per-reference trace manifests that let a
  :class:`~repro.api.runner.Runner` plan a request without generating.

``max_workers`` sizes both kinds of parallelism: native kernel calls
fan out over that many threads of the driving process (``ctypes``
releases the GIL), and interpreter tasks over that many pool processes.
With ``max_workers=1`` (or a single job) the pass runs serially in the
driving thread and starts no thread or process, which keeps it usable on
single-core boxes and inside already-parallel harnesses.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import pickle
import threading
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, BrokenExecutor, Future, ProcessPoolExecutor, wait
from contextvars import copy_context
from functools import partial
from typing import Callable

from repro.obs import (
    current_span,
    get_logger,
    get_metrics,
    get_tracer,
    log_event,
    make_span,
    new_span_id,
    span,
)
from repro.pipeline.config import PipelineConfig
from repro.pipeline.engine import SimulationEngine
from repro.pipeline.metrics import SimulationResult
from repro.pipeline.scenarios import UpdateScenario
from repro.predictors.registry import PredictorSpec
from repro.traces.refs import GENERATOR_VERSION
from repro.traces.trace import Trace, TraceHandle

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "SuiteCache",
    "WorkerPool",
    "run_scheduled",
    "trace_fingerprint",
]

#: Version token of the cached-result schema.  Bump whenever the pickled
#: :class:`SimulationResult` layout, the trace manifest layout or the
#: cache key recipe changes, so stale entries from older builds are never
#: served.
CACHE_SCHEMA_VERSION = 3

#: File suffixes of cache entries (results, trace manifests) the LRU bound covers.
_ENTRY_SUFFIXES = (".pkl", ".manifest")

_LOG = get_logger("pipeline")


def _cache_lookups():
    return get_metrics().counter(
        "repro_cache_lookups_total",
        "Result-cache lookups by outcome (hit/miss/corrupt).", ("outcome",))


def trace_fingerprint(trace: Trace | TraceHandle) -> str:
    """The trace part of a result-cache key.

    A trace resolved from a reference — and every shard cut from one, and
    every :class:`~repro.traces.trace.TraceHandle` — carries an
    ``identity`` derived from the generator version, canonical reference,
    name and window; it is returned as is, so keying never touches the
    trace's columns.  Any other trace (one built from columns in code, or
    read by :func:`~repro.traces.io.load_trace`) falls back to
    :meth:`~repro.traces.trace.Trace.content_digest`, a hash of its name
    and its ``pcs`` / ``taken`` / ``preceding`` columns computed once per
    object — two such traces with the same name but different content
    never share a cache entry.
    """
    return trace.identity or trace.content_digest()


class SuiteCache:
    """On-disk cache of per-(spec, trace, scenario, config) simulation results.

    One pickle file per result under ``directory``.  The key includes the
    trace's :func:`trace_fingerprint` — its reference identity, or a
    content digest — so regenerating a suite with different lengths or
    seeds never produces stale hits, and a
    ``cache_version`` label (see
    :attr:`~repro.api.config.RunnerConfig.cache_version`) that lets
    operators invalidate a shared cache directory wholesale without
    deleting it.

    With ``max_bytes`` set the cache is size-bounded: every :meth:`put`
    evicts least-recently-used entries (by mtime; :meth:`get` refreshes
    the mtime of served entries) until the directory fits, which is what
    makes a default-on shared cache safe.  :meth:`prune` runs the same
    eviction on demand.

    Next to the results (``<key>.pkl``) the cache keeps small trace
    manifests (``<key>.manifest``, see :meth:`get_manifest`), under the
    same LRU bound; :meth:`stats` counts results only.
    """

    def __init__(
        self, directory: str, cache_version: str = "", max_bytes: int | None = None
    ) -> None:
        if max_bytes is not None and max_bytes < 0:
            raise ValueError(f"max_bytes must be non-negative, got {max_bytes}")
        self.directory = directory
        self.cache_version = cache_version
        self.max_bytes = max_bytes
        os.makedirs(directory, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        # Running size estimate so bounded puts stay O(1): synced to the
        # real directory total by every prune() scan, bumped per write.
        self._approx_bytes: int | None = None

    def _path(self, key: str, suffix: str = ".pkl") -> str:
        return os.path.join(self.directory, f"{key}{suffix}")

    @staticmethod
    def key(
        spec: PredictorSpec,
        trace: Trace | TraceHandle,
        scenario: UpdateScenario,
        config: PipelineConfig,
        cache_version: str = "",
    ) -> str:
        """Stable cache key for one (spec, trace, scenario, config) run.

        The package version and the cache schema version are part of the
        key, so entries written by an older (possibly
        differently-behaving) build of the predictors, the engine or the
        cache itself are never served after an upgrade; ``cache_version``
        adds an operator-controlled label on top.
        """
        import repro

        raw = "|".join(
            (
                repro.__version__,
                f"schema{CACHE_SCHEMA_VERSION}",
                cache_version,
                spec.cache_key(),
                trace_fingerprint(trace),
                scenario.value,
                f"{config.retire_delay},{config.execute_delay},{config.misprediction_penalty}",
            )
        )
        return hashlib.sha256(raw.encode()).hexdigest()[:40]

    def key_for(
        self,
        spec: PredictorSpec,
        trace: Trace | TraceHandle,
        scenario: UpdateScenario,
        config: PipelineConfig,
    ) -> str:
        """Cache key under this cache's configured ``cache_version``."""
        return self.key(spec, trace, scenario, config, cache_version=self.cache_version)

    def stats(self) -> dict:
        """Entry count and on-disk footprint of the cache directory."""
        entries = 0
        total_bytes = 0
        try:
            names = os.listdir(self.directory)
        except OSError:
            names = []
        for name in names:
            if not name.endswith(".pkl"):
                continue
            entries += 1
            try:
                total_bytes += os.path.getsize(os.path.join(self.directory, name))
            except OSError:
                pass
        return {
            "directory": self.directory,
            "entries": entries,
            "bytes": total_bytes,
            "max_bytes": self.max_bytes,
            "hits": self.hits,
            "misses": self.misses,
        }

    def prune(self, max_bytes: int | None = None) -> dict:
        """Evict least-recently-used entries until the cache fits ``max_bytes``.

        ``max_bytes=None`` uses the cache's configured limit; with neither
        set this is a no-op.  Recency is the entry file's mtime, which
        :meth:`get` refreshes on every hit — so a hot entry survives
        pruning however old its first write was.  Returns a summary dict
        (``removed``, ``reclaimed_bytes``, ``remaining_bytes``).
        """
        limit = self.max_bytes if max_bytes is None else max_bytes
        entries: list[tuple[float, int, str]] = []
        total = 0
        try:
            names = os.listdir(self.directory)
        except OSError:
            names = []
        for name in names:
            if not name.endswith(_ENTRY_SUFFIXES):
                continue
            path = os.path.join(self.directory, name)
            try:
                info = os.stat(path)
            except OSError:
                continue
            entries.append((info.st_mtime, info.st_size, path))
            total += info.st_size
        removed = 0
        reclaimed = 0
        if limit is not None and total > limit:
            entries.sort()  # oldest mtime first
            for mtime, size, path in entries:
                if total <= limit:
                    break
                try:
                    os.remove(path)
                except OSError:
                    continue
                total -= size
                reclaimed += size
                removed += 1
        self.evictions += removed
        if removed:
            get_metrics().counter(
                "repro_cache_evictions_total",
                "Result-cache entries evicted by the LRU bound.").inc(removed)
        self._approx_bytes = total
        return {"removed": removed, "reclaimed_bytes": reclaimed, "remaining_bytes": total}

    def clear(self) -> int:
        """Delete every cached result; returns the number of entries removed.

        Trace manifests and orphaned ``.tmp.*`` files from interrupted
        writes are deleted too but not counted, keeping the number
        comparable with :meth:`stats`'s ``entries``.
        """
        removed = 0
        self._approx_bytes = None  # directory emptied; resync lazily
        try:
            names = os.listdir(self.directory)
        except OSError:
            return 0
        for name in names:
            is_entry = name.endswith(".pkl")
            if not (name.endswith(_ENTRY_SUFFIXES) or ".tmp." in name):
                continue
            try:
                os.remove(os.path.join(self.directory, name))
            except OSError:
                continue
            removed += int(is_entry)
        return removed

    def get(self, key: str) -> SimulationResult | None:
        """Return the cached result for ``key``, or None."""
        with span("cache.lookup") as lookup:
            path = self._path(key)
            if not os.path.exists(path):
                self.misses += 1
                _cache_lookups().inc(outcome="miss")
                lookup.set(outcome="miss")
                return None
            try:
                with open(path, "rb") as handle:
                    result = pickle.load(handle)
            except (OSError, pickle.PickleError, EOFError) as error:
                # A corrupt or half-written entry is a miss, but not a
                # silent one: the operator should know the cache is
                # shedding data.
                self.misses += 1
                _cache_lookups().inc(outcome="corrupt")
                lookup.set(outcome="corrupt")
                log_event(_LOG, logging.WARNING, "cache entry unreadable",
                          key=key, error=repr(error))
                return None
            try:
                os.utime(path)  # refresh recency so LRU keeps hot entries
            except OSError:
                pass
            self.hits += 1
            _cache_lookups().inc(outcome="hit")
            lookup.set(outcome="hit")
            return result

    def put(self, key: str, result: SimulationResult) -> None:
        """Store one result (atomic rename so readers never see partials).

        With a ``max_bytes`` limit configured, the write is followed by an
        LRU eviction pass keeping the directory within bounds.
        """
        self._write(self._path(key), pickle.dumps(result))

    def _write(self, path: str, blob: bytes) -> None:
        tmp = f"{path}.tmp.{os.getpid()}.{threading.get_ident()}"
        with open(tmp, "wb") as handle:
            handle.write(blob)
        os.replace(tmp, path)
        if self.max_bytes is None:
            return
        if self._approx_bytes is None:
            self.prune()  # first bounded write: one full scan seeds the estimate
            return
        self._approx_bytes += len(blob)
        if self._approx_bytes > self.max_bytes:
            self.prune()

    # -- trace manifests -------------------------------------------------

    def _manifest_path(self, ref: str) -> str:
        raw = "|".join(
            (
                "manifest",
                f"schema{CACHE_SCHEMA_VERSION}",
                f"generator{GENERATOR_VERSION}",
                self.cache_version,
                ref,
            )
        )
        return self._path(hashlib.sha256(raw.encode()).hexdigest()[:40], ".manifest")

    def get_manifest(self, ref: str) -> list[tuple[str, int]] | None:
        """The ``(name, length)`` of every trace ``ref`` resolves to, or None.

        ``ref`` is a canonical trace reference without a shard fragment.
        Manifests are keyed by :data:`~repro.traces.refs.GENERATOR_VERSION`
        plus the reference, so a generator change (and its version bump)
        never reads an old one.  A missing, unreadable or malformed
        manifest is ``None``: the caller resolves the reference instead.
        """
        path = self._manifest_path(ref)
        try:
            with open(path, "rb") as handle:
                document = json.loads(handle.read())
        except FileNotFoundError:
            return None
        except (OSError, ValueError) as error:
            log_event(
                _LOG, logging.WARNING, "trace manifest unreadable", ref=ref, error=repr(error)
            )
            return None
        traces = _manifest_traces(document, ref)
        if traces is None:
            log_event(_LOG, logging.WARNING, "trace manifest malformed", ref=ref)
            return None
        try:
            os.utime(path)  # refresh recency so LRU keeps hot manifests
        except OSError:
            pass
        return traces

    def put_manifest(self, ref: str, traces: list[tuple[str, int]]) -> None:
        """Store the ``(name, length)`` list of ``ref``'s traces (see :meth:`get_manifest`)."""
        document = {"ref": ref, "traces": [[name, length] for name, length in traces]}
        self._write(self._manifest_path(ref), json.dumps(document, sort_keys=True).encode())


def _manifest_traces(document, ref: str) -> list[tuple[str, int]] | None:
    """The trace list of a well-formed manifest for ``ref``, else None."""
    if not isinstance(document, dict) or document.get("ref") != ref:
        return None
    traces = document.get("traces")
    if not isinstance(traces, list) or not traces:
        return None
    for entry in traces:
        if not (isinstance(entry, list) and len(entry) == 2 and isinstance(entry[0], str)):
            return None
        if type(entry[1]) is not int or entry[1] <= 0:
            return None
    return [(name, length) for name, length in traces]


def _simulate_one(task: tuple) -> tuple[SimulationResult, float, float, int]:
    """Simulate one (spec, trace, scenario, config) run from a fresh predictor.

    The one task function, run in the driving process or on a pool
    worker alike.  It makes no :mod:`repro.obs` call: it returns the
    result with the task's wall-clock start, its duration in seconds and
    the pid of the process that ran it, and the scheduler records the
    task from those.  The predictor is built per task, so every trace
    starts from the power-on state its constructor defines.
    """
    spec, trace, scenario, config = task
    start, began = time.time(), time.perf_counter()
    result = SimulationEngine(spec.build(), scenario, config).run(trace)
    return result, start, time.perf_counter() - began, os.getpid()


def _run_here(task: tuple) -> Future:
    """:func:`_simulate_one` in this process, as an already finished future."""
    future: Future = Future()
    future.set_result(_simulate_one(task))
    return future


class WorkerPool:
    """A process pool that can outlive one scheduling pass.

    The only pool :func:`run_scheduled` submits to.  Passed in by the
    caller, it lives across batches, so repeated small batches do not
    pay process spawn — the warm path a long-running service needs.
    Without one, :func:`run_scheduled` runs the batch on a short-lived
    pool of its own.  Workers keep no predictors between tasks: each
    task builds its own.  Workers keep no metrics or spans either: a
    task returns its result and its timing, and the driving process
    records it.

    The pool is lazy (processes start on the first submit), reusable
    across batches, and a context manager.  ``batches`` /
    ``tasks_executed`` count the passes and tasks it has run.
    """

    def __init__(self, max_workers: int | None = None) -> None:
        if max_workers is not None and max_workers < 1:
            raise ValueError(f"max_workers must be at least 1, got {max_workers}")
        self.max_workers = max_workers if max_workers is not None else (os.cpu_count() or 1)
        self._executor: ProcessPoolExecutor | None = None
        self._closed = False
        self.batches = 0
        self.tasks_executed = 0

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def started(self) -> bool:
        """Whether worker processes currently exist."""
        return self._executor is not None

    def _ensure(self) -> ProcessPoolExecutor:
        if self._closed:
            raise RuntimeError("worker pool is closed")
        if self._executor is None:
            self._executor = ProcessPoolExecutor(max_workers=self.max_workers)
        return self._executor

    def submit_sim(self, task: tuple) -> Future:
        """Dispatch one flat simulation task to a worker.

        The future resolves to :func:`_simulate_one`'s ``(result, start,
        seconds, pid)``; the worker records nothing, and
        :func:`run_scheduled` records the task from those values.  It
        reports each finished pass through :meth:`record_batch`.
        """
        return self._ensure().submit(_simulate_one, task)

    def record_batch(self, executed: int) -> None:
        """Count one :meth:`submit_sim`-based batch of ``executed`` tasks."""
        self.batches += 1
        self.tasks_executed += executed

    def stats(self) -> dict:
        """Worker count, lifecycle state and batch/task counters."""
        return {
            "workers": self.max_workers,
            "started": self.started,
            "closed": self._closed,
            "batches": self.batches,
            "tasks_executed": self.tasks_executed,
        }

    def close(self, cancel: bool = False) -> None:
        """Shut the workers down (idempotent).

        ``cancel=True`` drops queued tasks; running tasks always finish
        so worker processes join cleanly.
        """
        executor, self._executor = self._executor, None
        self._closed = True
        if executor is not None:
            executor.shutdown(wait=True, cancel_futures=cancel)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close(cancel=exc_info[0] is not None)


def _fan_out(calls: list[Callable[[], SimulationResult]],
             max_threads: int) -> list[SimulationResult]:
    """Run zero-argument calls on ``min(max_threads, len(calls))`` threads.

    The calling thread takes calls too; with one thread (or at most one
    call) it runs them all in order and starts nothing.  Each helper runs in its own copy of the caller's
    context, so spans it opens nest under the caller's span and carry
    its trace id.  Results come back in call order.  Once a call raises,
    no thread starts another; after every helper has stopped, the first
    error in call order is raised.
    """
    if max_threads <= 1 or len(calls) <= 1:
        return [call() for call in calls]
    results: list = [None] * len(calls)
    errors: list[BaseException | None] = [None] * len(calls)
    pending = deque(range(len(calls)))  # popleft is thread-safe
    stop = threading.Event()

    def work(catch: type[BaseException]) -> None:
        while not stop.is_set():
            try:
                index = pending.popleft()
            except IndexError:
                return
            try:
                results[index] = calls[index]()
            except catch as error:  # re-raised below, on the calling thread
                errors[index] = error
                stop.set()

    # Helpers keep whatever a call raises; the calling thread keeps only
    # ordinary errors, so an interrupt there propagates at once.
    helpers = [threading.Thread(target=copy_context().run, args=(work, BaseException),
                                daemon=True, name=f"repro-kernel-{number}")
               for number in range(1, min(max_threads, len(calls)))]
    for helper in helpers:
        helper.start()
    try:
        work(Exception)
    finally:
        stop.set()  # an interrupt here must not leave helpers taking calls
        for helper in helpers:
            helper.join()
    for error in errors:
        if error is not None:
            raise error
    return results


def _route(pinned: bool, spec: PredictorSpec, scenario: UpdateScenario,
           config: PipelineConfig):
    """The routing rule: the kernel one task runs on, or None for the interpreter.

    A task pinned to ``interp`` runs on the reference engine,
    :class:`~repro.pipeline.engine.SimulationEngine`.  Every other task —
    a ``native`` or ``numpy`` selection means the same as none — runs on
    the ``native`` C kernel where the library loads and supports it, else
    on the ``numpy`` two-bit [I] scan where the scan supports it, else on
    the interpreter.  The engines are bit-identical, so the rule only
    decides speed, and the platform, not a selection, decides when the
    scan runs: on hosts where :file:`kernel.c` does not build.
    """
    from repro.backends import get_backend

    if pinned:
        return None
    for name in ("native", "numpy"):
        kernel = get_backend(name)
        if kernel.supports(spec, scenario, config):
            return kernel
    return None


def run_scheduled(
    tasks: list[tuple[PredictorSpec, Trace | TraceHandle, UpdateScenario, PipelineConfig]],
    max_workers: int | None = None,
    cache: SuiteCache | None = None,
    pool: WorkerPool | None = None,
    backend=None,
    materialize=None,
) -> list[SimulationResult]:
    """One scheduling pass over simulation tasks and backends.
    See :func:`_run_scheduled`; this wrapper owns the ``sched.run`` span
    so routing, cache probes, kernel calls and pool dispatch all nest
    under one node of the request's trace tree.
    """
    with span("sched.run", tasks=len(tasks)):
        return _run_scheduled(tasks, max_workers, cache, pool, backend, materialize)


def _run_scheduled(
    tasks: list[tuple[PredictorSpec, Trace | TraceHandle, UpdateScenario, PipelineConfig]],
    max_workers: int | None = None,
    cache: SuiteCache | None = None,
    pool: WorkerPool | None = None,
    backend=None,
    materialize=None,
) -> list[SimulationResult]:
    """One scheduling pass over simulation tasks and backends.

    (spec, trace, scenario, config) tasks are deduplicated — tasks
    with the same spec, trace (the same object, or the same identity),
    scenario and config are simulated once and share their result — and,
    with ``cache`` set, served from it when already simulated; fresh
    results are written back.  The survivors are routed by ``backend``
    (see :func:`_route`):

    * tasks routed to a kernel run in the driving process
      (:mod:`repro.backends`) while any pool futures for the rest are
      already in flight.  Each native task is **one kernel call**, and
      the calls fan out over ``min(max_workers, tasks)`` threads, the
      driving thread among them (see :func:`_fan_out`); every plan is
      resolved on the driving thread first, and with one worker no
      thread starts.  The two-bit scan runs **one call per (scenario,
      config) group** on the driving thread;
    * tasks routed to the interpreter run on the worker pool.

    With ``pool`` set, the pool work runs on that persistent
    :class:`WorkerPool`, whatever ``max_workers`` says.  Otherwise a
    short-lived pool of ``min(max_workers, jobs)`` workers runs it, or —
    with one worker or at most one job — this process does.
    ``max_workers=None`` means ``os.cpu_count()``.  Returns the results
    in task order.  A failing kernel call raises the first error in task
    order once every kernel thread has stopped.

    ``backend`` is a name from :data:`~repro.backends.BACKENDS`, ``None``
    (the default route), or a per-task sequence of those (the
    :class:`~repro.api.runner.Runner` resolves selection per request,
    and its config and requests validate the names); all that matters
    here is whether a task is pinned to ``interp``.

    With ``materialize`` set, tasks carry trace handles
    (:class:`~repro.traces.trace.TraceHandle`) instead of traces: cache
    keys and deduplication only need a handle's identity, and
    ``materialize(handle) -> Trace`` is called for the tasks that miss
    the cache — so a fully cached pass never builds a trace.
    """
    if not tasks:
        return []
    slots: list[SimulationResult | None] = [None] * len(tasks)
    keys: dict[int, str] = {}
    unique_tasks: list[tuple] = []
    unique_positions: list[list[int]] = []
    index_of: dict[tuple, int] = {}
    for position, task in enumerate(tasks):
        spec, trace, scenario, config = task
        if cache is not None:
            key = cache.key_for(spec, trace, scenario, config)
            keys[position] = key
            cached = cache.get(key)
            if cached is not None:
                slots[position] = cached
                continue
        group_key = (spec, trace.identity or id(trace), scenario, config)
        index = index_of.get(group_key)
        if index is None:
            index = index_of[group_key] = len(unique_tasks)
            unique_tasks.append(task)
            unique_positions.append([])
        unique_positions[index].append(position)

    if materialize is not None:
        unique_tasks = [
            (spec, materialize(trace), scenario, config)
            for spec, trace, scenario, config in unique_tasks
        ]

    selections = (
        list(backend) if isinstance(backend, (list, tuple)) else [backend] * len(tasks)
    )
    if len(selections) != len(tasks):
        raise ValueError(
            f"per-task backend list has {len(selections)} entries for {len(tasks)} tasks"
        )

    # Route unique tasks: batched kernel groups vs the interp pool path.
    interp_indices: list[int] = []
    kernel_groups: dict[tuple, list[int]] = {}
    kernel_backends: dict[tuple, object] = {}
    for index, task in enumerate(unique_tasks):
        spec, trace, scenario, config = task
        pinned = selections[unique_positions[index][0]] == "interp"
        chosen = _route(pinned, spec, scenario, config)
        if chosen is not None:
            # One group per (backend, scenario, config), whatever traces
            # it spans: one kernel call, or native calls to fan out.
            batch_key = (chosen.name, scenario, config)
            kernel_groups.setdefault(batch_key, []).append(index)
            kernel_backends[batch_key] = chosen
        else:
            interp_indices.append(index)

    fresh: dict[int, SimulationResult] = {}
    registry = get_metrics()
    route_counter = registry.counter(
        "repro_sched_tasks_total",
        "Unique scheduled tasks by execution route.", ("route",))
    if kernel_groups:
        route_counter.inc(
            sum(len(indices) for indices in kernel_groups.values()),
            route="kernel")
    if interp_indices:
        route_counter.inc(len(interp_indices), route="interp")
    kernel_seconds = registry.histogram(
        "repro_backend_kernel_seconds",
        "Wall time of one backend kernel call; calls on parallel threads overlap.",
        ("backend",))

    limit = max_workers if max_workers is not None else (os.cpu_count() or 1)

    def run_kernel_groups() -> None:
        native_calls: list[tuple[int, Callable[[], SimulationResult]]] = []
        for batch_key, indices in kernel_groups.items():
            chosen = kernel_backends[batch_key]
            pairs = [(unique_tasks[index][0], unique_tasks[index][1]) for index in indices]
            _, _, scenario, config = unique_tasks[indices[0]]
            if chosen.name == "native":
                # Plans resolve here, on the driving thread; the calls run below.
                native_calls += zip(indices, chosen.bind(pairs, scenario, config))
                continue
            with kernel_seconds.time(backend=chosen.name), span(
                    "backend.kernel", backend=chosen.name, tasks=len(indices)):
                outcomes = chosen.run_tasks(pairs, scenario, config)
            for index, result in zip(indices, outcomes):
                fresh[index] = result

        native_calls.sort(key=lambda pair: pair[0])  # task order, across groups

        def timed(call: Callable[[], SimulationResult]) -> SimulationResult:
            with kernel_seconds.time(backend="native"), span(
                    "backend.kernel", backend="native", tasks=1):
                return call()

        outcomes = _fan_out([partial(timed, call) for _, call in native_calls], limit)
        for (index, _), result in zip(native_calls, outcomes):
            fresh[index] = result

    interp_tasks = [unique_tasks[index] for index in interp_indices]
    scheduled = current_span()  # this pass's sched.run, every pool.task's parent
    task_count = registry.counter(
        "repro_pool_tasks_total",
        "Simulation tasks executed by pool workers (or serially).", ("kind",))
    task_seconds = registry.histogram(
        "repro_pool_task_seconds",
        "Wall time of one simulation task on its worker.", ("kind",))

    def drive(pool: WorkerPool | None) -> None:
        """Start the interp tasks, run the kernels meanwhile, collect.

        The tasks run on ``pool``, or in this process when it is None.
        Either way each finished task is recorded here, in task order as
        it completes: one ``pool.task`` span under ``sched.run`` with
        the worker's pid, start and duration, and the two pool metrics.
        A task that raises is not recorded.  An ordinary task exception
        (e.g. a predictor factory rejecting its config) leaves the pool
        intact; a dead executor or an interrupt closes it without
        orphaning workers: queued tasks are dropped, running ones finish.
        """
        submit = _run_here if pool is None else pool.submit_sim
        try:
            pending = {submit(task): index for index, task in zip(interp_indices, interp_tasks)}
            # The batched kernels crunch in this process while the workers
            # chew on the interp tasks just submitted.
            run_kernel_groups()
            while pending:
                wait(pending, return_when=FIRST_COMPLETED)
                for future in [future for future in pending if future.done()]:
                    index = pending.pop(future)
                    result, start, seconds, pid = future.result()
                    task_count.inc(kind="sim")
                    task_seconds.observe(seconds, kind="sim")
                    if scheduled.span_id is not None:
                        get_tracer().record(make_span(
                            scheduled.trace_id, new_span_id(), scheduled.span_id, "pool.task",
                            start, seconds, pid=pid,
                            attrs={"kind": "sim", "trace": unique_tasks[index][1].name}))
                    fresh[index] = result
        except (BrokenExecutor, KeyboardInterrupt, SystemExit):
            if pool is not None:
                pool.close(cancel=True)
            raise
        if pool is not None and interp_tasks:
            pool.record_batch(len(interp_tasks))

    if pool is None and limit > 1 and len(interp_tasks) > 1:
        # No persistent pool: one for this pass, closed (cancelling
        # queued work on any error) when it ends.
        with WorkerPool(max_workers=min(limit, len(interp_tasks))) as batch_pool:
            drive(batch_pool)
    else:
        drive(pool)

    for index, positions in enumerate(unique_positions):
        result = fresh[index]
        for position in positions:
            slots[position] = result
        if cache is not None:
            cache.put(keys[positions[0]], result)

    assert all(result is not None for result in slots)
    return slots  # type: ignore[return-value]
