"""The service core: bounded job admission in front of brokered lanes.

:class:`SimulationService` is transport-agnostic — the HTTP app, the
tests and the benchmarks all drive this same object:

* :meth:`~SimulationService.submit` validates a job and publishes it to
  its lane's :class:`~repro.distrib.broker.Broker` (raising
  :class:`QueueFullError` when the bounded queue is at capacity —
  callers map that to HTTP 503 — and
  :class:`~repro.service.quota.RateLimitedError` when the submitting
  client is over its quota — HTTP 429),
* a watcher thread follows every published job through its broker —
  leased (the job shows ``running`` with its worker id and attempt
  count), done (results arrive from the worker), dead-lettered (the job
  fails with the broker's last error) — and reaps expired leases, so
  progress survives a worker dying,
* terminal job documents move into the pluggable result store;
  :meth:`~SimulationService.job` serves live and stored jobs through one
  lookup,
* :meth:`~SimulationService.stats` reports queue depth, job counters,
  per-lane utilization, pool batch/task counters and result-cache hit
  rates — the numbers an operator needs to size the pool.

**Where jobs run.**  With no ``broker`` (plain ``repro serve``) each
lane gets an in-process :class:`~repro.distrib.memory.MemoryBroker`
drained by one in-thread :class:`~repro.distrib.worker.FleetWorker` on
that lane's runner, in persistent mode, so every job after the first
finds its worker processes already started.  Local jobs publish with one attempt: a
failing job fails at once.  The in-process broker wakes the worker and
the watcher on every state change, so nothing on this path polls.  With
``broker=...`` (``repro serve --broker``) every lane publishes to that
broker, no worker starts in-process, and however many ``repro worker``
processes lease the jobs run them concurrently.  Results are
byte-identical either way: every job is one
:meth:`~repro.api.runner.Runner.run_batch` call on a worker.

**Priority lanes** (``small_job_branches=...``): jobs whose estimated
branch count (:func:`~repro.service.protocol.estimate_branches`) is at
or under the threshold route to an ``interactive`` lane with its own
broker, worker and runner, so a fig10-sized batch grinding in the
``batch`` lane cannot head-of-line-block a quick interactive
simulation.  With lanes off (the default) a single ``default`` lane
preserves the strict global FIFO the tests rely on.  A local lane runs
one job at a time (the parallelism lives in the worker pool, not in
concurrent batches), which keeps results deterministic however many
clients submit concurrently.

**Graceful drain** (:meth:`~SimulationService.drain`): stop accepting,
stop the in-process workers leasing, let running jobs finish, persist
still-queued jobs to the store as ``status: "queued"`` marker documents,
then release resources.  A restarted service calls
:meth:`~SimulationService.recover` to re-adopt them.
"""

from __future__ import annotations

import logging
import threading
import time
from typing import Any, Callable, Sequence

from repro.api.request import RunRequest
from repro.api.runner import Runner
from repro.distrib import Broker, FleetWorker, MemoryBroker
from repro.obs import (
    SpanStore,
    ensure_trace_id,
    get_logger,
    get_metrics,
    get_tracer,
    log_event,
    make_span,
    new_span_id,
)
from repro.service.protocol import Job, JobStatus, estimate_branches, parse_submission
from repro.service.quota import ClientQuota
from repro.service.store import MemoryResultStore, ResultStore

_LOG = get_logger("service")


def _job_counter():
    return get_metrics().counter(
        "repro_service_jobs_total",
        "Jobs that reached a terminal state, by status.", ("status",))


def _lane_counter():
    return get_metrics().counter(
        "repro_service_lane_jobs_total",
        "Jobs dispatched, by lane.", ("lane",))


def _obs_errors():
    return get_metrics().counter(
        "repro_obs_errors_total",
        "Exceptions swallowed by background threads, by component.",
        ("component",))

__all__ = [
    "CancelConflictError",
    "DEFAULT_QUEUE_SIZE",
    "DEFAULT_SMALL_JOB_BRANCHES",
    "QueueFullError",
    "ServiceClosedError",
    "SimulationService",
    "UnknownJobError",
]

DEFAULT_QUEUE_SIZE = 64
#: Bound of the default in-memory result store.
DEFAULT_STORE_ENTRIES = 4096

#: Default interactive-lane threshold for ``repro serve --lanes``: a
#: gshare run over a 200k-branch synthetic trace takes about 0.3 s end to
#: end (trace generation; the native kernel itself takes under 10 ms),
#: while fig10-sized batches are ~2M branches — an order of magnitude
#: above the cut.
DEFAULT_SMALL_JOB_BRANCHES = 200_000

#: How often the watcher polls published jobs, seconds (an in-process
#: broker wakes it sooner on every state change).
DEFAULT_BROKER_POLL_SECONDS = 0.05


class QueueFullError(RuntimeError):
    """The bounded job queue is at capacity (maps to HTTP 503)."""


class UnknownJobError(KeyError):
    """No live or stored job has the requested id (maps to HTTP 404)."""


class CancelConflictError(RuntimeError):
    """The job exists but is not cancellable (maps to HTTP 409).

    Only *queued* jobs cancel: a running batch is already executing on
    the worker pool and a terminal job has nothing left to cancel.
    """


class ServiceClosedError(RuntimeError):
    """The service no longer accepts submissions (closed or draining)."""


class _Lane:
    """One dispatch lane: its broker and, in local mode, the in-process
    worker (and its thread) that drains it."""

    def __init__(self, name: str, broker: Broker, worker: FleetWorker | None) -> None:
        self.name = name
        self.broker = broker
        self.worker = worker
        #: Attempt budget of the lane's jobs; ``None`` keeps the broker's.
        self.max_attempts = None if worker is None else 1
        self.thread: threading.Thread | None = None
        self.executed = 0
        self.busy_seconds = 0.0


class SimulationService:
    """Admission + brokered lanes + warm runners + result store, as one object.

    Parameters
    ----------
    runner:
        The :class:`Runner` of the ``batch``/``default`` lane's
        in-process worker; defaults to an env-configured runner in
        persistent mode.  The service owns the runner it is given and
        closes it on :meth:`close`.
    store:
        Terminal job documents; defaults to a :class:`MemoryResultStore`
        bounded to :data:`DEFAULT_STORE_ENTRIES` documents (oldest
        dropped), so a long-running default service cannot grow without
        bound.  Pass an unbounded or disk-backed store explicitly to
        keep more.
    queue_size:
        Bound of the pending-job queue across all lanes (back-pressure,
        not buffering: a full queue rejects rather than grows).
    broker:
        A :class:`~repro.distrib.broker.Broker` every lane publishes to,
        for a fleet of ``repro worker`` processes to execute (see the
        module docstring).  The service owns the broker it is given and
        closes it on :meth:`close`.  No worker starts in-process, and no
        runner is created unless one is passed explicitly.
    broker_poll:
        Watcher poll interval, seconds.
    small_job_branches:
        Enables priority lanes: submissions estimated at or under this
        many simulated branches route to the ``interactive`` lane,
        larger ones to ``batch``.  ``None`` (default) keeps the single
        ``default`` lane.
    interactive_runner:
        The interactive lane's runner; defaults to a second
        env-configured persistent runner when lanes are enabled in
        local mode.  Also owned and closed by the service.
    quota:
        A :class:`~repro.service.quota.ClientQuota` enforcing per-client
        rate limits and live-job caps at :meth:`submit`; ``None``
        disables quota checks.
    """

    def __init__(
        self,
        runner: Runner | None = None,
        store: ResultStore | None = None,
        queue_size: int = DEFAULT_QUEUE_SIZE,
        broker=None,
        broker_poll: float = DEFAULT_BROKER_POLL_SECONDS,
        small_job_branches: int | None = None,
        interactive_runner: Runner | None = None,
        quota: ClientQuota | None = None,
    ) -> None:
        if queue_size < 1:
            raise ValueError(f"queue_size must be at least 1, got {queue_size}")
        if small_job_branches is not None and small_job_branches < 1:
            raise ValueError(
                f"small_job_branches must be at least 1, got {small_job_branches}"
            )
        self.broker = broker
        self.broker_poll = broker_poll
        if runner is None and broker is None:
            runner = Runner.from_env(persistent=True)
        self.runner = runner
        self.store = (
            store if store is not None else MemoryResultStore(max_entries=DEFAULT_STORE_ENTRIES)
        )
        self.queue_size = queue_size
        self.quota = quota
        self.small_job_branches = small_job_branches
        if small_job_branches is None:
            self.interactive_runner = None
            self._lanes = {"default": self._lane("default", self.runner)}
        else:
            if interactive_runner is None and broker is None:
                interactive_runner = Runner.from_env(persistent=True)
            self.interactive_runner = interactive_runner
            self._lanes = {
                "interactive": self._lane("interactive", interactive_runner),
                "batch": self._lane("batch", self.runner),
            }
        self._live: dict[str, Job] = {}
        #: Completed span trees, per trace id (``GET /v2/traces/{id}``).
        self.spans = SpanStore()
        self._lock = threading.Lock()
        self._watcher: threading.Thread | None = None
        #: Set by :meth:`close` and by every in-process broker change.
        self._wake = threading.Event()
        for lane_broker in self._brokers():
            lane_broker.listen(self._wake)
        self._closed = False
        self._draining = False
        self._started_at = time.time()
        self.submitted = 0
        self.completed = 0
        self.failed = 0
        self.cancelled = 0
        self.recovered = 0

    def _lane(self, name: str, runner: Runner | None) -> _Lane:
        if self.broker is not None:
            return _Lane(name, self.broker, None)
        broker = MemoryBroker()
        return _Lane(name, broker, FleetWorker(broker, runner=runner, worker_id=f"local-{name}"))

    def _brokers(self) -> list[Broker]:
        """The distinct brokers behind the lanes."""
        return list({id(lane.broker): lane.broker for lane in self._lanes.values()}.values())

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> "SimulationService":
        """Start the watcher and the in-process workers."""
        if self._closed:
            raise ServiceClosedError("service is closed")
        if self._watcher is None:
            self._watcher = threading.Thread(
                target=self._watch, name="repro-service-watcher", daemon=True
            )
            self._watcher.start()
        for lane in self._lanes.values():
            if lane.worker is not None and lane.thread is None:
                lane.thread = threading.Thread(
                    target=lane.worker.run, name=f"repro-service-worker-{lane.name}",
                    daemon=True,
                )
                lane.thread.start()
        return self

    def close(self, timeout: float | None = 30.0) -> None:
        """Stop accepting jobs, finish in-flight work, release resources.

        Already-queued jobs still execute; new submissions are rejected.
        ``close`` itself never blocks on the queue — it signals a stop
        event and waits up to ``timeout`` for the watcher to see every
        published job through (the graceful-drain contract: leases are
        completed, not abandoned).  Then the in-process workers stop.
        One that outlives the timeout (a long job mid-flight) closes its
        runner itself on exit, so worker processes are never leaked
        either way.  Idempotent.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._wake.set()
        deadline = None if timeout is None else time.time() + timeout
        self._join(self._watcher, deadline)
        self._stop_workers(deadline)
        running = [lane.worker.runner for lane in self._lanes.values()
                   if lane.thread is not None and lane.thread.is_alive()]
        for runner in (self.runner, self.interactive_runner):
            if runner is not None and all(runner is not busy for busy in running):
                runner.close()
        if self._watcher is None or not self._watcher.is_alive():
            for broker in self._brokers():
                broker.close()

    @staticmethod
    def _join(thread: threading.Thread | None, deadline: float | None) -> None:
        if thread is not None:
            thread.join(None if deadline is None else max(deadline - time.time(), 0.0))

    def _stop_workers(self, deadline: float | None) -> None:
        """Stop the in-process workers leasing; wait for their last jobs."""
        for lane in self._lanes.values():
            if lane.worker is not None:
                lane.worker.request_stop()
        for lane in self._lanes.values():
            self._join(lane.thread, deadline)

    def __enter__(self) -> "SimulationService":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Graceful drain and recovery
    # ------------------------------------------------------------------

    @property
    def draining(self) -> bool:
        return self._draining

    def begin_drain(self) -> None:
        """Stop accepting submissions; running jobs keep executing."""
        with self._lock:
            self._draining = True

    def drain(self, timeout: float | None = 30.0) -> int:
        """Gracefully wind down; returns the number of jobs parked.

        Stops accepting and stops the in-process workers leasing (their
        running jobs finish), then *parks* every job still pending with
        its broker: persists its ``status: "queued"`` document to the
        store, so :meth:`recover` on the next process re-adopts it, and
        stops following it.  With a shared broker the fleet keeps the
        job and may run it meanwhile; the restarted front end picks up
        its outcome.  Then closes, and parks whatever outlived the
        ``timeout`` the same way.
        """
        self.begin_drain()
        deadline = None if timeout is None else time.time() + timeout
        self._stop_workers(deadline)
        with self._lock:
            queued = [job for job in self._live.values() if job.status is JobStatus.QUEUED]
        parked = 0
        for job in queued:
            try:
                if self._lanes[job.lane].broker.snapshot(job.id)["state"] != "pending":
                    continue  # ran meanwhile: the watcher settles it
            except Exception:  # noqa: BLE001 - unreadable broker: park, recover re-checks
                pass
            with self._lock:
                if job.status is not JobStatus.QUEUED or self._live.pop(job.id, None) is None:
                    continue
            # put_new: never clobber a result another front end already
            # finalized.
            self.store.put_new(job.id, job.to_dict())
            log_event(_LOG, logging.INFO, "job parked for restart",
                      trace_id=job.trace_id, job=job.id)
            job.mark_done()
            parked += 1
        self.close(timeout=None if deadline is None else max(deadline - time.time(), 0.0))
        # A job still running when the timeout lapsed gets a marker too;
        # its result replaces the marker if it lands (see _settle).
        with self._lock:
            leftover = list(self._live.values())
        for job in leftover:
            if self.store.put_new(job.id, {**job.to_dict(), "status": "queued"}):
                parked += 1
        if parked:
            log_event(_LOG, logging.INFO, "drain parked queued jobs", parked=parked)
        return parked

    def recover(self) -> int:
        """Re-adopt jobs a drained predecessor parked in the store.

        Scans the store for ``status == "queued"`` documents and follows
        each again, publishing it anew when its broker no longer knows
        the job.  Returns the number adopted.  Recovered jobs bypass the
        queue bound — they were admitted once already.
        """
        adopted = 0
        for document in self.store.documents():
            if document.get("status") != "queued":
                continue
            try:
                requests = [RunRequest.from_dict(entry) for entry in document["requests"]]
                job = Job(
                    requests=requests,
                    batch=bool(document.get("batch", True)),
                    id=document["id"],
                    created=float(document.get("created") or time.time()),
                    trace_id=ensure_trace_id(document.get("trace_id")),
                )
            except Exception as error:  # noqa: BLE001 - a corrupt marker must not block startup
                log_event(_LOG, logging.WARNING, "unrecoverable parked job",
                          job=document.get("id"), error=repr(error))
                continue
            job.lane = self._classify(job.requests)
            try:
                self._lanes[job.lane].broker.snapshot(job.id)
                known = True  # the fleet still owns it
            except Exception:  # noqa: BLE001 - unknown to the broker, or unreadable: publish again
                known = False
            with self._lock:
                if self._closed or self._draining:
                    break
                if job.id in self._live:
                    continue
                self._live[job.id] = job
                self.submitted += 1
                self.recovered += 1
                published = known or self._publish(job)
            if not published:
                self._settle(job, JobStatus.FAILED)
            log_event(_LOG, logging.INFO, "parked job recovered",
                      trace_id=job.trace_id, job=job.id, lane=job.lane)
            adopted += 1
        return adopted

    # ------------------------------------------------------------------
    # Submission and lookup
    # ------------------------------------------------------------------

    def _classify(self, requests: Sequence[RunRequest]) -> str:
        if self.small_job_branches is None:
            return "default"
        try:
            branches = estimate_branches(requests)
        except Exception:  # noqa: BLE001 - unknown scheme params: assume big
            return "batch"
        return "interactive" if branches <= self.small_job_branches else "batch"

    def submit(self, requests: Sequence[RunRequest], batch: bool = True,
               trace_id: str | None = None, client: str | None = None) -> Job:
        """Publish already-validated requests as one job.

        ``trace_id`` adopts a caller-minted id (the ``X-Trace-Id``
        header / ``--trace-id`` flag); invalid or absent ids are
        replaced by a fresh one, never rejected.  ``client`` is the
        authenticated client identity quota accounting keys on; the
        quota (when configured) may raise
        :class:`~repro.service.quota.RateLimitedError`.  A job its
        broker refuses is returned already failed.
        """
        job = Job(requests=list(requests), batch=batch,
                  trace_id=ensure_trace_id(trace_id))
        if not job.requests:
            raise ValueError("a job needs at least one request")
        job.client = client
        job.lane = self._classify(job.requests)
        # The trace tree's root is minted at admission so every later
        # span — lane queue, broker ticket, worker execution — parents
        # under one id.  None = the trace lost the sampling draw.
        if get_tracer().sampled(job.trace_id):
            job.root_span = new_span_id()
        with self._lock:
            if self._closed or self._draining:
                raise ServiceClosedError(
                    "service is draining" if self._draining else "service is closed"
                )
            depth = sum(
                1 for live in self._live.values() if live.status is JobStatus.QUEUED
            )
            if depth >= self.queue_size:
                raise QueueFullError(
                    f"job queue is full ({depth} pending jobs); retry later"
                )
            if self.quota is not None and self.quota.policy.enforced:
                live_jobs = sum(
                    1 for live in self._live.values() if live.client == client
                )
                # Raises RateLimitedError; nothing published, no state to
                # unwind (the quota lock nests inside the service lock).
                self.quota.admit(client or "anonymous", live_jobs)
            self._live[job.id] = job
            self.submitted += 1
            depth += 1
            # Under the lock, so every live job is published: cancel and
            # the watcher never meet a job its broker has not seen.
            published = self._publish(job)
        registry = get_metrics()
        registry.counter(
            "repro_service_submitted_total", "Jobs accepted into the queue.").inc()
        registry.gauge(
            "repro_service_queue_depth",
            "Jobs currently queued (bounded by queue capacity).").set(depth)
        _lane_counter().inc(lane=job.lane)
        log_event(_LOG, logging.INFO, "job queued",
                  trace_id=job.trace_id, job=job.id, lane=job.lane,
                  client=client, requests=len(job.requests), queue_depth=depth)
        if not published:
            self._settle(job, JobStatus.FAILED)
        return job

    def _publish(self, job: Job) -> bool:
        """Hand ``job`` to its lane's broker; on failure record the error."""
        lane = self._lanes[job.lane]
        payload = {
            "requests": [request.to_dict() for request in job.requests],
            "batch": job.batch,
            "trace_id": job.trace_id,
        }
        if job.root_span is not None:
            # The executing worker adopts this context, so its spans
            # parent under the front end's request root.
            payload["span"] = {"trace_id": job.trace_id,
                               "span_id": job.root_span, "sampled": True}
        try:
            lane.broker.publish(job.id, payload, max_attempts=lane.max_attempts)
        except Exception as error:  # noqa: BLE001 - broker faults must not kill the service
            message = str(error.args[0]) if error.args else str(error)
            job.error = f"{type(error).__name__}: {message}"
            job.finished = time.time()
            log_event(_LOG, logging.ERROR, "publish failed",
                      trace_id=job.trace_id, job=job.id, error=job.error)
            return False
        log_event(_LOG, logging.INFO, "job published",
                  trace_id=job.trace_id, job=job.id)
        return True

    def submit_payload(self, payload: Any, trace_id: str | None = None,
                       client: str | None = None) -> Job:
        """Parse a wire submission (object or list) and publish it."""
        requests, batch = parse_submission(payload)
        return self.submit(requests, batch=batch, trace_id=trace_id, client=client)

    def job(self, job_id: str) -> dict[str, Any]:
        """The job document, live or stored; raises :class:`UnknownJobError`."""
        with self._lock:
            live = self._live.get(job_id)
            if live is not None:
                return live.to_dict()
        document = self.store.get(job_id)
        if document is None:
            raise UnknownJobError(job_id)
        return document

    def documents(self) -> list[dict[str, Any]]:
        """Every known job document, live jobs shadowing stored copies.

        The ``/v2/runs`` listing sorts and paginates this snapshot.
        """
        with self._lock:
            merged = {job.id: job.to_dict() for job in self._live.values()}
        for document in self.store.documents():
            job_id = document.get("id")
            if job_id and job_id not in merged:
                merged[job_id] = document
        return list(merged.values())

    def subscribe(self, job_id: str, callback: Callable[[], None]) -> bool:
        """Register ``callback`` to fire when a live job turns terminal.

        Returns ``False`` when the job is not live (already terminal,
        stored, or unknown) — the caller should read the document
        instead of waiting.  Appending happens under the service lock:
        every terminal path pops the job from the live table under the
        same lock *before* firing callbacks, so a subscription either
        lands before the pop (and fires) or observes not-live here.
        """
        with self._lock:
            job = self._live.get(job_id)
            if job is None:
                return False
            job.done_callbacks.append(callback)
            return True

    def cancel(self, job_id: str) -> dict[str, Any]:
        """Cancel a *queued* job; returns its terminal document.

        Raises :class:`UnknownJobError` for ids the service has never
        seen and :class:`CancelConflictError` when the job is already
        running or terminal — running batches execute to completion (the
        worker pool has no safe preemption point), so callers decide
        between waiting and abandoning the result.  The broker's
        pending-ticket removal is the atomic arbiter, so a cancel can
        never race a worker into executing a cancelled job.
        """
        with self._lock:
            job = self._live.get(job_id)
            if job is None:
                document = self.store.get(job_id)
                if document is None:
                    raise UnknownJobError(job_id)
                raise CancelConflictError(
                    f"job {job_id} is already {document['status']} and cannot be cancelled"
                )
            if job.status is not JobStatus.QUEUED:
                raise CancelConflictError(
                    f"job {job_id} is {job.status.value} and cannot be cancelled"
                )
        # Outside the lock: the broker may do IO.  A concurrent lease
        # simply makes cancel() return False here.
        if not self._lanes[job.lane].broker.cancel(job.id):
            raise CancelConflictError(
                f"job {job_id} is already leased by a worker and cannot be cancelled"
            )
        with self._lock:
            if job.status is not JobStatus.QUEUED:
                # The watcher raced us to a terminal state after the
                # broker-side cancel check; report the conflict.
                raise CancelConflictError(
                    f"job {job_id} is {job.status.value} and cannot be cancelled"
                )
            job.status = JobStatus.CANCELLED
            job.finished = time.time()
        log_event(_LOG, logging.INFO, "job cancelled",
                  trace_id=job.trace_id, job=job.id)
        self._settle(job, JobStatus.CANCELLED)
        return job.to_dict()

    def wait(self, job_id: str, timeout: float | None = None) -> dict[str, Any]:
        """Block until the job reaches a terminal state (or ``timeout``).

        Returns the job document either way; check its ``status`` to
        distinguish completion from timeout.
        """
        with self._lock:
            live = self._live.get(job_id)
        if live is not None:
            live.done_event.wait(timeout)
        return self.job(job_id)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def _dispatchers_running(self) -> bool:
        threads = [self._watcher] + [
            lane.thread for lane in self._lanes.values() if lane.worker is not None
        ]
        return all(thread is not None and thread.is_alive() for thread in threads)

    @property
    def lanes(self) -> tuple[str, ...]:
        return tuple(self._lanes)

    def health(self) -> dict[str, Any]:
        """Cheap liveness fields (no filesystem access; see ``/v2/healthz``)."""
        return {
            "uptime_seconds": time.time() - self._started_at,
            "dispatcher_running": self._dispatchers_running(),
            "mode": "broker" if self.broker is not None else "local",
        }

    def stats(self) -> dict[str, Any]:
        """Operator metrics: queue, jobs, lanes, dispatchers, pool, caches."""
        now = time.time()
        with self._lock:
            live = list(self._live.values())
            submitted, completed, failed = self.submitted, self.completed, self.failed
            cancelled = self.cancelled
            lane_rows = {
                lane.name: (lane.executed, lane.busy_seconds)
                for lane in self._lanes.values()
            }
        uptime = max(now - self._started_at, 1e-9)
        busy_total = 0.0
        any_busy = False
        lanes: dict[str, Any] = {}
        for name, (executed, busy) in lane_rows.items():
            running = [job for job in live
                       if job.lane == name and job.status is JobStatus.RUNNING]
            busy += sum(now - job.started for job in running if job.started is not None)
            any_busy = any_busy or bool(running)
            busy_total += busy
            lanes[name] = {
                "depth": sum(
                    1 for job in live
                    if job.lane == name and job.status is JobStatus.QUEUED
                ),
                "running": len(running),
                "executed": executed,
                "utilization": min(busy / uptime, 1.0),
            }
        pool = self.runner.pool if self.runner is not None else None
        cache = self.runner.cache if self.runner is not None else None
        cache_stats = None
        if cache is not None:
            cache_stats = cache.stats()
            lookups = cache_stats["hits"] + cache_stats["misses"]
            cache_stats["hit_rate"] = cache_stats["hits"] / lookups if lookups else 0.0
        fleet = None
        if self.broker is not None:
            try:
                fleet = self.broker.stats()
            except Exception as error:  # noqa: BLE001 - stats must not 500 on broker IO
                fleet = {"error": f"{type(error).__name__}: {error}"}
        return {
            "uptime_seconds": now - self._started_at,
            "mode": "broker" if self.broker is not None else "local",
            "draining": self._draining,
            "queue": {
                "depth": sum(1 for job in live if job.status is JobStatus.QUEUED),
                "capacity": self.queue_size,
            },
            "jobs": {
                "submitted": submitted,
                "completed": completed,
                "failed": failed,
                "cancelled": cancelled,
                "running": sum(1 for job in live if job.status is JobStatus.RUNNING),
            },
            "dispatcher": {
                "running": self._dispatchers_running(),
                "busy": any_busy,
                "utilization": min(busy_total / (uptime * max(len(lane_rows), 1)), 1.0),
            },
            "lanes": {
                "threshold_branches": self.small_job_branches,
                "by_lane": lanes,
            },
            "clients": self.quota.stats() if self.quota is not None else None,
            "pool": pool.stats() if pool is not None else None,
            "result_cache": cache_stats,
            "store": self.store.stats(),
            "fleet": fleet,
        }

    def metrics_text(self) -> str:
        """The Prometheus exposition served by ``GET /v2/metrics``.

        Scrape-time gauges (queue depth, running jobs, lane depths,
        worker liveness) are refreshed here, and the latest per-worker
        metric snapshots shipped over heartbeats are folded in, so one
        scrape of the front end covers runner/cache/pool series from the
        whole fleet.  In-process workers ship none: they already count
        into this process' registry.
        """
        registry = get_metrics()
        with self._lock:
            live = list(self._live.values())
        registry.gauge(
            "repro_service_queue_depth",
            "Jobs currently queued (bounded by queue capacity).",
        ).set(sum(1 for job in live if job.status is JobStatus.QUEUED))
        registry.gauge(
            "repro_service_running_jobs", "Jobs currently executing.",
        ).set(sum(1 for job in live if job.status is JobStatus.RUNNING))
        lane_depth = registry.gauge(
            "repro_service_lane_depth", "Queued jobs per dispatcher lane.", ("lane",))
        for name in self._lanes:
            lane_depth.set(
                sum(1 for job in live
                    if job.lane == name and job.status is JobStatus.QUEUED),
                lane=name,
            )
        workers: list[dict] = []
        try:
            for broker in self._brokers():
                workers.extend(broker.workers())
        except Exception as error:  # noqa: BLE001 - scrape must not 500 on broker IO
            _obs_errors().inc(component="service.metrics")
            log_event(_LOG, logging.WARNING,
                      "worker registry unavailable for scrape",
                      error=repr(error))
        else:
            registry.gauge(
                "repro_fleet_workers_alive",
                "Fleet workers with a fresh heartbeat.",
            ).set(len(workers))
        extra = [record["metrics"] for record in workers if record.get("metrics")]
        return registry.render_prometheus(extra)

    # ------------------------------------------------------------------
    # Watcher and settlement
    # ------------------------------------------------------------------

    def _watch(self) -> None:
        """Follow published jobs through their brokers until terminal.

        The watcher is also the deployment's reaper of last resort: it
        re-queues expired leases every tick, so jobs survive even when
        every worker has died (they execute once a worker returns).
        After :meth:`close` it keeps following live jobs until none
        remain (``close`` bounds the wait).
        """
        while True:
            self._wake.clear()
            with self._lock:
                live = list(self._live.values())
            if live:
                for broker in self._brokers():
                    try:
                        broker.reap()
                    except Exception as error:  # noqa: BLE001 - transient IO: retry next tick
                        _obs_errors().inc(component="service.watcher")
                        log_event(_LOG, logging.WARNING, "broker reap failed",
                                  error=repr(error))
                for job in live:
                    try:
                        snapshot = self._lanes[job.lane].broker.snapshot(job.id)
                    except Exception as error:  # noqa: BLE001 - transient broker IO
                        _obs_errors().inc(component="service.watcher")
                        log_event(_LOG, logging.WARNING,
                                  "broker snapshot failed",
                                  trace_id=job.trace_id, job=job.id,
                                  error=repr(error))
                        continue
                    self._observe(job, snapshot)
            self._wake.wait(self.broker_poll)
            with self._lock:
                if self._closed and not self._live:
                    return

    def _observe(self, job: Job, snapshot: dict[str, Any]) -> None:
        """Fold the broker's view of one published job into its document."""
        state = snapshot["state"]
        outcome: JobStatus | None = None
        event: tuple[int, str, dict] | None = None
        with self._lock:
            if job.status.terminal:
                return
            if snapshot.get("attempts") is not None:
                job.attempts = snapshot["attempts"]
            if snapshot.get("worker") is not None:
                job.worker = snapshot["worker"]
            leased = state == "leased" and job.status is JobStatus.QUEUED
            # A job that ran between two looks is first seen finished;
            # its delivery start then comes from the snapshot, if known.
            started = snapshot.get("started") or (time.time() if leased else None)
            if started is not None and (leased or job.started is None):
                job.started = started
                get_metrics().histogram(
                    "repro_service_queue_wait_seconds",
                    "Time a job spent queued before execution started.",
                ).observe(job.started - job.created)
            if leased:
                job.status = JobStatus.RUNNING
                event = (logging.INFO, "job leased",
                         {"worker": job.worker, "attempt": job.attempts})
            elif state == "pending" and job.status is JobStatus.RUNNING:
                # The lease expired: the job is pending re-delivery.
                job.status = JobStatus.QUEUED
                event = (logging.WARNING, "lease expired; job re-queued",
                         {"worker": job.worker, "attempt": job.attempts})
            elif state == "done":
                job.results = snapshot["results"]
                job.finished = snapshot.get("finished") or time.time()
                outcome = JobStatus.DONE
                event = (logging.INFO, "job done",
                         {"worker": job.worker, "attempt": job.attempts})
            elif state == "dead":
                attempts = snapshot.get("attempts")
                error = snapshot.get("error") or "no error recorded"
                job.error = f"dead-letter after {attempts} attempts: {error}"
                job.finished = snapshot.get("finished") or time.time()
                outcome = JobStatus.FAILED
                event = (logging.WARNING, "job dead-lettered",
                         {"error": job.error})
        if event is not None:
            level, message, fields = event
            log_event(_LOG, level, message,
                      trace_id=job.trace_id, job=job.id, **fields)
        if outcome is not None:
            self._settle(job, outcome, shipped=snapshot.get("spans"))

    def _settle(self, job: Job, outcome: JobStatus, shipped=None) -> None:
        """The one terminal hand-off every finished job goes through.

        Counts the outcome, samples the job latency and files the
        request's spans (``shipped`` are spans the worker sent back)
        — except for cancelled jobs, which keep neither — then publishes
        ``outcome`` on the job, stores its document and unlists it.
        Spans land before the document turns terminal, so a poller that
        sees "done" can immediately fetch the trace; the store write
        lands before unlisting, so :meth:`job` never sees a gap.
        """
        with self._lock:
            if outcome is JobStatus.DONE:
                self.completed += 1
            elif outcome is JobStatus.FAILED:
                self.failed += 1
            else:
                self.cancelled += 1
            if job.started is not None and outcome is not JobStatus.CANCELLED:
                lane = self._lanes[job.lane]
                lane.executed += 1
                lane.busy_seconds += max((job.finished or time.time()) - job.started, 0.0)
        _job_counter().inc(status=outcome.value)
        if outcome is not JobStatus.CANCELLED:
            get_metrics().histogram(
                "repro_service_job_seconds",
                "Submit-to-terminal latency of one job.",
            ).observe(job.finished - job.created)
            self._record_request_spans(job, outcome, shipped)
        job.status = outcome
        # put_new keeps the first copy when several front ends share one
        # disk store — unless the existing copy is a drain marker (status
        # "queued"), which a real terminal document must replace.
        if not self.store.put_new(job.id, job.to_dict()):
            existing = self.store.get(job.id)
            if existing is not None and existing.get("status") == "queued":
                self.store.put(job.id, job.to_dict())
        with self._lock:
            self._live.pop(job.id, None)
        job.mark_done()

    def _record_request_spans(self, job: Job, outcome: JobStatus, shipped=None) -> None:
        """Synthesize the request-level spans and file everything by trace.

        The root (``service.request``) and lane-queue spans are built
        from the job's own timestamps — the queue wait has no natural
        ``with`` block, submission and execution happen on different
        threads — then the process recorder is drained so spans an
        in-process worker left behind land in the span store alongside
        ``shipped`` spans the worker sent back with its completion.
        ``outcome`` is the terminal status, not yet published on the job
        (spans are stored before the document turns terminal so trace
        queries never race the status flip).
        """
        if shipped:
            self.spans.ingest(shipped)
        if job.root_span is not None:
            finished = job.finished or time.time()
            synthesized = [make_span(
                job.trace_id, job.root_span, None, "service.request",
                job.created, max(0.0, finished - job.created),
                status="ok" if outcome is JobStatus.DONE else "error",
                attrs={"job": job.id, "lane": job.lane, "proc": "serve"})]
            if job.started is not None:
                synthesized.append(make_span(
                    job.trace_id, new_span_id(), job.root_span,
                    "service.queue", job.created,
                    max(0.0, job.started - job.created),
                    attrs={"lane": job.lane, "proc": "serve"}))
            self.spans.ingest(synthesized)
        self.spans.ingest(get_tracer().drain())
