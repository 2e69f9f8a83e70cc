"""The stateless fleet worker: lease, execute, heartbeat, complete.

``repro worker`` runs one :class:`FleetWorker` per process, and a local
``repro serve`` runs one in a thread per lane.  The worker owns a
persistent :class:`~repro.api.runner.Runner` (a process pool that
outlives each job, shared result cache), registers with the broker under capability tags
(live execution backends, core count, host/pid), and loops:

1. :meth:`~repro.distrib.broker.Broker.lease` a job (reaping expired
   leases opportunistically on the way),
2. execute its requests as one ``Runner.run_batch`` call — the same
   code path as ``repro run`` and the single-process service, so fleet
   results are byte-identical to local ones,
3. heartbeat while the batch runs, from one background thread that
   lives as long as :meth:`FleetWorker.run` and extends whichever lease
   is executing, so a long job never loses its lease while a *dead*
   worker loses it within one visibility timeout,
4. :meth:`~repro.distrib.broker.Broker.complete` (first write wins — a
   re-delivered twin finishing later is a quiet no-op) or
   :meth:`~repro.distrib.broker.Broker.fail` (retry with backoff, then
   dead-letter).

Between empty leases the worker waits ``poll_interval``, or less when
an in-process broker signals a state change.  Drain semantics:
:meth:`FleetWorker.request_stop` (wired to SIGTERM and SIGINT by the
CLI) stops *leasing*; the in-flight job finishes and its lease is
completed before the loop exits and the worker deregisters.
"""

from __future__ import annotations

import logging
import os
import socket
import threading
import time
import uuid
from typing import Any

import repro
from repro.api.request import RunRequest
from repro.api.results import suite_payload
from repro.api.runner import Runner
from repro.backends import live_backends
from repro.distrib.broker import Broker, Lease, LeaseLostError
from repro.obs import (
    bind_span_context,
    bind_trace_id,
    drain_spans,
    get_logger,
    get_metrics,
    log_event,
    span,
)

__all__ = ["FleetWorker", "default_capabilities", "new_worker_id"]

#: Idle wait between empty lease attempts, seconds (an in-process broker
#: cuts it short on every state change).
DEFAULT_POLL_INTERVAL = 0.2

_LOG = get_logger("distrib.worker")


def _job_counter():
    return get_metrics().counter(
        "repro_worker_jobs_total",
        "Jobs processed by this fleet worker, by outcome.",
        ("outcome",),
    )


def _execute_seconds():
    return get_metrics().histogram(
        "repro_worker_execute_seconds",
        "Wall time of one leased job's run_batch execution.",
    )


def _obs_errors():
    return get_metrics().counter(
        "repro_obs_errors_total",
        "Exceptions swallowed by background threads, by component.",
        ("component",),
    )


def new_worker_id() -> str:
    """A fleet-unique, filesystem-safe worker id (host, pid, nonce)."""
    host = socket.gethostname().split(".")[0] or "host"
    return f"{host}-{os.getpid()}-{uuid.uuid4().hex[:6]}"


def default_capabilities(runner: Runner) -> dict[str, Any]:
    """The capability tags a worker registers with."""
    return {
        "backends": live_backends(),
        "cores": os.cpu_count() or 1,
        "pool_workers": runner.config.workers,
        "version": repro.__version__,
        "host": socket.gethostname(),
        "pid": os.getpid(),
    }


class FleetWorker:
    """One worker process' broker loop; see the module docstring.

    Parameters
    ----------
    broker:
        Any :class:`~repro.distrib.broker.Broker`.
    runner:
        Defaults to an env-configured persistent runner; the worker owns
        it and closes it when the loop exits.
    worker_id:
        Defaults to a generated host-pid-nonce id.
    poll_interval:
        Idle wait between empty lease attempts.
    heartbeat_interval:
        Lease-extension period while executing; defaults to a third of
        the broker's visibility timeout.  One heartbeat thread, started
        by :meth:`run` and joined before it returns, wakes every interval
        and extends the running job's lease, if any; no job starts or
        ends a thread.
    """

    def __init__(
        self,
        broker: Broker,
        runner: Runner | None = None,
        worker_id: str | None = None,
        poll_interval: float = DEFAULT_POLL_INTERVAL,
        heartbeat_interval: float | None = None,
    ) -> None:
        self.broker = broker
        self.runner = runner if runner is not None else Runner.from_env(persistent=True)
        self.worker_id = worker_id or new_worker_id()
        self.poll_interval = poll_interval
        self.heartbeat_interval = (
            heartbeat_interval if heartbeat_interval is not None
            else max(broker.visibility / 3.0, 0.05)
        )
        self.completed = 0
        self.failed = 0
        self._stop = threading.Event()
        #: Set by :meth:`request_stop` and by the broker's state changes.
        self._wake = threading.Event()
        broker.listen(self._wake)
        self._registered = False
        #: Guards the lease the heartbeat thread extends (``None`` between
        #: jobs); held across each beat, see :meth:`_beat_for`.  Notified
        #: only when :meth:`run` ends.
        self._beat = threading.Condition()
        self._beating: Lease | None = None
        self._beat_closed = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def request_stop(self) -> None:
        """Graceful drain: stop leasing; the in-flight job still finishes."""
        self._stop.set()
        self._wake.set()

    @property
    def stopping(self) -> bool:
        return self._stop.is_set()

    def run(self, max_jobs: int | None = None) -> int:
        """Register and loop until drained; returns jobs processed.

        ``max_jobs`` bounds the loop (smoke tests, batch-mode fleets);
        ``None`` runs until :meth:`request_stop`.
        """
        self.broker.register_worker(self.worker_id, default_capabilities(self.runner))
        self._registered = True
        log_event(_LOG, logging.INFO, "worker registered",
                  worker=self.worker_id, broker=self.broker.describe())
        processed = 0
        self._beat_closed = False
        beat = threading.Thread(target=self._heartbeat_loop,
                                name=f"repro-worker-heartbeat-{self.worker_id}",
                                daemon=True)
        beat.start()
        try:
            while not self._stop.is_set():
                if max_jobs is not None and processed >= max_jobs:
                    break
                self._wake.clear()
                lease = self.broker.lease(self.worker_id)
                if lease is None:
                    self._touch_registration()
                    self._wake.wait(self.poll_interval)
                    continue
                self._execute(lease)
                processed += 1
                self._touch_registration()
        finally:
            with self._beat:
                self._beat_closed = True
                self._beat.notify()
            beat.join()
            if self._registered:
                try:
                    self.broker.deregister_worker(self.worker_id)
                except Exception as error:  # noqa: BLE001 - deregistration is best-effort
                    _obs_errors().inc(component="worker.deregister")
                    log_event(_LOG, logging.WARNING, "worker deregistration failed",
                              worker=self.worker_id, error=repr(error))
                self._registered = False
            self.runner.close()
        log_event(_LOG, logging.INFO, "worker drained",
                  worker=self.worker_id, processed=processed,
                  completed=self.completed, failed=self.failed)
        return processed

    def _touch_registration(self) -> None:
        try:
            self.broker.worker_heartbeat(
                self.worker_id,
                completed=self.completed,
                failed=self.failed,
                # Cumulative, not a delta: a lost heartbeat costs nothing,
                # the next one supersedes it.  The front end merges the
                # latest snapshot per worker into GET /v2/metrics, unless
                # it shares this process and so this registry already.
                metrics=None if self.broker.in_process else get_metrics().snapshot(),
            )
        except Exception as error:  # noqa: BLE001 - observability must not kill the loop
            _obs_errors().inc(component="worker.registration")
            log_event(_LOG, logging.WARNING, "worker registration heartbeat failed",
                      worker=self.worker_id, error=repr(error))

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def _execute(self, lease: Lease) -> None:
        with bind_trace_id(lease.payload.get("trace_id")):
            log_event(_LOG, logging.INFO, "job leased",
                      worker=self.worker_id, job=lease.job_id,
                      attempt=lease.attempt,
                      requests=len(lease.payload.get("requests", ())))
            started = time.perf_counter()
            failure: Exception | None = None
            self._beat_for(lease)
            try:
                payloads = self._simulate(lease)
            except Exception as error:  # noqa: BLE001 - job faults must not kill the worker
                failure = error
            finally:
                self._beat_for(None)
            if failure is not None:
                args = failure.args
                message = f"{type(failure).__name__}: {args[0] if args else failure}"
                self.failed += 1
                _job_counter().inc(outcome="failed")
                log_event(_LOG, logging.WARNING, "job failed",
                          worker=self.worker_id, job=lease.job_id,
                          attempt=lease.attempt, error=message)
                self.broker.fail(lease.job_id, self.worker_id, message,
                                 spans=drain_spans() or None)
                return
            seconds = time.perf_counter() - started
            _execute_seconds().observe(seconds)
            # complete() is idempotent: if the lease expired mid-run and a
            # twin finished first, this is a quiet no-op (results being
            # deterministic, both copies are identical anyway).
            if self.broker.complete(lease.job_id, self.worker_id, payloads,
                                    spans=drain_spans() or None):
                self.completed += 1
                _job_counter().inc(outcome="completed")
                log_event(_LOG, logging.INFO, "job completed",
                          worker=self.worker_id, job=lease.job_id,
                          attempt=lease.attempt, seconds=round(seconds, 6))
            else:
                _job_counter().inc(outcome="duplicate")
                log_event(_LOG, logging.INFO, "job completed by twin",
                          worker=self.worker_id, job=lease.job_id,
                          attempt=lease.attempt, seconds=round(seconds, 6))

    def _simulate(self, lease: Lease) -> list[dict]:
        """Run the lease's requests as one ``run_batch``; their payloads."""
        # A local lane's broker carries the validated requests themselves;
        # a shared broker carries their wire form.
        requests = [
            entry if isinstance(entry, RunRequest) else RunRequest.from_dict(entry)
            for entry in lease.payload["requests"]
        ]
        # Adopt the front end's span context from the ticket: the
        # worker's subtree parents under the serve-side request span, and
        # each delivery is its own attempt-tagged span — a re-delivered
        # lease becomes a sibling, never a merge.
        with bind_span_context(lease.payload.get("span")):
            with span("worker.execute", attempt=lease.attempt,
                      worker=self.worker_id, proc=f"worker:{self.worker_id}"):
                results = self.runner.run_batch(requests)
        return [suite_payload(request, result)
                for request, result in zip(requests, results)]

    def _beat_for(self, lease: Lease | None) -> None:
        """Have the heartbeat thread extend ``lease``; ``None`` stops it.

        Returns with no beat in flight (the thread holds the condition
        across each beat), so a completion or failure report never races
        a heartbeat of its own lease.
        """
        with self._beat:
            self._beating = lease

    def _heartbeat_loop(self) -> None:
        # Beats on its own clock rather than being woken per job: a lease
        # is extended within one interval of its start, and every
        # interval after, and short jobs cost this thread nothing.
        with self._beat:
            while not self._beat_closed:
                self._beat.wait(self.heartbeat_interval)
                if self._beating is not None and not self._beat_closed:
                    self._extend(self._beating)

    def _extend(self, lease: Lease) -> None:
        """One heartbeat of ``lease``; called with the condition held."""
        trace_id = lease.payload.get("trace_id")
        try:
            self.broker.heartbeat(lease.job_id, self.worker_id)
        except LeaseLostError:
            # Keep executing: completion stays correct (idempotent) and
            # abandoning mid-run would waste the work when the
            # re-delivered twin also dies.  Stop beating this lease.
            self._beating = None
            log_event(_LOG, logging.WARNING, "lease lost mid-run",
                      trace_id=trace_id, worker=self.worker_id,
                      job=lease.job_id, attempt=lease.attempt)
        except Exception as error:  # noqa: BLE001 - transient: retry next beat
            _obs_errors().inc(component="worker.heartbeat")
            log_event(_LOG, logging.WARNING, "lease heartbeat failed",
                      trace_id=trace_id, worker=self.worker_id,
                      job=lease.job_id, error=repr(error))
