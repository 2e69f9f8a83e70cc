"""The broker contract: leased job delivery between front ends and workers.

A *broker* is the hand-off point between a front end and the workers
that execute its jobs: front ends
(:class:`~repro.service.core.SimulationService`) **publish** jobs,
stateless workers (:class:`~repro.distrib.worker.FleetWorker`)
**lease** them one at a time, **heartbeat** while executing, and
**complete** or **fail** them.  The broker owns the
at-least-once delivery semantics:

* a lease carries a *visibility timeout* — a worker that stops
  heartbeating (crashed, partitioned, OOM-killed) loses the job when the
  deadline passes and :meth:`Broker.reap` re-queues it,
* every re-queue increments the attempt counter and delays the next
  delivery by an exponential backoff, so a poison job cannot spin a
  worker loop hot,
* after ``max_attempts`` deliveries the job moves to the terminal
  **dead-letter** state, carrying its last error,
* completion is first-write-wins: when an expired lease was re-delivered
  and *both* workers finish (results are deterministic, so both are
  correct), the second :meth:`Broker.complete` is a no-op returning
  ``False`` — never an error, never a double write.

Workers additionally *register* with capability tags (live backends,
core count, host/pid) and refresh a registration heartbeat, so the fleet
is observable from any front end (``GET /v1/stats``, ``repro fleet``).

Two implementations ship: :class:`~repro.distrib.memory.MemoryBroker`
(in-process: each local service lane runs on one, and it wakes waiters
in its process on every state change instead of making them poll) and
:class:`~repro.distrib.fsbroker.FileBroker` (a shared directory; usable
across processes and across hosts on a shared filesystem).  Another
backing store (a redis or SQL queue, say) plugs in by subclassing
:class:`Broker` and passing the same contract tests the two shipped
implementations pass (``tests/distrib``).  All implementations accept an
injectable ``clock`` so lease-expiry and backoff semantics are testable
without sleeping.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Callable

from repro.obs import get_metrics

__all__ = [
    "Broker",
    "BrokerError",
    "DEFAULT_BACKOFF_BASE",
    "DEFAULT_BACKOFF_CAP",
    "DEFAULT_MAX_ATTEMPTS",
    "DEFAULT_VISIBILITY_TIMEOUT",
    "DEFAULT_WORKER_TTL",
    "JOB_STATES",
    "Lease",
    "LeaseLostError",
    "UnknownBrokerJobError",
]

#: Seconds a lease stays valid without a heartbeat.
DEFAULT_VISIBILITY_TIMEOUT = 30.0
#: Deliveries (first + retries) before a job dead-letters.
DEFAULT_MAX_ATTEMPTS = 3
#: First retry delay; doubles per attempt up to the cap.
DEFAULT_BACKOFF_BASE = 0.5
DEFAULT_BACKOFF_CAP = 30.0
#: A worker whose registration heartbeat is older than this is shown dead.
DEFAULT_WORKER_TTL = 30.0

#: Broker job lifecycle: pending → leased → done, or back to pending on
#: lease expiry / execution failure, ending in dead after max attempts.
JOB_STATES = ("pending", "leased", "done", "dead", "cancelled")


class BrokerError(RuntimeError):
    """A broker-level protocol violation."""


class UnknownBrokerJobError(KeyError):
    """The broker has never seen the requested job id."""


class LeaseLostError(BrokerError):
    """The lease was reaped (expired) or taken over before the call."""


@dataclass(frozen=True)
class Lease:
    """One delivery of a job to one worker.

    ``attempt`` is 1-based and counts deliveries, not failures: the
    first lease of a job is attempt 1.  ``deadline`` is the wall-clock
    time the lease expires unless extended by a heartbeat.
    """

    job_id: str
    payload: dict
    attempt: int
    deadline: float
    worker_id: str


class Broker:
    """Interface + shared policy knobs; see the module docstring.

    Subclasses implement the storage; retry/backoff/visibility policy
    lives here so every implementation agrees on the semantics.
    """

    #: Whether every client of the broker runs in this process.  Its
    #: workers then share the front end's metrics registry and ship it
    #: no snapshots.
    in_process = False

    def __init__(
        self,
        visibility: float = DEFAULT_VISIBILITY_TIMEOUT,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        backoff_base: float = DEFAULT_BACKOFF_BASE,
        backoff_cap: float = DEFAULT_BACKOFF_CAP,
        worker_ttl: float = DEFAULT_WORKER_TTL,
        clock: Callable[[], float] | None = None,
    ) -> None:
        if visibility <= 0:
            raise ValueError(f"visibility must be positive, got {visibility}")
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be at least 1, got {max_attempts}")
        self.visibility = visibility
        self.max_attempts = max_attempts
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.worker_ttl = worker_ttl
        self._clock = clock or time.time
        self._listeners: list[threading.Event] = []

    def _now(self) -> float:
        return self._clock()

    def backoff(self, attempt: int) -> float:
        """Delay before re-delivering after ``attempt`` deliveries."""
        return min(self.backoff_base * (2 ** max(attempt - 1, 0)), self.backoff_cap)

    def listen(self, event: threading.Event) -> None:
        """Set ``event`` whenever a job here changes state.

        Only an in-process broker fires it; a broker shared between
        processes cannot see its peers' writes, so its clients poll.
        """
        self._listeners.append(event)

    def _note(self, event: str, amount: int = 1) -> None:
        """Count a delivery event in *this* process' metrics registry.

        Events: ``published``, ``leased``, ``completed``, ``retried``
        (failure re-queue), ``reaped`` (lease-expiry re-queue) and
        ``dead_lettered``.  Counts land wherever the broker object lives
        — the front end for publishes, each worker for its own leases —
        and meet again on the front end's ``/v1/metrics`` via the
        worker-heartbeat snapshot merge.
        """
        if amount:
            get_metrics().counter(
                "repro_broker_events_total",
                "Broker delivery events by type.",
                ("event",),
            ).inc(amount, event=event)

    # ------------------------------------------------------------------
    # Job lifecycle
    # ------------------------------------------------------------------

    def publish(self, job_id: str, payload: dict, max_attempts: int | None = None) -> None:
        """Enqueue ``payload`` (JSON-pure) for delivery as ``job_id``.

        The caller supplies the id so the broker job keeps the identity
        of the service job that produced it.  Re-publishing an id is a
        :class:`BrokerError`.
        """
        raise NotImplementedError

    def lease(self, worker_id: str) -> Lease | None:
        """Claim the oldest deliverable job, or ``None`` when idle.

        Implementations reap expired leases opportunistically before
        scanning, so a fleet needs no dedicated reaper process (front
        ends reap too, covering the all-workers-died case).
        """
        raise NotImplementedError

    def heartbeat(self, job_id: str, worker_id: str) -> float:
        """Extend the lease by the visibility timeout; returns the new
        deadline.  Raises :class:`LeaseLostError` when the lease expired
        or belongs to another worker."""
        raise NotImplementedError

    def complete(self, job_id: str, worker_id: str, results: Any,
                 spans: list | None = None) -> bool:
        """Record results; ``True`` if this call won, ``False`` for a
        duplicate completion (already done — first write wins).

        ``spans`` are the completed trace spans of the executing attempt
        (ship-once, like metrics deltas).  They are stored *next to* the
        results — never inside them, so job results stay byte-identical
        with tracing on or off — and surface through :meth:`snapshot`'s
        ``spans`` key.  Span accumulation is per-attempt: a duplicate
        completion loses the results race but still files its spans, so
        re-delivered attempts appear as sibling subtrees of one trace.
        """
        raise NotImplementedError

    def fail(self, job_id: str, worker_id: str, error: str,
             spans: list | None = None) -> None:
        """Record an execution failure: re-queue with backoff, or
        dead-letter once the attempt budget is spent.  ``spans`` from
        the failed attempt accumulate like :meth:`complete`'s."""
        raise NotImplementedError

    def cancel(self, job_id: str) -> bool:
        """Cancel a *pending* job; ``False`` when it is leased or
        terminal (the caller decides whether that is a conflict)."""
        raise NotImplementedError

    def snapshot(self, job_id: str) -> dict[str, Any]:
        """The broker's view of one job: ``state`` (:data:`JOB_STATES`),
        ``attempts``, ``worker``, ``error``, ``results`` and timing
        fields (``started``, when the current or last delivery began, is
        optional).  Raises :class:`UnknownBrokerJobError`."""
        raise NotImplementedError

    def reap(self) -> int:
        """Re-queue (or dead-letter) expired leases; returns how many
        leases were taken over."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Worker registry
    # ------------------------------------------------------------------

    def register_worker(self, worker_id: str, capabilities: dict[str, Any]) -> None:
        raise NotImplementedError

    def worker_heartbeat(
        self,
        worker_id: str,
        completed: int | None = None,
        failed: int | None = None,
        metrics: dict[str, Any] | None = None,
    ) -> None:
        """Refresh the registration heartbeat (and job counters).

        ``metrics`` is the worker's latest *cumulative* metrics-registry
        snapshot (:meth:`repro.obs.MetricsRegistry.snapshot`); the broker
        stores only the most recent one per worker, so a lost heartbeat
        never loses counts — the next snapshot supersedes it.  Front ends
        fold these into ``GET /v1/metrics``.
        """
        raise NotImplementedError

    def deregister_worker(self, worker_id: str) -> None:
        raise NotImplementedError

    def workers(self) -> list[dict[str, Any]]:
        """Registered workers with ``heartbeat_age`` and ``alive`` derived
        from :attr:`worker_ttl`, sorted by worker id."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def describe(self) -> str:
        """A short human-readable locator (shown by ``repro fleet``)."""
        return type(self).__name__

    def counts(self) -> dict[str, int]:
        """Jobs per state (``pending``/``leased``/``done``/``dead``/
        ``cancelled``)."""
        raise NotImplementedError

    def dead_letters(self, limit: int = 20) -> list[dict[str, Any]]:
        """The most recently dead-lettered jobs, newest first.

        Each row carries ``id``, ``error`` (the last delivery's failure
        string), ``attempts`` and ``finished`` — enough for ``/v1/stats``
        and ``repro fleet`` to say *why* a job died without a per-job
        lookup.  Implementations that do not track dead letters may
        return an empty list.
        """
        return []

    def stats(self) -> dict[str, Any]:
        """The fleet document rendered into ``/v1/stats``."""
        now = self._now()
        # Worker rows minus the metrics snapshots they heartbeat in —
        # those belong to /v1/metrics, not a human-facing stats document.
        workers = [
            {key: value for key, value in row.items() if key != "metrics"}
            for row in self.workers()
        ]
        return {
            "broker": self.describe(),
            "visibility_timeout": self.visibility,
            "max_attempts": self.max_attempts,
            "jobs": self.counts(),
            "dead_letters": self.dead_letters(),
            "workers": workers,
            "workers_alive": sum(1 for worker in workers if worker["alive"]),
            "generated": now,
        }

    def close(self) -> None:
        """Release broker resources (no-op for most implementations)."""


def worker_view(record: dict[str, Any], now: float, ttl: float) -> dict[str, Any]:
    """Derive the observable worker row from a stored registration."""
    heartbeat = record.get("heartbeat", record.get("started", now))
    age = max(now - heartbeat, 0.0)
    view = dict(record)
    view["heartbeat_age"] = age
    view["alive"] = age <= ttl
    return view
