"""The broker: leased job delivery between front ends and workers.

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
  ``False`` — never an error, never a double write,
* a failure report acts only on the reporter's own lease: once the
  lease was reaped or re-delivered, a late :meth:`Broker.fail` files its
  spans and changes nothing else, and nothing re-queues or dead-letters
  a job that is already terminal.

Workers additionally *register* with capability tags (live backends,
core count, host/pid) and refresh a registration heartbeat, so the fleet
is observable from any front end (``GET /v2/stats``, ``repro fleet``).

:class:`Broker` writes this whole lifecycle once, over a *record store*
that a subclass supplies as a few atomic primitives: exclusive create
(:meth:`~Broker._create`, first write wins), read, replace-write and
remove, an atomic move between kinds (:meth:`~Broker._move`, the claim),
listing (and pending tickets in delivery order), the last write time, and
per-attempt span filing.  Records are dicts grouped in kinds (JSON-pure,
except that an in-process store's payloads may hold live objects, since
they never leave the process):
``jobs``, ``pending`` (tickets keyed by :func:`ticket_key`), ``leased``,
``done``, ``dead``, ``cancelled``, ``workers`` and ``tmp``.  The
lifecycle never holds a lock across two primitives: it is written to
stay correct when several processes act on one store at once, so a store
that makes each primitive atomic is safe for threads and processes
alike.

Two stores ship: :class:`~repro.distrib.memory.MemoryBroker` (dicts
under one lock: each local service lane runs on one, and it wakes
waiters in its process on every state change instead of making them
poll) and :class:`~repro.distrib.fsbroker.FileBroker` (a shared
directory; usable across processes and across hosts on a shared
filesystem).  Another backing store (a redis or SQL queue, say) plugs in
by implementing the primitives and passing the contract tests the two
shipped stores pass (``tests/distrib``); it does not re-implement the
lifecycle.  Every broker accepts an injectable ``clock`` so lease-expiry
and backoff semantics are testable without sleeping.
"""

from __future__ import annotations

import itertools
import os
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
#: Each state is also the record kind that holds the jobs in it.
JOB_STATES = ("pending", "leased", "done", "dead", "cancelled")
#: The states a job never leaves; a job holds at most one of them.
TERMINAL_STATES = ("done", "dead", "cancelled")

#: Unique suffixes for scratch keys taken in this process.
_TAKEOVERS = itertools.count()


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


def ticket_key(not_before: float, attempt: int, job_id: str) -> str:
    """The key of a pending ticket.

    Sorted keys are the file store's delivery order: earliest not-before
    first (to the millisecond), then attempt, then id.
    """
    return f"{int(not_before * 1000):013d}-{attempt:03d}-{job_id}"


def ticket_job_id(key: str) -> str | None:
    """The job a ticket key names, or ``None`` for a foreign key."""
    parts = key.split("-", 2)
    return parts[2] if len(parts) == 3 else None


class Broker:
    """The job lifecycle over a record store; see the module docstring.

    Subclasses implement the store primitives (the ``_create`` …
    ``_job_spans`` block below) and nothing else of the contract, so
    every store agrees on retry, backoff and visibility semantics.
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

    def listen(self, event: threading.Event, changes: set[str] | None = None) -> None:
        """Set ``event`` whenever a job here changes state, after adding
        the job's id to ``changes`` when one is given.

        Only an in-process broker fires it; a broker shared between
        processes cannot see its peers' writes, so its clients poll.
        """
        self._listeners.append((event, changes))

    def _changed(self, job_id: str) -> None:
        """``job_id`` changed state: tell the listeners of an in-process broker."""
        if self.in_process:
            for event, changes in self._listeners:
                if changes is not None:
                    changes.add(job_id)
                event.set()

    def _note(self, event: str, job_id: str) -> None:
        """Count a delivery event in *this* process' metrics registry.

        Events: ``published``, ``leased``, ``completed``, ``retried``
        (failure re-queue), ``reaped`` (lease-expiry re-queue) and
        ``dead_lettered``.  Counts land wherever the broker object lives
        — the front end for publishes, each worker for its own leases —
        and meet again on the front end's ``/v2/metrics`` via the
        worker-heartbeat snapshot merge.
        """
        get_metrics().counter(
            "repro_broker_events_total",
            "Broker delivery events by type.",
            ("event",),
        ).inc(event=event)
        self._changed(job_id)

    # ------------------------------------------------------------------
    # Store primitives: each one atomic, nothing else shared
    # ------------------------------------------------------------------

    def _create(self, kind: str, key: str, record: dict) -> bool:
        """Store ``record`` unless ``key`` exists; ``True`` if this call did."""
        raise NotImplementedError

    def _get(self, kind: str, key: str) -> dict | None:
        """The record (never mutated by the caller), or ``None``."""
        raise NotImplementedError

    def _put(self, kind: str, key: str, record: dict) -> None:
        """Create or replace the record."""
        raise NotImplementedError

    def _remove(self, kind: str, key: str) -> bool:
        """Delete the record; ``True`` if this call deleted it."""
        raise NotImplementedError

    def _move(self, kind: str, key: str, to_kind: str, to_key: str) -> bool:
        """Move a record, replacing any at the target; ``False`` when the
        source is gone (another caller moved or removed it first)."""
        raise NotImplementedError

    def _exists(self, kind: str, key: str) -> bool:
        raise NotImplementedError

    def _keys(self, kind: str) -> list[str]:
        """Keys of one kind, in no promised order."""
        raise NotImplementedError

    def _tickets(self) -> list[str]:
        """Pending ticket keys in delivery order."""
        raise NotImplementedError

    def _modified(self, kind: str, key: str) -> float | None:
        """When the record was last written or moved."""
        raise NotImplementedError

    def _file_spans(self, job_id: str, spans: list | None) -> None:
        """File one attempt's spans; every report adds, none replaces."""
        raise NotImplementedError

    def _job_spans(self, job_id: str) -> list:
        """Every span filed for ``job_id``."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Job lifecycle
    # ------------------------------------------------------------------

    def publish(self, job_id: str, payload: dict, max_attempts: int | None = None) -> None:
        """Enqueue ``payload`` (JSON-pure, unless :attr:`in_process`) for
        delivery as ``job_id``.

        The caller supplies the id so the broker job keeps the identity
        of the service job that produced it.  Re-publishing an id is a
        :class:`BrokerError`.
        """
        now = self._now()
        if not self._create("jobs", job_id, {
            "id": job_id,
            "payload": payload,
            "max_attempts": max_attempts or self.max_attempts,
            "created": now,
        }):
            raise BrokerError(f"job {job_id!r} is already published")
        self._enqueue(job_id, 1, now, None)
        self._note("published", job_id)

    def lease(self, worker_id: str) -> Lease | None:
        """Claim the oldest deliverable job, or ``None`` when idle.

        Expired leases are reaped first, so a fleet needs no dedicated
        reaper process (front ends reap too, covering the
        all-workers-died case).
        """
        self.reap()
        now = self._now()
        for key in self._tickets():
            job_id = ticket_job_id(key)
            ticket = self._get("pending", key) if job_id else None
            if ticket is None or ticket["not_before"] > now:
                continue  # claimed by a racing worker, or backing off
            # THE claim: atomic, exactly one winner per ticket.
            if not self._move("pending", key, "leased", job_id):
                continue
            record = None if self._terminal(job_id) else self._get("jobs", job_id)
            if record is None:
                # A stale ticket for an already-finished job (e.g. it was
                # completed after a reap re-queued it): discard quietly.
                self._remove("leased", job_id)
                continue
            deadline = now + self.visibility
            self._put("leased", job_id, {
                "id": job_id,
                "attempt": ticket["attempt"],
                "worker": worker_id,
                "deadline": deadline,
                "started": now,
            })
            self._note("leased", job_id)
            return Lease(job_id, record["payload"], ticket["attempt"],
                         deadline, worker_id)
        return None

    def heartbeat(self, job_id: str, worker_id: str) -> float:
        """Extend the lease by the visibility timeout; returns the new
        deadline.  Raises :class:`LeaseLostError` when the lease expired
        or belongs to another worker."""
        lease = self._get("leased", job_id)
        if lease is None or lease.get("worker") != worker_id:
            raise LeaseLostError(f"worker {worker_id!r} no longer holds job {job_id!r}")
        deadline = self._now() + self.visibility
        self._put("leased", job_id, {**lease, "deadline": deadline})
        return deadline

    def complete(self, job_id: str, worker_id: str, results: Any,
                 spans: list | None = None) -> bool:
        """Record results; ``True`` if this call won, ``False`` for a
        duplicate completion (already terminal — first write wins).

        ``spans`` are the completed trace spans of the executing attempt
        (ship-once, like metrics deltas).  They are stored *next to* the
        results — never inside them, so job results stay byte-identical
        with tracing on or off — and surface through :meth:`snapshot`'s
        ``spans`` key.  Span accumulation is per-attempt: a duplicate
        completion loses the results race but still files its spans, so
        re-delivered attempts appear as sibling subtrees of one trace.
        """
        if not self._exists("jobs", job_id):
            raise UnknownBrokerJobError(job_id)
        self._file_spans(job_id, spans)
        lease = self._get("leased", job_id)
        if lease is None or lease.get("worker") != worker_id:
            # A late report: it still wins if nothing else finished the
            # job (results are deterministic), but never touches the
            # current holder's lease.
            if self._terminal(job_id):
                return False
            lease = {}
        won = self._create("done", job_id, {
            "results": results,
            "worker": worker_id,
            "attempt": lease.get("attempt"),
            "started": lease.get("started"),
            "finished": self._now(),
        })
        released = bool(lease) and self._take_lease(job_id, worker_id) is not None
        if won and not released:
            # Without our lease in hand, a reaper may have dead-lettered
            # the job meanwhile (see _retry): the results win.
            self._remove("dead", job_id)
        if won:
            # A reaper may have re-queued the job while we were finishing
            # it; the ticket is now stale and must not be delivered.
            key = self._find_ticket(job_id)
            if key is not None:
                self._remove("pending", key)
            self._note("completed", job_id)
        return won

    def fail(self, job_id: str, worker_id: str, error: str,
             spans: list | None = None) -> None:
        """Record an execution failure: re-queue with backoff, or
        dead-letter once the attempt budget is spent.  ``spans`` from
        the failed attempt accumulate like :meth:`complete`'s."""
        record = self._get("jobs", job_id)
        if record is None:
            raise UnknownBrokerJobError(job_id)
        self._file_spans(job_id, spans)
        lease = self._take_lease(job_id, worker_id)
        if lease is None or self._terminal(job_id):
            # The lease was reaped or re-delivered (that delivery owns the
            # retry accounting now), or the job already finished: a late
            # failure report changes nothing.
            return
        self._retry(job_id, record, lease, error, "retried")

    def cancel(self, job_id: str) -> bool:
        """Cancel a *pending* job; ``False`` when it is leased or
        terminal (the caller decides whether that is a conflict)."""
        if not self._exists("jobs", job_id):
            raise UnknownBrokerJobError(job_id)
        key = self._find_ticket(job_id)
        if key is None or not self._remove("pending", key):
            return False  # not pending, or leased in the race window
        self._create("cancelled", job_id, {"finished": self._now()})
        self._changed(job_id)
        return True

    def reap(self) -> int:
        """Re-queue (or dead-letter) expired leases; returns how many
        leases were taken over."""
        now = self._now()
        reaped = 0
        for job_id in self._keys("leased"):
            lease = self._get("leased", job_id)
            if lease is None:
                continue
            deadline = lease.get("deadline")
            if deadline is None:
                # Mid-claim (ticket moved, content not yet rewritten):
                # grant the claimer a full visibility window from the move.
                written = self._modified("leased", job_id)
                if written is None:
                    continue
                deadline = written + self.visibility
            if deadline >= now or not self._remove("leased", job_id):
                continue  # live, or completed or reaped concurrently
            if self._terminal(job_id) or self._find_ticket(job_id) is not None:
                continue  # ghost lease (e.g. a heartbeat raced a reap)
            reaped += 1
            attempt = lease.get("attempt", 1)
            self._retry(job_id, self._get("jobs", job_id) or {}, lease,
                        f"lease expired after attempt {attempt} "
                        f"(worker {lease.get('worker', '?')})", "reaped")
        return reaped

    def _retry(self, job_id: str, record: dict, lease: dict, error: str,
               event: str) -> None:
        """Re-queue a job whose lease was taken over, or dead-letter it
        once its attempt budget is spent."""
        attempt = lease.get("attempt", 1)
        now = self._now()
        if attempt < record.get("max_attempts", self.max_attempts):
            self._enqueue(job_id, attempt + 1, now + self.backoff(attempt), error)
            self._note(event, job_id)
        elif self._create("dead", job_id, {
            "error": error, "attempts": attempt,
            "started": lease.get("started"), "finished": now,
        }):
            # A worker finishing without its lease can write ``done`` after
            # our terminal check; whichever of us looks last removes the
            # dead letter, so a job is never both done and dead.
            if self._exists("done", job_id):
                self._remove("dead", job_id)
            else:
                self._note("dead_lettered", job_id)

    def _enqueue(self, job_id: str, attempt: int, not_before: float,
                 error: str | None) -> None:
        self._put("pending", ticket_key(not_before, attempt, job_id),
                  {"id": job_id, "attempt": attempt, "not_before": not_before,
                   "error": error})

    def _take_lease(self, job_id: str, worker_id: str) -> dict | None:
        """Atomically remove ``worker_id``'s lease and return its content.

        Move-then-verify: if the lease turns out to belong to another
        worker (it expired and was re-delivered between our read and our
        move), it is put back untouched and ``None`` returned.
        """
        scratch = f"{job_id}.{os.getpid()}.{next(_TAKEOVERS)}"
        if not self._move("leased", job_id, "tmp", scratch):
            return None
        lease = self._get("tmp", scratch)
        if lease is not None and lease.get("worker") == worker_id:
            self._remove("tmp", scratch)
            return lease
        self._move("tmp", scratch, "leased", job_id)
        return None

    def _terminal(self, job_id: str) -> bool:
        return any(self._exists(state, job_id) for state in TERMINAL_STATES)

    def _find_ticket(self, job_id: str) -> str | None:
        for key in self._keys("pending"):
            if ticket_job_id(key) == job_id:
                return key
        return None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def snapshot(self, job_id: str) -> dict[str, Any]:
        """The broker's view of one job: ``state`` (:data:`JOB_STATES`),
        ``attempts``, ``worker``, ``error``, ``results`` and timing
        fields (``started``, when the current or last delivery began, is
        ``None`` when unknown).  Raises :class:`UnknownBrokerJobError`."""
        record = self._get("jobs", job_id)
        if record is None:
            raise UnknownBrokerJobError(job_id)
        view = {"id": job_id, "created": record["created"],
                "max_attempts": record["max_attempts"], "state": "pending",
                "attempts": None, "worker": None, "results": None,
                "error": None, "started": None, "finished": None}
        done = self._get("done", job_id)
        if done is not None:
            return {**view, "state": "done", "attempts": done["attempt"],
                    "worker": done["worker"], "results": done["results"],
                    "started": done.get("started"), "finished": done["finished"],
                    "spans": self._job_spans(job_id)}
        dead = self._get("dead", job_id)
        if dead is not None:
            return {**view, "state": "dead", "attempts": dead["attempts"],
                    "error": dead["error"], "started": dead.get("started"),
                    "finished": dead["finished"], "spans": self._job_spans(job_id)}
        cancelled = self._get("cancelled", job_id)
        if cancelled is not None:
            return {**view, "state": "cancelled", "attempts": 0,
                    "finished": cancelled["finished"]}
        lease = self._get("leased", job_id)
        if lease is not None and "worker" in lease:
            return {**view, "state": "leased", "attempts": lease["attempt"],
                    "worker": lease["worker"], "started": lease.get("started"),
                    "deadline": lease["deadline"]}
        key = self._find_ticket(job_id)
        ticket = None if key is None else self._get("pending", key)
        if ticket is not None:
            return {**view, "attempts": ticket["attempt"] - 1,
                    "not_before": ticket["not_before"], "error": ticket.get("error")}
        return view  # transiently between states (mid-claim)

    def describe(self) -> str:
        """A short human-readable locator (shown by ``repro fleet``)."""
        return type(self).__name__

    def counts(self) -> dict[str, int]:
        """Jobs per state (``pending``/``leased``/``done``/``dead``/
        ``cancelled``)."""
        return {state: len(self._keys(state)) for state in JOB_STATES}

    def dead_letters(self, limit: int = 20) -> list[dict[str, Any]]:
        """The most recently dead-lettered jobs, newest first.

        Each row carries ``id``, ``error`` (the last delivery's failure
        string), ``attempts`` and ``finished`` — enough for ``/v2/stats``
        and ``repro fleet`` to say *why* a job died without a per-job
        lookup.
        """
        rows = []
        for job_id in self._keys("dead"):
            entry = self._get("dead", job_id)
            if entry is not None:
                rows.append({"id": job_id, "error": entry.get("error"),
                             "attempts": entry.get("attempts"),
                             "finished": entry.get("finished")})
        rows.sort(key=lambda row: row["finished"] or 0, reverse=True)
        return rows[:limit]

    def stats(self) -> dict[str, Any]:
        """The fleet document rendered into ``/v2/stats``."""
        now = self._now()
        # Worker rows minus the metrics snapshots they heartbeat in —
        # those belong to /v2/metrics, not a human-facing stats document.
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

    # ------------------------------------------------------------------
    # Worker registry
    # ------------------------------------------------------------------

    def register_worker(self, worker_id: str, capabilities: dict[str, Any]) -> None:
        now = self._now()
        self._put("workers", worker_id, {
            "id": worker_id,
            "capabilities": capabilities,
            "started": now,
            "heartbeat": now,
            "completed": 0,
            "failed": 0,
        })

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
        fold these into ``GET /v2/metrics``.
        """
        record = self._get("workers", worker_id)
        if record is None:
            raise BrokerError(f"worker {worker_id!r} is not registered")
        record = {**record, "heartbeat": self._now()}
        if completed is not None:
            record["completed"] = completed
        if failed is not None:
            record["failed"] = failed
        if metrics is not None:
            record["metrics"] = metrics
        self._put("workers", worker_id, record)

    def deregister_worker(self, worker_id: str) -> None:
        self._remove("workers", worker_id)

    def workers(self) -> list[dict[str, Any]]:
        """Registered workers with ``heartbeat_age`` and ``alive`` derived
        from :attr:`worker_ttl`, sorted by worker id."""
        now = self._now()
        views = []
        for worker_id in self._keys("workers"):
            record = self._get("workers", worker_id)
            if record is not None:
                age = max(now - record.get("heartbeat", record.get("started", now)), 0.0)
                views.append({**record, "heartbeat_age": age,
                              "alive": age <= self.worker_ttl})
        return sorted(views, key=lambda view: view["id"])
