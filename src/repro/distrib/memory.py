"""An in-process broker: the reference implementation and local lanes.

Every structure lives behind one lock, so the memory broker is safe for
any number of front-end and worker *threads* within one process.  Each
lane of a local ``SimulationService`` runs on one, drained by an
in-thread ``FleetWorker``.  Every state change sets the events passed
to :meth:`~repro.distrib.broker.Broker.listen`, so the worker and the
service's watcher wake at once instead of polling.  Terminal jobs are
forgotten oldest first beyond :data:`TERMINAL_ENTRIES`, which keeps a
long-running service bounded.  It cannot span processes; deploys use
:class:`~repro.distrib.fsbroker.FileBroker`, which implements the same
semantics.
"""

from __future__ import annotations

import itertools
import threading
from collections import deque
from typing import Any

from repro.distrib.broker import (
    Broker,
    BrokerError,
    Lease,
    LeaseLostError,
    UnknownBrokerJobError,
    worker_view,
)

__all__ = ["MemoryBroker"]

#: Terminal (done, dead or cancelled) jobs remembered; older ones are
#: forgotten, and a snapshot of one raises ``UnknownBrokerJobError``.
TERMINAL_ENTRIES = 256


class MemoryBroker(Broker):
    """Dicts + one lock; see :class:`~repro.distrib.broker.Broker`."""

    in_process = True

    def __init__(self, **policy: Any) -> None:
        super().__init__(**policy)
        self._lock = threading.RLock()
        self._seq = itertools.count()
        self._jobs: dict[str, dict] = {}
        #: Deliverable tickets: {"id", "attempt", "not_before", "seq"}.
        self._pending: list[dict] = []
        self._leases: dict[str, dict] = {}
        self._done: dict[str, dict] = {}
        self._dead: dict[str, dict] = {}
        self._cancelled: dict[str, float] = {}
        self._workers: dict[str, dict] = {}
        #: Trace spans shipped by executing attempts, accumulated per
        #: job (every attempt files, so re-deliveries become siblings).
        self._spans: dict[str, list] = {}
        self._terminal: deque[str] = deque()

    # ------------------------------------------------------------------
    # Job lifecycle
    # ------------------------------------------------------------------

    def publish(self, job_id: str, payload: dict, max_attempts: int | None = None) -> None:
        with self._lock:
            if job_id in self._jobs:
                raise BrokerError(f"job {job_id!r} is already published")
            self._jobs[job_id] = {
                "id": job_id,
                "payload": payload,
                "max_attempts": max_attempts or self.max_attempts,
                "created": self._now(),
                "error": None,
            }
            self._enqueue(job_id, attempt=1, not_before=self._now())
        self._note("published")

    def _enqueue(self, job_id: str, attempt: int, not_before: float) -> None:
        self._pending.append(
            {"id": job_id, "attempt": attempt, "not_before": not_before,
             "seq": next(self._seq)}
        )
        self._pending.sort(key=lambda ticket: (ticket["not_before"], ticket["seq"]))

    def lease(self, worker_id: str) -> Lease | None:
        with self._lock:
            self.reap()
            now = self._now()
            for index, ticket in enumerate(self._pending):
                if ticket["not_before"] > now:
                    continue
                del self._pending[index]
                deadline = now + self.visibility
                self._leases[ticket["id"]] = {
                    "worker": worker_id,
                    "attempt": ticket["attempt"],
                    "deadline": deadline,
                    "started": now,
                }
                job = self._jobs[ticket["id"]]
                self._note("leased")
                return Lease(ticket["id"], job["payload"], ticket["attempt"],
                             deadline, worker_id)
            return None

    def heartbeat(self, job_id: str, worker_id: str) -> float:
        with self._lock:
            lease = self._leases.get(job_id)
            if lease is None or lease["worker"] != worker_id:
                raise LeaseLostError(f"worker {worker_id!r} no longer holds job {job_id!r}")
            lease["deadline"] = self._now() + self.visibility
            return lease["deadline"]

    def complete(self, job_id: str, worker_id: str, results: Any,
                 spans: list | None = None) -> bool:
        with self._lock:
            if job_id not in self._jobs:
                raise UnknownBrokerJobError(job_id)
            if spans:
                self._spans.setdefault(job_id, []).extend(spans)
            if job_id in self._done:
                # First write won already (a re-delivered twin finished
                # earlier); drop our lease if we still hold one.
                self._drop_lease(job_id, worker_id)
                return False
            lease = self._leases.get(job_id)
            self._done[job_id] = {
                "results": results,
                "worker": worker_id,
                "attempt": lease["attempt"] if lease else None,
                "started": lease["started"] if lease else None,
                "finished": self._now(),
            }
            self._drop_lease(job_id, worker_id)
            self._discard_pending(job_id)
            self._retire(job_id)
        self._note("completed")
        return True

    def fail(self, job_id: str, worker_id: str, error: str,
             spans: list | None = None) -> None:
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                raise UnknownBrokerJobError(job_id)
            if spans:
                self._spans.setdefault(job_id, []).extend(spans)
            if job_id in self._done or job_id in self._dead:
                return  # already terminal; a late failure report is moot
            lease = self._leases.get(job_id)
            attempt = lease["attempt"] if lease else 1
            self._drop_lease(job_id, worker_id)
            job["error"] = error
            if attempt >= job["max_attempts"]:
                self._dead[job_id] = {
                    "error": error,
                    "attempts": attempt,
                    "started": lease["started"] if lease else None,
                    "finished": self._now(),
                }
                self._retire(job_id)
                dead = True
            else:
                self._enqueue(job_id, attempt + 1,
                              self._now() + self.backoff(attempt))
                dead = False
        self._note("dead_lettered" if dead else "retried")

    def cancel(self, job_id: str) -> bool:
        with self._lock:
            if job_id not in self._jobs:
                raise UnknownBrokerJobError(job_id)
            for index, ticket in enumerate(self._pending):
                if ticket["id"] == job_id:
                    del self._pending[index]
                    self._cancelled[job_id] = self._now()
                    self._retire(job_id)
                    self._changed()
                    return True
            return False

    def reap(self) -> int:
        dead = 0
        with self._lock:
            now = self._now()
            reaped = 0
            for job_id, lease in list(self._leases.items()):
                if lease["deadline"] >= now:
                    continue
                del self._leases[job_id]
                reaped += 1
                job = self._jobs[job_id]
                attempt = lease["attempt"]
                error = (f"lease expired after attempt {attempt} "
                         f"(worker {lease['worker']})")
                job["error"] = error
                if attempt >= job["max_attempts"]:
                    self._dead[job_id] = {
                        "error": error, "attempts": attempt,
                        "started": lease["started"], "finished": now,
                    }
                    self._retire(job_id)
                    dead += 1
                else:
                    self._enqueue(job_id, attempt + 1, now + self.backoff(attempt))
        self._note("reaped", reaped - dead)
        self._note("dead_lettered", dead)
        return reaped

    def _drop_lease(self, job_id: str, worker_id: str) -> None:
        lease = self._leases.get(job_id)
        if lease is not None and lease["worker"] == worker_id:
            del self._leases[job_id]

    def _discard_pending(self, job_id: str) -> None:
        self._pending = [t for t in self._pending if t["id"] != job_id]

    def _retire(self, job_id: str) -> None:
        """Note ``job_id`` terminal; forget the oldest beyond the bound."""
        self._terminal.append(job_id)
        while len(self._terminal) > TERMINAL_ENTRIES:
            old = self._terminal.popleft()
            for table in (self._jobs, self._done, self._dead, self._cancelled, self._spans):
                table.pop(old, None)

    def _note(self, event: str, amount: int = 1) -> None:
        super()._note(event, amount)
        if amount:
            self._changed()

    def _changed(self) -> None:
        for listener in self._listeners:
            listener.set()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def snapshot(self, job_id: str) -> dict[str, Any]:
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                raise UnknownBrokerJobError(job_id)
            base = {
                "id": job_id,
                "created": job["created"],
                "max_attempts": job["max_attempts"],
                "error": job["error"],
            }
            done = self._done.get(job_id)
            if done is not None:
                return {**base, "state": "done", "attempts": done["attempt"],
                        "worker": done["worker"], "results": done["results"],
                        "started": done["started"],
                        "finished": done["finished"], "error": None,
                        "spans": list(self._spans.get(job_id, ()))}
            dead = self._dead.get(job_id)
            if dead is not None:
                return {**base, "state": "dead", "attempts": dead["attempts"],
                        "worker": None, "results": None, "started": dead["started"],
                        "finished": dead["finished"], "error": dead["error"],
                        "spans": list(self._spans.get(job_id, ()))}
            if job_id in self._cancelled:
                return {**base, "state": "cancelled", "attempts": 0,
                        "worker": None, "results": None,
                        "finished": self._cancelled[job_id]}
            lease = self._leases.get(job_id)
            if lease is not None:
                return {**base, "state": "leased", "attempts": lease["attempt"],
                        "worker": lease["worker"], "results": None,
                        "started": lease["started"],
                        "deadline": lease["deadline"], "finished": None}
            for ticket in self._pending:
                if ticket["id"] == job_id:
                    return {**base, "state": "pending",
                            "attempts": ticket["attempt"] - 1, "worker": None,
                            "results": None, "not_before": ticket["not_before"],
                            "finished": None}
            # Transiently between states (shouldn't persist): report pending.
            return {**base, "state": "pending", "attempts": None, "worker": None,
                    "results": None, "finished": None}

    def counts(self) -> dict[str, int]:
        with self._lock:
            return {
                "pending": len(self._pending),
                "leased": len(self._leases),
                "done": len(self._done),
                "dead": len(self._dead),
                "cancelled": len(self._cancelled),
            }

    def dead_letters(self, limit: int = 20) -> list[dict[str, Any]]:
        with self._lock:
            rows = [
                {"id": job_id, "error": entry["error"],
                 "attempts": entry["attempts"], "finished": entry["finished"]}
                for job_id, entry in self._dead.items()
            ]
        rows.sort(key=lambda row: row["finished"], reverse=True)
        return rows[:limit]

    def describe(self) -> str:
        return "memory"

    # ------------------------------------------------------------------
    # Worker registry
    # ------------------------------------------------------------------

    def register_worker(self, worker_id: str, capabilities: dict[str, Any]) -> None:
        with self._lock:
            now = self._now()
            self._workers[worker_id] = {
                "id": worker_id,
                "capabilities": capabilities,
                "started": now,
                "heartbeat": now,
                "completed": 0,
                "failed": 0,
            }

    def worker_heartbeat(
        self,
        worker_id: str,
        completed: int | None = None,
        failed: int | None = None,
        metrics: dict[str, Any] | None = None,
    ) -> None:
        with self._lock:
            record = self._workers.get(worker_id)
            if record is None:
                raise BrokerError(f"worker {worker_id!r} is not registered")
            record["heartbeat"] = self._now()
            if completed is not None:
                record["completed"] = completed
            if failed is not None:
                record["failed"] = failed
            if metrics is not None:
                record["metrics"] = metrics

    def deregister_worker(self, worker_id: str) -> None:
        with self._lock:
            self._workers.pop(worker_id, None)

    def workers(self) -> list[dict[str, Any]]:
        with self._lock:
            now = self._now()
            return [
                worker_view(record, now, self.worker_ttl)
                for _, record in sorted(self._workers.items())
            ]
