"""An in-process broker: dicts under one lock, for local lanes.

:class:`MemoryBroker` is a record store for the lifecycle that
:class:`~repro.distrib.broker.Broker` writes once: each store primitive
runs under one lock, which makes it atomic for any number of front-end
and worker *threads* within one process.  Each lane of a local
``SimulationService`` runs on one, drained by an in-thread
``FleetWorker``.  Every state change sets the events passed to
:meth:`~repro.distrib.broker.Broker.listen` and names the job in their
change sets, so the worker and the service's watcher wake at once
instead of polling, and the watcher looks only at the jobs that moved.
Terminal jobs are forgotten oldest first beyond
:data:`TERMINAL_ENTRIES`, which keeps a long-running service bounded.  It cannot span processes; deploys use
:class:`~repro.distrib.fsbroker.FileBroker`, the same lifecycle over a
shared directory.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any

from repro.distrib.broker import JOB_STATES, TERMINAL_STATES, Broker

__all__ = ["MemoryBroker"]

#: Terminal (done, dead or cancelled) jobs remembered; older ones are
#: forgotten, and a snapshot of one raises ``UnknownBrokerJobError``.
TERMINAL_ENTRIES = 256


class MemoryBroker(Broker):
    """Dicts + one lock; see :class:`~repro.distrib.broker.Broker`."""

    in_process = True

    def __init__(self, **policy: Any) -> None:
        super().__init__(**policy)
        self._lock = threading.Lock()
        #: kind -> key -> (time last written or moved, record).  A dict keeps
        #: insertion order, which breaks delivery-order ties by publish
        #: sequence.
        self._tables: dict[str, dict[str, tuple[float, dict]]] = {
            kind: {} for kind in (*JOB_STATES, "jobs", "workers", "tmp")
        }
        #: Trace spans shipped by executing attempts, accumulated per
        #: job (every attempt files, so re-deliveries become siblings).
        self._spans: dict[str, list] = {}
        self._retired: deque[str] = deque()

    def describe(self) -> str:
        return "memory"

    # ------------------------------------------------------------------
    # Store primitives
    # ------------------------------------------------------------------

    def _create(self, kind: str, key: str, record: dict) -> bool:
        with self._lock:
            entry = (self._now(), record)
            if self._tables[kind].setdefault(key, entry) is not entry:
                return False
            if kind in TERMINAL_STATES:
                self._retire(key)
            return True

    # One dict lookup is atomic on its own: the reads take no lock.

    def _get(self, kind: str, key: str) -> dict | None:
        entry = self._tables[kind].get(key)
        return None if entry is None else entry[1]

    def _put(self, kind: str, key: str, record: dict) -> None:
        with self._lock:
            self._tables[kind][key] = (self._now(), record)

    def _remove(self, kind: str, key: str) -> bool:
        with self._lock:
            return self._tables[kind].pop(key, None) is not None

    def _move(self, kind: str, key: str, to_kind: str, to_key: str) -> bool:
        with self._lock:
            entry = self._tables[kind].pop(key, None)
            if entry is None:
                return False
            self._tables[to_kind][to_key] = (self._now(), entry[1])
            return True

    def _exists(self, kind: str, key: str) -> bool:
        return key in self._tables[kind]

    def _keys(self, kind: str) -> list[str]:
        with self._lock:
            return list(self._tables[kind])

    def _tickets(self) -> list[str]:
        with self._lock:
            table = self._tables["pending"]
            # A stable sort: publish order within one not-before time.
            return sorted(table, key=lambda key: table[key][1]["not_before"])

    def _modified(self, kind: str, key: str) -> float | None:
        entry = self._tables[kind].get(key)
        return None if entry is None else entry[0]

    def _file_spans(self, job_id: str, spans: list | None) -> None:
        if spans:
            with self._lock:
                self._spans.setdefault(job_id, []).extend(spans)

    def _job_spans(self, job_id: str) -> list:
        with self._lock:
            return list(self._spans.get(job_id, ()))

    def _retire(self, job_id: str) -> None:
        """Note ``job_id`` terminal; forget the oldest beyond the bound."""
        self._retired.append(job_id)
        while len(self._retired) > TERMINAL_ENTRIES:
            old = self._retired.popleft()
            for kind in ("jobs", "leased", *TERMINAL_STATES):
                self._tables[kind].pop(old, None)
            self._spans.pop(old, None)
