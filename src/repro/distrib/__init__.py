"""``repro.distrib`` — job dispatch through a broker, in one process or many.

Every job the service (:mod:`repro.service`) accepts goes through a
broker, in the coordinator/broker/worker shape:

* :mod:`repro.distrib.broker` — :class:`Broker`, the one job lifecycle:
  published jobs, leases with visibility timeouts, heartbeats,
  retry-with-backoff, bounded attempts ending in a dead-letter state,
  first-write-wins completion, and a worker registry with capability
  tags, written over a few atomic record-store primitives,
* :mod:`repro.distrib.memory` — :class:`MemoryBroker`, the in-process
  store: each lane of a plain ``repro serve`` runs on one, drained by an
  in-thread worker,
* :mod:`repro.distrib.fsbroker` — :class:`FileBroker`, the shared
  directory store, usable across processes and hosts (no new
  dependencies),
* :mod:`repro.distrib.worker` — :class:`FleetWorker`, the ``repro
  worker`` loop: lease → execute → heartbeat → complete, with graceful
  drain.

Topology across processes: N ``repro serve --broker <dir>`` front ends
publish jobs and watch for their completion; M ``repro worker --broker
<dir>`` processes execute them; one shared result store
(``--store-dir``) keeps the terminal documents.  ``connect_broker``
turns the shared ``--broker`` spec (a directory path) into a live
broker.  Another backing store plugs in by implementing the store
primitives of :class:`Broker`, not the lifecycle.
"""

from __future__ import annotations

from typing import Any

from repro.distrib.broker import (
    Broker,
    BrokerError,
    Lease,
    LeaseLostError,
    UnknownBrokerJobError,
)
from repro.distrib.fsbroker import FileBroker
from repro.distrib.memory import MemoryBroker
from repro.distrib.worker import FleetWorker, new_worker_id

__all__ = [
    "Broker",
    "BrokerError",
    "FileBroker",
    "FleetWorker",
    "Lease",
    "LeaseLostError",
    "MemoryBroker",
    "UnknownBrokerJobError",
    "connect_broker",
    "new_worker_id",
]


def connect_broker(spec: str, **policy: Any) -> Broker:
    """A live :class:`FileBroker` from a ``--broker`` / ``REPRO_BROKER``
    spec: a directory path, created on first use (share it between hosts
    to span machines).

    ``memory`` raises :class:`ValueError`: a broker private to one
    process cannot be shared with another, and plain ``repro serve``
    already runs an in-process broker per lane.  ``redis://`` and
    ``rediss://`` URLs raise too: no redis broker ships, and such a spec
    must not silently become a directory named ``redis:``.
    """
    if not spec or spec in ("memory", "memory:") or spec.startswith(("redis://", "rediss://")):
        raise ValueError(
            f"unsupported broker spec {spec!r}: use a shared directory path "
            "(FileBroker); for in-process execution, run plain 'repro serve' "
            "with no --broker or 'memory' spec"
        )
    return FileBroker(spec, **policy)
