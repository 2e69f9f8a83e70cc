"""``repro.distrib`` — the multi-host scale-out subsystem.

The single-process service (:mod:`repro.service`) executes jobs on its
own runner; this package splits that across processes and hosts in the
coordinator/broker/worker shape:

* :mod:`repro.distrib.broker` — the :class:`Broker` contract: published
  jobs, leases with visibility timeouts, heartbeats, retry-with-backoff,
  bounded attempts ending in a dead-letter state, first-write-wins
  completion, and a worker registry with capability tags,
* :mod:`repro.distrib.memory` — :class:`MemoryBroker`, in-process (tests
  and single-host composition),
* :mod:`repro.distrib.fsbroker` — :class:`FileBroker`, a shared
  directory usable across processes and hosts (no new dependencies),
* :mod:`repro.distrib.worker` — :class:`FleetWorker`, the ``repro
  worker`` loop: lease → execute → heartbeat → complete, with graceful
  drain.

Topology: N ``repro serve --broker <spec>`` front ends publish jobs and
watch for their completion; M ``repro worker --broker <spec>`` processes
execute them; one shared result store (``--store-dir``) keeps the
terminal documents.  ``connect_broker`` turns the shared ``--broker``
spec (a directory path or ``memory``) into a live broker.  Another
backing store plugs in by implementing the :class:`Broker` contract.
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
    """A live broker from a ``--broker`` / ``REPRO_BROKER`` spec.

    * ``memory`` (or ``memory:``) — an in-process :class:`MemoryBroker`
      (only useful when front end and workers share one process, e.g.
      tests and benchmarks),
    * anything else — a directory path for the :class:`FileBroker`
      (created on first use; share it between hosts to span machines).

    ``redis://`` and ``rediss://`` URLs raise :class:`ValueError`: no
    redis broker ships, and such a spec must not silently become a
    directory named ``redis:``.
    """
    if not spec or spec.startswith(("redis://", "rediss://")):
        raise ValueError(
            f"unsupported broker spec {spec!r}: use a directory path (FileBroker) "
            "or 'memory' (MemoryBroker)"
        )
    if spec in ("memory", "memory:"):
        return MemoryBroker(**policy)
    return FileBroker(spec, **policy)
