"""``repro.service`` — the HTTP simulation service.

A stdlib-only front end that turns the serializable run API into a
long-running server: clients ``POST`` :class:`~repro.api.request.RunRequest`
JSON, jobs pass a bounded admission queue into per-lane brokers, and
workers (one thread per lane, or a ``repro worker`` fleet) execute them
on :class:`~repro.api.runner.Runner` instances in persistent mode.
Most tasks run on the native kernel in the worker's own process; only
interp-routed ones (``snap``, ``ftl``, ``interp`` selections, anything
the kernels decline) go to a long-lived
:class:`~repro.pipeline.parallel.WorkerPool`, whose processes outlive
each job, so those requests pay process spawn once.

Layers (each usable on its own):

* :mod:`repro.service.protocol` — the job model and submission parsing,
* :mod:`repro.service.store` — pluggable result stores (memory / disk),
* :mod:`repro.service.quota` — per-client rate limits and job caps,
* :mod:`repro.service.auth` — bearer-token authentication,
* :mod:`repro.service.core` — :class:`SimulationService`: admission,
  priority lanes, brokered dispatch, graceful drain, stats,
* :mod:`repro.service.aio` — the asyncio HTTP/1.1 transport,
* :mod:`repro.service.app` — the application: the ``/v2/`` API
  (error envelope, pagination, capabilities); ``/v1/`` answers
  ``410 Gone``,
* :mod:`repro.service.client` — a keep-alive ``http.client`` client
  (used by ``repro submit`` and the tests),
* :mod:`repro.service.spec` — the machine-readable endpoint table
  (``python -m repro.service.spec``) CI diffs against the README.

Start one with ``repro serve`` or::

    from repro.service import SimulationService, serve

    with SimulationService() as service:
        serve(service, host="127.0.0.1", port=8321)

For multi-host deployments, construct the service with a
:mod:`repro.distrib` broker (``repro serve --broker <spec>``): jobs are
published to the broker and executed by a separate ``repro worker``
fleet instead of an in-process runner; ``GET /v2/stats`` then carries a
``fleet`` section with per-worker liveness and throughput.
"""

from repro.service.app import ServiceHTTPServer, make_server, serve
from repro.service.auth import AuthError, TokenAuth, is_loopback_host
from repro.service.client import ServiceClient, ServiceClientError
from repro.service.core import (
    CancelConflictError,
    QueueFullError,
    ServiceClosedError,
    SimulationService,
    UnknownJobError,
)
from repro.service.protocol import (
    Job,
    JobStatus,
    ProtocolError,
    estimate_branches,
    parse_submission,
)
from repro.service.quota import ClientQuota, QuotaPolicy, RateLimitedError
from repro.service.store import DiskResultStore, MemoryResultStore, ResultStore

__all__ = [
    "AuthError",
    "CancelConflictError",
    "ClientQuota",
    "DiskResultStore",
    "Job",
    "JobStatus",
    "MemoryResultStore",
    "ProtocolError",
    "QueueFullError",
    "QuotaPolicy",
    "RateLimitedError",
    "ResultStore",
    "ServiceClient",
    "ServiceClientError",
    "ServiceClosedError",
    "ServiceHTTPServer",
    "SimulationService",
    "TokenAuth",
    "UnknownJobError",
    "estimate_branches",
    "is_loopback_host",
    "make_server",
    "parse_submission",
    "serve",
]
