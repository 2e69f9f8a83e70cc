"""The service job model and wire protocol.

A *job* is one submission: a single :class:`~repro.api.request.RunRequest`
or a batch of them, travelling together through the queue and executed as
one :meth:`~repro.api.runner.Runner.run_batch` call (so identical runs
inside a batch are deduplicated by the scheduler).  The job document —
:meth:`Job.to_dict` — is the single JSON shape served by
``GET /v2/runs/<id>``, returned by ``POST /v2/runs?wait=1`` and persisted
in the result store, so a client never sees different layouts for live
and stored jobs.
"""

from __future__ import annotations

import enum
import itertools
import threading
import time
import uuid
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from repro.api.request import RunRequest, validate_shard_coverage
from repro.obs import new_trace_id
from repro.predictors.registry import available
from repro.traces.refs import parse_trace_ref

__all__ = [
    "Job",
    "JobStatus",
    "MAX_BATCH_REQUESTS",
    "ProtocolError",
    "TERMINAL_STATUSES",
    "estimate_branches",
    "parse_submission",
]

#: Upper bound on requests per submission: a misbehaving client posting a
#: million-entry batch should get a 400, not wedge the queue for hours.
MAX_BATCH_REQUESTS = 256

_COUNTER = itertools.count(1)


class ProtocolError(ValueError):
    """A malformed submission (maps to HTTP 400).

    Carries a stable machine-readable ``code`` alongside the human
    message: the v2 API's error envelope exposes the code, so clients
    branch on ``invalid_request`` / ``unknown_predictor`` / … instead of
    matching Python exception prose (which is not API).
    """

    def __init__(self, message: str, code: str = "invalid_request") -> None:
        super().__init__(message)
        self.code = code


class JobStatus(enum.Enum):
    """Lifecycle of a job: queued → running → done | failed, or
    queued → cancelled (running jobs cannot be cancelled)."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    @property
    def terminal(self) -> bool:
        return self in (JobStatus.DONE, JobStatus.FAILED, JobStatus.CANCELLED)


#: Wire-level terminal status strings — the single source the HTTP wait
#: path, the client's poll loop and the submit CLI all check against.
TERMINAL_STATUSES = frozenset(status.value for status in JobStatus if status.terminal)


def new_job_id() -> str:
    """A unique, filesystem- and URL-safe job id (``job-<seq>-<hex>``)."""
    return f"job-{next(_COUNTER)}-{uuid.uuid4().hex[:8]}"


@dataclass
class Job:
    """One submission moving through the service.

    ``batch`` records whether the client posted a list — it decides
    whether clients unwrapping the document should read ``results`` as a
    list or take its only element, mirroring how ``repro run`` prints
    one payload for one request and a list for several.
    """

    requests: list[RunRequest]
    batch: bool
    id: str = field(default_factory=new_job_id)
    status: JobStatus = JobStatus.QUEUED
    created: float = field(default_factory=time.time)
    started: float | None = None
    finished: float | None = None
    error: str | None = None
    results: list[dict] | None = None
    #: Broker-dispatch provenance: the executing fleet worker's id and
    #: how many lease deliveries the job took (1 = no re-delivery).
    #: Both stay ``None`` in single-process mode.
    worker: str | None = None
    attempts: int | None = None
    #: The id that follows this job through logs, broker tickets and
    #: worker execution.  Minted at submission (or adopted from the
    #: client's ``X-Trace-Id`` header / ``--trace-id`` flag).
    trace_id: str = field(default_factory=new_trace_id)
    #: Authenticated client identity (quota accounting) and the lane the
    #: job was routed to.  Deliberately NOT part of
    #: :meth:`to_dict`: job documents stay byte-identical whether auth
    #: and lanes are configured or not.
    client: str | None = field(default=None, compare=False)
    lane: str = field(default="default", compare=False)
    #: Root span id of this job's trace tree (``None`` when the trace
    #: lost the sampling draw).  Like ``client``/``lane`` it is NOT part
    #: of :meth:`to_dict`: span data travels through the span store and
    #: ``GET /v2/traces/{id}``, never the job document.
    root_span: str | None = field(default=None, compare=False)
    done_event: threading.Event = field(default_factory=threading.Event, repr=False)
    #: Completion callbacks (fired once, after the terminal state is
    #: visible); the async front end bridges these onto its event loop.
    #: Appended under the service lock — see ``SimulationService.subscribe``.
    done_callbacks: list = field(default_factory=list, repr=False, compare=False)

    def mark_done(self) -> None:
        """Wake every waiter: the threading event and the subscribed callbacks.

        Call sites guarantee the terminal state (and the store copy) are
        already visible.  Callbacks must not raise; a failed bridge into
        a dead event loop must not take the watcher thread with it.
        """
        self.done_event.set()
        for callback in self.done_callbacks:
            try:
                callback()
            except Exception:  # noqa: BLE001 - waiter bridges must not kill dispatch
                pass

    def to_dict(self) -> dict[str, Any]:
        """The job document (JSON-pure, identical live and from a store)."""
        return {
            "id": self.id,
            "status": self.status.value,
            "batch": self.batch,
            "requests": [request.to_dict() for request in self.requests],
            "created": self.created,
            "started": self.started,
            "finished": self.finished,
            "error": self.error,
            "results": self.results,
            "worker": self.worker,
            "attempts": self.attempts,
            "trace_id": self.trace_id,
        }


def parse_submission(payload: Any) -> tuple[list[RunRequest], bool]:
    """Parse a ``POST /v2/runs`` body into requests.

    Accepts one request object or a non-empty list of at most
    :data:`MAX_BATCH_REQUESTS`; anything else (including invalid
    individual requests — unknown keys, bad scenarios, unparsable trace
    references, unregistered predictor kinds) raises
    :class:`ProtocolError` naming the offending entry.  Kind validation
    happens here, at submission time, so a typo is a 400 at the door
    rather than a failed job minutes later.  (Config *values* are only
    checked by the factory at execution; a bad config still fails the
    job, not the service.)
    """
    if isinstance(payload, Sequence) and not isinstance(payload, (str, bytes)):
        entries = list(payload)
        if not entries:
            raise ProtocolError(
                "batch submission must contain at least one request",
                code="empty_batch",
            )
        if len(entries) > MAX_BATCH_REQUESTS:
            raise ProtocolError(
                f"batch of {len(entries)} requests exceeds the limit of {MAX_BATCH_REQUESTS}",
                code="batch_too_large",
            )
        batch = True
    elif isinstance(payload, Mapping):
        entries = [payload]
        batch = False
    else:
        raise ProtocolError(
            f"submission must be a run request object or a list of them, "
            f"got {type(payload).__name__}",
            code="invalid_submission",
        )
    requests = []
    kinds = None
    for index, entry in enumerate(entries):
        where = f"request {index}" if batch else "request"
        try:
            request = RunRequest.from_dict(entry)
        except (ValueError, KeyError, TypeError) as error:
            message = error.args[0] if error.args else error
            raise ProtocolError(f"{where}: {message}", code="invalid_request") from None
        if kinds is None:
            kinds = set(available())
        if request.predictor.kind not in kinds:
            raise ProtocolError(
                f"{where}: unknown predictor kind {request.predictor.kind!r}; "
                f"registered kinds: {available()}",
                code="unknown_predictor",
            )
        requests.append(request)
    try:
        # Duplicate or overlapping shard submissions in one batch would
        # merge into a silently wrong sum — reject them at the door.
        validate_shard_coverage(requests)
    except ValueError as error:
        raise ProtocolError(str(error), code="shard_conflict") from None
    return requests, batch


def estimate_branches(requests: Sequence[RunRequest]) -> int:
    """Estimated total simulated branches across a job's requests.

    Trace references carry their length as parameters, so the estimate
    needs no trace resolution and is exact for every built-in scheme.
    The service's priority lanes use it to keep interactive submissions
    out of the shadow of fig10-sized batches.
    """
    return sum(parse_trace_ref(request.trace).branch_estimate for request in requests)
