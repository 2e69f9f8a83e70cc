"""Trace-id propagation: one id follows a job across processes.

A trace id is minted once — at the CLI or at ``POST /v2/runs`` — and
then carried through job documents, broker payloads, and worker
execution.  Inside a process it rides a :class:`contextvars.ContextVar`
so log records pick it up without threading it through every call.

Context vars do **not** cross ``threading.Thread`` boundaries, so code
that hops threads (fleet worker, worker heartbeat) re-binds the
id explicitly with :func:`bind_trace_id`.
"""

from __future__ import annotations

import re
import uuid
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator

#: Accepted wire format for externally supplied ids (HTTP header, CLI
#: flag).  Anything else is rejected rather than sanitised, so a grep
#: for the id the caller chose always matches what the logs carry.
_TRACE_ID_RE = re.compile(r"^[A-Za-z0-9._:-]{1,80}$")

_TRACE_ID: ContextVar[str | None] = ContextVar("repro_trace_id",
                                               default=None)


def new_trace_id() -> str:
    return "tr-" + uuid.uuid4().hex[:16]


def valid_trace_id(value: object) -> bool:
    return isinstance(value, str) and bool(_TRACE_ID_RE.match(value))


def ensure_trace_id(value: object = None) -> str:
    """Return *value* if it is a usable trace id, else mint a fresh one."""
    if valid_trace_id(value):
        return value  # type: ignore[return-value]
    return new_trace_id()


def current_trace_id() -> str | None:
    return _TRACE_ID.get()


@contextmanager
def bind_trace_id(trace_id: str | None) -> Iterator[str | None]:
    """Bind *trace_id* as the ambient id for the enclosed block."""
    token = _TRACE_ID.set(trace_id)
    try:
        yield trace_id
    finally:
        _TRACE_ID.reset(token)
