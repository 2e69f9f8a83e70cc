"""The span timer shared by the workloads and the layer wrappers.

With no recorder installed (untraced runs) :func:`timed` records nothing.
"""

from __future__ import annotations

import contextvars
import os
import threading
import time
from contextlib import contextmanager

from repro.obs import get_tracer, make_span
from repro.obs.spans import new_span_id

#: Marks spans this benchmark recorded, so they can be told apart from the
#: program's own spans after a pool child ships them home.
MARK = "perfbench"

#: ``(pid, span_id)`` of the innermost open timer.  The pid matters in a
#: forked pool child: it inherits the forking thread's context, whose
#: open span lives in another process and must not become a parent.
_CURRENT: contextvars.ContextVar = contextvars.ContextVar("perfbench_span", default=None)


class Recorder:
    """In-memory span list of one traced run, plus its side counts."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.pid = os.getpid()
        #: Wall time the traced window opened.
        self.opened = time.time()
        self.spans: list[dict] = []
        #: Submit-to-result seconds of every task handed to a process pool.
        self.task_turnaround: list[float] = []
        #: Broker job id -> wall time its completion was written.
        self.completed_at: dict[str, float] = {}
        self._lock = threading.Lock()

    def add(self, record: dict) -> None:
        if os.getpid() != self.pid:
            # A pool child: ship home through the program's span drain.
            get_tracer().record(record)
            return
        with self._lock:
            self.spans.append(record)

    def absorb(self, records: list[dict]) -> None:
        with self._lock:
            self.spans.extend(records)


_RECORDER: Recorder | None = None


def set_recorder(recorder: Recorder | None) -> None:
    global _RECORDER
    _RECORDER = recorder


def current_recorder() -> Recorder | None:
    return _RECORDER


@contextmanager
def timed(name: str, layer: str, **attrs):
    """Record one span around the ``with`` body; yields its attrs dict."""
    recorder = _RECORDER
    if recorder is None:
        yield attrs
        return
    pid = os.getpid()
    current = _CURRENT.get()
    parent = current[1] if current is not None and current[0] == pid else None
    span_id = new_span_id()
    token = _CURRENT.set((pid, span_id))
    wall = time.time()
    start = time.perf_counter()
    try:
        yield attrs
    finally:
        duration = time.perf_counter() - start
        _CURRENT.reset(token)
        attrs.update({MARK: 1, "layer": layer, "thread": threading.current_thread().name})
        recorder.add(make_span(recorder.run_id, span_id, parent, name, wall,
                               duration, attrs=attrs))
