"""Span-level tracing: explicit span trees stitched across processes.

The metrics registry (:mod:`repro.obs.metrics`) answers *how much* —
this module answers *where*: every hot boundary opens a :func:`span`
and the resulting records form one tree per trace id, stitched across
the service front end and fleet workers.  Process-pool workers record
no spans: the scheduler records each pool task in the driving process
(``pool.task``, from the pid, start and duration the task returns).

Design notes, mirroring the metrics idioms deliberately:

* **Process-global recorder.**  ``get_tracer()`` returns the ambient
  :class:`SpanRecorder`; completed spans buffer there until someone
  calls :meth:`SpanRecorder.drain` — fleet workers ship the drained
  list home with their job results.
* **Context propagation.**  Inside a process the active span rides a
  :class:`contextvars.ContextVar`; across processes the service ships a
  small *span context* dict (``trace_id`` / ``span_id`` / ``sampled``)
  in the broker ticket and the fleet worker re-binds it with
  :func:`bind_span_context`.
* **Head sampling.**  ``REPRO_TRACE_SAMPLE`` (default ``1``) is a
  probability applied *per trace id* via a stable hash, so one request
  is all-in or all-out across every process that touches it.  Unsampled
  (or traceless) call sites receive a module-level no-op singleton —
  no allocation, no timestamps, nothing to drain.
* **Clocks.**  Durations come from ``time.perf_counter`` (monotonic);
  the ``start`` stamp is wall-clock ``time.time`` so spans recorded on
  different hosts still line up on one waterfall.

Analysis helpers (:func:`build_tree`, :func:`critical_path`,
:func:`render_waterfall`, :func:`to_chrome_trace`) operate on plain
span dicts, so they work equally on a live recorder's drain, a
:class:`SpanStore` read, or a ``GET /v2/traces/{id}`` response body.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from collections import OrderedDict
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any, Iterable, Iterator, Sequence

from repro.obs.context import current_trace_id

__all__ = [
    "ENV_TRACE_SAMPLE",
    "SpanRecorder",
    "SpanStore",
    "bind_span_context",
    "build_tree",
    "critical_path",
    "current_span",
    "drain_spans",
    "get_tracer",
    "make_span",
    "new_span_id",
    "render_critical_path",
    "render_waterfall",
    "set_tracer",
    "span",
    "to_chrome_trace",
]

ENV_TRACE_SAMPLE = "REPRO_TRACE_SAMPLE"

#: ``(trace_id, span_id, sampled)`` — the wire-format span context.
#: ``None`` means "no active span": new spans consult the ambient trace
#: id and the sampling decision instead.
_SPAN_CONTEXT: ContextVar[tuple[str, str, bool] | None] = ContextVar(
    "repro_span_context", default=None)


#: The innermost open span of this context, for :func:`current_span`.
_CURRENT_SPAN: ContextVar["_ActiveSpan | None"] = ContextVar("repro_current_span", default=None)


def new_span_id() -> str:
    return os.urandom(8).hex()


def _env_sample_rate() -> float:
    raw = os.environ.get(ENV_TRACE_SAMPLE, "").strip().lower()
    if not raw:
        return 1.0
    if raw in ("off", "false", "no", "none"):
        return 0.0
    try:
        rate = float(raw)
    except ValueError:
        return 1.0
    return min(1.0, max(0.0, rate))


def _trace_unit(trace_id: str) -> float:
    """A stable uniform-[0,1) draw per trace id (hash, not RNG)."""
    digest = hashlib.blake2b(trace_id.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") / 2.0 ** 64


class _NoopSpan:
    """The shared do-nothing span: sampling off costs one ``if``."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        return False

    def set(self, **attrs: Any) -> "_NoopSpan":
        return self

    @property
    def span_id(self) -> None:  # parity with _ActiveSpan for callers
        return None


NOOP_SPAN = _NoopSpan()


class _ActiveSpan:
    """One live span: times itself, binds itself as the ambient parent."""

    __slots__ = ("_recorder", "trace_id", "span_id", "parent_id", "name",
                 "attrs", "status", "_start_wall", "_start_perf", "_token",
                 "_current_token")

    def __init__(self, recorder: "SpanRecorder", trace_id: str,
                 parent_id: str | None, name: str,
                 attrs: dict[str, Any]) -> None:
        self._recorder = recorder
        self.trace_id = trace_id
        self.span_id = new_span_id()
        self.parent_id = parent_id
        self.name = name
        self.attrs = attrs
        self.status = "ok"

    def set(self, **attrs: Any) -> "_ActiveSpan":
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "_ActiveSpan":
        self._token = _SPAN_CONTEXT.set((self.trace_id, self.span_id, True))
        self._current_token = _CURRENT_SPAN.set(self)
        self._start_wall = time.time()
        self._start_perf = time.perf_counter()
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> bool:
        duration = time.perf_counter() - self._start_perf
        _SPAN_CONTEXT.reset(self._token)
        _CURRENT_SPAN.reset(self._current_token)
        if exc_type is not None:
            self.status = "error"
            self.attrs.setdefault("error", getattr(exc_type, "__name__",
                                                   str(exc_type)))
        self._recorder.record(make_span(
            self.trace_id, self.span_id, self.parent_id, self.name,
            self._start_wall, duration, status=self.status,
            attrs=self.attrs))
        return False


def make_span(trace_id: str, span_id: str, parent_id: str | None, name: str,
              start: float, duration: float, status: str = "ok",
              attrs: dict[str, Any] | None = None,
              pid: int | None = None) -> dict[str, Any]:
    """Build one completed-span record (the JSON-safe wire shape)."""
    return {
        "trace_id": trace_id,
        "span_id": span_id,
        "parent_id": parent_id,
        "name": name,
        "start": start,
        "duration": duration,
        "status": status,
        "pid": os.getpid() if pid is None else pid,
        "attrs": dict(attrs or {}),
    }


class SpanRecorder:
    """Process-local buffer of completed spans (bounded, drainable).

    Thread-safe, with :meth:`drain` handing the buffered spans over
    exactly once — fleet workers ship that list home with results.
    """

    def __init__(self, enabled: bool | None = None,
                 sample_rate: float | None = None,
                 max_spans: int = 20000) -> None:
        self.sample_rate = (_env_sample_rate() if sample_rate is None
                            else min(1.0, max(0.0, sample_rate)))
        if enabled is None:
            enabled = self.sample_rate > 0.0
        self._enabled = bool(enabled)
        self.max_spans = max_spans
        self._lock = threading.Lock()
        self._spans: list[dict[str, Any]] = []
        self.dropped = 0
        # One-entry decision cache: call sites hit the same trace id in
        # bursts, so remember the last verdict instead of re-hashing.
        self._last_decision: tuple[str, bool] | None = None

    @property
    def enabled(self) -> bool:
        return self._enabled

    def sampled(self, trace_id: str) -> bool:
        """The head-sampling verdict for *trace_id* (stable everywhere)."""
        if not self._enabled:
            return False
        rate = self.sample_rate
        if rate >= 1.0:
            return True
        if rate <= 0.0:
            return False
        cached = self._last_decision
        if cached is not None and cached[0] == trace_id:
            return cached[1]
        verdict = _trace_unit(trace_id) < rate
        self._last_decision = (trace_id, verdict)
        return verdict

    def record(self, span_record: dict[str, Any]) -> None:
        with self._lock:
            if len(self._spans) >= self.max_spans:
                self.dropped += 1
                return
            self._spans.append(span_record)

    def drain(self) -> list[dict[str, Any]]:
        """Take (and clear) every buffered span — ship-once semantics."""
        with self._lock:
            spans, self._spans = self._spans, []
        return spans


def span(name: str, **attrs: Any) -> "_ActiveSpan | _NoopSpan":
    """Open a span under the ambient trace: ``with span("plan"): ...``.

    Returns the shared no-op singleton when tracing is disabled, when no
    trace id is bound, or when the trace lost the sampling draw — the
    unsampled path allocates nothing.
    """
    recorder = _TRACER
    if recorder is None:
        recorder = get_tracer()
    if not recorder._enabled:
        return NOOP_SPAN
    context = _SPAN_CONTEXT.get()
    if context is not None:
        trace_id, parent_id, sampled = context
        if not sampled:
            return NOOP_SPAN
    else:
        trace_id = current_trace_id()
        if trace_id is None or not recorder.sampled(trace_id):
            return NOOP_SPAN
        parent_id = None
    return _ActiveSpan(recorder, trace_id, parent_id, name, attrs)


def current_span() -> "_ActiveSpan | _NoopSpan":
    """The innermost span open in this context, or the no-op singleton.

    Lets code below a span's opener add attributes to it
    (``current_span().set(path="native")``) without the span being
    passed down.
    """
    return _CURRENT_SPAN.get() or NOOP_SPAN


@contextmanager
def bind_span_context(context: dict[str, Any] | None) -> Iterator[None]:
    """Adopt a span context shipped from another process or thread.

    ``context`` is ``{"trace_id", "span_id", "sampled"}``, the dict a
    service puts on a broker ticket: spans opened inside parent under
    ``span_id``, or record nothing when ``sampled`` is false.

    ``None`` restores the no-context state: a span opened inside has no
    parent and takes the ambient trace id and its sampling verdict.
    """
    if context is None:
        token = _SPAN_CONTEXT.set(None)
    else:
        token = _SPAN_CONTEXT.set((
            str(context["trace_id"]), str(context["span_id"]),
            bool(context.get("sampled", True))))
    try:
        yield
    finally:
        _SPAN_CONTEXT.reset(token)


# ----------------------------------------------------------------------
# Process-global recorder (get/set mirror get_metrics/set_metrics)
# ----------------------------------------------------------------------

_TRACER: SpanRecorder | None = None
_TRACER_LOCK = threading.Lock()


def get_tracer() -> SpanRecorder:
    global _TRACER
    if _TRACER is None:
        with _TRACER_LOCK:
            if _TRACER is None:
                _TRACER = SpanRecorder()
    return _TRACER


def set_tracer(recorder: SpanRecorder | None) -> SpanRecorder | None:
    """Swap the process-global recorder; returns the previous one.

    ``set_tracer(None)`` resets to a lazily re-created default.
    """
    global _TRACER
    with _TRACER_LOCK:
        previous, _TRACER = _TRACER, recorder
    return previous


def drain_spans() -> list[dict[str, Any]]:
    """Drain the ambient recorder (empty list when tracing never ran)."""
    recorder = _TRACER
    return recorder.drain() if recorder is not None else []


# ----------------------------------------------------------------------
# SpanStore: the service-side bounded trace buffer
# ----------------------------------------------------------------------

class SpanStore:
    """Bounded per-trace span buffer behind ``GET /v2/traces/{id}``.

    Traces evict LRU-by-ingest once ``max_traces`` is reached; within a
    trace, spans beyond ``max_spans_per_trace`` are dropped (counted).
    Ingest deduplicates on span id, so a re-observed broker snapshot or
    a duplicate completion cannot double-draw the waterfall.
    """

    def __init__(self, max_traces: int = 256,
                 max_spans_per_trace: int = 4096) -> None:
        self.max_traces = max_traces
        self.max_spans_per_trace = max_spans_per_trace
        self._lock = threading.Lock()
        self._traces: OrderedDict[str, list[dict[str, Any]]] = OrderedDict()
        self._seen: dict[str, set[str]] = {}
        self.dropped = 0

    def ingest(self, spans: Iterable[dict[str, Any]] | None) -> int:
        """File spans under their own ``trace_id``; returns the count kept."""
        if not spans:
            return 0
        kept = 0
        with self._lock:
            for record in spans:
                trace_id = record.get("trace_id")
                span_id = record.get("span_id")
                if not trace_id or not span_id:
                    continue
                bucket = self._traces.get(trace_id)
                if bucket is None:
                    while len(self._traces) >= self.max_traces:
                        evicted, _ = self._traces.popitem(last=False)
                        self._seen.pop(evicted, None)
                    bucket = self._traces[trace_id] = []
                    self._seen[trace_id] = set()
                seen = self._seen[trace_id]
                if span_id in seen:
                    continue
                if len(bucket) >= self.max_spans_per_trace:
                    self.dropped += 1
                    continue
                seen.add(span_id)
                bucket.append(dict(record))
                kept += 1
        return kept

    def get(self, trace_id: str) -> list[dict[str, Any]]:
        with self._lock:
            return [dict(record) for record in self._traces.get(trace_id, ())]

    def trace_ids(self) -> list[str]:
        with self._lock:
            return list(self._traces)

    def __len__(self) -> int:
        with self._lock:
            return sum(len(bucket) for bucket in self._traces.values())

    def export_jsonl(self, path: str | os.PathLike,
                     trace_id: str | None = None) -> int:
        """Spill spans (one JSON object per line); returns the line count."""
        with self._lock:
            if trace_id is None:
                records = [record for bucket in self._traces.values()
                           for record in bucket]
            else:
                records = list(self._traces.get(trace_id, ()))
        with open(path, "w", encoding="utf-8") as handle:
            for record in records:
                handle.write(json.dumps(record, sort_keys=True) + "\n")
        return len(records)


# ----------------------------------------------------------------------
# Tree analysis: stitching, critical path, waterfall, Chrome export
# ----------------------------------------------------------------------

def build_tree(spans: Sequence[dict[str, Any]]) -> list[dict[str, Any]]:
    """Stitch flat span records into ``{"span", "children"}`` nodes.

    Spans whose parent never arrived (still open, or lost with a killed
    worker) surface as extra roots rather than disappearing.  Children
    sort by start time, roots too.
    """
    nodes = {record["span_id"]: {"span": record, "children": []}
             for record in spans}
    roots: list[dict[str, Any]] = []
    for node in nodes.values():
        parent = node["span"].get("parent_id")
        if parent is not None and parent in nodes:
            nodes[parent]["children"].append(node)
        else:
            roots.append(node)
    for node in nodes.values():
        node["children"].sort(key=lambda child: child["span"]["start"])
    roots.sort(key=lambda node: node["span"]["start"])
    return roots


def _span_end(record: dict[str, Any]) -> float:
    return record["start"] + record["duration"]


def critical_path(spans: Sequence[dict[str, Any]]) -> list[dict[str, Any]]:
    """The chain of spans bounding the request's wall time.

    From the earliest root, repeatedly descend into the child that
    finishes last.  Each step reports its *exclusive* contribution
    (its duration minus the on-path child's), so the contributions
    telescope: they sum to the root's duration — i.e. the measured
    request wall time — and the percentages to ~100.
    """
    roots = build_tree(spans)
    if not roots:
        return []
    node = roots[0]
    total = node["span"]["duration"] or 0.0
    path: list[dict[str, Any]] = []
    while node is not None:
        nxt = max(node["children"],
                  key=lambda child: _span_end(child["span"]),
                  default=None)
        exclusive = node["span"]["duration"] - (
            nxt["span"]["duration"] if nxt is not None else 0.0)
        exclusive = max(0.0, exclusive)
        path.append({
            "span": node["span"],
            "exclusive": exclusive,
            "pct": (100.0 * exclusive / total) if total > 0 else 0.0,
        })
        node = nxt
    return path


def _format_ms(seconds: float) -> str:
    return f"{1000.0 * seconds:.1f}ms"


def render_waterfall(spans: Sequence[dict[str, Any]], width: int = 40) -> str:
    """A terminal waterfall: one line per span, bars on a shared axis."""
    roots = build_tree(spans)
    if not roots:
        return "(no spans)"
    t0 = min(node["span"]["start"] for node in roots)
    t1 = max(_span_end(record) for record in spans)
    window = max(t1 - t0, 1e-9)
    on_path = {entry["span"]["span_id"] for entry in critical_path(spans)}
    lines = [f"{'span':<38} {'wall':>9}  waterfall"]

    def emit(node: dict[str, Any], depth: int) -> None:
        record = node["span"]
        offset = int(width * (record["start"] - t0) / window)
        length = max(1, int(width * record["duration"] / window))
        length = min(length, width - min(offset, width - 1))
        bar = " " * min(offset, width - 1) + "▇" * length
        marker = "*" if record["span_id"] in on_path else " "
        flag = " !" if record.get("status") == "error" else ""
        label = ("  " * depth + record["name"] + flag)[:38]
        lines.append(f"{label:<38} {_format_ms(record['duration']):>9} "
                     f"{marker}|{bar:<{width}}|")
        for child in node["children"]:
            emit(child, depth + 1)

    for root in roots:
        emit(root, 0)
    return "\n".join(lines)


def render_critical_path(spans: Sequence[dict[str, Any]]) -> str:
    """The critical-path chain with exclusive-time percent attribution."""
    path = critical_path(spans)
    if not path:
        return "(no spans)"
    lines = ["critical path (exclusive time):"]
    for entry in path:
        record = entry["span"]
        lines.append(f"  {record['name']:<30} {_format_ms(entry['exclusive']):>9}"
                     f"  {entry['pct']:5.1f}%")
    total = sum(entry["exclusive"] for entry in path)
    lines.append(f"  {'total':<30} {_format_ms(total):>9}  100.0%")
    return "\n".join(lines)


def to_chrome_trace(spans: Sequence[dict[str, Any]]) -> dict[str, Any]:
    """Chrome trace-event JSON (open in Perfetto or ``chrome://tracing``).

    Complete events (``"ph": "X"``, microsecond timestamps) plus one
    process-name metadata event per pid, labelled from the span's
    ``proc`` attribute when present.
    """
    events: list[dict[str, Any]] = []
    process_names: dict[int, str] = {}
    for record in spans:
        pid = int(record.get("pid", 0))
        proc = record.get("attrs", {}).get("proc")
        if proc and pid not in process_names:
            process_names[pid] = str(proc)
        events.append({
            "name": record["name"],
            "cat": "repro",
            "ph": "X",
            "ts": record["start"] * 1e6,
            "dur": record["duration"] * 1e6,
            "pid": pid,
            "tid": pid,
            "args": {
                "trace_id": record.get("trace_id"),
                "span_id": record.get("span_id"),
                "status": record.get("status", "ok"),
                **record.get("attrs", {}),
            },
        })
    for pid, name in process_names.items():
        events.append({
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": pid,
            "args": {"name": name},
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}
