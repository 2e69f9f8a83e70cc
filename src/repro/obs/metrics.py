"""Process-wide metrics registry: counters, gauges, histograms.

Pure stdlib, thread-safe, and **mergeable across processes**: every
instrument can be serialised into a JSON-pure snapshot, shipped over a
broker heartbeat, and folded back into another registry with
:meth:`MetricsRegistry.merge`.  That is how ``FleetWorker`` hosts report
back to the process that renders ``GET /v2/metrics``.

:meth:`MetricsRegistry.snapshot` is cumulative and idempotent.  Fleet
workers ship it on every heartbeat; the front end keeps the latest
snapshot per worker and sums them, so a lost heartbeat never
double-counts.  Process-pool workers record nothing: the scheduler
records each pool task in the driving process from the timing the task
returns.

Rendering follows the Prometheus text exposition format
(``render_prometheus``).  The registry honours ``REPRO_METRICS=off``:
a disabled registry keeps handing out instruments whose mutators
return immediately, so instrumented code needs no conditionals.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager
from typing import Iterator, Mapping, Sequence

ENV_METRICS = "REPRO_METRICS"

#: Default histogram boundaries, tuned for wall-clock seconds from
#: sub-millisecond kernel calls up to minute-long fleet jobs.
SECONDS_BUCKETS: tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)

_INF = float("inf")


def _format_value(value: float) -> str:
    if value == _INF:
        return "+Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _encode_key(key: tuple[str, ...]) -> str:
    return json.dumps(list(key))


def _decode_key(encoded: str) -> tuple[str, ...]:
    return tuple(json.loads(encoded))


class _Instrument:
    """Shared plumbing: label validation and the registry's lock."""

    kind = "untyped"

    def __init__(self, name: str, help_text: str,
                 labelnames: Sequence[str], lock: threading.RLock,
                 enabled_ref: list[bool]) -> None:
        self.name = name
        self.help = help_text
        self.labelnames = tuple(labelnames)
        self._lock = lock
        self._enabled = enabled_ref  # one-element list shared with registry

    def _key(self, labels: Mapping[str, object]) -> tuple[str, ...]:
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"metric {self.name!r} expects labels {self.labelnames}, "
                f"got {tuple(sorted(labels))}")
        return tuple(str(labels[name]) for name in self.labelnames)


class Counter(_Instrument):
    """Monotonically increasing count; merge is addition."""

    kind = "counter"

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self._values: dict[tuple[str, ...], float] = {}

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        if not self._enabled[0]:
            return
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: object) -> float:
        with self._lock:
            return self._values.get(self._key(labels), 0.0)

    def total(self) -> float:
        with self._lock:
            return sum(self._values.values())


class Gauge(_Instrument):
    """Point-in-time value; merge keeps the incoming sample."""

    kind = "gauge"

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self._values: dict[tuple[str, ...], float] = {}

    def set(self, value: float, **labels: object) -> None:
        if not self._enabled[0]:
            return
        key = self._key(labels)
        with self._lock:
            self._values[key] = float(value)

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        if not self._enabled[0]:
            return
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels: object) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels: object) -> float:
        with self._lock:
            return self._values.get(self._key(labels), 0.0)


class Histogram(_Instrument):
    """Fixed-boundary histogram; merge adds bucket counts and sums."""

    kind = "histogram"

    def __init__(self, name: str, help_text: str, labelnames: Sequence[str],
                 lock: threading.RLock, enabled_ref: list[bool],
                 buckets: Sequence[float] = SECONDS_BUCKETS) -> None:
        super().__init__(name, help_text, labelnames, lock, enabled_ref)
        uppers = tuple(sorted(float(b) for b in buckets))
        if not uppers:
            raise ValueError(f"histogram {name!r} needs at least one bucket")
        if len(set(uppers)) != len(uppers):
            raise ValueError(f"histogram {name!r} has duplicate buckets")
        self.buckets = uppers
        # value = [per-bucket counts + overflow slot, sum, count]
        self._data: dict[tuple[str, ...], list] = {}

    def _slot(self, key: tuple[str, ...]) -> list:
        entry = self._data.get(key)
        if entry is None:
            entry = [[0] * (len(self.buckets) + 1), 0.0, 0]
            self._data[key] = entry
        return entry

    def observe(self, value: float, **labels: object) -> None:
        if not self._enabled[0]:
            return
        key = self._key(labels)
        index = len(self.buckets)
        for position, upper in enumerate(self.buckets):
            if value <= upper:
                index = position
                break
        with self._lock:
            entry = self._slot(key)
            entry[0][index] += 1
            entry[1] += value
            entry[2] += 1

    @contextmanager
    def time(self, **labels: object) -> Iterator[None]:
        start = time.perf_counter()
        try:
            yield
        finally:
            self.observe(time.perf_counter() - start, **labels)

    def count(self, **labels: object) -> int:
        with self._lock:
            entry = self._data.get(self._key(labels))
            return 0 if entry is None else entry[2]

    def sum(self, **labels: object) -> float:
        with self._lock:
            entry = self._data.get(self._key(labels))
            return 0.0 if entry is None else entry[1]


class MetricsRegistry:
    """Thread-safe instrument store with snapshot/merge and rendering."""

    def __init__(self, enabled: bool = True) -> None:
        self._lock = threading.RLock()
        self._enabled = [bool(enabled)]
        self._instruments: dict[str, _Instrument] = {}

    @property
    def enabled(self) -> bool:
        return self._enabled[0]

    def _get(self, factory, name: str, help_text: str,
             labelnames: Sequence[str], **extra) -> _Instrument:
        with self._lock:
            existing = self._instruments.get(name)
            if existing is not None:
                if type(existing) is not factory:
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind}")
                if existing.labelnames != tuple(labelnames):
                    raise ValueError(
                        f"metric {name!r} already registered with labels "
                        f"{existing.labelnames}")
                return existing
            if factory is Histogram:
                instrument = Histogram(name, help_text, labelnames,
                                       self._lock, self._enabled, **extra)
            else:
                instrument = factory(name, help_text, labelnames,
                                     self._lock, self._enabled)
            self._instruments[name] = instrument
            return instrument

    def counter(self, name: str, help_text: str = "",
                labelnames: Sequence[str] = ()) -> Counter:
        return self._get(Counter, name, help_text, labelnames)

    def gauge(self, name: str, help_text: str = "",
              labelnames: Sequence[str] = ()) -> Gauge:
        return self._get(Gauge, name, help_text, labelnames)

    def histogram(self, name: str, help_text: str = "",
                  labelnames: Sequence[str] = (),
                  buckets: Sequence[float] = SECONDS_BUCKETS) -> Histogram:
        return self._get(Histogram, name, help_text, labelnames,
                         buckets=buckets)

    # -- snapshots -----------------------------------------------------

    def snapshot(self) -> dict:
        """Cumulative JSON-pure dump of every instrument."""
        with self._lock:
            out: dict[str, dict] = {}
            for name, inst in self._instruments.items():
                record: dict = {"kind": inst.kind, "help": inst.help,
                                "labels": list(inst.labelnames)}
                if isinstance(inst, Histogram):
                    record["buckets"] = list(inst.buckets)
                    record["values"] = {
                        _encode_key(key): [list(entry[0]), entry[1], entry[2]]
                        for key, entry in inst._data.items()}
                else:
                    record["values"] = {
                        _encode_key(key): value
                        for key, value in inst._values.items()}
                out[name] = record
            return out

    def merge(self, snapshot: Mapping[str, Mapping]) -> None:
        """Fold a :meth:`snapshot` in."""
        if not snapshot:
            return
        with self._lock:
            for name, record in snapshot.items():
                kind = record.get("kind", "counter")
                labels = tuple(record.get("labels", ()))
                help_text = record.get("help", "")
                if kind == "counter":
                    inst = self.counter(name, help_text, labels)
                    for encoded, value in record.get("values", {}).items():
                        key = _decode_key(encoded)
                        inst._values[key] = inst._values.get(key, 0.0) + value
                elif kind == "gauge":
                    inst = self.gauge(name, help_text, labels)
                    for encoded, value in record.get("values", {}).items():
                        inst._values[_decode_key(encoded)] = float(value)
                elif kind == "histogram":
                    buckets = tuple(record.get("buckets", SECONDS_BUCKETS))
                    inst = self.histogram(name, help_text, labels, buckets)
                    if inst.buckets != buckets:
                        raise ValueError(
                            f"histogram {name!r} bucket mismatch on merge")
                    for encoded, (counts, total, count) in \
                            record.get("values", {}).items():
                        entry = inst._slot(_decode_key(encoded))
                        for index, bump in enumerate(counts):
                            entry[0][index] += bump
                        entry[1] += total
                        entry[2] += count
                else:
                    raise ValueError(f"unknown instrument kind {kind!r}")

    def reset(self) -> None:
        with self._lock:
            self._instruments.clear()

    # -- rendering -----------------------------------------------------

    def render_prometheus(
            self, extra_snapshots: Sequence[Mapping] = ()) -> str:
        """Prometheus text exposition of this registry plus snapshots."""
        registry = self
        if extra_snapshots:
            registry = MetricsRegistry()
            registry.merge(self.snapshot())
            for snap in extra_snapshots:
                registry.merge(snap)
        lines: list[str] = []
        with registry._lock:
            for name in sorted(registry._instruments):
                inst = registry._instruments[name]
                if inst.help:
                    lines.append(f"# HELP {name} {inst.help}")
                lines.append(f"# TYPE {name} {inst.kind}")
                if isinstance(inst, Histogram):
                    for key in sorted(inst._data):
                        counts, total, count = inst._data[key]
                        running = 0
                        for upper, bump in zip(
                                (*inst.buckets, _INF), counts):
                            running += bump
                            labels = _render_labels(
                                inst.labelnames, key,
                                extra=("le", _format_value(upper)))
                            lines.append(
                                f"{name}_bucket{labels} {running}")
                        base = _render_labels(inst.labelnames, key)
                        lines.append(
                            f"{name}_sum{base} {_format_value(total)}")
                        lines.append(f"{name}_count{base} {count}")
                else:
                    values = inst._values or (
                        {(): 0.0} if not inst.labelnames else {})
                    for key in sorted(values):
                        labels = _render_labels(inst.labelnames, key)
                        lines.append(
                            f"{name}{labels} "
                            f"{_format_value(values[key])}")
        return "\n".join(lines) + ("\n" if lines else "")


def _render_labels(labelnames: tuple[str, ...], key: tuple[str, ...],
                   extra: tuple[str, str] | None = None) -> str:
    pairs = [f'{label}="{_escape_label(value)}"'
             for label, value in zip(labelnames, key)]
    if extra is not None:
        pairs.append(f'{extra[0]}="{extra[1]}"')
    return "{" + ",".join(pairs) + "}" if pairs else ""


def _env_enabled(environ: Mapping[str, str] | None = None) -> bool:
    source = os.environ if environ is None else environ
    return source.get(ENV_METRICS, "on").strip().lower() not in {
        "off", "0", "false", "no", "disabled"}


_DEFAULT_LOCK = threading.Lock()
_DEFAULT: MetricsRegistry | None = None


def get_metrics() -> MetricsRegistry:
    """The process-wide registry (honours ``REPRO_METRICS=off``)."""
    global _DEFAULT
    if _DEFAULT is None:
        with _DEFAULT_LOCK:
            if _DEFAULT is None:
                _DEFAULT = MetricsRegistry(enabled=_env_enabled())
    return _DEFAULT


def set_metrics(registry: MetricsRegistry | None) -> MetricsRegistry | None:
    """Swap the process-wide registry (tests, benches); returns the old."""
    global _DEFAULT
    with _DEFAULT_LOCK:
        previous = _DEFAULT
        _DEFAULT = registry
    return previous
