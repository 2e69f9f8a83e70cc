"""Shard planning: split one long trace into warmup+measure windows.

A full per-benchmark branch stream is long — the paper's traces run to
tens of millions of micro-ops — and one trace used to be one task, so a
single long trace serialized on one worker while the rest of the pool
idled.  This module is the *planner* for fanning such a trace out:

* :func:`plan_shards` partitions a trace of ``length`` branches into
  ``count`` contiguous measured windows (balanced to within one branch),
  each preceded by a bounded *warmup* prefix — branches replayed through
  the predictor (predict + history + update) purely to warm its state,
  with no accounting;
* :class:`ShardWindow` describes one such window in source-trace branch
  indices, and :func:`shard_trace` cuts the matching
  :class:`~repro.traces.trace.Trace` slice (warmup prefix included,
  shard metadata attached), and :func:`shard_handle` names the same
  shard without records (a :class:`~repro.traces.trace.TraceHandle`);
* :func:`shard_refs` spells a plan as *shard references* —
  ``suite:NAME#shard=i/n&warmup=K`` — the serializable form that travels
  through :class:`~repro.api.request.RunRequest` and the HTTP service
  (see :mod:`repro.traces.refs` for resolution);
* :class:`ShardingPolicy` is the pure-data knob a request carries to ask
  the :class:`~repro.api.runner.Runner` to shard for it — or, in *exact*
  mode, to run each trace whole so its numbers are bit-identical to the
  unsharded run.

Sharding is deterministic: the plan depends only on (length, count,
warmup), never on worker count or timing, so a sharded request produces
the same numbers on any machine.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Mapping

from repro.traces.trace import Trace, TraceHandle, derive_identity

__all__ = [
    "DEFAULT_WARMUP",
    "MIN_SHARD_BRANCHES",
    "SHARD_MODES",
    "ShardWindow",
    "ShardingPolicy",
    "auto_shard_count",
    "plan_shards",
    "shard_handle",
    "shard_refs",
    "shard_trace",
]

#: Default warmup prefix (branches) replayed before each measured window.
DEFAULT_WARMUP = 2_000

#: Floor on measured branches per shard when the shard count is chosen
#: automatically: thinner shards spend more time warming than measuring.
MIN_SHARD_BRANCHES = 100_000

#: Upper bound on automatically chosen shard counts (explicit policies
#: may exceed it).  Keeps the plan — and therefore the numbers — stable
#: however many workers the executing host happens to have.
MAX_AUTO_SHARDS = 8

SHARD_MODES = ("warmup", "exact")


@dataclass(frozen=True)
class ShardWindow:
    """One shard of a trace, in source-trace branch indices.

    The measured window is ``[start, stop)``; the warmup prefix is
    ``[warmup_start, start)`` (empty for the first shard, clamped at the
    start of the trace otherwise).  ``total`` is the source trace length,
    carried so merged results can tell a complete reassembly from a
    partial one.
    """

    index: int
    count: int
    warmup_start: int
    start: int
    stop: int
    total: int

    @property
    def warmup(self) -> int:
        """Number of warmup branches actually replayed before the window."""
        return self.start - self.warmup_start

    @property
    def measured(self) -> int:
        """Number of measured branches in the window."""
        return self.stop - self.start


def _validate_plan(length: int, count: int, warmup: int) -> None:
    if count < 1:
        raise ValueError(f"shard count must be at least 1, got {count}")
    if warmup < 0:
        raise ValueError(f"shard warmup must be non-negative, got {warmup}")
    if length < count:
        raise ValueError(
            f"cannot split a {length}-branch trace into {count} shards "
            f"(each shard needs at least one measured branch)"
        )


def plan_shards(length: int, count: int, warmup: int = DEFAULT_WARMUP) -> list[ShardWindow]:
    """Partition ``length`` branches into ``count`` contiguous windows.

    The measured windows are balanced to within one branch and exactly
    cover ``[0, length)``; each window after the first gets a warmup
    prefix of up to ``warmup`` branches (clamped at the trace start).
    The first shard never warms up — it starts from the same power-on
    state as an unsharded run.
    """
    _validate_plan(length, count, warmup)
    base, remainder = divmod(length, count)
    windows = []
    start = 0
    for index in range(count):
        stop = start + base + (1 if index < remainder else 0)
        windows.append(
            ShardWindow(
                index=index,
                count=count,
                warmup_start=max(0, start - warmup) if index else 0,
                start=start,
                stop=stop,
                total=length,
            )
        )
        start = stop
    return windows


def shard_trace(trace: Trace, window: ShardWindow) -> Trace:
    """Cut the :class:`Trace` slice for one shard window.

    The returned trace holds the warmup prefix followed by the measured
    window, as views of the source's columns; ``warmup_count`` marks where
    measurement starts, ``window`` and ``source_name`` carry the position
    so results can be merged back (and mis-merges rejected).  Its name and
    identity are those of :func:`shard_handle`.
    """
    shard = shard_handle(TraceHandle(trace.name, len(trace), trace.identity, trace.window), window)
    return replace(
        trace.slice(window.warmup_start, window.stop),
        name=shard.name,
        warmup_count=window.start - window.warmup_start,
        window=shard.window,
        source_name=trace.name,
        identity=shard.identity,
    )


def shard_handle(handle: TraceHandle, window: ShardWindow) -> TraceHandle:
    """The handle of one shard window of the trace behind ``handle``.

    The shard's ``name`` spells the plan (``<base>#shard=i/n&warmup=K``),
    which keeps content digests distinct per window *and* per warmup
    depth.  A source with an ``identity`` passes on one derived from it,
    the shard's name and its window, so a cached shard result can never
    be served for another shard of the same trace.
    """
    if window.stop > handle.length:
        raise ValueError(
            f"shard window [{window.start}, {window.stop}) exceeds "
            f"trace {handle.name!r} of {handle.length} branches"
        )
    if handle.window is not None:
        raise ValueError(f"trace {handle.name!r} is already a shard and cannot be re-sharded")
    name = f"{handle.name}#shard={window.index}/{window.count}&warmup={window.warmup}"
    identity = handle.identity and derive_identity(
        "shard", handle.identity, name, window.warmup_start, window.start, window.stop, window.total
    )
    return TraceHandle(
        name, window.stop - window.warmup_start, identity, (window.start, window.stop, window.total)
    )


def shard_refs(ref: str, count: int, warmup: int = DEFAULT_WARMUP) -> list[str]:
    """Spell a shard plan as resolvable shard reference strings.

    ``shard_refs("suite:INT01", 4)`` →
    ``["suite:INT01#shard=0/4&warmup=2000", …]``.  The base reference
    must name exactly one trace and not already carry a shard fragment;
    resolution (see :mod:`repro.traces.refs`) validates both.
    """
    if count < 1:
        raise ValueError(f"shard count must be at least 1, got {count}")
    if warmup < 0:
        raise ValueError(f"shard warmup must be non-negative, got {warmup}")
    if "#" in ref:
        raise ValueError(f"trace ref {ref!r} already carries a shard fragment")
    return [f"{ref}#shard={index}/{count}&warmup={warmup}" for index in range(count)]


def auto_shard_count(
    length: int,
    min_branches: int = MIN_SHARD_BRANCHES,
    max_shards: int = MAX_AUTO_SHARDS,
) -> int:
    """Shard count for a trace of ``length`` branches, from length alone.

    Deliberately *not* a function of worker count: the plan (and with it
    the bounded-warmup numbers) must be identical on a laptop and on a
    64-core box.  Scales linearly at one shard per ``min_branches``,
    capped at ``max_shards``.
    """
    if length < 1:
        return 1
    return max(1, min(max_shards, length // min_branches))


@dataclass(frozen=True)
class ShardingPolicy:
    """How a :class:`~repro.api.request.RunRequest` wants its traces sharded.

    Pure data with a lossless JSON round trip (:meth:`to_dict` /
    :meth:`from_dict`), so it travels inside request payloads.

    Attributes
    ----------
    shards:
        Explicit shard count, or 0 to derive one from the trace length
        (:func:`auto_shard_count`).  1 disables sharding for the request
        even when the runner would auto-shard.
    warmup:
        Warmup prefix per shard (bounded-warmup mode only).
    mode:
        ``"warmup"`` — shards are independent jobs, each replaying a
        bounded prefix; fast, approximate.  ``"exact"`` — each trace
        runs whole as one task (``shards`` and ``warmup`` are ignored),
        so the result is bit-identical to the unsharded run by
        construction.
    """

    shards: int = 0
    warmup: int = DEFAULT_WARMUP
    mode: str = "warmup"

    def __post_init__(self) -> None:
        if not isinstance(self.shards, int) or isinstance(self.shards, bool) or self.shards < 0:
            raise ValueError(f"shards must be a non-negative integer, got {self.shards!r}")
        if not isinstance(self.warmup, int) or isinstance(self.warmup, bool) or self.warmup < 0:
            raise ValueError(f"warmup must be a non-negative integer, got {self.warmup!r}")
        if self.mode not in SHARD_MODES:
            raise ValueError(f"mode must be one of {SHARD_MODES}, got {self.mode!r}")

    def to_dict(self) -> dict[str, Any]:
        """The JSON-pure payload reproducing this policy via :meth:`from_dict`."""
        return {"shards": self.shards, "warmup": self.warmup, "mode": self.mode}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ShardingPolicy":
        """Rebuild a policy from a :meth:`to_dict` payload (strictly validated)."""
        if not isinstance(payload, Mapping):
            raise ValueError(f"sharding entry must be a mapping, got {type(payload).__name__}")
        unknown = set(payload) - {"shards", "warmup", "mode"}
        if unknown:
            raise ValueError(f"sharding entry has unknown keys {sorted(unknown)}")
        return cls(
            shards=payload.get("shards", 0),
            warmup=payload.get("warmup", DEFAULT_WARMUP),
            mode=payload.get("mode", "warmup"),
        )
