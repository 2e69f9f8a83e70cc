"""Branch trace containers.

A :class:`Trace` is the unit of work every simulator in this package
consumes: an ordered sequence of conditional-branch outcomes plus enough
metadata to compute the paper's MPPKI metric (which normalises by the
number of executed micro-ops, not by the number of branches).  It stores
the branches as numpy columns, its only representation; indexing or
iterating it yields read-only :class:`BranchRecord` items.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

__all__ = ["BranchRecord", "Trace", "TraceHandle", "derive_identity"]


def derive_identity(*parts: object) -> str:
    """A short digest naming a trace by how it was made, not by its records."""
    return hashlib.sha256("|".join(map(str, parts)).encode()).hexdigest()[:32]


@dataclass(frozen=True)
class BranchRecord:
    """One dynamic conditional branch, as ``trace[i]`` and ``iter(trace)`` read it.

    Attributes
    ----------
    pc:
        Program counter (byte address) of the branch instruction.
    taken:
        Resolved direction of the branch.
    preceding_instructions:
        Number of non-branch micro-ops executed since the previous
        conditional branch; used to compute per-kilo-instruction metrics.
    site:
        Optional label of the synthetic behaviour that generated the
        branch, useful for per-behaviour analysis and debugging.
    """

    pc: int
    taken: bool
    preceding_instructions: int = 4
    site: str = ""


@dataclass(eq=False)
class Trace:
    """An ordered sequence of dynamic conditional branches, stored as columns.

    The interp engine iterates plain-int copies of the columns, the numpy
    kernels read them as they are, shards are column views, and pickling
    ships the column bytes.

    Attributes
    ----------
    name:
        Trace identifier, e.g. ``"INT01"``.
    category:
        Workload category, one of CLIENT / INT / MM / SERVER / WS for the
        CBP-like suite (free-form for user traces).
    pcs, taken, preceding:
        Per-branch program counter, resolved direction and number of
        non-branch micro-ops before the branch.  Any sequence is accepted
        and stored as an ``int64`` / ``bool`` / ``int64`` array; pcs and
        gaps must be non-negative and all columns equally long.
    sites, site_names:
        Per-branch code into ``site_names``, the labels of the synthetic
        behaviours that generated the branches.  Empty ``sites`` labels
        every branch ``site_names[0]`` (``""`` by default).
    hard:
        Marks the trace as one of the "high misprediction rate" traces the
        paper singles out in Section 2.2.
    warmup_count:
        Number of leading branches that are *warmup only*: the engine
        replays them through the predictor (predict + history + update)
        without accounting, so a shard cut from the middle of a longer
        trace starts its measured window from warmed predictor state.
        Zero for ordinary whole traces; at most ``len(trace)``.
    window:
        ``(start, stop, total)`` — the measured window this trace covers
        within its source trace, in source branch indices, with the
        source's total length.  ``None`` for whole traces.  Set by
        :func:`repro.traces.sharding.shard_trace`.
    source_name:
        Name of the unsharded source trace (empty for whole traces);
        results carry it so shards of one trace can be merged back.
    identity:
        A cheap stand-in for the columns' content digest, set on traces
        generated from a trace reference (see
        :func:`repro.traces.refs.resolve_trace_ref`) and on shards cut from
        them.  It hashes the generator version, the canonical reference,
        the name and (for shards) the window, so result-cache keys never
        need the branches.  Empty for traces of any other origin; code
        that replaces the columns of a trace must clear it.
    """

    name: str
    category: str = ""
    pcs: np.ndarray = ()
    taken: np.ndarray = ()
    preceding: np.ndarray = ()
    sites: np.ndarray = ()
    site_names: tuple[str, ...] = ("",)
    hard: bool = False
    warmup_count: int = 0
    window: tuple[int, int, int] | None = None
    source_name: str = ""
    identity: str = field(default="", repr=False)

    def __post_init__(self) -> None:
        self.pcs = np.asarray(self.pcs, dtype=np.int64)
        self.taken = np.asarray(self.taken, dtype=np.bool_)
        self.preceding = np.asarray(self.preceding, dtype=np.int64)
        code = np.min_scalar_type(max(len(self.site_names) - 1, 0))
        count = len(self.pcs)
        self.sites = (
            np.asarray(self.sites, dtype=code) if len(self.sites) else np.zeros(count, dtype=code)
        )
        if not len(self.taken) == len(self.preceding) == len(self.sites) == count:
            raise ValueError(f"trace {self.name!r}: columns differ in length")
        if count and self.pcs.min() < 0:
            raise ValueError("branch pc must be non-negative")
        if count and self.preceding.min() < 0:
            raise ValueError("preceding_instructions must be non-negative")
        if not 0 <= self.warmup_count <= count:
            raise ValueError(
                f"trace {self.name!r}: warmup_count {self.warmup_count} outside [0, {count}]"
            )

    def __len__(self) -> int:
        return len(self.pcs)

    def __getitem__(self, index: int) -> BranchRecord:
        return BranchRecord(
            int(self.pcs[index]),
            bool(self.taken[index]),
            int(self.preceding[index]),
            self.site_names[self.sites[index]],
        )

    def __iter__(self) -> Iterator[BranchRecord]:
        names = self.site_names
        for pc, taken, gap, code in zip(
            self.pcs.tolist(), self.taken.tolist(), self.preceding.tolist(), self.sites.tolist()
        ):
            yield BranchRecord(pc, taken, gap, names[code])

    @property
    def records(self) -> "Trace":
        """The branches as a read-only sequence of :class:`BranchRecord`.

        The trace itself: ``len`` is O(1) and nothing is materialised.
        """
        return self

    def content_digest(self) -> str:
        """A digest of the name and the full (pc, taken, preceding) stream.

        Computed once per object (recomputed only if the name or the
        length changes), so repeated cache-key derivations of a trace
        without an ``identity`` hash its columns once.
        """
        cached = self.__dict__.get("_digest")
        if cached is not None and cached[0] == (self.name, len(self)):
            return cached[1]
        branches = zip(self.pcs.tolist(), self.taken.tolist(), self.preceding.tolist())
        stream = b"".join(b"%d,%d,%d;" % branch for branch in branches)
        value = hashlib.sha256(self.name.encode() + stream).hexdigest()[:32]
        self.__dict__["_digest"] = ((self.name, len(self)), value)
        return value

    @property
    def branch_count(self) -> int:
        """Number of dynamic conditional branches."""
        return len(self)

    @property
    def instruction_count(self) -> int:
        """Total number of micro-ops (branches plus preceding instructions)."""
        return int(self.preceding.sum()) + len(self)

    @property
    def static_branch_count(self) -> int:
        """Number of distinct static branch PCs (the trace "footprint")."""
        return len(np.unique(self.pcs))

    @property
    def taken_rate(self) -> float:
        """Fraction of dynamic branches that are taken."""
        if not len(self):
            return 0.0
        return int(self.taken.sum()) / len(self)

    def slice(self, start: int, stop: int) -> "Trace":
        """Return a new trace of branches ``[start, stop)`` (column views, no copy)."""
        return Trace(
            name=f"{self.name}[{start}:{stop}]",
            category=self.category,
            pcs=self.pcs[start:stop],
            taken=self.taken[start:stop],
            preceding=self.preceding[start:stop],
            sites=self.sites[start:stop],
            site_names=self.site_names,
            hard=self.hard,
        )

    def summary(self) -> str:
        """One-line human-readable description of the trace."""
        return (
            f"{self.name} ({self.category or 'uncategorised'}): "
            f"{self.branch_count} branches, {self.instruction_count} uops, "
            f"{self.static_branch_count} static branches, "
            f"taken rate {self.taken_rate:.2f}"
            f"{', hard' if self.hard else ''}"
        )


@dataclass(frozen=True)
class TraceHandle:
    """What planning needs of one trace: name, length, identity and window.

    A handle stands in for a :class:`Trace` until its records are needed:
    the :class:`~repro.api.runner.Runner` shard-plans and derives every
    result-cache key from handles, and generates records only for traces
    with at least one cache miss.  ``length`` is ``len(trace)``: every
    record, a shard's warmup prefix included.
    """

    name: str
    length: int
    identity: str
    window: tuple[int, int, int] | None = None

    @classmethod
    def of(cls, trace: Trace) -> "TraceHandle":
        """The handle of a live trace (content-hashed if it has no identity)."""
        return cls(trace.name, len(trace), trace.identity or trace.content_digest(), trace.window)
