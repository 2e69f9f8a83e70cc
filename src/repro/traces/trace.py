"""Branch trace containers.

A :class:`Trace` is the unit of work every simulator in this package
consumes: an ordered sequence of conditional-branch outcomes plus enough
metadata to compute the paper's MPPKI metric (which normalises by the
number of executed micro-ops, not by the number of branches).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:  # pragma: no cover - numpy only needed when arrays() is used
    import numpy as np

__all__ = ["BranchRecord", "Trace", "TraceArrays", "TraceHandle", "derive_identity"]


def derive_identity(*parts: object) -> str:
    """A short digest naming a trace by how it was made, not by its records."""
    return hashlib.sha256("|".join(map(str, parts)).encode()).hexdigest()[:32]


@dataclass(frozen=True)
class TraceArrays:
    """A trace decoded once into contiguous arrays (the batched-kernel view).

    Attributes
    ----------
    pcs:
        Branch program counters, ``int64``.
    taken:
        Resolved directions, ``bool``.
    preceding:
        ``preceding_instructions`` per record, ``int64``.
    """

    pcs: "np.ndarray"
    taken: "np.ndarray"
    preceding: "np.ndarray"

    def __len__(self) -> int:
        return len(self.pcs)


@dataclass(frozen=True)
class BranchRecord:
    """One dynamic conditional branch.

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

    def __post_init__(self) -> None:
        if self.pc < 0:
            raise ValueError("branch pc must be non-negative")
        if self.preceding_instructions < 0:
            raise ValueError("preceding_instructions must be non-negative")


@dataclass
class Trace:
    """An ordered sequence of dynamic conditional branches.

    Attributes
    ----------
    name:
        Trace identifier, e.g. ``"INT01"``.
    category:
        Workload category, one of CLIENT / INT / MM / SERVER / WS for the
        CBP-like suite (free-form for user traces).
    records:
        The dynamic branch stream.
    hard:
        Marks the trace as one of the "high misprediction rate" traces the
        paper singles out in Section 2.2.
    warmup_count:
        Number of leading records that are *warmup only*: the engine
        replays them through the predictor (predict + history + update)
        without accounting, so a shard cut from the middle of a longer
        trace starts its measured window from warmed predictor state.
        Zero for ordinary whole traces.
    window:
        ``(start, stop, total)`` — the measured window this trace covers
        within its source trace, in source branch indices, with the
        source's total length.  ``None`` for whole traces.  Set by
        :func:`repro.traces.sharding.shard_trace`.
    source_name:
        Name of the unsharded source trace (empty for whole traces);
        results carry it so shards of one trace can be merged back.
    identity:
        A cheap stand-in for the records' content digest, set on traces
        generated from a trace reference (see
        :func:`repro.traces.refs.resolve_trace_ref`) and on shards cut from
        them.  It hashes the generator version, the canonical reference,
        the name and (for shards) the window, so result-cache keys never
        need the records.  Empty for traces of any other origin; code
        that edits the records of a trace must clear it.
    """

    name: str
    category: str = ""
    records: list[BranchRecord] = field(default_factory=list)
    hard: bool = False
    warmup_count: int = 0
    window: tuple[int, int, int] | None = None
    source_name: str = ""
    identity: str = field(default="", compare=False, repr=False)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[BranchRecord]:
        return iter(self.records)

    def append(self, record: BranchRecord) -> None:
        """Append one dynamic branch."""
        self.records.append(record)
        self.__dict__.pop("_arrays", None)  # invalidate the cached array view

    def arrays(self) -> TraceArrays:
        """The records decoded into contiguous numpy arrays, cached.

        Batched backends (:mod:`repro.backends`) decode a trace once and
        then run every configuration variant off the same arrays.  The
        cache is invalidated by :meth:`append` (and defensively by a
        length check, for callers mutating ``records`` directly) and is
        never pickled — shards shipped to worker processes carry only the
        records, each process decodes locally on demand.
        """
        import numpy as np

        cached = self.__dict__.get("_arrays")
        if cached is not None and len(cached) == len(self.records):
            return cached
        records = self.records
        arrays = TraceArrays(
            pcs=np.fromiter((r.pc for r in records), dtype=np.int64, count=len(records)),
            taken=np.fromiter((r.taken for r in records), dtype=np.bool_, count=len(records)),
            preceding=np.fromiter(
                (r.preceding_instructions for r in records), dtype=np.int64, count=len(records)
            ),
        )
        self.__dict__["_arrays"] = arrays
        return arrays

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("_arrays", None)  # decoded views are per-process, never shipped
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)

    def content_digest(self) -> str:
        """A digest of the name and the full (pc, taken, preceding) stream.

        Computed once per object (recomputed only if the name or the
        record count changes), so repeated cache-key derivations of a
        trace without an ``identity`` hash its records once.
        """
        cached = self.__dict__.get("_digest")
        if cached is not None and cached[0] == (self.name, len(self.records)):
            return cached[1]
        digest = hashlib.sha256()
        digest.update(self.name.encode())
        for record in self.records:
            digest.update(
                b"%d,%d,%d;" % (record.pc, 1 if record.taken else 0, record.preceding_instructions)
            )
        value = digest.hexdigest()[:32]
        self.__dict__["_digest"] = ((self.name, len(self.records)), value)
        return value

    @property
    def branch_count(self) -> int:
        """Number of dynamic conditional branches."""
        return len(self.records)

    @property
    def instruction_count(self) -> int:
        """Total number of micro-ops (branches plus preceding instructions)."""
        return sum(record.preceding_instructions + 1 for record in self.records)

    @property
    def static_branch_count(self) -> int:
        """Number of distinct static branch PCs (the trace "footprint")."""
        return len({record.pc for record in self.records})

    @property
    def taken_rate(self) -> float:
        """Fraction of dynamic branches that are taken."""
        if not self.records:
            return 0.0
        return sum(1 for record in self.records if record.taken) / len(self.records)

    def slice(self, start: int, stop: int) -> "Trace":
        """Return a new trace holding ``records[start:stop]``."""
        return Trace(
            name=f"{self.name}[{start}:{stop}]",
            category=self.category,
            records=self.records[start:stop],
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
