"""Predictor-access accounting.

Section 4 counts, per retired branch, how many times the predictor tables
are accessed: one read at prediction time, possibly a second read at
retire time (depending on the update scenario) and a write when the update
is not silent.  The paper's headline number is that TAGE, under scenario
[C] with silent-update elimination, needs only ~1.13 accesses per retired
branch — low enough for 4-way interleaved single-port banks.

:class:`AccessProfile` accumulates those counts during a simulation and
derives the per-branch and per-misprediction rates the paper reports
(Section 4.1.1: effective writes per misprediction and per 100 retired
branches).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.predictors.base import UpdateStats

__all__ = ["AccessProfile"]


@dataclass
class AccessProfile:
    """Accumulated predictor-table activity over one simulation.

    Attributes
    ----------
    branches:
        Retired conditional branches.
    mispredictions:
        Mispredicted branches.
    fetch_reads:
        Predictor read accesses at prediction time (one per branch).
    retire_reads:
        Predictor read accesses at retire time (scenario dependent).
    entry_writes:
        Table entries whose content actually changed ("effective writes";
        silent updates are never counted).
    write_accesses:
        Retired branches that caused at least one effective write — the
        per-branch write-port pressure.
    entry_reads:
        Individual entries re-read during updates (finer grained than
        ``retire_reads``; used by the energy model).
    allocations:
        Newly allocated tagged entries (TAGE family).
    """

    branches: int = 0
    mispredictions: int = 0
    fetch_reads: int = 0
    retire_reads: int = 0
    entry_writes: int = 0
    write_accesses: int = 0
    entry_reads: int = 0
    allocations: int = 0

    def record_prediction(self, mispredicted: bool) -> None:
        """Account for one predicted branch (one fetch-time read access)."""
        self.branches += 1
        self.fetch_reads += 1
        if mispredicted:
            self.mispredictions += 1

    def record_update(self, stats: UpdateStats, retire_read: bool) -> None:
        """Account for one retire-time update."""
        if retire_read:
            self.retire_reads += 1
        self.entry_reads += stats.entry_reads
        self.entry_writes += stats.entry_writes
        self.allocations += stats.allocations
        if stats.entry_writes:
            self.write_accesses += 1

    # -- derived rates --------------------------------------------------------

    @property
    def writes_per_misprediction(self) -> float:
        """Effective (non-silent) write accesses per misprediction (paper: TAGE ~2.17).

        A write access is a retired branch whose update modified at least
        one table entry; branches whose update would have rewritten the
        values already held (silent updates) do not count.
        """
        if not self.mispredictions:
            return 0.0
        return self.write_accesses / self.mispredictions

    @property
    def writes_per_100_branches(self) -> float:
        """Effective write accesses per 100 retired branches (paper: TAGE ~9.06)."""
        if not self.branches:
            return 0.0
        return 100.0 * self.write_accesses / self.branches

    @property
    def accesses_per_branch(self) -> float:
        """Total predictor accesses per retired branch.

        One fetch read, plus the scenario-dependent retire reads, plus the
        effective write accesses (paper: ~1.13 for TAGE under scenario [C]).
        """
        if not self.branches:
            return 0.0
        return (
            self.fetch_reads + self.retire_reads + self.write_accesses
        ) / self.branches

    def merge(self, other: "AccessProfile") -> None:
        """Accumulate another profile (e.g. another trace of the suite)."""
        self.branches += other.branches
        self.mispredictions += other.mispredictions
        self.fetch_reads += other.fetch_reads
        self.retire_reads += other.retire_reads
        self.entry_writes += other.entry_writes
        self.write_accesses += other.write_accesses
        self.entry_reads += other.entry_reads
        self.allocations += other.allocations

    def summary(self) -> str:
        """One-line human-readable description of the access rates."""
        return (
            f"{self.branches} branches, {self.mispredictions} mispredictions, "
            f"{self.writes_per_misprediction:.2f} writes/misp, "
            f"{self.writes_per_100_branches:.2f} writes/100 branches, "
            f"{self.accesses_per_branch:.2f} accesses/branch"
        )
