"""4-way bank interleaving with single-ported memory banks (Section 4.3).

A 3-ported memory array (read at fetch, read at retire, write at retire,
all in the same cycle) is 3–4 times larger than a single-ported array of
the same capacity.  The paper shows TAGE can instead use 4-way interleaved
single-ported banks, provided consecutive predictions are spread across
banks.  The bank of the branch being predicted is chosen by the rule::

    if Z is unconditional: no access
    else:
        b(Z) = Z & 3
        while b(Z) == b(X) or b(Z) == b(Y):       # X, Y: two previous branches
            b(Z) = (b(Z) + 1) & 3

which guarantees that, in any window of three consecutive predictions, a
given bank is accessed at most once — leaving at least two free cycles out
of every three for the (rare) retire-time reads and effective writes.

Two models live here:

* :class:`BankSelector` — the selection rule itself, shared by the
  predictor index functions when simulating the interleaved organisation
  (the accuracy impact comes from a branch mapping to up to four distinct
  entries depending on its neighbours),
* :class:`BankConflictModel` — a cycle-level port model that schedules
  prediction reads, retire reads and writes on the single port of each
  bank and measures how long updates wait (the paper argues at most one
  to two cycles).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

__all__ = ["BankSelector", "BankAccess", "BankConflictModel"]


class BankSelector:
    """The paper's bank-selection rule for prediction-time reads.

    The selector remembers the banks used by the two most recent predicted
    branches and steers the next prediction away from them.
    """

    def __init__(self, num_banks: int = 4) -> None:
        if num_banks < 3:
            raise ValueError(
                "the selection rule needs at least 3 banks to avoid the previous two"
            )
        self.num_banks = num_banks
        self._previous: deque[int] = deque(maxlen=2)

    def select(self, pc: int) -> int:
        """Bank the prediction of ``pc`` would use right now (no state change)."""
        bank = pc & (self.num_banks - 1) if _is_power_of_two(self.num_banks) else pc % self.num_banks
        while bank in self._previous:
            bank = (bank + 1) % self.num_banks
        return bank

    def advance(self, pc: int) -> int:
        """Select the bank for ``pc`` and record it as the most recent access."""
        bank = self.select(pc)
        self._previous.append(bank)
        return bank
        # The previous-bank window keeps its current contents: the rule only
        # tracks branches that actually accessed the predictor.

    @property
    def recent_banks(self) -> tuple[int, ...]:
        """Banks used by the (up to two) most recent predictions."""
        return tuple(self._previous)


def _is_power_of_two(value: int) -> bool:
    return value > 0 and value & (value - 1) == 0


@dataclass(frozen=True)
class BankAccess:
    """One access request presented to the banked predictor."""

    cycle: int
    bank: int
    kind: str  # "predict", "retire_read" or "write"


@dataclass
class BankConflictModel:
    """Cycle-level port scheduler for single-ported interleaved banks.

    Prediction reads have absolute priority (they are on the critical
    path); writes have priority over retire-time reads, as the paper
    assumes.  Deferred accesses retry on the following cycles; the model
    records how many cycles each access class waited, which substantiates
    the claim that the read at retire can be delayed by one cycle and the
    update by up to two.
    """

    num_banks: int = 4
    predictions: int = 0
    retire_reads: int = 0
    writes: int = 0
    deferred_retire_read_cycles: int = 0
    deferred_write_cycles: int = 0
    max_retire_read_delay: int = 0
    max_write_delay: int = 0
    _busy_until: dict[int, int] = field(default_factory=dict)

    def schedule(self, accesses: list[BankAccess]) -> None:
        """Schedule a stream of accesses (must be sorted by cycle).

        Each bank serves at most one access per cycle.  Prediction reads
        are assumed to always win their cycle (the selection rule
        guarantees no two predictions collide within three cycles), while
        writes and retire reads wait for the first free cycle of their
        bank, writes first.
        """
        ordered = sorted(accesses, key=lambda a: (a.cycle, _PRIORITY[a.kind]))
        for access in ordered:
            if access.kind == "predict":
                self.predictions += 1
                self._busy_until[access.bank] = max(
                    self._busy_until.get(access.bank, -1), access.cycle
                )
                continue
            start = max(access.cycle, self._busy_until.get(access.bank, -1) + 1)
            delay = start - access.cycle
            self._busy_until[access.bank] = start
            if access.kind == "write":
                self.writes += 1
                self.deferred_write_cycles += delay
                self.max_write_delay = max(self.max_write_delay, delay)
            else:
                self.retire_reads += 1
                self.deferred_retire_read_cycles += delay
                self.max_retire_read_delay = max(self.max_retire_read_delay, delay)

    @property
    def average_write_delay(self) -> float:
        """Mean cycles a write waited for its bank's port."""
        return self.deferred_write_cycles / self.writes if self.writes else 0.0

    @property
    def average_retire_read_delay(self) -> float:
        """Mean cycles a retire-time read waited for its bank's port."""
        return (
            self.deferred_retire_read_cycles / self.retire_reads if self.retire_reads else 0.0
        )


_PRIORITY = {"predict": 0, "write": 1, "retire_read": 2}
