"""The Immediate Update Mimicker (Section 5.1).

On a real processor the predictor tables are only updated when a branch
retires, so a single TAGE entry can serve several in-flight occurrences of
the same branch and repeat the same misprediction.  The IUM closes most of
that gap without touching the tables: it is a small fully-associative
buffer with one entry per in-flight branch recording *which* TAGE entry
(table number and index) provided the prediction.  When a later branch is
predicted by the *same* entry while an earlier occurrence has already
executed, the IUM supplies a fresher prediction than the stale table.

Two flavours are provided, selected by ``mode``:

* ``"counter"`` (default) — the IUM keeps a private copy of the provider
  counter and applies to it the saturating updates that immediate update
  would have applied, then predicts with the updated counter's sign.  This
  is the literal reading of "mimicking the immediate update": a single
  contrary outcome does not flip a saturated counter.
* ``"outcome"`` — the IUM responds with the executed outcome itself, as
  the paper's prose describes ("use the execution outcome of branch B' as
  a prediction for branch B").  On traces where the same entry serves
  several in-flight occurrences of a *weakly biased* branch this
  last-outcome behaviour over-corrects; the counter mode is therefore the
  default, and the difference between the two is exposed as an ablation
  (``benchmarks/bench_ablation_ium_mode.py``).

The structure mirrors Figure 4: entries are appended at fetch, marked
"executed" with their resolved direction when the out-of-order core
resolves them, squashed past a misprediction and released at retirement.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.counters import clamp
from repro.common.storage import StorageReport

__all__ = ["IUMEntry", "ImmediateUpdateMimicker"]


@dataclass
class IUMEntry:
    """One in-flight branch tracked by the IUM.

    Attributes
    ----------
    sequence:
        Monotonic fetch order, used for squash and release.
    table, index:
        Identity of the TAGE entry that provided the prediction
        (``table`` is 0 for the bimodal base, 1..M for tagged tables).
    counter:
        Private copy of the provider counter (signed, taken when
        non-negative), updated as immediate update would have done.
    counter_lo, counter_hi:
        Saturation bounds of that counter.
    outcome:
        Resolved direction once the branch executes.
    executed:
        True once the branch has executed.
    """

    sequence: int
    table: int
    index: int
    counter: int
    counter_lo: int
    counter_hi: int
    outcome: bool = False
    executed: bool = False

    @property
    def predicted_taken(self) -> bool:
        """Direction the mimicked (immediately updated) counter predicts."""
        return self.counter >= 0


class ImmediateUpdateMimicker:
    """Fully-associative buffer of in-flight branches keyed by TAGE entry.

    Parameters
    ----------
    capacity:
        Maximum number of in-flight branches tracked (one entry per
        in-flight branch in hardware; 256 is far above any realistic
        window and simply bounds memory).
    mode:
        ``"counter"`` (mimic the immediate counter update, default) or
        ``"outcome"`` (respond with the raw executed outcome).
    """

    MODES = ("counter", "outcome")

    def __init__(self, capacity: int = 256, mode: str = "counter") -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        if mode not in self.MODES:
            raise ValueError(f"mode must be one of {self.MODES}, got {mode!r}")
        self.capacity = capacity
        self.mode = mode
        self._entries: list[IUMEntry] = []
        self._next_sequence = 0
        #: Number of predictions the IUM overrode (for reporting).
        self.overrides = 0

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, table: int, index: int) -> bool | None:
        """Prediction to use for a new branch served by entry ``(table, index)``.

        The youngest in-flight occurrence hitting the same TAGE entry wins;
        only *executed* occurrences count (their outcome is known).
        Returns ``None`` when no executed in-flight occurrence matches, in
        which case the stale TAGE output stands.
        """
        for entry in reversed(self._entries):
            if entry.table == table and entry.index == index and entry.executed:
                if self.mode == "outcome":
                    return entry.outcome
                return entry.predicted_taken
        return None

    def lookup_counter(self, table: int, index: int) -> int | None:
        """Mimicked counter value of the youngest executed match, if any."""
        for entry in reversed(self._entries):
            if entry.table == table and entry.index == index and entry.executed:
                return entry.counter
        return None

    def record(
        self,
        table: int,
        index: int,
        counter: int,
        counter_lo: int,
        counter_hi: int,
    ) -> int:
        """Record a newly fetched branch; returns its IUM sequence number.

        ``counter`` is the provider-counter value the prediction used.  If
        an older in-flight occurrence of the same entry exists, its
        mimicked counter is inherited so that chains of in-flight
        occurrences accumulate updates exactly as immediate update would.
        """
        inherited = self.lookup_counter(table, index)
        entry = IUMEntry(
            sequence=self._next_sequence,
            table=table,
            index=index,
            counter=inherited if inherited is not None else counter,
            counter_lo=counter_lo,
            counter_hi=counter_hi,
        )
        self._next_sequence += 1
        self._entries.append(entry)
        if len(self._entries) > self.capacity:
            self._entries.pop(0)
        return entry.sequence

    def mark_executed(self, sequence: int, taken: bool) -> None:
        """Record the resolved direction of an in-flight branch (execute stage)."""
        for entry in self._entries:
            if entry.sequence == sequence:
                entry.outcome = taken
                entry.executed = True
                entry.counter = clamp(
                    entry.counter + (1 if taken else -1), entry.counter_lo, entry.counter_hi
                )
                return

    def squash_after(self, sequence: int) -> None:
        """Squash every entry younger than ``sequence`` (misprediction repair)."""
        self._entries = [entry for entry in self._entries if entry.sequence <= sequence]

    def release(self, sequence: int) -> None:
        """Release the entry of a retiring branch."""
        self._entries = [entry for entry in self._entries if entry.sequence != sequence]

    def storage_report(self) -> StorageReport:
        """Approximate hardware cost: table id + index + counter + flags per entry."""
        report = StorageReport("immediate-update-mimicker")
        report.add("IUM entries", self.capacity, 4 + 14 + 4 + 1 + 1)
        return report
