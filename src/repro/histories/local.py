"""Local (per-branch) history and its speculative management.

Section 6 of the paper augments TAGE with a Statistical Corrector indexed
by *local* history (the LSC predictor).  Two structures are needed:

* a small direct-mapped :class:`LocalHistoryTable` holding the retired
  local history of each (hashed) branch PC — the paper finds a 32-entry
  table sufficient because a handful of static branches concentrate most
  mispredictions;
* a :class:`SpeculativeLocalHistoryManager` (Figure 8) tracking, for every
  in-flight branch, the speculative local history it produced so that
  back-to-back occurrences of the same branch see an up-to-date history
  before the older occurrence retires.  The paper notes that this
  structure is so close to the IUM that a real design would merge them.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.bits import mask

__all__ = ["LocalHistoryTable", "SpeculativeLocalHistoryManager"]


class LocalHistoryTable:
    """Direct-mapped table of per-branch local direction histories.

    Parameters
    ----------
    entries:
        Number of table entries; must be a power of two (the paper uses 32).
    history_bits:
        Number of direction bits retained per entry (the LSC observes up to
        31 bits of local history, so the default keeps 32).
    """

    def __init__(self, entries: int = 32, history_bits: int = 32) -> None:
        if entries <= 0 or entries & (entries - 1):
            raise ValueError(f"entries must be a positive power of two, got {entries}")
        if history_bits < 1:
            raise ValueError("history_bits must be positive")
        self.entries = entries
        self.history_bits = history_bits
        self._index_mask = entries - 1
        self._histories = [0] * entries

    def index(self, pc: int) -> int:
        """Map a branch PC to its table entry (direct mapped on hashed PC bits).

        A few higher PC bits are folded in so that branches whose addresses
        differ only above the low bits (same position in different code
        blocks) do not all collapse onto the same entry.
        """
        return ((pc >> 2) ^ (pc >> 7) ^ (pc >> 13)) & self._index_mask

    def read(self, pc: int) -> int:
        """Return the retired local history of ``pc``."""
        return self._histories[self.index(pc)]

    def read_by_index(self, index: int) -> int:
        """Return the retired local history stored at ``index``."""
        return self._histories[index]

    def update(self, pc: int, taken: bool) -> None:
        """Shift the retired outcome of ``pc`` into its local history."""
        idx = self.index(pc)
        shifted = ((self._histories[idx] << 1) | (1 if taken else 0)) & mask(self.history_bits)
        self._histories[idx] = shifted

    @property
    def storage_bits(self) -> int:
        """Total storage held by the table."""
        return self.entries * self.history_bits


@dataclass
class _InflightLocalEntry:
    """One in-flight branch tracked by the speculative local history manager."""

    sequence: int
    pc: int
    table_index: int
    speculative_history: int


class SpeculativeLocalHistoryManager:
    """Speculative Local History Manager (Figure 8 of the paper).

    The manager keeps one entry per in-flight branch.  At prediction time
    the most recent in-flight occurrence mapping to the same local-history
    table entry provides the speculative history; otherwise the retired
    history from the :class:`LocalHistoryTable` is used.  On a
    misprediction all younger entries are squashed; on retirement the
    oldest entry is released.
    """

    def __init__(self, local_table: LocalHistoryTable, capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.local_table = local_table
        self.capacity = capacity
        self._entries: list[_InflightLocalEntry] = []
        self._next_sequence = 0

    def __len__(self) -> int:
        return len(self._entries)

    def speculative_history(self, pc: int) -> int:
        """Return the local history ``pc`` should observe right now.

        The most recent in-flight branch hitting the same local-history
        table entry provides its speculative history; otherwise the
        retired history is read from the backing table.
        """
        table_index = self.local_table.index(pc)
        for entry in reversed(self._entries):
            if entry.table_index == table_index:
                return entry.speculative_history
        return self.local_table.read_by_index(table_index)

    def record(self, pc: int, predicted_taken: bool) -> int:
        """Record a newly fetched branch and return its sequence number.

        The speculative history stored is the history *after* shifting in
        the predicted direction, so a younger same-entry branch observes
        the effect of this (still speculative) branch.
        """
        history = self.speculative_history(pc)
        new_history = ((history << 1) | (1 if predicted_taken else 0)) & mask(
            self.local_table.history_bits
        )
        entry = _InflightLocalEntry(
            sequence=self._next_sequence,
            pc=pc,
            table_index=self.local_table.index(pc),
            speculative_history=new_history,
        )
        self._next_sequence += 1
        self._entries.append(entry)
        if len(self._entries) > self.capacity:
            self._entries.pop(0)
        return entry.sequence

    def repair(self, sequence: int, actual_taken: bool) -> None:
        """Repair after a misprediction of the branch with ``sequence``.

        All younger speculative entries are squashed (they were on the
        wrong path) and the mispredicted branch's own speculative history
        is rewritten with the corrected direction.
        """
        self._entries = [entry for entry in self._entries if entry.sequence <= sequence]
        for entry in self._entries:
            if entry.sequence == sequence:
                corrected = (entry.speculative_history >> 1) << 1 | (1 if actual_taken else 0)
                entry.speculative_history = corrected & mask(self.local_table.history_bits)
                break

    def retire(self, sequence: int, pc: int, taken: bool) -> None:
        """Retire the branch with ``sequence``: commit its outcome and free its entry."""
        self.local_table.update(pc, taken)
        self._entries = [entry for entry in self._entries if entry.sequence != sequence]
