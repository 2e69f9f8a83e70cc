"""The gshare predictor (McFarling, 1993).

Section 4 of the paper uses a 512 Kbit gshare as the representative
"first-generation" global-history predictor to show that, unlike TAGE, it
*cannot* tolerate skipping the retire-time table read: a single table of
2-bit counters accumulates several in-flight updates to the same entry,
and writing back a stale fetch-time value destroys them (scenario [B]
degrades 944 → 1292 MPPKI in the paper).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.bits import mask
from repro.common.storage import StorageReport
from repro.histories.global_history import GlobalHistoryRegister
from repro.predictors.base import PredictionInfo, Predictor, UpdateStats

__all__ = ["GSharePredictor", "GSharePrediction"]


@dataclass
class GSharePrediction(PredictionInfo):
    """Snapshot of a gshare read: the table index and 2-bit counter value."""

    index: int = 0
    counter: int = 0


class GSharePredictor(Predictor):
    """Single table of 2-bit counters indexed by ``PC xor global history``.

    Parameters
    ----------
    log2_entries:
        Log2 of the number of counters; the paper's 512 Kbit configuration
        corresponds to ``log2_entries=18`` (256 K two-bit counters).
    history_length:
        Number of global-history bits XORed into the index; defaults to
        ``log2_entries`` as in the original design.
    """

    def __init__(self, log2_entries: int = 18, history_length: int | None = None) -> None:
        if log2_entries < 2 or log2_entries > 26:
            raise ValueError("log2_entries must be between 2 and 26")
        self.log2_entries = log2_entries
        self.entries = 1 << log2_entries
        self.history_length = history_length if history_length is not None else log2_entries
        if self.history_length < 0 or self.history_length > log2_entries:
            raise ValueError("history_length must be in [0, log2_entries]")
        self.name = f"gshare-{self.entries * 2 // 1024}Kbits"
        # 2-bit counters, initialised weakly taken (branch streams are
        # taken-biased, so this minimises the cold-start penalty).
        self._counters = np.full(self.entries, 2, dtype=np.int8)
        self._history = GlobalHistoryRegister(capacity=max(64, self.history_length))

    def index(self, pc: int) -> int:
        """gshare index: branch address XOR global history."""
        history = self._history.value(self.history_length)
        return ((pc >> 2) ^ history) & mask(self.log2_entries)

    def predict(self, pc: int) -> GSharePrediction:
        index = self.index(pc)
        counter = int(self._counters[index])
        return GSharePrediction(taken=counter >= 2, index=index, counter=counter)

    def update_history(self, pc: int, taken: bool, info: PredictionInfo) -> None:
        self._history.push(taken)

    def update(
        self, pc: int, taken: bool, info: PredictionInfo, reread: bool = True
    ) -> UpdateStats:
        if not isinstance(info, GSharePrediction):
            raise TypeError("gshare update needs the GSharePrediction returned by predict()")
        stats = UpdateStats()
        index = info.index
        if reread:
            counter = int(self._counters[index])
            stats.entry_reads += 1
        else:
            counter = info.counter
        new_counter = min(3, counter + 1) if taken else max(0, counter - 1)
        if new_counter != int(self._counters[index]):
            self._counters[index] = new_counter
            stats.entry_writes += 1
            stats.tables_written += 1
        return stats

    def storage_report(self) -> StorageReport:
        report = StorageReport(self.name)
        report.add("2-bit counters", self.entries, 2)
        return report
