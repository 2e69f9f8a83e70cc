"""The perceptron branch predictor (Jimenez & Lin, HPCA 2001).

The original neural predictor: one signed weight vector per (hashed)
branch PC, dotted with the global history.  It is included as the root of
the "neural-inspired" family the paper contrasts TAGE with, and as an
extra baseline for the examples and the Figure 10-style comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.bits import mask
from repro.common.storage import StorageReport
from repro.histories.global_history import GlobalHistoryRegister
from repro.predictors.base import PredictionInfo, Predictor, UpdateStats

__all__ = ["PerceptronPredictor", "PerceptronPrediction"]


@dataclass
class PerceptronPrediction(PredictionInfo):
    """Snapshot of a perceptron read: the row index, the dot product and the history."""

    row: int = 0
    total: int = 0
    history_bits: tuple[int, ...] = ()


class PerceptronPredictor(Predictor):
    """Global-history perceptron predictor.

    Parameters
    ----------
    log2_rows:
        Log2 of the number of weight vectors.
    history_length:
        Number of global-history bits (and therefore weights per row,
        excluding the bias weight).
    weight_bits:
        Width of each signed weight.
    """

    def __init__(
        self, log2_rows: int = 10, history_length: int = 32, weight_bits: int = 8
    ) -> None:
        if not 1 <= log2_rows <= 20:
            raise ValueError("log2_rows out of range")
        if history_length < 1:
            raise ValueError("history_length must be positive")
        if weight_bits < 2:
            raise ValueError("weight_bits must be at least 2")
        self.log2_rows = log2_rows
        self.rows = 1 << log2_rows
        self.history_length = history_length
        self.weight_bits = weight_bits
        self._weight_min = -(1 << (weight_bits - 1))
        self._weight_max = (1 << (weight_bits - 1)) - 1
        self.name = f"perceptron-{self.rows}x{history_length}"
        # weights[row][0] is the bias weight, weights[row][1 + i] correlates
        # with the direction of the branch i branches in the past.
        self._weights = np.zeros((self.rows, history_length + 1), dtype=np.int32)
        self._history = GlobalHistoryRegister(capacity=max(64, history_length))
        # Classic threshold from the perceptron paper: 1.93 * h + 14.
        self.threshold = int(1.93 * history_length + 14)

    def _row(self, pc: int) -> int:
        return ((pc >> 2) ^ (pc >> (2 + self.log2_rows))) & mask(self.log2_rows)

    def predict(self, pc: int) -> PerceptronPrediction:
        row = self._row(pc)
        bits = tuple(self._history.bit(i) for i in range(self.history_length))
        weights = self._weights[row]
        total = int(weights[0])
        for i, bit in enumerate(bits):
            total += int(weights[1 + i]) if bit else -int(weights[1 + i])
        return PerceptronPrediction(taken=total >= 0, row=row, total=total, history_bits=bits)

    def update_history(self, pc: int, taken: bool, info: PredictionInfo) -> None:
        self._history.push(taken)

    def update(
        self, pc: int, taken: bool, info: PredictionInfo, reread: bool = True
    ) -> UpdateStats:
        if not isinstance(info, PerceptronPrediction):
            raise TypeError("perceptron update needs the PerceptronPrediction from predict()")
        stats = UpdateStats()
        mispredicted = info.taken != taken
        if not mispredicted and abs(info.total) > self.threshold:
            return stats
        weights = self._weights[info.row]
        stats.entry_reads += 1 if reread else 0
        # One step per weight toward the outcome: the bias toward ``taken``,
        # each history weight toward agreement of its bit with ``taken``.
        steps = np.empty(len(weights), dtype=np.int64)
        steps[0] = 1
        steps[1:] = np.asarray(info.history_bits, dtype=np.int64) * 2 - 1
        if not taken:
            steps = -steps
        updated = np.clip(weights + steps, self._weight_min, self._weight_max)
        changed = bool((updated != weights).any())
        weights[:] = updated
        if changed:
            stats.entry_writes += 1
            stats.tables_written += 1
        return stats

    def storage_report(self) -> StorageReport:
        report = StorageReport(self.name)
        report.add("weights", self.rows * (self.history_length + 1), self.weight_bits)
        return report
