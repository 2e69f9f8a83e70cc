"""A scaled neural analog / piecewise-linear style predictor (OH-SNAP stand-in).

Section 6.3 of the paper compares ISL-TAGE and TAGE-LSC against the other
CBP-3 finalists; OH-SNAP (Jimenez) is a piecewise-linear neural predictor
with per-position weight scaling.  The exact CBP-3 configuration is not
reproducible (it relies on contest-specific tricks), so this module
implements the published algorithmic core:

* hashed weight tables indexed by (branch PC, history position, path PC),
  which is the piecewise-linear idea of separating weights by the path
  leading to the branch,
* per-position scaling coefficients that emphasise recent history — the
  "scaled" part of SNAP,
* threshold-based training with dynamic threshold adaptation.

It is used only as a comparator for the Figure 10 experiment, always under
update scenario [A] (it re-reads its tables at retire time).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.common.bits import mask
from repro.common.counters import SaturatingCounter, adapt_threshold
from repro.common.storage import StorageReport
from repro.histories.global_history import GlobalHistoryRegister
from repro.predictors.base import PredictionInfo, Predictor, UpdateStats

__all__ = ["SNAPPredictor", "SNAPPrediction"]


@dataclass
class SNAPPrediction(PredictionInfo):
    """Snapshot of a SNAP read: per-position table indices, history bits and the sum."""

    bias_index: int = 0
    indices: tuple[int, ...] = ()
    history_bits: tuple[int, ...] = ()
    total: float = 0.0


class SNAPPredictor(Predictor):
    """Piecewise-linear neural predictor with scaled per-position weights.

    Parameters
    ----------
    history_length:
        Number of (history position, path) weight contributions summed.
    log2_entries:
        Log2 of the entries of each per-position weight table.
    weight_bits:
        Width of each signed weight.
    """

    def __init__(
        self,
        history_length: int = 48,
        log2_entries: int = 11,
        weight_bits: int = 6,
    ) -> None:
        if history_length < 1:
            raise ValueError("history_length must be positive")
        if not 4 <= log2_entries <= 20:
            raise ValueError("log2_entries out of range")
        if weight_bits < 2:
            raise ValueError("weight_bits must be at least 2")
        self.history_length = history_length
        self.log2_entries = log2_entries
        self.entries = 1 << log2_entries
        self.weight_bits = weight_bits
        self._weight_min = -(1 << (weight_bits - 1))
        self._weight_max = (1 << (weight_bits - 1)) - 1
        self.name = f"snap-{history_length}x{self.entries}"
        # One weight table per history position plus a bias table.
        self._weights = np.zeros((history_length, self.entries), dtype=np.int32)
        self._bias = np.zeros(self.entries, dtype=np.int32)
        # Per-position scaling coefficients: recent history weighs more, the
        # analog-summation insight behind the SNAP family.
        self._scales = np.array(
            [1.0 / (1.0 + 0.03 * position) for position in range(history_length)]
        )
        self._history = GlobalHistoryRegister(capacity=max(64, history_length))
        self._path: deque[int] = deque(maxlen=history_length)
        self.threshold = int(2.14 * (history_length + 1) + 20.58)
        self._threshold_counter = SaturatingCounter(bits=7, signed=True, value=0)

    def _bias_index(self, pc: int) -> int:
        return ((pc >> 2) ^ (pc >> (2 + self.log2_entries))) & mask(self.log2_entries)

    def _position_index(self, pc: int, position: int) -> int:
        path_pc = self._path[-1 - position] if position < len(self._path) else 0
        return ((pc >> 2) ^ (path_pc >> 2) ^ (position << 3)) & mask(self.log2_entries)

    def predict(self, pc: int) -> SNAPPrediction:
        bias_index = self._bias_index(pc)
        indices = tuple(
            self._position_index(pc, position) for position in range(self.history_length)
        )
        bits = tuple(self._history.bit(position) for position in range(self.history_length))
        total = float(self._bias[bias_index])
        for position in range(self.history_length):
            weight = float(self._weights[position][indices[position]])
            signed = weight if bits[position] else -weight
            total += self._scales[position] * signed
        return SNAPPrediction(
            taken=bool(total >= 0.0),
            bias_index=bias_index,
            indices=indices,
            history_bits=bits,
            total=float(total),
        )

    def update_history(self, pc: int, taken: bool, info: PredictionInfo) -> None:
        self._history.push(taken)
        self._path.append(pc)

    def update(
        self, pc: int, taken: bool, info: PredictionInfo, reread: bool = True
    ) -> UpdateStats:
        if not isinstance(info, SNAPPrediction):
            raise TypeError("SNAP update needs the SNAPPrediction returned by predict()")
        stats = UpdateStats()
        mispredicted = info.taken != taken
        if not mispredicted and abs(info.total) > self.threshold:
            return stats

        stats.entry_reads += 1 + self.history_length
        direction = 1 if taken else -1
        new_bias = int(
            np.clip(self._bias[info.bias_index] + direction, self._weight_min, self._weight_max)
        )
        if new_bias != int(self._bias[info.bias_index]):
            self._bias[info.bias_index] = new_bias
            stats.entry_writes += 1
            stats.tables_written += 1
        for position in range(self.history_length):
            index = info.indices[position]
            agree = 1 if (info.history_bits[position] == 1) == taken else -1
            old = int(self._weights[position][index])
            new = int(np.clip(old + agree, self._weight_min, self._weight_max))
            if new != old:
                self._weights[position][index] = new
                stats.entry_writes += 1
                stats.tables_written += 1

        self.threshold = adapt_threshold(self._threshold_counter, self.threshold, mispredicted)
        return stats

    def storage_report(self) -> StorageReport:
        report = StorageReport(self.name)
        report.add("bias weights", self.entries, self.weight_bits)
        report.add("position weights", self.history_length * self.entries, self.weight_bits)
        return report
