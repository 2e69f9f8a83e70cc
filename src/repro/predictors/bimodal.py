"""PC-indexed bimodal predictor with optional shared hysteresis.

The bimodal table is both the simplest useful branch predictor and the
base (T0) component of TAGE.  The paper's reference TAGE configuration
uses "32K prediction bits + 8K hysteresis bits": each entry owns its
prediction bit but four neighbouring entries share one hysteresis bit,
halving the cost of the classic 2-bit counter at a negligible accuracy
cost.  This module implements that structure (a sharing factor of 1
recovers the plain 2-bit-counter bimodal table).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.storage import StorageReport
from repro.predictors.base import PredictionInfo, Predictor, UpdateStats

__all__ = ["BimodalPredictor", "BimodalPrediction"]


@dataclass
class BimodalPrediction(PredictionInfo):
    """Snapshot of a bimodal read: the 2-bit counter value and its indices."""

    index: int = 0
    hysteresis_index: int = 0
    counter: int = 0  # combined 2-bit value: 2*pred + hyst


class BimodalPredictor(Predictor):
    """A table of 2-bit counters with a configurable hysteresis sharing factor.

    Parameters
    ----------
    entries:
        Number of prediction bits (power of two).
    hysteresis_sharing:
        How many prediction bits share one hysteresis bit; the paper's
        reference TAGE base predictor uses 4.
    """

    def __init__(self, entries: int = 4096, hysteresis_sharing: int = 1) -> None:
        if entries <= 0 or entries & (entries - 1):
            raise ValueError(f"entries must be a positive power of two, got {entries}")
        if hysteresis_sharing < 1 or entries % hysteresis_sharing:
            raise ValueError("hysteresis_sharing must divide the number of entries")
        self.name = f"bimodal-{entries}"
        self.entries = entries
        self.hysteresis_sharing = hysteresis_sharing
        self._index_mask = entries - 1
        # Power-on state: weakly taken (prediction 1, hysteresis 0).  Branch
        # streams are strongly taken-biased (loop back-edges dominate), so
        # initialising toward taken minimises the cold-start penalty on
        # large-footprint workloads — the convention the CBP simulators use.
        self._prediction = bytearray(b"\x01") * entries
        self._hysteresis = bytearray(entries // hysteresis_sharing)

    # -- indexing -----------------------------------------------------------

    def index(self, pc: int) -> int:
        """Map a branch PC to its prediction-bit index."""
        return (pc >> 2) & self._index_mask

    def read_counter(self, pc: int) -> int:
        """Return the combined 2-bit counter value (0..3) for ``pc``."""
        return self.predict(pc).counter

    # -- Predictor interface -------------------------------------------------

    def predict(self, pc: int) -> BimodalPrediction:
        index = self.index(pc)
        hyst_index = index // self.hysteresis_sharing
        counter = 2 * self._prediction[index] + self._hysteresis[hyst_index]
        return BimodalPrediction(
            taken=counter >= 2, index=index, hysteresis_index=hyst_index, counter=counter
        )

    def update_history(self, pc: int, taken: bool, info: PredictionInfo) -> None:
        """The bimodal predictor keeps no history."""

    def update(
        self, pc: int, taken: bool, info: PredictionInfo, reread: bool = True
    ) -> UpdateStats:
        if not isinstance(info, BimodalPrediction):
            raise TypeError("bimodal update needs the BimodalPrediction returned by predict()")
        stats = UpdateStats()
        index = info.index
        hyst_index = info.hysteresis_index
        if reread:
            counter = 2 * self._prediction[index] + self._hysteresis[hyst_index]
            stats.entry_reads += 1
        else:
            counter = info.counter
        new_counter = min(3, counter + 1) if taken else max(0, counter - 1)
        new_prediction = new_counter >> 1
        new_hysteresis = new_counter & 1
        wrote = False
        if new_prediction != self._prediction[index]:
            self._prediction[index] = new_prediction
            wrote = True
        if new_hysteresis != self._hysteresis[hyst_index]:
            self._hysteresis[hyst_index] = new_hysteresis
            wrote = True
        if wrote:
            stats.entry_writes += 1
            stats.tables_written += 1
        return stats

    def storage_report(self) -> StorageReport:
        report = StorageReport(self.name)
        report.add("prediction bits", self.entries, 1)
        report.add("hysteresis bits", self.entries // self.hysteresis_sharing, 1)
        return report
