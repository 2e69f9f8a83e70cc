"""The GEometric History Length (GEHL / O-GEHL) predictor.

GEHL (Seznec, ISCA 2005) sums small signed counters read from several
tables indexed with geometrically increasing global-history lengths; the
sign of the sum is the prediction and the counters are trained, adder-tree
style, whenever the prediction is wrong or the sum's magnitude falls below
a dynamically adapted threshold.

In this reproduction GEHL plays three roles:

* the representative "neural-inspired" predictor of Section 4 (520 Kbit
  configuration: 13 tables x 8 K entries x 5-bit counters, (6, 2000)
  geometric series),
* the template of the Statistical Corrector predictor (Section 5.3),
* one half of the fused FTL-like comparator (Section 6.3).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.bits import mask
from repro.common.counters import SaturatingCounter, SignedCounterTable, adapt_threshold
from repro.common.storage import StorageReport
from repro.histories.folded import FoldedHistory
from repro.histories.geometric import geometric_series
from repro.histories.global_history import GlobalHistoryRegister
from repro.predictors.base import PredictionInfo, Predictor, UpdateStats

__all__ = ["GEHLConfig", "GEHLPrediction", "GEHLPredictor"]


@dataclass(frozen=True)
class GEHLConfig:
    """Dimensions of a GEHL predictor.

    The defaults reproduce the 520 Kbit configuration the paper uses in
    Section 4 ("13 tables, 5 bit entries and 8K entries per table using
    (6, 2000) history length").
    """

    num_tables: int = 13
    log2_entries: int = 13
    counter_bits: int = 5
    min_history: int = 6
    max_history: int = 2000
    initial_threshold: int | None = None

    def __post_init__(self) -> None:
        if self.num_tables < 2:
            raise ValueError("GEHL needs at least two tables")
        if not 1 <= self.log2_entries <= 24:
            raise ValueError("log2_entries out of range")
        if self.counter_bits < 2:
            raise ValueError("counter_bits must be at least 2")
        if self.min_history < 1 or self.max_history < self.min_history:
            raise ValueError("invalid history range")

    @property
    def history_lengths(self) -> tuple[int, ...]:
        """Per-table history lengths: 0 for T0, then the geometric series."""
        return (0, *geometric_series(self.min_history, self.max_history, self.num_tables - 1))

    @property
    def storage_bits(self) -> int:
        """Total counter storage."""
        return self.num_tables * (1 << self.log2_entries) * self.counter_bits


@dataclass
class GEHLPrediction(PredictionInfo):
    """Snapshot of a GEHL read: per-table indices and counter values, and the sum."""

    indices: tuple[int, ...] = ()
    counters: tuple[int, ...] = ()
    total: int = 0


class GEHLPredictor(Predictor):
    """Global-history GEHL predictor with dynamic update-threshold adaptation."""

    def __init__(self, config: GEHLConfig | None = None) -> None:
        self.config = config or GEHLConfig()
        self.name = f"gehl-{self.config.storage_bits // 1024}Kbits"
        self.history_lengths = self.config.history_lengths
        entries = 1 << self.config.log2_entries
        self.tables = [
            SignedCounterTable(entries, self.config.counter_bits)
            for _ in range(self.config.num_tables)
        ]
        self._history = GlobalHistoryRegister(capacity=max(64, self.config.max_history + 8))
        self._folds = [
            FoldedHistory(length, self.config.log2_entries) if length else None
            for length in self.history_lengths
        ]
        # Dynamic update threshold (O-GEHL's TC mechanism): the threshold
        # grows when mispredictions dominate and shrinks when low-magnitude
        # correct predictions dominate, balancing the two update causes.
        initial = self.config.initial_threshold
        self.threshold = initial if initial is not None else self.config.num_tables
        self._threshold_counter = SaturatingCounter(bits=7, signed=True, value=0)

    # -- indexing -----------------------------------------------------------

    def _index(self, pc: int, table: int) -> int:
        fold = self._folds[table]
        width = self.config.log2_entries
        pc_hash = (pc >> 2) ^ (pc >> (2 + width))
        if fold is None:
            return pc_hash & mask(width)
        return (pc_hash ^ fold.value ^ (fold.value >> (width - table % width or 1))) & mask(width)

    def indices(self, pc: int) -> tuple[int, ...]:
        """Per-table indices the branch at ``pc`` reads right now."""
        return tuple(self._index(pc, t) for t in range(self.config.num_tables))

    # -- Predictor interface -------------------------------------------------

    def predict(self, pc: int) -> GEHLPrediction:
        indices = self.indices(pc)
        counters = tuple(self.tables[t][indices[t]] for t in range(self.config.num_tables))
        total = sum(2 * c + 1 for c in counters)
        return GEHLPrediction(taken=total >= 0, indices=indices, counters=counters, total=total)

    def update_history(self, pc: int, taken: bool, info: PredictionInfo) -> None:
        new_bit = 1 if taken else 0
        for fold, length in zip(self._folds, self.history_lengths):
            if fold is None:
                continue
            dropped = self._history.bit(length - 1) if length - 1 < len(self._history) else 0
            fold.update(new_bit, dropped)
        self._history.push(taken)

    def update(
        self, pc: int, taken: bool, info: PredictionInfo, reread: bool = True
    ) -> UpdateStats:
        if not isinstance(info, GEHLPrediction):
            raise TypeError("GEHL update needs the GEHLPrediction returned by predict()")
        stats = UpdateStats()
        mispredicted = info.taken != taken
        if not mispredicted and abs(info.total) >= self.threshold:
            # Confident and correct: no counter is trained (GEHL's partial
            # update policy); only the threshold bookkeeping may move.
            return stats

        for table in range(self.config.num_tables):
            index = info.indices[table]
            if reread:
                counter = self.tables[table][index]
                stats.entry_reads += 1
            else:
                counter = info.counters[table]
            step = 1 if taken else -1
            new_value = max(self.tables[table].lo, min(self.tables[table].hi, counter + step))
            if new_value != self.tables[table][index]:
                self.tables[table][index] = new_value
                stats.entry_writes += 1
                stats.tables_written += 1

        # O-GEHL threshold fitting: mispredictions push it up,
        # low-confidence correct predictions push it down.
        self.threshold = adapt_threshold(self._threshold_counter, self.threshold, mispredicted)
        return stats

    def storage_report(self) -> StorageReport:
        report = StorageReport(self.name)
        for table, length in enumerate(self.history_lengths):
            report.add(
                f"T{table} counters (L={length})",
                1 << self.config.log2_entries,
                self.config.counter_bits,
            )
        report.add("threshold counter", 1, 7)
        report.add("threshold register", 1, 8)
        return report
