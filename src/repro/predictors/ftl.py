"""A fused global + local GEHL predictor (FTL++ stand-in).

FTL++ (Ishii et al., CBP-3) fuses a global-history GEHL with a
local-history GEHL ahead of a single adder and threshold, so that local
correlation is captured without a meta-predictor.  The contest
configuration includes tricks that are not realistically implementable;
this module implements the published fused two-level core:

* a global component: signed counter tables indexed with geometric global
  history lengths (folded incrementally),
* a local component: signed counter tables indexed with the branch's own
  local history at geometric lengths,
* one fused sum, one dynamic threshold, shared training.

It is used as a comparator in the Figure 10 experiment, always under
update scenario [A].
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.bits import fold_bits, mask
from repro.common.counters import SaturatingCounter, SignedCounterTable, adapt_threshold
from repro.common.storage import StorageReport
from repro.histories.folded import FoldedHistory
from repro.histories.geometric import geometric_series
from repro.histories.global_history import GlobalHistoryRegister
from repro.histories.local import LocalHistoryTable
from repro.predictors.base import PredictionInfo, Predictor, UpdateStats

__all__ = ["FTLConfig", "FTLPrediction", "FTLPredictor"]


@dataclass(frozen=True)
class FTLConfig:
    """Dimensions of the fused predictor.

    The defaults give a predictor in the same storage class as the paper's
    512 Kbit comparison points.
    """

    global_tables: int = 9
    global_log2_entries: int = 12
    global_min_history: int = 4
    global_max_history: int = 640
    local_tables: int = 5
    local_log2_entries: int = 11
    local_min_history: int = 2
    local_max_history: int = 16
    local_history_entries: int = 512
    counter_bits: int = 6

    def __post_init__(self) -> None:
        if self.global_tables < 2 or self.local_tables < 2:
            raise ValueError("both components need at least two tables")
        if self.counter_bits < 2:
            raise ValueError("counter_bits must be at least 2")


@dataclass
class FTLPrediction(PredictionInfo):
    """Snapshot of a fused read: per-component indices and the fused sum."""

    global_indices: tuple[int, ...] = ()
    local_indices: tuple[int, ...] = ()
    total: int = 0


class FTLPredictor(Predictor):
    """Fused two-level (global GEHL + local GEHL) predictor."""

    def __init__(self, config: FTLConfig | None = None) -> None:
        self.config = config or FTLConfig()
        cfg = self.config
        self.name = "ftl-fused"

        self.global_lengths = (
            0,
            *geometric_series(cfg.global_min_history, cfg.global_max_history, cfg.global_tables - 1),
        )
        self.local_lengths = geometric_series(
            cfg.local_min_history, cfg.local_max_history, cfg.local_tables
        )
        self.global_tables = [
            SignedCounterTable(1 << cfg.global_log2_entries, cfg.counter_bits)
            for _ in range(cfg.global_tables)
        ]
        self.local_tables = [
            SignedCounterTable(1 << cfg.local_log2_entries, cfg.counter_bits)
            for _ in range(cfg.local_tables)
        ]
        self._history = GlobalHistoryRegister(capacity=max(64, cfg.global_max_history + 8))
        self._folds = [
            FoldedHistory(length, cfg.global_log2_entries) if length else None
            for length in self.global_lengths
        ]
        self._local_history = LocalHistoryTable(
            entries=cfg.local_history_entries, history_bits=max(self.local_lengths)
        )
        self.threshold = cfg.global_tables + cfg.local_tables
        self._threshold_counter = SaturatingCounter(bits=7, signed=True, value=0)

    # -- indexing -----------------------------------------------------------

    def _global_index(self, pc: int, table: int) -> int:
        width = self.config.global_log2_entries
        fold = self._folds[table]
        pc_hash = (pc >> 2) ^ (pc >> (2 + width))
        if fold is None:
            return pc_hash & mask(width)
        return (pc_hash ^ fold.value ^ (fold.value >> max(1, width - table))) & mask(width)

    def _local_index(self, pc: int, table: int, local_history: int) -> int:
        width = self.config.local_log2_entries
        length = self.local_lengths[table]
        history = fold_bits(local_history & mask(length), length, width)
        pc_hash = (pc >> 2) ^ (pc >> (2 + width))
        return (pc_hash ^ history ^ (table << 2)) & mask(width)

    # -- Predictor interface -------------------------------------------------

    def predict(self, pc: int) -> FTLPrediction:
        cfg = self.config
        local_history = self._local_history.read(pc)
        global_indices = tuple(
            self._global_index(pc, table) for table in range(cfg.global_tables)
        )
        local_indices = tuple(
            self._local_index(pc, table, local_history) for table in range(cfg.local_tables)
        )
        total = sum(
            self.global_tables[t].centered(global_indices[t]) for t in range(cfg.global_tables)
        )
        total += sum(
            self.local_tables[t].centered(local_indices[t]) for t in range(cfg.local_tables)
        )
        return FTLPrediction(
            taken=total >= 0,
            global_indices=global_indices,
            local_indices=local_indices,
            total=total,
        )

    def update_history(self, pc: int, taken: bool, info: PredictionInfo) -> None:
        new_bit = 1 if taken else 0
        for fold, length in zip(self._folds, self.global_lengths):
            if fold is None:
                continue
            dropped = self._history.bit(length - 1) if length - 1 < len(self._history) else 0
            fold.update(new_bit, dropped)
        self._history.push(taken)
        self._local_history.update(pc, taken)

    def update(
        self, pc: int, taken: bool, info: PredictionInfo, reread: bool = True
    ) -> UpdateStats:
        if not isinstance(info, FTLPrediction):
            raise TypeError("FTL update needs the FTLPrediction returned by predict()")
        stats = UpdateStats()
        mispredicted = info.taken != taken
        if not mispredicted and abs(info.total) >= self.threshold:
            return stats

        for table, index in enumerate(info.global_indices):
            stats.entry_reads += 1
            if self.global_tables[table].update(index, taken):
                stats.entry_writes += 1
                stats.tables_written += 1
        for table, index in enumerate(info.local_indices):
            stats.entry_reads += 1
            if self.local_tables[table].update(index, taken):
                stats.entry_writes += 1
                stats.tables_written += 1

        self.threshold = adapt_threshold(self._threshold_counter, self.threshold, mispredicted)
        return stats

    def storage_report(self) -> StorageReport:
        cfg = self.config
        report = StorageReport(self.name)
        for table, length in enumerate(self.global_lengths):
            report.add(
                f"global T{table} counters (L={length})",
                1 << cfg.global_log2_entries,
                cfg.counter_bits,
            )
        for table, length in enumerate(self.local_lengths):
            report.add(
                f"local T{table} counters (L={length})",
                1 << cfg.local_log2_entries,
                cfg.counter_bits,
            )
        report.add("local history table", cfg.local_history_entries, max(self.local_lengths))
        report.add("threshold counter", 1, 7)
        return report
