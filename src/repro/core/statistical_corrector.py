"""The Statistical Corrector predictor (Section 5.3) and its local-history
variant, the LSC (Section 6).

TAGE excels at path-correlated branches but performs *worse* than a simple
wide-counter table on branches that carry only a statistical bias.  The
Statistical Corrector (SC) watches the TAGE prediction and decides, agree
-predictor style, whether to revert it:

* a small GEHL-like bank of signed counter tables is indexed with the
  branch address, the TAGE prediction and a few short histories,
* the correction sum adds the (centered) SC counters to eight times the
  (centered) counter of the hitting TAGE component, so a confident TAGE
  prediction is hard to overturn,
* the prediction is reverted only when the SC disagrees *and* the sum's
  magnitude exceeds a dynamically adapted threshold.

The LSC (local-history Statistical Corrector) is the same machine indexed
with the branch's *local* history instead of the global history; the paper
shows it additionally captures most of what the loop predictor and the
global SC capture, making TAGE-LSC both simpler and more accurate than
ISL-TAGE.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import getitem

from repro.common.bits import mask
from repro.common.counters import SaturatingCounter, SignedCounterTable, adapt_threshold
from repro.common.storage import StorageReport
from repro.histories.local import LocalHistoryTable, SpeculativeLocalHistoryManager

__all__ = [
    "StatisticalCorrectorConfig",
    "SCReading",
    "StatisticalCorrector",
    "LocalStatisticalCorrector",
]

#: Weight given to the TAGE provider counter in the correction sum: "plus
#: eight times the (centered) output of the hitting bank in TAGE".
TAGE_CONFIDENCE_WEIGHT = 8


@dataclass(frozen=True)
class StatisticalCorrectorConfig:
    """Dimensions of a Statistical Corrector.

    The defaults reproduce the paper's global-history SC: "4 logical
    tables indexed with the 4 shortest history lengths (0, 6, 10, 17) ...
    1K 6-bit entries, i.e., a total of 24 Kbits".
    """

    history_lengths: tuple[int, ...] = (0, 6, 10, 17)
    log2_entries: int = 10
    counter_bits: int = 6
    initial_threshold: int = 12

    def __post_init__(self) -> None:
        if not self.history_lengths:
            raise ValueError("the corrector needs at least one table")
        if not 4 <= self.log2_entries <= 20:
            raise ValueError("log2_entries out of range")
        if self.counter_bits < 2:
            raise ValueError("counter_bits must be at least 2")
        if self.initial_threshold < 1:
            raise ValueError("initial_threshold must be positive")

    @property
    def num_tables(self) -> int:
        """Number of corrector tables."""
        return len(self.history_lengths)

    @property
    def storage_bits(self) -> int:
        """Counter storage of the corrector tables."""
        return self.num_tables * (1 << self.log2_entries) * self.counter_bits


@dataclass
class SCReading:
    """Snapshot of one corrector lookup.

    ``revert`` is the corrector's decision; ``taken`` is the final
    direction after (possibly) reverting the TAGE prediction.  The
    ``counters`` snapshot allows a retire-time update without re-reading
    the tables (update scenarios [B]/[C], Section 7.2).
    """

    taken: bool = False
    revert: bool = False
    total: int = 0
    indices: tuple[int, ...] = ()
    counters: tuple[int, ...] = ()
    tage_taken: bool = False


class _CorrectorCore:
    """Shared machinery of the global- and local-history correctors."""

    def __init__(self, config: StatisticalCorrectorConfig, name: str) -> None:
        self.config = config
        self.name = name
        entries = 1 << config.log2_entries
        self.tables = [
            SignedCounterTable(entries, config.counter_bits)
            for _ in range(config.num_tables)
        ]
        self.threshold = config.initial_threshold
        self._threshold_counter = SaturatingCounter(bits=7, signed=True, value=0)
        width = config.log2_entries
        self._index_mask = mask(width)
        #: Per table: history-window mask, chunk shifts of the fold into
        #: the index width, and the per-table salt.
        self._hash_geometry = [
            (mask(length), tuple(range(0, length, width)), table << 1)
            for table, length in enumerate(config.history_lengths)
        ]
        #: Optional bank selector for the interleaved single-ported
        #: organisation of Section 7.1 (shared with, and advanced by, the
        #: TAGE predictor).
        self.bank_selector = None

    def _indices(self, pc: int, history_value: int, tage_taken: bool) -> tuple[int, ...]:
        """Hash (PC, truncated history, TAGE prediction) into every table's index.

        Each table folds its history window into the index width by XOR;
        since the index is masked last, the fold is the XOR of the
        window's ``width``-bit chunks shifted down, unmasked.
        """
        width = self.config.log2_entries
        index_mask = self._index_mask
        base = (pc >> 2) ^ (pc >> (2 + width)) ^ (1 if tage_taken else 0)
        indices = []
        for history_mask, chunk_shifts, salt in self._hash_geometry:
            window = history_value & history_mask
            folded = 0
            for shift in chunk_shifts:
                folded ^= window >> shift
            indices.append((base ^ folded ^ salt) & index_mask)
        if self.bank_selector is not None and width >= 2:
            bank = self.bank_selector.select(pc)
            keep = ~(self.bank_selector.num_banks - 1)
            indices = [(index & keep) | bank for index in indices]
        return tuple(indices)

    def read(self, pc: int, history_value: int, tage_taken: bool, tage_centered: int) -> SCReading:
        """Compute the correction sum and the revert decision."""
        indices = self._indices(pc, history_value, tage_taken)
        counters = tuple(map(getitem, self.tables, indices))
        total = 2 * sum(counters) + len(counters)
        # Add the TAGE confidence term, signed so that it pulls the sum
        # toward the TAGE prediction.
        confidence = TAGE_CONFIDENCE_WEIGHT * abs(tage_centered)
        total += confidence if tage_taken else -confidence
        sc_taken = total >= 0
        revert = sc_taken != tage_taken and abs(total) >= self.threshold
        return SCReading(
            taken=sc_taken if revert else tage_taken,
            revert=revert,
            total=total,
            indices=indices,
            counters=counters,
            tage_taken=tage_taken,
        )

    def train(self, reading: SCReading, taken: bool, reread: bool = True) -> int:
        """Retire-time training; returns the number of entries written.

        The corrector tables are trained, GEHL-style, whenever the
        corrector's own direction was wrong or its sum magnitude is below
        the threshold; the threshold adapts so that reverting remains
        beneficial on average.  With ``reread=False`` the update starts
        from the fetch-time counter snapshot instead of re-reading the
        tables (Section 7.2's cost-effective variant).
        """
        writes = 0
        sc_taken = reading.total >= 0
        if sc_taken != taken or abs(reading.total) < self.threshold:
            step = 1 if taken else -1
            for table, index in enumerate(reading.indices):
                if reread:
                    if self.tables[table].update(index, taken):
                        writes += 1
                else:
                    stale = reading.counters[table]
                    new_value = max(
                        self.tables[table].lo, min(self.tables[table].hi, stale + step)
                    )
                    if new_value != self.tables[table][index]:
                        self.tables[table][index] = new_value
                        writes += 1
        # Threshold adaptation is driven by the disagreements (the only
        # cases where the corrector can help or hurt).
        if sc_taken != reading.tage_taken:
            self.threshold = adapt_threshold(
                self._threshold_counter, self.threshold, sc_taken != taken)
        return writes

    def storage_items(self, report: StorageReport) -> None:
        """Append this corrector's storage to ``report``."""
        for table, length in enumerate(self.config.history_lengths):
            report.add(
                f"{self.name} T{table} counters (L={length})",
                1 << self.config.log2_entries,
                self.config.counter_bits,
            )
        report.add(f"{self.name} threshold counter", 1, 7)


class StatisticalCorrector:
    """Global-history Statistical Corrector (Section 5.3).

    The corrector observes the same global history as TAGE; the composed
    predictor (:class:`repro.core.augmented.AugmentedTAGE`) feeds it the
    TAGE prediction and the provider counter value at prediction time and
    trains it at retire time.
    """

    def __init__(self, config: StatisticalCorrectorConfig | None = None) -> None:
        self.config = config or StatisticalCorrectorConfig()
        self._core = _CorrectorCore(self.config, "SC")
        #: The global history the tables read, packed with the most recent
        #: outcome in bit 0 and cut to the longest history length.
        self._history = 0
        self._history_mask = mask(max(self.config.history_lengths))

    def read(self, pc: int, tage_taken: bool, tage_centered: int) -> SCReading:
        """Correct (or confirm) the TAGE prediction for ``pc``."""
        return self._core.read(pc, self._history, tage_taken, tage_centered)

    def update_history(self, pc: int, taken: bool) -> None:
        """Advance the corrector's global history (fetch time)."""
        self._history = ((self._history << 1) | (1 if taken else 0)) & self._history_mask

    def train(self, reading: SCReading, taken: bool, reread: bool = True) -> int:
        """Retire-time training; returns the number of entries written."""
        return self._core.train(reading, taken, reread=reread)

    @property
    def threshold(self) -> int:
        """Current dynamic revert threshold."""
        return self._core.threshold

    def storage_report(self) -> StorageReport:
        report = StorageReport("statistical-corrector")
        self._core.storage_items(report)
        return report


class LocalStatisticalCorrector:
    """Local-history Statistical Corrector — the LSC of Section 6.

    The corrector tables are indexed with the branch's own (speculative)
    local history, read from a very small local history table backed by a
    Speculative Local History Manager.  The paper's configuration uses 5
    tables of 1 K 6-bit entries with local history lengths (0, 4, 10, 17,
    31) over a 32-entry direct-mapped local history table.
    """

    DEFAULT_CONFIG = StatisticalCorrectorConfig(
        history_lengths=(0, 4, 10, 17, 31), log2_entries=10, counter_bits=6
    )

    def __init__(
        self,
        config: StatisticalCorrectorConfig | None = None,
        local_history_entries: int = 64,
    ) -> None:
        self.config = config or self.DEFAULT_CONFIG
        self._core = _CorrectorCore(self.config, "LSC")
        history_bits = max(32, max(self.config.history_lengths))
        self.local_history = LocalHistoryTable(
            entries=local_history_entries, history_bits=history_bits
        )
        self.speculative_manager = SpeculativeLocalHistoryManager(self.local_history)

    def read(self, pc: int, tage_taken: bool, tage_centered: int) -> SCReading:
        """Correct (or confirm) the TAGE prediction using local history."""
        history_value = self.speculative_manager.speculative_history(pc)
        return self._core.read(pc, history_value, tage_taken, tage_centered)

    def speculate(self, pc: int, predicted_taken: bool) -> int:
        """Record the fetched branch in the speculative local history manager."""
        return self.speculative_manager.record(pc, predicted_taken)

    def train(
        self,
        pc: int,
        reading: SCReading,
        taken: bool,
        speculative_sequence: int = -1,
        reread: bool = True,
    ) -> int:
        """Retire-time training: commit the local history and train the tables."""
        if speculative_sequence >= 0:
            self.speculative_manager.retire(speculative_sequence, pc, taken)
        else:
            self.local_history.update(pc, taken)
        return self._core.train(reading, taken, reread=reread)

    @property
    def threshold(self) -> int:
        """Current dynamic revert threshold."""
        return self._core.threshold

    def storage_report(self) -> StorageReport:
        report = StorageReport("local-statistical-corrector")
        self._core.storage_items(report)
        report.add(
            "local history table", self.local_history.entries, self.local_history.history_bits
        )
        return report
