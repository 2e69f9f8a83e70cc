"""TAGE augmented with the paper's side predictors.

Sections 5 and 6 of the paper build increasingly capable predictors by
attaching small side predictors to a main TAGE predictor:

* the **Immediate Update Mimicker** (IUM) reuses the outcome of in-flight,
  already-executed branches hitting the same TAGE entry,
* the **loop predictor** overrides the prediction for loops with constant
  trip counts once it is confident,
* the **Statistical Corrector** (SC) reverts statistically unlikely TAGE
  predictions using global history,
* the **local-history Statistical Corrector** (LSC) does the same with the
  branch's own history and subsumes most of what the loop predictor and
  the global SC capture.

:class:`AugmentedTAGE` composes any subset of these around a
:class:`~repro.core.tage.TAGEPredictor`; the named predictors of the paper
are thin factories over it:

* L-TAGE      = TAGE + loop predictor,
* ISL-TAGE    = TAGE + IUM + loop predictor + global SC,
* TAGE-LSC    = TAGE + IUM + LSC.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.counters import SaturatingCounter
from repro.common.storage import StorageReport
from repro.core.config import TAGEConfig
from repro.core.ium import ImmediateUpdateMimicker
from repro.core.loop_predictor import LoopPrediction, LoopPredictor
from repro.core.statistical_corrector import (
    LocalStatisticalCorrector,
    SCReading,
    StatisticalCorrector,
)
from repro.core.tage import TAGEPrediction, TAGEPredictor
from repro.predictors.base import PredictionInfo, Predictor, UpdateStats

__all__ = ["AugmentedPrediction", "AugmentedTAGE", "RetireReadScope"]


class RetireReadScope:
    """Which components honour "do not re-read at retire" (Section 7.2).

    When the pipeline requests ``reread=False`` (scenarios [B]/[C] on a
    correct prediction), the composed predictor can apply it to all of its
    components, to the TAGE (global-history) components only, or to the
    local-history components only — the three variants Section 7.2
    compares.
    """

    ALL = "all"
    TAGE_ONLY = "tage-only"
    LOCAL_ONLY = "local-only"

    VALID = (ALL, TAGE_ONLY, LOCAL_ONLY)


@dataclass
class AugmentedPrediction(PredictionInfo):
    """Snapshot of a composed prediction: every component's fetch-time reading."""

    tage: TAGEPrediction = field(default_factory=TAGEPrediction)
    pre_loop_taken: bool = False
    ium_sequence: int = -1
    ium_override: bool | None = None
    sc_reading: SCReading | None = None
    lsc_reading: SCReading | None = None
    lsc_sequence: int = -1
    loop_prediction: LoopPrediction | None = None
    loop_sequence: int = -1
    loop_used: bool = False


class AugmentedTAGE(Predictor):
    """A TAGE predictor composed with any subset of the paper's side predictors.

    Parameters
    ----------
    config:
        TAGE dimensioning (defaults to the reference 64 KB configuration).
    use_ium:
        Attach the Immediate Update Mimicker (Section 5.1).
    loop_predictor:
        Attach a loop predictor (Section 5.2); pass an instance to control
        its dimensioning.
    statistical_corrector:
        Attach the global-history Statistical Corrector (Section 5.3).
    local_corrector:
        Attach the local-history Statistical Corrector (Section 6).
    retire_read_scope:
        Which components honour ``reread=False`` at update time
        (:class:`RetireReadScope`, Section 7.2).
    name:
        Display name of the composed predictor.
    """

    def __init__(
        self,
        config: TAGEConfig | None = None,
        use_ium: bool = True,
        loop_predictor: LoopPredictor | None = None,
        statistical_corrector: StatisticalCorrector | None = None,
        local_corrector: LocalStatisticalCorrector | None = None,
        retire_read_scope: str = RetireReadScope.ALL,
        ium_mode: str = "counter",
        name: str = "augmented-tage",
    ) -> None:
        if retire_read_scope not in RetireReadScope.VALID:
            raise ValueError(
                f"retire_read_scope must be one of {RetireReadScope.VALID}, "
                f"got {retire_read_scope!r}"
            )
        self.name = name
        self.tage = TAGEPredictor(config)
        self.ium = ImmediateUpdateMimicker(mode=ium_mode) if use_ium else None
        self.loop = loop_predictor
        self.sc = statistical_corrector
        self.lsc = local_corrector
        self.retire_read_scope = retire_read_scope
        #: WITHLOOP counter (from L-TAGE): the loop predictor only overrides
        #: while this counter is non-negative, i.e. while it has recently
        #: been more accurate than the main prediction on loop branches.
        self.with_loop = SaturatingCounter(bits=7, signed=True, value=-1)
        #: Bank selector advanced by this predictor (only set when the TAGE
        #: component itself is not interleaved; see enable_bank_interleaving).
        self._shared_bank_selector = None

    def enable_bank_interleaving(
        self, num_banks: int = 4, scope: str = RetireReadScope.ALL
    ) -> None:
        """Simulate the 4-way interleaved single-ported organisation.

        A single :class:`~repro.hardware.banking.BankSelector` is shared by
        every component covered by ``scope`` (the TAGE tagged tables, the
        corrector tables, or both), so that the accuracy effect of a branch
        mapping to up to four different entries is modelled exactly as in
        Sections 4.3 and 7.1.
        """
        from repro.hardware.banking import BankSelector

        if scope not in RetireReadScope.VALID:
            raise ValueError(f"scope must be one of {RetireReadScope.VALID}, got {scope!r}")
        selector = BankSelector(num_banks)
        if scope in (RetireReadScope.ALL, RetireReadScope.TAGE_ONLY):
            self.tage.bank_selector = selector
        if scope in (RetireReadScope.ALL, RetireReadScope.LOCAL_ONLY):
            if self.sc is not None:
                self.sc._core.bank_selector = selector
            if self.lsc is not None:
                self.lsc._core.bank_selector = selector
        # The selector state must advance exactly once per predicted branch.
        # The TAGE component advances its own selector in update_history;
        # when only the local components are interleaved, this predictor
        # advances the shared selector itself.
        self._shared_bank_selector = selector if self.tage.bank_selector is None else None

    # -- prediction -----------------------------------------------------------

    def predict(self, pc: int) -> AugmentedPrediction:
        tage_info = self.tage.predict(pc)
        prediction = tage_info.taken

        ium_override: bool | None = None
        if self.ium is not None:
            ium_override = self.ium.lookup(*tage_info.provider_entry())
            if ium_override is not None:
                self.ium.overrides += 1
                prediction = ium_override

        sc_reading: SCReading | None = None
        if self.sc is not None:
            sc_reading = self.sc.read(pc, prediction, tage_info.provider_centered())
            prediction = sc_reading.taken

        lsc_reading: SCReading | None = None
        if self.lsc is not None:
            lsc_reading = self.lsc.read(pc, prediction, tage_info.provider_centered())
            prediction = lsc_reading.taken

        pre_loop_taken = prediction
        loop_prediction: LoopPrediction | None = None
        loop_used = False
        if self.loop is not None:
            loop_prediction = self.loop.predict(pc)
            if loop_prediction.hit and loop_prediction.confident and self.with_loop.value >= 0:
                prediction = loop_prediction.taken
                loop_used = True

        return AugmentedPrediction(
            taken=prediction,
            tage=tage_info,
            pre_loop_taken=pre_loop_taken,
            ium_override=ium_override,
            sc_reading=sc_reading,
            lsc_reading=lsc_reading,
            loop_prediction=loop_prediction,
            loop_used=loop_used,
        )

    # -- fetch-time speculative state ------------------------------------------

    def update_history(self, pc: int, taken: bool, info: PredictionInfo) -> None:
        if not isinstance(info, AugmentedPrediction):
            raise TypeError("AugmentedTAGE needs the AugmentedPrediction from predict()")
        self.tage.update_history(pc, taken, info.tage)
        if self._shared_bank_selector is not None:
            self._shared_bank_selector.advance(pc)
        if self.sc is not None:
            self.sc.update_history(pc, taken)
        if self.ium is not None:
            provider_table, provider_index = info.tage.provider_entry()
            if provider_table > 0:
                counter = info.tage.provider_ctr
                counter_lo = -(1 << (self.tage.config.counter_bits - 1))
                counter_hi = (1 << (self.tage.config.counter_bits - 1)) - 1
            else:
                # Re-centre the bimodal 2-bit counter so that "taken" means
                # non-negative, matching the tagged-counter convention.
                counter = info.tage.base_counter - 2
                counter_lo, counter_hi = -2, 1
            info.ium_sequence = self.ium.record(
                provider_table, provider_index, counter, counter_lo, counter_hi
            )
        if self.lsc is not None:
            info.lsc_sequence = self.lsc.speculate(pc, taken)
        if self.loop is not None and info.loop_prediction is not None:
            info.loop_sequence = self.loop.speculate(info.loop_prediction, taken)

    def notify_execute(self, pc: int, taken: bool, info: PredictionInfo) -> None:
        if not isinstance(info, AugmentedPrediction):
            raise TypeError("AugmentedTAGE needs the AugmentedPrediction from predict()")
        if self.ium is not None and info.ium_sequence >= 0:
            self.ium.mark_executed(info.ium_sequence, taken)

    # -- retire-time update ----------------------------------------------------

    def _component_reread(self, reread: bool) -> tuple[bool, bool]:
        """Split the pipeline's ``reread`` request into (TAGE, local/SC) rereads."""
        if reread:
            return True, True
        scope = self.retire_read_scope
        tage_reread = scope == RetireReadScope.LOCAL_ONLY
        local_reread = scope == RetireReadScope.TAGE_ONLY
        return tage_reread, local_reread

    def update(
        self, pc: int, taken: bool, info: PredictionInfo, reread: bool = True
    ) -> UpdateStats:
        if not isinstance(info, AugmentedPrediction):
            raise TypeError("AugmentedTAGE needs the AugmentedPrediction from predict()")
        stats = UpdateStats()
        tage_reread, local_reread = self._component_reread(reread)

        if self.ium is not None and info.ium_sequence >= 0:
            self.ium.release(info.ium_sequence)

        if self.loop is not None:
            loop_prediction = info.loop_prediction or LoopPrediction()
            pre_loop_correct = info.pre_loop_taken == taken
            if (
                loop_prediction.hit
                and loop_prediction.confident
                and loop_prediction.taken != info.pre_loop_taken
            ):
                # The loop predictor disagreed with the rest of the
                # predictor: track which of the two to trust (WITHLOOP).
                self.with_loop.update(loop_prediction.taken == taken)
            self.loop.update(
                pc,
                taken,
                loop_prediction,
                main_prediction_correct=pre_loop_correct,
                slim_sequence=info.loop_sequence,
            )

        if self.sc is not None and info.sc_reading is not None:
            writes = self.sc.train(info.sc_reading, taken, reread=local_reread)
            stats.entry_reads += len(info.sc_reading.indices) if local_reread else 0
            stats.entry_writes += writes
            stats.tables_written += writes

        if self.lsc is not None and info.lsc_reading is not None:
            writes = self.lsc.train(
                pc, info.lsc_reading, taken, info.lsc_sequence, reread=local_reread
            )
            stats.entry_reads += len(info.lsc_reading.indices) if local_reread else 0
            stats.entry_writes += writes
            stats.tables_written += writes

        stats.merge(self.tage.update(pc, taken, info.tage, reread=tage_reread))
        return stats

    # -- reporting ------------------------------------------------------------

    def storage_report(self) -> StorageReport:
        report = StorageReport(self.name)
        report.extend(self.tage.storage_report())
        if self.loop is not None:
            report.extend(self.loop.storage_report())
        if self.sc is not None:
            report.extend(self.sc.storage_report())
        if self.lsc is not None:
            report.extend(self.lsc.storage_report())
        if self.with_loop is not None and self.loop is not None:
            report.add("WITHLOOP counter", 1, 7)
        return report
