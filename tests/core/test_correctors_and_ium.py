"""Unit tests for the Statistical Correctors and the Immediate Update Mimicker."""

import pytest

from repro.core.ium import ImmediateUpdateMimicker
from repro.core.statistical_corrector import (
    LocalStatisticalCorrector,
    StatisticalCorrector,
    StatisticalCorrectorConfig,
)


class TestStatisticalCorrectorConfig:
    def test_paper_default_is_24_kbits(self):
        assert StatisticalCorrectorConfig().storage_bits == 24 * 1024

    def test_validation(self):
        with pytest.raises(ValueError):
            StatisticalCorrectorConfig(history_lengths=())
        with pytest.raises(ValueError):
            StatisticalCorrectorConfig(initial_threshold=0)


class TestGlobalStatisticalCorrector:
    def test_agrees_with_confident_tage_by_default(self):
        corrector = StatisticalCorrector()
        reading = corrector.read(0x4000, tage_taken=True, tage_centered=7)
        assert reading.taken is True
        assert not reading.revert

    def test_learns_to_revert_a_consistently_wrong_prediction(self):
        """If TAGE keeps predicting taken while the branch is not-taken, the
        corrector must eventually revert the prediction."""
        corrector = StatisticalCorrector()
        pc = 0x4000
        reverted = False
        for _ in range(400):
            reading = corrector.read(pc, tage_taken=True, tage_centered=1)
            corrector.update_history(pc, False)
            corrector.train(reading, taken=False)
            if reading.revert:
                reverted = True
        assert reverted
        assert corrector.read(pc, tage_taken=True, tage_centered=1).taken is False

    def test_high_tage_confidence_resists_reverting(self):
        corrector = StatisticalCorrector()
        pc = 0x4000
        for _ in range(50):
            weak = corrector.read(pc, tage_taken=True, tage_centered=1)
            corrector.train(weak, taken=False)
            corrector.update_history(pc, False)
        weak = corrector.read(pc, tage_taken=True, tage_centered=1)
        strong = corrector.read(pc, tage_taken=True, tage_centered=7)
        assert abs(strong.total) > abs(weak.total) or strong.taken == weak.taken

    def test_training_writes_are_reported(self):
        corrector = StatisticalCorrector()
        reading = corrector.read(0x4000, tage_taken=True, tage_centered=1)
        writes = corrector.train(reading, taken=False)
        assert writes > 0

    def test_no_reread_training_uses_snapshot(self):
        corrector = StatisticalCorrector()
        pc = 0x4000
        stale = corrector.read(pc, tage_taken=True, tage_centered=1)
        for _ in range(5):
            reading = corrector.read(pc, tage_taken=True, tage_centered=1)
            corrector.train(reading, taken=False)
        corrector.train(stale, taken=False, reread=False)
        fresh = corrector.read(pc, tage_taken=True, tage_centered=1)
        assert isinstance(fresh.total, int)

    def test_storage_report_counts_tables_and_threshold(self):
        report = StatisticalCorrector().storage_report()
        assert report.total_bits > 24 * 1024  # tables plus the threshold counter


class TestLocalStatisticalCorrector:
    def test_learns_a_local_pattern(self):
        """A period-3 branch is invisible to a PC-only counter but obvious
        from 4+ bits of local history."""
        corrector = LocalStatisticalCorrector()
        pc = 0x4000
        pattern = [True, True, False]
        mispredictions = 0
        for i in range(900):
            taken = pattern[i % 3]
            reading = corrector.read(pc, tage_taken=True, tage_centered=1)
            if reading.taken != taken:
                mispredictions += 1
            sequence = corrector.speculate(pc, taken)
            corrector.train(pc, reading, taken, speculative_sequence=sequence)
        # TAGE alone (always taken here) would mispredict 300 times.
        assert mispredictions < 200

    def test_speculative_local_history_flows_through(self):
        corrector = LocalStatisticalCorrector()
        pc = 0x4000
        sequence = corrector.speculate(pc, True)
        assert corrector.speculative_manager.speculative_history(pc) & 1 == 1
        reading = corrector.read(pc, tage_taken=True, tage_centered=1)
        corrector.train(pc, reading, True, speculative_sequence=sequence)
        assert corrector.local_history.read(pc) & 1 == 1

    def test_default_configuration_matches_paper(self):
        corrector = LocalStatisticalCorrector()
        assert corrector.config.history_lengths == (0, 4, 10, 17, 31)
        assert corrector.config.storage_bits == 30 * 1024


class TestImmediateUpdateMimicker:
    def test_no_override_without_executed_entry(self):
        ium = ImmediateUpdateMimicker()
        assert ium.lookup(3, 17) is None
        ium.record(3, 17, counter=0, counter_lo=-4, counter_hi=3)
        assert ium.lookup(3, 17) is None  # recorded but not yet executed

    def test_counter_mode_mimics_saturating_update(self):
        ium = ImmediateUpdateMimicker(mode="counter")
        sequence = ium.record(2, 5, counter=2, counter_lo=-4, counter_hi=3)
        ium.mark_executed(sequence, taken=False)
        # 2 -> 1 after one not-taken: the sign does not flip.
        assert ium.lookup(2, 5) is True

    def test_outcome_mode_returns_raw_outcome(self):
        ium = ImmediateUpdateMimicker(mode="outcome")
        sequence = ium.record(2, 5, counter=2, counter_lo=-4, counter_hi=3)
        ium.mark_executed(sequence, taken=False)
        assert ium.lookup(2, 5) is False

    def test_chained_inflight_occurrences_accumulate(self):
        ium = ImmediateUpdateMimicker(mode="counter")
        first = ium.record(1, 9, counter=1, counter_lo=-4, counter_hi=3)
        ium.mark_executed(first, taken=False)          # mimicked counter: 0
        second = ium.record(1, 9, counter=1, counter_lo=-4, counter_hi=3)
        ium.mark_executed(second, taken=False)         # inherits 0 -> -1
        assert ium.lookup(1, 9) is False

    def test_release_frees_entry(self):
        ium = ImmediateUpdateMimicker()
        sequence = ium.record(1, 2, counter=0, counter_lo=-4, counter_hi=3)
        ium.mark_executed(sequence, True)
        ium.release(sequence)
        assert ium.lookup(1, 2) is None

    def test_squash_after(self):
        ium = ImmediateUpdateMimicker()
        first = ium.record(1, 2, counter=0, counter_lo=-4, counter_hi=3)
        second = ium.record(1, 2, counter=0, counter_lo=-4, counter_hi=3)
        ium.mark_executed(second, True)
        ium.squash_after(first)
        assert ium.lookup(1, 2) is None

    def test_capacity_bound(self):
        ium = ImmediateUpdateMimicker(capacity=3)
        for _ in range(10):
            ium.record(0, 0, counter=0, counter_lo=-4, counter_hi=3)
        assert len(ium) == 3

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            ImmediateUpdateMimicker(mode="magic")
