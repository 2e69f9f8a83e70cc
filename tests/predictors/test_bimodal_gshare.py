"""Behavioural tests for the bimodal and gshare predictors."""

import pytest

from repro.pipeline.engine import SimulationEngine
from repro.predictors.bimodal import BimodalPredictor
from repro.predictors.gshare import GSharePredictor


class TestBimodal:
    def test_learns_direction_after_two_updates(self):
        predictor = BimodalPredictor(entries=256)
        pc = 0x400
        for _ in range(2):
            info = predictor.predict(pc)
            predictor.update(pc, False, info)
        assert predictor.predict(pc).taken is False

    def test_hysteresis_needs_two_contrary_outcomes(self):
        predictor = BimodalPredictor(entries=256)
        pc = 0x400
        for _ in range(4):
            info = predictor.predict(pc)
            predictor.update(pc, True, info)
        info = predictor.predict(pc)
        predictor.update(pc, False, info)
        assert predictor.predict(pc).taken is True  # still taken after one NT

    def test_shared_hysteresis_storage(self):
        predictor = BimodalPredictor(entries=32768, hysteresis_sharing=4)
        report = predictor.storage_report()
        assert report.total_bits == 32768 + 8192

    def test_silent_update_not_counted(self):
        predictor = BimodalPredictor(entries=256)
        pc = 0x400
        for _ in range(3):
            info = predictor.predict(pc)
            last = predictor.update(pc, True, info)
        assert last.entry_writes == 0  # saturated: writing the same value

    def test_stale_update_uses_snapshot(self):
        """With reread=False the update must start from the fetch-time value."""
        predictor = BimodalPredictor(entries=256)
        pc = 0x400
        stale_info = predictor.predict(pc)  # snapshot: weakly taken (2)
        # Younger in-flight occurrences train the entry to strongly not-taken.
        for _ in range(3):
            info = predictor.predict(pc)
            predictor.update(pc, False, info)
        assert predictor.read_counter(pc) == 0
        predictor.update(pc, False, stale_info, reread=False)
        # The stale write clobbers the trained value with (snapshot - 1) = 1,
        # losing the intervening training — the scenario [B] pathology.
        assert predictor.read_counter(pc) == 1

    def test_entries_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            BimodalPredictor(entries=300)

    def test_hysteresis_sharing_must_divide_entries(self):
        with pytest.raises(ValueError):
            BimodalPredictor(entries=1024, hysteresis_sharing=3)


class TestGShare:
    def test_different_history_different_entry(self):
        predictor = GSharePredictor(log2_entries=12, history_length=8)
        pc = 0x400
        info_a = predictor.predict(pc)
        predictor.update_history(pc, True, info_a)
        info_b = predictor.predict(pc)
        assert info_a.index != info_b.index

    def test_learns_history_correlated_branch(self, loop_trace):
        result = SimulationEngine(GSharePredictor(log2_entries=14)).run(loop_trace)
        assert result.mispredictions / result.branches < 0.05

    def test_paper_configuration_storage(self):
        assert GSharePredictor(log2_entries=18).storage_bits == 512 * 1024

    def test_history_length_cannot_exceed_index(self):
        with pytest.raises(ValueError):
            GSharePredictor(log2_entries=10, history_length=12)
