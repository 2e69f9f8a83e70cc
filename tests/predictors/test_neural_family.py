"""Behavioural tests for the neural-family predictors (perceptron, GEHL, SNAP, FTL)."""

import pytest

from repro.pipeline.engine import SimulationEngine
from repro.predictors.ftl import FTLConfig, FTLPredictor
from repro.predictors.gehl import GEHLConfig, GEHLPredictor
from repro.predictors.perceptron import PerceptronPredictor
from repro.predictors.snap import SNAPPredictor


class TestGEHLConfig:
    def test_paper_configuration_is_520_kbits(self):
        assert GEHLConfig().storage_bits == 520 * 1024

    def test_history_lengths_start_at_zero(self):
        lengths = GEHLConfig().history_lengths
        assert lengths[0] == 0
        assert lengths[-1] == 2000
        assert len(lengths) == 13

    def test_invalid_configurations(self):
        with pytest.raises(ValueError):
            GEHLConfig(num_tables=1)
        with pytest.raises(ValueError):
            GEHLConfig(counter_bits=1)
        with pytest.raises(ValueError):
            GEHLConfig(min_history=10, max_history=5)


class TestGEHL:
    def make(self):
        return GEHLPredictor(GEHLConfig(num_tables=6, log2_entries=9, max_history=100))

    def test_threshold_adapts_upward_under_mispredictions(self):
        predictor = self.make()
        start = predictor.threshold
        # Train with an adversarial alternating pattern on one branch.
        for i in range(2000):
            pc = 0x400
            info = predictor.predict(pc)
            taken = i % 2 == 0
            predictor.update_history(pc, taken, info)
            predictor.update(pc, taken, info)
        assert predictor.threshold != start or predictor.threshold >= 1

    def test_confident_correct_prediction_skips_training(self):
        predictor = self.make()
        pc = 0x400
        for _ in range(200):
            info = predictor.predict(pc)
            predictor.update_history(pc, True, info)
            last = predictor.update(pc, True, info)
        assert last.entry_writes == 0

    def test_learns_loop_behaviour(self, loop_trace):
        result = SimulationEngine(self.make()).run(loop_trace)
        assert result.mispredictions / result.branches < 0.08

    def test_indices_within_tables(self):
        predictor = self.make()
        for pc in range(0x1000, 0x1100, 4):
            for index in predictor.indices(pc):
                assert 0 <= index < 512


class TestPerceptron:
    def test_learns_alternating_pattern(self):
        predictor = PerceptronPredictor(log2_rows=8, history_length=8)
        pc = 0x404
        mispredictions = 0
        for i in range(600):
            info = predictor.predict(pc)
            taken = i % 2 == 0
            if info.taken != taken:
                mispredictions += 1
            predictor.update_history(pc, taken, info)
            predictor.update(pc, taken, info)
        # A perceptron learns an alternating branch almost perfectly.
        assert mispredictions < 60

    def test_threshold_formula(self):
        predictor = PerceptronPredictor(history_length=32)
        assert predictor.threshold == int(1.93 * 32 + 14)

    def test_storage_report(self):
        predictor = PerceptronPredictor(log2_rows=8, history_length=16, weight_bits=8)
        assert predictor.storage_bits == 256 * 17 * 8


class TestSNAP:
    def test_learns_biased_branch(self, biased_trace):
        predictor = SNAPPredictor(history_length=16, log2_entries=8)
        result = SimulationEngine(predictor).run(biased_trace)
        assert result.mispredictions / result.branches < 0.25

    def test_scales_decrease_with_position(self):
        predictor = SNAPPredictor(history_length=8, log2_entries=8)
        assert predictor._scales[0] > predictor._scales[-1]

    def test_invalid_configuration(self):
        with pytest.raises(ValueError):
            SNAPPredictor(history_length=0)


class TestFTL:
    def test_fused_storage_includes_both_components(self):
        predictor = FTLPredictor()
        names = [item.name for item in predictor.storage_report().items]
        assert any("global" in name for name in names)
        assert any("local" in name for name in names)

    def test_learns_local_pattern(self):
        """A short periodic branch is exactly what the local component captures."""
        from repro.traces.synthetic import LocalPatternBranch, WorkloadSpec, generate_workload

        spec = WorkloadSpec().add(LocalPatternBranch(0x1000, (True, True, False)))
        trace = generate_workload(spec, 1500, seed=3)
        result = SimulationEngine(FTLPredictor()).run(trace)
        assert result.mispredictions / result.branches < 0.10

    def test_invalid_configuration(self):
        with pytest.raises(ValueError):
            FTLConfig(global_tables=1)
