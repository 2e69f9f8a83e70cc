"""Tests for the composed predictors (AugmentedTAGE, L-TAGE, ISL-TAGE, TAGE-LSC)."""

import pytest

from repro.core.augmented import AugmentedTAGE, RetireReadScope
from repro.core.composed import ISLTAGEPredictor, LTAGEPredictor, TAGELSCPredictor
from repro.core.tage import make_reference_tage
from repro.pipeline.config import PipelineConfig
from repro.pipeline.scenarios import UpdateScenario
from repro.pipeline.engine import SimulationEngine


class TestComposition:
    def test_ltage_has_loop_but_no_corrector(self):
        predictor = LTAGEPredictor()
        assert predictor.loop is not None
        assert predictor.ium is None
        assert predictor.sc is None and predictor.lsc is None

    def test_isl_tage_has_all_three_side_predictors(self):
        predictor = ISLTAGEPredictor()
        assert predictor.ium is not None
        assert predictor.loop is not None
        assert predictor.sc is not None
        assert predictor.lsc is None

    def test_tage_lsc_has_ium_and_lsc_only(self):
        predictor = TAGELSCPredictor()
        assert predictor.ium is not None
        assert predictor.lsc is not None
        assert predictor.loop is None and predictor.sc is None

    def test_storage_reports_include_side_predictors(self):
        isl = ISLTAGEPredictor().storage_report()
        names = " ".join(item.name for item in isl.items)
        assert "loop" in names and "SC" in names

    def test_fit_512kbits_shrinks_t7(self):
        full = TAGELSCPredictor(fit_512kbits=False)
        fitted = TAGELSCPredictor(fit_512kbits=True)
        assert fitted.storage_bits < full.storage_bits

    def test_invalid_retire_read_scope(self):
        with pytest.raises(ValueError):
            AugmentedTAGE(retire_read_scope="bogus")


class TestAccuracyOrdering:
    """The paper's central accuracy ladder must hold on the mini suite."""

    def test_side_predictors_do_not_hurt(self, mini_suite):
        def total(factory):
            return sum(SimulationEngine(factory()).run(t).mispredictions for t in mini_suite)

        tage = total(make_reference_tage)
        isl = total(ISLTAGEPredictor)
        lsc = total(TAGELSCPredictor)
        assert isl <= tage * 1.02
        assert lsc <= tage * 1.02

    def test_loop_predictor_helps_on_irregular_loops(self):
        from repro.traces.synthetic import BiasedBranch, LoopBranch, WorkloadSpec, generate_workload

        spec = WorkloadSpec()
        spec.add(LoopBranch(0x1000, iterations=17, body_branches=2, body_bias=0.85), 1.0)
        spec.add(BiasedBranch(0x9000, 0.9), 2.0)
        trace = generate_workload(spec, 4000, seed=23)
        tage = SimulationEngine(make_reference_tage()).run(trace).mispredictions
        ltage = SimulationEngine(LTAGEPredictor()).run(trace).mispredictions
        assert ltage <= tage

    def test_lsc_helps_on_local_patterns(self):
        from repro.traces.synthetic import BiasedBranch, LocalPatternBranch, WorkloadSpec, generate_workload

        spec = WorkloadSpec()
        spec.add(LocalPatternBranch(0x1000, (True, True, False, True, False, False, True, False)), 2.0)
        spec.add(BiasedBranch(0x2000, 0.8), 3.0)
        spec.add(BiasedBranch(0x3000, 0.7), 3.0)
        trace = generate_workload(spec, 5000, seed=29)
        tage = SimulationEngine(make_reference_tage()).run(trace).mispredictions
        lsc = SimulationEngine(TAGELSCPredictor()).run(trace).mispredictions
        assert lsc < tage


class TestIUMIntegration:
    def test_ium_recovers_part_of_the_delayed_update_gap(self, tiny_trace):
        config = PipelineConfig(retire_delay=24, execute_delay=6)
        immediate = SimulationEngine(make_reference_tage()).run(tiny_trace).mispredictions
        delayed_plain = (
            SimulationEngine(make_reference_tage(), UpdateScenario.REREAD_AT_RETIRE, config)
            .run(tiny_trace)
            .mispredictions
        )
        delayed_ium = (
            SimulationEngine(
                AugmentedTAGE(use_ium=True, name="tage+ium"),
                UpdateScenario.REREAD_AT_RETIRE,
                config,
            )
            .run(tiny_trace)
            .mispredictions
        )
        assert delayed_plain >= immediate
        assert delayed_ium <= delayed_plain

    def test_ium_overrides_are_counted(self, tiny_trace):
        predictor = AugmentedTAGE(use_ium=True, name="tage+ium")
        result = SimulationEngine(predictor, UpdateScenario.REREAD_AT_RETIRE).run(tiny_trace)
        assert result.ium_overrides >= 0
        assert result.ium_overrides == predictor.ium.overrides


class TestBankInterleaving:
    def test_interleaving_changes_little_accuracy(self, tiny_trace):
        plain = SimulationEngine(make_reference_tage()).run(tiny_trace).mispredictions
        interleaved_predictor = AugmentedTAGE(use_ium=False, name="tage-banked")
        interleaved_predictor.enable_bank_interleaving()
        banked = SimulationEngine(interleaved_predictor).run(tiny_trace).mispredictions
        # Section 4.3: the accuracy loss from interleaving is marginal.
        assert banked <= plain * 1.15

    def test_interleaving_scopes(self, tiny_trace):
        for scope in (RetireReadScope.ALL, RetireReadScope.TAGE_ONLY, RetireReadScope.LOCAL_ONLY):
            predictor = TAGELSCPredictor()
            predictor.enable_bank_interleaving(scope=scope)
            result = SimulationEngine(predictor).run(tiny_trace)
            assert result.branches == len(tiny_trace)

    def test_invalid_scope_rejected(self):
        predictor = TAGELSCPredictor()
        with pytest.raises(ValueError):
            predictor.enable_bank_interleaving(scope="everything")


class TestRetireReadScope:
    @pytest.mark.parametrize("scope", [RetireReadScope.ALL, RetireReadScope.TAGE_ONLY,
                                       RetireReadScope.LOCAL_ONLY])
    def test_scenario_c_runs_under_every_scope(self, tiny_trace, scope):
        predictor = TAGELSCPredictor(retire_read_scope=scope)
        scenario = UpdateScenario.REREAD_ON_MISPREDICTION
        result = SimulationEngine(predictor, scenario).run(tiny_trace)
        assert result.branches == len(tiny_trace)
        assert 0 < result.mispredictions < result.branches
