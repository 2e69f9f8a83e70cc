"""Behavioural tests for the TAGE predictor itself."""


from repro.core.config import TAGEConfig
from repro.core.tage import TAGEPredictor, make_reference_tage
from repro.pipeline.engine import SimulationEngine
from repro.predictors.bimodal import BimodalPredictor


def small_tage() -> TAGEPredictor:
    """A small TAGE instance that keeps the tests fast."""
    return TAGEPredictor(TAGEConfig.generate(
        num_tagged_tables=6, min_history=4, max_history=120, base_log2_entries=9,
        bimodal_log2_entries=11))


class TestPredictionStructure:
    def test_prediction_snapshot_is_complete(self):
        predictor = small_tage()
        # 0x1234 is chosen so that no partial tag of a fresh (all-zero)
        # table accidentally matches; false tag matches are legal but would
        # make this structural test ambiguous.
        info = predictor.predict(0x1234)
        assert len(info.indices) == predictor.num_tables
        assert len(info.tags) == predictor.num_tables
        assert len(info.useful_snapshot) == predictor.num_tables
        assert info.provider_table == 0  # nothing allocated yet: base provides

    def test_provider_entry_identity(self):
        predictor = small_tage()
        info = predictor.predict(0x1234)
        table, index = info.provider_entry()
        assert table == 0
        assert index == info.base_index

    def test_indices_respect_table_sizes(self):
        predictor = small_tage()
        for pc in range(0x8000, 0x8400, 4):
            info = predictor.predict(pc)
            for table, index in enumerate(info.indices):
                assert 0 <= index < (1 << predictor.config.table_log2_entries[table])

    def test_tags_respect_tag_width(self):
        predictor = small_tage()
        info = predictor.predict(0x1234)
        for table, tag in enumerate(info.tags):
            assert 0 <= tag < (1 << predictor.config.tag_widths[table])


class TestAllocation:
    def test_misprediction_allocates_tagged_entries(self):
        predictor = small_tage()
        pc = 0x4000
        # Establish a taken bias, then surprise the predictor.
        for _ in range(4):
            info = predictor.predict(pc)
            predictor.update_history(pc, True, info)
            predictor.update(pc, True, info)
        info = predictor.predict(pc)
        assert info.taken is True
        stats = predictor.update(pc, False, info)
        assert stats.allocations >= 1
        assert stats.allocations <= predictor.config.max_allocations

    def test_correct_prediction_does_not_allocate(self):
        predictor = small_tage()
        pc = 0x4000
        info = predictor.predict(pc)
        stats = predictor.update(pc, info.taken, info)
        assert stats.allocations == 0

    def test_allocations_use_non_consecutive_tables(self):
        predictor = small_tage()
        pc = 0x4400
        for _ in range(3):
            info = predictor.predict(pc)
            predictor.update_history(pc, True, info)
            predictor.update(pc, True, info)
        info = predictor.predict(pc)
        before = [int(predictor._tags[t][info.indices[t]]) for t in range(predictor.num_tables)]
        predictor.update(pc, False, info)
        written = [
            t for t in range(predictor.num_tables)
            if int(predictor._tags[t][info.indices[t]]) != before[t]
            or int(predictor._ctr[t][info.indices[t]]) != 0
        ]
        allocated = [t for t in written if int(predictor._tags[t][info.indices[t]]) == info.tags[t]]
        assert all(b - a >= 2 for a, b in zip(allocated, allocated[1:]))

    def test_useful_reset_eventually_triggers(self):
        """Saturating the allocation monitor must reset every useful bit."""
        predictor = small_tage()
        # Mark every entry of every table useful so allocations always fail.
        for useful in predictor._useful:
            useful[:] = [1] * len(useful)
        predictor.allocation_tick.set(predictor.allocation_tick.hi - 1)
        pc = 0x4800
        for _ in range(4):
            info = predictor.predict(pc)
            predictor.update_history(pc, True, info)
            predictor.update(pc, True, info)
        info = predictor.predict(pc)
        predictor.update(pc, False, info)
        assert predictor.useful_resets >= 1
        assert all(sum(useful) == 0 for useful in predictor._useful)


class TestAccuracy:
    def test_perfect_on_constant_loop(self, loop_trace):
        result = SimulationEngine(make_reference_tage()).run(loop_trace)
        assert result.mispredictions / result.branches < 0.01

    def test_beats_bimodal_on_structured_trace(self, tiny_trace):
        tage = SimulationEngine(make_reference_tage()).run(tiny_trace)
        bimodal = SimulationEngine(BimodalPredictor(entries=65536)).run(tiny_trace)
        assert tage.mispredictions < bimodal.mispredictions

    def test_captures_long_range_correlation(self):
        """A branch copying another branch ~30 branches earlier needs the
        longer-history tagged tables; the bimodal base cannot capture it."""
        from repro.traces.synthetic import (
            BiasedBranch, GloballyCorrelatedBranch, WorkloadSpec, generate_workload,
        )

        spec = WorkloadSpec()
        spec.add(BiasedBranch(0x1000, 0.5), weight=1.0)
        for i in range(14):
            spec.add(BiasedBranch(0x2000 + i * 0x100, 0.97), weight=2.0)
        spec.add(GloballyCorrelatedBranch(0x9000, source_pc=0x1000), weight=1.0)
        trace = generate_workload(spec, 4000, seed=17)
        tage = SimulationEngine(make_reference_tage()).run(trace)
        bimodal = SimulationEngine(BimodalPredictor(entries=65536)).run(trace)
        correlated = [r for r in trace if r.pc == 0x9000]
        assert len(correlated) > 50
        assert tage.mispredictions < bimodal.mispredictions


class TestUpdateScenarioSupport:
    def test_no_reread_update_uses_snapshot(self):
        predictor = small_tage()
        pc = 0x4000
        stale = predictor.predict(pc)
        for _ in range(3):
            info = predictor.predict(pc)
            predictor.update(pc, False, info)
        counter_before = predictor.base.read_counter(pc)
        predictor.update(pc, False, stale, reread=False)
        assert predictor.base.read_counter(pc) >= counter_before

    def test_storage_report_covers_all_tables(self):
        report = make_reference_tage().storage_report()
        names = " ".join(item.name for item in report.items)
        assert "T1 " in names and "T12 " in names and "bimodal" in names
