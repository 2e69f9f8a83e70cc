"""Tests for the CBP-like 40-trace suite generator."""

import pytest

from repro.traces.suite import (
    CATEGORIES,
    HARD_TRACES,
    SuiteSpec,
    generate_suite,
    generate_trace,
    trace_names,
)


class TestTraceNames:
    def test_full_suite_has_40_names(self):
        names = trace_names()
        assert len(names) == 40
        assert names[0] == "CLIENT01"
        assert names[-1] == "WS08"

    def test_every_hard_trace_is_in_the_suite(self):
        assert HARD_TRACES <= set(trace_names())


class TestSuiteSpec:
    def test_rejects_unknown_category(self):
        with pytest.raises(ValueError):
            SuiteSpec(categories=("GPU",))

    def test_rejects_tiny_traces(self):
        with pytest.raises(ValueError):
            SuiteSpec(branches_per_trace=10)


class TestGenerateTrace:
    def test_deterministic(self):
        first = generate_trace("MM03", branches_per_trace=600, seed=5)
        second = generate_trace("MM03", branches_per_trace=600, seed=5)
        assert [(r.pc, r.taken) for r in first] == [(r.pc, r.taken) for r in second]

    def test_seed_changes_trace(self):
        first = generate_trace("MM03", branches_per_trace=600, seed=5)
        second = generate_trace("MM03", branches_per_trace=600, seed=6)
        assert [(r.pc, r.taken) for r in first] != [(r.pc, r.taken) for r in second]

    def test_hard_flag_follows_paper_classification(self):
        assert generate_trace("INT01", branches_per_trace=400, seed=1).hard
        assert not generate_trace("INT03", branches_per_trace=400, seed=1).hard

    def test_category_recorded(self):
        assert generate_trace("WS05", branches_per_trace=400, seed=1).category == "WS"

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            generate_trace("GPU01")

    def test_server_traces_have_large_footprints(self):
        server = generate_trace("SERVER03", branches_per_trace=3000, seed=2)
        client = generate_trace("CLIENT05", branches_per_trace=3000, seed=2)
        assert server.static_branch_count > client.static_branch_count

    def test_hard_traces_are_harder_to_predict(self):
        """The designated hard traces must show a clearly higher misprediction
        rate than an easy trace of the same category (Section 2.2)."""
        from repro import BimodalPredictor, SimulationEngine

        hard = generate_trace("INT01", branches_per_trace=2000, seed=3)
        easy = generate_trace("INT05", branches_per_trace=2000, seed=3)
        hard_rate = SimulationEngine(BimodalPredictor(65536)).run(hard).mispredictions / len(hard)
        easy_rate = SimulationEngine(BimodalPredictor(65536)).run(easy).mispredictions / len(easy)
        assert hard_rate > easy_rate


class TestGenerateSuite:
    def test_subset_of_categories(self):
        traces = generate_suite(categories=["INT"], traces_per_category=2,
                                branches_per_trace=300, seed=1)
        assert [t.name for t in traces] == ["INT01", "INT02"]

    def test_all_categories_by_default(self):
        traces = generate_suite(traces_per_category=1, branches_per_trace=300, seed=1)
        assert [t.category for t in traces] == list(CATEGORIES)

    def test_trace_lengths_honoured(self):
        traces = generate_suite(categories=["MM"], traces_per_category=1,
                                branches_per_trace=500, seed=1)
        assert traces[0].branch_count >= 500
