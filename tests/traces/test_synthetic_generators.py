"""Tests for the synthetic branch-behaviour generators."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.traces.synthetic import (
    BiasedBranch,
    GeneratorContext,
    GloballyCorrelatedBranch,
    LocalPatternBranch,
    LoopBranch,
    PointerChaseBranch,
    WorkloadSpec,
    generate_workload,
)


def make_ctx(seed=0):
    return GeneratorContext(random.Random(seed))


class TestGeneratorContext:
    def test_last_outcome_per_pc(self):
        ctx = make_ctx()
        ctx.record(True, 0x10)
        ctx.record(False, 0x10)
        assert ctx.last_outcome(0x10) is False
        assert ctx.last_outcome(0x999) is True  # default


class TestBiasedBranch:
    def test_bias_respected(self):
        ctx = make_ctx(1)
        site = BiasedBranch(0x100, 0.9)
        taken = sum(site.emit(ctx)[0][1] for _ in range(2000))
        assert 0.85 < taken / 2000 < 0.95

    def test_invalid_bias(self):
        with pytest.raises(ValueError):
            BiasedBranch(0x100, 1.5)


class TestGloballyCorrelatedBranch:
    def test_copies_source(self):
        ctx = make_ctx()
        ctx.record(False, 0x10)
        site = GloballyCorrelatedBranch(0x200, source_pc=0x10)
        assert site.emit(ctx)[0][1] is False

    def test_invert(self):
        ctx = make_ctx()
        ctx.record(False, 0x10)
        site = GloballyCorrelatedBranch(0x200, source_pc=0x10, invert=True)
        assert site.emit(ctx)[0][1] is True

    def test_noise_probability_validated(self):
        with pytest.raises(ValueError):
            GloballyCorrelatedBranch(0x200, source_pc=0x10, noise=2.0)


class TestLoopBranch:
    def test_constant_trip_count(self):
        ctx = make_ctx()
        site = LoopBranch(0x100, iterations=5)
        emitted = site.emit(ctx)
        assert len(emitted) == 5
        assert [taken for _, taken in emitted] == [True, True, True, True, False]

    def test_body_branches_emitted_per_iteration(self):
        ctx = make_ctx()
        site = LoopBranch(0x100, iterations=3, body_branches=2)
        emitted = site.emit(ctx)
        assert len(emitted) == 3 * 3
        body_pcs = {pc for pc, _ in emitted if pc != 0x100}
        assert len(body_pcs) == 2

    def test_jitter_changes_trip_count(self):
        ctx = make_ctx(3)
        site = LoopBranch(0x100, iterations=10, iteration_jitter=3)
        lengths = {len(site.emit(ctx)) for _ in range(20)}
        assert len(lengths) > 1
        assert all(7 <= length <= 13 for length in lengths)

    def test_validation(self):
        with pytest.raises(ValueError):
            LoopBranch(0x100, iterations=0)


class TestLocalPatternBranch:
    def test_repeats_pattern(self):
        ctx = make_ctx()
        pattern = (True, False, False, True)
        site = LocalPatternBranch(0x100, pattern)
        emitted = [site.emit(ctx)[0][1] for _ in range(8)]
        assert tuple(emitted[:4]) == pattern
        assert tuple(emitted[4:]) == pattern

    def test_multi_pattern_varies(self):
        ctx = make_ctx()
        site = LocalPatternBranch(0x100, (True,) * 12, pattern_count=100)
        first_cycle = [site.emit(ctx)[0][1] for _ in range(12)]
        second_cycle = [site.emit(ctx)[0][1] for _ in range(12)]
        assert first_cycle == [True] * 12
        assert second_cycle != first_cycle  # a perturbed variant kicked in

    def test_empty_pattern_rejected(self):
        with pytest.raises(ValueError):
            LocalPatternBranch(0x100, ())


class TestPointerChaseBranch:
    def test_many_static_branches(self):
        ctx = make_ctx(5)
        site = PointerChaseBranch(0x100000, static_branches=64)
        pcs = {site.emit(ctx)[0][0] for _ in range(1000)}
        assert len(pcs) > 32

    def test_bias_bounds_validated(self):
        with pytest.raises(ValueError):
            PointerChaseBranch(0x100, 16, bias_low=0.9, bias_high=0.5)


class TestWorkloadSpec:
    def test_requires_sites(self):
        with pytest.raises(ValueError):
            generate_workload(WorkloadSpec(), 100, seed=1)

    def test_rejects_duplicate_pcs(self):
        spec = WorkloadSpec()
        spec.add(BiasedBranch(0x100, 0.5))
        spec.add(BiasedBranch(0x100, 0.9))
        with pytest.raises(ValueError):
            spec.validate()

    def test_skeleton_respects_weights(self):
        spec = WorkloadSpec()
        heavy = BiasedBranch(0x100, 0.5)
        light = BiasedBranch(0x200, 0.5)
        spec.add(heavy, weight=4).add(light, weight=1)
        skeleton = spec.build_skeleton(random.Random(0))
        assert skeleton.count(heavy) == 4
        assert skeleton.count(light) == 1


class TestGenerateWorkload:
    def test_deterministic_given_seed(self):
        spec = WorkloadSpec().add(BiasedBranch(0x100, 0.7)).add(LoopBranch(0x200, 5))
        first = generate_workload(spec, 500, seed=9)
        spec2 = WorkloadSpec().add(BiasedBranch(0x100, 0.7)).add(LoopBranch(0x200, 5))
        second = generate_workload(spec2, 500, seed=9)
        assert [(r.pc, r.taken) for r in first] == [(r.pc, r.taken) for r in second]

    def test_length_at_least_requested(self):
        spec = WorkloadSpec().add(LoopBranch(0x200, 50))
        trace = generate_workload(spec, 400, seed=2)
        assert trace.branch_count >= 400

    def test_metadata_propagated(self):
        spec = WorkloadSpec().add(BiasedBranch(0x100, 0.7))
        trace = generate_workload(spec, 200, seed=3, name="X", category="INT", hard=True)
        assert trace.name == "X" and trace.category == "INT" and trace.hard

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=10, deadline=None)
    def test_any_seed_produces_valid_records(self, seed):
        spec = WorkloadSpec().add(BiasedBranch(0x100, 0.8)).add(LoopBranch(0x300, 4))
        trace = generate_workload(spec, 200, seed=seed)
        assert all(record.pc >= 0 for record in trace)
        assert all(record.preceding_instructions >= 0 for record in trace)
