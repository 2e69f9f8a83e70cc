"""Tests for the access accounting, bank interleaving and CACTI-like models."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware.access_counter import AccessProfile
from repro.hardware.banking import BankAccess, BankConflictModel, BankSelector
from repro.hardware.cacti import MemoryArrayModel, PredictorCostModel
from repro.predictors.base import UpdateStats


class TestAccessProfile:
    def test_rates(self):
        profile = AccessProfile()
        for i in range(100):
            profile.record_prediction(mispredicted=(i % 10 == 0))
            stats = UpdateStats(entry_writes=1 if i % 5 == 0 else 0)
            profile.record_update(stats, retire_read=(i % 10 == 0))
        assert profile.branches == 100
        assert profile.mispredictions == 10
        assert profile.writes_per_misprediction == pytest.approx(2.0)
        assert profile.writes_per_100_branches == pytest.approx(20.0)
        assert profile.accesses_per_branch == pytest.approx((100 + 10 + 20) / 100)

    def test_zero_division_guards(self):
        profile = AccessProfile()
        assert profile.writes_per_misprediction == 0.0
        assert profile.accesses_per_branch == 0.0

    def test_merge(self):
        first, second = AccessProfile(), AccessProfile()
        first.record_prediction(True)
        second.record_prediction(False)
        first.merge(second)
        assert first.branches == 2

    def test_summary(self):
        profile = AccessProfile()
        profile.record_prediction(False)
        assert "1 branches" in profile.summary()


class TestBankSelector:
    def test_avoids_previous_two_banks(self):
        selector = BankSelector(4)
        first = selector.advance(0x1000)
        second = selector.advance(0x1000)
        third = selector.advance(0x1000)
        assert second != first
        assert third != second and third != first

    @given(st.lists(st.integers(min_value=0, max_value=2**20), min_size=3, max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_invariant_never_reuses_recent_banks(self, pcs):
        """The paper's guarantee: a prediction never touches the banks used
        by the two previous predictions."""
        selector = BankSelector(4)
        recent = []
        for pc in pcs:
            bank = selector.advance(pc)
            assert bank not in recent[-2:] or len(recent) < 2
            recent.append(bank)

    def test_needs_at_least_three_banks(self):
        with pytest.raises(ValueError):
            BankSelector(2)

    def test_select_is_pure(self):
        selector = BankSelector(4)
        selector.advance(0x10)
        assert selector.select(0x20) == selector.select(0x20)


class TestBankConflictModel:
    def test_predictions_never_wait(self):
        model = BankConflictModel()
        model.schedule([BankAccess(cycle=0, bank=0, kind="predict"),
                        BankAccess(cycle=1, bank=1, kind="predict")])
        assert model.predictions == 2

    def test_write_deferred_by_conflicting_prediction(self):
        model = BankConflictModel()
        model.schedule([
            BankAccess(cycle=0, bank=2, kind="predict"),
            BankAccess(cycle=0, bank=2, kind="write"),
        ])
        assert model.writes == 1
        assert model.deferred_write_cycles == 1

    def test_write_has_priority_over_retire_read(self):
        model = BankConflictModel()
        model.schedule([
            BankAccess(cycle=0, bank=1, kind="retire_read"),
            BankAccess(cycle=0, bank=1, kind="write"),
        ])
        assert model.max_write_delay == 0
        assert model.max_retire_read_delay == 1

    def test_average_delays(self):
        model = BankConflictModel()
        model.schedule([BankAccess(cycle=0, bank=0, kind="write")])
        assert model.average_write_delay == 0.0
        assert model.average_retire_read_delay == 0.0


class TestMemoryArrayModel:
    def test_three_port_area_ratio_in_paper_range(self):
        """CACTI 6.5: a 3-port array is 3-4x larger than a single-port one."""
        for kbytes in (1, 8, 64):
            bits = kbytes * 1024 * 8
            ratio = (MemoryArrayModel(bits, ports=3).area
                     / MemoryArrayModel(bits, ports=1).area)
            assert 3.0 <= ratio <= 4.0

    def test_three_port_energy_overhead_in_paper_range(self):
        bits = 64 * 1024 * 8
        ratio = (MemoryArrayModel(bits, ports=3).energy_per_access
                 / MemoryArrayModel(bits, ports=1).energy_per_access)
        assert 1.2 <= ratio <= 1.35

    def test_banking_reduces_energy(self):
        bits = 512 * 1024
        assert (MemoryArrayModel(bits, banks=4).energy_per_access
                < MemoryArrayModel(bits, banks=1).energy_per_access)

    def test_validation(self):
        with pytest.raises(ValueError):
            MemoryArrayModel(0)
        with pytest.raises(ValueError):
            MemoryArrayModel(8, ports=0)


class TestPredictorCostModel:
    def test_paper_headline_ratios(self):
        """Section 4.3: ~3.3x area and ~2x energy reduction for the
        interleaved single-port organisation."""
        cost = PredictorCostModel(storage_bits=512 * 1024)
        assert 2.8 <= cost.area_reduction <= 4.0
        assert 1.6 <= cost.energy_reduction_per_access <= 2.8

    def test_total_energy_scales_with_accesses(self):
        cost = PredictorCostModel(storage_bits=512 * 1024)
        low = cost.total_energy(fetch_reads=100, retire_reads=4, writes=9)
        high = cost.total_energy(fetch_reads=100, retire_reads=100, writes=100)
        assert high > low

    def test_three_port_energy_is_higher(self):
        cost = PredictorCostModel(storage_bits=512 * 1024)
        assert cost.total_energy(100, 100, 100, interleaved=False) > cost.total_energy(
            100, 100, 100, interleaved=True
        )
