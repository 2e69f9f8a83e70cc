"""Unit and property-based tests for the saturating counters."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.counters import (
    SaturatingCounter,
    SignedCounterTable,
    adapt_threshold,
    clamp,
    saturating_update,
)


class TestClamp:
    def test_inside_range(self):
        assert clamp(3, 0, 7) == 3

    def test_above(self):
        assert clamp(9, 0, 7) == 7

    def test_below(self):
        assert clamp(-3, 0, 7) == 0

    def test_invalid_range(self):
        with pytest.raises(ValueError):
            clamp(1, 5, 2)


class TestSaturatingUpdate:
    def test_saturates_high(self):
        assert saturating_update(3, True, -4, 3) == 3

    def test_saturates_low(self):
        assert saturating_update(-4, False, -4, 3) == -4

    @given(st.integers(min_value=-4, max_value=3), st.booleans())
    def test_stays_in_range(self, value, taken):
        assert -4 <= saturating_update(value, taken, -4, 3) <= 3


class TestSaturatingCounter:
    def test_signed_default_range(self):
        counter = SaturatingCounter(bits=3)
        assert (counter.lo, counter.hi) == (-4, 3)

    def test_unsigned_range(self):
        counter = SaturatingCounter(bits=2, signed=False)
        assert (counter.lo, counter.hi) == (0, 3)

    def test_signed_taken_on_sign(self):
        counter = SaturatingCounter(bits=3, value=0)
        assert counter.taken
        counter.set(-1)
        assert not counter.taken

    def test_unsigned_taken_on_msb(self):
        counter = SaturatingCounter(bits=2, signed=False, value=2)
        assert counter.taken
        counter.set(1)
        assert not counter.taken

    def test_weak_states(self):
        counter = SaturatingCounter(bits=3, value=0)
        assert counter.is_weak
        counter.set(2)
        assert not counter.is_weak

    def test_update_reports_change(self):
        counter = SaturatingCounter(bits=3, value=3)
        assert counter.update(True) is False  # already saturated: silent
        assert counter.update(False) is True

    def test_centered(self):
        assert SaturatingCounter(bits=3, value=1).centered() == 3
        assert SaturatingCounter(bits=3, value=-2).centered() == -3

    def test_needs_at_least_one_bit(self):
        with pytest.raises(ValueError):
            SaturatingCounter(bits=0)

    @given(st.lists(st.booleans(), max_size=200))
    def test_never_leaves_range(self, updates):
        counter = SaturatingCounter(bits=3)
        for taken in updates:
            counter.update(taken)
            assert counter.lo <= counter.value <= counter.hi


class TestSignedCounterTable:
    def test_storage(self):
        table = SignedCounterTable(1024, 6)
        assert table.storage_bits == 6144

    def test_update_and_read(self):
        table = SignedCounterTable(8, 5)
        assert table.update(3, True) is True
        assert table[3] == 1

    def test_silent_update_detected(self):
        table = SignedCounterTable(8, 3)
        table[2] = 3
        assert table.update(2, True) is False

    def test_centered(self):
        table = SignedCounterTable(4, 6)
        table[0] = -5
        assert table.centered(0) == -9

    def test_weak_detection(self):
        table = SignedCounterTable(4, 3)
        assert table.is_weak(0)
        table[0] = 2
        assert not table.is_weak(0)

    def test_setitem_clamps(self):
        table = SignedCounterTable(4, 3)
        table[1] = 100
        assert table[1] == 3
        table[1] = -100
        assert table[1] == -4

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            SignedCounterTable(0, 3)
        with pytest.raises(ValueError):
            SignedCounterTable(8, 0)

    @given(st.lists(st.tuples(st.integers(0, 15), st.booleans()), max_size=300))
    def test_values_always_in_range(self, operations):
        table = SignedCounterTable(16, 4)
        for index, taken in operations:
            table.update(index, taken)
            assert table.lo <= table[index] <= table.hi


class TestAdaptThreshold:
    def test_threshold_moves_only_when_the_counter_saturates(self):
        counter = SaturatingCounter(bits=7, value=0)
        threshold = 10
        for _ in range(62):
            threshold = adapt_threshold(counter, threshold, True)
        assert (threshold, counter.value) == (10, 62)
        assert adapt_threshold(counter, threshold, True) == 11
        assert counter.value == 0
        for _ in range(63):
            threshold = adapt_threshold(counter, 11, False)
        assert (threshold, counter.value) == (11, -63)
        assert adapt_threshold(counter, 11, False) == 10
        assert counter.value == 0

    def test_threshold_never_drops_below_one(self):
        counter = SaturatingCounter(bits=7, value=-63)
        assert adapt_threshold(counter, 1, False) == 1
        assert counter.value == 0
