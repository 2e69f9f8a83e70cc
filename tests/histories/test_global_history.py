"""Tests for the global history register and path history."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.histories.global_history import GlobalHistoryRegister, PathHistory


class TestGlobalHistoryRegister:
    def test_most_recent_first(self):
        history = GlobalHistoryRegister(capacity=16)
        history.push(True)
        history.push(False)
        assert history.bit(0) == 0
        assert history.bit(1) == 1

    def test_unwritten_bits_are_zero(self):
        history = GlobalHistoryRegister(capacity=8)
        history.push(True)
        assert history.bit(5) == 0

    def test_value_packs_lsb_first(self):
        history = GlobalHistoryRegister(capacity=8)
        for taken in [True, False, True]:  # most recent is True
            history.push(taken)
        assert history.value(3) == 0b101

    def test_value_clips_to_capacity(self):
        history = GlobalHistoryRegister(capacity=4)
        for _ in range(4):
            history.push(True)
        assert history.value(100) == 0b1111

    def test_wraparound(self):
        history = GlobalHistoryRegister(capacity=4)
        for i in range(10):
            history.push(i % 2 == 0)
        assert [history.bit(i) for i in range(4)] == [0, 1, 0, 1]

    def test_checkpoint_restore_repairs_history(self):
        history = GlobalHistoryRegister(capacity=32)
        for _ in range(5):
            history.push(True)
        snapshot = history.checkpoint()
        history.push(False)  # speculative, mispredicted
        history.push(False)  # wrong path
        history.restore(snapshot, corrected_outcome=True)
        assert history.bit(0) == 1
        assert len(history) == 6

    def test_len_saturates_at_capacity(self):
        history = GlobalHistoryRegister(capacity=4)
        for _ in range(9):
            history.push(True)
        assert len(history) == 4

    def test_invalid_index(self):
        history = GlobalHistoryRegister(capacity=4)
        with pytest.raises(IndexError):
            history.bit(-1)
        with pytest.raises(IndexError):
            history.bit(4)

    @given(st.lists(st.booleans(), min_size=1, max_size=200))
    def test_bits_match_pushed_sequence(self, outcomes):
        history = GlobalHistoryRegister(capacity=256)
        for taken in outcomes:
            history.push(taken)
        for age, taken in enumerate(reversed(outcomes)):
            assert history.bit(age) == (1 if taken else 0)

    @given(st.lists(st.booleans(), max_size=60))
    def test_bits_reads_many_ages_across_wraparound(self, outcomes):
        history = GlobalHistoryRegister(capacity=16)
        for taken in outcomes:
            history.push(taken)
        ages = list(range(16))
        expected = [history.bit(age) if age < len(history) else 0 for age in ages]
        assert history.bits(ages) == expected
        assert history.bits(reversed(ages)) == expected[::-1]


class TestPathHistory:
    def test_push_shifts_low_bits(self):
        path = PathHistory(width=8, bits_per_branch=2)
        path.push(0b01)
        path.push(0b10)
        assert path.value == 0b0110

    def test_width_truncation(self):
        path = PathHistory(width=4, bits_per_branch=2)
        for pc in [0b11, 0b10, 0b01, 0b00]:
            path.push(pc)
        assert path.value == 0b0100

    def test_checkpoint_restore(self):
        path = PathHistory(width=16)
        path.push(0x123)
        snapshot = path.checkpoint()
        path.push(0x456)
        path.restore(snapshot)
        assert path.value == snapshot

    def test_invalid_configuration(self):
        with pytest.raises(ValueError):
            PathHistory(width=0)
        with pytest.raises(ValueError):
            PathHistory(width=4, bits_per_branch=5)
