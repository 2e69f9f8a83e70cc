"""Tests for the local history table and its speculative manager."""

import pytest

from repro.histories.local import LocalHistoryTable, SpeculativeLocalHistoryManager


class TestLocalHistoryTable:
    def test_update_shifts_in_outcomes(self):
        table = LocalHistoryTable(entries=32, history_bits=8)
        pc = 0x4000
        for taken in [True, False, True]:
            table.update(pc, taken)
        assert table.read(pc) == 0b101

    def test_histories_are_per_entry(self):
        table = LocalHistoryTable(entries=64, history_bits=8)
        table.update(0x1000, True)
        table.update(0x2000, False)
        assert table.read(0x1000) != table.read(0x2000) or (
            table.index(0x1000) == table.index(0x2000)
        )

    def test_history_truncated_to_width(self):
        table = LocalHistoryTable(entries=32, history_bits=4)
        for _ in range(10):
            table.update(0x40, True)
        assert table.read(0x40) == 0b1111

    def test_entries_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            LocalHistoryTable(entries=48)

    def test_storage_bits(self):
        assert LocalHistoryTable(entries=32, history_bits=32).storage_bits == 1024


class TestSpeculativeLocalHistoryManager:
    def make(self):
        table = LocalHistoryTable(entries=32, history_bits=16)
        return table, SpeculativeLocalHistoryManager(table)

    def test_speculative_history_sees_inflight_branches(self):
        table, manager = self.make()
        pc = 0x4000
        manager.record(pc, True)
        manager.record(pc, True)
        # The retired table still holds nothing, but the speculative view
        # shows the two predicted-taken in-flight occurrences.
        assert table.read(pc) == 0
        assert manager.speculative_history(pc) == 0b11

    def test_retire_commits_and_releases(self):
        table, manager = self.make()
        pc = 0x4000
        sequence = manager.record(pc, True)
        manager.retire(sequence, pc, True)
        assert table.read(pc) == 0b1
        assert len(manager) == 0

    def test_repair_squashes_younger_entries(self):
        table, manager = self.make()
        pc = 0x4000
        first = manager.record(pc, True)
        manager.record(pc, True)
        manager.record(pc, True)
        manager.repair(first, actual_taken=False)
        assert len(manager) == 1
        assert manager.speculative_history(pc) == 0b0

    def test_falls_back_to_retired_history(self):
        table, manager = self.make()
        pc = 0x4000
        table.update(pc, True)
        table.update(pc, False)
        assert manager.speculative_history(pc) == table.read(pc)

    def test_capacity_bound(self):
        table = LocalHistoryTable(entries=32)
        manager = SpeculativeLocalHistoryManager(table, capacity=4)
        for _ in range(10):
            manager.record(0x4000, True)
        assert len(manager) == 4
