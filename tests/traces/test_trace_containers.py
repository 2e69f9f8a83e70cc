"""Tests for the BranchRecord / Trace containers."""

import pickle

import numpy as np
import pytest

from repro.traces.suite import generate_trace
from repro.traces.trace import BranchRecord, Trace


class TestBranchRecord:
    def test_defaults(self):
        record = BranchRecord(pc=0x400000, taken=True)
        assert record.preceding_instructions == 4
        assert record.site == ""

    def test_frozen(self):
        record = BranchRecord(pc=4, taken=True)
        with pytest.raises(AttributeError):
            record.taken = False


class TestTrace:
    def make(self):
        return Trace(
            name="demo",
            category="INT",
            pcs=[0x100, 0x200, 0x100],
            taken=[True, False, True],
            preceding=[3, 5, 2],
            sites=[1, 0, 1],
            site_names=("biased", "loop"),
        )

    def test_columns(self):
        trace = self.make()
        assert trace.pcs.dtype == np.int64 and trace.preceding.dtype == np.int64
        assert trace.taken.dtype == np.bool_
        assert trace.sites.dtype == np.uint8

    def test_counts(self):
        trace = self.make()
        assert trace.branch_count == 3
        assert trace.static_branch_count == 2
        assert trace.instruction_count == 3 + 5 + 2 + 3

    def test_taken_rate(self):
        assert self.make().taken_rate == pytest.approx(2 / 3)

    def test_taken_rate_empty(self):
        assert Trace(name="empty").taken_rate == 0.0

    def test_iteration_order(self):
        trace = self.make()
        assert [record.pc for record in trace] == [0x100, 0x200, 0x100]

    def test_items_are_branch_records(self):
        trace = self.make()
        assert trace[1] == BranchRecord(0x200, False, 5, "biased")
        assert trace[-1] == BranchRecord(0x100, True, 2, "loop")
        assert list(trace) == [trace[0], trace[1], trace[2]]

    def test_records_is_a_view_not_a_list(self):
        trace = self.make()
        assert not isinstance(trace.records, list)
        assert len(trace.records) == 3
        assert trace.records[0] == trace[0]

    def test_sites_default_to_one_unnamed_site(self):
        trace = Trace(name="t", pcs=[4, 8], taken=[True, False], preceding=[1, 1])
        assert [record.site for record in trace] == ["", ""]

    def test_slice(self):
        piece = self.make().slice(1, 3)
        assert piece.branch_count == 2
        assert piece.records[0].pc == 0x200
        assert piece[1].site == "loop"
        assert "demo" in piece.name

    def test_summary_mentions_name_and_counts(self):
        summary = self.make().summary()
        assert "demo" in summary and "3 branches" in summary

    @pytest.mark.parametrize(
        "columns, message",
        [
            ({"pcs": [4, -1]}, "pc must be non-negative"),
            ({"pcs": [-8, 4]}, "pc must be non-negative"),
            ({"preceding": [4, -2]}, "preceding_instructions must be non-negative"),
            ({"taken": [True]}, "columns differ in length"),
            ({"preceding": [1, 2, 3]}, "columns differ in length"),
            ({"sites": [0]}, "columns differ in length"),
        ],
    )
    def test_column_validation(self, columns, message):
        fields = {"pcs": [4, 8], "taken": [True, False], "preceding": [1, 1], **columns}
        with pytest.raises(ValueError, match=message):
            Trace(name="bad", **fields)

    @pytest.mark.parametrize("warmup", [-1, 4])
    def test_warmup_count_outside_the_trace_is_rejected(self, warmup):
        with pytest.raises(ValueError, match="warmup_count"):
            Trace(name="t", pcs=[4, 8, 12], taken=[True] * 3, preceding=[1] * 3,
                  warmup_count=warmup)


def test_columns_hold_at_most_24_bytes_per_branch():
    """A generated 200k-branch trace, resident and pickled."""
    trace = generate_trace("INT01", branches_per_trace=200_000, seed=1)
    columns = (trace.pcs, trace.taken, trace.preceding, trace.sites)
    assert sum(column.nbytes for column in columns) / len(trace) <= 24
    blob = pickle.dumps(trace, protocol=pickle.HIGHEST_PROTOCOL)
    assert len(blob) / len(trace) <= 24
    copy = pickle.loads(blob)
    assert copy.site_names == trace.site_names
    for name in ("pcs", "taken", "preceding", "sites"):
        assert np.array_equal(getattr(copy, name), getattr(trace, name))
