"""Tests for trace serialisation round-trips."""

import pytest

from repro.traces.io import load_trace, save_trace
from repro.traces.suite import generate_trace
from repro.traces.trace import Trace


class TestTraceIO:
    def test_round_trip_preserves_records(self, tmp_path):
        trace = generate_trace("CLIENT03", branches_per_trace=400, seed=4)
        path = tmp_path / "client03.trace"
        save_trace(trace, path)
        loaded = load_trace(path)
        assert loaded.name == trace.name
        assert loaded.category == trace.category
        assert loaded.hard == trace.hard
        assert list(loaded) == list(trace)
        assert loaded.content_digest() == trace.content_digest()

    def test_site_labels_preserved(self, tmp_path):
        trace = Trace(
            name="t", pcs=[8, 12, 8], taken=[True, False, True], preceding=[4, 4, 4],
            sites=[1, 0, 1], site_names=("biased", "loop"),
        )
        path = tmp_path / "t.trace"
        save_trace(trace, path)
        assert [record.site for record in load_trace(path)] == ["loop", "biased", "loop"]

    @pytest.mark.parametrize("line", ["8 1 -3 a", "-8 1 4 a"])
    def test_negative_gap_or_pc_rejected(self, tmp_path, line):
        path = tmp_path / "bad.trace"
        path.write_text(f'{{"format_version": 1, "name": "x", "records": 1}}\n{line}\n')
        with pytest.raises(ValueError, match="must be non-negative"):
            load_trace(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.trace"
        path.write_text("")
        with pytest.raises(ValueError):
            load_trace(path)

    def test_wrong_record_count_detected(self, tmp_path):
        path = tmp_path / "bad.trace"
        path.write_text('{"format_version": 1, "name": "x", "records": 3}\n8 1 4 a\n')
        with pytest.raises(ValueError):
            load_trace(path)

    def test_unknown_version_rejected(self, tmp_path):
        path = tmp_path / "bad.trace"
        path.write_text('{"format_version": 99, "name": "x", "records": 0}\n')
        with pytest.raises(ValueError):
            load_trace(path)

    def test_malformed_record_rejected(self, tmp_path):
        path = tmp_path / "bad.trace"
        path.write_text('{"format_version": 1, "name": "x", "records": 1}\nnot-a-record\n')
        with pytest.raises(ValueError):
            load_trace(path)
