"""Span tracing: recording, sampling, propagation, stores, analysis."""

from __future__ import annotations

import json
import time

import pytest

from repro.obs import (
    NOOP_SPAN,
    SpanRecorder,
    SpanStore,
    bind_span_context,
    bind_trace_id,
    build_tree,
    critical_path,
    current_span,
    current_span_context,
    drain_spans,
    make_span,
    render_critical_path,
    render_waterfall,
    set_tracer,
    span,
    to_chrome_trace,
)


class TestSpanRecording:
    def test_span_records_on_exit(self):
        with bind_trace_id("tr-rec-1"):
            with span("outer", label="x"):
                time.sleep(0.001)
        spans = drain_spans()
        assert len(spans) == 1
        record = spans[0]
        assert record["name"] == "outer"
        assert record["trace_id"] == "tr-rec-1"
        assert record["parent_id"] is None
        assert record["status"] == "ok"
        assert record["duration"] > 0
        assert record["attrs"] == {"label": "x"}

    def test_nesting_sets_parent_ids(self):
        with bind_trace_id("tr-nest-1"):
            with span("parent") as parent:
                with span("child"):
                    pass
        spans = {record["name"]: record for record in drain_spans()}
        assert spans["child"]["parent_id"] == parent.span_id
        assert spans["parent"]["parent_id"] is None
        assert spans["child"]["trace_id"] == spans["parent"]["trace_id"]

    def test_set_updates_attrs_mid_span(self):
        with bind_trace_id("tr-attr-1"):
            with span("lookup") as lookup:
                lookup.set(outcome="hit")
        (record,) = drain_spans()
        assert record["attrs"]["outcome"] == "hit"

    def test_current_span_is_the_innermost_open_span(self):
        assert current_span() is NOOP_SPAN
        with bind_trace_id("tr-current-1"):
            with span("outer") as outer:
                with span("inner"):
                    current_span().set(depth=2)
                assert current_span() is outer
                current_span().set(depth=1)
            assert current_span() is NOOP_SPAN
        spans = {record["name"]: record for record in drain_spans()}
        assert spans["inner"]["attrs"] == {"depth": 2}
        assert spans["outer"]["attrs"] == {"depth": 1}

    def test_exception_marks_error_status(self):
        with bind_trace_id("tr-err-1"):
            with pytest.raises(ValueError):
                with span("doomed"):
                    raise ValueError("boom")
        (record,) = drain_spans()
        assert record["status"] == "error"
        assert record["attrs"]["error"] == "ValueError"

    def test_drain_is_ship_once(self):
        with bind_trace_id("tr-drain-1"):
            with span("one"):
                pass
        assert len(drain_spans()) == 1
        assert drain_spans() == []

    def test_recorder_bounds_and_counts_drops(self):
        recorder = SpanRecorder(sample_rate=1.0, max_spans=2)
        for index in range(4):
            recorder.record(make_span("t", f"s{index}", None, "n", 0.0, 0.0))
        assert len(recorder.drain()) == 2
        assert recorder.dropped == 2


class TestSampling:
    def test_no_trace_id_is_noop(self):
        assert span("orphan") is NOOP_SPAN

    def test_rate_zero_returns_the_shared_noop(self):
        set_tracer(SpanRecorder(sample_rate=0.0))
        with bind_trace_id("tr-zero-1"):
            # Identity, not equality: sampling off allocates NOTHING.
            assert span("a") is NOOP_SPAN
            assert span("b", attr=1) is NOOP_SPAN
        assert drain_spans() == []

    def test_verdict_is_deterministic_per_trace_id(self):
        first = SpanRecorder(sample_rate=0.5)
        second = SpanRecorder(sample_rate=0.5)
        ids = [f"tr-det-{index}" for index in range(64)]
        verdicts = [first.sampled(trace_id) for trace_id in ids]
        # Same draw from an independent recorder: the verdict is a pure
        # function of the trace id, so it holds fleet-wide.
        assert verdicts == [second.sampled(trace_id) for trace_id in ids]
        assert any(verdicts) and not all(verdicts)

    def test_children_under_unsampled_context_stay_noop(self):
        with bind_span_context({"trace_id": "t", "span_id": "s",
                                "sampled": False}):
            assert span("child") is NOOP_SPAN

    def test_noop_span_supports_the_span_protocol(self):
        with NOOP_SPAN as noop:
            assert noop.set(outcome="hit") is NOOP_SPAN
        assert NOOP_SPAN.span_id is None


class TestContextPropagation:
    def test_context_round_trips_through_the_wire_dict(self):
        with bind_trace_id("tr-wire-1"):
            with span("parent") as parent:
                shipped = current_span_context()
        assert shipped == {"trace_id": "tr-wire-1",
                           "span_id": parent.span_id, "sampled": True}
        with bind_span_context(shipped):
            with span("adopted"):
                pass
        adopted = [record for record in drain_spans()
                   if record["name"] == "adopted"]
        assert adopted[0]["parent_id"] == parent.span_id
        assert adopted[0]["trace_id"] == "tr-wire-1"

    def test_no_context_ships_none(self):
        assert current_span_context() is None

    def test_binding_none_clears_inherited_context(self):
        with bind_trace_id("tr-clear-1"):
            with span("parent"):
                with bind_span_context(None):
                    assert current_span_context() is None


class TestSpanStore:
    def test_ingest_files_by_trace_and_dedupes(self):
        store = SpanStore()
        record = make_span("t1", "s1", None, "a", 0.0, 0.1)
        assert store.ingest([record, record]) == 1
        assert store.ingest([record]) == 0  # re-observed snapshot
        assert len(store.get("t1")) == 1
        assert store.get("missing") == []

    def test_trace_eviction_is_lru_by_ingest(self):
        store = SpanStore(max_traces=2)
        for index in range(3):
            store.ingest([make_span(f"t{index}", f"s{index}", None, "a", 0.0, 0.1)])
        assert store.trace_ids() == ["t1", "t2"]

    def test_per_trace_span_bound(self):
        store = SpanStore(max_spans_per_trace=2)
        store.ingest([make_span("t", f"s{index}", None, "a", 0.0, 0.1)
                      for index in range(4)])
        assert len(store.get("t")) == 2
        assert store.dropped == 2

    def test_export_jsonl(self, tmp_path):
        store = SpanStore()
        store.ingest([make_span("t1", "s1", None, "a", 0.0, 0.1),
                      make_span("t2", "s2", None, "b", 0.0, 0.1)])
        path = tmp_path / "spans.jsonl"
        assert store.export_jsonl(path) == 2
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert {line["trace_id"] for line in lines} == {"t1", "t2"}
        assert store.export_jsonl(path, trace_id="t1") == 1


def _tree_fixture():
    """root(0..10) -> fast(1..3), slow(2..9 -> leaf 3..8)."""
    return [
        make_span("t", "root", None, "root", 0.0, 10.0),
        make_span("t", "fast", "root", "fast", 1.0, 2.0),
        make_span("t", "slow", "root", "slow", 2.0, 7.0),
        make_span("t", "leaf", "slow", "leaf", 3.0, 5.0),
    ]


class TestTreeAnalysis:
    def test_build_tree_nests_and_sorts(self):
        (root,) = build_tree(_tree_fixture())
        assert root["span"]["name"] == "root"
        assert [child["span"]["name"] for child in root["children"]] == \
            ["fast", "slow"]
        assert root["children"][1]["children"][0]["span"]["name"] == "leaf"

    def test_orphans_become_roots(self):
        roots = build_tree([
            make_span("t", "a", "never-arrived", "a", 1.0, 1.0),
            make_span("t", "b", None, "b", 0.0, 1.0),
        ])
        assert [node["span"]["name"] for node in roots] == ["b", "a"]

    def test_critical_path_telescopes_to_the_root_duration(self):
        path = critical_path(_tree_fixture())
        assert [entry["span"]["name"] for entry in path] == \
            ["root", "slow", "leaf"]
        # Exclusive contributions telescope to the root's duration...
        assert sum(entry["exclusive"] for entry in path) == \
            pytest.approx(10.0)
        # ...and the percentages to 100.
        assert sum(entry["pct"] for entry in path) == pytest.approx(100.0)

    def test_renderers_cover_the_tree(self):
        spans = _tree_fixture()
        waterfall = render_waterfall(spans)
        for name in ("root", "fast", "slow", "leaf"):
            assert name in waterfall
        assert "▇" in waterfall
        breakdown = render_critical_path(spans)
        assert "100.0%" in breakdown
        assert render_waterfall([]) == "(no spans)"

    def test_chrome_trace_schema(self):
        spans = _tree_fixture()
        spans[0]["attrs"]["proc"] = "serve"
        document = to_chrome_trace(spans)
        assert document["displayTimeUnit"] == "ms"
        events = document["traceEvents"]
        complete = [event for event in events if event["ph"] == "X"]
        assert len(complete) == 4
        root = next(event for event in complete if event["name"] == "root")
        assert root["ts"] == pytest.approx(0.0)
        assert root["dur"] == pytest.approx(10.0 * 1e6)
        assert root["args"]["trace_id"] == "t"
        metadata = [event for event in events if event["ph"] == "M"]
        assert metadata and metadata[0]["args"]["name"] == "serve"
        json.dumps(document)  # must be JSON-pure


@pytest.mark.parametrize("path", ["native", "python"])
def test_trace_resolve_names_the_generator_path(path, monkeypatch):
    from repro.api import Runner, RunnerConfig
    from repro.obs import get_metrics
    from repro.traces import synthetic

    if path == "python":
        monkeypatch.setattr(synthetic, "_generate_native", lambda *args: None)
    with bind_trace_id(f"tr-generator-{path}"):
        Runner(RunnerConfig(workers=1)).resolve("synthetic:mixed?length=300&seed=2")
    (record,) = [record for record in drain_spans() if record["name"] == "trace.resolve"]
    assert record["attrs"]["path"] == path
    generated = get_metrics().counter("repro_trace_generated_branches_total", "", ("path",))
    assert generated.value(path=path) == record["attrs"]["branches"]
