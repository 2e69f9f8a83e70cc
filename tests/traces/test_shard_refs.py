"""Tests for shard fragments on trace references (``#shard=i/n&warmup=K``)."""

import pytest

from repro.traces.refs import parse_trace_ref, resolve_trace_ref
from repro.traces.sharding import DEFAULT_WARMUP


class TestParse:
    def test_fragment_parses_shard_and_warmup(self):
        ref = parse_trace_ref("suite:INT01#shard=1/4&warmup=500")
        assert ref.shard == (1, 4)
        assert ref.shard_warmup == 500

    def test_warmup_defaults(self):
        ref = parse_trace_ref("suite:INT01#shard=0/2")
        assert ref.shard == (0, 2)
        assert ref.shard_warmup == DEFAULT_WARMUP

    def test_whole_trace_refs_have_no_shard(self):
        ref = parse_trace_ref("suite:INT01")
        assert ref.shard is None and ref.shard_warmup == 0

    def test_canonical_keeps_fragment_and_drops_default_warmup(self):
        ref = parse_trace_ref(f"suite:INT01?branches=500#shard=1/4&warmup={DEFAULT_WARMUP}")
        assert ref.canonical == "suite:INT01?branches=500#shard=1/4"
        assert parse_trace_ref(ref.canonical) == ref

    def test_canonical_keeps_non_default_warmup(self):
        ref = parse_trace_ref("synthetic:mixed#shard=2/3&warmup=10")
        assert ref.canonical == "synthetic:mixed#shard=2/3&warmup=10"
        assert parse_trace_ref(ref.canonical) == ref

    @pytest.mark.parametrize("bad", ["suite:all", "suite:INT", "hard:all"])
    def test_multi_trace_refs_cannot_be_sharded(self, bad):
        with pytest.raises(ValueError, match="single-trace"):
            parse_trace_ref(f"{bad}#shard=0/2")

    @pytest.mark.parametrize(
        "fragment, message",
        [
            ("", "names no trace before the shard fragment"),
            ("warmup=5", "needs shard=i/n"),
            ("shard=2", "must be 'i/n'"),
            ("shard=a/b", "must be 'i/n'"),
            ("shard=2/2", "0 <= i < n"),
            ("shard=-1/2", "0 <= i < n"),
            ("shard=0/0", "0 <= i < n"),
            ("shard=0/2&warmup=-1", "warmup must be non-negative"),
            ("shard=0/2&warmup=x", "warmup must be an integer"),
            ("shard=0/2&shard=1/2", "duplicate shard parameter"),
            ("shard=0/2&count=3", "unknown shard parameter"),
            ("shard", "malformed shard parameter"),
        ],
    )
    def test_malformed_fragments_rejected(self, fragment, message):
        ref = f"suite:INT01#{fragment}" if fragment else "#shard=0/2"
        with pytest.raises(ValueError, match=message):
            parse_trace_ref(ref)


class TestResolve:
    BASE = "synthetic:mixed?length=4000&seed=5"

    def test_shards_partition_the_base_trace(self):
        base = resolve_trace_ref(self.BASE)[0]
        measured = []
        for index in range(3):
            (shard,) = resolve_trace_ref(f"{self.BASE}#shard={index}/3&warmup=100")
            start, stop, total = shard.window
            assert total == len(base)
            assert list(shard)[shard.warmup_count :] == list(base)[start:stop]
            measured.extend(list(shard)[shard.warmup_count :])
        assert measured == list(base)

    def test_warmup_prefix_precedes_the_window(self):
        base = resolve_trace_ref(self.BASE)[0]
        (shard,) = resolve_trace_ref(f"{self.BASE}#shard=1/2&warmup=150")
        start, _, _ = shard.window
        assert shard.warmup_count == 150
        assert list(shard)[:150] == list(base)[start - 150 : start]

    def test_first_shard_has_no_warmup(self):
        (shard,) = resolve_trace_ref(f"{self.BASE}#shard=0/2&warmup=150")
        assert shard.warmup_count == 0 and shard.window[0] == 0

    def test_warmup_clamped_at_trace_start(self):
        (shard,) = resolve_trace_ref(f"{self.BASE}#shard=1/4&warmup=999999")
        start, _, _ = shard.window
        assert shard.warmup_count == start  # the whole prefix, no further

    def test_shard_metadata_names_the_source(self):
        (shard,) = resolve_trace_ref("suite:INT01?branches=600#shard=1/2&warmup=50")
        assert shard.source_name == "INT01"
        assert shard.name == "INT01#shard=1/2&warmup=50"

    def test_more_shards_than_branches_rejected(self):
        with pytest.raises(ValueError, match="cannot split"):
            resolve_trace_ref("synthetic:biased?length=3&seed=1#shard=0/5")

    def test_hard_trace_shards_resolve(self):
        (shard,) = resolve_trace_ref("hard:INT01?branches=500#shard=0/2&warmup=0")
        assert shard.hard and shard.window[0] == 0
