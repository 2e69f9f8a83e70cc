"""Tests for the shard planner (:mod:`repro.traces.sharding`)."""

import json

import pytest

from repro.traces.sharding import (
    DEFAULT_WARMUP,
    ShardingPolicy,
    auto_shard_count,
    plan_shards,
    shard_refs,
    shard_trace,
)
from repro.traces.suite import generate_trace


class TestPlan:
    def test_windows_tile_the_trace(self):
        windows = plan_shards(1003, 4, warmup=50)
        assert windows[0].start == 0 and windows[-1].stop == 1003
        for before, after in zip(windows, windows[1:]):
            assert before.stop == after.start
        assert all(window.total == 1003 for window in windows)

    def test_windows_balanced_to_one_branch(self):
        sizes = {window.measured for window in plan_shards(1003, 4)}
        assert sizes == {250, 251}

    def test_first_shard_never_warms_up(self):
        windows = plan_shards(100, 4, warmup=30)
        assert windows[0].warmup == 0
        assert [window.warmup for window in windows[1:]] == [25, 30, 30]

    def test_single_shard_plan_is_the_whole_trace(self):
        (window,) = plan_shards(10, 1, warmup=5)
        assert (window.start, window.stop, window.warmup) == (0, 10, 0)

    @pytest.mark.parametrize(
        "length, count, warmup, message",
        [
            (10, 0, 0, "shard count"),
            (10, 2, -1, "warmup"),
            (3, 5, 0, "cannot split"),
        ],
    )
    def test_invalid_plans_rejected(self, length, count, warmup, message):
        with pytest.raises(ValueError, match=message):
            plan_shards(length, count, warmup)


class TestShardTrace:
    def test_slice_carries_warmup_and_window(self):
        trace = generate_trace("INT01", branches_per_trace=400, seed=3)
        window = plan_shards(len(trace), 4, warmup=60)[2]
        shard = shard_trace(trace, window)
        assert list(shard) == list(trace)[window.warmup_start : window.stop]
        assert shard.warmup_count == window.warmup
        assert shard.window == (window.start, window.stop, len(trace))
        assert shard.source_name == "INT01"
        assert shard.category == trace.category

    def test_shards_cannot_be_resharded(self):
        trace = generate_trace("INT01", branches_per_trace=100, seed=3)
        window = plan_shards(len(trace), 2)[0]
        shard = shard_trace(trace, window)
        with pytest.raises(ValueError, match="already a shard"):
            shard_trace(shard, window)

    def test_window_beyond_trace_rejected(self):
        trace = generate_trace("INT01", branches_per_trace=100, seed=3)
        window = plan_shards(500, 2)[1]
        with pytest.raises(ValueError, match="exceeds"):
            shard_trace(trace, window)


class TestShardRefs:
    def test_refs_spell_the_plan(self):
        assert shard_refs("suite:INT01", 2, warmup=10) == [
            "suite:INT01#shard=0/2&warmup=10",
            "suite:INT01#shard=1/2&warmup=10",
        ]

    def test_sharded_ref_rejected(self):
        with pytest.raises(ValueError, match="already carries"):
            shard_refs("suite:INT01#shard=0/2", 2)


class TestAutoShardCount:
    def test_scales_with_length_and_caps(self):
        assert auto_shard_count(50_000) == 1
        assert auto_shard_count(200_000) == 2
        assert auto_shard_count(400_000) == 4
        assert auto_shard_count(10_000_000) == 8

    def test_custom_floor(self):
        assert auto_shard_count(6_000, min_branches=1_000) == 6


class TestShardingPolicy:
    def test_json_round_trip(self):
        policy = ShardingPolicy(shards=4, warmup=100, mode="exact")
        clone = ShardingPolicy.from_dict(json.loads(json.dumps(policy.to_dict())))
        assert clone == policy

    def test_defaults(self):
        policy = ShardingPolicy()
        assert (policy.shards, policy.warmup, policy.mode) == (0, DEFAULT_WARMUP, "warmup")

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"shards": -1}, "shards"),
            ({"shards": True}, "shards"),
            ({"warmup": -5}, "warmup"),
            ({"mode": "fast"}, "mode"),
        ],
    )
    def test_invalid_policies_rejected(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            ShardingPolicy(**kwargs)

    def test_unknown_payload_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown keys"):
            ShardingPolicy.from_dict({"shards": 2, "extra": 1})
