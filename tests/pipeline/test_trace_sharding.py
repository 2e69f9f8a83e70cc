"""Sharded-vs-unsharded parity and shard-result merging.

The acceptance bar for trace sharding: an exact-mode request (each trace
run whole) reproduces the unsharded run *bit-identically* — metrics,
access profile, in-flight windows and all — while bounded-warmup mode
(independent shards, each replaying a warmup prefix) stays within a
documented tolerance.  Merging is validated: any overlap or gap between
shard windows is an error, never a wrong sum.
"""

import pytest

from repro.api import Runner, RunnerConfig, RunRequest, ShardingPolicy
from repro.pipeline.config import PipelineConfig
from repro.pipeline.engine import SimulationEngine
from repro.pipeline.metrics import SimulationResult, SuiteResult
from repro.pipeline.parallel import run_scheduled
from repro.pipeline.scenarios import UpdateScenario
from repro.predictors.registry import PredictorSpec
from repro.traces.refs import resolve_trace_ref
from repro.traces.sharding import plan_shards, shard_trace

#: Warmup-mode accuracy tolerance documented in the README: with the
#: default 2000-branch warmup, suite-level MPKI stays within a few
#: percent of the unsharded run; the tests assert 5%.
WARMUP_MPKI_TOLERANCE = 0.05

PIPELINE = PipelineConfig(retire_delay=16, execute_delay=4)

LONG_REF = "synthetic:mixed?length=200000&seed=3"
SHORT_REF = "synthetic:mixed?length=5000&seed=11"


def _unsharded(spec, trace, scenario, config=PIPELINE):
    return SimulationEngine(spec.build(), scenario, config).run(trace)


def _run_exact(kind, ref, shards, scenario, config=PIPELINE):
    """The one result of an exact-mode request, through a fresh runner."""
    request = RunRequest(
        kind, ref, scenario, config, sharding=ShardingPolicy(shards, mode="exact")
    )
    (result,) = Runner(RunnerConfig(workers=1)).run(request).results
    return result


@pytest.fixture(scope="module")
def long_trace():
    """The acceptance-criteria trace: a >=200k-branch synthetic stream."""
    trace = resolve_trace_ref(LONG_REF)[0]
    assert len(trace) >= 200_000
    return trace


@pytest.fixture(scope="module")
def short_trace():
    return resolve_trace_ref(SHORT_REF)[0]


class TestExactMode:
    def test_200k_trace_4_shards_bit_identical(self, long_trace):
        spec = PredictorSpec("bimodal")
        scenario = UpdateScenario.REREAD_AT_RETIRE
        base = _unsharded(spec, long_trace, scenario)
        merged = _run_exact("bimodal", LONG_REF, 4, scenario)
        assert merged == base  # full dataclass equality: mpki, accuracy, accesses
        assert merged.mpki == base.mpki and merged.accuracy == base.accuracy

    @pytest.mark.parametrize("kind", ["gshare", "tage"])
    @pytest.mark.parametrize("scenario", list(UpdateScenario))
    def test_every_scenario_bit_identical(self, short_trace, kind, scenario):
        base = _unsharded(PredictorSpec(kind), short_trace, scenario)
        assert _run_exact(kind, SHORT_REF, 3, scenario) == base

    def test_deep_window_bit_identical(self, short_trace):
        """A deep in-flight window with a shard count that does not divide
        the trace: the exact run must still drain exactly like the
        unsharded one."""
        config = PipelineConfig(retire_delay=64, execute_delay=48)
        scenario = UpdateScenario.REREAD_ON_MISPREDICTION
        base = _unsharded(PredictorSpec("gshare"), short_trace, scenario, config)
        assert _run_exact("gshare", SHORT_REF, 7, scenario, config) == base


class TestWarmupMode:
    def test_200k_trace_4_shards_within_tolerance(self, long_trace):
        spec = PredictorSpec("bimodal")
        scenario = UpdateScenario.REREAD_AT_RETIRE
        base = _unsharded(spec, long_trace, scenario)
        shards = [
            shard_trace(long_trace, window)
            for window in plan_shards(len(long_trace), 4, 2000)
        ]
        results = run_scheduled(
            [(spec, shard, scenario, PIPELINE) for shard in shards], max_workers=1
        )
        merged = SimulationResult.merge(results)
        assert merged.branches == base.branches
        assert merged.instructions == base.instructions
        assert merged.warmup_branches == 3 * 2000
        assert merged.mpki == pytest.approx(base.mpki, rel=WARMUP_MPKI_TOLERANCE)
        assert merged.accuracy == pytest.approx(base.accuracy, rel=WARMUP_MPKI_TOLERANCE)

    def test_zero_warmup_still_partitions_exactly(self, short_trace):
        """Even with no warmup the measured windows tile the trace: the
        counts are exact, only the prediction quality drifts."""
        spec = PredictorSpec("gshare")
        shards = [
            shard_trace(short_trace, window)
            for window in plan_shards(len(short_trace), 3, 0)
        ]
        results = run_scheduled(
            [(spec, shard, UpdateScenario.IMMEDIATE, PIPELINE) for shard in shards],
            max_workers=1,
        )
        merged = SimulationResult.merge(results)
        base = _unsharded(spec, short_trace, UpdateScenario.IMMEDIATE)
        assert merged.branches == base.branches
        assert merged.instructions == base.instructions

    def test_warmup_not_counted_in_metrics(self, short_trace):
        spec = PredictorSpec("bimodal")
        window = plan_shards(len(short_trace), 2, 500)[1]
        shard = shard_trace(short_trace, window)
        (result,) = run_scheduled(
            [(spec, shard, UpdateScenario.IMMEDIATE, PIPELINE)], max_workers=1
        )
        assert result.branches == window.measured
        assert result.warmup_branches == 500
        assert result.accesses.branches == window.measured


class TestMergeValidation:
    def _part(self, start, stop, total=100, **overrides):
        fields = dict(
            trace_name="T", predictor_name="p", branches=stop - start,
            instructions=5 * (stop - start), mispredictions=1,
            window=(start, stop, total),
        )
        fields.update(overrides)
        return SimulationResult(**fields)

    def test_complete_merge_drops_the_window(self):
        merged = SimulationResult.merge([self._part(50, 100), self._part(0, 50)])
        assert merged.window is None and merged.branches == 100

    def test_partial_merge_keeps_the_window(self):
        merged = SimulationResult.merge([self._part(0, 30), self._part(30, 60)])
        assert merged.window == (0, 60, 100)

    def test_overlap_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            SimulationResult.merge([self._part(0, 60), self._part(50, 100)])

    def test_gap_rejected(self):
        with pytest.raises(ValueError, match="gap"):
            SimulationResult.merge([self._part(0, 40), self._part(50, 100)])

    def test_whole_trace_results_do_not_merge(self):
        with pytest.raises(ValueError, match="whole-trace"):
            SimulationResult.merge([self._part(0, 50), self._part(50, 100, window=None)])

    @pytest.mark.parametrize(
        "overrides",
        [
            {"predictor_name": "q"},
            {"scenario": "[C]"},
            {"misprediction_penalty": 10},
            {"trace_name": "U"},
            {"window": (50, 100, 999)},
        ],
    )
    def test_mismatched_runs_do_not_merge(self, overrides):
        with pytest.raises(ValueError, match="cannot merge"):
            SimulationResult.merge([self._part(0, 50), self._part(50, 100, **overrides)])

    def test_empty_merge_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            SimulationResult.merge([])


class TestSuiteResultWindows:
    def _result(self, name="T", window=None):
        return SimulationResult(
            trace_name=name, predictor_name="p", branches=10,
            instructions=50, mispredictions=1, window=window,
        )

    def test_overlapping_windows_rejected(self):
        suite = SuiteResult("p")
        suite.add(self._result(window=(0, 60, 100)))
        with pytest.raises(ValueError, match="overlap"):
            suite.add(self._result(window=(50, 100, 100)))

    def test_disjoint_windows_accepted(self):
        suite = SuiteResult("p")
        suite.add(self._result(window=(0, 50, 100)))
        suite.add(self._result(window=(50, 100, 100)))
        assert len(suite) == 2
        assert set(suite.per_trace()) == {"T[0:50]", "T[50:100]"}

    def test_whole_plus_window_rejected_both_ways(self):
        suite = SuiteResult("p")
        suite.add(self._result())
        with pytest.raises(ValueError, match="whole"):
            suite.add(self._result(window=(0, 50, 100)))
        windowed = SuiteResult("p")
        windowed.add(self._result(window=(0, 50, 100)))
        with pytest.raises(ValueError, match="window"):
            windowed.add(self._result())

    def test_whole_trace_duplicates_still_allowed(self):
        suite = SuiteResult("p")
        suite.add(self._result())
        suite.add(self._result())  # pre-sharding behaviour, unchanged
        assert len(suite) == 2

    def test_different_traces_never_conflict(self):
        suite = SuiteResult("p")
        suite.add(self._result("A", window=(0, 50, 100)))
        suite.add(self._result("B", window=(0, 50, 100)))
        assert len(suite) == 2
