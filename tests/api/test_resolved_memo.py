"""The runner's memo of resolved traces is bounded by resident branches.

Persistent serve lanes and fleet workers keep one runner for their whole
life; an unbounded memo grows by every distinct reference they ever see.
"""

import repro.api.runner as runner_module
from repro.api import Runner, RunnerConfig, RunRequest

CAP = 5_000
LENGTH = 1_000


def _ref(seed: int) -> str:
    return f"synthetic:biased?length={LENGTH}&seed={seed}"


def _resident(runner: Runner) -> int:
    return sum(len(trace) for traces in runner._resolved.values() for trace in traces)


def test_soak_over_100_refs_stays_under_the_cap(monkeypatch):
    monkeypatch.setattr(runner_module, "RESOLVED_BRANCH_LIMIT", CAP)
    runner = Runner(RunnerConfig(workers=1))
    for seed in range(100):
        runner.run_batch([RunRequest("bimodal", _ref(seed))])
        assert _resident(runner) == runner._resolved_branches <= CAP
    assert len(runner._resolved) == CAP // LENGTH


def test_eviction_is_least_recently_used(monkeypatch):
    monkeypatch.setattr(runner_module, "RESOLVED_BRANCH_LIMIT", 3 * LENGTH)
    runner = Runner(RunnerConfig(workers=1))
    first = runner.resolve(_ref(0))[0]
    runner.resolve(_ref(1))
    runner.resolve(_ref(2))
    assert runner.resolve(_ref(0))[0] is first  # a hit refreshes recency
    runner.resolve(_ref(3))  # evicts seed 1, the least recently used
    assert runner.resolve(_ref(0))[0] is first
    assert [key.rsplit("=", 1)[1] for key in runner._resolved] == ["2", "3", "0"]


def test_a_reference_above_the_cap_is_still_kept_alone(monkeypatch):
    monkeypatch.setattr(runner_module, "RESOLVED_BRANCH_LIMIT", LENGTH // 2)
    runner = Runner(RunnerConfig(workers=1))
    runner.resolve(_ref(0))
    big = runner.resolve(_ref(1))[0]
    assert list(runner._resolved) == [runner_module.parse_trace_ref(_ref(1)).canonical]
    assert runner.resolve(_ref(1))[0] is big
