"""Shared fixtures for the benchmark harness.

Every bench regenerates one table or figure of the paper (``repro list
experiments`` indexes them by name, backed by
:mod:`repro.analysis.experiments`) on a synthetic suite.  Suite size is controlled by
environment variables so that the same harness scales from a quick smoke
run to an overnight full-suite run:

* ``REPRO_BENCH_BRANCHES``        — branches per trace (default 3000)
* ``REPRO_BENCH_TRACES``          — traces per category (default 1)
* ``REPRO_BENCH_SEED``            — suite seed (default 2011)
* ``REPRO_BENCH_WORKERS``         — suite worker processes (default 1)

Suites execute through the :class:`~repro.api.runner.Runner` facade, so
the experiment drivers also honour ``REPRO_SUITE_WORKERS`` /
``REPRO_SUITE_CACHE`` / ``REPRO_SUITE_CACHE_VERSION`` (parsed once by
:meth:`repro.api.config.RunnerConfig.from_env`).

For a run closer to the paper's setup use, e.g.::

    REPRO_BENCH_BRANCHES=50000 REPRO_BENCH_TRACES=8 REPRO_SUITE_WORKERS=8 \
        pytest benchmarks/ --benchmark-only
"""

from __future__ import annotations

import dataclasses
import os

import pytest

# The result cache is on by default; a bench serving yesterday's pickled
# results would time deserialization, not simulation.  Opt out for the
# whole harness unless the caller explicitly points at a cache.
os.environ.setdefault("REPRO_SUITE_CACHE", "off")

from repro.api import Runner, RunnerConfig
from repro.api.config import parse_workers
from repro.pipeline.config import PipelineConfig
from repro.predictors.registry import PredictorSpec
from repro.traces.suite import HARD_TRACES, generate_suite, generate_trace

BENCH_BRANCHES = int(os.environ.get("REPRO_BENCH_BRANCHES", "3000"))
BENCH_TRACES_PER_CATEGORY = int(os.environ.get("REPRO_BENCH_TRACES", "1"))
BENCH_SEED = int(os.environ.get("REPRO_BENCH_SEED", "2011"))
_BENCH_WORKERS_RAW = (os.environ.get("REPRO_BENCH_WORKERS") or "").strip()
BENCH_WORKERS = (
    parse_workers(_BENCH_WORKERS_RAW, context="REPRO_BENCH_WORKERS")
    if _BENCH_WORKERS_RAW else 1
)

#: Pipeline model used by the delayed-update benches: a 16-branch window
#: keeps runtimes manageable while exhibiting every delayed-update effect.
BENCH_PIPELINE = PipelineConfig(retire_delay=16, execute_delay=4)


@pytest.fixture(scope="session")
def bench_suite():
    """The benchmark suite (one or more traces per category)."""
    return generate_suite(
        traces_per_category=BENCH_TRACES_PER_CATEGORY,
        branches_per_trace=BENCH_BRANCHES,
        seed=BENCH_SEED,
    )


@pytest.fixture(scope="session")
def bench_mixed_suite():
    """A smaller suite mixing designated hard traces and easy traces."""
    hard = sorted(HARD_TRACES)[:3]
    easy = ["INT03", "MM01", "CLIENT01"]
    return [
        generate_trace(name, branches_per_trace=BENCH_BRANCHES, seed=BENCH_SEED)
        for name in hard + easy
    ]


@dataclasses.dataclass
class BoundSuite:
    """One predictor spec bound to a :class:`Runner` (bench convenience)."""

    runner: Runner
    spec: PredictorSpec

    def run(self, traces, scenario="I", config: PipelineConfig | None = None):
        """Run the spec over ``traces`` through the shared facade."""
        return self.runner.run_suite(self.spec, traces, scenario=scenario, pipeline=config)


def suite_runner(kind: str, max_workers: int | None = None, **config) -> BoundSuite:
    """A facade-bound suite for a registered predictor kind.

    Benches use this to run predictor suites with the shared
    ``REPRO_BENCH_WORKERS`` setting (default serial).  The result cache
    is always disabled here — a ``REPRO_SUITE_CACHE`` leaking in from the
    shell would turn the throughput benches into pickle-load timings.
    """
    workers = BENCH_WORKERS if max_workers is None else max_workers
    return BoundSuite(Runner(RunnerConfig(workers=workers)), PredictorSpec(kind, config))


def run_once(benchmark, func):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(func, rounds=1, iterations=1)


def report(table) -> None:
    """Print the regenerated table below the benchmark timings."""
    print()
    print(table.to_table())
