"""Shared fixtures: small deterministic traces used across the test-suite."""

from __future__ import annotations

import os

import pytest

# The result cache is on by default (REPRO_SUITE_CACHE unset resolves a
# real user-cache directory).  Tests must never write there — nor have
# their timing/behaviour depend on a developer's warm cache — so the
# whole suite (subprocess CLI tests included, they inherit the env) runs
# with caching off unless a test opts in explicitly.
os.environ.setdefault("REPRO_SUITE_CACHE", "off")

from repro.traces.suite import generate_suite, generate_trace
from repro.traces.synthetic import (
    BiasedBranch,
    LoopBranch,
    WorkloadSpec,
    generate_workload,
)


@pytest.fixture(scope="session")
def tiny_trace():
    """One small INT trace (deterministic, ~1500 branches)."""
    return generate_trace("INT03", branches_per_trace=1500, seed=7)


@pytest.fixture(scope="session")
def loop_trace():
    """A trace dominated by one constant-trip-count loop."""
    spec = WorkloadSpec().add(LoopBranch(0x1000, iterations=10))
    return generate_workload(spec, 1500, seed=11, name="loop-only")


@pytest.fixture(scope="session")
def biased_trace():
    """A trace of one strongly biased branch plus one weakly biased branch."""
    spec = WorkloadSpec()
    spec.add(BiasedBranch(0x1000, 0.95), weight=2.0)
    spec.add(BiasedBranch(0x2000, 0.7), weight=1.0)
    return generate_workload(spec, 1500, seed=13, name="biased-only")


@pytest.fixture(scope="session")
def mini_suite():
    """A four-trace suite (one per category minus SERVER) with short traces."""
    return generate_suite(
        categories=["CLIENT", "INT", "MM", "WS"],
        traces_per_category=1,
        branches_per_trace=1500,
        seed=2011,
    )


@pytest.fixture
def on_kernel():
    """``on_kernel(tasks, backend)``: ``run_scheduled`` results, asserting
    that every unique task ran on a backend kernel and none on the interp
    pool (the ``repro_sched_tasks_total`` route counter is the observable)."""
    from repro.obs import MetricsRegistry, set_metrics
    from repro.pipeline.parallel import run_scheduled

    def run(tasks, backend):
        registry = MetricsRegistry()
        previous = set_metrics(registry)
        try:
            results = run_scheduled(tasks, max_workers=1, backend=backend)
        finally:
            set_metrics(previous)
        routes = registry.counter("repro_sched_tasks_total", "", ("route",))
        assert routes.value(route="interp") == 0
        assert routes.value(route="kernel") > 0
        return results

    return run
