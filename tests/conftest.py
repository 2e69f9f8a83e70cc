"""Shared fixtures: small deterministic traces, and where scheduled tasks ran."""

from __future__ import annotations

import os
import pickle
from contextlib import contextmanager

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


@contextmanager
def _recording_routes():
    """``with _recording_routes() as routes:`` — once the block ends,
    ``routes`` says where its scheduled tasks ran: ``"interp"`` counts the
    unique tasks on the interp path, a kernel backend's name its kernel
    calls (the route counter and the kernel histogram are the observables)."""
    from repro.backends import available_backends
    from repro.obs import MetricsRegistry, set_metrics

    registry = MetricsRegistry()
    previous = set_metrics(registry)
    routes: dict[str, int] = {}
    try:
        yield routes
    finally:
        set_metrics(previous)
    kernel = registry.histogram("repro_backend_kernel_seconds", "", ("backend",))
    counts = {name: kernel.count(backend=name) for name in available_backends()}
    counts["interp"] = int(
        registry.counter("repro_sched_tasks_total", "", ("route",)).value(route="interp"))
    routes.update((name, count) for name, count in counts.items() if count)


@pytest.fixture
def record_routes():
    """``with record_routes() as routes:`` (see :func:`_recording_routes`)."""
    return _recording_routes


@pytest.fixture
def without_native(monkeypatch):
    """The native library reads as unavailable, as on a host where
    ``kernel.c`` does not build: simulations route around the kernel and
    traces come from the Python generator."""
    from repro.backends import native

    monkeypatch.setattr(native, "_library_state", False)


@pytest.fixture
def numpy_selection():
    """``numpy_selection(tasks)``: one-worker ``run_scheduled`` results of a
    ``numpy`` selection, run on both kinds of host.

    With the native library loaded every task must run on the native
    kernel.  With it unavailable, the tasks the numpy scan supports must
    run on the scan and the rest on the interp path.  Both runs must be
    pickle-identical; the first one's results are returned.
    """
    from repro.backends import get_backend, native
    from repro.pipeline.parallel import run_scheduled

    scan = get_backend("numpy")

    def run(tasks):
        with _recording_routes() as routes:
            results = run_scheduled(tasks, max_workers=1, backend="numpy")
        assert set(routes) == {"native"}, routes
        with pytest.MonkeyPatch.context() as patch, _recording_routes() as fallback_routes:
            patch.setattr(native, "_library_state", False)
            fallback = run_scheduled(tasks, max_workers=1, backend="numpy")
        expected = {"numpy" if scan.supports(spec, scenario, config) else "interp"
                    for spec, _, scenario, config in tasks}
        assert set(fallback_routes) == expected, fallback_routes
        assert [pickle.dumps(result) for result in fallback] == [
            pickle.dumps(result) for result in results]
        return results

    return run
