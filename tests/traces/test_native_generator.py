"""The native trace generator against the Python reference loop, draw for draw.

:func:`~repro.traces.synthetic.generate_workload` runs ``generator.c``
where it can and the Python loop otherwise; both must give the same four
columns and site names, and leave every site in the same state, so a
reused spec behaves the same on either path.  Random specs cover all
five behaviour classes, multi-pattern local sites, jitter and noise, a
zero skip probability, fixed and power-of-two gap widths, shared labels
and correlated sources that name loop-body, pointer-chase or unseen PCs.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import MetricsRegistry, set_metrics
from repro.traces import synthetic
from repro.traces.synthetic import (
    BiasedBranch,
    GloballyCorrelatedBranch,
    LocalPatternBranch,
    LoopBranch,
    PointerChaseBranch,
    WorkloadSpec,
    generate_workload,
)

UNSEEN_PC = 0x7_0000

LABELS = st.sampled_from(["", "", "shared", "other"])
PROBABILITY = st.one_of(st.sampled_from([0.0, 1.0, 0.5]), st.floats(0.0, 1.0))

SITES = st.one_of(
    st.tuples(st.just("biased"), LABELS, PROBABILITY),
    st.tuples(st.just("correlated"), LABELS, st.integers(0, 40), st.booleans(),
              st.sampled_from([0.0, 0.0, 0.1, 1.0])),
    st.tuples(st.just("loop"), LABELS, st.integers(1, 12), st.integers(0, 3),
              st.integers(0, 14), PROBABILITY),
    st.tuples(st.just("local"), LABELS, st.lists(st.booleans(), min_size=1, max_size=10),
              st.sampled_from([1, 1, 2, 5, 4096])),
    st.tuples(st.just("pointer"), LABELS, st.integers(1, 40), st.floats(0.0, 0.5),
              st.floats(0.5, 1.0)),
)

WORKLOADS = st.fixed_dictionaries({
    "sites": st.lists(st.tuples(SITES, st.sampled_from([0.4, 1.0, 2.0, 3.0])),
                      min_size=1, max_size=6),
    "skip": st.sampled_from([0.0, 0.05, 0.5]),
    "min_gap": st.integers(0, 6),
    "width": st.sampled_from([1, 2, 3, 4, 7, 8, 16, 300]),
    "branches": st.integers(1, 600),
    "seed": st.integers(0, 2**40),
})


def build(params: dict) -> WorkloadSpec:
    """A fresh spec from drawn parameters: site ``i`` owns the block at ``(i + 1) << 12``."""
    sites = params["sites"]
    spec = WorkloadSpec(skip_probability=params["skip"], min_gap=params["min_gap"],
                        max_gap=params["min_gap"] + params["width"] - 1)
    # Every PC a site can emit, for correlated sources to name.
    emitted = [UNSEEN_PC]
    for index, (site, _) in enumerate(sites):
        pc = (index + 1) << 12
        emitted.append(pc)
        if site[0] == "loop":
            emitted += [pc + 8 * (body + 1) for body in range(site[3])]
        elif site[0] == "pointer":
            emitted += [pc + 16 * which for which in range(site[2])]
    for index, (site, weight) in enumerate(sites):
        kind, label, *args = site
        pc = (index + 1) << 12
        if kind == "biased":
            made = BiasedBranch(pc, args[0], label=label)
        elif kind == "correlated":
            made = GloballyCorrelatedBranch(pc, emitted[args[0] % len(emitted)], invert=args[1],
                                            noise=args[2], label=label)
        elif kind == "loop":
            made = LoopBranch(pc, args[0], body_branches=args[1], iteration_jitter=args[2],
                              body_bias=args[3], label=label)
        elif kind == "local":
            made = LocalPatternBranch(pc, tuple(args[0]), pattern_count=args[1], label=label)
        else:
            made = PointerChaseBranch(pc, args[0], bias_low=args[1], bias_high=args[2],
                                      label=label)
        spec.add(made, weight)
    return spec


def site_state(spec: WorkloadSpec) -> list:
    """What generation changes in the sites: the local-pattern state."""
    return [(site._position, site._current_pattern, site._pattern_rng.getstate())
            for site, _ in spec.sites if isinstance(site, LocalPatternBranch)]


def columns(trace) -> tuple:
    return (trace.pcs.tolist(), trace.taken.tolist(), trace.preceding.tolist(),
            trace.sites.tolist(), trace.site_names, trace.sites.dtype)


def generate(spec: WorkloadSpec, branches: int, seed: int, monkeypatch, *, path: str,
             forced: bool = False):
    """Generate (on the Python loop if ``forced``), asserting that ``path`` ran."""
    registry = MetricsRegistry()
    previous = set_metrics(registry)
    try:
        with monkeypatch.context() as patch:
            if forced:
                patch.setattr(synthetic, "_generate_native", lambda *args: None)
            trace = generate_workload(spec, branches, seed)
    finally:
        set_metrics(previous)
    counter = registry.counter("repro_trace_generated_branches_total", "", ("path",))
    assert counter.value(path=path) == len(trace)
    return trace


@given(WORKLOADS)
@settings(max_examples=150, deadline=None)
def test_native_matches_the_python_loop(params):
    with pytest.MonkeyPatch.context() as monkeypatch:
        native_spec, python_spec = build(params), build(params)
        # The second run reuses the spec: local sites resume mid-pattern.
        for seed in (params["seed"], params["seed"] + 1):
            native = generate(native_spec, params["branches"], seed, monkeypatch, path="native")
            python = generate(python_spec, params["branches"], seed, monkeypatch, path="python",
                              forced=True)
            assert columns(native) == columns(python)
            assert site_state(native_spec) == site_state(python_spec)


class Echo(BiasedBranch):
    """A subclass: it may override ``emit``, so the native generator declines it."""


@pytest.mark.parametrize("spec", [
    lambda: WorkloadSpec().add(Echo(0x1000, 0.3)).add(LoopBranch(0x2000, 5, body_branches=1)),
    # Gap width 2**32 + 1: each gap is a 33-bit draw.
    lambda: WorkloadSpec(min_gap=0, max_gap=2**32).add(BiasedBranch(0x1000, 0.5)),
], ids=["subclass", "33-bit-draw"])
def test_a_declined_spec_falls_back_and_matches(spec, monkeypatch):
    declined = generate(spec(), 500, 3, monkeypatch, path="python")
    assert columns(declined) == columns(generate(spec(), 500, 3, monkeypatch, path="python",
                                                 forced=True))


def test_integer_patterns_are_stored_as_bools(monkeypatch):
    """A truthy non-bool pattern entry copies as taken, inverted as not taken."""
    for pattern in [(2, 0), (True, False)]:
        spec = WorkloadSpec(skip_probability=0.0)
        spec.add(LocalPatternBranch(0x1000, pattern))
        spec.add(GloballyCorrelatedBranch(0x2000, source_pc=0x1000, invert=True))
        for path in ("native", "python"):
            trace = generate(spec, 200, 1, monkeypatch, path=path, forced=path == "python")
            source, copies = None, 0
            for pc, taken in zip(trace.pcs.tolist(), trace.taken.tolist()):
                if pc == 0x1000:
                    source = taken
                elif source is not None:
                    assert taken is (not source), (pattern, path)
                    copies += 1
            assert copies > 50


def _run_plan(plan, floats, states, patterns, capacity, code, out_len):
    """Call the generator with guard words after every output; return its status."""
    from repro.backends.native import _library

    guard = 16
    pcs, gaps = np.full(capacity + guard, -7, np.int64), np.full(capacity + guard, -7, np.int64)
    taken, codes = np.full(capacity + guard, 7, np.uint8), np.full(capacity + guard, 7, code)
    out = np.full(out_len + guard, -7, np.int64)
    status = _library().repro_generate(
        plan.ctypes.data, plan.size, floats.ctypes.data, floats.size, states.ctypes.data,
        len(states), patterns.ctypes.data, patterns.size, pcs.ctypes.data, taken.ctypes.data,
        gaps.ctypes.data, codes.ctypes.data, codes.itemsize, capacity, out.ctypes.data,
        out_len)
    for column, fill in ((pcs, -7), (gaps, -7), (taken, 7), (codes, 7)):
        assert (column[capacity:] == fill).all()
    assert (out[out_len:] == -7).all()
    return status


def test_corrupted_plans_never_write_past_the_buffers():
    """The plan carries values from ``synthetic:`` parameters: check, never trust."""
    spec = build({"sites": [(("loop", "", 3, 2, 1, 0.5), 1.0),
                            (("local", "shared", [True, False, True], 5), 2.0),
                            (("pointer", "shared", 9, 0.1, 0.9), 1.0),
                            (("correlated", "", 7, True, 0.1), 1.0),
                            (("biased", "", 0.3), 1.0)],
                  "skip": 0.05, "min_gap": 1, "width": 4, "branches": 64, "seed": 1})
    rng = random.Random(2)
    skeleton = spec.build_skeleton(rng)
    plan, floats, states, patterns, capacity, code, _ = synthetic._native_plan(
        spec, skeleton, 64)
    states[0] = rng.getstate()[1]
    states = np.array(states, dtype=np.uint32)
    out_len = 2 + int(plan[4]) + int(plan[5])

    def run(bad_plan, length=out_len):
        return _run_plan(bad_plan, floats, states.copy(), patterns.copy(), capacity, code,
                         length)

    assert run(plan) == 0
    assert run(plan, out_len - 1) == -1
    fuzz = random.Random(11)
    statuses = set()
    for _ in range(3000):
        bad = plan.copy()
        for _ in range(fuzz.randint(1, 3)):
            bad[fuzz.randrange(len(bad))] = fuzz.choice(
                [-1, 0, 1, 2, 3, 4, 5, 31, 32, 33, 624, 625, 2**31, 2**32, 2**62, -(2**63)])
        statuses.add(run(bad))
    assert statuses <= {-3, -1, 0} and {-1, 0} <= statuses


def test_threads_generate_side_by_side():
    from concurrent.futures import ThreadPoolExecutor

    from repro.traces.refs import resolve_trace_ref

    refs = ["suite:INT01?branches=30000", "hard:CLIENT02?branches=30000",
            "synthetic:mixed?length=30000&seed=4", "suite:SERVER02?branches=30000"] * 2
    serial = [columns(resolve_trace_ref(ref)[0]) for ref in refs]
    with ThreadPoolExecutor(2) as pool:
        threaded = list(pool.map(lambda ref: columns(resolve_trace_ref(ref)[0]), refs))
    assert threaded == serial


def test_a_truthy_invert_is_stored_as_a_bool(monkeypatch):
    """``invert=2`` inverts the copy exactly like ``invert=True``, on both paths."""
    def spec(invert):
        return (WorkloadSpec(skip_probability=0.0)
                .add(BiasedBranch(0x1000, 0.5))
                .add(GloballyCorrelatedBranch(0x2000, source_pc=0x1000, invert=invert)))

    for path in ("native", "python"):
        forced = path == "python"
        truthy = generate(spec(2), 400, 1, monkeypatch, path=path, forced=forced)
        assert columns(truthy) == columns(
            generate(spec(True), 400, 1, monkeypatch, path=path, forced=forced))
