"""The generator's inlined instruction-gap draw is ``randint``, draw for draw.

:func:`~repro.traces.synthetic.generate_workload` does not call
``Random.randint`` per branch; it rejection-samples ``getrandbits`` the
way CPython's ``randint`` does.  Reference-keyed cache entries are only
honest while every generated bit is unchanged (``GENERATOR_VERSION``
stays 1), so this pins the ``preceding`` column to a replay through
``random.Random(seed).randint`` interleaved with the ``random()`` calls
the generator makes around each gap.  An interpreter whose ``randint``
consumes the stream differently fails here.
"""

from __future__ import annotations

import random

import pytest

from repro.traces.refs import GENERATOR_VERSION
from repro.traces.synthetic import BiasedBranch, WorkloadSpec, generate_workload

BRANCHES = 300
BIAS = 0.7


def replay(seed, low, high, skip):
    """The (taken, gap) stream a one-site biased workload must produce."""
    rng = random.Random(seed)  # a one-site skeleton shuffles without drawing
    taken, gaps = [], []
    while len(gaps) < BRANCHES:
        if skip and rng.random() < skip:
            continue
        taken.append(rng.random() < BIAS)
        gaps.append(rng.randint(low, high))
    return taken, gaps


@pytest.mark.parametrize("low, high", [(0, 0), (3, 3), (0, 1), (0, 7), (2, 8), (1, 9), (5, 300)])
@pytest.mark.parametrize("skip", [0.0, 0.05])
def test_gaps_match_randint(low, high, skip):
    spec = WorkloadSpec(skip_probability=skip, min_gap=low, max_gap=high)
    spec.add(BiasedBranch(0x100, BIAS))
    for seed in range(40):
        trace = generate_workload(spec, BRANCHES, seed)
        taken, gaps = replay(seed, low, high, skip)
        assert trace.preceding.tolist() == gaps, (seed, low, high)
        assert trace.taken.tolist() == taken, (seed, low, high)


def test_generator_version_unchanged():
    assert GENERATOR_VERSION == 1
