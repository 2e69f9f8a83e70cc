"""Property tests: the two-bit [I] scan equals a sequential counter table.

:func:`repro.backends.vector.twobit.run_immediate` never steps a counter;
it composes per-branch transition maps with a segmented scan that retires
positions early (once their range reaches the segment start, or once the
composed map is constant).  These properties pin its mispredictions and
every :class:`~repro.hardware.access_counter.AccessProfile` field to a
plain loop over a dict of 2-bit counters, on streams shaped to reach each
retire rule: a single index (one segment spanning the trace), strictly
alternating outcomes (maps that never go constant), all-distinct indices
(every position a segment start), and the empty and one-branch streams.
The native kernel's 64-entry bimodal is held to the same loop on the same
streams, over a trace whose PCs index the drawn entries.
"""

from __future__ import annotations

from dataclasses import asdict

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.backends import get_backend
from repro.backends.vector.twobit import TableKernel, run_immediate
from repro.hardware.access_counter import AccessProfile
from repro.pipeline.config import PipelineConfig
from repro.pipeline.scenarios import UpdateScenario
from repro.predictors.registry import PredictorSpec
from repro.traces.trace import Trace

KERNEL = TableKernel(name="bimodal-64", entries=64, history_length=0)


def sequential(idx, taken, warmup):
    """Scenario [I] on one table of saturating 2-bit counters, branch by branch."""
    counters: dict[int, int] = {}
    mispredictions = writes = 0
    for position, (index, outcome) in enumerate(zip(idx, taken)):
        before = counters.get(index, 2)  # power-on: weakly taken
        after = min(before + 1, 3) if outcome else max(before - 1, 0)
        counters[index] = after
        if position >= warmup:
            mispredictions += (before >= 2) != outcome
            writes += after != before
    measured = len(idx) - warmup
    return mispredictions, AccessProfile(
        branches=measured,
        mispredictions=mispredictions,
        fetch_reads=measured,
        retire_reads=0,
        entry_writes=writes,
        write_accesses=writes,
        entry_reads=measured,
    )


@st.composite
def streams(draw):
    """(indices, outcomes, warmup) in one of the shapes the scan special-cases."""
    shape = draw(st.sampled_from(["random", "one-index", "alternating", "distinct"]))
    length = draw(st.integers(min_value=0, max_value=700))
    if shape == "one-index":
        idx = [draw(st.integers(min_value=0, max_value=63))] * length
    elif shape == "distinct":
        length = min(length, KERNEL.entries)
        idx = draw(st.permutations(range(KERNEL.entries)))[:length]
    else:
        width = draw(st.integers(min_value=1, max_value=KERNEL.entries))
        idx = draw(st.lists(st.integers(0, width - 1), min_size=length, max_size=length))
    if shape == "alternating":
        phase = draw(st.booleans())
        taken = [(position % 2 == 0) == phase for position in range(length)]
    else:
        bias = draw(st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        taken = (rng.random(length) < bias).tolist()
    warmup = draw(st.integers(min_value=0, max_value=length))
    return idx, taken, warmup


class TestRunImmediate:
    @given(streams())
    @settings(max_examples=150, deadline=None)
    @example(([], [], 0))
    @example(([5], [True], 0))
    @example(([5], [False], 1))
    @example(([3] * 300, [True, False] * 150, 37))
    def test_matches_sequential_counters(self, stream):
        idx, taken, warmup = stream
        got = run_immediate(
            KERNEL, np.array(idx, dtype=np.int64), np.array(taken, dtype=np.bool_), warmup
        )
        expected = sequential(idx, taken, warmup)
        assert got[0] == expected[0]
        assert asdict(got[1]) == asdict(expected[1])

    def test_one_long_segment(self):
        # A 5000-branch single segment with noisy outcomes: every pass of
        # the scan runs, and most positions retire on a constant map.
        rng = np.random.default_rng(11)
        taken = rng.random(5000) < 0.6
        idx = np.zeros(5000, dtype=np.int64)
        got = run_immediate(KERNEL, idx, taken, 100)
        assert got == sequential(idx.tolist(), taken.tolist(), 100)


class TestNativeBimodal:
    @given(streams())
    @settings(max_examples=150, deadline=None)
    @example(([], [], 0))
    @example(([5], [True], 0))
    @example(([5], [False], 1))
    @example(([3] * 300, [True, False] * 150, 37))
    def test_matches_sequential_counters(self, stream):
        idx, taken, warmup = stream
        # The bimodal table is indexed by ``(pc >> 2) & 63``.
        trace = Trace(name="drawn", pcs=[index << 2 for index in idx], taken=taken,
                      preceding=[0] * len(idx), warmup_count=warmup)
        (result,) = get_backend("native").run_tasks(
            [(PredictorSpec("bimodal", {"entries": KERNEL.entries}), trace)],
            UpdateScenario.IMMEDIATE, PipelineConfig())
        mispredictions, profile = sequential(idx, taken, warmup)
        assert result.branches == len(idx) - warmup
        assert result.mispredictions == mispredictions
        assert asdict(result.accesses) == asdict(profile)
