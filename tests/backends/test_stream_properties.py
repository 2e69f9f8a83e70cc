"""Property tests: the precomputed kernel streams equal the live histories.

The numpy kernels never step :class:`~repro.histories.folded.FoldedHistory`
or :class:`~repro.histories.global_history.GlobalHistoryRegister`; they
read closed-form streams computed by
:mod:`repro.backends.vector.streams`.  These properties pin the streams to
the incremental structures step for step, for arbitrary outcome sequences
and (history length, fold width) pairs — the same invariant the
gshare/GEHL index math stands on.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends.vector.streams import folded_stream, pack_stream
from repro.histories.folded import FoldedHistory
from repro.histories.global_history import GlobalHistoryRegister


def _fold_trajectory(outcomes, history_length, width):
    """Fold value *before* each branch, via the incremental structure."""
    fold = FoldedHistory(history_length, width)
    history = GlobalHistoryRegister(capacity=max(256, history_length + 8))
    values = []
    for taken in outcomes:
        values.append(fold.value)
        dropped = history.bit(history_length - 1) if len(history) else 0
        fold.update(1 if taken else 0, dropped)
        history.push(taken)
    return values


class TestFoldedStream:
    @given(
        st.lists(st.booleans(), max_size=300),
        st.integers(min_value=1, max_value=120),
        st.integers(min_value=1, max_value=14),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_incremental_fold_step_for_step(self, outcomes, history_length, width):
        stream = folded_stream(np.array(outcomes, dtype=np.int64), history_length, width)
        assert stream.tolist() == _fold_trajectory(outcomes, history_length, width)

    @given(
        st.lists(st.booleans(), min_size=1, max_size=200),
        st.integers(min_value=1, max_value=100),
        st.integers(min_value=1, max_value=12),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_recompute_at_every_prefix(self, outcomes, history_length, width):
        """Same invariant against the from-scratch reference model."""
        stream = folded_stream(np.array(outcomes, dtype=np.int64), history_length, width)
        fold = FoldedHistory(history_length, width)
        history = GlobalHistoryRegister(capacity=max(256, history_length + 8))
        for step, taken in enumerate(outcomes):
            assert int(stream[step]) == fold.recompute(history)
            dropped = history.bit(history_length - 1) if len(history) else 0
            fold.update(1 if taken else 0, dropped)
            history.push(taken)

    def test_width_wider_than_history(self):
        """clen > history_length: the fold is just the raw window bits."""
        outcomes = [True, False, True, True]
        stream = folded_stream(np.array(outcomes, dtype=np.int64), 3, 10)
        assert stream.tolist() == _fold_trajectory(outcomes, 3, 10)

    def test_empty_stream(self):
        assert folded_stream(np.zeros(0, dtype=np.int64), 8, 4).size == 0


class TestPackStream:
    @given(
        st.lists(st.booleans(), max_size=200),
        st.integers(min_value=0, max_value=40),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_global_history_value(self, outcomes, width):
        stream = pack_stream(np.array(outcomes, dtype=np.int64), width)
        history = GlobalHistoryRegister(capacity=max(64, width + 8))
        for step, taken in enumerate(outcomes):
            assert int(stream[step]) == history.value(width)
            history.push(taken)
