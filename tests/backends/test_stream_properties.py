"""Property tests: the precomputed history stream equals the live register.

The numpy scan kernel never steps
:class:`~repro.histories.global_history.GlobalHistoryRegister`; gshare's
index reads the closed-form packed-history stream computed by
:mod:`repro.backends.vector.streams`.  This property pins that stream to
the incremental register step for step, for arbitrary outcome sequences
and window widths.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends.vector.streams import pack_stream
from repro.histories.global_history import GlobalHistoryRegister


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
