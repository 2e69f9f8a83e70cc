"""Branch-history machinery shared by the global- and local-history predictors.

This subpackage provides the history state that every predictor in the
paper reads:

* :class:`~repro.histories.global_history.GlobalHistoryRegister` — the
  speculative global direction history, implemented as a circular buffer
  with checkpoint/repair as the paper suggests for misprediction recovery,
* :class:`~repro.histories.global_history.PathHistory` — the short PC path
  history that TAGE mixes into its index functions,
* :class:`~repro.histories.folded.FoldedHistory` — the incrementally
  maintained "circular shift register" folds used to hash very long
  histories into table indices and tags,
* :func:`~repro.histories.geometric.geometric_series` — the geometric
  history-length series L(i) introduced with O-GEHL,
* :class:`~repro.histories.local.LocalHistoryTable` and
  :class:`~repro.histories.local.SpeculativeLocalHistoryManager` — the
  per-branch local histories used by the LSC predictor (Section 6).
"""

from repro.histories.folded import FoldedHistory
from repro.histories.geometric import geometric_series
from repro.histories.global_history import GlobalHistoryRegister, PathHistory
from repro.histories.local import LocalHistoryTable, SpeculativeLocalHistoryManager

__all__ = [
    "FoldedHistory",
    "GlobalHistoryRegister",
    "LocalHistoryTable",
    "PathHistory",
    "SpeculativeLocalHistoryManager",
    "geometric_series",
]
