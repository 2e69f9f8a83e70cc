"""Pipeline model configuration.

The CBP-3 framework models "a simple out-of-order execution core with a
realistic memory hierarchy" whose only roles, for this paper, are to delay
predictor updates until retirement, to resolve branches (execute) some
time before they retire, and to convert mispredictions into a penalty for
the MPPKI metric.  :class:`PipelineConfig` captures exactly those three
aspects with an in-flight-window abstraction measured in branches.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["PipelineConfig"]


@dataclass(frozen=True, slots=True)
class PipelineConfig:
    """In-flight window model and misprediction penalty.

    Attributes
    ----------
    retire_delay:
        Number of younger branches fetched before a branch retires (the
        depth of the in-flight branch window).  A modern out-of-order core
        keeps a few tens of branches in flight; 24 is the default.
    execute_delay:
        Number of younger branches fetched before a branch's outcome is
        known (execute/resolve).  Must not exceed ``retire_delay``.  The
        gap between the two is the window the Immediate Update Mimicker
        exploits.
    misprediction_penalty:
        Penalty, in cycles, charged per misprediction by the MPPKI metric.
        The CBP-3 framework derives a per-branch penalty from its core
        model; the paper notes the metric "is globally proportional to the
        misprediction number", so a fixed representative penalty is used
        here.
    """

    retire_delay: int = 24
    execute_delay: int = 6
    misprediction_penalty: int = 20

    def __post_init__(self) -> None:
        if self.retire_delay < 1:
            raise ValueError("retire_delay must be at least 1")
        if self.execute_delay < 0:
            raise ValueError("execute_delay must be non-negative")
        if self.execute_delay > self.retire_delay:
            raise ValueError("execute_delay cannot exceed retire_delay")
        if self.misprediction_penalty < 1:
            raise ValueError("misprediction_penalty must be positive")
