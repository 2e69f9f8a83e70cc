"""The common predictor interface.

The paper's central hardware argument (Section 4) is about *when* the
predictor tables are read and written: a branch is predicted at fetch time
but its tables are only updated at retire time, and the update may either
re-read the tables (scenario [A]), reuse the values read at fetch time
(scenario [B]) or re-read only on a misprediction (scenario [C]).

The interface below makes those scenarios expressible for every predictor:

* :meth:`Predictor.predict` reads the tables and returns a
  :class:`PredictionInfo` that *snapshots* everything the update needs,
* :meth:`Predictor.update_history` advances the speculative histories at
  fetch time (trace-driven simulation models perfect history repair, as
  the CBP framework does),
* :meth:`Predictor.update` applies the retire-time table update, either
  re-reading the tables (``reread=True``) or trusting the possibly stale
  snapshot (``reread=False``), and reports how many table entries were
  actually modified so that silent updates can be accounted for.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

from repro.common.storage import StorageReport

__all__ = ["PredictionInfo", "UpdateStats", "Predictor"]


@dataclass
class PredictionInfo:
    """Everything a predictor read (and decided) at prediction time.

    Concrete predictors subclass this to carry the table values they read,
    so that a retire-time update can be performed without re-reading the
    tables (update scenarios [B] and [C] of the paper).

    Attributes
    ----------
    taken:
        The predicted direction.
    """

    taken: bool = False


@dataclass
class UpdateStats:
    """Table activity caused by one retire-time update.

    Attributes
    ----------
    entry_reads:
        Number of table entries re-read during the update (zero when the
        update runs from the fetch-time snapshot).
    entry_writes:
        Number of table entries whose stored value actually changed.
        Silent updates — writes of the value already held — are *not*
        counted, matching the paper's "effective writes" metric.
    tables_written:
        Number of distinct predictor tables touched by an effective write.
    allocations:
        Number of new tagged entries allocated (TAGE-family predictors).
    """

    entry_reads: int = 0
    entry_writes: int = 0
    tables_written: int = 0
    allocations: int = 0

    def merge(self, other: "UpdateStats") -> None:
        """Accumulate another update's activity into this one."""
        self.entry_reads += other.entry_reads
        self.entry_writes += other.entry_writes
        self.tables_written += other.tables_written
        self.allocations += other.allocations


class Predictor(ABC):
    """Abstract conditional branch predictor.

    The life of one branch through a predictor is::

        info = predictor.predict(pc)          # fetch-time table read
        predictor.update_history(pc, taken)   # fetch-time speculative history
        ...                                   # (other branches fetched)
        predictor.update(pc, taken, info,     # retire-time table update
                         reread=...)

    :class:`~repro.pipeline.engine.SimulationEngine` drives exactly this
    sequence; under scenario [I] it collapses it into the immediate-update
    oracle.

    The constructor defines the power-on state, and it is the only
    definition: a simulation that must start from power-on (every trace
    of a suite, under the CBP rule) builds a fresh predictor.
    """

    #: Human-readable predictor name used in reports.
    name: str = "predictor"

    @abstractmethod
    def predict(self, pc: int) -> PredictionInfo:
        """Read the predictor tables and return the prediction snapshot."""

    @abstractmethod
    def update_history(self, pc: int, taken: bool, info: PredictionInfo) -> None:
        """Advance the speculative histories after the branch is fetched.

        Trace-driven simulation only sees correct-path branches, so the
        history is updated with the resolved direction — equivalent to a
        hardware front-end with immediate history repair on mispredictions
        (the paper notes this repair is cheap, Section 5.1).
        """

    @abstractmethod
    def update(
        self, pc: int, taken: bool, info: PredictionInfo, reread: bool = True
    ) -> UpdateStats:
        """Apply the retire-time table update and report the table activity.

        Parameters
        ----------
        pc, taken:
            The retiring branch and its resolved direction.
        info:
            The snapshot returned by :meth:`predict` for this branch.
        reread:
            When true the update re-reads the current table contents
            (scenario [A]); when false it uses the possibly stale values
            captured in ``info`` (scenarios [B]/[C] on correct
            predictions), which is exactly what causes the accuracy losses
            quantified in Section 4.1.2.
        """

    def notify_execute(self, pc: int, taken: bool, info: PredictionInfo) -> None:
        """Signal that the branch has executed (resolved) but not yet retired.

        The delayed-update simulator calls this when a branch's outcome
        becomes available in the out-of-order core, before its retire-time
        :meth:`update`.  Predictors augmented with the Immediate Update
        Mimicker (Section 5.1) use this hook to capture the outcome of
        in-flight branches; plain predictors ignore it.
        """

    @abstractmethod
    def storage_report(self) -> StorageReport:
        """Return the per-component storage accounting of the predictor."""

    @property
    def storage_bits(self) -> int:
        """Total storage of the predictor in bits."""
        return self.storage_report().total_bits

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}, {self.storage_bits} bits>"
