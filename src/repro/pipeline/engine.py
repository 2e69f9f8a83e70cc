"""The staged simulation engine.

Every simulation in this package — the oracle immediate-update runs of the
accuracy experiments and the delayed-update runs of the Section 4/5
pipeline studies — is one instance of the same machine: branches are
*fetched* (predicted and entered into the in-flight window), *execute*
(their outcome becomes visible to the out-of-order core) and *retire*
(their table update is applied under the selected
:class:`~repro.pipeline.scenarios.UpdateScenario`).

:class:`SimulationEngine` models those three stages explicitly, driven by
one loop.  The oracle immediate update of scenario [I] is the degenerate
zero-delay case: the in-flight window has depth zero, so a branch retires
in the same step it is fetched, its update always runs from fresh table
values, and — because the update happens at fetch time — no retire-time
read is charged and the execute stage never runs (the outcome is already
known by assumption).

The per-branch stage order exactly reproduces the historical immediate
and delayed-update loops (``tests/pipeline/test_engine_parity.py`` keeps
them as its oracle):

1. **fetch** — ``predict``, accuracy accounting, ``update_history``,
   window entry;
2. **execute** — the branch ``execute_delay`` slots back resolves and is
   announced through ``notify_execute`` (IUM hook);
3. **retire** — while the window is over-full, the oldest branch retires:
   a late ``notify_execute`` if it never reached the execute stage, then
   ``update`` with the scenario's reread policy.

At end-of-trace the window is drained through the same retire stage, so
in-flight branches are never dropped.

For warmup-mode trace sharding (:mod:`repro.traces.sharding`) a branch
may be fed as **warmup**: it runs through every stage (predict, history,
execute, update) so the predictor state evolves exactly as in a longer
run, but contributes nothing to the metrics.  :meth:`run` treats the
first :attr:`Trace.warmup_count` branches of a trace this way, driving
the loop through its stages (:meth:`start` / :meth:`feed` /
:meth:`drain_window` / :meth:`result`).
"""

from __future__ import annotations

from collections import deque
from itertools import islice
from typing import Iterable

from repro.hardware.access_counter import AccessProfile
from repro.pipeline.config import PipelineConfig
from repro.pipeline.metrics import SimulationResult
from repro.pipeline.scenarios import UpdateScenario
from repro.predictors.base import Predictor
from repro.traces.trace import Trace

__all__ = ["SimulationEngine"]


def _ium_overrides(predictor: Predictor) -> int:
    """Number of IUM overrides performed so far, when the predictor has an IUM."""
    ium = getattr(predictor, "ium", None)
    return getattr(ium, "overrides", 0) if ium is not None else 0


class _InflightEntry:
    """One branch between fetch and retire."""

    __slots__ = ("pc", "taken", "info", "mispredicted", "executed", "measured")

    def __init__(self, pc: int, taken: bool, info, mispredicted: bool, measured: bool) -> None:
        self.pc = pc
        self.taken = taken
        self.info = info
        self.mispredicted = mispredicted
        self.executed = False
        self.measured = measured


class SimulationEngine:
    """One staged fetch → execute → retire loop over a trace.

    Parameters
    ----------
    predictor:
        The predictor under test; it is driven through the standard
        predict → update_history → [notify_execute] → update protocol.
    scenario:
        Update scenario.  :attr:`UpdateScenario.IMMEDIATE` selects the
        zero-delay oracle configuration; the other scenarios use the
        ``config`` in-flight window and their retire-time read policy.
    config:
        Pipeline window model and misprediction penalty.

    An engine is single-threaded and not reentrant; build one per
    (predictor, trace) run, or call :meth:`run` sequentially.
    """

    def __init__(
        self,
        predictor: Predictor,
        scenario: UpdateScenario = UpdateScenario.IMMEDIATE,
        config: PipelineConfig | None = None,
    ) -> None:
        self.predictor = predictor
        self.scenario = scenario
        self.config = config or PipelineConfig()
        immediate = scenario is UpdateScenario.IMMEDIATE
        self._immediate = immediate
        #: Window depth: zero collapses retire into the fetch step.
        self._retire_delay = 0 if immediate else self.config.retire_delay
        #: The execute stage only exists when updates are actually delayed
        #: (under the oracle the outcome is known at fetch by assumption).
        self._execute_delay = None if immediate else self.config.execute_delay
        self._window: deque[_InflightEntry] = deque()
        self._accesses = AccessProfile()
        self._mispredictions = 0
        self._branches = 0
        self._instructions = 0
        self._warmup_branches = 0
        self._overrides_base = 0

    # -- stages ---------------------------------------------------------------

    def _fetch(self, pc: int, taken: bool, preceding: int, measured: bool) -> None:
        """Fetch stage: predict, account (measured only), advance history."""
        predictor = self.predictor
        info = predictor.predict(pc)
        mispredicted = info.taken != taken
        if measured:
            if mispredicted:
                self._mispredictions += 1
            self._accesses.record_prediction(mispredicted)
            self._branches += 1
            self._instructions += preceding + 1
        else:
            self._warmup_branches += 1
        predictor.update_history(pc, taken, info)
        self._window.append(_InflightEntry(pc, taken, info, mispredicted, measured))

    def _execute(self) -> None:
        """Execute stage: the branch ``execute_delay`` slots back resolves."""
        delay = self._execute_delay
        if delay is None or len(self._window) <= delay:
            return
        entry = self._window[-1 - delay]
        if not entry.executed:
            self.predictor.notify_execute(entry.pc, entry.taken, entry.info)
            entry.executed = True

    def _retire(self, entry: _InflightEntry) -> None:
        """Retire stage: apply the table update under the scenario's policy."""
        if self._immediate:
            # Zero-delay oracle: the update runs at fetch time from fresh
            # table values, so no separate retire-time read is charged.
            stats = self.predictor.update(entry.pc, entry.taken, entry.info, reread=True)
            if entry.measured:
                self._accesses.record_update(stats, retire_read=False)
            return
        if not entry.executed:
            self.predictor.notify_execute(entry.pc, entry.taken, entry.info)
        reread = self.scenario.reread_at_retire(entry.mispredicted)
        stats = self.predictor.update(entry.pc, entry.taken, entry.info, reread=reread)
        if entry.measured:
            self._accesses.record_update(stats, retire_read=reread)

    def _retire_ready(self) -> None:
        """Retire every branch past the window depth (oldest first)."""
        while len(self._window) > self._retire_delay:
            self._retire(self._window.popleft())

    # -- streaming ------------------------------------------------------------

    def start(self) -> None:
        """Begin a run: clear the window, zero the metrics.

        The predictor is *not* reset; callers wanting power-on state
        build a fresh predictor.
        """
        self._window.clear()
        self._accesses = AccessProfile()
        self._mispredictions = 0
        self._branches = 0
        self._instructions = 0
        self._warmup_branches = 0
        self._overrides_base = _ium_overrides(self.predictor)

    def feed(self, branches: Iterable[tuple[int, bool, int]], measured: bool = True) -> None:
        """Drive the staged loop over ``(pc, taken, preceding)`` branches without draining.

        ``measured=False`` replays the branches for predictor state only
        (warmup): every stage runs, nothing is accounted.
        """
        for pc, taken, preceding in branches:
            self._fetch(pc, taken, preceding, measured)
            self._execute()
            self._retire_ready()

    def drain_window(self) -> None:
        """End-of-trace: retire every branch still in flight."""
        while self._window:
            self._retire(self._window.popleft())

    def mark_measured(self) -> None:
        """Snapshot the IUM override counter: overrides so far were warmup."""
        self._overrides_base = _ium_overrides(self.predictor)

    def result(
        self, trace_name: str, window: tuple[int, int, int] | None = None
    ) -> SimulationResult:
        """The metrics accumulated since :meth:`start`."""
        return SimulationResult(
            trace_name=trace_name,
            predictor_name=self.predictor.name,
            branches=self._branches,
            instructions=self._instructions,
            mispredictions=self._mispredictions,
            misprediction_penalty=self.config.misprediction_penalty,
            accesses=self._accesses,
            scenario=self.scenario.label,
            ium_overrides=_ium_overrides(self.predictor) - self._overrides_base,
            window=window,
            warmup_branches=self._warmup_branches,
        )

    # -- driving --------------------------------------------------------------

    def run(self, trace: Trace) -> SimulationResult:
        """Drive the staged loop over ``trace`` and return its metrics.

        The first :attr:`Trace.warmup_count` branches are replayed as
        warmup (predict + history + update, no accounting); measurement
        covers the rest.  Whole traces have ``warmup_count == 0``.  The
        loop reads plain-int copies of the trace's columns.
        """
        branches = zip(trace.pcs.tolist(), trace.taken.tolist(), trace.preceding.tolist())
        self.start()
        self.feed(islice(branches, trace.warmup_count), measured=False)
        self.mark_measured()
        self.feed(branches)
        self.drain_window()
        return self.result(trace.source_name or trace.name, window=trace.window)
