"""The loop predictor and its speculative iteration management (Section 5.2).

TAGE predicts regular loops well, but when the control flow *inside* the
loop body is erratic the global history at the loop branch differs from
one execution to the next and TAGE cannot learn the exit.  A loop
predictor side-steps the problem entirely: it recognises branches that
behave as loops with a constant trip count and, once confident (the same
trip count observed several times in a row), predicts the exit exactly.

The paper's configuration is a 64-entry, 4-way skewed-associative table
whose entries hold a past iteration count, a current (retired) iteration
count, a partial tag, a 3-bit confidence counter, a 3-bit age counter and
one direction bit — 37 bits per entry.  A Speculative Loop Iteration
Manager (SLIM, Figure 5) supplies the in-flight iteration count when
several iterations of the same loop are simultaneously in the pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.bits import mask
from repro.common.storage import StorageReport

__all__ = ["LoopEntry", "LoopPrediction", "LoopPredictor", "SpeculativeLoopIterationManager"]

#: Confidence level at which the loop prediction is trusted: "reaching a
#: high confidence level after 7 executions of the overall loop appears as
#: a good tradeoff" (Section 5.2).
CONFIDENCE_MAX = 7
AGE_MAX = 7


@dataclass
class LoopEntry:
    """One loop-predictor entry (37 bits in the paper's dimensioning)."""

    tag: int = 0
    past_iterations: int = 0  # trip count observed on the last completed execution
    current_iterations: int = 0  # retired iterations of the execution in progress
    confidence: int = 0
    age: int = 0
    direction: bool = True  # direction taken while the loop keeps iterating
    valid: bool = False


@dataclass
class LoopPrediction:
    """Outcome of a loop-predictor lookup.

    Attributes
    ----------
    hit:
        True when the branch maps to a valid, tag-matching entry.
    confident:
        True when the entry has reached full confidence and therefore may
        override the main predictor.
    taken:
        The predicted direction (meaningful only when ``hit``).
    way, set_index, tag:
        Identity of the entry for the retire-time update.
    speculative_iteration:
        The iteration number used for this prediction (from the SLIM when
        the loop has in-flight iterations, otherwise the retired count).
    """

    hit: bool = False
    confident: bool = False
    taken: bool = False
    way: int = -1
    set_index: int = 0
    tag: int = 0
    speculative_iteration: int = 0


@dataclass
class _InflightIteration:
    """SLIM entry: one in-flight execution of a loop branch."""

    sequence: int
    set_index: int
    tag: int
    iteration: int


class SpeculativeLoopIterationManager:
    """Speculative Loop Iteration Manager (Figure 5).

    Keeps the speculative iteration number of every in-flight loop branch
    so that consecutive iterations fetched before the first retires still
    see increasing counts.  Entries are squashed past a misprediction and
    released at retirement.
    """

    def __init__(self, capacity: int = 128) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._entries: list[_InflightIteration] = []
        self._next_sequence = 0

    def __len__(self) -> int:
        return len(self._entries)

    def speculative_iteration(self, set_index: int, tag: int, retired_iteration: int) -> int:
        """Iteration count the next fetch of this loop should observe."""
        for entry in reversed(self._entries):
            if entry.set_index == set_index and entry.tag == tag:
                return entry.iteration
        return retired_iteration

    def record(self, set_index: int, tag: int, iteration: int) -> int:
        """Record a newly fetched loop iteration; returns its sequence number."""
        entry = _InflightIteration(self._next_sequence, set_index, tag, iteration)
        self._next_sequence += 1
        self._entries.append(entry)
        if len(self._entries) > self.capacity:
            self._entries.pop(0)
        return entry.sequence

    def squash_after(self, sequence: int) -> None:
        """Squash every entry younger than ``sequence`` (misprediction repair)."""
        self._entries = [entry for entry in self._entries if entry.sequence <= sequence]

    def release(self, sequence: int) -> None:
        """Release the entry of a retiring branch."""
        self._entries = [entry for entry in self._entries if entry.sequence != sequence]


class LoopPredictor:
    """4-way skewed-associative loop predictor.

    Parameters
    ----------
    entries:
        Total number of entries (the paper uses 64).
    ways:
        Associativity (the paper uses 4).
    iteration_bits, tag_bits, confidence_bits, age_bits:
        Field widths; defaults follow the paper's 37-bit entry.
    """

    def __init__(
        self,
        entries: int = 64,
        ways: int = 4,
        iteration_bits: int = 10,
        tag_bits: int = 10,
        confidence_bits: int = 3,
        age_bits: int = 3,
    ) -> None:
        if entries <= 0 or entries % ways:
            raise ValueError("entries must be a positive multiple of ways")
        self.entries = entries
        self.ways = ways
        self.sets = entries // ways
        self.iteration_bits = iteration_bits
        self.tag_bits = tag_bits
        self.confidence_bits = confidence_bits
        self.age_bits = age_bits
        self.max_iterations = (1 << iteration_bits) - 1
        self._table: list[list[LoopEntry]] = [
            [LoopEntry() for _ in range(ways)] for _ in range(self.sets)
        ]
        self.slim = SpeculativeLoopIterationManager()

    # -- indexing -------------------------------------------------------------

    def _set_index(self, pc: int, way: int) -> int:
        """Skewed set index: each way uses a slightly different hash of the PC."""
        if self.sets == 1:
            return 0
        hashed = (pc >> 2) ^ ((pc >> 2) >> (4 + way)) ^ (way * 0x9E37)
        return hashed % self.sets

    def _tag(self, pc: int) -> int:
        return ((pc >> 2) ^ (pc >> (2 + self.tag_bits))) & mask(self.tag_bits)

    def _find(self, pc: int) -> tuple[int, int, LoopEntry | None]:
        """Locate the entry of ``pc``; returns (way, set_index, entry-or-None)."""
        tag = self._tag(pc)
        for way in range(self.ways):
            set_index = self._set_index(pc, way)
            entry = self._table[set_index][way]
            if entry.valid and entry.tag == tag:
                return way, set_index, entry
        return -1, 0, None

    # -- prediction -----------------------------------------------------------

    def predict(self, pc: int, speculative: bool = True) -> LoopPrediction:
        """Look up ``pc``; when ``speculative`` use the SLIM iteration count."""
        tag = self._tag(pc)
        way, set_index, entry = self._find(pc)
        if entry is None:
            return LoopPrediction(hit=False, tag=tag)
        retired_iteration = entry.current_iterations
        iteration = (
            self.slim.speculative_iteration(set_index, tag, retired_iteration)
            if speculative
            else retired_iteration
        )
        confident = entry.confidence >= CONFIDENCE_MAX and entry.past_iterations > 0
        # The loop keeps going in `direction` until the iteration count
        # reaches the learned trip count, at which point the exit is taken.
        exiting = entry.past_iterations > 0 and iteration >= entry.past_iterations
        taken = (not entry.direction) if exiting else entry.direction
        return LoopPrediction(
            hit=True,
            confident=confident,
            taken=taken,
            way=way,
            set_index=set_index,
            tag=tag,
            speculative_iteration=iteration,
        )

    def speculate(self, prediction: LoopPrediction, predicted_taken: bool) -> int:
        """Advance the SLIM for a fetched loop branch; returns the SLIM sequence.

        ``predicted_taken`` is the direction the front-end follows; an
        iteration that continues the loop increments the speculative count,
        a (predicted) exit resets it to zero.
        """
        if not prediction.hit:
            return -1
        entry = self._table[prediction.set_index][prediction.way]
        if predicted_taken == entry.direction:
            next_iteration = prediction.speculative_iteration + 1
        else:
            next_iteration = 0
        return self.slim.record(prediction.set_index, prediction.tag, next_iteration)

    # -- update ---------------------------------------------------------------

    def update(
        self,
        pc: int,
        taken: bool,
        prediction: LoopPrediction,
        main_prediction_correct: bool,
        slim_sequence: int = -1,
    ) -> None:
        """Retire-time update of the loop predictor.

        Parameters
        ----------
        pc, taken:
            The retiring branch and its direction.
        prediction:
            The lookup performed at fetch time for this branch.
        main_prediction_correct:
            Whether the main (TAGE) predictor was correct — used both for
            the age bookkeeping ("incremented when the entry ... provided a
            valid prediction and the prediction would have been incorrect
            otherwise") and to decide when to allocate.
        slim_sequence:
            SLIM entry recorded at fetch time (released here).
        """
        if slim_sequence >= 0:
            self.slim.release(slim_sequence)

        way, set_index, entry = self._find(pc)
        if entry is not None:
            self._update_hit(entry, taken, prediction, main_prediction_correct)
            return
        # Allocate only when the main predictor mispredicted: the loop
        # predictor exists to patch TAGE's loop-exit mispredictions.
        if not main_prediction_correct:
            self._allocate(pc, taken)

    def _update_hit(
        self,
        entry: LoopEntry,
        taken: bool,
        prediction: LoopPrediction,
        main_prediction_correct: bool,
    ) -> None:
        if prediction.hit and prediction.confident:
            if prediction.taken == taken and not main_prediction_correct:
                # The loop predictor saved a misprediction: make the entry
                # harder to evict.
                entry.age = min(AGE_MAX, entry.age + 1)
            if prediction.taken != taken:
                # A confident loop prediction failed: the branch is not a
                # regular loop after all, free the entry (Section 5.2:
                # "age is reset to zero whenever the branch is determined
                # as not being a regular loop").
                entry.age = 0
                entry.confidence = 0
                entry.valid = False
                return

        if taken == entry.direction:
            entry.current_iterations += 1
            if entry.current_iterations > self.max_iterations:
                # Iteration counter overflow: not a (trackable) regular loop.
                entry.valid = False
                entry.confidence = 0
                entry.age = 0
            return

        # The loop exited: compare the observed trip count with the learned one.
        if entry.current_iterations == entry.past_iterations and entry.past_iterations > 0:
            entry.confidence = min(CONFIDENCE_MAX, entry.confidence + 1)
        else:
            entry.past_iterations = entry.current_iterations
            entry.confidence = 0
        entry.current_iterations = 0

    def _allocate(self, pc: int, taken: bool) -> None:
        """Allocate an entry for ``pc``, respecting the age-based replacement."""
        tag = self._tag(pc)
        victim_way = -1
        victim_set = 0
        for way in range(self.ways):
            set_index = self._set_index(pc, way)
            entry = self._table[set_index][way]
            if not entry.valid:
                victim_way, victim_set = way, set_index
                break
            if entry.age == 0 and victim_way < 0:
                victim_way, victim_set = way, set_index
        if victim_way < 0:
            # No replaceable entry: age every candidate so a later
            # allocation can succeed (the paper's age-based policy).
            for way in range(self.ways):
                set_index = self._set_index(pc, way)
                entry = self._table[set_index][way]
                entry.age = max(0, entry.age - 1)
            return
        # The allocation is triggered by a main-predictor misprediction,
        # which for a loop is typically the exit: the looping direction is
        # therefore the opposite of the mispredicted outcome.
        self._table[victim_set][victim_way] = LoopEntry(
            tag=tag,
            past_iterations=0,
            current_iterations=0,
            confidence=0,
            age=AGE_MAX,
            direction=not taken,
            valid=True,
        )

    # -- reporting ------------------------------------------------------------

    @property
    def entry_bits(self) -> int:
        """Storage bits of one entry (37 with the paper's field widths)."""
        return 2 * self.iteration_bits + self.tag_bits + self.confidence_bits + self.age_bits + 1

    def storage_report(self) -> StorageReport:
        report = StorageReport("loop-predictor")
        report.add("loop entries", self.entries, self.entry_bits)
        return report
