"""Synthetic branch-behaviour generators.

The CBP-3 traces used by the paper are not redistributable, so the suite in
:mod:`repro.traces.suite` is built from explicit branch *behaviour classes*.
Each class targets one of the phenomena the paper's mechanisms exploit:

=====================================  ==========================================
Behaviour                              Mechanism it exercises
=====================================  ==========================================
:class:`BiasedBranch`                  Statistical Corrector (Section 5.3):
                                       branches with only a statistical bias,
                                       uncorrelated with the path.
:class:`GloballyCorrelatedBranch`      TAGE's geometric global history,
                                       including very long-range correlation.
:class:`LoopBranch` (irregular body)   Loop predictor (Section 5.2): constant
                                       iteration counts with erratic bodies.
:class:`LocalPatternBranch`            Local-history Statistical Corrector
                                       (Section 6): periodic behaviour visible
                                       in local history but scrambled in global
                                       history by interleaved noise.
:class:`PointerChaseBranch`            Large static footprints (SERVER traces),
                                       allocation pressure and u-bit management.
=====================================  ==========================================

A :class:`WorkloadSpec` interleaves several behaviours into one
:class:`~repro.traces.trace.Trace`; interleaving is itself randomised so
that global history alignment is not artificially perfect.

:func:`generate_workload` has two paths with one output.  The native
path (``generator.c`` in the native library, see
:mod:`repro.backends.native`) restates the visit loop, the five classes'
``emit`` and CPython's MT19937 with the ``random()``, ``getrandbits`` and
``randrange`` formulas the classes call.  It is bit-exact: the same four
columns, site names and final site state (a local-pattern site's
position, current pattern and pattern generator), draw for draw, about
30 times faster.  The Python loop is the reference; it runs when the
library is unavailable and when the native generator declines the spec:
a site whose class is not exactly one of the five (a subclass may
override ``emit``), a draw wider than 32 bits, a loop visit longer than
2**22 branches, or a value the plan cannot carry exactly.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np

from repro.obs import current_span, get_metrics
from repro.traces.trace import Trace

__all__ = [
    "GeneratorContext",
    "BranchSite",
    "BiasedBranch",
    "GloballyCorrelatedBranch",
    "LoopBranch",
    "LocalPatternBranch",
    "PointerChaseBranch",
    "WorkloadSpec",
    "generate_workload",
]


class GeneratorContext:
    """Shared state visible to every behaviour while a trace is generated.

    It records the most recent outcome of every static branch, so that
    :class:`GloballyCorrelatedBranch` sites can compute outcomes that are a
    function of the directions of earlier branches: genuinely
    path-correlated behaviour rather than random noise.
    """

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        #: pc -> most recent outcome; :func:`generate_workload` writes it directly.
        self.last_by_pc: dict[int, bool] = {}

    def record(self, taken: bool, pc: int) -> None:
        """Record one emitted branch outcome."""
        self.last_by_pc[pc] = taken

    def last_outcome(self, pc: int, default: bool = True) -> bool:
        """Most recent outcome of the static branch at ``pc`` (``default`` if unseen)."""
        return self.last_by_pc.get(pc, default)


class BranchSite(ABC):
    """A static branch (or small cluster of branches) with a defined behaviour.

    Each call to :meth:`emit` produces the dynamic branches of one *visit*
    to the site — a single branch for simple behaviours, a whole loop
    execution for :class:`LoopBranch`.
    """

    def __init__(self, pc: int, label: str = "") -> None:
        if pc < 0:
            raise ValueError("pc must be non-negative")
        self.pc = pc
        self.label = label or type(self).__name__

    @abstractmethod
    def emit(self, ctx: GeneratorContext) -> list[tuple[int, bool]]:
        """Return the ``(pc, taken)`` pairs of one visit to this site."""

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{type(self).__name__}(pc={self.pc:#x}, label={self.label!r})"


class BiasedBranch(BranchSite):
    """A branch whose outcome is i.i.d. with a fixed taken probability.

    These are the branches the Statistical Corrector targets: they carry no
    path correlation at all, so any predictor does best by following the
    bias.  A bias near 0.5 makes the branch intrinsically hard and drives
    the "7 hard traces" of Section 2.2.
    """

    def __init__(self, pc: int, bias: float, label: str = "") -> None:
        super().__init__(pc, label or "biased")
        if not 0.0 <= bias <= 1.0:
            raise ValueError(f"bias must be a probability, got {bias}")
        self.bias = bias

    def emit(self, ctx: GeneratorContext) -> list[tuple[int, bool]]:
        return [(self.pc, ctx.rng.random() < self.bias)]


class GloballyCorrelatedBranch(BranchSite):
    """A branch whose outcome copies an earlier static branch's outcome.

    Real path correlation almost always takes this form: a branch tests a
    predicate that an earlier branch (possibly far away in the dynamic
    stream) already tested, so its outcome equals — or is the negation of
    — the most recent outcome of that *source* branch.  A global-history
    predictor captures it because the source outcome sits somewhere in the
    history leading to this branch; TAGE captures it even when the source
    executed hundreds of branches earlier.

    ``source_pc`` may name any other site in the workload, including a
    weakly-biased one (in which case this branch is unpredictable from its
    own bias yet perfectly predictable from the path).  ``noise`` flips
    the outcome with the given probability, modelling imperfect
    correlation.
    """

    def __init__(
        self,
        pc: int,
        source_pc: int,
        invert: bool = False,
        noise: float = 0.0,
        label: str = "",
    ) -> None:
        super().__init__(pc, label or "correlated")
        if source_pc < 0:
            raise ValueError("source_pc must be non-negative")
        if not 0.0 <= noise <= 1.0:
            raise ValueError("noise must be a probability")
        self.source_pc = source_pc
        # Stored as a bool: ``last ^ invert`` must stay a bool (``invert=2``
        # would otherwise make the copy always taken).
        self.invert = bool(invert)
        self.noise = noise

    def emit(self, ctx: GeneratorContext) -> list[tuple[int, bool]]:
        taken = ctx.last_outcome(self.source_pc) ^ self.invert
        if self.noise and ctx.rng.random() < self.noise:
            taken = not taken
        return [(self.pc, taken)]


class LoopBranch(BranchSite):
    """A loop-closing branch, optionally with an erratic loop body.

    One visit emits a full loop execution: ``iterations - 1`` taken
    back-edges followed by one not-taken exit.  When ``body_branches`` is
    non-zero, each iteration additionally emits that many data-dependent
    (random) branches from distinct body PCs.  Those scramble the global
    history seen at the back-edge so that TAGE cannot learn the exit from
    the path, while a loop predictor — which only counts iterations —
    predicts the exit exactly (Section 5.2).

    ``iteration_jitter`` makes the trip count vary from execution to
    execution, producing loops the loop predictor must *not* lock onto
    (its confidence mechanism is tested by these).
    """

    def __init__(
        self,
        pc: int,
        iterations: int,
        body_branches: int = 0,
        body_bias: float = 0.7,
        iteration_jitter: int = 0,
        label: str = "",
    ) -> None:
        super().__init__(pc, label or "loop")
        if iterations < 1:
            raise ValueError("a loop needs at least one iteration")
        if body_branches < 0:
            raise ValueError("body_branches must be non-negative")
        if iteration_jitter < 0:
            raise ValueError("iteration_jitter must be non-negative")
        self.iterations = iterations
        self.body_branches = body_branches
        self.body_bias = body_bias
        self.iteration_jitter = iteration_jitter

    def emit(self, ctx: GeneratorContext) -> list[tuple[int, bool]]:
        trip_count = self.iterations
        if self.iteration_jitter:
            trip_count += ctx.rng.randint(-self.iteration_jitter, self.iteration_jitter)
            trip_count = max(1, trip_count)
        records: list[tuple[int, bool]] = []
        for iteration in range(trip_count):
            for body_index in range(self.body_branches):
                body_pc = self.pc + 8 * (body_index + 1)
                records.append((body_pc, ctx.rng.random() < self.body_bias))
            records.append((self.pc, iteration != trip_count - 1))
        return records


class LocalPatternBranch(BranchSite):
    """A branch repeating a fixed direction pattern across its executions.

    The pattern is visible in the branch's *local* history, but because the
    workload interleaves a random number of other branches between
    consecutive executions, the *global* history at this branch is
    scrambled.  This is the behaviour class that motivates the
    local-history Statistical Corrector (Section 6).

    ``pattern_count`` > 1 creates a branch that cycles through several
    distinct patterns (selected pseudo-randomly), modelling the CLIENT02
    outlier whose "2 branches have repetitive behaviours but with thousands
    of different patterns" and only becomes predictable at multi-megabit
    budgets.
    """

    def __init__(
        self,
        pc: int,
        pattern: tuple[bool, ...],
        pattern_count: int = 1,
        label: str = "",
    ) -> None:
        super().__init__(pc, label or "local-pattern")
        if not pattern:
            raise ValueError("pattern must not be empty")
        if pattern_count < 1:
            raise ValueError("pattern_count must be at least 1")
        # Stored as bools: a correlated copy computes ``last ^ invert``.
        self.base_pattern = tuple(map(bool, pattern))
        self.pattern_count = pattern_count
        self._position = 0
        self._current_pattern = self.base_pattern
        self._pattern_rng = random.Random(pc ^ 0x5BD1E995)

    def _next_pattern(self) -> tuple[bool, ...]:
        if self.pattern_count == 1:
            return self.base_pattern
        # Derive a pseudo-random variant of the base pattern: same length,
        # different phase and a few flipped positions.
        variant = list(self.base_pattern)
        flips = self._pattern_rng.randint(1, max(1, len(variant) // 3))
        for _ in range(flips):
            index = self._pattern_rng.randrange(len(variant))
            variant[index] = not variant[index]
        rotation = self._pattern_rng.randrange(len(variant))
        return tuple(variant[rotation:] + variant[:rotation])

    def emit(self, ctx: GeneratorContext) -> list[tuple[int, bool]]:
        taken = self._current_pattern[self._position]
        self._position += 1
        if self._position >= len(self._current_pattern):
            self._position = 0
            self._current_pattern = self._next_pattern()
        return [(self.pc, taken)]


class PointerChaseBranch(BranchSite):
    """A cluster of many static branches visited in data-dependent order.

    Models the very large footprints of the SERVER traces ("several tens of
    thousands of static branches"): each visit touches one of
    ``static_branches`` distinct PCs, chosen pseudo-randomly, each with its
    own moderate bias.  The footprint pressure exercises TAGE's entry
    allocation and u-bit management.
    """

    def __init__(
        self,
        pc: int,
        static_branches: int,
        bias_low: float = 0.6,
        bias_high: float = 0.95,
        label: str = "",
    ) -> None:
        super().__init__(pc, label or "pointer-chase")
        if static_branches < 1:
            raise ValueError("static_branches must be positive")
        if not 0.0 <= bias_low <= bias_high <= 1.0:
            raise ValueError("bias bounds must satisfy 0 <= low <= high <= 1")
        self.static_branches = static_branches
        bias_rng = random.Random(pc ^ 0x9E3779B9)
        self._biases = [
            bias_low + bias_rng.random() * (bias_high - bias_low) for _ in range(static_branches)
        ]

    def emit(self, ctx: GeneratorContext) -> list[tuple[int, bool]]:
        which = ctx.rng.randrange(self.static_branches)
        branch_pc = self.pc + 16 * which
        return [(branch_pc, ctx.rng.random() < self._biases[which])]


@dataclass
class WorkloadSpec:
    """Recipe interleaving several behaviours into one trace.

    A real program does not visit its branches in random order: an outer
    loop (an event loop, a frame loop, a request loop…) visits roughly the
    same sequence of branch sites over and over, which is precisely why
    global-history predictors work — the history pattern leading to a
    branch *recurs*.  The generator therefore builds a per-trace *program
    skeleton*: a fixed sequence of site visits (each site appearing
    roughly ``weight`` times) that is replayed until the requested branch
    count is reached, with a small per-visit ``skip_probability`` so
    consecutive skeleton iterations are similar but not identical.

    Attributes
    ----------
    sites:
        ``(site, weight)`` pairs; a site with weight *w* appears about *w*
        times per skeleton iteration.
    skip_probability:
        Probability that a given skeleton slot is skipped in one
        iteration, perturbing the otherwise periodic control flow.
    min_gap, max_gap:
        Bounds on the number of non-branch micro-ops inserted before each
        emitted branch, used for the per-kilo-instruction metrics.
    """

    sites: list[tuple[BranchSite, float]] = field(default_factory=list)
    skip_probability: float = 0.05
    min_gap: int = 2
    max_gap: int = 8

    def add(self, site: BranchSite, weight: float = 1.0) -> "WorkloadSpec":
        """Add one behaviour with the given skeleton weight."""
        if weight <= 0:
            raise ValueError("site weight must be positive")
        self.sites.append((site, weight))
        return self

    def validate(self) -> None:
        """Raise ``ValueError`` if the spec cannot generate a trace."""
        if not self.sites:
            raise ValueError("workload spec has no branch sites")
        if not 0.0 <= self.skip_probability < 1.0:
            raise ValueError("skip_probability must be in [0, 1)")
        if self.min_gap < 0 or self.max_gap < self.min_gap:
            raise ValueError("invalid instruction gap bounds")
        pcs = [site.pc for site, _ in self.sites]
        if len(pcs) != len(set(pcs)):
            raise ValueError("branch sites must use distinct base PCs")

    def build_skeleton(self, rng: random.Random) -> list[BranchSite]:
        """Build the per-trace visit sequence (one outer-loop iteration)."""
        skeleton: list[BranchSite] = []
        for site, weight in self.sites:
            skeleton.extend([site] * max(1, round(weight)))
        rng.shuffle(skeleton)
        return skeleton


#: Plan kind of each behaviour class the native generator restates (exact
#: types: a subclass may override ``emit``, so it runs on the Python loop).
_NATIVE_KINDS = {BiasedBranch: 0, GloballyCorrelatedBranch: 1, LoopBranch: 2,
                 LocalPatternBranch: 3, PointerChaseBranch: 4}
#: The longest single site visit the native generator sizes its buffers for.
_NATIVE_MAX_VISIT = 1 << 22


def _native_plan(spec: WorkloadSpec, skeleton: list[BranchSite], branch_count: int):
    """The native generator's inputs (layout in ``generator.c``), or None.

    Returns ``(plan, floats, states, patterns, capacity, code dtype,
    local-pattern sites with their current-pattern offsets)``; ``states``
    still lacks the trace generator's own state (row 0).  None declines
    the spec to the Python loop: a site class other than the five above,
    a visit longer than :data:`_NATIVE_MAX_VISIT`, or a value the plan
    cannot carry exactly.
    """
    sites = [site for site, _ in spec.sites]
    if any(type(site) not in _NATIVE_KINDS for site in sites):
        return None
    number = {id(site): index for index, site in enumerate(sites)}
    labels: dict = {}
    slots: dict[int, int] = {}  # source pc -> slot of its last outcome
    try:
        for site in sites:
            labels.setdefault(site.label, len(labels))
            if type(site) is GloballyCorrelatedBranch:
                slots.setdefault(site.source_pc, len(slots))
    except TypeError:  # an unhashable label or source
        return None
    ints: list = [branch_count, spec.min_gap, spec.max_gap - spec.min_gap + 1]
    floats: list = [spec.skip_probability]
    states, patterns, local, visit = [None], [], [], 1
    for index, site in enumerate(sites):
        kind = _NATIVE_KINDS[type(site)]
        ints += [kind, site.pc, labels[site.label], -1 if kind == 4 else slots.get(site.pc, -1)]
        if kind == 0:
            ints.append(len(floats))
            floats.append(site.bias)
        elif kind == 1:
            if type(site.invert) not in (bool, int) or site.invert not in (0, 1):
                return None
            ints += [slots[site.source_pc], site.invert, len(floats)]
            floats.append(site.noise)
        elif kind == 2:
            ints += [site.iterations, site.body_branches, site.iteration_jitter, len(floats)]
            floats.append(site.body_bias)
            pairs = [((pc - site.pc) // 8 - 1, slot) for pc, slot in slots.items()
                     if 0 < pc - site.pc <= 8 * site.body_branches and (pc - site.pc) % 8 == 0]
            ints += [len(pairs), *(value for pair in pairs for value in pair)]
            visit = max(visit, (site.iterations + site.iteration_jitter) * (site.body_branches + 1))
        elif kind == 3:
            base, current = site.base_pattern, site._current_pattern
            if len(current) != len(base) or any(type(v) is not bool for v in (*base, *current)):
                return None
            state = 0
            if site.pattern_count > 1:
                if type(site._pattern_rng) is not random.Random:
                    return None
                state = len(states)
                states.append(site._pattern_rng.getstate()[1])
            ints += [len(base), site.pattern_count, site._position, len(patterns),
                     len(patterns) + len(base), state]
            local.append((index, site, len(patterns) + len(base), state))
            patterns += [*base, *current]
        else:
            ints += [site.static_branches, len(floats)]
            floats += site._biases
            pairs = [((pc - site.pc) // 16, slot) for pc, slot in slots.items()
                     if 0 <= pc - site.pc < 16 * site.static_branches and (pc - site.pc) % 16 == 0]
            ints += [len(pairs), *(value for pair in pairs for value in pair)]
    code = np.min_scalar_type(max(len(labels) - 1, 0))
    if (visit > _NATIVE_MAX_VISIT or code.itemsize > 4
            or not all(isinstance(value, int) for value in ints)
            or not all(isinstance(value, (int, float)) for value in floats)):
        return None
    head = [*ints[:3], len(slots), len(labels), len(sites), len(skeleton)]
    try:
        order = [number[id(site)] for site in skeleton]
        plan = np.array(head + order + ints[3:], dtype=np.int64)
        floats = np.array(floats, dtype=np.float64)
    except (KeyError, OverflowError):  # a foreign skeleton entry; a value past int64
        return None
    patterns = np.array(patterns, dtype=np.bool_)
    return plan, floats, states, patterns, branch_count - 1 + visit, code, local


def _generate_native(spec: WorkloadSpec, skeleton: list[BranchSite], rng: random.Random,
                     branch_count: int):
    """Run the native generator: ``(pcs, taken, gaps, sites, site_names)``, or None.

    None means the library is unavailable or declined the spec; nothing
    (the sites' state, ``rng``) has changed then.
    """
    from repro.backends.native import _library  # importing repro builds nothing

    library = _library()
    planned = None if library is None else _native_plan(spec, skeleton, branch_count)
    if planned is None:
        return None
    plan, floats, states, patterns, capacity, code, local = planned
    states[0] = rng.getstate()[1]
    states = np.array(states, dtype=np.uint32)
    pcs, gaps = np.empty(capacity, dtype=np.int64), np.empty(capacity, dtype=np.int64)
    taken, codes = np.empty(capacity, dtype=np.bool_), np.empty(capacity, dtype=code)
    labels, sites = int(plan[4]), [site for site, _ in spec.sites]
    out = np.zeros(2 + labels + len(sites), dtype=np.int64)
    status = library.repro_generate(
        plan.ctypes.data, plan.size, floats.ctypes.data, floats.size, states.ctypes.data,
        len(states), patterns.ctypes.data, patterns.size, pcs.ctypes.data, taken.ctypes.data,
        gaps.ctypes.data, codes.ctypes.data, codes.itemsize, capacity, out.ctypes.data,
        out.size)
    if status == -2:
        raise MemoryError("native trace generator ran out of memory")
    if status:  # -1: a plan it cannot run exactly; -3: a visit past the buffers
        return None
    count, used, *rest = out.tolist()
    positions = rest[labels:]
    for index, site, offset, state in local:
        site._position = positions[index]
        site._current_pattern = tuple(patterns[offset:offset + len(site.base_pattern)].tolist())
        if state:
            site._pattern_rng.setstate((3, tuple(states[state].tolist()),
                                        site._pattern_rng.getstate()[2]))
    names = tuple(sites[index].label for index in rest[:used])
    return pcs[:count], taken[:count], gaps[:count], codes[:count], names


def _generate_python(spec: WorkloadSpec, skeleton: list[BranchSite], rng: random.Random,
                     branch_count: int):
    """The reference loop: ``(pcs, taken, gaps, sites, site_names)`` as lists."""
    ctx = GeneratorContext(rng)
    pcs, outcomes, gaps, sites = [], [], [], []
    site_codes: dict[str, int] = {}
    last_by_pc = ctx.last_by_pc
    # ``rng.randint(min_gap, max_gap)`` inlined draw for draw: CPython's
    # ``randrange`` rejection-samples ``getrandbits(width.bit_length())``
    # until the draw falls below ``width`` (even when ``width`` is 1).
    getrandbits = rng.getrandbits
    low, width = spec.min_gap, spec.max_gap - spec.min_gap + 1
    bits = width.bit_length()
    skip = spec.skip_probability

    while len(pcs) < branch_count:
        for site in skeleton:
            if len(pcs) >= branch_count:
                break
            if skip and rng.random() < skip:
                continue
            code = site_codes.setdefault(site.label, len(site_codes))
            for pc, taken in site.emit(ctx):
                last_by_pc[pc] = taken
                pcs.append(pc)
                outcomes.append(taken)
                gap = getrandbits(bits)
                while gap >= width:
                    gap = getrandbits(bits)
                gaps.append(low + gap)
                sites.append(code)
    return pcs, outcomes, gaps, sites, tuple(site_codes)


def generate_workload(
    spec: WorkloadSpec,
    branch_count: int,
    seed: int,
    name: str = "synthetic",
    category: str = "",
    hard: bool = False,
) -> Trace:
    """Generate a trace of at least ``branch_count`` branches from ``spec``.

    Generation is deterministic given ``seed``.  The trace may exceed
    ``branch_count`` by at most one site visit (a loop execution is never
    cut in the middle) — callers that need an exact length can slice.
    The native generator runs it where it can, the Python loop otherwise;
    both give the same trace and leave the sites in the same state.
    """
    spec.validate()
    if branch_count < 1:
        raise ValueError("branch_count must be positive")

    rng = random.Random(seed)
    skeleton = spec.build_skeleton(rng)
    path, columns = "native", _generate_native(spec, skeleton, rng, branch_count)
    if columns is None:
        path, columns = "python", _generate_python(spec, skeleton, rng, branch_count)
    pcs, outcomes, gaps, sites, site_names = columns
    trace = Trace(
        name=name,
        category=category,
        pcs=pcs,
        taken=outcomes,
        preceding=gaps,
        sites=sites,
        site_names=site_names,
        hard=hard,
    )
    get_metrics().counter(
        "repro_trace_generated_branches_total",
        "Trace branches generated, by generator path (native/python).",
        ("path",)).inc(len(trace), path=path)
    current_span().set(path=path)
    return trace
