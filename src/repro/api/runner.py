"""The execution facade: one object that runs requests, batches and products.

:class:`Runner` is the entry point callers use to execute simulations
(a single predictor-over-trace run can also use
:class:`~repro.pipeline.engine.SimulationEngine` directly).  It owns a
:class:`~repro.api.config.RunnerConfig` (workers + cache), resolves
:mod:`trace references <repro.traces.refs>` (memoised, so requests naming
the same reference share trace objects), and schedules every (spec,
trace) pair of a batch or cross-product into **one** scheduling pass,
:func:`~repro.pipeline.parallel.run_scheduled`: workers stay busy across
spec and experiment boundaries instead of draining one suite at a time.

Requests are planned from trace handles
(:class:`~repro.traces.trace.TraceHandle`: name, length, identity and
window), not from records.  With a result cache configured the runner
also keeps a per-reference trace manifest (each trace's name and actual
length) in the cache directory, so a fully cached request generates
nothing; records are generated only for traces with a cache miss.

Three altitudes, one engine:

* :meth:`Runner.run` — one :class:`~repro.api.request.RunRequest`;
* :meth:`Runner.run_batch` — many requests, one scheduling pass;
* :meth:`Runner.run_product` — specs x trace refs x scenarios, one pass.

Experiment drivers that already hold live ``Trace`` lists use the
lower-level :meth:`Runner.run_suite` / :meth:`Runner.run_suites`, which
share the same scheduling and cache.

Lifecycle: kernel-routed tasks run in this process and need no pool;
only interp-routed tasks (``snap``, ``ftl``, ``interp`` selections,
anything the kernels decline) use worker processes.  By default a batch
with more than one of those and more than one worker builds (and tears
down) its own process pool.  With ``persistent=True`` the runner owns
one long-lived :class:`~repro.pipeline.parallel.WorkerPool` whose worker
processes outlive each batch, so later batches pay no process spawn.
Either way ``Runner`` is a context manager; :meth:`Runner.close`
(idempotent, also on ``with`` exit and Ctrl-C) shuts the pool down
without orphaning workers.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from repro.api.config import RunnerConfig
from repro.obs import get_metrics, span
from repro.api.request import RunRequest, coerce_scenario, validate_shard_coverage
from repro.pipeline.config import PipelineConfig
from repro.pipeline.metrics import SimulationResult, SuiteResult
from repro.pipeline.parallel import SuiteCache, WorkerPool, run_scheduled
from repro.pipeline.scenarios import UpdateScenario
from repro.predictors.base import Predictor
from repro.predictors.registry import PredictorSpec, spec_of
from repro.traces.refs import TraceRef, parse_trace_ref, resolve_trace_ref, trace_handles
from repro.traces.sharding import (
    ShardWindow,
    auto_shard_count,
    plan_shards,
    shard_handle,
    shard_trace,
)
from repro.traces.trace import Trace, TraceHandle

__all__ = ["RESOLVED_BRANCH_LIMIT", "Runner", "active_runner", "using_runner"]

#: Branches of resolved traces one runner keeps for reuse across batches
#: (about 18 bytes each resident).  Past it the least recently used
#: references are dropped — the newest is always kept — and regenerated
#: if asked for again, which bounds persistent serve lanes and fleet
#: workers however many distinct references they see.
RESOLVED_BRANCH_LIMIT = 1_000_000

#: A suite job: (spec, traces, scenario, pipeline config or None).
SuiteJob = tuple  # noqa: N816 - simple alias, kept loose for call-site brevity


def _coerce_spec(spec: PredictorSpec | str | Predictor) -> PredictorSpec:
    if isinstance(spec, str):
        return PredictorSpec(spec)
    if isinstance(spec, Predictor):
        return spec_of(spec)
    if isinstance(spec, PredictorSpec):
        return spec
    raise ValueError(f"cannot interpret {type(spec).__name__} as a predictor spec")


@dataclass
class Runner:
    """Executes run requests through one scheduler and cache.

    Build one from the environment (``Runner.from_env()``) or with an
    explicit :class:`RunnerConfig`.  The runner is cheap to construct.
    Only interp-routed tasks use a process pool; by default it exists
    only while a batch with several such tasks is executing.  With
    ``persistent=True`` the runner instead keeps one :class:`WorkerPool`
    alive across batches for them (created lazily, shut down by
    :meth:`close` / ``with`` exit).
    """

    config: RunnerConfig = field(default_factory=RunnerConfig)
    persistent: bool = False

    def __post_init__(self) -> None:
        self.cache: SuiteCache | None = self.config.make_cache()
        self._resolved: OrderedDict[str, list[Trace]] = OrderedDict()
        self._resolved_branches = 0
        self._pool: WorkerPool | None = None

    @classmethod
    def from_env(cls, persistent: bool = False) -> "Runner":
        """A runner configured from the ``REPRO_SUITE_*`` environment."""
        return cls(RunnerConfig.from_env(), persistent=persistent)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def pool(self) -> WorkerPool | None:
        """The live persistent pool, or ``None`` (ephemeral mode / not started)."""
        return self._pool

    def _acquire_pool(self) -> WorkerPool | None:
        if not self.persistent:
            return None
        if self._pool is None or self._pool.closed:
            self._pool = WorkerPool(max_workers=self.config.workers)
        return self._pool

    def close(self) -> None:
        """Shut down the persistent pool, if any (idempotent).

        The runner stays usable afterwards — the next batch simply
        builds a fresh pool (persistent mode) or runs ephemeral.
        """
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.close()

    def __enter__(self) -> "Runner":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Trace resolution
    # ------------------------------------------------------------------

    def resolve(self, ref: str | TraceRef) -> list[Trace]:
        """Resolve a trace reference, memoised (LRU, see :data:`RESOLVED_BRANCH_LIMIT`).

        Memoisation is keyed on the *canonical* form, so two requests
        spelling the same reference differently (parameter order,
        explicit defaults) still share trace objects.  Generation runs
        in a ``trace.resolve`` span and, with a result cache configured,
        refreshes the reference's trace manifest there.
        """
        parsed = parse_trace_ref(ref) if isinstance(ref, str) else ref
        traces = self._resolved.get(parsed.canonical)
        if traces is not None:
            self._resolved.move_to_end(parsed.canonical)
        else:
            with span("trace.resolve", ref=parsed.canonical) as resolve_span:
                traces = resolve_trace_ref(parsed)
                resolve_span.set(branches=sum(len(trace) for trace in traces))
            self._resolved[parsed.canonical] = traces
            self._resolved_branches += sum(len(trace) for trace in traces)
            while self._resolved_branches > RESOLVED_BRANCH_LIMIT and len(self._resolved) > 1:
                _, dropped = self._resolved.popitem(last=False)
                self._resolved_branches -= sum(len(trace) for trace in dropped)
            if self.cache is not None:
                # A shard ref's manifest lists its base trace (the shard's source).
                lengths = [
                    (t.source_name, t.window[2]) if t.window else (t.name, len(t)) for t in traces
                ]
                self.cache.put_manifest(parsed.base, lengths)
        # A copy: callers may sort/extend their list without corrupting
        # later resolutions; the Trace objects themselves stay shared.
        return list(traces)

    # ------------------------------------------------------------------
    # Request execution
    # ------------------------------------------------------------------

    def run(self, request: RunRequest) -> SuiteResult:
        """Execute one request and return its suite result."""
        return self.run_batch([request])[0]

    # -- backend selection ---------------------------------------------

    def backend_for(self, request: RunRequest | None = None) -> str | None:
        """The execution backend ``request`` selects: env < request < CLI.

        The config's backend (``REPRO_SUITE_BACKEND``) is the ambient
        default; a request's own ``backend`` field overrides it; a
        *forced* config backend (the CLI ``--backend`` flag) overrides
        both.  Only ``interp`` changes where tasks run: it pins them to
        the reference engine; any other name, like ``None``, means the
        default route (see :func:`repro.pipeline.parallel._route`).
        """
        if self.config.backend is not None and self.config.backend_forced:
            return self.config.backend
        if request is not None and request.backend is not None:
            return request.backend
        return self.config.backend

    # -- sharding ------------------------------------------------------

    def _shard_plan(self, request: RunRequest, handle: TraceHandle) -> list[ShardWindow] | None:
        """The shard windows for one trace handle, or ``None`` to run it whole.

        An explicit request policy wins; otherwise traces at least
        ``config.auto_shard_branches`` long are split in bounded-warmup
        mode.  Both derive the shard count from the trace length alone
        (:func:`auto_shard_count`), so the same request shards the same
        way on every machine.  An ``exact`` policy runs the trace whole:
        that is the run it promises to match bit for bit.  Traces that
        *are* shards already (a ``#shard=`` reference) are never
        re-sharded.
        """
        if handle.window is not None:
            return None
        length = handle.length
        policy = request.sharding
        if policy is not None:
            if policy.mode == "exact":
                return None
            count = policy.shards or auto_shard_count(length)
            if count <= 1:
                return None
            return plan_shards(length, count, policy.warmup)
        threshold = self.config.auto_shard_branches
        if threshold is None or length < threshold:
            return None
        # Per-shard floor scales with the configured threshold, so a trace
        # right at the threshold always splits in two and the defaults
        # (200k threshold, 100k floor) match auto_shard_count's own.
        count = auto_shard_count(length, min_branches=max(1, threshold // 2))
        if count <= 1:
            return None
        return plan_shards(length, count)

    def run_batch(self, requests: Sequence[RunRequest]) -> list[SuiteResult]:
        """Execute many requests with every (spec, trace) pair in one pool.

        Results come back in request order; identical runs appearing in
        several requests are simulated once per batch.  Traces selected
        for sharding (an explicit warmup-mode policy, or the auto-shard
        length threshold) are fanned out as warmup+measure shard tasks
        in the same pool and their window results are merged back, so a
        caller always receives one result per trace.  Every task of the
        batch goes into one scheduling pass (:func:`run_scheduled`).
        Each request's backend selection (:meth:`backend_for`) routes
        its supported tasks to the batched kernels.

        An exact-mode policy runs each trace whole, one task per trace,
        which is bit-identical to the unsharded run by construction; it
        therefore shares the unsharded run's cache entry in both
        directions.
        """
        with span("runner.batch", requests=len(requests)):
            return self._run_batch(requests)

    def _run_batch(self, requests: Sequence[RunRequest]) -> list[SuiteResult]:
        registry = get_metrics()
        batch_start = time.perf_counter()
        plan_span = span("runner.plan").__enter__()
        validate_shard_coverage(requests)
        traces = _BatchTraces(self)
        flat: list[tuple] = []
        flat_backends: list[str | None] = []
        # Per request, per trace: its task position, or its shards' positions.
        layout: list[list[int | range]] = []
        for request in requests:
            spec, scenario, config = request.predictor, request.scenario, request.pipeline
            backend = self.backend_for(request)
            units: list[int | range] = []
            for handle in traces.handles(request.trace):
                windows = self._shard_plan(request, handle)
                if windows is None:
                    units.append(len(flat))
                    flat.append((spec, handle, scenario, config))
                else:
                    units.append(range(len(flat), len(flat) + len(windows)))
                    flat.extend(
                        (spec, traces.shard(handle, window), scenario, config)
                        for window in windows
                    )
            flat_backends.extend([backend] * (len(flat) - len(flat_backends)))
            layout.append(units)

        # Planning covers handle lookup (resolving references without a
        # manifest) and shard planning — everything before the
        # scheduling pass takes over.
        plan_span.__exit__(None, None, None)
        registry.histogram(
            "repro_runner_plan_seconds",
            "Batch planning time: trace handles and shard plans.",
        ).observe(time.perf_counter() - batch_start)
        results = run_scheduled(
            flat,
            max_workers=self.config.workers,
            cache=self.cache,
            pool=self._acquire_pool(),
            backend=flat_backends,
            materialize=traces.trace,
        )

        suites: list[SuiteResult] = []
        for units in layout:
            merged = [
                results[unit] if isinstance(unit, int)
                else SimulationResult.merge([results[position] for position in unit])
                for unit in units
            ]
            suite = SuiteResult(predictor_name=merged[0].predictor_name)
            for result in merged:
                suite.add(result)
            suites.append(suite)
        registry.counter(
            "repro_runner_batches_total", "Batches executed by Runner.run_batch.").inc()
        registry.counter(
            "repro_runner_requests_total", "Run requests executed.").inc(len(requests))
        registry.counter(
            "repro_runner_tasks_total",
            "Scheduled tasks produced by batch planning.",
        ).inc(len(flat))
        registry.histogram(
            "repro_runner_batch_seconds",
            "End-to-end wall time of one Runner.run_batch call.",
        ).observe(time.perf_counter() - batch_start)
        return suites

    def product(
        self,
        predictors: Iterable[PredictorSpec | str | Predictor],
        traces: Iterable[str],
        scenarios: Iterable[UpdateScenario | str] = (UpdateScenario.IMMEDIATE,),
        pipeline: PipelineConfig | None = None,
    ) -> list[RunRequest]:
        """The cross-product of specs x trace refs x scenarios as requests.

        Order is deterministic: predictor-major, then trace reference,
        then scenario — so ``run_product`` output lines up with the
        arguments however many workers execute it.
        """
        specs = [_coerce_spec(spec) for spec in predictors]
        refs = list(traces)
        scens = [coerce_scenario(scenario) for scenario in scenarios]
        if not specs or not refs or not scens:
            raise ValueError("product needs at least one predictor, trace ref and scenario")
        return [
            RunRequest(spec, ref, scenario, pipeline or PipelineConfig())
            for spec in specs
            for ref in refs
            for scenario in scens
        ]

    def run_product(
        self,
        predictors: Iterable[PredictorSpec | str | Predictor],
        traces: Iterable[str],
        scenarios: Iterable[UpdateScenario | str] = (UpdateScenario.IMMEDIATE,),
        pipeline: PipelineConfig | None = None,
    ) -> list[tuple[RunRequest, SuiteResult]]:
        """Execute the cross-product through one pool; see :meth:`product`."""
        requests = self.product(predictors, traces, scenarios, pipeline)
        return list(zip(requests, self.run_batch(requests)))

    # ------------------------------------------------------------------
    # Suite execution over live traces (used by the experiment drivers)
    # ------------------------------------------------------------------

    def run_suite(
        self,
        spec: PredictorSpec | str | Predictor,
        traces: list[Trace],
        scenario: UpdateScenario = UpdateScenario.IMMEDIATE,
        pipeline: PipelineConfig | None = None,
    ) -> SuiteResult:
        """One spec over a list of already-resolved traces."""
        return self.run_suites([(spec, traces, scenario, pipeline)])[0]

    def run_suites(self, jobs: Sequence[SuiteJob]) -> list[SuiteResult]:
        """Many (spec, traces, scenario, pipeline) suites through one pool.

        The flattened (spec, trace) tasks of every job are interleaved
        into a single :func:`run_scheduled` pass, so a sweep over many
        specs keeps every worker busy until the whole batch drains.
        Every trace sees a power-on-state predictor (traces never warm
        each other up — the CBP rule): each task builds a fresh one from
        its spec.
        """
        flat: list[tuple] = []
        shape: list[tuple[PredictorSpec, int]] = []
        for job in jobs:
            spec, traces, scenario, pipeline = job
            spec = _coerce_spec(spec)
            if not traces:
                raise ValueError("every suite job needs at least one trace")
            config = pipeline or PipelineConfig()
            scenario = coerce_scenario(scenario)
            shape.append((spec, len(traces)))
            flat.extend((spec, trace, scenario, config) for trace in traces)

        results = run_scheduled(
            flat,
            max_workers=self.config.workers,
            cache=self.cache,
            pool=self._acquire_pool(),
            backend=self.backend_for(),
        )

        suites: list[SuiteResult] = []
        cursor = 0
        for spec, count in shape:
            chunk = results[cursor : cursor + count]
            cursor += count
            suite = SuiteResult(predictor_name=chunk[0].predictor_name)
            for result in chunk:
                suite.add(result)
            suites.append(suite)
        return suites


class _BatchTraces:
    """One batch's trace handles, and the traces behind them on demand.

    Planning sees handles only; :meth:`trace` builds a handle's trace —
    resolving its reference through the runner and cutting the shard —
    the first time a task on it misses the result cache.
    """

    def __init__(self, runner: Runner) -> None:
        self._runner = runner
        self._handles: dict[str, list[TraceHandle]] = {}
        #: identity -> (parsed ref, index among its traces, shard window)
        self._sources: dict[str, tuple[TraceRef, int, ShardWindow | None]] = {}
        self._resolved: dict[str, list[Trace]] = {}
        self._traces: dict[str, Trace] = {}

    def handles(self, ref: str) -> list[TraceHandle]:
        """``ref``'s handles: from the runner's memo, the cache's manifest, or by resolving.

        A ``#shard=`` reference is planned on its base trace's handle and
        cut through :meth:`shard`, so every shard reference of one trace
        in a batch shares one resolution of the base.
        """
        parsed = parse_trace_ref(ref)
        base = parsed if parsed.shard is None else parse_trace_ref(parsed.base)
        handles = self._handles.get(base.canonical)
        if handles is None:
            runner = self._runner
            lengths = None
            if runner.cache is not None and base.canonical not in runner._resolved:
                lengths = runner.cache.get_manifest(base.canonical)
            if lengths is not None:
                try:
                    handles = trace_handles(base, lengths)
                except ValueError:
                    pass  # a manifest that cannot be this ref's: resolve instead
            if handles is None:
                # Kept for the batch, whatever the runner's LRU drops meanwhile.
                traces = self._resolved[base.canonical] = runner.resolve(base)
                handles = [TraceHandle.of(trace) for trace in traces]
            self._handles[base.canonical] = handles
            for index, handle in enumerate(handles):
                self._sources.setdefault(handle.identity, (base, index, None))
        if parsed.shard is None:
            return handles
        index, count = parsed.shard
        (handle,) = handles
        return [self.shard(handle, plan_shards(handle.length, count, parsed.shard_warmup)[index])]

    def shard(self, handle: TraceHandle, window: ShardWindow) -> TraceHandle:
        shard = shard_handle(handle, window)
        parsed, index, _ = self._sources[handle.identity]
        self._sources.setdefault(shard.identity, (parsed, index, window))
        return shard

    def trace(self, handle: TraceHandle) -> Trace:
        trace = self._traces.get(handle.identity)
        if trace is not None:
            return trace
        parsed, index, window = self._sources[handle.identity]
        resolved = self._resolved.get(parsed.canonical)
        if resolved is None:
            resolved = self._resolved[parsed.canonical] = self._runner.resolve(parsed)
        planned = self._handles[parsed.canonical][index]
        if TraceHandle.of(resolved[index]) != planned:
            raise RuntimeError(
                f"trace {planned.name!r} was planned as {planned.length} branches from its "
                f"cache manifest but generates {len(resolved[index])}: the generators "
                f"changed without a GENERATOR_VERSION bump (the manifest is now rewritten)"
            )
        trace = resolved[index] if window is None else shard_trace(resolved[index], window)
        self._traces[handle.identity] = trace
        return trace


# ---------------------------------------------------------------------------
# Ambient runner: lets entry points (the CLI) hand one configured runner to
# code that is otherwise called without plumbing (the experiment drivers).
# ---------------------------------------------------------------------------

_ACTIVE: list[Runner] = []


def active_runner() -> Runner:
    """The innermost :func:`using_runner` runner, or a fresh env-configured one."""
    if _ACTIVE:
        return _ACTIVE[-1]
    return Runner.from_env()


@contextmanager
def using_runner(runner: Runner) -> Iterator[Runner]:
    """Make ``runner`` the ambient runner within the ``with`` block."""
    _ACTIVE.append(runner)
    try:
        yield runner
    finally:
        _ACTIVE.pop()
