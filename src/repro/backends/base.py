"""The execution-backend protocol and registry.

A *backend* is one way of executing (spec, trace, scenario, pipeline)
simulations.  The staged per-branch interpreter
(:class:`~repro.pipeline.engine.SimulationEngine`) is the reference
backend — it supports every registered predictor kind and every update
scenario.  Alternative backends trade generality for throughput: the
``native`` backend (:mod:`repro.backends.native`) runs the whole staged
simulation in C for the TAGE family, the static baselines, the two-bit
tables, the perceptron and GEHL, and runs every task it supports unless
``interp`` is selected; the ``numpy`` backend
(:mod:`repro.backends.vector`) replaces the per-branch loop with one
array scan for bimodal and gshare under scenario [I], and runs only where
the native library does not load.  So a ``numpy`` selection means native
where it loads and the scan otherwise.

The scheduler (:func:`~repro.pipeline.parallel.run_scheduled`) calls
:meth:`Backend.run_tasks` once per (scenario, config) group, on the
driving thread.  Native tasks instead run as one call each
(:meth:`~repro.backends.native.NativeBackend.bind`), fanned out over
``max_workers`` threads.

The contract every backend honours:

* results are **prediction-bit-identical** to the interpreter — the same
  :class:`~repro.pipeline.metrics.SimulationResult`, misprediction for
  misprediction and access for access — so backend choice is purely a
  performance knob and results cache across backends;
* :meth:`Backend.supports` is the capability gate: schedulers ask before
  dispatching and route what neither native nor the selected backend
  supports to the interpreter, so selecting a backend never changes
  *which* runs succeed, only how fast they do.

Backends register by name (:func:`register_backend`); selection travels
as a plain string through :class:`~repro.api.config.RunnerConfig`
(``REPRO_SUITE_BACKEND``), :class:`~repro.api.request.RunRequest` and the
CLI ``--backend`` flag.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Callable, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.pipeline.config import PipelineConfig
    from repro.pipeline.metrics import SimulationResult
    from repro.pipeline.scenarios import UpdateScenario
    from repro.predictors.registry import PredictorSpec
    from repro.traces.trace import Trace

__all__ = [
    "Backend",
    "DEFAULT_BACKEND",
    "available_backends",
    "get_backend",
    "live_backends",
    "register_backend",
]

#: The reference backend: the staged per-branch engine.
DEFAULT_BACKEND = "interp"

#: name → lazily-constructed singleton factory.
_FACTORIES: dict[str, Callable[[], "Backend"]] = {}
_INSTANCES: dict[str, "Backend"] = {}


class Backend(ABC):
    """One execution strategy for (spec, trace, scenario, config) runs."""

    #: Registry name; also what ``RunnerConfig.backend`` etc. select by.
    name: str = "backend"

    def available(self) -> bool:
        """Whether this backend can run anything on this host right now."""
        return True

    @abstractmethod
    def supports(
        self,
        spec: "PredictorSpec",
        scenario: "UpdateScenario",
        config: "PipelineConfig",
    ) -> bool:
        """Whether this backend can execute the combination bit-identically."""

    @abstractmethod
    def run_tasks(
        self,
        tasks: Sequence["tuple[PredictorSpec, Trace]"],
        scenario: "UpdateScenario",
        config: "PipelineConfig",
    ) -> list["SimulationResult"]:
        """Execute (spec, trace) pairs; results in task order.

        The entry point schedulers call, with one kernel group of
        possibly several traces, on the driving thread.  Every spec must
        satisfy :meth:`supports` — schedulers filter before grouping.
        """


def register_backend(name: str, factory: Callable[[], Backend]) -> None:
    """Register a backend factory under ``name`` (replaces an existing one)."""
    _FACTORIES[name] = factory
    _INSTANCES.pop(name, None)


def available_backends() -> list[str]:
    """Sorted names of every registered backend."""
    return sorted(_FACTORIES)


def live_backends() -> list[str]:
    """Sorted names of the :meth:`~Backend.available` backends (loads them)."""
    return [name for name in available_backends() if get_backend(name).available()]


def get_backend(name: str) -> Backend:
    """The (singleton) backend registered under ``name``."""
    if name not in _FACTORIES:
        raise KeyError(
            f"unknown backend {name!r}; registered backends: {available_backends()}"
        )
    if name not in _INSTANCES:
        _INSTANCES[name] = _FACTORIES[name]()
    return _INSTANCES[name]
