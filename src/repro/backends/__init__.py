"""Execution backends: the interpreter and two bit-identical kernels.

Three engines run a (spec, trace, scenario, pipeline) simulation and give
the same :class:`~repro.pipeline.metrics.SimulationResult`, misprediction
for misprediction and access for access, so choosing among them is only
a speed decision and results cache across them:

* ``interp`` — the staged per-branch reference engine,
  :class:`~repro.pipeline.engine.SimulationEngine`; it runs every kind
  under every scenario and has no kernel object here;
* ``native`` — :mod:`repro.backends.native`, the whole simulation in C;
* ``numpy`` — :mod:`repro.backends.vector`, the two-bit [I] table scan.

:data:`BACKENDS` are the names a selection may use (CLI ``--backend``,
``REPRO_SUITE_BACKEND``, :attr:`RunRequest.backend
<repro.api.request.RunRequest.backend>`).  Which engine runs a task is
one fixed rule, stated in :func:`repro.pipeline.parallel._route`.  A
kernel answers ``supports(spec, scenario, config)`` before the scheduler
hands it tasks; importing this package builds and loads nothing::

    from repro.backends import get_backend

    backend = get_backend("native")
    if backend.supports(spec, scenario, config):
        (result,) = backend.run_tasks([(spec, trace)], scenario, config)
"""

from repro.backends.native import NativeBackend
from repro.backends.vector import NumpyBackend

__all__ = ["BACKENDS", "NativeBackend", "NumpyBackend", "get_backend", "live_backends"]

#: Every backend name a selection may use, sorted.
BACKENDS = ("interp", "native", "numpy")

#: The kernel singletons (``interp`` is the engine itself).
_KERNELS = {"native": NativeBackend(), "numpy": NumpyBackend()}


def get_backend(name: str):
    """The (singleton) kernel backend ``native`` or ``numpy``."""
    if name not in _KERNELS:
        raise KeyError(f"unknown kernel backend {name!r}; kernels: {sorted(_KERNELS)}")
    return _KERNELS[name]


def live_backends() -> list[str]:
    """The backend names that can run on this host (loads the native library)."""
    return [name for name in BACKENDS if name != "native" or _KERNELS["native"].available()]
