"""Execution backends: pluggable strategies for running simulations.

See :mod:`repro.backends.base` for the protocol and registry,
:mod:`repro.backends.interp` for the reference staged engine,
:mod:`repro.backends.native` for the C kernel and
:mod:`repro.backends.vector` for the numpy scan.  Importing this
package registers the built-in backends (and builds nothing)::

    from repro.backends import get_backend

    backend = get_backend("native")
    if backend.supports(spec, scenario, config):
        (result,) = backend.run_tasks([(spec, trace)], scenario, config)

The scheduler (:func:`repro.pipeline.parallel.run_scheduled`, behind
:class:`~repro.api.runner.Runner`) selects backends by name and falls
back to the default route (native, else ``interp``) for anything a
backend does not support.
"""

from repro.backends.base import (
    DEFAULT_BACKEND,
    Backend,
    available_backends,
    get_backend,
    live_backends,
    register_backend,
)
from repro.backends.interp import InterpBackend
from repro.backends.native import NativeBackend
from repro.backends.vector import NumpyBackend

__all__ = [
    "Backend",
    "DEFAULT_BACKEND",
    "InterpBackend",
    "NativeBackend",
    "NumpyBackend",
    "available_backends",
    "get_backend",
    "live_backends",
    "register_backend",
]

register_backend(InterpBackend.name, InterpBackend)
register_backend(NumpyBackend.name, NumpyBackend)
register_backend(NativeBackend.name, NativeBackend)
