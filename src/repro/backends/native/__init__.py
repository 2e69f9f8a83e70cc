"""The ``native`` backend: whole simulations in C.

:file:`kernel.c` restates the staged engine (window, execute and retire
stages, [A]/[B]/[C] rereads, warmup replay) and the predictors it drives:
the TAGE family (core, IUM, loop predictor, SC, LSC, bank interleaving),
the static baselines, the bimodal and gshare tables, the perceptron and
GEHL, bit for bit.  One call runs one (spec, trace) pair on the trace's
numpy columns with all state allocated per call, and ``ctypes`` releases
the GIL while it runs, so :meth:`NativeBackend.bind` hands out calls that
threads run side by side (the scheduler fans them over ``--workers``
threads).
:func:`_plan` reads a spec's power-on predictor; anything the kernel does
not model declines the spec, which then runs on the interpreter.
:file:`generator.c`, linked into the same library, is the native path of
:func:`repro.traces.synthetic.generate_workload`, which loads it through
:func:`_library`.

The library is built on first use (``gcc -O2 -shared -fPIC``, then the
whitespace-separated flags of ``REPRO_NATIVE_CFLAGS``, e.g. sanitizers)
into ``__pycache__/repro_native_<hash>.so`` beside :file:`kernel.c`, or a
per-user directory under :func:`tempfile.gettempdir` when that is
unusable; the hash covers both sources and the compiler command, and an
atomic rename publishes it.  Importing :mod:`repro` builds and loads
nothing; a failed build logs one warning and leaves the backend
unavailable.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import logging
import os
import stat
import subprocess
import tempfile
import threading
from typing import Callable, Sequence

import numpy as np

from repro.backends.base import Backend
from repro.core.augmented import AugmentedTAGE, RetireReadScope
from repro.core.composed import ISLTAGEPredictor, LTAGEPredictor, TAGELSCPredictor
from repro.core.loop_predictor import LoopPredictor
from repro.core.statistical_corrector import LocalStatisticalCorrector, StatisticalCorrector
from repro.core.tage import TAGEPredictor
from repro.hardware.access_counter import AccessProfile
from repro.obs import get_logger, log_event
from repro.pipeline.metrics import SimulationResult
from repro.predictors.bimodal import BimodalPredictor
from repro.predictors.gehl import GEHLPredictor
from repro.predictors.gshare import GSharePredictor
from repro.predictors.perceptron import PerceptronPredictor
from repro.predictors.registry import PredictorSpec, backend_support
from repro.predictors.static import AlwaysNotTakenPredictor, AlwaysTakenPredictor

__all__ = ["NativeBackend"]

_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "kernel.c")
_GENERATOR_SOURCE = os.path.join(os.path.dirname(_SOURCE), "generator.c")
#: The compile command; ``REPRO_NATIVE_CFLAGS`` and ``-o <output> <sources>``
#: are appended.
_COMPILER = ["gcc", "-O2", "-shared", "-fPIC", "-std=c99"]
ENV_CFLAGS = "REPRO_NATIVE_CFLAGS"
_LOG = get_logger("backends")
_LOCK = threading.Lock()
#: None until the first load attempt, then the library or False.
_library_state = None
_COMPOSITES = (AugmentedTAGE, LTAGEPredictor, ISLTAGEPredictor, TAGELSCPredictor)
_SCOPES = (RetireReadScope.ALL, RetireReadScope.TAGE_ONLY, RetireReadScope.LOCAL_ONLY)


def _build_dirs() -> list[str]:
    """Where the library may be cached, in order of preference."""
    user = getattr(os, "getuid", lambda: "user")()
    return [os.path.join(os.path.dirname(_SOURCE), "__pycache__"),
            os.path.join(tempfile.gettempdir(), f"repro-native-{user}")]


def _usable(directory: str) -> bool:
    """Whether ``directory`` is (made) a directory owned by this user or root."""
    try:
        os.makedirs(directory, mode=0o700, exist_ok=True)
        info = os.stat(directory)
    except OSError:
        return False
    return stat.S_ISDIR(info.st_mode) and info.st_uid in (0, getattr(os, "getuid", int)())


def _build() -> str:
    """Path of the compiled library, compiling it if no cached copy exists."""
    sources = [_SOURCE, _GENERATOR_SOURCE]
    compiler = [*_COMPILER, *os.environ.get(ENV_CFLAGS, "").split()]
    hasher = hashlib.sha256(" ".join(compiler).encode())
    for source in sources:
        with open(source, "rb") as handle:
            hasher.update(handle.read())
    digest = hasher.hexdigest()
    for directory in filter(_usable, _build_dirs()):
        path = os.path.join(directory, f"repro_native_{digest[:16]}.so")
        if os.path.exists(path):
            return path
        if not os.access(directory, os.W_OK):
            continue
        partial = f"{path}.{os.getpid()}.{threading.get_ident()}.tmp"
        try:
            subprocess.run([*compiler, "-o", partial, *sources], check=True,
                           capture_output=True, text=True)
            os.replace(partial, path)
        finally:
            if os.path.exists(partial):
                os.remove(partial)
        return path
    raise OSError(f"no usable build directory among {_build_dirs()}")


def _library():
    """The loaded kernel library (built on first use), or None if unavailable."""
    global _library_state
    with _LOCK:
        if _library_state is None:
            try:
                library = ctypes.CDLL(_build())
            except (OSError, subprocess.CalledProcessError) as error:
                detail = getattr(error, "stderr", None) or str(error)
                log_event(_LOG, logging.WARNING, "native backend unavailable; simulations "
                          "run on the interpreter, traces on the Python generator",
                          error=detail.strip()[:500])
                _library_state = False
            else:
                pointer, count = ctypes.c_void_p, ctypes.c_int64
                library.repro_simulate.argtypes = [pointer, count, pointer, pointer, pointer,
                                                   count, count, pointer]
                library.repro_simulate.restype = ctypes.c_int
                library.repro_generate.argtypes = [pointer, count, pointer, count, pointer,
                                                   count, pointer, count, pointer, pointer,
                                                   pointer, pointer, count, count, pointer,
                                                   count]
                library.repro_generate.restype = ctypes.c_int
                _library_state = library
        return _library_state or None


def _plan(predictor) -> list[int] | None:
    """The kernel plan of a power-on predictor (layout in kernel.c), or None."""
    if type(predictor) in (AlwaysTakenPredictor, AlwaysNotTakenPredictor):
        return [5, int(type(predictor) is AlwaysTakenPredictor)]
    if type(predictor) is BimodalPredictor:
        return [0, predictor.entries.bit_length() - 1, predictor.hysteresis_sharing]
    if type(predictor) is GSharePredictor:
        return [1, predictor.log2_entries, predictor.history_length]
    if type(predictor) is PerceptronPredictor:
        # int16 weights; the dot product stays well inside an int.
        if predictor.weight_bits > 16 or predictor.history_length > 4096:
            return None
        return [3, predictor.log2_rows, predictor.history_length, predictor.weight_bits,
                predictor.threshold]
    if type(predictor) is GEHLPredictor:
        cfg = predictor.config
        values = (*predictor.history_lengths, predictor.threshold)
        if cfg.num_tables > 32 or cfg.counter_bits > 8 or any(type(v) is not int for v in values):
            return None
        return [4, cfg.num_tables, cfg.log2_entries, cfg.counter_bits, predictor.threshold,
                *predictor.history_lengths]
    composite = predictor if type(predictor) in _COMPOSITES else None
    tage = predictor.tage if composite is not None else predictor
    if type(tage) is not TAGEPredictor:
        return None
    cfg, ium, loop, sc, lsc = tage.config, None, None, None, None
    selectors, scope = [tage.bank_selector], RetireReadScope.ALL
    if composite is not None:
        ium, loop, sc, lsc = composite.ium, composite.loop, composite.sc, composite.lsc
        selectors += [None if part is None else part._core.bank_selector for part in (sc, lsc)]
        live = {id(s) for s in (*selectors, composite._shared_bank_selector) if s is not None}
        if composite.with_loop.value != -1 or len(live) > 1:
            return None
        scope = composite.retire_read_scope
    correctors = [part.config for part in (sc, lsc) if part is not None]
    if (cfg.num_tagged_tables > 32 or cfg.counter_bits > 8 or cfg.useful_bits > 8
            or cfg.path_history_bits > 63 or min(cfg.history_lengths) < 1
            or max(cfg.use_alt_on_na_bits, cfg.allocation_tick_bits) > 30
            or any(s is not None and (s.num_banks != 4 or s.recent_banks) for s in selectors)
            or (loop is not None and (type(loop) is not LoopPredictor or loop.ways > 16
                                      or max(loop.iteration_bits, loop.tag_bits) > 30))
            or (sc is not None and type(sc) is not StatisticalCorrector)
            or (lsc is not None and (type(lsc) is not LocalStatisticalCorrector
                                     or lsc.local_history.history_bits > 64))
            or any(len(c.history_lengths) > 16 or max(c.history_lengths) > 64
                   or c.counter_bits > 8 for c in correctors)):
        return None
    plan = [2, cfg.bimodal_log2_entries, cfg.bimodal_hysteresis_sharing, cfg.num_tagged_tables]
    for table in zip(cfg.table_log2_entries, cfg.tag_widths, cfg.history_lengths):
        plan += table
    plan += [cfg.counter_bits, cfg.useful_bits, cfg.max_allocations, cfg.use_alt_on_na_bits,
             cfg.allocation_tick_bits, cfg.path_history_bits,
             sum(bit for bit, s in zip((1, 2, 4), selectors) if s is not None),
             _SCOPES.index(scope)]
    plan += [0, 0] if ium is None else [("counter", "outcome").index(ium.mode) + 1, ium.capacity]
    plan += [0] * 6 if loop is None else [1, loop.entries, loop.ways, loop.iteration_bits,
                                          loop.tag_bits, loop.slim.capacity]
    for part in (sc, lsc):
        config = None if part is None else part.config
        plan += [0] if part is None else [len(config.history_lengths), *config.history_lengths,
                                          config.log2_entries, config.counter_bits,
                                          config.initial_threshold]
    if lsc is not None:
        plan += [lsc.local_history.entries, lsc.local_history.history_bits,
                 lsc.speculative_manager.capacity]
    return plan


class NativeBackend(Backend):
    """The whole staged simulation in C, one call per (spec, trace)."""

    name = "native"

    def __init__(self) -> None:
        #: spec -> (plan without the run header, predictor name), or None.
        self._plans: dict[PredictorSpec, tuple[list[int], str] | None] = {}

    def _plan_for(self, spec: PredictorSpec) -> tuple[list[int], str] | None:
        """The memoised (plan, predictor name) of ``spec``; None when declined."""
        try:
            return self._plans[spec]
        except KeyError:
            pass
        # A live part passed in the config may carry state from earlier
        # runs; the kernel always starts from power-on state.
        parts = (LoopPredictor, StatisticalCorrector, LocalStatisticalCorrector)
        try:
            live = any(isinstance(value, parts) for value in spec.config.values())
            predictor = None if live else spec.build()
        except Exception:  # noqa: BLE001 - the interpreter raises the canonical error
            predictor = None
        plan = None if predictor is None else _plan(predictor)
        entry = None if plan is None else (plan, predictor.name)
        if len(self._plans) >= 256:
            self._plans.clear()
        self._plans[spec] = entry
        return entry

    def available(self) -> bool:
        return _library() is not None

    def supports(self, spec, scenario, config) -> bool:
        return ("native" in backend_support(spec.kind) and self.available()
                and self._plan_for(spec) is not None)

    def bind(self, tasks: Sequence, scenario,
             config) -> list[Callable[[], SimulationResult]]:
        """One zero-argument kernel call per (spec, trace) pair, in task order.

        Every plan is resolved here, on the calling thread, so running a
        call builds no predictor and reads no memo: the calls share only
        the loaded library, and threads may run them side by side.
        """
        library, calls = _library(), []
        for spec, trace in tasks:
            entry = None if library is None else self._plan_for(spec)
            if entry is None:
                raise ValueError(f"spec {spec!r} is not supported by the native backend; "
                                 "schedulers must check supports() and fall back")
            calls.append(functools.partial(_simulate, library, spec, entry, trace, scenario,
                                           config))
        return calls

    def run_tasks(self, tasks: Sequence, scenario, config) -> list[SimulationResult]:
        return [call() for call in self.bind(tasks, scenario, config)]


def _simulate(library, spec: PredictorSpec, entry: tuple[list[int], str], trace, scenario,
              config) -> SimulationResult:
    """One ``repro_simulate`` call (see :meth:`NativeBackend.bind`)."""
    (family, *body), name = entry
    plan = np.array([family, "IABC".index(scenario.value), config.retire_delay,
                     config.execute_delay, *body], dtype=np.int64)
    columns = [np.ascontiguousarray(trace.pcs, dtype=np.int64),
               np.ascontiguousarray(trace.taken, dtype=np.bool_).view(np.uint8),
               np.ascontiguousarray(trace.preceding, dtype=np.int64)]
    out = np.zeros(10, dtype=np.int64)
    status = library.repro_simulate(plan.ctypes.data, len(plan),
                                    *(column.ctypes.data for column in columns),
                                    len(trace), trace.warmup_count, out.ctypes.data)
    if status:  # -2: out of memory; -1: a plan the kernel cannot parse
        raise (MemoryError if status == -2 else RuntimeError)(
            f"native kernel failed ({status}) on {spec!r}")
    mispredicted, branches, instructions, *accesses, overrides, warmup = out.tolist()
    return SimulationResult(
        trace.source_name or trace.name, name, branches, instructions, mispredicted,
        config.misprediction_penalty, AccessProfile(branches, mispredicted, branches, *accesses),
        scenario.label, overrides, trace.window, warmup)
