"""Execution-environment configuration for the run API.

Before this module existed every caller read ``REPRO_SUITE_*`` environment
variables itself (and each invented its own error handling).
:class:`RunnerConfig` is now the single place those knobs are parsed and
validated; everything else — experiment drivers, examples, benchmarks, the
``repro`` CLI — receives a config object.

Environment variables (read by :meth:`RunnerConfig.from_env`):

``REPRO_SUITE_WORKERS``
    Worker processes for suite execution.  A positive integer, or
    ``auto`` for ``os.cpu_count()``.  Default 1 (serial).
``REPRO_SUITE_CACHE``
    Directory for the on-disk result cache.  Unset/empty resolves the
    platform default (:func:`default_cache_dir` — ``$XDG_CACHE_HOME`` or
    ``~/.cache``, under ``repro-suite``): caching is **on by default**,
    made safe by the default size bound below.  ``off``/``none``/``0``
    disables caching entirely.
``REPRO_SUITE_CACHE_VERSION``
    Operator-controlled label mixed into every cache key, so a shared
    cache directory can be invalidated wholesale without deleting it.
``REPRO_SUITE_CACHE_MAX_MB``
    Size bound (megabytes) for the on-disk cache; least-recently-used
    entries are evicted on write to stay under it.  Unset/empty keeps
    the default (:data:`DEFAULT_CACHE_MAX_MB`); ``unbounded`` (or
    ``off``/``none``/``0``) removes the bound.
``REPRO_SUITE_AUTOSHARD``
    Branch-count threshold above which the runner automatically shards a
    resolved trace (bounded-warmup mode, deterministic length-derived
    shard count).  ``off`` disables auto-sharding; unset keeps the
    default (:data:`DEFAULT_AUTO_SHARD_BRANCHES`).
``REPRO_SUITE_BACKEND``
    Execution backend (:mod:`repro.backends`): ``interp``, ``numpy`` or
    ``native``.  ``interp`` pins the pure-Python reference; the others
    mean the default route (the rule is in
    :func:`repro.pipeline.parallel._route`).  A per-request ``backend``
    overrides this; the CLI ``--backend`` flag overrides both
    (env < request < CLI).
``REPRO_LOG`` / ``REPRO_LOG_JSON``
    Structured-logging level (``debug``/``info``/``warning``/``error``/
    ``critical``; default ``warning``) and JSON-lines mode for the
    ``repro`` logger (see :mod:`repro.obs.logs`).  The CLI's
    ``--log-level`` / ``--log-json`` flags override both.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Mapping

from repro.obs import ENV_LOG, ENV_LOG_JSON, parse_log_level
from repro.pipeline.parallel import SuiteCache

__all__ = [
    "DEFAULT_AUTO_SHARD_BRANCHES",
    "DEFAULT_CACHE_MAX_MB",
    "ENV_AUTOSHARD",
    "ENV_BACKEND",
    "ENV_CACHE",
    "ENV_CACHE_MAX_MB",
    "ENV_CACHE_VERSION",
    "ENV_WORKERS",
    "RunnerConfig",
    "default_cache_dir",
    "parse_auto_shard",
    "parse_backend",
    "parse_cache_max_mb",
    "parse_workers",
]

ENV_WORKERS = "REPRO_SUITE_WORKERS"
ENV_CACHE = "REPRO_SUITE_CACHE"
ENV_CACHE_VERSION = "REPRO_SUITE_CACHE_VERSION"
ENV_CACHE_MAX_MB = "REPRO_SUITE_CACHE_MAX_MB"
ENV_AUTOSHARD = "REPRO_SUITE_AUTOSHARD"
ENV_BACKEND = "REPRO_SUITE_BACKEND"

#: Traces at least this many branches long are sharded automatically.
#: 200k branches ≈ one CBP-scale trace slice; below that the warmup
#: replay overhead outweighs the fan-out.
DEFAULT_AUTO_SHARD_BRANCHES = 200_000

#: Default size bound for the default-on result cache.  Generous enough
#: for tens of thousands of pickled results, small enough that a shared
#: workstation never notices it.
DEFAULT_CACHE_MAX_MB = 512.0

#: ``REPRO_SUITE_CACHE`` values that disable caching outright.
_CACHE_OFF_TOKENS = frozenset({"off", "none", "0", "disabled"})

#: ``REPRO_SUITE_CACHE_MAX_MB`` values that remove the size bound.
_UNBOUNDED_TOKENS = frozenset({"unbounded", "off", "none", "0"})


def default_cache_dir(environ: Mapping[str, str] | None = None) -> str:
    """The platform default result-cache directory (platformdirs-style).

    ``$XDG_CACHE_HOME/repro-suite`` when set, else ``~/.cache/repro-suite``
    (with ``HOME`` taken from ``environ`` when provided, so tests and
    hermetic builds can redirect it without touching the process env).
    """
    env = os.environ if environ is None else environ
    base = (env.get("XDG_CACHE_HOME") or "").strip()
    if not base:
        home = (env.get("HOME") or "").strip() or os.path.expanduser("~")
        base = os.path.join(home, ".cache")
    return os.path.join(base, "repro-suite")


def parse_cache_max_mb(text: str, context: str = "cache size") -> float:
    """Parse a cache size bound in megabytes (a positive number)."""
    try:
        megabytes = float(text.strip())
    except ValueError:
        raise ValueError(f"{context} must be a positive number of MB, got {text!r}") from None
    if megabytes <= 0:
        raise ValueError(f"{context} must be positive, got {megabytes}")
    return megabytes


def parse_auto_shard(text: str, context: str = "auto-shard threshold") -> int | None:
    """Parse an auto-shard threshold: a positive branch count, or ``off`` (= None)."""
    value = text.strip()
    if value.lower() in ("off", "none", "0"):
        return None
    try:
        threshold = int(value)
    except ValueError:
        raise ValueError(
            f"{context} must be a positive branch count or 'off', got {text!r}"
        ) from None
    if threshold < 1:
        raise ValueError(f"{context} must be positive, got {threshold}")
    return threshold


def parse_backend(text: str, context: str = "backend") -> str:
    """Parse an execution-backend name (one of :data:`repro.backends.BACKENDS`)."""
    from repro.backends import BACKENDS

    value = text.strip().lower()
    if value not in BACKENDS:
        raise ValueError(f"{context} must be one of {list(BACKENDS)}, got {text!r}")
    return value


def parse_workers(text: str, context: str = "workers") -> int | None:
    """Parse a worker-count string: a positive integer, or ``auto`` (= None).

    The one implementation behind ``REPRO_SUITE_WORKERS``, the CLI's
    ``--workers`` and the examples' flags; ``context`` names the knob in
    the error message.
    """
    value = text.strip()
    if value.lower() == "auto":
        return None
    try:
        workers = int(value)
    except ValueError:
        raise ValueError(
            f"{context} must be a positive integer or 'auto', got {text!r}"
        ) from None
    if workers < 1:
        raise ValueError(f"{context} must be at least 1, got {workers}")
    return workers


@dataclass(frozen=True)
class RunnerConfig:
    """How suites execute: worker count and result-cache settings.

    Attributes
    ----------
    workers:
        Parallelism of one scheduling pass: the threads native kernel
        calls fan out over, and the worker processes interp tasks run
        on; ``None`` means ``os.cpu_count()``.  Default 1 (serial,
        in-process, no thread started).
    cache_dir:
        Directory for the per-(spec, trace, scenario, config) result
        cache; ``None`` disables caching.
    cache_version:
        Label mixed into every cache key (see
        :class:`~repro.pipeline.parallel.SuiteCache`).
    cache_max_mb:
        Size bound for the on-disk cache in megabytes (LRU eviction on
        write); ``None`` means unbounded.
    auto_shard_branches:
        Resolved traces at least this long are automatically split into
        bounded-warmup shards by the runner (the shard count is derived
        from the trace length alone, so results do not depend on the
        executing machine); ``None`` disables auto-sharding.  An explicit
        per-request :class:`~repro.traces.sharding.ShardingPolicy`
        always wins over this default.
    backend:
        Execution backend name (:mod:`repro.backends`).  ``interp`` pins
        the reference engine; any other name, like ``None``, means the
        default route (see :func:`repro.pipeline.parallel._route`).
        Results are bit-identical whichever engine runs them.
    backend_forced:
        When true the config's backend overrides even per-request
        ``backend`` fields — set by the CLI ``--backend`` flag, giving
        the documented env < request < CLI precedence.

    Direct construction keeps caching opt-in (``cache_dir=None``);
    :meth:`from_env` is where the default-on cache directory and size
    bound are resolved.
    """

    workers: int | None = 1
    cache_dir: str | None = None
    cache_version: str = ""
    cache_max_mb: float | None = None
    auto_shard_branches: int | None = DEFAULT_AUTO_SHARD_BRANCHES
    backend: str | None = None
    backend_forced: bool = False
    #: Logging defaults (see :mod:`repro.obs.logs`): ``None`` means
    #: "not configured here" — the CLI falls through to the env and the
    #: warning-level default.
    log_level: str | None = None
    log_json: bool | None = None

    def __post_init__(self) -> None:
        if self.log_level is not None:
            object.__setattr__(self, "log_level", parse_log_level(self.log_level))
        if self.backend is not None and not isinstance(self.backend, str):
            raise ValueError(f"backend must be a name or None, got {self.backend!r}")
        if self.backend is not None:
            object.__setattr__(self, "backend", parse_backend(self.backend))
        if self.workers is not None:
            if not isinstance(self.workers, int) or isinstance(self.workers, bool):
                raise ValueError(f"workers must be a positive int or None, got {self.workers!r}")
            if self.workers < 1:
                raise ValueError(f"workers must be at least 1, got {self.workers}")
        if self.cache_dir is not None and not self.cache_dir:
            object.__setattr__(self, "cache_dir", None)
        if not isinstance(self.cache_version, str):
            raise ValueError(f"cache_version must be a string, got {self.cache_version!r}")
        if self.cache_max_mb is not None:
            if not isinstance(self.cache_max_mb, (int, float)) or isinstance(
                self.cache_max_mb, bool
            ):
                raise ValueError(
                    f"cache_max_mb must be a positive number or None, got {self.cache_max_mb!r}"
                )
            if self.cache_max_mb <= 0:
                raise ValueError(f"cache_max_mb must be positive, got {self.cache_max_mb}")
        if self.auto_shard_branches is not None:
            if not isinstance(self.auto_shard_branches, int) or isinstance(
                self.auto_shard_branches, bool
            ):
                raise ValueError(
                    f"auto_shard_branches must be a positive int or None, "
                    f"got {self.auto_shard_branches!r}"
                )
            if self.auto_shard_branches < 1:
                raise ValueError(
                    f"auto_shard_branches must be positive, got {self.auto_shard_branches}"
                )

    @classmethod
    def from_env(cls, environ: Mapping[str, str] | None = None) -> "RunnerConfig":
        """Build a config from the ``REPRO_SUITE_*`` environment variables.

        Invalid values raise :class:`ValueError` naming the variable —
        a silently ignored typo in ``REPRO_SUITE_WORKERS=eihgt`` would
        otherwise run an overnight sweep serially.
        """
        env = os.environ if environ is None else environ
        raw = (env.get(ENV_WORKERS) or "").strip()
        workers = parse_workers(raw, context=ENV_WORKERS) if raw else 1
        raw_cache = (env.get(ENV_CACHE) or "").strip()
        if not raw_cache:
            cache_dir = default_cache_dir(env)  # default-on, size-bounded below
        elif raw_cache.lower() in _CACHE_OFF_TOKENS:
            cache_dir = None
        else:
            cache_dir = raw_cache
        raw_max = (env.get(ENV_CACHE_MAX_MB) or "").strip()
        if not raw_max:
            cache_max_mb = DEFAULT_CACHE_MAX_MB
        elif raw_max.lower() in _UNBOUNDED_TOKENS:
            cache_max_mb = None
        else:
            cache_max_mb = parse_cache_max_mb(raw_max, context=ENV_CACHE_MAX_MB)
        raw_shard = (env.get(ENV_AUTOSHARD) or "").strip()
        auto_shard = (
            parse_auto_shard(raw_shard, context=ENV_AUTOSHARD)
            if raw_shard
            else DEFAULT_AUTO_SHARD_BRANCHES
        )
        raw_backend = (env.get(ENV_BACKEND) or "").strip()
        backend = parse_backend(raw_backend, context=ENV_BACKEND) if raw_backend else None
        try:
            log_level = parse_log_level(env.get(ENV_LOG))
        except ValueError as error:
            raise ValueError(f"{ENV_LOG}: {error}") from None
        raw_log_json = (env.get(ENV_LOG_JSON) or "").strip().lower()
        log_json = raw_log_json in {"1", "true", "yes", "on"} if raw_log_json else None
        return cls(
            workers=workers,
            cache_dir=cache_dir,
            cache_version=(env.get(ENV_CACHE_VERSION) or "").strip(),
            cache_max_mb=cache_max_mb,
            auto_shard_branches=auto_shard,
            backend=backend,
            log_level=log_level,
            log_json=log_json,
        )

    @property
    def cache_max_bytes(self) -> int | None:
        """The megabyte bound converted for :class:`SuiteCache`."""
        if self.cache_max_mb is None:
            return None
        return int(self.cache_max_mb * 1024 * 1024)

    def make_cache(self) -> SuiteCache | None:
        """The configured :class:`SuiteCache`, or ``None`` when disabled."""
        if not self.cache_dir:
            return None
        return SuiteCache(
            self.cache_dir,
            cache_version=self.cache_version,
            max_bytes=self.cache_max_bytes,
        )
