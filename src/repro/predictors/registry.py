"""The predictor registry: names + config dicts → predictor factories.

Experiments, benchmarks, examples and the runner's worker pool all need
to describe *which* predictor to build without holding a live (heavily
stateful, numpy-backed) predictor object.  A :class:`PredictorSpec` is
that description: a registered ``kind`` string plus a configuration dict
of constructor keyword arguments.  Specs are small, picklable and
hashable, so they can cross process boundaries (pool workers receive
specs, not predictors) and key result caches.

Round trip::

    spec = PredictorSpec("gshare", {"log2_entries": 14})
    predictor = spec.build()          # or registry.create("gshare", log2_entries=14)
    assert spec_of(predictor) == spec # every built predictor carries its spec

Every predictor family in :mod:`repro.predictors` and :mod:`repro.core`
is registered here, including the Figure 9 power-of-two scaled variants
(``scaled-tage`` / ``scaled-tage-lsc``) and the bank-interleaved
organisations of Sections 4.3 and 7 (via the ``interleaved`` config key
on the composed predictors).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Mapping

from repro.predictors.base import Predictor

__all__ = [
    "PredictorSpec",
    "available",
    "backend_support",
    "create",
    "describe",
    "factory",
    "register",
    "spec_of",
]

#: kind → factory taking the spec's config dict as keyword arguments.
_REGISTRY: dict[str, Callable[..., Predictor]] = {}
#: kind → one-line description shown by :func:`describe`.
_DESCRIPTIONS: dict[str, str] = {}
#: kind → names of execution backends with a kernel for it.  The
#: staged interpreter supports everything, so "interp" is always present;
#: a backend named here additionally config-checks the spec itself (see
#: e.g. :meth:`repro.backends.native.NativeBackend.supports`).
_BACKEND_SUPPORT: dict[str, frozenset[str]] = {}


def _freeze(value: Any) -> Any:
    """Recursively convert lists/dicts to hashable tuples (for spec hashing)."""
    if isinstance(value, dict):
        return tuple(sorted((key, _freeze(item)) for key, item in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(item) for item in value)
    return value


def _require_kind(kind: str) -> None:
    """Raise a uniform KeyError when ``kind`` is not registered."""
    if kind not in _REGISTRY:
        raise KeyError(f"unknown predictor kind {kind!r}; registered kinds: {available()}")


@dataclass(frozen=True, slots=True)
class PredictorSpec:
    """A serializable description of one predictor configuration.

    Attributes
    ----------
    kind:
        A name registered through :func:`register` (see :func:`available`).
    config:
        Keyword arguments passed to the registered factory.  Stored
        internally in a frozen, hashable form so specs can key caches and
        dictionaries.
    """

    kind: str
    _config: tuple = field(default=())
    _raw: dict | None = field(default=None, compare=False, repr=False)

    def __init__(self, kind: str, config: Mapping[str, Any] | None = None) -> None:
        object.__setattr__(self, "kind", kind)
        raw = dict(config or {})
        object.__setattr__(self, "_config", _freeze(raw))
        # The caller's values verbatim: equality and hashing go through the
        # frozen form, but factories must receive exactly what was supplied
        # (nested dicts/lists included).  An empty config keeps no dict.
        object.__setattr__(self, "_raw", raw or None)

    @property
    def config(self) -> dict[str, Any]:
        """The configuration as a plain keyword-argument dict."""
        if self._raw is not None:
            return dict(self._raw)
        return {key: value for key, value in self._config}

    def build(self) -> Predictor:
        """Build a new predictor from this spec (and tag it with the spec)."""
        _require_kind(self.kind)
        predictor = _REGISTRY[self.kind](**self.config)
        predictor.spec = self
        return predictor

    def cache_key(self) -> str:
        """A stable string identifying this spec (used by result caches)."""
        try:
            config_text = json.dumps(self.config, sort_keys=True, default=repr)
        except TypeError:  # pragma: no cover - json with default=repr rarely fails
            config_text = repr(self._config)
        return f"{self.kind}:{config_text}"

    def __repr__(self) -> str:
        return f"PredictorSpec({self.kind!r}, {self.config!r})"


def register(
    kind: str,
    factory: Callable[..., Predictor] | None = None,
    *,
    description: str = "",
    backends: tuple[str, ...] = (),
):
    """Register a predictor factory under ``kind``.

    Usable directly (``register("gshare", GSharePredictor)``) or as a
    decorator on a factory function.  Registering an existing kind
    replaces it (useful for tests and user extensions) — including its
    backend capability tags, so a replacement factory is never executed
    by a kernel written for the original.

    ``backends`` names the execution backends (beyond the always-capable
    staged interpreter) that ship a kernel for this kind; see
    :func:`backend_support`.
    """

    def _register(func: Callable[..., Predictor]) -> Callable[..., Predictor]:
        _REGISTRY[kind] = func
        doc = (func.__doc__ or "").strip()
        _DESCRIPTIONS[kind] = description or (doc.splitlines()[0] if doc else "")
        _BACKEND_SUPPORT[kind] = frozenset(backends) | {"interp"}
        return func

    if factory is not None:
        return _register(factory)
    return _register


def available() -> list[str]:
    """Sorted names of every registered predictor kind."""
    return sorted(_REGISTRY)


def describe() -> Iterator[tuple[str, str]]:
    """Yield ``(kind, one-line description)`` for every registered kind."""
    for kind in available():
        yield kind, _DESCRIPTIONS.get(kind, "")


def backend_support(kind: str) -> frozenset[str]:
    """Names of the execution backends with a kernel for ``kind``.

    Always contains ``"interp"`` for registered kinds (the staged engine
    runs everything).  Unknown kinds return an empty set rather than
    raising: backends use this as a capability probe, and the scheduler's
    interp fallback will produce the canonical unknown-kind error.
    """
    return _BACKEND_SUPPORT.get(kind, frozenset())


def create(kind: str, **config: Any) -> Predictor:
    """Build a predictor by registered name, e.g. ``create("gshare", log2_entries=14)``."""
    return PredictorSpec(kind, config).build()


def factory(kind: str, **config: Any) -> Callable[[], Predictor]:
    """A zero-argument factory for ``kind``: ``PredictorSpec(kind, config).build``.

    The kind is validated eagerly so that a typo fails at the call site,
    not where the factory is first called.
    """
    _require_kind(kind)
    return PredictorSpec(kind, config).build


def spec_of(predictor: Predictor) -> PredictorSpec:
    """Return the spec a registry-built predictor was created from."""
    spec = getattr(predictor, "spec", None)
    if spec is None:
        raise ValueError(
            f"{predictor.name!r} was not built through the registry; "
            "construct it with repro.predictors.registry.create()/PredictorSpec.build()"
        )
    return spec


# ---------------------------------------------------------------------------
# Built-in registrations: every predictor family of the reproduction.
# ---------------------------------------------------------------------------


@register("always-taken", description="static taken baseline, zero storage",
          backends=("native",))
def _always_taken() -> Predictor:
    from repro.predictors.static import AlwaysTakenPredictor

    return AlwaysTakenPredictor()


@register("always-not-taken", description="static not-taken baseline, zero storage",
          backends=("native",))
def _always_not_taken() -> Predictor:
    from repro.predictors.static import AlwaysNotTakenPredictor

    return AlwaysNotTakenPredictor()


@register(
    "bimodal",
    description="PC-indexed 2-bit counters with shared hysteresis",
    backends=("numpy", "native"),
)
def _bimodal(**config: Any) -> Predictor:
    from repro.predictors.bimodal import BimodalPredictor

    return BimodalPredictor(**config)


@register(
    "gshare",
    description="single 2-bit counter table, PC xor global history",
    backends=("numpy", "native"),
)
def _gshare(**config: Any) -> Predictor:
    from repro.predictors.gshare import GSharePredictor

    return GSharePredictor(**config)


@register(
    "perceptron",
    description="the original neural predictor (Jimenez & Lin)",
    backends=("native",),
)
def _perceptron(**config: Any) -> Predictor:
    from repro.predictors.perceptron import PerceptronPredictor

    return PerceptronPredictor(**config)


@register(
    "gehl",
    description="GEometric History Length predictor (Section 4 baseline)",
    backends=("native",),
)
def _gehl(**config: Any) -> Predictor:
    from repro.predictors.gehl import GEHLConfig, GEHLPredictor

    if config:
        return GEHLPredictor(GEHLConfig(**config))
    return GEHLPredictor()


@register("snap", description="scaled piecewise-linear neural (OH-SNAP stand-in)")
def _snap(**config: Any) -> Predictor:
    from repro.predictors.snap import SNAPPredictor

    return SNAPPredictor(**config)


@register("ftl", description="fused global+local GEHL (FTL++ stand-in)")
def _ftl(**config: Any) -> Predictor:
    from repro.predictors.ftl import FTLConfig, FTLPredictor

    if config:
        return FTLPredictor(FTLConfig(**config))
    return FTLPredictor()


@register(
    "tage",
    description="the reference TAGE predictor (Section 3)",
    backends=("native",),
)
def _tage(**config: Any) -> Predictor:
    from repro.core.config import TAGEConfig
    from repro.core.tage import TAGEPredictor

    if not config:
        return TAGEPredictor()
    if "config" in config:
        extra = sorted(set(config) - {"config"})
        if extra:
            raise ValueError(
                f"'tage' spec mixes an explicit config object with generate "
                f"keys {extra}; pass one or the other"
            )
        return TAGEPredictor(config["config"])
    return TAGEPredictor(TAGEConfig.generate(**config))


@register(
    "scaled-tage",
    description="reference TAGE scaled by 2**log2_factor (Figure 9)",
    backends=("native",),
)
def _scaled_tage(log2_factor: int = 0) -> Predictor:
    from repro.analysis.sweep import scaled_tage

    return scaled_tage(log2_factor)


@register(
    "augmented-tage",
    description="TAGE plus any subset of the side predictors",
    backends=("native",),
)
def _augmented_tage(interleaved: bool = False, **config: Any) -> Predictor:
    from repro.core.augmented import AugmentedTAGE

    predictor = AugmentedTAGE(**config)
    if interleaved:
        predictor.enable_bank_interleaving()
    return predictor


@register("l-tage", description="TAGE + loop predictor (the CBP-2 winner)", backends=("native",))
def _l_tage(**config: Any) -> Predictor:
    from repro.core.composed import LTAGEPredictor

    return LTAGEPredictor(**config)


@register(
    "isl-tage",
    description="TAGE + IUM + loop + global SC (the CBP-3 winner)",
    backends=("native",),
)
def _isl_tage(interleaved: bool = False, **config: Any) -> Predictor:
    from repro.core.composed import ISLTAGEPredictor

    predictor = ISLTAGEPredictor(**config)
    if interleaved:
        predictor.enable_bank_interleaving()
    return predictor


@register(
    "tage-lsc",
    description="TAGE + IUM + local SC (the paper's proposal)",
    backends=("native",),
)
def _tage_lsc(interleaved: bool = False, **config: Any) -> Predictor:
    from repro.core.composed import TAGELSCPredictor

    predictor = TAGELSCPredictor(**config)
    if interleaved:
        predictor.enable_bank_interleaving()
    return predictor


@register(
    "scaled-tage-lsc",
    description="TAGE-LSC with every component scaled by 2**log2_factor (Figure 9)",
    backends=("native",),
)
def _scaled_tage_lsc(log2_factor: int = 0) -> Predictor:
    from repro.analysis.sweep import scaled_tage_lsc

    return scaled_tage_lsc(log2_factor)
