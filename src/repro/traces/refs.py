"""Trace references: strings that name traces, resolvable to :class:`Trace` objects.

The run API (:mod:`repro.api`) describes simulations as pure data; a
:class:`~repro.api.request.RunRequest` therefore never embeds a raw branch
stream.  Instead it carries a *trace reference* — a short string in one of
three schemes — and the resolver in this module turns it back into the
deterministic trace(s) it names:

``suite:<NAME>[?branches=..&seed=..]``
    One named trace of the CBP-like benchmark suite (``suite:INT01``), a
    whole category (``suite:MM``) or the full 40-trace set (``suite:all``).
    Category and ``all`` references also accept ``count`` (traces per
    category, default 8).

``hard:<NAME>`` / ``hard:all``
    The Section 2.2 "high misprediction rate" traces only; ``<NAME>`` must
    be one of the seven designated hard traces.

``synthetic:<generator>[?seed=..&length=..&<params>]``
    A freshly generated single-behaviour (or ``mixed``) workload built from
    the behaviour classes in :mod:`repro.traces.synthetic`; see
    :data:`GENERATORS`.

Any reference that names exactly **one** trace may additionally carry a
*shard fragment* — ``#shard=i/n[&warmup=K]`` — selecting the ``i``-th of
``n`` contiguous measured windows of that trace, preceded by a warmup
prefix of up to ``K`` branches (default
:data:`~repro.traces.sharding.DEFAULT_WARMUP`) that the engine replays
without accounting.  ``suite:INT01#shard=0/4&warmup=2000`` is therefore a
first-class trace reference: it travels through run requests and the HTTP
service, and :func:`resolve_trace_ref` cuts the deterministic slice (see
:mod:`repro.traces.sharding` for the planner).

Resolution is deterministic: the same reference always yields bit-identical
traces, which is what lets references key result caches and travel through
JSON run requests.  Every resolved trace therefore carries a cheap
``identity`` — a hash of :data:`GENERATOR_VERSION`, the canonical reference
and the trace name — that stands in for a content digest of its records;
:func:`trace_handles` derives the same identities (and shard windows) from
the traces' names and lengths alone, without generating anything.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.traces.sharding import DEFAULT_WARMUP, plan_shards, shard_handle, shard_trace
from repro.traces.suite import CATEGORIES, HARD_TRACES, generate_trace
from repro.traces.synthetic import (
    BiasedBranch,
    GloballyCorrelatedBranch,
    LocalPatternBranch,
    LoopBranch,
    PointerChaseBranch,
    WorkloadSpec,
    generate_workload,
)
from repro.traces.trace import Trace, TraceHandle, derive_identity

__all__ = [
    "GENERATORS",
    "GENERATOR_VERSION",
    "TRACE_REF_SCHEMES",
    "TraceRef",
    "parse_trace_ref",
    "resolve_trace_ref",
    "trace_handles",
    "trace_ref_catalogue",
]

#: Version of the trace generators' output.  A resolved trace's identity,
#: and with it every result-cache key and trace manifest, is derived from
#: this number instead of the generated records, so it must be bumped
#: whenever any generator (suite, hard or synthetic) can emit a different
#: branch stream for the same reference.  ``tests/traces/
#: test_generator_pins.py`` pins the output and fails until it is.
GENERATOR_VERSION = 1

TRACE_REF_SCHEMES: tuple[str, ...] = ("suite", "hard", "synthetic")

_SUITE_DEFAULTS = {"branches": (int, 50_000), "seed": (int, 2011)}
_SYNTH_DEFAULTS = {"length": (int, 5_000), "seed": (int, 2011)}


def _biased_spec(p: dict) -> WorkloadSpec:
    return WorkloadSpec().add(BiasedBranch(0x1000, p["bias"]))


def _loop_spec(p: dict) -> WorkloadSpec:
    return WorkloadSpec().add(
        LoopBranch(
            0x1000,
            iterations=p["iterations"],
            body_branches=p["body_branches"],
            body_bias=p["body_bias"],
            iteration_jitter=p["jitter"],
        )
    )


def _local_pattern_spec(p: dict) -> WorkloadSpec:
    rng = random.Random(p["seed"] ^ 0x5BD1E995)
    pattern = tuple(rng.random() < 0.5 for _ in range(p["period"]))
    spec = WorkloadSpec()
    spec.add(LocalPatternBranch(0x1000, pattern, pattern_count=p["pattern_count"]), weight=2.0)
    # Interleaved noise branches scramble the global history, which is what
    # makes the pattern a *local*-history phenomenon (Section 6).
    spec.add(BiasedBranch(0x2000, 0.6), weight=1.0)
    return spec


def _pointer_chase_spec(p: dict) -> WorkloadSpec:
    return WorkloadSpec().add(
        PointerChaseBranch(
            0x4_000_000,
            static_branches=p["static_branches"],
            bias_low=p["bias_low"],
            bias_high=p["bias_high"],
        )
    )


def _correlated_spec(p: dict) -> WorkloadSpec:
    spec = WorkloadSpec()
    spec.add(BiasedBranch(0x1000, p["source_bias"]), weight=1.0)
    for copy in range(p["copies"]):
        spec.add(
            GloballyCorrelatedBranch(
                0x2000 + 0x100 * copy, source_pc=0x1000,
                invert=copy % 2 == 1, noise=p["noise"],
            ),
            weight=2.0,
        )
    return spec


def _mixed_spec(p: dict) -> WorkloadSpec:
    spec = WorkloadSpec()
    spec.add(LoopBranch(0x1000, iterations=12, body_branches=2, body_bias=0.85), weight=2.0)
    spec.add(BiasedBranch(0x2000, 0.92), weight=3.0)
    spec.add(BiasedBranch(0x3000, 0.65), weight=2.0)
    spec.add(GloballyCorrelatedBranch(0x4000, source_pc=0x3000), weight=2.0)
    spec.add(LocalPatternBranch(0x5000, (True, True, False, True, False, False)), weight=2.0)
    return spec


#: generator name -> (parameter schema ``{name: (type, default)}``, builder,
#: one-line description).  The common ``length``/``seed`` parameters apply
#: to every generator.
GENERATORS: dict = {
    "biased": (
        {"bias": (float, 0.7)},
        _biased_spec,
        "one i.i.d. branch with a fixed taken probability (SC fodder)",
    ),
    "loop": (
        {
            "iterations": (int, 10),
            "body_branches": (int, 0),
            "body_bias": (float, 0.7),
            "jitter": (int, 0),
        },
        _loop_spec,
        "a loop-closing branch, optionally with an erratic body",
    ),
    "local-pattern": (
        {"period": (int, 8), "pattern_count": (int, 1)},
        _local_pattern_spec,
        "a branch repeating a fixed local-history pattern",
    ),
    "pointer-chase": (
        {
            "static_branches": (int, 256),
            "bias_low": (float, 0.6),
            "bias_high": (float, 0.95),
        },
        _pointer_chase_spec,
        "a large static footprint visited in data-dependent order",
    ),
    "correlated": (
        {"copies": (int, 3), "source_bias": (float, 0.6), "noise": (float, 0.0)},
        _correlated_spec,
        "branches copying an earlier weakly-biased source branch",
    ),
    "mixed": (
        {},
        _mixed_spec,
        "one representative of every behaviour class",
    ),
}


@dataclass(frozen=True)
class TraceRef:
    """A parsed, validated trace reference.

    ``params`` holds every parameter with defaults filled in;
    ``canonical`` is the normalised string form (defaults dropped, keys
    sorted), which doubles as the trace name for synthetic references.
    ``shard`` is the ``(index, count)`` of the shard fragment (``None``
    for whole-trace references) and ``shard_warmup`` its warmup depth.
    """

    scheme: str
    name: str
    params: tuple[tuple[str, int | float], ...]
    canonical: str
    shard: tuple[int, int] | None = None
    shard_warmup: int = 0

    @property
    def base(self) -> str:
        """The canonical form without the shard fragment."""
        return self.canonical.partition("#")[0]

    def param(self, key: str) -> int | float:
        """Return one resolved parameter value."""
        for name, value in self.params:
            if name == key:
                return value
        raise KeyError(key)

    @property
    def trace_count(self) -> int:
        """How many concrete traces this reference expands to."""
        if self.scheme == "hard":
            return len(HARD_TRACES) if self.name == "all" else 1
        if self.scheme == "suite":
            if self.name == "all":
                return len(CATEGORIES) * int(self.param("count"))
            if self.name in CATEGORIES:
                return int(self.param("count"))
        return 1

    @property
    def branch_estimate(self) -> int:
        """Estimated total branches resolving this reference will simulate.

        Exact for suite/hard/synthetic references (their length is a
        parameter); shard fragments count their measured window plus the
        warmup replay.  Used by the service's priority lanes to size
        jobs without resolving any traces.
        """
        if self.scheme in ("suite", "hard"):
            branches = int(self.param("branches"))
        else:
            branches = int(self.param("length"))
        if self.shard is not None:
            _, count = self.shard
            branches = -(-branches // count) + self.shard_warmup
        return branches * self.trace_count


def _format_value(value: int | float) -> str:
    return repr(value) if isinstance(value, float) else str(value)


def _parse_params(query: str, schema: dict, ref: str) -> dict:
    """Parse ``k=v&k=v`` against ``schema``, filling defaults, or raise."""
    values = {key: default for key, (_, default) in schema.items()}
    if not query:
        return values
    seen: set[str] = set()
    for part in query.split("&"):
        key, sep, raw = part.partition("=")
        if not sep or not key or not raw:
            raise ValueError(f"trace ref {ref!r}: malformed parameter {part!r} (expected k=v)")
        if key not in schema:
            raise ValueError(
                f"trace ref {ref!r}: unknown parameter {key!r}; "
                f"valid: {sorted(schema)}"
            )
        if key in seen:
            raise ValueError(f"trace ref {ref!r}: duplicate parameter {key!r}")
        seen.add(key)
        kind = schema[key][0]
        try:
            values[key] = kind(raw)
        except ValueError:
            raise ValueError(
                f"trace ref {ref!r}: parameter {key!r} must be {kind.__name__}, got {raw!r}"
            ) from None
    return values


def _parse_shard_fragment(fragment: str, ref: str) -> tuple[tuple[int, int], int]:
    """Parse ``shard=i/n[&warmup=K]`` into ``((i, n), warmup)``, or raise."""
    shard: tuple[int, int] | None = None
    warmup = DEFAULT_WARMUP
    seen: set[str] = set()
    for part in fragment.split("&") if fragment else []:
        key, sep, raw = part.partition("=")
        if not sep or not key or not raw:
            raise ValueError(f"trace ref {ref!r}: malformed shard parameter {part!r}")
        if key in seen:
            raise ValueError(f"trace ref {ref!r}: duplicate shard parameter {key!r}")
        seen.add(key)
        if key == "shard":
            index_text, slash, count_text = raw.partition("/")
            try:
                index, count = int(index_text), int(count_text)
            except ValueError:
                slash = ""
            if not slash:
                raise ValueError(
                    f"trace ref {ref!r}: shard must be 'i/n' (e.g. #shard=0/4), got {raw!r}"
                )
            if count < 1 or not 0 <= index < count:
                raise ValueError(
                    f"trace ref {ref!r}: shard index must satisfy 0 <= i < n, got {raw!r}"
                )
            shard = (index, count)
        elif key == "warmup":
            try:
                warmup = int(raw)
            except ValueError:
                raise ValueError(
                    f"trace ref {ref!r}: warmup must be an integer, got {raw!r}"
                ) from None
            if warmup < 0:
                raise ValueError(f"trace ref {ref!r}: warmup must be non-negative, got {warmup}")
        else:
            raise ValueError(
                f"trace ref {ref!r}: unknown shard parameter {key!r}; valid: shard, warmup"
            )
    if shard is None:
        raise ValueError(f"trace ref {ref!r}: shard fragment needs shard=i/n (e.g. #shard=0/4)")
    return shard, warmup


def parse_trace_ref(ref: str) -> TraceRef:
    """Parse and validate a trace reference string.

    Raises :class:`ValueError` on unknown schemes, names, generators or
    parameters — never on resolvable references, so parsing doubles as the
    cheap validation step for run requests.
    """
    if not isinstance(ref, str) or not ref:
        raise ValueError(f"trace ref must be a non-empty string, got {ref!r}")
    base, fragment_sep, fragment = ref.partition("#")
    shard: tuple[int, int] | None = None
    shard_warmup = 0
    if fragment_sep:
        if not base:
            raise ValueError(f"trace ref {ref!r} names no trace before the shard fragment")
        shard, shard_warmup = _parse_shard_fragment(fragment, ref)
    scheme, sep, rest = base.partition(":")
    if not sep or scheme not in TRACE_REF_SCHEMES:
        raise ValueError(
            f"trace ref {ref!r} must start with one of "
            f"{', '.join(s + ':' for s in TRACE_REF_SCHEMES)}"
        )
    name, _, query = rest.partition("?")
    if not name:
        raise ValueError(f"trace ref {ref!r} names no trace (e.g. 'suite:INT01')")

    if scheme == "suite":
        schema = dict(_SUITE_DEFAULTS)
        if name == "all" or name in CATEGORIES:
            schema["count"] = (int, 8)
        else:
            category = name.rstrip("0123456789")
            if category not in CATEGORIES or category == name:
                raise ValueError(
                    f"trace ref {ref!r}: unknown suite trace {name!r} "
                    f"(expected all, a category {list(CATEGORIES)} or e.g. 'INT01')"
                )
    elif scheme == "hard":
        # hard:all always names exactly the seven designated traces, so no
        # count parameter exists on this scheme.
        schema = dict(_SUITE_DEFAULTS)
        if name != "all" and name not in HARD_TRACES:
            raise ValueError(
                f"trace ref {ref!r}: {name!r} is not a designated hard trace; "
                f"valid: all, {', '.join(sorted(HARD_TRACES))}"
            )
    else:
        if name not in GENERATORS:
            raise ValueError(
                f"trace ref {ref!r}: unknown generator {name!r}; "
                f"valid: {sorted(GENERATORS)}"
            )
        schema = dict(_SYNTH_DEFAULTS)
        schema.update(GENERATORS[name][0])

    params = _parse_params(query, schema, ref)
    non_default = {
        key: value for key, value in params.items() if value != schema[key][1]
    }
    canonical = f"{scheme}:{name}"
    if non_default:
        canonical += "?" + "&".join(
            f"{key}={_format_value(non_default[key])}" for key in sorted(non_default)
        )
    if shard is not None:
        if name == "all" or (scheme == "suite" and name in CATEGORIES):
            raise ValueError(
                f"trace ref {ref!r}: only single-trace references can be sharded "
                f"({base!r} names several traces)"
            )
        canonical += f"#shard={shard[0]}/{shard[1]}"
        if shard_warmup != DEFAULT_WARMUP:
            canonical += f"&warmup={shard_warmup}"
    return TraceRef(
        scheme=scheme,
        name=name,
        params=tuple(sorted(params.items())),
        canonical=canonical,
        shard=shard,
        shard_warmup=shard_warmup if shard is not None else 0,
    )


def _suite_names(ref: TraceRef) -> list[str]:
    """Expand a suite/hard reference into concrete trace names."""
    if ref.scheme == "hard":
        return sorted(HARD_TRACES) if ref.name == "all" else [ref.name]
    if ref.name == "all":
        count = int(ref.param("count"))
        return [f"{cat}{i:02d}" for cat in CATEGORIES for i in range(1, count + 1)]
    if ref.name in CATEGORIES:
        count = int(ref.param("count"))
        return [f"{ref.name}{i:02d}" for i in range(1, count + 1)]
    return [ref.name]


def _identity(base_ref: str, name: str) -> str:
    return derive_identity("ref", GENERATOR_VERSION, base_ref, name)


def resolve_trace_ref(ref: str | TraceRef) -> list[Trace]:
    """Resolve a trace reference to the (deterministic) traces it names.

    A shard fragment resolves the *whole* base trace first, then cuts the
    warmup+measure slice the fragment selects, so every shard of a plan
    sees exactly the records an unsharded run would.  Every returned
    trace carries its identity (see :func:`trace_handles`).
    """
    parsed = parse_trace_ref(ref) if isinstance(ref, str) else ref
    if parsed.scheme in ("suite", "hard"):
        branches = int(parsed.param("branches"))
        seed = int(parsed.param("seed"))
        traces = [
            generate_trace(name, branches_per_trace=branches, seed=seed)
            for name in _suite_names(parsed)
        ]
    else:
        _, builder, _ = GENERATORS[parsed.name]
        params = dict(parsed.params)
        spec = builder(params)
        traces = [
            generate_workload(
                spec,
                branch_count=int(params["length"]),
                seed=int(params["seed"]),
                name=parsed.base,
                category="SYNTHETIC",
            )
        ]
    for trace in traces:
        trace.identity = _identity(parsed.base, trace.name)
    if parsed.shard is None:
        return traces
    index, count = parsed.shard
    (trace,) = traces  # parse_trace_ref guarantees single-trace refs here
    window = plan_shards(len(trace), count, parsed.shard_warmup)[index]
    return [shard_trace(trace, window)]


def trace_handles(ref: str | TraceRef, lengths: list[tuple[str, int]]) -> list[TraceHandle]:
    """The handles :func:`resolve_trace_ref` would yield, without generating.

    ``lengths`` lists ``(name, length)`` of every trace the reference's
    *base* (its shard fragment dropped) resolves to, in resolution order;
    generators overshoot the requested length, so these must be the
    actual lengths of earlier resolutions.  A shard fragment is planned
    against the base length exactly as :func:`resolve_trace_ref` plans it.
    Raises :class:`ValueError` if the names or lengths cannot be the
    reference's (wrong names, or shorter than requested).
    """
    parsed = parse_trace_ref(ref) if isinstance(ref, str) else ref
    if parsed.scheme in ("suite", "hard"):
        names, requested = _suite_names(parsed), int(parsed.param("branches"))
    else:
        names, requested = [parsed.base], int(parsed.param("length"))
    if [name for name, _ in lengths] != names or any(n < requested for _, n in lengths):
        raise ValueError(f"trace lengths {lengths!r} do not fit trace ref {parsed.canonical!r}")
    handles = [TraceHandle(name, length, _identity(parsed.base, name)) for name, length in lengths]
    if parsed.shard is None:
        return handles
    index, count = parsed.shard
    (handle,) = handles
    return [shard_handle(handle, plan_shards(handle.length, count, parsed.shard_warmup)[index])]


def trace_ref_catalogue() -> list[tuple[str, str]]:
    """``(pattern, description)`` rows describing every reference form.

    Backs ``repro list traces``.
    """
    rows = [
        ("suite:all[?branches=N&seed=S&count=K]", "the full CBP-like suite (count traces per category)"),
        ("suite:<CATEGORY>", f"one category: {', '.join(CATEGORIES)}"),
        ("suite:<NAME>", "one named trace, e.g. suite:INT01"),
        ("hard:all", "the seven Section 2.2 high-misprediction traces"),
        ("hard:<NAME>", f"one of: {', '.join(sorted(HARD_TRACES))}"),
        (
            "<single-trace ref>#shard=i/n[&warmup=K]",
            f"shard i of n of one trace, warmed up over K branches (default {DEFAULT_WARMUP})",
        ),
    ]
    for name, (schema, _, description) in sorted(GENERATORS.items()):
        params = ["length=N", "seed=S"] + [
            f"{key}={_format_value(default)}" for key, (_, default) in schema.items()
        ]
        rows.append((f"synthetic:{name}[?{'&'.join(params)}]", description))
    return rows
