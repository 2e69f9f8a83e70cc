"""The serializable run request: one simulation, described as pure data.

A :class:`RunRequest` bundles everything needed to reproduce one suite run
— *which predictor* (a registry :class:`~repro.predictors.registry.PredictorSpec`),
*which traces* (a :mod:`trace reference <repro.traces.refs>` string, never a
raw branch stream), *which update scenario* and *which pipeline model* —
and round-trips losslessly through JSON::

    req = RunRequest("tage-lsc", "hard:all?branches=5000", scenario="A")
    clone = RunRequest.from_dict(json.loads(json.dumps(req.to_dict())))
    assert clone == req          # and both produce byte-identical results

Because requests are frozen, hashable and pure data, they can be stored in
files, shipped over the network, queued, diffed and used as cache keys —
the contract behind the ``repro`` CLI and any future service front-end.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from repro.pipeline.config import PipelineConfig
from repro.pipeline.scenarios import UpdateScenario
from repro.predictors.base import Predictor
from repro.predictors.registry import PredictorSpec, spec_of
from repro.traces.refs import parse_trace_ref
from repro.traces.sharding import ShardingPolicy

__all__ = [
    "REQUEST_SCHEMA_VERSION",
    "RunRequest",
    "coerce_scenario",
    "validate_shard_coverage",
]

#: Version of the ``to_dict``/``from_dict`` payload layout.
REQUEST_SCHEMA_VERSION = 1

_PAYLOAD_KEYS = {"version", "predictor", "trace", "scenario", "pipeline", "sharding", "backend"}


def coerce_scenario(value: Any) -> UpdateScenario:
    """Turn ``"A"``, ``"[A]"``, ``"REREAD_AT_RETIRE"`` or an enum into a scenario."""
    if isinstance(value, UpdateScenario):
        return value
    if isinstance(value, str):
        text = value.strip().strip("[]")
        for scenario in UpdateScenario:
            if text.upper() == scenario.value or text.upper() == scenario.name:
                return scenario
    raise ValueError(
        f"unknown update scenario {value!r}; valid: "
        + ", ".join(f"{s.value} ({s.name})" for s in UpdateScenario)
    )


@dataclass(frozen=True, slots=True)
class RunRequest:
    """One (predictor, traces, scenario, pipeline) run, as pure data.

    Attributes
    ----------
    predictor:
        The registry spec to simulate.  The constructor also accepts a
        registered kind name (``"tage"``) or a registry-built predictor.
    trace:
        A trace reference string (``suite:INT01``, ``hard:all``,
        ``synthetic:loop?iterations=12`` — see :mod:`repro.traces.refs`);
        validated at construction, resolved only when the request runs.
    scenario:
        Update scenario; accepts the enum or its string forms.
    pipeline:
        In-flight window model; accepts a :class:`PipelineConfig` or its
        keyword dict.
    sharding:
        Optional :class:`~repro.traces.sharding.ShardingPolicy` (or its
        keyword dict) asking the runner to fan each resolved trace out as
        warmup+measure shards.  Mutually exclusive with a ``#shard=``
        fragment in ``trace`` — a reference that already names one shard
        must not be sharded again.
    backend:
        Optional execution-backend name (:mod:`repro.backends`):
        ``"interp"`` pins the pure-Python reference; any other name, like
        none, means the default route (see
        :func:`repro.pipeline.parallel._route`).  Results are
        bit-identical across backends.  Overrides the runner's
        environment default; the CLI ``--backend`` flag overrides both.
    """

    predictor: PredictorSpec
    trace: str
    scenario: UpdateScenario = UpdateScenario.IMMEDIATE
    pipeline: PipelineConfig = field(default_factory=PipelineConfig)
    sharding: ShardingPolicy | None = None
    backend: str | None = None

    def __post_init__(self) -> None:
        predictor = self.predictor
        if isinstance(predictor, str):
            predictor = PredictorSpec(predictor)
        elif isinstance(predictor, Predictor):
            predictor = spec_of(predictor)
        elif not isinstance(predictor, PredictorSpec):
            raise ValueError(
                f"predictor must be a PredictorSpec, kind name or registry-built "
                f"predictor, got {type(predictor).__name__}"
            )
        object.__setattr__(self, "predictor", predictor)
        parsed_ref = parse_trace_ref(self.trace)
        object.__setattr__(self, "scenario", coerce_scenario(self.scenario))
        pipeline = self.pipeline
        if isinstance(pipeline, Mapping):
            known = {field.name for field in dataclasses.fields(PipelineConfig)}
            unknown = set(pipeline) - known
            if unknown:
                raise ValueError(
                    f"pipeline entry has unknown keys {sorted(unknown)}; valid: {sorted(known)}"
                )
            pipeline = PipelineConfig(**pipeline)
        elif pipeline is None:
            pipeline = PipelineConfig()
        elif not isinstance(pipeline, PipelineConfig):
            raise ValueError(
                f"pipeline must be a PipelineConfig or a dict, got {type(pipeline).__name__}"
            )
        object.__setattr__(self, "pipeline", pipeline)
        sharding = self.sharding
        if isinstance(sharding, Mapping):
            sharding = ShardingPolicy.from_dict(sharding)
        elif sharding is not None and not isinstance(sharding, ShardingPolicy):
            raise ValueError(
                f"sharding must be a ShardingPolicy or a dict, got {type(sharding).__name__}"
            )
        if sharding is not None and parsed_ref.shard is not None:
            raise ValueError(
                f"trace ref {self.trace!r} already names one shard; "
                "a sharding policy cannot shard it again"
            )
        object.__setattr__(self, "sharding", sharding)
        if self.backend is not None:
            if not isinstance(self.backend, str):
                raise ValueError(
                    f"backend must be a backend name or None, got {type(self.backend).__name__}"
                )
            from repro.api.config import parse_backend

            object.__setattr__(self, "backend", parse_backend(self.backend))

    def to_dict(self) -> dict:
        """A JSON-pure payload reproducing this request via :meth:`from_dict`.

        Raises :class:`ValueError` when the predictor config holds
        non-JSON values (e.g. a live ``TAGEConfig`` object) — such specs
        are runnable but not portable, and silently lossy serialization
        is worse than an error.
        """
        payload = {
            "version": REQUEST_SCHEMA_VERSION,
            "predictor": {"kind": self.predictor.kind, "config": self.predictor.config},
            "trace": self.trace,
            "scenario": self.scenario.value,
            "pipeline": dataclasses.asdict(self.pipeline),
        }
        if self.sharding is not None:
            payload["sharding"] = self.sharding.to_dict()
        if self.backend is not None:
            payload["backend"] = self.backend
        try:
            if json.loads(json.dumps(payload)) != payload:
                raise TypeError("payload does not survive a JSON round trip")
        except TypeError as error:
            raise ValueError(
                f"request for {self.predictor.kind!r} is not JSON-serializable "
                f"(predictor config must be pure data): {error}"
            ) from None
        return payload

    def to_json(self, **dumps_kwargs: Any) -> str:
        """:meth:`to_dict` rendered as a JSON string."""
        return json.dumps(self.to_dict(), **dumps_kwargs)

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "RunRequest":
        """Rebuild a request from a :meth:`to_dict` payload (strictly validated)."""
        if not isinstance(payload, Mapping):
            raise ValueError(f"run request payload must be a mapping, got {type(payload).__name__}")
        unknown = set(payload) - _PAYLOAD_KEYS
        if unknown:
            raise ValueError(f"run request payload has unknown keys {sorted(unknown)}")
        version = payload.get("version", REQUEST_SCHEMA_VERSION)
        if version != REQUEST_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported run request version {version!r} "
                f"(this build reads version {REQUEST_SCHEMA_VERSION})"
            )
        for required in ("predictor", "trace"):
            if required not in payload:
                raise ValueError(f"run request payload is missing {required!r}")
        predictor = payload["predictor"]
        if isinstance(predictor, str):
            spec = PredictorSpec(predictor)
        elif isinstance(predictor, Mapping) and "kind" in predictor:
            extra = set(predictor) - {"kind", "config"}
            if extra:
                raise ValueError(f"predictor entry has unknown keys {sorted(extra)}")
            spec = PredictorSpec(predictor["kind"], predictor.get("config") or {})
        else:
            raise ValueError(
                f"predictor entry must be a kind name or {{'kind', 'config'}}, got {predictor!r}"
            )
        return cls(
            predictor=spec,
            trace=payload["trace"],
            scenario=payload.get("scenario", UpdateScenario.IMMEDIATE),
            pipeline=payload.get("pipeline") or PipelineConfig(),
            sharding=payload.get("sharding"),
            backend=payload.get("backend"),
        )

    @classmethod
    def from_json(cls, text: str) -> "RunRequest":
        """Rebuild a request from a JSON string."""
        return cls.from_dict(json.loads(text))


def validate_shard_coverage(requests: Sequence["RunRequest"]) -> None:
    """Reject batches that submit the same shard of a trace more than once.

    Shard results are meant to be merged back into one trace result;
    submitting shard ``0/4`` twice — or mixing ``/2`` and ``/4`` plans of
    the same trace — would reassemble overlapping windows into a silently
    wrong sum.  This check runs where batches form (the runner's
    ``run_batch``, the service's submission parser) and raises
    :class:`ValueError` naming the offending references.  Whole-trace
    requests are untouched: duplicates of those are legitimate (the
    scheduler deduplicates them) and a whole trace next to its own shards
    is a valid parity experiment — each request aggregates separately.
    """
    plans: dict[tuple, tuple[int, set[int]]] = {}
    for request in requests:
        parsed = parse_trace_ref(request.trace)
        if parsed.shard is None:
            continue
        index, count = parsed.shard
        base_canonical, _, _ = parsed.canonical.partition("#")
        key = (request.predictor, base_canonical, request.scenario, request.pipeline)
        plan = plans.get(key)
        if plan is None:
            plans[key] = (count, {index})
            continue
        seen_count, indices = plan
        if seen_count != count:
            raise ValueError(
                f"inconsistent shard plans for {base_canonical!r}: the batch splits it "
                f"both {seen_count} and {count} ways — their windows would overlap "
                "when merged"
            )
        if index in indices:
            raise ValueError(
                f"duplicate shard submission for {base_canonical!r}: "
                f"shard {index}/{count} appears more than once in the batch"
            )
        indices.add(index)
