"""Trace substrate standing in for the CBP-3 (JWAC-2) trace distribution.

The paper evaluates predictors on 40 proprietary traces of roughly 50
million micro-ops, split into five categories (CLIENT, INT, MM, SERVER,
WS).  Those traces are not redistributable, so this subpackage provides a
synthetic substitute:

* :mod:`repro.traces.trace` — the :class:`Trace` container every
  simulator in the package consumes: four numpy columns (``pcs``,
  ``taken``, ``preceding``, ``sites``) plus metadata, read item by item
  as read-only :class:`BranchRecord` views,
* :mod:`repro.traces.synthetic` — branch *behaviour* generators (loops
  with regular and irregular bodies, globally correlated branches,
  statistically biased branches, local-pattern branches, large-footprint
  call graphs) that exercise each mechanism the paper studies,
* :mod:`repro.traces.suite` — a deterministic 40-trace benchmark suite
  with the same category structure and the same "7 hard traces dominate
  the misprediction count" property as the CBP-3 set (Section 2.2),
* :mod:`repro.traces.io` — save/load of traces so expensive suites can be
  generated once and replayed,
* :mod:`repro.traces.refs` — trace *references*: strings like
  ``suite:INT01``, ``hard:all`` or ``synthetic:loop?iterations=12`` that
  resolve deterministically to traces, so run requests
  (:mod:`repro.api`) can name traces without embedding branch streams.
"""

from repro.traces.io import load_trace, save_trace
from repro.traces.refs import (
    GENERATOR_VERSION,
    TraceRef,
    parse_trace_ref,
    resolve_trace_ref,
    trace_handles,
    trace_ref_catalogue,
)
from repro.traces.sharding import (
    DEFAULT_WARMUP,
    ShardingPolicy,
    ShardWindow,
    auto_shard_count,
    plan_shards,
    shard_handle,
    shard_refs,
    shard_trace,
)
from repro.traces.suite import (
    CATEGORIES,
    HARD_TRACES,
    SuiteSpec,
    generate_suite,
    generate_trace,
    trace_names,
)
from repro.traces.synthetic import (
    BiasedBranch,
    BranchSite,
    GeneratorContext,
    GloballyCorrelatedBranch,
    LocalPatternBranch,
    LoopBranch,
    PointerChaseBranch,
    WorkloadSpec,
    generate_workload,
)
from repro.traces.trace import BranchRecord, Trace, TraceHandle

__all__ = [
    "BiasedBranch",
    "BranchRecord",
    "BranchSite",
    "CATEGORIES",
    "DEFAULT_WARMUP",
    "GENERATOR_VERSION",
    "GeneratorContext",
    "GloballyCorrelatedBranch",
    "HARD_TRACES",
    "LocalPatternBranch",
    "LoopBranch",
    "PointerChaseBranch",
    "ShardWindow",
    "ShardingPolicy",
    "SuiteSpec",
    "Trace",
    "TraceHandle",
    "TraceRef",
    "WorkloadSpec",
    "auto_shard_count",
    "generate_suite",
    "generate_trace",
    "generate_workload",
    "load_trace",
    "parse_trace_ref",
    "plan_shards",
    "resolve_trace_ref",
    "save_trace",
    "shard_handle",
    "shard_refs",
    "shard_trace",
    "trace_handles",
    "trace_names",
    "trace_ref_catalogue",
]
