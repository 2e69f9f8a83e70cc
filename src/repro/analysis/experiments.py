"""Drivers for every experiment of the paper's evaluation.

Each ``run_*`` function corresponds to one entry of ``repro list
experiments`` (one table, figure or reported group of numbers of the
paper).  They all take a list of traces so that tests can use tiny suites
and the benchmark harness can use larger ones, and they all return an
:class:`ExperimentTable` whose rows are plain Python values, ready to be
printed (:meth:`ExperimentTable.to_table`), asserted on, or emitted as
JSON (``repro experiment <name> --json``).

Predictors are described as registry specs
(:class:`~repro.predictors.registry.PredictorSpec`) and every suite runs
through the ambient :class:`~repro.api.runner.Runner` facade: drivers that
need several suites submit them as one batch, so all (spec, trace) pairs
go through one scheduling pass: kernel-routed pairs fan out over native
threads and only interp-routed ones (such as ``snap`` and ``ftl``) share
one process pool.  Configuration (worker count, result cache) comes from
:meth:`~repro.api.config.RunnerConfig.from_env` — ``REPRO_SUITE_WORKERS``,
``REPRO_SUITE_CACHE`` and ``REPRO_SUITE_CACHE_VERSION`` — unless an
entry point installs its own runner with
:func:`~repro.api.runner.using_runner` (the ``repro`` CLI does, so its
``--workers``/``--cache-dir`` flags reach every experiment).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.reporting import format_table
from repro.api.runner import active_runner
from repro.core.augmented import RetireReadScope
from repro.core.config import make_reference_tage_config
from repro.core.tage import TAGEPredictor
from repro.hardware.cacti import PredictorCostModel
from repro.pipeline.config import PipelineConfig
from repro.pipeline.metrics import SuiteResult
from repro.pipeline.scenarios import UpdateScenario
from repro.predictors.registry import PredictorSpec
from repro.traces.suite import HARD_TRACES
from repro.traces.trace import Trace

__all__ = [
    "ExperimentTable",
    "run_access_counts",
    "run_update_scenarios",
    "run_bank_interleaving",
    "run_ium_recovery",
    "run_side_predictor_stack",
    "run_history_robustness",
    "run_fig9_size_sweep",
    "run_fig10_hard_traces",
    "run_cost_effective",
    "run_suite_characteristics",
]


@dataclass
class ExperimentTable:
    """One regenerated table/figure: headers, rows and the paper's reference values."""

    experiment: str
    headers: list[str]
    rows: list[list] = field(default_factory=list)
    paper_reference: str = ""

    def add_row(self, *cells) -> None:
        """Append one row."""
        self.rows.append(list(cells))

    def to_table(self) -> str:
        """Render the experiment as a text table (plus the paper's reference)."""
        text = format_table(self.headers, self.rows, title=self.experiment)
        if self.paper_reference:
            text += f"\npaper reference: {self.paper_reference}"
        return text

    def column(self, name: str) -> list:
        """Return one column by header name (for assertions in tests/benches)."""
        index = self.headers.index(name)
        return [row[index] for row in self.rows]

    def lookup(self, key) -> list:
        """Return the first row whose first cell equals ``key``."""
        for row in self.rows:
            if row[0] == key:
                return row
        raise KeyError(f"no row with key {key!r} in experiment {self.experiment!r}")


def _suite(spec: PredictorSpec, traces: list[Trace], scenario=UpdateScenario.IMMEDIATE,
           config: PipelineConfig | None = None) -> SuiteResult:
    """Run one predictor spec over the traces through the ambient runner."""
    return active_runner().run_suite(spec, traces, scenario=scenario, pipeline=config)


def _suites(
    runs: list[tuple[PredictorSpec, UpdateScenario, PipelineConfig | None]],
    traces: list[Trace],
) -> list[SuiteResult]:
    """Run several (spec, scenario, config) suites as one interleaved batch.

    Every (spec, trace) pair of every run goes into the same scheduling
    pass, so a driver comparing five predictors keeps all workers busy
    until the whole experiment drains instead of parallelising one suite
    at a time.
    """
    return active_runner().run_suites(
        [(spec, traces, scenario, config) for spec, scenario, config in runs]
    )


# ---------------------------------------------------------------------------
# E1 — Section 4.1.1: effective writes after silent-update elimination
# ---------------------------------------------------------------------------

def run_access_counts(traces: list[Trace]) -> ExperimentTable:
    """Effective writes per misprediction / per 100 branches (TAGE, GEHL, gshare)."""
    table = ExperimentTable(
        experiment="E1 access-counts (Section 4.1.1)",
        headers=["predictor", "writes/misprediction", "writes/100 branches",
                 "accesses/branch", "mppki"],
        paper_reference="TAGE 2.17 & 9.06, GEHL 1.94 & 9.10, gshare 1.54 & 9.61",
    )
    specs = [
        ("tage", PredictorSpec("tage")),
        ("gehl", PredictorSpec("gehl")),
        ("gshare", PredictorSpec("gshare")),
    ]
    suites = _suites([(spec, UpdateScenario.IMMEDIATE, None) for _, spec in specs], traces)
    for (name, _), suite in zip(specs, suites):
        profile = suite.access_profile
        table.add_row(
            name,
            profile.writes_per_misprediction,
            profile.writes_per_100_branches,
            profile.accesses_per_branch,
            suite.mppki,
        )
    return table


# ---------------------------------------------------------------------------
# E2 — Section 4.1.2: update scenarios [I]/[A]/[B]/[C]
# ---------------------------------------------------------------------------

def run_update_scenarios(
    traces: list[Trace],
    config: PipelineConfig | None = None,
    include_gehl: bool = True,
) -> ExperimentTable:
    """MPPKI of gshare / GEHL / TAGE under the four update scenarios."""
    table = ExperimentTable(
        experiment="E2 update-scenarios (Section 4.1.2)",
        headers=["predictor", "[I]", "[A]", "[B]", "[C]"],
        paper_reference=(
            "gshare 944/970/1292/1011, GEHL 664/685/801/744, TAGE 609/617/640/625"
        ),
    )
    specs = [("gshare", PredictorSpec("gshare"))]
    if include_gehl:
        specs.append(("gehl", PredictorSpec("gehl")))
    specs.append(("tage", PredictorSpec("tage")))
    scenarios = [
        UpdateScenario.IMMEDIATE,
        UpdateScenario.REREAD_AT_RETIRE,
        UpdateScenario.FETCH_READ_ONLY,
        UpdateScenario.REREAD_ON_MISPREDICTION,
    ]
    runs = [(spec, scenario, config) for _, spec in specs for scenario in scenarios]
    suites = iter(_suites(runs, traces))
    for name, _ in specs:
        table.rows.append([name] + [next(suites).mppki for _ in scenarios])
    return table


# ---------------------------------------------------------------------------
# E3 — Section 4.3: bank interleaving accuracy and CACTI-style cost
# ---------------------------------------------------------------------------

def run_bank_interleaving(
    traces: list[Trace], config: PipelineConfig | None = None
) -> ExperimentTable:
    """Scenario [C] with and without 4-way single-port interleaving, plus area/energy."""
    table = ExperimentTable(
        experiment="E3 bank-interleaving (Section 4.3)",
        headers=["organisation", "mppki [C]", "area (norm.)", "energy/access (norm.)"],
        paper_reference="627 vs 625 MPPKI; 3.3x area and 2x energy reduction",
    )
    scenario = UpdateScenario.REREAD_ON_MISPREDICTION
    plain = PredictorSpec("tage")
    interleaved = PredictorSpec(
        "augmented-tage", {"use_ium": False, "name": "tage-interleaved", "interleaved": True}
    )
    plain_suite, inter_suite = _suites(
        [(plain, scenario, config), (interleaved, scenario, config)], traces
    )
    cost = PredictorCostModel(storage_bits=TAGEPredictor().storage_bits)
    three_port = cost.three_port_array()
    banked = cost.interleaved_array()
    table.add_row("3-port arrays", plain_suite.mppki, three_port.area, three_port.energy_per_access)
    table.add_row("4-way single-port banks", inter_suite.mppki, banked.area, banked.energy_per_access)
    table.add_row(
        "reduction (3-port / banked)",
        plain_suite.mppki / inter_suite.mppki if inter_suite.mppki else 0.0,
        cost.area_reduction,
        cost.energy_reduction_per_access,
    )
    return table


# ---------------------------------------------------------------------------
# E4 — Section 5.1: IUM recovery of the delayed-update losses
# ---------------------------------------------------------------------------

def run_ium_recovery(
    traces: list[Trace], config: PipelineConfig | None = None
) -> ExperimentTable:
    """TAGE vs TAGE+IUM under scenarios [I]/[A]/[B]/[C]."""
    table = ExperimentTable(
        experiment="E4 ium (Section 5.1)",
        headers=["predictor", "[I]", "[A]", "[B]", "[C]", "ium overrides"],
        paper_reference="TAGE 609/617/640/625; TAGE+IUM 609/611/624/614",
    )
    scenarios = [
        UpdateScenario.IMMEDIATE,
        UpdateScenario.REREAD_AT_RETIRE,
        UpdateScenario.FETCH_READ_ONLY,
        UpdateScenario.REREAD_ON_MISPREDICTION,
    ]
    specs = [
        ("tage", PredictorSpec("tage")),
        ("tage+ium", PredictorSpec("augmented-tage", {"use_ium": True, "name": "tage+ium"})),
    ]
    runs = [(spec, scenario, config) for _, spec in specs for scenario in scenarios]
    suites = iter(_suites(runs, traces))
    for name, _ in specs:
        row = [name]
        overrides = 0
        for _ in scenarios:
            suite = next(suites)
            row.append(suite.mppki)
            overrides += sum(result.ium_overrides for result in suite.results)
        row.append(overrides)
        table.rows.append(row)
    return table


# ---------------------------------------------------------------------------
# E5/E6/E7/E8 — Sections 5.2, 5.3, 5.4 and 6: the side-predictor stack
# ---------------------------------------------------------------------------

def run_side_predictor_stack(traces: list[Trace]) -> ExperimentTable:
    """MPPKI of the incremental predictor stack, TAGE up to TAGE-LSC.

    Reproduces the accuracy ladder of Sections 5 and 6: TAGE, TAGE+IUM,
    +loop (L-TAGE style), +SC (= ISL-TAGE), the paper's TAGE-LSC and the
    full TAGE+IUM+loop+SC+LSC stack.
    """
    table = ExperimentTable(
        experiment="E5-E8 side-predictor stack (Sections 5.2-6.1)",
        headers=["predictor", "mppki", "mispredictions", "storage Kbits"],
        paper_reference=(
            "TAGE+IUM ~609-617, +loop 593, +SC 580 (ISL-TAGE), "
            "TAGE-LSC 555-562, ISL-TAGE(512Kb) 581"
        ),
    )
    specs = [
        ("tage", PredictorSpec("tage")),
        ("tage+ium", PredictorSpec("augmented-tage", {"use_ium": True, "name": "tage+ium"})),
        ("l-tage (tage+loop)", PredictorSpec("l-tage")),
        ("tage+ium+loop", PredictorSpec("isl-tage", {"use_sc": False})),
        ("isl-tage (tage+ium+loop+sc)", PredictorSpec("isl-tage")),
        ("tage-lsc (tage+ium+lsc)", PredictorSpec("tage-lsc", {"fit_512kbits": True})),
        ("tage+ium+loop+sc+lsc", PredictorSpec("tage-lsc", {"use_loop": True, "use_sc": True})),
    ]
    suites = _suites([(spec, UpdateScenario.IMMEDIATE, None) for _, spec in specs], traces)
    for (name, spec), suite in zip(specs, suites):
        predictor = spec.build()
        table.add_row(name, suite.mppki, suite.mispredictions,
                      round(predictor.storage_bits / 1024.0, 1))
    return table


# ---------------------------------------------------------------------------
# E9 — Section 6.2: robustness to history series and table counts
# ---------------------------------------------------------------------------

def run_history_robustness(traces: list[Trace]) -> ExperimentTable:
    """TAGE-LSC accuracy for different history series and component counts."""
    table = ExperimentTable(
        experiment="E9 history-robustness (Section 6.2)",
        headers=["configuration", "mppki"],
        paper_reference=(
            "(6,2000)x13 -> 562, (3,300) -> 575, (4,1000) -> 563, (8,5000) -> 563, "
            "9-comp (6,1000) -> 566, 6-comp (6,500) -> 583"
        ),
    )
    reference = make_reference_tage_config()
    variants = [
        ("13-comp (6,2000) [reference]", reference),
        ("13-comp (3,300)", reference.with_history_series(3, 300)),
        ("13-comp (4,1000)", reference.with_history_series(4, 1000)),
        ("13-comp (8,5000)", reference.with_history_series(8, 5000)),
        ("9-comp (6,1000)", reference.__class__.generate(
            num_tagged_tables=8, min_history=6, max_history=1000, base_log2_entries=12)),
        ("6-comp (6,500)", reference.__class__.generate(
            num_tagged_tables=5, min_history=6, max_history=500, base_log2_entries=13)),
    ]
    runs = [
        (PredictorSpec("tage-lsc", {"config": config}), UpdateScenario.IMMEDIATE, None)
        for _, config in variants
    ]
    for (name, _), suite in zip(variants, _suites(runs, traces)):
        table.add_row(name, suite.mppki)
    return table


# ---------------------------------------------------------------------------
# E10 — Figure 9: TAGE vs TAGE-LSC across storage budgets
# ---------------------------------------------------------------------------

def run_fig9_size_sweep(
    traces: list[Trace], log2_factors: list[int] | None = None
) -> ExperimentTable:
    """MPPKI of TAGE and TAGE-LSC as every component is scaled by powers of two."""
    table = ExperimentTable(
        experiment="E10 fig9-size-sweep (Figure 9)",
        headers=["log2 scale", "tage Kbits", "tage mppki", "tage-lsc Kbits", "tage-lsc mppki"],
        paper_reference=(
            "TAGE-LSC tracks a 4-8x larger TAGE in the 128-512 Kbit range; "
            "both plateau at 16-32 Mbits"
        ),
    )
    factors = log2_factors if log2_factors is not None else [-2, -1, 0, 1, 2, 3]
    from repro.analysis.sweep import fig9_specs

    pairs = fig9_specs(factors)
    runs = [
        (spec, UpdateScenario.IMMEDIATE, None)
        for _, tage_spec, lsc_spec in pairs
        for spec in (tage_spec, lsc_spec)
    ]
    suites = iter(_suites(runs, traces))
    for factor, tage_spec, lsc_spec in pairs:
        tage_suite, lsc_suite = next(suites), next(suites)
        table.add_row(
            factor,
            round(tage_spec.build().storage_bits / 1024.0),
            tage_suite.mppki,
            round(lsc_spec.build().storage_bits / 1024.0),
            lsc_suite.mppki,
        )
    return table


# ---------------------------------------------------------------------------
# E11 — Figure 10 / Section 6.3: comparison on the hard and easy traces
# ---------------------------------------------------------------------------

def run_fig10_hard_traces(traces: list[Trace]) -> ExperimentTable:
    """ISL-TAGE / TAGE-LSC / OH-SNAP-like / FTL-like on hard vs easy traces."""
    table = ExperimentTable(
        experiment="E11 fig10-hard-benchmarks (Figure 10, Section 6.3)",
        headers=["predictor", "mppki (7 hard)", "mppki (33 easy)", "mppki (all)"],
        paper_reference=(
            "hard: ISL 2311, TAGE-LSC 2287, OH-SNAP 2227, FTL++ 2222; "
            "easy: ISL 196, TAGE-LSC 198, OH-SNAP 254, FTL++ 232"
        ),
    )
    specs = [
        ("isl-tage", PredictorSpec("isl-tage")),
        ("tage-lsc", PredictorSpec("tage-lsc", {"fit_512kbits": True})),
        ("oh-snap-like", PredictorSpec("snap")),
        ("ftl-like", PredictorSpec("ftl")),
    ]
    hard_names = {trace.name for trace in traces if trace.hard or trace.name in HARD_TRACES}
    suites = _suites([(spec, UpdateScenario.IMMEDIATE, None) for _, spec in specs], traces)
    for (name, _), suite in zip(specs, suites):
        hard = suite.subset(hard_names)
        easy = suite.subset({trace.name for trace in traces} - hard_names)
        table.add_row(name, hard.mppki, easy.mppki, suite.mppki)
    return table


# ---------------------------------------------------------------------------
# E12 — Section 7: cost-effective TAGE-LSC
# ---------------------------------------------------------------------------

def run_cost_effective(
    traces: list[Trace], config: PipelineConfig | None = None
) -> ExperimentTable:
    """The Section 7 ladder: interleaving and retire-read elimination on TAGE-LSC."""
    table = ExperimentTable(
        experiment="E12 cost-effective TAGE-LSC (Section 7)",
        headers=["configuration", "scenario", "mppki"],
        paper_reference=(
            "562 baseline [A]; 569 interleaved; 575 interleaved + no retire read [C]; "
            "TAGE-only scope ~+2 MPPKI, local-only ~+4 MPPKI; scenario [B] 599"
        ),
    )

    baseline = PredictorSpec("tage-lsc", {"fit_512kbits": True})

    def interleaved(scope: str = RetireReadScope.ALL) -> PredictorSpec:
        return PredictorSpec(
            "tage-lsc",
            {"fit_512kbits": True, "retire_read_scope": scope, "interleaved": True},
        )

    rows = [
        ("3-port, reread at retire", baseline, UpdateScenario.REREAD_AT_RETIRE),
        ("interleaved, reread at retire", interleaved(), UpdateScenario.REREAD_AT_RETIRE),
        ("interleaved, no reread on correct (all components)", interleaved(),
         UpdateScenario.REREAD_ON_MISPREDICTION),
        ("interleaved, no reread on correct (TAGE components only)",
         interleaved(RetireReadScope.TAGE_ONLY), UpdateScenario.REREAD_ON_MISPREDICTION),
        ("interleaved, no reread on correct (local components only)",
         interleaved(RetireReadScope.LOCAL_ONLY), UpdateScenario.REREAD_ON_MISPREDICTION),
        ("interleaved, fetch-time read only [B]", interleaved(), UpdateScenario.FETCH_READ_ONLY),
    ]
    suites = _suites([(spec, scenario, config) for _, spec, scenario in rows], traces)
    for (name, _, scenario), suite in zip(rows, suites):
        table.add_row(name, scenario.label, suite.mppki)
    return table


# ---------------------------------------------------------------------------
# E13 — Section 2.2: benchmark-set characteristics
# ---------------------------------------------------------------------------

def run_suite_characteristics(traces: list[Trace]) -> ExperimentTable:
    """Share of mispredictions carried by the designated hard traces."""
    table = ExperimentTable(
        experiment="E13 suite characteristics (Section 2.2)",
        headers=["group", "traces", "mispredictions", "share", "mppki"],
        paper_reference="the 7 hard traces carry ~3/4 of all mispredictions",
    )
    suite = _suite(PredictorSpec("l-tage"), traces)
    hard_names = {trace.name for trace in traces if trace.hard or trace.name in HARD_TRACES}
    hard = suite.subset(hard_names)
    easy = suite.subset({trace.name for trace in traces} - hard_names)
    total = suite.mispredictions or 1
    table.add_row("hard", len(hard.results), hard.mispredictions,
                  hard.mispredictions / total, hard.mppki)
    table.add_row("easy", len(easy.results), easy.mispredictions,
                  easy.mispredictions / total, easy.mppki)
    table.add_row("all", len(suite.results), suite.mispredictions, 1.0, suite.mppki)
    return table
