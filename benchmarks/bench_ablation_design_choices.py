"""Ablation benches for the TAGE design choices called out in Section 3.

These do not correspond to a numbered table of the paper; they quantify the
design decisions the paper argues for:

* allocating up to 3-4 entries on a misprediction vs a single entry
  (Section 3.2.1),
* the single useful bit with global reset vs wider useful counters
  (Section 3.2.2),
* the USE_ALT_ON_NA mechanism (Section 3.1),
* the tag width trade-off (Section 3.3),
* the IUM interpretation (mimicked counter vs raw outcome, Section 5.1).
"""

import dataclasses

from benchmarks.conftest import BENCH_PIPELINE, report, run_once
from repro.analysis.experiments import ExperimentTable
from repro.core.augmented import AugmentedTAGE
from repro.core.config import make_reference_tage_config
from repro.core.tage import TAGEPredictor
from repro.pipeline.engine import SimulationEngine
from repro.pipeline.metrics import SuiteResult
from repro.pipeline.scenarios import UpdateScenario


def _mppki(factory, traces, scenario=UpdateScenario.IMMEDIATE, config=None):
    """Suite MPPKI of ``factory``'s predictor, built fresh for every trace."""
    suite = SuiteResult(predictor_name="ablation")
    for trace in traces:
        suite.add(SimulationEngine(factory(), scenario, config).run(trace))
    return suite.mppki


def test_bench_ablation_allocation_count(benchmark, bench_suite):
    """Section 3.2.1: allocating several entries shortens the warm-up."""
    def run():
        table = ExperimentTable(
            experiment="ablation: entries allocated per misprediction",
            headers=["max allocations", "mppki"],
            paper_reference="up to 3-4 allocations benefit large predictors",
        )
        for allocations in (1, 2, 3, 4):
            config = dataclasses.replace(make_reference_tage_config(),
                                         max_allocations=allocations)
            table.add_row(allocations, _mppki(lambda c=config: TAGEPredictor(c), bench_suite))
        return table

    table = run_once(benchmark, run)
    report(table)
    values = table.column("mppki")
    assert min(values) > 0


def test_bench_ablation_useful_bits(benchmark, bench_suite):
    """Section 3.2.2: one useful bit with a global reset is enough."""
    def run():
        table = ExperimentTable(
            experiment="ablation: useful-field width",
            headers=["useful bits", "mppki", "storage Kbits"],
            paper_reference="a single u bit + global reset matches 2-bit counters",
        )
        for bits in (1, 2):
            config = dataclasses.replace(make_reference_tage_config(), useful_bits=bits)
            table.add_row(bits, _mppki(lambda c=config: TAGEPredictor(c), bench_suite),
                          round(config.storage_kbits))
        return table

    table = run_once(benchmark, run)
    report(table)
    one_bit, two_bit = table.rows
    # The single-bit policy must not cost accuracy while saving storage.
    assert one_bit[1] <= two_bit[1] * 1.05
    assert one_bit[2] < two_bit[2]


def test_bench_ablation_use_alt_on_na(benchmark, bench_suite):
    """Section 3.1: trusting the alternate prediction on weak entries."""
    def run():
        table = ExperimentTable(
            experiment="ablation: USE_ALT_ON_NA",
            headers=["use_alt_on_na", "mppki"],
            paper_reference="dynamically monitoring newly-allocated entries slightly helps",
        )
        table.add_row("enabled", _mppki(lambda: TAGEPredictor(), bench_suite))

        class NoAltTage(TAGEPredictor):
            def predict(self, pc):
                info = super().predict(pc)
                if info.provider_table > 0 and info.taken != info.provider_taken:
                    # Force the provider prediction, ignoring USE_ALT_ON_NA.
                    info = dataclasses.replace(info, taken=info.provider_taken,
                                               tage_taken=info.provider_taken)
                return info

        table.add_row("disabled", _mppki(lambda: NoAltTage(), bench_suite))
        return table

    table = run_once(benchmark, run)
    report(table)
    assert len(table.rows) == 2


def test_bench_ablation_tag_width(benchmark, bench_suite):
    """Section 3.3: narrow tags alias, wide tags waste storage."""
    def run():
        table = ExperimentTable(
            experiment="ablation: tag width",
            headers=["tag widths", "mppki", "storage Kbits"],
            paper_reference="~12-bit tags are the sweet spot for a 13-table TAGE",
        )
        reference = make_reference_tage_config()
        for label, delta in (("reference", 0), ("-3 bits", -3), ("+3 bits", 3)):
            tags = tuple(max(5, min(20, width + delta)) for width in reference.tag_widths)
            config = dataclasses.replace(reference, tag_widths=tags)
            table.add_row(label, _mppki(lambda c=config: TAGEPredictor(c), bench_suite),
                          round(config.storage_kbits))
        return table

    table = run_once(benchmark, run)
    report(table)
    reference, narrow, wide = table.rows
    assert wide[2] > reference[2] > narrow[2]  # storage ordering


def test_bench_ablation_ium_mode(benchmark, bench_suite):
    """Section 5.1: mimicking the counter update vs substituting the outcome."""
    def run():
        table = ExperimentTable(
            experiment="ablation: IUM mode under scenario [A]",
            headers=["mode", "mppki"],
            paper_reference="the IUM recovers most of the delayed-update loss",
        )
        for mode in ("counter", "outcome"):
            table.add_row(mode, _mppki(
                lambda mode=mode: AugmentedTAGE(use_ium=True, ium_mode=mode, name=f"ium-{mode}"),
                bench_suite, scenario=UpdateScenario.REREAD_AT_RETIRE, config=BENCH_PIPELINE))
        table.add_row("no IUM", _mppki(lambda: TAGEPredictor(), bench_suite,
                                       scenario=UpdateScenario.REREAD_AT_RETIRE,
                                       config=BENCH_PIPELINE))
        return table

    table = run_once(benchmark, run)
    report(table)
    mppki = dict(zip(table.column("mode"), table.column("mppki")))
    assert mppki["counter"] <= mppki["no IUM"] * 1.03
