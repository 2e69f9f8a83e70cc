"""Quickstart: predict a synthetic trace with the reference TAGE predictor.

Builds the paper's reference ~64 KByte TAGE predictor, generates one trace
of the CBP-like synthetic suite, simulates it with oracle (immediate)
update and prints the accuracy, the storage breakdown and the access
profile — then repeats the run through the serializable run API
(:class:`~repro.api.request.RunRequest` + :class:`~repro.api.runner.Runner`),
which is also what the ``repro`` CLI drives::

    python examples/quickstart.py
    # equivalent CLI run:
    python -m repro run tage --trace "suite:INT03?branches=20000" --json
"""

from __future__ import annotations

from repro import SimulationEngine
from repro.api import Runner, RunRequest
from repro.predictors.registry import create
from repro.traces import generate_trace


def main() -> None:
    trace = generate_trace("INT03", branches_per_trace=20_000, seed=2011)
    print("trace:", trace.summary())

    # The registry builds any predictor family from its registered name
    # (see repro.predictors.registry.available()).
    predictor = create("tage")
    print("\npredictor:", predictor.name)
    print(predictor.config.describe())

    result = SimulationEngine(predictor).run(trace)
    print("\nresult:", result.summary())
    print(f"accuracy          : {result.accuracy:.3%}")
    print(f"MPKI              : {result.mpki:.2f}")
    print(f"MPPKI             : {result.mppki:.1f}")
    print(f"access profile    : {result.accesses.summary()}")

    print("\nstorage breakdown:")
    print(predictor.storage_report().to_table())

    # The same run as pure data: a RunRequest names the predictor and the
    # trace (no live objects), round-trips through JSON, and executes
    # through the Runner facade — three lines, same numbers.
    request = RunRequest("tage", "suite:INT03?branches=20000")
    suite = Runner.from_env().run(request)
    print("\nvia the run API:", suite.summary())
    print("request JSON    :", request.to_json())


if __name__ == "__main__":
    main()
