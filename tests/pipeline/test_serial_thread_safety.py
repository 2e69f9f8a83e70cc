"""Serial runners in several threads of one process must not share state.

Service lanes and in-process fleet workers each drive their own serial
runner from their own thread.  Every task builds its own predictor, and
both the default route (the native kernel) and the interp engine run in
the calling thread, so two threads simulating the same spec at once must
each get exactly the results a single thread gets, on either route.
"""

import sys
import threading

import pytest

from repro.api import Runner, RunnerConfig, RunRequest, suite_payload

REFS = ("synthetic:mixed?length=2000&seed=1", "synthetic:mixed?length=2000&seed=2")
ROUNDS = 4


def _payloads(ref: str, rounds: int, backend: str | None) -> list[dict]:
    runner = Runner(RunnerConfig(workers=1, backend=backend))
    request = RunRequest("tage", ref)
    return [suite_payload(request, runner.run(request)) for _ in range(rounds)]


@pytest.mark.parametrize("backend", [None, "interp"])
def test_two_threads_running_one_spec_match_a_single_thread(backend):
    expected = {ref: _payloads(ref, 1, backend)[0] for ref in REFS}
    outcomes: dict[str, list[dict]] = {}
    errors: list[BaseException] = []

    def work(ref: str) -> None:
        try:
            outcomes[ref] = _payloads(ref, ROUNDS, backend)
        except BaseException as error:  # noqa: BLE001 - reported below
            errors.append(error)

    threads = [threading.Thread(target=work, args=(ref,)) for ref in REFS]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)  # interleave the two simulations finely
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    for ref in REFS:
        wrong = sum(1 for payload in outcomes[ref] if payload != expected[ref])
        assert wrong == 0, f"{ref}: {wrong}/{ROUNDS} payloads differ from the single-thread run"
