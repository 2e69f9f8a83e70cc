"""Golden absolute counts for every registered kind (regression guard).

The backend parity tests compare interp against the kernels, so a
bug shared by both (for example in the index/tag hashing both derive
from, or in the trace plumbing both read) keeps every parity test green.
These counts pin the absolute results instead: branches, instructions,
mispredictions, every
:class:`~repro.hardware.access_counter.AccessProfile` field and the IUM
override count.  The TAGE family runs under every update scenario, every
other kind under [I] and [C], on two small deterministic traces.  Every
trace generator emits 4-byte-aligned PCs, so TAGE's path history (low PC
bits) stays 0 on them; a third, hand-built trace of odd and even PCs
keeps it live under [I] and [C].  A ``numpy`` selection and the native C
kernel are held to the same rows as the interp engine.

Regenerate the tables only when a change is *meant* to move results, and
say so in the change description.
"""

from __future__ import annotations

import random
import sys
import threading
from dataclasses import asdict

import pytest

from repro.backends import get_backend
from repro.pipeline.config import PipelineConfig
from repro.pipeline.engine import SimulationEngine
from repro.pipeline.scenarios import UpdateScenario
from repro.predictors.registry import PredictorSpec, backend_support
from repro.traces.refs import resolve_trace_ref
from repro.traces.trace import Trace

HARD = "hard:INT01?branches=3000&seed=11"
LOOP = "synthetic:loop?iterations=7&body_branches=3&length=2000&seed=5"
#: Not a trace ref: the name of the trace :func:`_live_path_trace` builds.
LIVE = "live-path"

#: trace -> (branches, instructions).
SIZES = {HARD: (3000, 18033), LOOP: (2016, 11916), LIVE: (2000, 8000)}

#: Per-run columns of :data:`GOLDEN`.
COLUMNS = (
    "mispredictions",
    "retire_reads",
    "entry_writes",
    "write_accesses",
    "entry_reads",
    "allocations",
    "ium_overrides",
)

#: (trace ref, kind, interleaved, scenario) -> golden row (see COLUMNS).
GOLDEN = {
    (HARD, "tage", False, "I"): (621, 0, 3374, 1418, 4873, 1863, 0),
    (HARD, "tage", False, "A"): (634, 3000, 3437, 1438, 4911, 1902, 0),
    (HARD, "tage", False, "B"): (719, 0, 3733, 1535, 0, 2157, 0),
    (HARD, "tage", False, "C"): (646, 646, 3472, 1440, 2592, 1938, 0),
    (HARD, "l-tage", False, "I"): (552, 0, 3374, 1418, 4873, 1863, 0),
    (HARD, "l-tage", False, "A"): (565, 3000, 3437, 1438, 4911, 1902, 0),
    (HARD, "l-tage", False, "B"): (611, 0, 3733, 1535, 0, 2157, 0),
    (HARD, "l-tage", False, "C"): (583, 583, 3546, 1460, 2344, 1998, 0),
    (HARD, "isl-tage", False, "I"): (553, 0, 7594, 1428, 16873, 1863, 0),
    (HARD, "isl-tage", False, "A"): (559, 3000, 7681, 1480, 16911, 1902, 327),
    (HARD, "isl-tage", False, "B"): (599, 0, 7922, 1593, 0, 2157, 324),
    (HARD, "isl-tage", False, "C"): (570, 570, 7868, 1567, 4435, 2025, 329),
    (HARD, "tage-lsc", False, "I"): (561, 0, 8179, 1438, 19873, 1863, 0),
    (HARD, "tage-lsc", False, "A"): (573, 3000, 8367, 1488, 19911, 1902, 327),
    (HARD, "tage-lsc", False, "B"): (642, 0, 8613, 1590, 0, 2157, 324),
    (HARD, "tage-lsc", False, "C"): (600, 600, 8623, 1540, 5288, 2028, 331),
    (HARD, "isl-tage", True, "I"): (556, 0, 7197, 1365, 16970, 1923, 0),
    (HARD, "isl-tage", True, "A"): (565, 3000, 7289, 1429, 16996, 1947, 582),
    (HARD, "isl-tage", True, "B"): (606, 0, 7516, 1530, 0, 2100, 596),
    (HARD, "isl-tage", True, "C"): (565, 565, 7292, 1441, 4511, 1974, 581),
    (HARD, "tage-lsc", True, "I"): (617, 0, 8140, 1390, 19970, 1923, 0),
    (HARD, "tage-lsc", True, "A"): (628, 3000, 8216, 1450, 19996, 1947, 582),
    (HARD, "tage-lsc", True, "B"): (663, 0, 8388, 1540, 0, 2100, 596),
    (HARD, "tage-lsc", True, "C"): (629, 629, 8169, 1450, 5654, 1965, 581),
    (LOOP, "tage", False, "I"): (617, 0, 3209, 1287, 4015, 1851, 0),
    (LOOP, "tage", False, "A"): (588, 2016, 3093, 1302, 3924, 1764, 0),
    (LOOP, "tage", False, "B"): (548, 0, 2927, 1289, 0, 1644, 0),
    (LOOP, "tage", False, "C"): (559, 559, 2960, 1252, 2382, 1677, 0),
    (LOOP, "l-tage", False, "I"): (543, 0, 3209, 1287, 4015, 1851, 0),
    (LOOP, "l-tage", False, "A"): (527, 2016, 3093, 1302, 3924, 1764, 0),
    (LOOP, "l-tage", False, "B"): (534, 0, 2927, 1289, 0, 1644, 0),
    (LOOP, "l-tage", False, "C"): (525, 525, 2914, 1268, 2222, 1617, 0),
    (LOOP, "isl-tage", False, "I"): (535, 0, 7341, 1346, 12079, 1851, 0),
    (LOOP, "isl-tage", False, "A"): (526, 2016, 7153, 1437, 11988, 1764, 1241),
    (LOOP, "isl-tage", False, "B"): (521, 0, 6750, 1499, 0, 1644, 1284),
    (LOOP, "isl-tage", False, "C"): (529, 529, 7371, 1534, 4011, 1635, 1256),
    (LOOP, "tage-lsc", False, "I"): (524, 0, 7819, 1339, 14095, 1851, 0),
    (LOOP, "tage-lsc", False, "A"): (546, 2016, 7678, 1417, 14004, 1764, 1241),
    (LOOP, "tage-lsc", False, "B"): (536, 0, 7293, 1447, 0, 1644, 1284),
    (LOOP, "tage-lsc", False, "C"): (547, 547, 7649, 1434, 4705, 1677, 1237),
    (LOOP, "isl-tage", True, "I"): (543, 0, 6983, 1174, 12165, 1863, 0),
    (LOOP, "isl-tage", True, "A"): (560, 2016, 6654, 1355, 12061, 1818, 1719),
    (LOOP, "isl-tage", True, "B"): (548, 0, 6227, 1404, 0, 1602, 1736),
    (LOOP, "isl-tage", True, "C"): (565, 565, 6651, 1435, 4157, 1617, 1726),
    (LOOP, "tage-lsc", True, "I"): (572, 0, 7439, 1161, 14181, 1863, 0),
    (LOOP, "tage-lsc", True, "A"): (584, 2016, 7255, 1344, 14077, 1818, 1719),
    (LOOP, "tage-lsc", True, "B"): (570, 0, 6753, 1384, 0, 1602, 1736),
    (LOOP, "tage-lsc", True, "C"): (572, 572, 7133, 1378, 4757, 1644, 1728),
    (HARD, "always-taken", False, "I"): (627, 0, 0, 0, 0, 0, 0),
    (HARD, "always-taken", False, "C"): (627, 627, 0, 0, 0, 0, 0),
    (HARD, "always-not-taken", False, "I"): (2373, 0, 0, 0, 0, 0, 0),
    (HARD, "always-not-taken", False, "C"): (2373, 2373, 0, 0, 0, 0, 0),
    (HARD, "bimodal", False, "I"): (633, 0, 1068, 1068, 3000, 0, 0),
    (HARD, "bimodal", False, "C"): (622, 622, 1028, 1028, 622, 0, 0),
    (HARD, "gshare", False, "I"): (621, 0, 2548, 2548, 3000, 0, 0),
    (HARD, "gshare", False, "C"): (622, 622, 2548, 2548, 622, 0, 0),
    (HARD, "perceptron", False, "I"): (604, 0, 1326, 1326, 1326, 0, 0),
    (HARD, "perceptron", False, "C"): (597, 597, 1333, 1333, 597, 0, 0),
    (HARD, "gehl", False, "I"): (591, 0, 15132, 1164, 15132, 0, 0),
    (HARD, "gehl", False, "C"): (630, 630, 17101, 1348, 8190, 0, 0),
    (HARD, "ftl", False, "I"): (512, 0, 13580, 970, 13580, 0, 0),
    (HARD, "ftl", False, "C"): (518, 518, 13594, 971, 13594, 0, 0),
    (HARD, "snap", False, "I"): (581, 0, 71576, 1463, 71687, 0, 0),
    (HARD, "snap", False, "C"): (572, 572, 71527, 1462, 71638, 0, 0),
    (HARD, "augmented-tage", False, "I"): (621, 0, 3374, 1418, 4873, 1863, 0),
    (HARD, "augmented-tage", False, "C"): (653, 653, 3519, 1456, 2596, 1968, 331),
    (HARD, "scaled-tage", False, "I"): (621, 0, 3374, 1418, 4873, 1863, 0),
    (HARD, "scaled-tage", False, "C"): (646, 646, 3472, 1440, 2592, 1938, 0),
    (HARD, "scaled-tage-lsc", False, "I"): (561, 0, 8179, 1438, 19873, 1863, 0),
    (HARD, "scaled-tage-lsc", False, "C"): (600, 600, 8623, 1540, 5288, 2028, 331),
    (LOOP, "always-taken", False, "I"): (526, 0, 0, 0, 0, 0, 0),
    (LOOP, "always-taken", False, "C"): (526, 526, 0, 0, 0, 0, 0),
    (LOOP, "always-not-taken", False, "I"): (1490, 0, 0, 0, 0, 0, 0),
    (LOOP, "always-not-taken", False, "C"): (1490, 1490, 0, 0, 0, 0, 0),
    (LOOP, "bimodal", False, "I"): (605, 0, 1000, 1000, 2016, 0, 0),
    (LOOP, "bimodal", False, "C"): (611, 611, 905, 905, 611, 0, 0),
    (LOOP, "gshare", False, "I"): (538, 0, 1943, 1943, 2016, 0, 0),
    (LOOP, "gshare", False, "C"): (540, 540, 1943, 1943, 540, 0, 0),
    (LOOP, "perceptron", False, "I"): (493, 0, 1054, 1054, 1054, 0, 0),
    (LOOP, "perceptron", False, "C"): (497, 497, 1046, 1046, 497, 0, 0),
    (LOOP, "gehl", False, "I"): (534, 0, 13611, 1047, 13611, 0, 0),
    (LOOP, "gehl", False, "C"): (565, 565, 16072, 1262, 7345, 0, 0),
    (LOOP, "ftl", False, "I"): (517, 0, 12978, 927, 12978, 0, 0),
    (LOOP, "ftl", False, "C"): (516, 516, 12922, 923, 12922, 0, 0),
    (LOOP, "snap", False, "I"): (535, 0, 58004, 1188, 58212, 0, 0),
    (LOOP, "snap", False, "C"): (538, 538, 57997, 1188, 58212, 0, 0),
    (LOOP, "augmented-tage", False, "I"): (617, 0, 3209, 1287, 4015, 1851, 0),
    (LOOP, "augmented-tage", False, "C"): (601, 601, 2998, 1244, 2272, 1719, 1264),
    (LOOP, "scaled-tage", False, "I"): (617, 0, 3209, 1287, 4015, 1851, 0),
    (LOOP, "scaled-tage", False, "C"): (559, 559, 2960, 1252, 2382, 1677, 0),
    (LOOP, "scaled-tage-lsc", False, "I"): (524, 0, 7819, 1339, 14095, 1851, 0),
    (LOOP, "scaled-tage-lsc", False, "C"): (547, 547, 7649, 1434, 4705, 1677, 1237),
    (LIVE, "tage", False, "I"): (469, 0, 2295, 884, 3407, 1407, 0),
    (LIVE, "tage", False, "C"): (460, 460, 2253, 872, 1840, 1380, 0),
    (LIVE, "l-tage", False, "I"): (469, 0, 2295, 884, 3407, 1407, 0),
    (LIVE, "l-tage", False, "C"): (460, 460, 2253, 872, 1840, 1380, 0),
    (LIVE, "isl-tage", False, "I"): (466, 0, 5123, 890, 11407, 1407, 0),
    (LIVE, "isl-tage", False, "C"): (474, 474, 5117, 945, 3693, 1392, 557),
    (LIVE, "tage-lsc", False, "I"): (467, 0, 5845, 896, 13407, 1407, 0),
    (LIVE, "tage-lsc", False, "C"): (466, 466, 5852, 955, 4104, 1401, 557),
    (LIVE, "isl-tage", True, "I"): (469, 0, 4909, 888, 11408, 1407, 0),
    (LIVE, "isl-tage", True, "C"): (480, 480, 4968, 930, 3751, 1419, 556),
    (LIVE, "tage-lsc", True, "I"): (469, 0, 5576, 892, 13408, 1407, 0),
    (LIVE, "tage-lsc", True, "C"): (480, 480, 5648, 934, 4231, 1419, 556),
}


def _live_path_trace() -> Trace:
    """2000 branches over 256 random 20-bit PCs, about half of them odd."""
    rng = random.Random(23)
    static = [rng.getrandbits(20) for _ in range(256)]
    pcs, taken = [], []
    for i in range(2000):
        pc = static[rng.getrandbits(8) & rng.getrandbits(8)]
        pcs.append(pc)
        taken.append((pc >> 3) % 5 != i % 3 if rng.getrandbits(4) else bool(rng.getrandbits(1)))
    return Trace(name=LIVE, pcs=pcs, taken=taken, preceding=[3] * len(pcs))


@pytest.fixture(scope="module")
def traces():
    return {HARD: resolve_trace_ref(HARD)[0], LOOP: resolve_trace_ref(LOOP)[0],
            LIVE: _live_path_trace()}


def _expected(ref: str, row: tuple[int, ...]) -> dict:
    branches, instructions = SIZES[ref]
    golden = dict(zip(COLUMNS, row))
    ium_overrides = golden.pop("ium_overrides")
    accesses = {"branches": branches, "fetch_reads": branches, **golden}
    return {
        "branches": branches,
        "instructions": instructions,
        "mispredictions": golden["mispredictions"],
        "accesses": accesses,
        "ium_overrides": ium_overrides,
    }


def _case_id(case: tuple) -> str:
    ref, kind, interleaved, scenario = case
    trace = {HARD: "hard", LOOP: "loop", LIVE: "live"}[ref]
    return f"{trace}-{kind}{'-interleaved' if interleaved else ''}-{scenario}"


def _counts(result) -> dict:
    return {
        "branches": result.branches,
        "instructions": result.instructions,
        "mispredictions": result.mispredictions,
        "accesses": asdict(result.accesses),
        "ium_overrides": result.ium_overrides,
    }


def _spec(kind: str, interleaved: bool) -> PredictorSpec:
    return PredictorSpec(kind, {"interleaved": True} if interleaved else {})


@pytest.mark.parametrize("case", list(GOLDEN), ids=_case_id)
def test_golden_counts(traces, case):
    ref, kind, interleaved, scenario = case
    result = SimulationEngine(_spec(kind, interleaved).build(), UpdateScenario(scenario)).run(
        traces[ref]
    )
    assert _counts(result) == _expected(ref, GOLDEN[case])


#: Every golden row a ``numpy`` selection runs on a kernel: the numpy scan
#: takes bimodal and gshare under [I]; their delayed rows, the neural
#: kinds and plain TAGE have no numpy kernel and fall back to the native
#: one (no numpy kernel takes ``interleaved``).
NUMPY_CASES = [
    case for case in GOLDEN
    if not case[2] and case[1] in ("bimodal", "gshare", "perceptron", "gehl", "tage")
]


@pytest.mark.parametrize("case", NUMPY_CASES, ids=_case_id)
def test_numpy_golden_counts(traces, case, on_kernel):
    ref, kind, interleaved, scenario = case
    (result,) = on_kernel(
        [(_spec(kind, interleaved), traces[ref], UpdateScenario(scenario), PipelineConfig())],
        "numpy",
    )
    assert _counts(result) == _expected(ref, GOLDEN[case])


#: Every golden row the native kernel runs: the whole TAGE family under
#: every scenario (interleaved rows and the live-path trace included), the
#: static baselines, the two-bit tables, the perceptron and GEHL.
NATIVE_CASES = [case for case in GOLDEN if "native" in backend_support(case[1])]


@pytest.mark.parametrize("case", NATIVE_CASES, ids=_case_id)
def test_native_golden_counts(traces, case):
    ref, kind, interleaved, scenario = case
    (result,) = get_backend("native").run_tasks(
        [(_spec(kind, interleaved), traces[ref])], UpdateScenario(scenario), PipelineConfig()
    )
    assert _counts(result) == _expected(ref, GOLDEN[case])


@pytest.mark.parametrize(
    "kind, interleaved",
    [("tage", False), ("l-tage", False), ("isl-tage", False), ("isl-tage", True),
     ("tage-lsc", False), ("tage-lsc", True), ("gshare", False), ("bimodal", False),
     ("perceptron", False), ("gehl", False)],
)
def test_native_supports_the_default_specs(kind, interleaved):
    """Without this, a kernel that declines everything passes parity trivially."""
    native = get_backend("native")
    for scenario in UpdateScenario:
        assert native.supports(_spec(kind, interleaved), scenario, PipelineConfig())


def test_native_runs_concurrently_from_several_threads(traces):
    """Threads running the same spec at once (as two in-process fleet
    workers do) each get the golden row: every call owns its state."""
    case = (HARD, "tage-lsc", False, "C")
    spec, scenario = _spec("tage-lsc", False), UpdateScenario.REREAD_ON_MISPREDICTION
    native = get_backend("native")
    barrier = threading.Barrier(4)
    results, lock = [], threading.Lock()

    def run() -> None:
        barrier.wait(timeout=30)
        for _ in range(5):
            (result,) = native.run_tasks([(spec, traces[HARD])], scenario, PipelineConfig())
            with lock:
                results.append(result)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run) for _ in range(4)]  # more than the cores
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(results) == 20
    assert all(_counts(result) == _expected(HARD, GOLDEN[case]) for result in results)
