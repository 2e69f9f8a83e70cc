"""Building and loading the native kernel: caching, races, failure, laziness, flags.

The library is compiled on first use into ``__pycache__`` beside
``kernel.c`` (or a per-user temp directory) and published by atomic
rename.  These tests point the build at scratch directories through the
module's own ``_build_dirs`` / ``_COMPILER`` / ``_SOURCE`` names, never
at the shared cache.
"""

from __future__ import annotations

import logging
import os
import pickle
import subprocess
import sys
import tempfile

import pytest

from repro.api import Runner, RunnerConfig, RunRequest
from repro.backends import get_backend, live_backends
from repro.backends import native
from repro.obs import MetricsRegistry, set_metrics

REF = "hard:INT01?branches=1500&seed=3"
SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")

#: Loads the library with the build pointed at argv[1]; prints its path.
LOAD = """
import sys
from repro.backends import native
native._build_dirs = lambda: [sys.argv[1]]
library = native._library()
print(library._name if library is not None else "unavailable")
"""


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return env


def test_racing_builders_load_the_same_library(tmp_path):
    build_dir = str(tmp_path / "build")
    children = [
        subprocess.Popen([sys.executable, "-c", LOAD, build_dir], stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE, text=True, env=_child_env())
        for _ in range(2)
    ]
    outputs = [child.communicate(timeout=120) for child in children]
    assert [child.returncode for child in children] == [0, 0], outputs
    paths = {out.strip() for out, _ in outputs}
    (path,) = paths
    assert os.path.dirname(path) == build_dir
    assert os.listdir(build_dir) == [os.path.basename(path)]  # no partial files left


@pytest.fixture
def fresh_native(monkeypatch, tmp_path):
    """The native module with no library loaded, building into ``tmp_path``."""
    monkeypatch.setattr(native, "_library_state", None)
    monkeypatch.setattr(native, "_build_dirs", lambda: [str(tmp_path / "build")])
    records = []
    logger = logging.getLogger("repro.test-native-build")
    logger.propagate = False
    logger.setLevel(logging.WARNING)
    handler = logging.Handler()
    handler.emit = records.append
    logger.addHandler(handler)
    monkeypatch.setattr(native, "_LOG", logger)
    yield records
    logger.removeHandler(handler)


def test_failing_compiler_falls_back_to_interp(monkeypatch, fresh_native):
    """Simulations run on the interpreter and traces on the Python loop."""
    monkeypatch.setattr(native, "_COMPILER",
                        [sys.executable, "-c", "import sys; sys.exit('cc: no such thing')"])
    backend = get_backend("native")
    assert not backend.available()
    assert not backend.available()
    assert "native" not in live_backends()
    (record,) = fresh_native  # one warning, however often availability is probed
    assert record.levelno == logging.WARNING
    request = RunRequest("tage", REF, scenario="C")
    registry = MetricsRegistry()
    previous = set_metrics(registry)
    try:
        default = Runner(RunnerConfig(workers=1)).run(request)
    finally:
        set_metrics(previous)
    routes = registry.counter("repro_sched_tasks_total", "", ("route",))
    assert routes.value(route="interp") == 1 and routes.value(route="kernel") == 0
    generated = registry.counter("repro_trace_generated_branches_total", "", ("path",))
    assert generated.value(path="python") > 0 and generated.value(path="native") == 0
    reference = Runner(RunnerConfig(workers=1, backend="interp")).run(request)
    assert pickle.dumps(default) == pickle.dumps(reference)


def test_unusable_pycache_falls_back_to_a_per_user_temp_dir(monkeypatch, tmp_path):
    """``__pycache__`` beside the source is not a directory we can use."""
    package = tmp_path / "package"
    package.mkdir()
    (package / "kernel.c").write_bytes(open(native._SOURCE, "rb").read())
    (package / "__pycache__").write_text("not a directory")
    monkeypatch.setattr(native, "_SOURCE", str(package / "kernel.c"))
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
    os.makedirs(tempfile.tempdir)
    path = native._build()
    assert os.path.dirname(path) == native._build_dirs()[1]
    assert os.path.dirname(path).startswith(str(tmp_path / "tmp" / "repro-native-"))
    assert native._build() == path  # cached: found, not rebuilt


def test_import_builds_and_loads_nothing():
    probe = ("import repro, repro.api.cli, repro.backends\n"
             "from repro.backends import native\n"
             "print(native._library_state)\n")
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            env=_child_env(), timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "None"


def test_extra_cflags_are_compiled_in_and_hashed(monkeypatch, tmp_path):
    """``REPRO_NATIVE_CFLAGS`` joins the compile command and its hash, so
    a sanitized build never reuses (or replaces) the plain library."""
    commands = []

    def compile_command(command, **_):
        commands.append(command)
        open(command[command.index("-o") + 1], "wb").close()

    monkeypatch.setattr(native.subprocess, "run", compile_command)
    monkeypatch.setattr(native, "_build_dirs", lambda: [str(tmp_path)])
    monkeypatch.delenv(native.ENV_CFLAGS, raising=False)
    plain = native._build()
    monkeypatch.setenv(native.ENV_CFLAGS, " -O1  -fsanitize=address ")
    sanitized = native._build()
    assert plain != sanitized
    assert [command[:command.index("-o")] for command in commands] == [
        native._COMPILER, [*native._COMPILER, "-O1", "-fsanitize=address"]]
    assert native._build() == sanitized  # cached: found, not rebuilt
    assert len(commands) == 2
