"""Every name in a cycledual module's __all__ resolves, so ``from cycledual
import *`` and tools that walk the exports never meet a stale name.  The
names that the benchmark harness (perfbench/) and the README's library
example reach are checked here too, so deleting one fails these tests
rather than only a benchmark run.  The other way round, every exported
function but one lemma is reached by some command, so no public check lives
on beside the one that production runs; and every public method of the core
classes is reached by some command too, or is on a short list of names that
the benchmark or one edge case needs, so no unused scalar API lives on."""

import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import cycledual

ROOT = Path(__file__).resolve().parents[1]

MODULES = ["cycledual"] + [
    f"cycledual.{info.name}" for info in pkgutil.iter_modules(cycledual.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []
    assert len(set(module.__all__)) == len(module.__all__)


# The tracer wraps every layer's __all__ and the class methods in its METHODS
# table, which raises on a missing one; each library operation of a workload
# builds its code and basis before it is timed.
_BENCHMARK_NAMES = """
import child
from tracing import Tracer
from workloads import WORKLOADS

Tracer().install()
assert callable(child.cycledual.CyclicCode.generator_matrix)
for workload in WORKLOADS.values():
    for op in workload.ops:
        if op.library:
            call = child._library_call(op.library)
            if workload.name == "smoke":
                assert call() == 0
"""


def test_names_the_benchmark_reaches_exist():
    # Tracer.install patches classes, so it runs in a process of its own
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "perfbench"), str(ROOT / "src")]))
    proc = subprocess.run(
        [sys.executable, "-c", _BENCHMARK_NAMES],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "d = 3 (exact, 15 codewords)" in proc.stdout  # the smoke [7, 4] Hamming code


# Every command on small cells, under the tracer and a profile hook; prints
# the exported functions that recorded no span and the public methods and
# properties of the core classes whose code never ran.  The methods' code is
# read before the tracer wraps some of them; the wrappers call it.
_COMMAND_SPANS = """
import sys

from cycledual.cyclic import CyclicCode, RootContext
from cycledual.cyclo import CosetTable, DefiningSet
from cycledual.gf import Field
from cycledual.poly import Poly

methods = {}
for cls in (Field, Poly, CyclicCode, DefiningSet, RootContext, CosetTable):
    for attr, raw in vars(cls).items():
        if attr.startswith("_"):
            continue
        fn = getattr(raw, "__func__", None) or getattr(raw, "fget", None) or raw
        fn = getattr(fn, "func", fn)  # functools.cached_property
        if hasattr(fn, "__code__"):
            methods[fn.__code__] = f"{cls.__name__}.{attr}"

from tracing import Tracer

tracer = Tracer()
tracer.install()
import cycledual
from cycledual.cli import main

ran = set()


def profile(frame, event, arg):
    if event == "call":
        ran.add(frame.f_code)


commands = [
    ["construct", "--kind", "euclidean", "--s", "1", "--m", "3", "--mu", "1", "--out", "e.txt"],
    ["construct", "--kind", "hermitian", "--s", "1", "--m", "3", "--mu", "3", "--out", "h.txt"],
    ["verify", "e.txt"],
    ["verify", "h.txt"],
    ["distance", "e.txt", "--method", "exhaustive"],
    ["distance", "h.txt", "--method", "sampled", "--trials", "100"],
    ["table", "--kind", "euclidean", "--s", "1", "--m-max", "3"],
    ["factor", "--q", "4", "--n", "21"],
]
sys.setprofile(profile)
for argv in commands:
    assert main(argv) == 0, argv
sys.setprofile(None)
for code in methods.keys() - ran:
    print("unreached-method", methods[code], file=sys.stderr)
spanned = {tracer.names[span[0]] for span in tracer.spans}
for name in cycledual.__all__:
    fn = getattr(cycledual, name)
    if callable(fn) and not isinstance(fn, type):
        if f"{fn.__module__.rsplit('.', 1)[1]}.{name}" not in spanned:
            print("unreached", name, file=sys.stderr)
"""


@pytest.fixture(scope="module")
def command_stderr(tmp_path_factory):
    """The stderr of every command run under the tracer and the profile hook."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "perfbench"), str(ROOT / "src")]))
    proc = subprocess.run(
        [sys.executable, "-c", _COMMAND_SPANS],
        cwd=tmp_path_factory.mktemp("commands"), env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stderr.splitlines()


def test_every_exported_function_is_reached_by_a_command(command_stderr):
    # every exported function must be on some command's path, so no public
    # check lives on beside the one that production runs
    unreached = [line for line in command_stderr if line.startswith("unreached ")]
    assert unreached == []


# Public methods and properties that no command runs, each with its reason.
UNREACHED_METHODS = {
    "CyclicCode.from_generator": "perfbench/tracing.py METHODS wraps it",
    "CyclicCode.generator_matrix": "perfbench/child.py's distance ops call it",
    "Poly.eval": "perfbench/tracing.py METHODS wraps it",
    "Poly.monic": "from_generator, which the benchmark reaches, calls it",
    "Poly.zero": "divrem's quotient by a longer divisor, which no command meets",
}


def test_every_public_method_is_reached_by_a_command(command_stderr):
    unreached = sorted(
        line.removeprefix("unreached-method ")
        for line in command_stderr
        if line.startswith("unreached-method ")
    )
    assert unreached == sorted(UNREACHED_METHODS)


def test_readme_library_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
