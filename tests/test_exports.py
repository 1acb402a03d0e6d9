"""Every name in a cycledual module's __all__ resolves, so ``from cycledual
import *`` and tools that walk the exports never meet a stale name.  The
names that the benchmark harness (perfbench/) and the README's library
example reach are checked here too, so deleting one fails these tests
rather than only a benchmark run.  The other way round, every exported
function but one lemma is reached by some command, so no public check lives
on beside the one that production runs."""

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


# Every command on small cells, under the tracer; prints the exported
# functions that recorded no span.
_COMMAND_SPANS = """
import sys

from tracing import Tracer

tracer = Tracer()
tracer.install()
import cycledual
from cycledual.cli import main

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
for argv in commands:
    assert main(argv) == 0, argv
spanned = {tracer.names[span[0]] for span in tracer.spans}
for name in cycledual.__all__:
    fn = getattr(cycledual, name)
    if callable(fn) and not isinstance(fn, type):
        if f"{fn.__module__.rsplit('.', 1)[1]}.{name}" not in spanned:
            print("unreached", name, file=sys.stderr)
"""


def test_every_exported_function_is_reached_by_a_command(tmp_path):
    # gcd_lemma is the paper's lemma, checked by acceptance criterion 7; every
    # other exported function must be on some command's path, so no public
    # check lives on beside the one that production runs
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "perfbench"), str(ROOT / "src")]))
    proc = subprocess.run(
        [sys.executable, "-c", _COMMAND_SPANS],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    unreached = [line for line in proc.stderr.splitlines() if line.startswith("unreached ")]
    assert unreached == ["unreached gcd_lemma"]


def test_readme_library_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
