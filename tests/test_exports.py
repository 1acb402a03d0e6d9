"""Every name in a cycledual module's __all__ resolves, so ``from cycledual
import *`` and tools that walk the exports never meet a stale name.  The
names that the benchmark harness (perfbench/) and the README's library
example reach are checked here too, so deleting one fails these tests
rather than only a benchmark run."""

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


def test_readme_library_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
