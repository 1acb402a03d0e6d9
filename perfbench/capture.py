"""Capture the benchmark's goldens and environment record.

    python3 perfbench/capture.py

Run from the root of a checkout of the commit whose outputs are the
reference.  Runs every operation of every workload once, untraced, at the
default seed, and writes goldens.json (exit code, stdout digest and output
file digests per operation) and meta.json (where the goldens were taken,
why each workload exists, and which end-to-end metric each layer metric
should move).  Goldens fix the outputs a later change must reproduce byte
for byte, so capture them again only when adding operations.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

from run import BENCH_DIR, GOLDENS, OUT_DIR, Runner, check_checkout, golden_of
from tracing import LAYERS, PER_LAYER
from workloads import DEFAULT_SEED, WORKLOADS

# Layer -> the end-to-end metrics, and the workloads, its per-layer metrics should move.
SHOULD_MOVE = {
    "linalg": "pass_s on ladder; zero on factor",
    "construct": "pass_s on ladder",
    "cyclic": "pass_s on ladder",
    "poly": "pass_s on factor; pass_s on ladder, in verify through Horner evaluation",
    "cyclo": "pass_s on factor and ladder",
    "gf": "pass_s on factor and ladder",
    "certificate": "pass_s on ladder (a guard; about 1 ms per call)",
    "distance": "pass_s on distance; zero on ladder and factor",
    "cli": "setup_s and every _s metric",
}


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            models = [ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")]
        cpu = models[0] if models else cpu
    except OSError:
        pass
    numpy = subprocess.run(
        [sys.executable, "-c", "import numpy; print(numpy.__version__)"],
        capture_output=True, text=True, check=True,
    ).stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy,
    }


def main() -> int:
    check_checkout()
    goldens = {}
    OUT_DIR.mkdir(exist_ok=True)
    for workload in WORKLOADS.values():
        with tempfile.TemporaryDirectory(prefix="capture-", dir=OUT_DIR) as work:
            runner = Runner(Path(work), DEFAULT_SEED, None, deadline_s=float("inf"))
            for op in workload.prep + workload.ops:
                rec = runner.run(op, trace=False)
                if not rec.ok or rec.outputs["rc"] != 0:
                    print(f"error: {op.name} failed ({rec.status})", file=sys.stderr)
                    return 1
                goldens[op.name] = golden_of(op, rec.outputs, DEFAULT_SEED)
    text = json.dumps({"ops": goldens}, indent=1, sort_keys=True) + "\n"
    GOLDENS.write_text(text, encoding="utf-8")
    meta = {
        "environment": environment(),
        "client": "closed loop, one client, one operation at a time, each in a fresh interpreter",
        "workloads": {w.name: w.why for w in WORKLOADS.values()},
        "layers": {
            layer: {
                "metrics": [m for m in PER_LAYER if m.split(".")[0] == layer],
                "should_move": SHOULD_MOVE[layer],
            }
            for layer in LAYERS
        },
    }
    (BENCH_DIR / "meta.json").write_text(json.dumps(meta, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
