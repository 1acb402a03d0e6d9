"""The cycledual benchmark.

    python3 perfbench/run.py --workload {ladder,factor,distance} --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  One closed-loop client runs the
workload's operations one at a time, each in a fresh interpreter
(child.py), and repeats the whole list until ``--seconds`` have passed
(always at least once).  Every output is compared with the goldens captured
at the seed commit (goldens.json); an operation that exits nonzero, times
out or differs counts as failed.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

With ``--trace 0`` the metrics are the end-to-end ones: ``pass_s`` (median
over passes of the summed time inside the calls), ``setup_s`` (median over
processes of interpreter start plus import) and ``peak_rss_mb``.  With
``--trace 1`` one untraced pass is followed by traced passes, and the
metrics are the per-layer ones of tracing.py, including the tracing
overhead.  Run records and the raw spans of the last
traced pass go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import tracing  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, Op, Workload  # noqa: E402

OP_TIMEOUT_S = 120.0
RUN_DEADLINE_S = 170.0  # a run exits within 180 s even if operations hang
GOLDENS = BENCH_DIR / "goldens.json"
OUT_DIR = BENCH_DIR / "out"

_SAMPLED = re.compile(r"d ≤ (\d+) \(sampled, (\d+) trials, seed (-?\d+)\)\n")


def sha256(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


@dataclass
class Record:
    """Outcome of one operation; ``status`` is "ok" or why it failed."""

    op: str
    status: str
    seconds: float
    setup_s: float | None = None
    maxrss_kb: int = 0
    outputs: dict = field(default_factory=dict)  # stdout and files, for goldens
    trace: dict | None = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"


class Runner:
    """Runs operations in fresh interpreters inside one scratch directory."""

    def __init__(
        self, work: Path, seed: int, goldens: dict | None, deadline_s: float = RUN_DEADLINE_S
    ):
        self.work = work
        self.seed = seed
        self.goldens = goldens  # None while capturing
        self.deadline = time.monotonic() + deadline_s
        # the goldens were captured with the default enumeration budget
        self.env = {k: v for k, v in os.environ.items() if k != "CYCLEDUAL_BUDGET"}
        self.records: list[Record] = []

    def run(self, op: Op, trace: bool) -> Record:
        for path, source in op.fresh:
            (self.work / path).unlink(missing_ok=True)
            if source is not None:
                if not (self.work / source).exists():  # an earlier operation failed
                    return self._record(Record(op.name, f"missing input {source}", 0.0))
                shutil.copyfile(self.work / source, self.work / path)
        request = {
            "argv": [a.replace("{seed}", str(self.seed)) for a in op.argv],
            "library": list(op.library),
            "trace": trace,
        }
        req_path, res_path = self.work / "request.json", self.work / "result.json"
        req_path.write_text(json.dumps(request), encoding="utf-8")
        res_path.unlink(missing_ok=True)
        timeout = max(0.0, min(OP_TIMEOUT_S, self.deadline - time.monotonic()))
        spawned = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "child.py"), str(req_path), str(res_path)],
            cwd=self.work,
            env=self.env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            _, stderr = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return self._record(Record(op.name, "timeout", time.monotonic() - spawned))
        finally:
            if proc.poll() is None:  # interrupted: leave no child behind
                proc.kill()
                proc.wait()
        wall = time.monotonic() - spawned
        if not res_path.exists():
            tail = stderr.strip().splitlines()[-1:] or ["no output"]
            status = f"crashed (exit {proc.returncode}): {tail[0]}"
            return self._record(Record(op.name, status, wall))
        result = json.loads(res_path.read_text(encoding="utf-8"))
        outputs = {"rc": result["rc"], "stdout": result["stdout"], "files": {}}
        for path in op.files:
            p = self.work / path
            text = p.read_text(encoding="utf-8", errors="replace") if p.exists() else None
            outputs["files"][path] = text
        rec = Record(
            op.name,
            "ok",
            result["seconds"],
            setup_s=result["ready"] - spawned,
            maxrss_kb=result["maxrss_kb"],
            outputs=outputs,
            trace=result.get("trace"),
        )
        if self.goldens is not None:
            rec.status = check_golden(op, outputs, self.goldens.get(op.name), self.seed)
        return self._record(rec)

    def _record(self, rec: Record) -> Record:
        self.records.append(rec)
        print(f"{rec.op:28s} {rec.seconds:9.3f} s  {rec.status}", file=sys.stderr, flush=True)
        return rec


def golden_of(op: Op, outputs: dict, seed: int) -> dict:
    """The golden entry for outputs captured at ``seed``."""
    entry = {
        "rc": outputs["rc"],
        "stdout_sha256": sha256(outputs["stdout"]),
        "files": {k: (None if v is None else sha256(v)) for k, v in outputs["files"].items()},
    }
    if op.seeded:
        (path,) = op.files
        value = int(_SAMPLED.fullmatch(outputs["stdout"]).group(1))
        entry.update(seed=seed, value=value, file_text=outputs["files"][path])
    return entry


def check_golden(op: Op, outputs: dict, golden: dict | None, seed: int) -> str:
    """ "ok", or the first way in which the outputs differ from the golden."""
    if golden is None:
        return "no golden"
    if outputs["rc"] != golden["rc"]:
        return f"exit {outputs['rc']}, golden {golden['rc']}"
    if op.seeded and seed != golden["seed"]:
        return _check_seeded(op, outputs, golden, seed)
    if sha256(outputs["stdout"]) != golden["stdout_sha256"]:
        return "stdout differs from golden"
    for path, digest in golden["files"].items():
        text = outputs["files"].get(path)
        if (None if text is None else sha256(text)) != digest:
            return f"{path} differs from golden"
    return "ok"


def _check_seeded(op: Op, outputs: dict, golden: dict, seed: int) -> str:
    """A sampled distance at another seed: a bound no smaller than the
    certificate's floor, exactly the requested trials, and the golden
    certificate with only the distance value changed."""
    m = _SAMPLED.fullmatch(outputs["stdout"])
    if m is None:
        return "stdout is not a sampled-distance report"
    value, trials, got_seed = map(int, m.groups())
    want_trials = int(op.argv[op.argv.index("--trials") + 1])
    if trials != want_trials or got_seed != seed:
        return f"reported {trials} trials at seed {got_seed}, asked {want_trials} at {seed}"
    floor = int(re.search(r"^floor_min = (\d+)$", golden["file_text"], re.M).group(1))
    if value < floor:
        return f"sampled bound {value} below floor_min {floor}"
    (path,) = op.files
    want = golden["file_text"].replace(
        f"distance_value = {golden['value']}\n", f"distance_value = {value}\n"
    )
    if outputs["files"].get(path) != want:
        return f"{path} differs from golden"
    return "ok"


def run_pass(runner: Runner, workload: Workload, trace: bool) -> list[Record]:
    return [runner.run(op, trace) for op in workload.ops]


def run_passes(
    runner: Runner, workload: Workload, seconds: float, trace: bool
) -> list[list[Record]]:
    """Repeat passes until ``seconds`` have passed; at least one."""
    end = time.monotonic() + seconds
    passes = [run_pass(runner, workload, trace)]
    while time.monotonic() < min(end, runner.deadline):
        passes.append(run_pass(runner, workload, trace))
    return passes


def pass_time(records: list[Record]) -> float:
    return sum(r.seconds for r in records)


def end_to_end(runner: Runner, passes: list[list[Record]]) -> dict:
    setups = [r.setup_s for r in runner.records if r.setup_s is not None]
    return {
        "pass_s": (statistics.median(pass_time(p) for p in passes), "s"),
        "setup_s": (statistics.median(setups) if setups else 0.0, "s"),
        "peak_rss_mb": (max(r.maxrss_kb for r in runner.records) / 1024, "MB"),
    }


def per_layer(workload: Workload, runner: Runner, seconds: float) -> tuple[dict, list[Record]]:
    base = pass_time(run_pass(runner, workload, trace=False))
    traced = run_passes(runner, workload, seconds, trace=True)
    per_pass = [
        tracing.pass_metrics([r.trace for r in p if r.trace], pass_time(p) - base)
        for p in traced
    ]
    metrics = tracing.median_metrics(per_pass)
    return {k: (v, tracing.PER_LAYER[k][0]) for k, v in metrics.items()}, traced[-1]


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def check_checkout() -> None:
    """The children import the package from the checkout holding perfbench."""
    if not (BENCH_DIR.parent / "src" / "cycledual" / "__init__.py").is_file():
        raise SystemExit(f"error: no src/cycledual next to {BENCH_DIR}; run from a full checkout")


def main(argv=None) -> int:
    args = parse_args(argv)
    check_checkout()
    workload = WORKLOADS[args.workload]
    goldens = json.loads(GOLDENS.read_text(encoding="utf-8"))["ops"]
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="work-", dir=OUT_DIR) as work:
        runner = Runner(Path(work), args.seed, goldens)
        for op in workload.prep:
            runner.run(op, trace=False)
        if args.trace:
            metrics, last = per_layer(workload, runner, args.seconds)
            spans = {r.op: r.trace for r in last if r.trace}
            (OUT_DIR / f"trace-{workload.name}-{args.seed}.json").write_text(
                json.dumps(spans), encoding="utf-8"
            )
        else:
            metrics = end_to_end(runner, run_passes(runner, workload, args.seconds, False))
    records = runner.records
    failed = sum(not r.ok for r in records)
    log = [{"op": r.op, "status": r.status, "seconds": r.seconds} for r in records]
    (OUT_DIR / f"run-{workload.name}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(log, indent=1), encoding="utf-8"
    )
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.6g} {unit}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
