"""Run one benchmark operation in a fresh interpreter.

    python3 perfbench/child.py REQUEST.json RESULT.json

REQUEST holds {"argv": [...]} for a CLI call or {"library": [...]} for a
direct library call, and "trace".  The package is imported from the
checkout's ``src``.  RESULT receives the monotonic time at which importing
the package and its CLI finished, the exit code, the captured stdout, the
time spent in the call, the peak RSS and, when traced, the spans.  Inputs
that a library call needs are built before the call is timed or traced.
"""

import os
import sys
import time

CHECKOUT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(CHECKOUT, "src"))
import cycledual.cli  # noqa: E402

READY = time.monotonic()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402


def _library_call(spec):
    """Build the code named by ``spec`` and return a call that measures it."""
    fn, kind, s, m, mu, which = spec
    if fn != "exact_min_distance":
        raise ValueError(f"unknown library call {fn!r}")
    params = cycledual.family_parameters(kind, s, m, mu)
    field, n = params.alphabet, params.n_inner
    code = cycledual.CyclicCode.from_defining_set(
        field, n, cycledual.bch_defining_set(n, field.order, params.b_default)
    )
    if which == "dual":
        code = code.dual(kind)
    basis = code.generator_matrix()

    def call():
        # looked up at call time, so a traced run sees the wrapped function
        report = cycledual.distance.exact_min_distance(field, basis)
        print(f"[{n}, {code.k}] d = {report.value} (exact, {report.enumerated} codewords)")
        return 0

    return call


def main() -> None:
    with open(sys.argv[1], encoding="utf-8") as fh:
        request = json.load(fh)
    if request["library"]:
        call = _library_call(request["library"])
    else:
        def call():
            return cycledual.cli.main(request["argv"])

    tracer = None
    if request["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        start = time.perf_counter()
        rc = call()
        seconds = time.perf_counter() - start
    result = {
        "ready": READY,
        "rc": rc,
        "seconds": seconds,
        "stdout": out.getvalue(),
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result["trace"] = tracer.dump()
    with open(sys.argv[2], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
