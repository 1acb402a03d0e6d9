"""Outside-in tracing of the cycledual layers for the benchmark.

The program carries no spans of its own yet, so a traced benchmark process
wraps each layer's public functions (the names in the module's ``__all__``,
plus the hot class methods listed in ``METHODS``) from the outside.  A
function imported by name into another module (``cyclic`` and ``cli`` import
``minimal_polynomial`` and ``build_family`` directly) is replaced in every
``cycledual`` namespace that holds it, so calls through any of them are seen.

Each call records a span ``[name, start, end, parent]`` in memory; the spans
are written out once the process is done.  ``Field.mul`` is counted but not
spanned: it runs tens of millions of times on the ``factor`` workload, and
its time stays in the self time of its caller.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time

LAYERS = ("gf", "cyclo", "poly", "cyclic", "linalg", "construct", "certificate", "distance", "cli")

# (layer, class, attribute, span name): work that lives on classes, so the
# module's __all__ does not reach it.
METHODS = (
    ("poly", "Poly", "__mul__", "poly.mul"),
    ("poly", "Poly", "divrem", "poly.divrem"),
    ("poly", "Poly", "eval", "poly.eval"),
    ("cyclic", "CyclicCode", "from_defining_set", "cyclic.from_defining_set"),
    ("cyclic", "CyclicCode", "from_generator", "cyclic.from_generator"),
    ("cyclic", "CyclicCode", "dual", "cyclic.dual"),
    ("cyclic", "CyclicCode", "is_dual_containing", "cyclic.is_dual_containing"),
)

_EXACT = "distance.exact_min_distance"
_SAMPLED = "distance.sampled_weight_upper_bound"

# Per-layer metrics: name -> (unit, better, source).  A source is
# ("self", span) for summed self time, ("calls", span) for the exact call
# count, ("layer", layer) for the layer's total self time, ("counter", name),
# ("rate", span) for codewords per second of self time, ("overhead", "") for
# the traced pass time minus the untraced one, or ("spans", "") for the span
# count.
PER_LAYER: dict[str, tuple[str, str, tuple[str, str]]] = {}


def _add(name: str, unit: str, better: str, source: tuple[str, str]) -> None:
    PER_LAYER[name] = (unit, better, source)


for _layer in LAYERS:
    _add(f"{_layer}.self_s", "s", "lower", ("layer", _layer))
for _fn in ("rref", "reduce_rows", "mat_mul", "poly_remainder_rows", "elementwise_mul"):
    _add(f"linalg.{_fn}_s", "s", "lower", ("self", f"linalg.{_fn}"))
    _add(f"linalg.{_fn}_calls", "count", "lower", ("calls", f"linalg.{_fn}"))
for _fn in (
    "verify_self_dual",
    "verify_van_lint_equivalence",
    "check_code_automorphism",
    "repeated_root_generator",
    "build_family",
):
    _add(f"construct.{_fn}_s", "s", "lower", ("self", f"construct.{_fn}"))
for _fn in ("from_defining_set", "from_generator", "dual", "is_dual_containing"):
    _add(f"cyclic.{_fn}_s", "s", "lower", ("self", f"cyclic.{_fn}"))
_add("cyclic.dual_calls", "count", "lower", ("calls", "cyclic.dual"))
for _fn in ("mul", "divrem", "eval"):
    _add(f"poly.{_fn}_s", "s", "lower", ("self", f"poly.{_fn}"))
    _add(f"poly.{_fn}_calls", "count", "lower", ("calls", f"poly.{_fn}"))
_add("cyclo.minimal_polynomial_s", "s", "lower", ("self", "cyclo.minimal_polynomial"))
_add("cyclo.minimal_polynomial_calls", "count", "lower", ("calls", "cyclo.minimal_polynomial"))
_add("gf.mul_calls", "count", "lower", ("counter", "gf.mul_calls"))
_add("gf.extension_s", "s", "lower", ("self", "gf.extension_with_embedding"))
_add("certificate.dumps_s", "s", "lower", ("self", "certificate.dumps"))
_add("certificate.loads_s", "s", "lower", ("self", "certificate.loads"))
_add("certificate.bytes", "count", "lower", ("counter", "certificate.bytes"))
_add("distance.exact_min_distance_s", "s", "lower", ("self", _EXACT))
_add("distance.sampled_weight_upper_bound_s", "s", "lower", ("self", _SAMPLED))
_add("distance.codewords", "count", "lower", ("counter", "distance.codewords"))
_add("distance.exhaustive_cw_per_s", "1/s", "higher", ("rate", _EXACT))
_add("distance.sampled_cw_per_s", "1/s", "higher", ("rate", _SAMPLED))
_add("cli.main_s", "s", "lower", ("self", "cli.main"))
_add("trace.overhead_s", "s", "lower", ("overhead", ""))
_add("trace.spans", "count", "lower", ("spans", ""))


class Tracer:
    """Spans and counters of one traced process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[list] = []
        self.counters: dict[str, int] = {
            "gf.mul_calls": 0,
            "certificate.bytes": 0,
            "distance.codewords": 0,
            f"{_EXACT}.codewords": 0,
            f"{_SAMPLED}.codewords": 0,
        }
        self._stack = [-1]

    def wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        count = self._counter_for(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [nid, clock(), 0.0, stack[-1]]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                count(args, result)
            return result

        return traced

    def _counter_for(self, name: str):
        counters = self.counters
        if name == "certificate.dumps":
            def count(args, result):
                counters["certificate.bytes"] += len(result)
        elif name == "certificate.loads":
            def count(args, result):
                counters["certificate.bytes"] += len(args[0])
        elif name in (_EXACT, _SAMPLED):
            def count(args, result):
                counters["distance.codewords"] += result.enumerated
                counters[f"{name}.codewords"] += result.enumerated
        else:
            count = None
        return count

    def install(self) -> None:
        """Wrap every layer's public functions in all cycledual namespaces."""
        modules = {layer: importlib.import_module(f"cycledual.{layer}") for layer in LAYERS}
        namespaces = [
            mod for key, mod in list(sys.modules.items())
            if key == "cycledual" or key.startswith("cycledual.")
        ]
        for layer, mod in modules.items():
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if isinstance(fn, type) or not callable(fn):
                    continue
                traced = self.wrap(f"{layer}.{attr}", fn)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is fn:
                            setattr(ns, key, traced)
        for layer, cls_name, attr, name in METHODS:
            cls = getattr(modules[layer], cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(self.wrap(name, raw.__func__)))
            else:
                setattr(cls, attr, self.wrap(name, raw))
        field_cls = modules["gf"].Field
        field_mul = field_cls.mul
        counters = self.counters

        def mul(field, a, b):
            counters["gf.mul_calls"] += 1
            return field_mul(field, a, b)

        field_cls.mul = mul

    def dump(self) -> dict:
        return {"names": self.names, "spans": self.spans, "counters": self.counters}


def self_times(trace: dict) -> dict[str, tuple[float, int]]:
    """Span name -> (summed self time, call count).  A span's self time is
    its duration minus the durations of the spans it directly caused."""
    spans = trace["spans"]
    children = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            children[parent] += end - start
    out: dict[str, tuple[float, int]] = {}
    for i, (nid, start, end, _) in enumerate(spans):
        name = trace["names"][nid]
        total, calls = out.get(name, (0.0, 0))
        out[name] = (total + (end - start) - children[i], calls + 1)
    return out


def pass_metrics(traces: list[dict], overhead_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass over a workload's operations."""
    times: dict[str, list[float]] = {}
    counters: dict[str, int] = {}
    n_spans = 0
    for trace in traces:
        n_spans += len(trace["spans"])
        for name, (self_s, calls) in self_times(trace).items():
            acc = times.setdefault(name, [0.0, 0])
            acc[0] += self_s
            acc[1] += calls
        for key, value in trace["counters"].items():
            counters[key] = counters.get(key, 0) + value
    out: dict[str, float] = {}
    for metric, (_, _, (kind, key)) in PER_LAYER.items():
        if kind == "self":
            value = times.get(key, [0.0, 0])[0]
        elif kind == "calls":
            value = times.get(key, [0.0, 0])[1]
        elif kind == "layer":
            value = sum(t for name, (t, _) in times.items() if name.split(".")[0] == key)
        elif kind == "counter":
            value = counters.get(key, 0)
        elif kind == "rate":
            busy = times.get(key, [0.0, 0])[0]
            value = counters.get(f"{key}.codewords", 0) / busy if busy > 0 else 0.0
        elif kind == "overhead":
            value = overhead_s
        else:
            value = n_spans
        out[metric] = value
    return out


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    out = {}
    for key in per_pass[0]:
        value = statistics.median(p[key] for p in per_pass)
        out[key] = round(value) if PER_LAYER[key][0] == "count" else value
    return out
