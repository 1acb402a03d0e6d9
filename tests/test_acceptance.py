"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
and enforcing its stated runtime limit."""

import functools
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import cycledual
from cycledual import (
    CyclicCode,
    bch_bound,
    bch_defining_set,
    build_family,
    complement,
    dumps,
    exact_min_distance,
    family_parameters,
    is_dual_containing_set,
    paper_floor,
    sampled_weight_upper_bound,
    set_map,
    write_certificate,
)
from cycledual import integers
from cycledual.cli import main
from cycledual.construct import MAX_INNER_LENGTH, pipeline_checks

import reference
from reference import gcd_lemma
from conftest import GF2, GF4, divisor_codes

FULL_SET_LIMIT = 1 << 20


def criterion(num, name, limit_s=None):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper():
            start = time.monotonic()
            try:
                fn()
            except BaseException:
                print(f"criterion {num:2d} ({name}): FAIL")
                raise
            elapsed = time.monotonic() - start
            if limit_s is not None:
                assert elapsed < limit_s, f"criterion {num} took {elapsed:.2f}s >= {limit_s}s"
            print(f"criterion {num:2d} ({name}): PASS [{elapsed:.2f}s]")
        return wrapper
    return deco


@criterion(1, "binary [14,7] pipeline", limit_s=1.0)
def test_criterion_1():
    cert = build_family("euclidean", 1, 3, 1)
    assert (cert.n_outer, cert.k_outer) == (14, 7)
    assert cert.self_dual and cert.van_lint_equivalence
    inner = CyclicCode.from_defining_set(cert.field, cert.n_inner, cert.defining_set)
    dual = inner.dual("euclidean")
    basis = reference.uuv_basis(inner, dual)
    assert reference.verify_self_dual(cert.field, basis, "euclidean")
    assert reference.verify_van_lint_equivalence(
        cert.field, basis, inner.n, cert.outer_generator, full=True
    )
    report = exact_min_distance(cert.field, basis)
    assert (report.value, report.enumerated) == (4, 127)
    assert cert.floor_min == 4
    assert report.value >= cert.floor_min


@criterion(2, "GF(4) euclidean [14,7]", limit_s=5.0)
def test_criterion_2():
    cert = build_family("euclidean", 2, 3, 9)
    assert (cert.n_outer, cert.k_outer) == (14, 7)
    assert cert.all_checks_pass
    inner = CyclicCode.from_defining_set(cert.field, cert.n_inner, cert.defining_set)
    basis = reference.uuv_basis(inner, inner.dual("euclidean"))
    report = exact_min_distance(cert.field, basis)
    assert report.enumerated == 4**7 - 1 == 16383
    assert cert.floor_min == 4
    assert report.value >= cert.floor_min


@criterion(3, "GF(4) euclidean [42,21]", limit_s=30.0)
def test_criterion_3():
    cert = build_family("euclidean", 2, 3, 3)
    assert (cert.n_outer, cert.k_outer) == (42, 21)
    assert cert.all_checks_pass
    assert cert.floor_min == 6
    inner = CyclicCode.from_defining_set(cert.field, cert.n_inner, cert.defining_set)
    basis = reference.uuv_basis(inner, inner.dual("euclidean"))
    report = sampled_weight_upper_bound(cert.field, basis, trials=10**6, seed=20240901)
    assert report.enumerated == 10**6
    assert report.value >= 6  # anything smaller would falsify the distance floor


@criterion(4, "hermitian [42,21]", limit_s=5.0)
def test_criterion_4():
    cert = build_family("hermitian", 1, 3, 3)
    assert (cert.n_outer, cert.k_outer) == (42, 21)
    assert cert.all_checks_pass
    inner = CyclicCode.from_defining_set(cert.field, cert.n_inner, cert.defining_set)
    dual = inner.dual("hermitian")
    assert dual.k == 6
    report = exact_min_distance(cert.field, dual.generator_matrix())
    assert report.enumerated == 4**6 - 1 == 4095
    assert report.value >= 6
    assert cert.bch_dual == 6
    assert cert.floor_min == 6


@criterion(5, "van Lint equivalence sweep", limit_s=60.0)
def test_criterion_5():
    checked = 0
    for field, lengths in ((GF2, (3, 5, 7, 9, 15)), (GF4, (3, 5, 7, 9))):
        for n in lengths:
            for code in divisor_codes(field, n):
                if not code.is_dual_containing("euclidean"):
                    continue
                dual, _, g_out, checks = pipeline_checks(code, "euclidean")
                assert checks["van_lint_equivalence"]
                full = field.order**code.n <= FULL_SET_LIMIT
                assert reference.verify_van_lint_equivalence(
                    field, reference.uuv_basis(code, dual), n, g_out, full=full
                ), (field, n, code.T)
                checked += 1
    assert checked >= 12


@criterion(6, "dual-containing predicate sweep")
def test_criterion_6():
    cells = 0
    for kind in ("euclidean", "hermitian"):
        for s in (1, 2):
            for m in (3, 5):
                exponent = s * m if kind == "euclidean" else 2 * s * m
                group = (1 << exponent) - 1
                for mu in range(1, group + 1):
                    if group % mu:
                        continue
                    params = family_parameters(kind, s, m, mu)
                    b = params.b_default
                    if b < 1:
                        continue
                    T = bch_defining_set(params.n_inner, params.alphabet.order, b)
                    if kind == "euclidean":
                        ok = is_dual_containing_set(T, kind)
                    else:
                        ok = is_dual_containing_set(T, kind, q=1 << s)
                    assert ok, (kind, s, m, mu)
                    assert bch_bound(T) >= math.ceil(params.delta), (kind, s, m, mu)
                    cells += 1
    assert cells >= 25


@criterion(7, "gcd lemma vs integer gcd", limit_s=1.0)
def test_criterion_7():
    for q in (2, 3, 4, 8):
        for a in range(1, 13):
            for b in range(1, 13):
                assert gcd_lemma(q, a, b, "minus_minus") == math.gcd(q**a - 1, q**b - 1)
                assert gcd_lemma(q, a, b, "plus_minus") == math.gcd(q**a + 1, q**b - 1)


@criterion(8, "closed-form floor spot values")
def test_criterion_8():
    assert abs(paper_floor("euclidean", 2, 3, 1).value - (math.sqrt(252) - 4)) < 1e-9
    assert abs(paper_floor("hermitian", 1, 3, 1).value - math.sqrt(63)) < 1e-9


@criterion(9, "tamper detection, 100 corruptions")
def test_criterion_9():
    import tempfile

    with tempfile.TemporaryDirectory() as td:
        path = Path(td) / "cert.txt"
        write_certificate(build_family("euclidean", 1, 3, 1), path)
        original = path.read_text()
        lines = original.split("\n")
        targets = [
            i for i, line in enumerate(lines)
            if line.startswith(("generator = ", "defining_set = ", "g2 = "))
        ]
        rng = random.Random(1234)
        pool = "0123456789abcdef,;=x "
        done = 0
        while done < 100:
            li = rng.choice(targets)
            line = lines[li]
            pos = rng.randrange(len(line))
            repl = rng.choice(pool)
            if repl == line[pos]:
                continue
            mutated = lines.copy()
            mutated[li] = line[:pos] + repl + line[pos + 1:]
            path.write_text("\n".join(mutated))
            rc = main(["verify", str(path)])
            assert rc != 0, f"corruption not detected: {mutated[li]!r}"
            done += 1
        path.write_text(original)
        assert main(["verify", str(path)]) == 0


@criterion(10, "determinism")
def test_criterion_10():
    # byte-identical certificates for the criterion 1-4 cells, twice in-process
    for args in (
        ("euclidean", 1, 3, 1),
        ("euclidean", 2, 3, 9),
        ("euclidean", 2, 3, 3),
        ("hermitian", 1, 3, 3),
    ):
        assert dumps(build_family(*args)) == dumps(build_family(*args))

    # and across processes for the binary cell
    import tempfile

    # the child imports the same cycledual as this process, installed or not
    src = str(Path(cycledual.__file__).resolve().parents[1])
    paths = (src, os.environ.get("PYTHONPATH"))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    with tempfile.TemporaryDirectory() as td:
        outputs = []
        for name in ("a.txt", "b.txt"):
            p = Path(td) / name
            subprocess.run(
                [sys.executable, "-m", "cycledual.cli", "construct", "--kind",
                 "euclidean", "--s", "1", "--m", "3", "--mu", "1", "--out", str(p)],
                check=True, capture_output=True, env=env,
            )
            outputs.append(p.read_bytes())
        assert outputs[0] == outputs[1]

    # exhaustive distance identical on a second run
    for args in (("euclidean", 1, 3, 1), ("euclidean", 2, 3, 9)):
        cert = build_family(*args)
        inner = CyclicCode.from_defining_set(cert.field, cert.n_inner, cert.defining_set)
        basis = reference.uuv_basis(inner, inner.dual("euclidean"))
        assert exact_min_distance(cert.field, basis) == exact_min_distance(cert.field, basis)


@criterion(11, "the paper's floor on every buildable cell", limit_s=10.0)
def test_criterion_11():
    # every cell that build_family accepts and finds dual-containing, with
    # E s <= 4 and H s <= 2 and exponent <= 24: the floor of the defining
    # sets, min(bch(T^perp), 2 bch(T)), is at least the paper's closed form
    cells = 0
    for kind, s_max in (("euclidean", 4), ("hermitian", 2)):
        for s in range(1, s_max + 1):
            q = 1 if kind == "euclidean" else 1 << s
            for m in range(1, 25, 2):
                exponent = s * m if kind == "euclidean" else 2 * s * m
                if exponent > 24:
                    break
                for mu in integers.divisors((1 << exponent) - 1):
                    params = family_parameters(kind, s, m, mu)
                    n = params.n_inner
                    if n > MAX_INNER_LENGTH or params.b_default < 1:
                        continue
                    T = bch_defining_set(n, params.alphabet.order, params.b_default)
                    if not is_dual_containing_set(T, kind, None if q == 1 else q):
                        continue
                    floor = min(bch_bound(complement(set_map(T, -q))), 2 * bch_bound(T))
                    assert floor >= paper_floor(kind, s, m, mu).clamped, (kind, s, m, mu)
                    if n <= 63:  # the floor that build_family records
                        assert build_family(kind, s, m, mu).floor_min == floor, (kind, s, m, mu)
                    cells += 1
    assert cells == 124
