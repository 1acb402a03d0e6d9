import math

import numpy as np
import pytest

from cycledual import (
    CyclicCode,
    DefiningSet,
    Poly,
    bch_defining_set,
    build_family,
    exact_min_distance,
    family_parameters,
    paper_floor,
    x_pow_n_minus_1,
)
from cycledual.cli import main
from cycledual.construct import _interleave, pipeline_checks

import reference
from conftest import GF2, GF4, divisor_codes, van_lint_verdict
from reference import CoordinatePermutation, interleave_permutation


def hamming():
    return CyclicCode.from_defining_set(GF2, 7, bch_defining_set(7, 2, 1))


def whole_space(field, n):
    return CyclicCode.from_defining_set(field, n, DefiningSet(n, field.order, frozenset()))


def uuv_basis(code, kind):
    """The reference [u|u+v] basis of a code and its dual of the given kind."""
    return reference.uuv_basis(code, code.dual(kind))


def outer_generator(code, kind):
    """G = g1^2 g2, the generator of the interleaved repeated-root code."""
    return pipeline_checks(code, kind)[2]


def verdict(code, kind, check):
    return pipeline_checks(code, kind)[-1][check]


def test_interleave_permutation_n3():
    perm = interleave_permutation(3)
    word = ("x0", "x1", "x2", "y0", "y1", "y2")
    assert perm.apply(word) == ("x0", "y1", "x2", "y0", "x1", "y2")


def test_interleave_permutation_n7_position8():
    perm = interleave_permutation(7)
    assert perm.table[8] == 1  # 8 is even, 8 mod 7 = 1, so it reads x_1


def test_interleave_permutation_n1_identity():
    assert interleave_permutation(1).table == (0, 1)


def test_interleave_rejects_even():
    with pytest.raises(ValueError, match="odd"):
        interleave_permutation(4)


def test_permutation_roundtrip():
    for n in (1, 3, 7, 9):
        perm = interleave_permutation(n)
        word = tuple(range(2 * n))
        assert perm.inverse().apply(perm.apply(word)) == word
    with pytest.raises(ValueError, match="bijection"):
        CoordinatePermutation((0, 0, 1))


def test_seed_row_interleave_matches_the_permutation():
    rng = np.random.default_rng(3)
    for n in range(1, 64, 2):
        x = rng.integers(0, 16, n).tolist()
        y = rng.integers(0, 16, n).tolist()
        assert tuple(_interleave(x, y)) == interleave_permutation(n).apply(x + y), n


def test_pipeline_evaluates_no_polynomial(monkeypatch, tmp_path, capsys):
    def no_eval(*args, **kwargs):
        raise AssertionError("Poly.eval called")

    monkeypatch.setattr(Poly, "eval", no_eval)
    for cell in (("euclidean", 1, 5, 1), ("euclidean", 2, 3, 1), ("hermitian", 1, 3, 1)):
        assert build_family(*cell).all_checks_pass, cell
    path = tmp_path / "cert.txt"
    argv = ["construct", "--kind", "euclidean", "--s", "2", "--m", "3", "--mu", "1"]
    assert main(argv + ["--out", str(path)]) == 0
    assert main(["verify", str(path)]) == 0
    assert main(["factor", "--q", "4", "--n", "63"]) == 0
    capsys.readouterr()


def test_uuv_hamming():
    basis = uuv_basis(hamming(), "euclidean")
    assert basis.shape == (7, 14)
    assert reference.verify_self_dual(GF2, basis, "euclidean")
    assert verdict(hamming(), "euclidean", "self_dual")


def test_uuv_whole_space_n1():
    basis = uuv_basis(whole_space(GF2, 1), "euclidean")
    assert basis.tolist() == [[1, 1]]  # the code {00, 11}
    assert reference.verify_self_dual(GF2, basis, "euclidean")


def test_uuv_hermitian_2115():
    inner = CyclicCode.from_defining_set(GF4, 21, bch_defining_set(21, 4, 2))
    assert inner.k == 15
    basis = uuv_basis(inner, "hermitian")
    assert basis.shape == (21, 42)
    assert reference.verify_self_dual(GF4, basis, "hermitian")
    assert verdict(inner, "hermitian", "self_dual")


def test_uuv_requires_dual_containing():
    # the zero code's dual is the whole space: no [u|u+v] code, no outer
    # generator, and every check reads false, by polynomials and by matrices
    zero = CyclicCode.from_generator(GF2, 7, Poly(GF2, [1] + [0] * 6 + [1]))
    dual, g2, g_out, checks = pipeline_checks(zero, "euclidean")
    assert (dual, g2, g_out) == (None, None, None)
    assert checks == reference.pipeline_checks(zero, "euclidean")
    assert not any(checks.values())


def test_repeated_root_generator_examples():
    g = outer_generator(hamming(), "euclidean")
    assert g == Poly(GF2, (1, 1, 1, 1, 0, 0, 1, 1))  # (1+x+x^3)^2 (1+x)
    assert outer_generator(whole_space(GF2, 1), "euclidean") == Poly(GF2, (1, 1))
    c = CyclicCode.from_defining_set(GF4, 21, bch_defining_set(21, 4, 3))
    assert outer_generator(c, "euclidean").degree == 21  # 2*9 + 3


def test_pipeline_checks_raises_when_predicate_and_division_disagree(monkeypatch):
    zero = CyclicCode.from_generator(GF2, 7, Poly(GF2, [1] + [0] * 6 + [1]))
    codes = (hamming(), zero)
    assert [c.is_dual_containing("euclidean") for c in codes] == [True, False]
    predicate = CyclicCode.is_dual_containing
    monkeypatch.setattr(
        CyclicCode, "is_dual_containing", lambda self, kind="euclidean": not predicate(self, kind)
    )
    for code in codes:
        with pytest.raises(RuntimeError, match="containment predicate"):
            pipeline_checks(code, "euclidean")


def van_lint(code, kind, g_out):
    return van_lint_verdict(code.g, code.dual(kind).g, code.n, g_out)


def test_van_lint_hamming_and_trivial():
    for code in (hamming(), whole_space(GF2, 1)):
        assert verdict(code, "euclidean", "van_lint_equivalence")


def test_van_lint_n3_gf4_exhaustive():
    # every dual-containing divisor of x^3 - 1 over GF(4), full set comparison
    count = 0
    for code in divisor_codes(GF4, 3):
        if not code.is_dual_containing("euclidean"):
            continue
        basis = uuv_basis(code, "euclidean")
        _, _, g_out, checks = pipeline_checks(code, "euclidean")
        assert checks["van_lint_equivalence"]
        assert reference.verify_van_lint_equivalence(GF4, basis, 3, g_out, full=True)
        count += 1
    assert count == 3  # {} and the two conjugate singleton defining sets


def test_van_lint_detects_wrong_generator():
    basis = uuv_basis(hamming(), "euclidean")
    wrong = Poly(GF2, (1, 1)) * Poly(GF2, (1, 1, 0, 1)) * Poly(GF2, (1, 0, 1, 1))
    assert wrong.degree == 7
    assert not van_lint(hamming(), "euclidean", wrong)
    assert not reference.verify_van_lint_equivalence(GF2, basis, 7, wrong)
    # wrong degree, or not a divisor of x^14 - 1, fail before any division
    assert not van_lint(hamming(), "euclidean", Poly(GF2, ()))
    assert not van_lint(hamming(), "euclidean", Poly(GF2, (1,) * 8))
    # x divides the only nonzero seed [0|1] of {(0|v)}, length 2, but it is a
    # unit mod x^2 - 1, and {00, 01} is not cyclic
    one, x = Poly(GF2, (1,)), Poly(GF2, (0, 1))
    assert not van_lint_verdict(x_pow_n_minus_1(GF2, 1), one, 1, x)


def test_verify_self_dual_cases():
    assert verdict(hamming(), "euclidean", "self_dual") is True
    assert verdict(whole_space(GF2, 1), "euclidean", "self_dual") is True  # {00, 11}
    with pytest.raises(ValueError, match="square order"):
        pipeline_checks(whole_space(GF2, 1), "hermitian")
    with pytest.raises(ValueError, match="kind must be"):
        pipeline_checks(hamming(), "unitary")
    # the dense reference on explicit bases
    basis = uuv_basis(hamming(), "euclidean")
    assert reference.verify_self_dual(GF2, basis, "euclidean") is True
    assert reference.verify_self_dual(GF2, [[1, 1]], "euclidean") is True
    # odd-length code cannot be self-dual: dimension test fails
    assert reference.verify_self_dual(GF2, hamming().generator_matrix(), "euclidean") is False
    with pytest.raises(ValueError, match="not a basis"):
        reference.verify_self_dual(GF2, [[1, 1], [1, 1]], "euclidean")
    with pytest.raises(ValueError, match="square order"):
        reference.verify_self_dual(GF2, [[1, 1]], "hermitian")


def test_check_code_automorphism():
    check_code_automorphism = reference.check_code_automorphism
    cyclic_shift_permutation = reference.cyclic_shift_permutation
    basis = uuv_basis(hamming(), "euclidean")
    identity = CoordinatePermutation(tuple(range(14)))
    assert check_code_automorphism(GF2, basis, identity) is True

    perm = interleave_permutation(7)
    permuted = np.stack([perm.apply(row) for row in basis])
    shift = cyclic_shift_permutation(14)
    # the interleaved code is cyclic, the raw (u|u+v) order is not
    assert check_code_automorphism(GF2, permuted, shift) is True
    assert check_code_automorphism(GF2, basis, shift) is False
    with pytest.raises(ValueError, match="size mismatch"):
        check_code_automorphism(GF2, basis, cyclic_shift_permutation(10))


def test_paper_floor_spot_values():
    pf = paper_floor("euclidean", 2, 3, 1)
    assert abs(pf.value - (math.sqrt(252) - 4)) < 1e-9
    assert pf.exact == "sqrt(252) - 4"
    pf = paper_floor("hermitian", 1, 3, 1)
    assert abs(pf.value - math.sqrt(63)) < 1e-9
    assert pf.exact == "sqrt(63)"
    pf = paper_floor("hermitian", 1, 3, 3)
    assert abs(pf.value - math.sqrt(7)) < 1e-9
    # general-divisor family floor: sqrt(2^(s-1) n / mu) - 2^s / mu
    pf = paper_floor("euclidean", 2, 3, 3)
    assert abs(pf.value - (math.sqrt(28) - 4 / 3)) < 1e-9
    assert pf.exact == "sqrt(28) - 4/3"
    assert pf.clamped == 4


def test_paper_floor_clamping():
    pf = paper_floor("euclidean", 1, 3, 7)  # n = 2, sqrt(2/7) - 2/7 < 1
    assert pf.value < 1
    assert pf.clamped == 1


def test_family_parameters():
    p = family_parameters("euclidean", 1, 3, 1)
    assert (p.n_inner, p.b_default) == (7, 1)
    p = family_parameters("hermitian", 1, 3, 3)
    assert (p.n_inner, p.b_default) == (21, 2)
    assert p.alphabet.order == 4
    p = family_parameters("euclidean", 2, 3, 9)
    assert (p.n_inner, p.b_default) == (7, 1)
    with pytest.raises(ValueError, match="must be odd"):
        family_parameters("euclidean", 1, 4, 1)
    with pytest.raises(ValueError, match="does not divide"):
        family_parameters("euclidean", 1, 3, 2)


def test_build_family_binary():
    cert = build_family("euclidean", 1, 3, 1)
    assert (cert.n_outer, cert.k_outer) == (14, 7)
    assert cert.defining_set.sorted_members == (1, 2, 4)
    assert cert.outer_generator == Poly(GF2, (1, 1, 1, 1, 0, 0, 1, 1))
    assert (cert.bch_inner, cert.bch_dual, cert.floor_min) == (3, 4, 4)
    assert cert.all_checks_pass


def test_build_family_gf4_euclidean():
    cert = build_family("euclidean", 2, 3, 3)
    assert (cert.n_outer, cert.k_outer) == (42, 21)
    assert cert.b == 3
    assert cert.defining_set.sorted_members == (1, 2, 3, 4, 6, 8, 11, 12, 16)
    assert cert.floor_min == min(6, 2 * 5) == 6
    assert cert.all_checks_pass


def test_build_family_hermitian():
    cert = build_family("hermitian", 1, 3, 3)
    assert (cert.n_outer, cert.k_outer) == (42, 21)
    assert cert.b == 2
    assert cert.defining_set.sorted_members == (1, 2, 4, 8, 11, 16)
    assert cert.floor_min == 6
    assert cert.all_checks_pass


def test_build_family_hermitian_gf16():
    # alphabet GF(16), conjugation power 4, inner length (4^6-1)/45 = 91
    cert = build_family("hermitian", 2, 3, 45)
    assert cert.field.order == 16
    assert (cert.n_outer, cert.k_outer) == (182, 91)
    assert cert.b == 1
    assert cert.all_checks_pass
    assert cert.floor_min >= 2


def test_uuv_basis_matches_definition():
    # the basis span must equal {(u | u+v)} built directly from the definition
    from itertools import product

    inner = hamming()
    dual = inner.dual("euclidean")
    by_definition = set()
    for mu in product(range(2), repeat=inner.k):
        u = reference.encode(inner, mu)
        for mv in product(range(2), repeat=dual.k):
            v = reference.encode(dual, mv)
            by_definition.add(u + tuple(a ^ b for a, b in zip(u, v)))
    basis = reference.uuv_basis(inner, dual)
    packed = {int(w) for w in reference.span_packed(GF2, basis)}
    assert packed == {sum(c << i for i, c in enumerate(w)) for w in by_definition}
    assert len(by_definition) == 2**7


def test_van_lint_basis_sweep_larger_lengths():
    for field, n in ((GF2, 21), (GF4, 15)):
        checked = 0
        for code in divisor_codes(field, n):
            if not code.is_dual_containing("euclidean"):
                continue
            assert verdict(code, "euclidean", "van_lint_equivalence"), (field, n, code.T)
            checked += 1
        assert checked >= 3


def test_build_family_b_override():
    cert = build_family("euclidean", 1, 3, 1, b_override=0)  # whole-space inner code
    assert (cert.n_outer, cert.k_outer) == (14, 7)
    assert len(cert.defining_set) == 0
    assert cert.all_checks_pass
    with pytest.raises(ValueError, match="b = 0 < 1"):
        build_family("euclidean", 1, 3, 7)


def test_certificate_records_beta_context():
    cert = build_family("euclidean", 1, 3, 1)
    assert cert.extension_modulus == 0b1011
    assert cert.beta_exponent == 1


@pytest.mark.parametrize("field,ns", [(GF2, (1, 3, 5, 7, 9, 15)), (GF4, (1, 3, 5, 7, 9))])
def test_theorem_floor_against_exact_distances(field, ns):
    # min distance of the [u|u+v] code is >= min{d(dual), 2 d(C)} whenever
    # exact enumeration is feasible
    budget = 1 << 20
    checked = 0
    for n in ns:
        for code in divisor_codes(field, n):
            if not code.is_dual_containing("euclidean"):
                continue
            if field.order**code.n - 1 > budget:
                continue
            dual = code.dual("euclidean")
            d_dual = (
                exact_min_distance(field, dual.generator_matrix(), budget=budget).value
                if dual.k
                else 2 * code.n + 1
            )
            d_inner = exact_min_distance(field, code.generator_matrix(), budget=budget).value
            d_outer = exact_min_distance(
                field, reference.uuv_basis(code, dual), budget=budget
            ).value
            assert d_outer >= min(d_dual, 2 * d_inner)
            checked += 1
    assert checked >= 4
