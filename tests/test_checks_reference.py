"""The polynomial checks of cycledual.construct against the dense linear
algebra of the test reference: same verdict dict on every divisor code at
small lengths, and on random divisor codes and random wrong outer
generators up to length 63."""

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import reference
from cycledual import KINDS, Poly, all_cosets, field_create, hermitian_base
from cycledual.construct import pipeline_checks
from cycledual.cyclic import CyclicCode
from cycledual.cyclo import DefiningSet
from cycledual.poly import x_pow_n_minus_1

from conftest import GF2, GF4, divisor_codes, van_lint_verdict

GF16 = field_create(4)

SWEEP = [(1, n, "euclidean") for n in range(1, 22, 2)] + [
    (s, n, kind)
    for s, n_max in ((2, 15), (4, 5))
    for n in range(1, n_max + 1, 2)
    for kind in KINDS
]


@pytest.mark.parametrize("s,n,kind", SWEEP)
def test_every_divisor_code_matches_reference(s, n, kind):
    for code in divisor_codes(field_create(s), n):
        got = pipeline_checks(code, kind)[-1]
        assert got == reference.pipeline_checks(code, kind), (code.T, kind)
        dual = code.dual(kind)
        assert dual.T == CyclicCode.from_generator(code.field, n, dual.g).T, (code.T, kind)


def _feasible_lengths(field, limit=63, max_extension_bits=20):
    """Odd n <= limit whose n-th roots of unity live in an extension of at
    most 2^20 elements, which keeps each draw fast."""
    out = []
    for n in range(1, limit + 1, 2):
        m, pw = 1, field.order % n
        while pw != 1 % n:
            pw, m = pw * field.order % n, m + 1
        if field.s * m <= max_extension_bits:
            out.append(n)
    return out


LENGTHS = {field: _feasible_lengths(field) for field in (GF2, GF4, GF16)}


@st.composite
def random_divisor_codes(draw, field, n, kind, containing):
    """A random divisor code of length n; with ``containing`` it is
    dual-containing by construction: no coset together with its image under
    i -> -q i."""
    q = hermitian_base(field) if kind == "hermitian" else 1
    orbits = [frozenset(orb) for _, orb in sorted(all_cosets(n, field.order).items())]
    picks = draw(st.lists(st.booleans(), min_size=len(orbits), max_size=len(orbits)))
    members: set[int] = set()
    for pick, orb in zip(picks, orbits):
        image = {(-q * i) % n for i in orb}
        if pick and not (containing and image & (members | orb)):
            members |= orb
    return CyclicCode.from_defining_set(field, n, DefiningSet(n, field.order, frozenset(members)))


@st.composite
def wrong_generators(draw, code, kind, right):
    """A monic polynomial other than ``right``: random of degree near n, the
    outer generator of another dual-containing code of the same length, the
    degree-n divisor x^n - 1 of x^(2n) - 1, or ``right`` with one lower
    coefficient changed."""
    field, n = code.field, code.n
    coeff = st.integers(0, field.order - 1)
    choice = draw(st.sampled_from(("random", "other", "x^n-1", "edit")))
    if choice == "random":
        degree = draw(st.integers(max(0, n - 2), n + 2))
        wrong = Poly(field, draw(st.lists(coeff, min_size=degree, max_size=degree)) + [1])
    elif choice == "other":
        other = draw(random_divisor_codes(field, n, kind, containing=True))
        wrong = pipeline_checks(other, kind)[2]
    elif choice == "x^n-1":
        wrong = x_pow_n_minus_1(field, n)
    else:
        coeffs = list(right.coeffs)
        coeffs[draw(st.integers(0, right.degree - 1))] = draw(coeff)
        wrong = Poly(field, coeffs)
    assume(wrong != right)
    return wrong


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_random_divisor_codes_match_reference(data):
    field = data.draw(st.sampled_from((GF2, GF4, GF16)))
    kind = data.draw(st.sampled_from(KINDS if field.s % 2 == 0 else ("euclidean",)))
    n = data.draw(st.sampled_from(LENGTHS[field]))
    code = data.draw(random_divisor_codes(field, n, kind, containing=data.draw(st.booleans())))
    _, _, g_out, got = pipeline_checks(code, kind)
    assert got == reference.pipeline_checks(code, kind)
    dual = code.dual(kind)
    assert dual.T == CyclicCode.from_generator(field, n, dual.g).T
    if not got["dual_containing"]:
        return
    assert all(got.values())
    wrong = data.draw(wrong_generators(code, kind, g_out))
    ok = van_lint_verdict(code.g, dual.g, n, wrong)
    assert dict(got, van_lint_equivalence=ok) == reference.pipeline_checks(code, kind, wrong)
    assert not ok
