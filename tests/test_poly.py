import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from cycledual import (
    CyclicCode,
    Field,
    Poly,
    conjugate_poly,
    extension_with_embedding,
    field_create,
    nth_root_of_unity,
    product,
    x_pow_n_minus_1,
)
from cycledual import gf
from cycledual.poly import _monic_reversal

from conftest import GF2, GF4, divisor_codes

KERNEL_FIELDS = [GF2, GF4, field_create(4), field_create(8), field_create(16)]


def P(field, *coeffs):
    return Poly(field, coeffs)


def test_squaring_spreads_coefficients():
    g = P(GF2, 1, 1, 0, 1)
    assert g * g == P(GF2, 1, 0, 1, 0, 0, 0, 1)  # (1+x+x^3)^2 = 1+x^2+x^6


def test_divrem_example():
    q, r = x_pow_n_minus_1(GF2, 7).divrem(P(GF2, 1, 1, 0, 1))
    assert q == P(GF2, 1, 1, 1, 0, 1)  # x^4 + x^2 + x + 1
    assert r.is_zero


def test_divrem_rejects_zero():
    with pytest.raises(ValueError, match="division by zero"):
        P(GF2, 1, 1).divrem(Poly.zero(GF2))


def test_divrem_reconstruction_random():
    rng = random.Random(20240901)
    fields = [GF2, GF4, field_create(3)]
    for _ in range(1000):
        f = rng.choice(fields)
        da, db = rng.randrange(0, 65), rng.randrange(0, 65)
        a = Poly(f, [rng.randrange(f.order) for _ in range(da + 1)])
        b = Poly(f, [rng.randrange(f.order) for _ in range(db + 1)])
        if b.is_zero:
            continue
        q, r = a.divrem(b)
        assert q * b + r == a
        assert r.degree < b.degree


def test_eval_examples():
    assert P(GF2, 1, 1).eval(1) == 0
    assert Poly.zero(GF4).eval(3) == 0
    assert P(GF4, 1, 2).eval(2) == 2  # 1 + w * w = w
    ext, emb = extension_with_embedding(GF2, 3)
    beta = nth_root_of_unity(ext, 7)
    g = P(GF2, 1, 1, 0, 1)
    assert g.eval(beta, emb) == 0  # roots are the coset {1, 2, 4}
    assert g.eval(ext.pow(beta, 2), emb) == 0
    assert g.eval(ext.pow(beta, 3), emb) != 0


def test_eval_field_mismatch():
    ext, emb = extension_with_embedding(GF2, 3)
    beta = nth_root_of_unity(ext, 7)
    assert beta >= GF2.order
    with pytest.raises(ValueError, match="out of range"):
        P(GF2, 1, 1).eval(beta)  # extension element without an embedding
    with pytest.raises(ValueError, match="out of range"):
        P(GF4, 1, 1).eval(4)
    with pytest.raises(ValueError, match="embedding base does not match"):
        P(GF4, 1, 1).eval(beta, emb)


def dual_generator(g, n):
    """The Euclidean dual's generator, through the one production route."""
    return CyclicCode.from_generator(g.field, n, g).dual().g


def test_dual_generator_hamming():
    g = dual_generator(P(GF2, 1, 1, 0, 1), 7)
    assert g == P(GF2, 1, 0, 1, 1, 1)  # x^4+x^3+x^2+1 = (x+1)(x^3+x+1)
    assert g == P(GF2, 1, 1) * P(GF2, 1, 1, 0, 1)


def test_dual_generator_whole_space_and_zero_code():
    # dual of the whole space is the zero code, generated by x^n - 1
    assert dual_generator(Poly.one(GF2), 7) == x_pow_n_minus_1(GF2, 7)
    # and conversely
    assert dual_generator(x_pow_n_minus_1(GF2, 7), 7) == Poly.one(GF2)


def test_dual_generator_gf4_even_weight_code():
    # h = x^2+x+1 is self-reciprocal, so the dual generator is x^2+x+1 itself
    # (the dual of the even-weight code is the repetition code, dimension 1)
    assert dual_generator(P(GF4, 1, 1), 3) == P(GF4, 1, 1, 1)


def test_dual_generator_rejects_non_divisor():
    with pytest.raises(ValueError, match="not a divisor"):
        dual_generator(P(GF2, 1, 0, 1), 7)


@pytest.mark.parametrize("field,n", [(GF2, 7), (GF2, 21), (GF4, 7), (GF4, 21)])
def test_dual_generator_involution(field, n):
    for code in divisor_codes(field, n):
        g = code.g
        gd = dual_generator(g, n)
        assert dual_generator(gd, n) == g
        assert gd.degree == n - g.degree  # dim(C) + dim(dual) = n
        h = reference.poly_divrem(x_pow_n_minus_1(field, n), g)[0]
        assert gd == reference.monic_reversal(h)


def test_conjugate_poly():
    p = P(GF2, 1, 1, 0, 1)
    assert conjugate_poly(p, 2) == p  # Frobenius fixes GF(2)
    assert conjugate_poly(P(GF4, 1, 2), 2) == P(GF4, 1, 3)  # wx + 1 -> w^2x + 1
    rng = random.Random(7)
    for _ in range(50):
        p = Poly(GF4, [rng.randrange(4) for _ in range(rng.randrange(1, 7))])
        assert conjugate_poly(conjugate_poly(p, 2), 2) == p
    with pytest.raises(ValueError):
        conjugate_poly(p, 3)
    with pytest.raises(ValueError):
        conjugate_poly(p, 8)


def test_serialization():
    assert P(GF2, 1, 1, 0, 1).to_string() == "1,1,0,1"
    assert Poly.zero(GF4).to_string() == "0"
    assert P(GF4, 3, 0, 2).to_string() == "3,0,2"
    assert Poly.from_string(GF4, "3,0,2") == P(GF4, 3, 0, 2)
    assert Poly.from_string(GF2, "0") == Poly.zero(GF2)
    f16 = field_create(4)
    assert Poly.from_string(f16, "a,f").to_string() == "a,f"
    for bad in ("", "1,,1", "1,2", "1,1,0", "01,1", "A,1", "1, 1"):
        with pytest.raises(ValueError):
            Poly.from_string(GF2, bad)


def test_constructor_checks():
    with pytest.raises(ValueError, match="out of range"):
        Poly(GF2, [2])
    with pytest.raises(ValueError, match="out of range"):
        Poly(GF4, [1, -1])
    assert Poly(GF4, [np.uint8(2), 1]) == P(GF4, 2, 1)
    assert P(GF2, 1, 1, 0, 0).coeffs == (1, 1)  # trailing zeros trimmed


# -- the numpy kernel against the schoolbook reference -------------------------


def _plain_ints(p):
    return all(type(c) is int for c in p.coeffs)


def _check_against_reference(a, b):
    """Product of a and b, and each divided by the other where defined."""
    prod = a * b
    assert prod == reference.poly_mul(a, b)
    assert b * a == prod
    assert _plain_ints(prod)
    for x, y in ((a, b), (b, a)):
        if not y.is_zero:
            q, r = x.divrem(y)
            assert (q, r) == reference.poly_divrem(x, y)
            assert _plain_ints(q) and _plain_ints(r)


@st.composite
def _poly(draw, field, max_len):
    """A polynomial whose coefficient list has a length uniform in 0..max_len
    (trailing zeros are trimmed, so the degree may be lower)."""
    size = draw(st.integers(0, max_len))
    coeffs = draw(st.lists(st.integers(0, field.order - 1), min_size=size, max_size=size))
    return Poly(field, coeffs)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_kernel_matches_reference(data):
    field = data.draw(st.sampled_from(KERNEL_FIELDS), label="field")
    b = data.draw(_poly(field, 300), label="b")
    if data.draw(st.booleans(), label="a = b c + r"):
        # every step of the division cancels a leading coefficient down to
        # the drawn remainder r, which may be zero or much shorter than b
        c = data.draw(_poly(field, 300 - len(b.coeffs)), label="c")
        r = data.draw(_poly(field, max(len(b.coeffs) - 1, 0)), label="r")
        a = reference.poly_mul(b, c) + r
    else:
        a = data.draw(_poly(field, 300), label="a")
    _check_against_reference(a, b)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_product_matches_reference_fold(data):
    field = data.draw(st.sampled_from(KERNEL_FIELDS), label="field")
    # lengths 0 and 1 give the zero polynomial and constants
    factors = data.draw(st.lists(_poly(field, 70), max_size=6), label="factors")
    expected = Poly.one(field)
    for p in factors:
        expected = reference.poly_mul(expected, p)
    result = product(field, iter(factors))
    assert result == expected
    assert _plain_ints(result)


def test_product_of_nothing_is_one_and_fields_must_match():
    for field in KERNEL_FIELDS:
        assert product(field, []) == Poly.one(field)
    with pytest.raises(ValueError, match="field mismatch"):
        product(GF2, [P(GF2, 1, 1), P(GF4, 1, 1)])


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=lambda f: f"GF(2^{f.s})")
def test_kernel_edge_cases(field):
    top = field.order - 1  # non-monic leading coefficient, except over GF(2)
    zero = Poly.zero(field)
    one = Poly.one(field)
    long = Poly(field, [(7 * i + 3) % field.order for i in range(40)] + [top])
    short = Poly(field, (top, 0, 1, top))
    constant = Poly(field, (top,))
    cases = [
        (zero, short),  # zero dividend and zero factor
        (short, zero),  # zero multiplier
        (zero, zero),
        (short, long),  # divisor longer than the dividend
        (long, short),  # non-monic divisor
        (long, constant),  # division by a nonzero constant
        (long, one),
        (long * short, short),  # exact division
        (long * short + one, long),  # the remainder collapses to a constant
        (x_pow_n_minus_1(field, 63), short),
    ]
    for a, b in cases:
        _check_against_reference(a, b)
    assert (short * long).divrem(short) == (long, zero)
    assert short.divrem(long) == (zero, short)


def test_table_limit_admits_every_alphabet():
    assert gf.TABLE_MAX_S >= gf.ALPHABET_MAX_S
    largest = field_create(gf.ALPHABET_MAX_S)
    p = Poly(largest, (largest.order - 1, 2, 1))
    assert (p * p).divrem(p) == (p, Poly.zero(largest))


def test_arithmetic_beyond_table_limit_raises_before_allocating():
    big = Field(gf.TABLE_MAX_S + 1)
    p = Poly(big, (3, 1))
    for op in (lambda: p * p, lambda: p.divrem(p), lambda: p * Poly.zero(big)):
        with pytest.raises(ValueError, match=rf"2\^{gf.TABLE_MAX_S} limit of table arithmetic"):
            op()
    assert big not in gf._tables


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_reversal_and_conjugation_match_reference(data):
    field = data.draw(st.sampled_from(KERNEL_FIELDS), label="field")
    # about half of the coefficients are zero in every field, GF(2^16) too
    symbol = st.one_of(st.just(0), st.integers(1, field.order - 1))
    p = Poly(field, data.draw(st.lists(symbol, max_size=100), label="p"))
    for k in range(field.s + 1):  # every valid q, 1 through |F|
        conj = conjugate_poly(p, 1 << k)
        assert conj == reference.conjugate_poly(p, 1 << k)
        assert _plain_ints(conj)
    h = Poly(field, [data.draw(st.integers(1, field.order - 1), label="h(0)")] + list(p.coeffs))
    rev = _monic_reversal(h)
    assert rev == reference.monic_reversal(h)
    assert _plain_ints(rev)
