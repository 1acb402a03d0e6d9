import os
import random
import subprocess
import sys
from pathlib import Path
from unittest import mock

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
from cycledual import gf, poly
from cycledual.cyclo import minimal_polynomial
from cycledual.cyclic import root_context
from cycledual.poly import _monic_reversal

from conftest import GF2, GF4, divisor_codes, table_rows

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
    for field, text in ((GF2, "0"), (GF4, "3,0,2"), (f16, "a,f"), (field_create(16), "ffff,1")):
        assert _canonical(Poly.from_string(field, text))
    for bad in ("", "1,,1", "1,2", "1,1,0", "01,1", "A,1", "1, 1"):
        with pytest.raises(ValueError):
            Poly.from_string(GF2, bad)


def test_constructor_checks():
    with pytest.raises(ValueError, match="out of range"):
        Poly(GF2, [2])
    with pytest.raises(ValueError, match="out of range"):
        Poly(GF4, [1, -1])
    with pytest.raises(ValueError, match="out of range"):
        Poly(GF2, [2**70])
    with pytest.raises(ValueError, match="out of range"):
        Poly(GF4, [-(2**70)])
    for entries in ([1, -1], [4, 1]):  # array entries, negative or too large
        with pytest.raises(ValueError, match="out of range"):
            Poly(GF4, np.array(entries, dtype=np.int64))
    assert Poly(GF4, [np.uint8(2), 1]) == P(GF4, 2, 1)
    assert P(GF2, 1, 1, 0, 0).coeffs.tolist() == [1, 1]  # trailing zeros trimmed
    source = np.array([3, 0, 0], dtype=np.int64)
    wide = field_create(16)
    for p in (P(GF4, 0, 0), P(GF4, 1, 3, 0), Poly(GF4, source), Poly(wide, (7, 9)), Poly.zero(wide)):
        assert _canonical(p) and _canonical(Poly.one(p.field))
    source[0] = 1  # the constructor stores a copy of its argument
    assert Poly(GF4, source) != Poly(GF4, [3])


# -- the numpy kernel against the schoolbook reference -------------------------


def _canonical(p):
    """The representation invariant: a read-only 1-d array of the field's
    dtype whose last entry, if any, is nonzero."""
    c = p.coeffs
    return (
        isinstance(c, np.ndarray)
        and c.ndim == 1
        and c.dtype == gf.dtype_for(p.field)
        and not c.flags.writeable
        and (c.size == 0 or c[-1] != 0)
    )


def _check_against_reference(a, b):
    """Product of a and b, and each divided by the other where defined."""
    prod = a * b
    assert prod == reference.poly_mul(a, b)
    # equal polynomials reached by the kernel and by the constructor
    assert hash(prod) == hash(reference.poly_mul(a, b))
    assert b * a == prod
    assert _canonical(prod)
    for x, y in ((a, b), (b, a)):
        if not y.is_zero:
            q, r = x.divrem(y)
            assert (q, r) == reference.poly_divrem(x, y)
            assert _canonical(q) and _canonical(r)


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
    assert _canonical(result)


def _fft_length(field):
    """A length from which two factors, multiplied together in some level,
    take the FFT there: the product is long enough for the tree, and the
    shorter operand for the FFT."""
    return max(poly._FFT_MIN_LENGTH * field.s, poly._TREE_MIN_LENGTH // 2 + 1)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_product_tree_through_the_fft_matches_reference_fold(data):
    field = data.draw(st.sampled_from(KERNEL_FIELDS), label="field")
    t = _fft_length(field)
    # two factors of at least t coefficients meet in some level of the tree,
    # where both operands are that long: that level goes through the FFT
    long = data.draw(st.lists(_long_poly(field, t), min_size=2, max_size=3), label="long")
    short = data.draw(st.lists(_poly(field, 2 * field.s + 8), max_size=5), label="short")
    factors = data.draw(st.permutations(long + short), label="factors")
    expected = Poly.one(field)
    for p in factors:
        expected = reference.poly_mul(expected, p)
    with mock.patch.object(poly, "_fft_product", wraps=poly._fft_product) as fft:
        result = product(field, factors)
    assert result == expected
    assert _canonical(result)
    assert fft.called or expected.is_zero


@st.composite
def _long_poly(draw, field, t):
    """A nonzero polynomial of t to t + 40 coefficients, drawn from a seeded
    generator: Hypothesis draws lists this long slowly."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    size = t + draw(st.integers(0, 40))
    coeffs = [rng.randrange(field.order) for _ in range(size - 1)]
    return Poly(field, coeffs + [rng.randrange(1, field.order)])


def test_product_of_the_1375_minimal_polynomials_mod_4095_over_gf16():
    field = field_create(4)
    mps = table_rows(minimal_polynomial(root_context(field, 4095)), field)
    assert len(mps) == 1375
    assert all(_canonical(mp) for mp in mps.values())
    with mock.patch.object(poly, "_fft_product", wraps=poly._fft_product) as fft:
        result = product(field, mps.values())
    assert fft.called
    assert result == x_pow_n_minus_1(field, 4095) and _canonical(result)
    assert hash(result) == hash(x_pow_n_minus_1(field, 4095))
    assert hash(result) == hash(Poly.from_string(field, result.to_string()))


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=lambda f: f"GF(2^{f.s})")
def test_fft_rounding_guard(field, monkeypatch):
    t = _fft_length(field)
    a = Poly(field, [(3 * i + 1) % field.order for i in range(t)] + [1])
    b = Poly(field, [(7 * i + 2) % field.order for i in range(t + 5)] + [field.order - 1])
    expected = reference.poly_mul(a, b)
    irfft = np.fft.irfft

    def perturbed(by):
        return lambda *args, **kwargs: irfft(*args, **kwargs) + by

    monkeypatch.setattr(np.fft, "irfft", perturbed(0.2))  # rounds back
    assert a * b == expected
    monkeypatch.setattr(np.fft, "irfft", perturbed(0.3))
    with pytest.raises(RuntimeError, match="lost precision"):
        a * b
    monkeypatch.setattr(np.fft, "irfft", perturbed(-0.3))
    with pytest.raises(RuntimeError, match="lost precision"):
        a * b


def test_fft_transform_length_is_capped(monkeypatch):
    a = Poly(GF4, [1] * 600)
    assert (a * a).degree == 1198
    monkeypatch.setattr(poly, "_FFT_MAX_LENGTH", 1024)
    with pytest.raises(RuntimeError, match="exceeds the FFT limit 1024"):
        a * a
    monkeypatch.setattr(poly, "_FFT_MAX_LENGTH", 2048)
    assert a * a == reference.poly_mul(a, a)


@pytest.mark.parametrize(
    "s,lengths,through_fft",
    [
        (1, (512, 512), False),  # 1023 coefficients: folded
        (1, (512, 513), True),  # 1024: one pair in the tree
        (1, (40,) * 32, True),  # 16 pairs of 40 coefficients
        (1, (31,) * 40, False),  # 20 pairs, operands shorter than 32
        (4, (127,) * 16, False),  # GF(16): operands shorter than 4 * 32
        (4, (128,) * 16, True),
    ],
)
def test_fft_only_past_both_crossovers(s, lengths, through_fft):
    field = field_create(s)
    factors = [
        Poly(field, [(i * j + 1) % field.order for i in range(length - 1)] + [1])
        for j, length in enumerate(lengths)
    ]
    with mock.patch.object(poly, "_fft_product", wraps=poly._fft_product) as fft:
        result = product(field, factors)
    assert result.degree == sum(lengths) - len(lengths) and _canonical(result)
    # the first level is the one with len(lengths) / 2 pairs
    first_level = [call for call in fft.call_args_list if len(call.args[1]) == len(lengths) // 2]
    assert bool(first_level) == through_fft


def test_fold_steps_over_the_shorter_operand():
    long = Poly(GF4, [3] * 300)
    with mock.patch.object(poly, "_add_scaled", wraps=poly._add_scaled) as step:
        assert P(GF4, 1, 2) * long == reference.poly_mul(P(GF4, 1, 2), long)
        assert long * P(GF4, 0, 0, 1) == reference.poly_mul(long, P(GF4, 0, 0, 1))
    assert step.call_count == 3  # one per nonzero coefficient of the short factors


def test_short_products_do_not_load_numpy_fft():
    # numpy loads numpy.fft on first use: importing the CLI and building a
    # small code must leave it out of the process
    script = (
        "import sys\n"
        "from cycledual.cli import main\n"
        "argv = ['construct', '--kind', 'euclidean', '--s', '1', '--m', '3', '--mu', '1']\n"
        "assert main(argv) == 0\n"
        "print('numpy.fft' in sys.modules)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


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
    assert _canonical(x_pow_n_minus_1(field, 63)) and _canonical(x_pow_n_minus_1(field, 1))
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
        assert _canonical(conj)
    h = Poly(field, [data.draw(st.integers(1, field.order - 1), label="h(0)")] + p.coeffs.tolist())
    rev = _monic_reversal(h)
    assert rev == reference.monic_reversal(h)
    assert _canonical(rev)
