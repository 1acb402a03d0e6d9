import dataclasses
import math
import random
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cycledual import (
    DefiningSet,
    Poly,
    bch_bound,
    bch_defining_set,
    complement,
    coset,
    field_create,
    gcd_lemma,
    is_dual_containing_set,
    minimal_polynomial,
    product,
    root_context,
    set_map,
    x_pow_n_minus_1,
)
from cycledual import gf

import reference
from conftest import GF2, GF4


def DS(n, q, members):
    return DefiningSet(n, q, frozenset(members))


def test_coset_examples():
    assert coset(7, 2, 1) == (1, 2, 4)
    assert coset(21, 4, 7) == (7,)  # 7*4 = 28 = 7 mod 21
    assert coset(21, 4, 0) == (0,)
    assert coset(9, 2, 0) == (0,)


def test_all_cosets_examples():
    assert reference.all_cosets(7, 2) == {0: (0,), 1: (1, 2, 4), 3: (3, 5, 6)}
    c21 = reference.all_cosets(21, 4)
    assert c21 == {
        0: (0,),
        1: (1, 4, 16),
        2: (2, 8, 11),
        3: (3, 6, 12),
        5: (5, 17, 20),
        7: (7,),
        9: (9, 15, 18),
        10: (10, 13, 19),
        14: (14,),
    }
    assert sum(len(v) for v in c21.values()) == 21
    assert reference.all_cosets(1, 2) == {0: (0,)}


@pytest.mark.parametrize("q", [2, 4, 8])
def test_all_cosets_partition_invariant(q):
    for n in range(1, 128, 2):
        cosets = reference.all_cosets(n, q)
        seen: set[int] = set()
        for rep, orb in cosets.items():
            assert rep == min(orb)
            orbset = set(orb)
            assert not orbset & seen  # disjoint
            assert all((i * q) % n in orbset for i in orb)  # closed
            seen |= orbset
        assert seen == set(range(n))  # cover


def test_set_map_examples():
    assert set_map(DS(7, 2, {1, 2, 4}), -1).sorted_members == (3, 5, 6)
    T = DS(21, 4, {1, 2, 4, 8, 11, 16})
    assert set_map(T, -2).sorted_members == (5, 10, 13, 17, 19, 20)
    assert set_map(DS(7, 2, ()), -5).sorted_members == ()


def test_set_map_involution():
    rng = random.Random(3)
    for _ in range(50):
        n = rng.randrange(3, 60, 2)
        T = DS(n, 2, {rng.randrange(n) for _ in range(rng.randrange(n))})
        assert set_map(set_map(T, -1), -1) == T


def test_complement_examples():
    assert complement(DS(7, 2, {1, 2, 4})).sorted_members == (0, 3, 5, 6)
    assert complement(DS(7, 2, range(7))).sorted_members == ()
    T = DS(21, 4, {1, 2, 3, 4, 6, 8, 11, 12, 16})
    assert complement(T).sorted_members == (0, 5, 7, 9, 10, 13, 14, 15, 17, 18, 19, 20)


def test_bch_defining_set_examples():
    assert bch_defining_set(7, 2, 1).sorted_members == (1, 2, 4)
    assert bch_defining_set(21, 4, 3).sorted_members == (1, 2, 3, 4, 6, 8, 11, 12, 16)
    assert len(bch_defining_set(15, 2, 0)) == 0


def test_bch_bound_examples():
    assert bch_bound(DS(7, 2, {1, 2, 4})) == 3  # longest run {1,2}
    assert bch_bound(DS(21, 4, {1, 2, 3, 4, 6, 8, 11, 12, 16})) == 5
    assert bch_bound(DS(7, 2, ())) == 1
    assert bch_bound(DS(7, 2, range(7))) == 8  # full set
    assert bch_bound(DS(9, 2, {0, 1, 8})) == 4  # wraps across 8 -> 0
    assert bch_bound(DS(9, 2, {0, 1, 2, 7, 8})) == 6
    assert bch_bound(DS(5, 2, {2})) == 2


def test_bch_bound_monotone_random():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.choice([7, 9, 15, 21, 31])
        q = rng.choice([2, 4])
        reps = sorted(reference.all_cosets(n, q))
        chosen = [r for r in reps if rng.random() < 0.5]
        extra = [r for r in reps if rng.random() < 0.5]
        small = set().union(*(coset(n, q, r) for r in chosen)) if chosen else set()
        big = small | (set().union(*(coset(n, q, r) for r in extra)) if extra else set())
        assert bch_bound(DS(n, q, small)) <= bch_bound(DS(n, q, big))


def test_is_dual_containing_set():
    assert is_dual_containing_set(DS(7, 2, {1, 2, 4}), "euclidean") is True
    assert is_dual_containing_set(DS(7, 2, {0}), "euclidean") is False
    # -2*7 = 7 mod 21, so {7} meets its own image
    assert is_dual_containing_set(DS(21, 4, {7}), "hermitian", q=2) is False
    assert is_dual_containing_set(DS(21, 4, {1, 2, 4, 8, 11, 16}), "hermitian", q=2) is True
    with pytest.raises(ValueError, match="not coset-closed"):
        is_dual_containing_set(DS(7, 2, {1, 2}), "euclidean")
    with pytest.raises(ValueError, match="q\\^2"):
        is_dual_containing_set(DS(21, 4, {7}), "hermitian", q=4)
    with pytest.raises(ValueError):
        is_dual_containing_set(DS(7, 2, {1, 2, 4}), "unitary")


def test_gcd_lemma_examples():
    assert gcd_lemma(2, 3, 6, "minus_minus") == 7
    assert gcd_lemma(2, 2, 3, "plus_minus") == 1
    assert gcd_lemma(3, 1, 3, "plus_minus") == 2
    with pytest.raises(ValueError):
        gcd_lemma(2, 1, 1, "plus_plus")
    with pytest.raises(ValueError):
        gcd_lemma(1, 1, 1, "minus_minus")


def test_gcd_lemma_agrees_with_integer_gcd():
    for q in (2, 3, 4, 8):
        for a in range(1, 13):
            for b in range(1, 13):
                assert gcd_lemma(q, a, b, "minus_minus") == math.gcd(q**a - 1, q**b - 1)
                assert gcd_lemma(q, a, b, "plus_minus") == math.gcd(q**a + 1, q**b - 1)


def test_minimal_polynomial_mod7():
    ctx = root_context(GF2, 7)
    mps = minimal_polynomial(ctx, [6, 1, 0, 4, 1])
    assert list(mps.items()) == [
        ((0,), Poly(GF2, (1, 1))),
        ((1, 2, 4), Poly(GF2, (1, 1, 0, 1))),
        ((3, 5, 6), Poly(GF2, (1, 0, 1, 1))),
    ]
    assert minimal_polynomial(ctx, []) == {}
    for bad in [7, -1, 2**70]:
        with pytest.raises(ValueError, match="residues must lie in 0..n-1"):
            minimal_polynomial(ctx, [0, bad])
    assert reference.minimal_polynomial((3, 5, 6), ctx.beta, ctx.emb) == Poly(GF2, (1, 0, 1, 1))


@pytest.mark.parametrize("field", [GF2, GF4])
@pytest.mark.parametrize("n", [7, 9, 15, 21, 63])
def test_minimal_polynomial_product(field, n):
    mps = minimal_polynomial(root_context(field, n), range(n))
    assert list(mps) == list(reference.all_cosets(n, field.order).values())
    assert [(mp.coeffs[-1], mp.degree) for mp in mps.values()] == [(1, len(c)) for c in mps]
    assert product(field, mps.values()) == x_pow_n_minus_1(field, n)


# (q, n, degree of the extension GF(2^e) hosting the n-th roots of unity);
# GF(2^18) lies past the log/antilog table limit
TABLE_CASES = [(2, 1, 1), (4, 63, 6), (256, 255, 8), (16, 1285, 16), (2, 1387, 18)]


@pytest.mark.parametrize("q,n,e", TABLE_CASES)
def test_minimal_polynomial_from_the_powers_table_matches_the_frobenius_roots(q, n, e):
    field = field_create(q.bit_length() - 1)
    ctx = root_context(field, n)
    assert ctx.ext.s == e
    mps = minimal_polynomial(ctx, range(n))
    assert mps == {
        orb: reference.minimal_polynomial(orb, ctx.beta, ctx.emb)
        for orb in reference.all_cosets(n, q).values()
    }
    assert product(field, mps.values()) == x_pow_n_minus_1(field, n)


def _feasible_context(q, n):
    """The root context of GF(q) and n, or None past GF(2^32)."""
    try:
        return root_context(field_create(q.bit_length() - 1), n)
    except ValueError:
        return None


@settings(max_examples=60, deadline=None)
@given(
    q=st.sampled_from([2, 4, 16, 256]),
    n=st.integers(0, 60).map(lambda i: 2 * i + 1),
    picks=st.lists(st.integers(0, 2**32 - 1), max_size=12),
)
@example(q=2, n=47, picks=[0, 1, 1, 0, 2, 46])  # GF(2^23), past the tables
@example(q=256, n=7, picks=[5, 2, 2])  # GF(2^24) over GF(256)
@example(q=2, n=1, picks=[0, 0])  # m = 1: each coset is one residue
@example(q=4, n=3, picks=[2, 1, 2])
@example(q=256, n=85, picks=[84, 3, 17, 3])
def test_minimal_polynomial_of_a_batch_matches_the_reference_coset_by_coset(q, n, picks):
    # residues with repeats, in any order: one entry per coset they meet,
    # in order of smallest member
    ctx = _feasible_context(q, n)
    assume(ctx is not None)
    residues = [p % n for p in picks]
    mps = minimal_polynomial(ctx, residues)
    assert list(mps) == sorted({coset(n, q, r) for r in residues})
    assert mps == {c: reference.minimal_polynomial(c, ctx.beta, ctx.emb) for c in mps}
    everything = minimal_polynomial(ctx, range(n))
    assert list(everything) == list(reference.all_cosets(n, q).values())
    assert product(ctx.emb.base, everything.values()) == x_pow_n_minus_1(ctx.emb.base, n)


@settings(max_examples=60, deadline=None)
@given(
    q=st.sampled_from([2, 4, 16, 256]),
    n=st.integers(0, 60).map(lambda i: 2 * i + 1),
    picks=st.lists(st.integers(0, 2**32 - 1), max_size=6),
    bad=st.sampled_from(["n", "-1", "2^70"]),
    at=st.integers(0, 6),
)
def test_minimal_polynomial_rejects_a_batch_holding_one_bad_set(q, n, picks, bad, at):
    # one residue out of 0..n-1 anywhere among valid ones
    ctx = _feasible_context(q, n)
    assume(ctx is not None)
    residues = [p % n for p in picks]
    residues.insert(at % (len(residues) + 1), {"n": n, "-1": -1, "2^70": 2**70}[bad])
    with pytest.raises(ValueError, match="residues must lie in 0..n-1"):
        minimal_polynomial(ctx, residues)


def _tampered(ctx, powers):
    """A context like ctx whose table of beta's powers is the given one."""
    return SimpleNamespace(n=ctx.n, m=ctx.m, emb=ctx.emb, powers=np.array(powers, np.uint64))


def test_minimal_polynomial_rejects_table_roots_that_are_not_a_coset():
    ctx = root_context(GF2, 7)
    assert minimal_polynomial(_tampered(ctx, ctx.powers), [1]) == {
        (1, 2, 4): Poly(GF2, (1, 1, 0, 1))
    }
    # a GF(2) cubic with root beta is beta's minimal polynomial, whose roots
    # are exactly beta, beta^2 and beta^4: any other value for beta^2 fails
    for j in (0, 3, 5, 6):
        powers = ctx.powers.tolist()
        powers[2] = powers[j]
        with pytest.raises(RuntimeError, match="internal: "):
            minimal_polynomial(_tampered(ctx, powers), [0, 1])


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_minimal_polynomial_catches_a_tampered_powers_table(data):
    # a wrong power ends in the internal error or fails factor's product
    # check, and never yields a wrong factor that passes
    q, n, _ = data.draw(st.sampled_from(TABLE_CASES[1:4]), label="case")
    field = field_create(q.bit_length() - 1)
    ctx = root_context(field, n)
    powers = ctx.powers.tolist()
    j = data.draw(st.integers(0, n - 1), label="j")
    powers[j] = data.draw(
        st.integers(0, ctx.ext.order - 1).filter(lambda v: v != powers[j]), label="beta^j"
    )
    try:
        mps = minimal_polynomial(_tampered(ctx, powers), range(n))
    except RuntimeError as exc:
        assert str(exc).startswith("internal: ")
    else:
        assert product(field, mps.values()) != x_pow_n_minus_1(field, n)


def test_root_context_builds_the_powers_table_on_first_use(monkeypatch):
    # n = 2^31 - 1 needs GF(2^31): the context itself takes a handful of
    # products, while a table would take 2^31; the counter stops a walk early
    calls = 0
    field_mul = gf.Field.mul

    def mul(field, a, b):
        nonlocal calls
        calls += 1
        if calls > 10_000:
            raise AssertionError("root_context walked the powers of beta")
        return field_mul(field, a, b)

    monkeypatch.setattr(gf.Field, "mul", mul)
    ctx = root_context(GF2, 2**31 - 1)
    assert "powers" not in vars(ctx)
    monkeypatch.undo()
    ctx = root_context(GF2, 63)
    assert ctx.powers[1] == ctx.beta and len(ctx.powers) == 63
    assert vars(ctx)["powers"] is ctx.powers


def test_root_context_powers_match_pow_beyond_the_tables():
    ctx = root_context(GF4, 8191)  # beta lives in GF(2^26)
    assert ctx.ext.s == 26
    assert ctx.powers.dtype == np.uint64
    assert ctx.powers.tolist() == [ctx.ext.pow(ctx.beta, j) for j in range(8191)]


def test_root_context_powers_are_read_only():
    # the context is cached and shared by every caller of root_context
    ctx = root_context(GF4, 63)
    with pytest.raises(ValueError, match="read-only"):
        ctx.powers[1] = 1
    assert ctx.powers[1] == ctx.beta


def test_root_context_powers_make_one_scalar_product(monkeypatch):
    # the doubling walk multiplies vectors; the one Field.mul is the closing
    # check beta^(n-1) * beta == 1, where a scalar walk made n of them
    calls = 0
    field_mul = gf.Field.mul

    def mul(field, a, b):
        nonlocal calls
        calls += 1
        return field_mul(field, a, b)

    ctx = dataclasses.replace(root_context(GF4, 8191))  # a fresh, unwalked copy
    assert "powers" not in vars(ctx)
    monkeypatch.setattr(gf.Field, "mul", mul)
    assert len(ctx.powers) == 8191
    assert calls == 1


def test_defining_set_serialization():
    T = DS(21, 4, {16, 1, 4})
    assert T.to_string() == "1,4,16"
    assert DefiningSet.from_string(21, 4, "1,4,16") == T
    assert DefiningSet.from_string(21, 4, "") == DS(21, 4, ())
    for bad in ("1,4,16,", "4,1,16", "1,04", "1,1", "21", "-1", "1 ,4"):
        with pytest.raises(ValueError):
            DefiningSet.from_string(21, 4, bad)


def test_defining_set_validation():
    with pytest.raises(ValueError):
        DS(7, 2, {7})
    with pytest.raises(ValueError):
        DS(0, 2, ())
    assert DS(7, 2, {1, 2, 4}).is_coset_closed()
    assert not DS(7, 2, {1, 2}).is_coset_closed()
