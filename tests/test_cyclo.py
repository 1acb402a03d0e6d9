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
    field_create,
    is_coset_table,
    is_dual_containing_set,
    minimal_polynomial,
    product,
    root_context,
    set_map,
    x_pow_n_minus_1,
)
from cycledual import gf

import reference
from conftest import GF2, GF4, coset_table, table_rows
from reference import coset, gcd_lemma


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


@st.composite
def residue_sets(draw):
    """(n, q, members): an arbitrary or a coset-closed subset of Z_n, odd n."""
    q = draw(st.sampled_from([2, 4, 16]))
    n = 2 * draw(st.integers(0, 127)) + 1
    members = draw(st.frozensets(st.integers(0, n - 1)))
    if draw(st.booleans()):
        members = frozenset().union(*(coset(n, q, i) for i in members))
    return n, q, members


@settings(max_examples=300, deadline=None)
@given(case=residue_sets(), c=st.integers(-300, 300))
@example(case=(7, 2, frozenset()), c=-1)
@example(case=(7, 2, frozenset(range(7))), c=-1)
@example(case=(9, 2, frozenset({7, 8, 0, 1})), c=-2)  # a run that wraps past 8 -> 0
@example(case=(15, 4, frozenset({0, 1, 4, 7, 13, 14})), c=-2)  # runs 13..1, {4}, {7}
def test_mask_set_algebra_matches_the_frozenset_reference(case, c):
    n, q, members = case
    T = DefiningSet(n, q, members)
    assert T.sorted_members == tuple(sorted(members)) and len(T) == len(members)
    assert T == DefiningSet.from_string(n, q, T.to_string())
    mapped, comp = set_map(T, c), complement(T)
    assert set(mapped.sorted_members) == reference.set_map(members, n, c)
    assert set(comp.sorted_members) == reference.complement(members, n)
    assert not (T.mask.flags.writeable or mapped.mask.flags.writeable or comp.mask.flags.writeable)
    assert bch_bound(T) == reference.bch_bound(members, n)
    closed = T.is_coset_closed()
    assert closed == reference.is_coset_closed(members, n, q)
    if closed:
        assert is_dual_containing_set(T, "euclidean") == reference.is_dual_containing_set(
            members, n, -1
        )
        if q > 2:
            r = math.isqrt(q)
            assert is_dual_containing_set(T, "hermitian", r) == (
                reference.is_dual_containing_set(members, n, -r)
            )


def test_bch_defining_set_is_the_union_of_the_reference_cosets():
    for q in (2, 4, 16):
        for n in range(1, 64, 2):
            for b in range(n + 2):
                union = frozenset().union(*(coset(n, q, i) for i in range(1, b + 1)))
                assert bch_defining_set(n, q, b) == DefiningSet(n, q, union), (n, q, b)


def test_defining_set_rejects_residues_outside_z_n():
    for bad in ([7], [-1], [2**64], [-(2**70)]):
        with pytest.raises(ValueError, match="residues must lie in 0..n-1"):
            DefiningSet(7, 2, bad)
    with pytest.raises(ValueError, match="residues must lie in 0..n-1"):
        DefiningSet.from_string(7, 2, f"1,2,{2**64}")


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
    table = minimal_polynomial(ctx)
    # each coset walked from its least member, the rows end to end, monic
    assert table.members.tolist() == [0, 1, 2, 4, 3, 6, 5]
    assert table.sizes.tolist() == [1, 3, 3]
    assert table.least.tolist() == [0, 1, 3]
    assert table.coeffs.tolist() == [1, 1, 1, 1, 0, 1, 1, 0, 1, 1]
    assert table.coeffs.dtype == np.uint8
    assert not any(a.flags.writeable for a in table)
    mps = table_rows(table, GF2)
    assert list(mps.items()) == [
        ((0,), Poly(GF2, (1, 1))),
        ((1, 2, 4), Poly(GF2, (1, 1, 0, 1))),
        ((3, 5, 6), Poly(GF2, (1, 0, 1, 1))),
    ]
    assert reference.minimal_polynomial((3, 5, 6), ctx.beta, ctx.emb) == Poly(GF2, (1, 0, 1, 1))


@pytest.mark.parametrize("field", [GF2, GF4])
@pytest.mark.parametrize("n", [7, 9, 15, 21, 63])
def test_minimal_polynomial_product(field, n):
    mps = table_rows(minimal_polynomial(root_context(field, n)), field)
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
    mps = table_rows(minimal_polynomial(ctx), field)
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
)
@example(q=2, n=47)  # GF(2^23), past the tables
@example(q=256, n=7)  # GF(2^24) over GF(256)
@example(q=2, n=1)  # m = 1: each coset is one residue
@example(q=4, n=3)
@example(q=256, n=85)
def test_minimal_polynomial_of_a_batch_matches_the_reference_coset_by_coset(q, n):
    # the batch is every coset, one entry each in order of smallest member
    ctx = _feasible_context(q, n)
    assume(ctx is not None)
    mps = table_rows(minimal_polynomial(ctx), ctx.emb.base)
    assert list(mps) == list(reference.all_cosets(n, q).values())
    assert mps == {c: reference.minimal_polynomial(c, ctx.beta, ctx.emb) for c in mps}
    assert product(ctx.emb.base, mps.values()) == x_pow_n_minus_1(ctx.emb.base, n)


def _tampered(ctx, powers):
    """A context like ctx whose table of beta's powers is the given one."""
    return SimpleNamespace(n=ctx.n, m=ctx.m, emb=ctx.emb, powers=np.array(powers, np.uint64))


def test_minimal_polynomial_rejects_table_roots_that_are_not_a_coset():
    ctx = root_context(GF2, 7)
    table = minimal_polynomial(_tampered(ctx, ctx.powers))
    assert table_rows(table, GF2)[(1, 2, 4)] == Poly(GF2, (1, 1, 0, 1))
    # a GF(2) cubic with root beta is beta's minimal polynomial, whose roots
    # are exactly beta, beta^2 and beta^4: any other value for beta^2 fails
    for j in (0, 3, 5, 6):
        powers = ctx.powers.tolist()
        powers[2] = powers[j]
        with pytest.raises(RuntimeError, match="internal: "):
            minimal_polynomial(_tampered(ctx, powers))


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_minimal_polynomial_catches_a_tampered_powers_table(data):
    # a wrong power ends in the internal error or fails factor's check,
    # which reads the true powers, and never yields a wrong factor that passes
    q, n, _ = data.draw(st.sampled_from(TABLE_CASES[1:4]), label="case")
    field = field_create(q.bit_length() - 1)
    ctx = root_context(field, n)
    powers = ctx.powers.tolist()
    j = data.draw(st.integers(0, n - 1), label="j")
    powers[j] = data.draw(
        st.integers(0, ctx.ext.order - 1).filter(lambda v: v != powers[j]), label="beta^j"
    )
    try:
        table = minimal_polynomial(_tampered(ctx, powers))
    except RuntimeError as exc:
        assert str(exc).startswith("internal: ")
    else:
        assert not is_coset_table(ctx, table)
        assert product(field, table_rows(table, field).values()) != x_pow_n_minus_1(field, n)


def _table_lengths(q):
    """The odd n <= 255 whose n-th roots of unity lie in GF(2^TABLE_MAX_S),
    so that every product over the extension reads the log/antilog tables."""
    s = q.bit_length() - 1
    return [
        n for n in range(1, 256, 2)
        if any((q**m - 1) % n == 0 for m in range(1, gf.TABLE_MAX_S // s + 1))
    ]


_TABLE_CONTEXTS = st.sampled_from([2, 4, 16]).flatmap(
    lambda q: st.tuples(st.just(q), st.sampled_from(_table_lengths(q)))
)


@settings(max_examples=60, deadline=None)
@given(case=_TABLE_CONTEXTS)
@example(case=(2, 1))
@example(case=(4, 63))
@example(case=(16, 255))
def test_is_coset_table_accepts_the_coset_table_as_the_product_identity_does(case):
    q, n = case
    field = field_create(q.bit_length() - 1)
    ctx = root_context(field, n)
    table = minimal_polynomial(ctx)
    assert is_coset_table(ctx, table)
    assert product(field, table_rows(table, field).values()) == x_pow_n_minus_1(field, n)


@settings(max_examples=60, deadline=None)
@given(case=_TABLE_CONTEXTS, data=st.data())
def test_is_coset_table_refuses_any_changed_coefficient(case, data):
    # the coset table is the only table that passes, so every change fails
    q, n = case
    field = field_create(q.bit_length() - 1)
    ctx = root_context(field, n)
    table = minimal_polynomial(ctx)
    coeffs = table.coeffs.copy()
    i = data.draw(st.integers(0, len(coeffs) - 1), label="i")
    coeffs[i] = data.draw(st.integers(0, q - 1).filter(lambda c: c != coeffs[i]), label="c")
    assert not is_coset_table(ctx, table._replace(coeffs=coeffs))


def test_is_coset_table_refuses_keys_that_are_not_one_coset():
    ctx = root_context(GF2, 7)
    mps = table_rows(minimal_polynomial(ctx), GF2)
    assert is_coset_table(ctx, coset_table(mps))
    cubic = mps[(1, 2, 4)]
    # {1, 2, 4} and {3, 5, 6} split and rejoined: a partition of Z_7 with
    # keys of the right sizes, but not closed under r -> 2r
    split = {(0,): mps[(0,)], (1, 2, 3): cubic, (4, 5, 6): mps[(3, 5, 6)]}
    assert not is_coset_table(ctx, coset_table(split))
    # {1, 2, 4} and {3, 5, 6} merged, closed, with their product as the row
    merged = {(0,): mps[(0,)], (1, 2, 3, 4, 5, 6): cubic * mps[(3, 5, 6)]}
    assert product(GF2, merged.values()) == x_pow_n_minus_1(GF2, 7)
    assert not is_coset_table(ctx, coset_table(merged))
    # a residue twice, with one more residue than Z_7 or in place of 6
    assert not is_coset_table(ctx, coset_table({**mps, (0, 0): mps[(0,)]}))
    twice = {(0,): mps[(0,)], (1, 2, 4): cubic, (3, 5, 2): mps[(3, 5, 6)]}
    assert not is_coset_table(ctx, coset_table(twice))


def test_is_coset_table_refuses_a_row_outside_the_base_field():
    # (x - beta)(x - beta^3)(x - beta^5) vanishes at beta, the first member
    # of {1, 2, 4}, and is monic of degree 3, but its coefficients lie in
    # GF(8) and not all in GF(2); GF(8)'s values fit GF(2)'s dtype
    ctx = root_context(GF2, 7)
    mps = table_rows(minimal_polynomial(ctx), GF2)
    roots = [Poly(ctx.ext, (int(ctx.powers[j]), 1)) for j in (1, 3, 5)]
    row = product(ctx.ext, roots)
    assert row.coeffs.dtype == np.uint8 and row.coeffs.max() > 1
    assert not is_coset_table(ctx, coset_table({**mps, (1, 2, 4): row}))
    # a row in a wider dtype than the base field's, with the true values
    wide = coset_table(mps)
    assert not is_coset_table(ctx, wide._replace(coeffs=wide.coeffs.astype(np.uint16)))


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
