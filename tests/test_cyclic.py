import dataclasses

import numpy as np
import pytest

from cycledual import (
    CyclicCode,
    DefiningSet,
    Poly,
    bch_defining_set,
    build_family,
    x_pow_n_minus_1,
)
from cycledual import cyclic
from cycledual.cyclo import complement, set_map
from cycledual.poly import _monic_reversal
from conftest import GF2, GF4, divisor_codes
from reference import contains, encode, frobenius, mat_mul, rank


def hamming():
    return CyclicCode.from_defining_set(GF2, 7, bch_defining_set(7, 2, 1))


def test_from_defining_set_hamming():
    c = hamming()
    assert (c.n, c.k) == (7, 4)
    assert c.g == Poly(GF2, (1, 1, 0, 1))
    assert c.h == Poly(GF2, (1, 1, 1, 0, 1))
    assert c.T.sorted_members == (1, 2, 4)


def test_from_defining_set_gf4():
    c = CyclicCode.from_defining_set(GF4, 21, bch_defining_set(21, 4, 3))
    assert (c.n, c.k) == (21, 12)
    assert c.g.degree == 9 and c.g.coeffs[-1] == 1


def test_from_defining_set_whole_space():
    c = CyclicCode.from_defining_set(GF4, 21, DefiningSet(21, 4, frozenset()))
    assert (c.k, c.g) == (21, Poly.one(GF4))


def test_from_defining_set_errors():
    with pytest.raises(ValueError, match="repeated-root"):
        CyclicCode.from_defining_set(GF2, 14, DefiningSet(14, 2, frozenset()))
    with pytest.raises(ValueError, match="coset-closed"):
        CyclicCode.from_defining_set(GF2, 7, DefiningSet(7, 2, frozenset({1})))
    with pytest.raises(ValueError, match="base"):
        CyclicCode.from_defining_set(GF4, 7, DefiningSet(7, 2, frozenset({1, 2, 4})))


@pytest.mark.parametrize("dropped", [(0,), (3, 5, 6)])
def test_from_defining_set_checks_that_the_table_multiplies_back(monkeypatch, dropped):
    # g1 and h1 are products of the coset table over T and outside it: a
    # table short of a coset outside T gives a wrong h1, which only the
    # product check g1 h1 = x^n - 1 sees
    ctx = dataclasses.replace(cyclic.root_context(GF2, 7))  # a fresh context
    table = dict(cyclic.root_context(GF2, 7).minimal_polynomials)
    del table[dropped]
    vars(ctx)["minimal_polynomials"] = table
    monkeypatch.setattr(cyclic, "root_context", lambda field, n: ctx)
    with pytest.raises(RuntimeError, match="^internal: the coset table does not multiply back"):
        CyclicCode.from_defining_set(GF2, 7, bch_defining_set(7, 2, 1))


def test_root_context_table_is_read_only():
    # the context is cached and shared by every caller of root_context
    table = cyclic.root_context(GF2, 7).minimal_polynomials
    with pytest.raises(TypeError):
        table[(0,)] = Poly.one(GF2)
    assert table[(0,)] == Poly(GF2, (1, 1))


def test_from_generator():
    c = CyclicCode.from_generator(GF2, 7, Poly(GF2, (1, 1, 0, 1)))
    assert c.T.sorted_members == (1, 2, 4)
    zero = CyclicCode.from_generator(GF2, 7, Poly(GF2, [1] + [0] * 6 + [1]))
    assert zero.k == 0 and len(zero.T) == 7
    with pytest.raises(ValueError, match="not a divisor"):
        CyclicCode.from_generator(GF2, 7, Poly(GF2, (1, 0, 1)))  # (x+1)^2


def test_from_generator_normalizes_monic():
    g = Poly(GF4, (2, 2))  # 2 (x + 1)
    c = CyclicCode.from_generator(GF4, 3, g)
    assert c.g == Poly(GF4, (1, 1))


def test_dual_hamming():
    d = hamming().dual("euclidean")
    assert (d.n, d.k) == (7, 3)
    assert d.T.sorted_members == (0, 1, 2, 4)
    assert d.g == Poly(GF2, (1, 0, 1, 1, 1))


def test_dual_whole_space_is_zero_code():
    c = CyclicCode.from_defining_set(GF2, 7, DefiningSet(7, 2, frozenset()))
    d = c.dual("euclidean")
    assert d.k == 0 and len(d.T) == 7


def test_hermitian_dual_defining_set():
    T = DefiningSet(21, 4, frozenset({1, 2, 4, 8, 11, 16}))
    c = CyclicCode.from_defining_set(GF4, 21, T)
    d = c.dual("hermitian")
    assert d.T.sorted_members == (0, 1, 2, 3, 4, 6, 7, 8, 9, 11, 12, 14, 15, 16, 18)
    assert d.k == 6


def test_hermitian_needs_square_order():
    with pytest.raises(ValueError, match="square order"):
        hamming().dual("hermitian")


@pytest.mark.parametrize("field", [GF2, GF4])
@pytest.mark.parametrize("n", [7, 9, 15, 21])
def test_dual_paths_agree_and_dims_sum(field, n):
    kinds = ("euclidean", "hermitian") if field is GF4 else ("euclidean",)
    for code in divisor_codes(field, n):
        for kind in kinds:
            d = code.dual(kind)
            assert code.k + d.k == n
            assert d.T == CyclicCode.from_generator(field, n, d.g).T, (code.T, kind)
            # the dual's check polynomial is the generator of -q T, built
            # from minimal polynomials, with no division
            assert d.g * d.h == x_pow_n_minus_1(field, n), (code.T, kind)


@pytest.mark.parametrize("n", [5, 9, 15, 21])
def test_dual_rejects_generator_without_conjugation(monkeypatch, n):
    # with the Hermitian conjugation skipped, dual("hermitian") gets the
    # Euclidean dual generator, whose roots -(Z_n minus T) differ from the
    # Hermitian T^perp = -2 (Z_n minus T) exactly when 2T != T
    monkeypatch.setattr(CyclicCode, "_dual_generator", lambda self, kind: _monic_reversal(self.h))
    changed = 0
    for code in divisor_codes(GF4, n):
        if set_map(code.T, 2) == code.T:
            assert code.dual("hermitian").T == set_map(complement(code.T), -2)
        else:
            changed += 1
            with pytest.raises(RuntimeError, match="root outside"):
                code.dual("hermitian")
    assert changed > 0


@pytest.mark.parametrize(
    "name,fault",
    [
        pytest.param("conjugate_poly", lambda p, q: p, id="no-conjugation"),
        pytest.param("_monic_reversal", lambda h: h.monic(), id="no-reversal"),
    ],
)
def test_dual_check_catches_faults_in_reversal_and_conjugation(monkeypatch, name, fault):
    # the check multiplies by the generator of -q T, built from minimal
    # polynomials, so a fault in the helpers that build the dual generator
    # cannot cancel out of it
    monkeypatch.setattr(cyclic, name, fault)
    raised = 0
    for field, n in ((GF2, 15), (GF4, 15), (GF4, 21)):
        kinds = ("euclidean", "hermitian") if field is GF4 else ("euclidean",)
        for code in divisor_codes(field, n):
            for kind in kinds:
                try:
                    d = code.dual(kind)
                except RuntimeError:
                    raised += 1
                    continue
                assert d.T == CyclicCode.from_generator(field, n, d.g).T, (code.T, kind)
    assert raised > 0


@pytest.mark.parametrize("n", [3, 5, 7, 9, 15])
def test_hermitian_double_dual_is_identity(n):
    for code in divisor_codes(GF4, n):
        dd = code.dual("hermitian").dual("hermitian")
        assert dd.g == code.g and dd.T == code.T


def test_is_dual_containing():
    assert hamming().is_dual_containing("euclidean") is True
    c = CyclicCode.from_defining_set(GF4, 21, bch_defining_set(21, 4, 2))
    assert c.k == 15
    assert c.is_dual_containing("hermitian") is True
    zero = CyclicCode.from_generator(GF2, 7, Poly(GF2, [1] + [0] * 6 + [1]))
    assert zero.is_dual_containing("euclidean") is False


def test_generator_matrix():
    g = hamming().generator_matrix()
    assert g.shape == (4, 7)
    assert list(g[0]) == [1, 1, 0, 1, 0, 0, 0]
    assert list(g[1]) == [0, 1, 1, 0, 1, 0, 0]
    assert rank(GF2, g) == 4

    whole = CyclicCode.from_defining_set(GF2, 3, DefiningSet(3, 2, frozenset()))
    assert np.array_equal(whole.generator_matrix(), np.eye(3, dtype=np.uint8))

    c21 = CyclicCode.from_defining_set(GF4, 21, bch_defining_set(21, 4, 3))
    assert rank(GF4, c21.generator_matrix()) == 12

    zero = CyclicCode.from_generator(GF2, 7, Poly(GF2, [1] + [0] * 6 + [1]))
    with pytest.raises(ValueError, match="no basis"):
        zero.generator_matrix()


# encode and contains are the tests' brute-force span and membership
# (reference.py); these pin them to the generator matrix and to known words


def test_encode_examples():
    c = hamming()
    assert encode(c, (1, 0, 0, 0)) == (1, 1, 0, 1, 0, 0, 0)
    assert encode(c, (0, 1, 0, 0)) == (0, 1, 1, 0, 1, 0, 0)
    expected = tuple((Poly(GF2, (1, 1, 1, 1)) * c.g).coeffs.tolist())
    assert encode(c, (1, 1, 1, 1)) == expected + (0,) * (7 - len(expected))
    for i, row in enumerate(c.generator_matrix()):
        assert encode(c, [int(j == i) for j in range(c.k)]) == tuple(row.tolist())
    with pytest.raises(ValueError, match="length"):
        encode(c, (1, 0, 0))


def test_contains_examples():
    c = hamming()
    assert contains(c, (1, 1, 0, 1, 0, 0, 0)) is True
    assert contains(c, (1,) * 7) is True  # all-ones word
    assert contains(c, (1, 0, 0, 0, 0, 0, 0)) is False
    with pytest.raises(ValueError, match="length"):
        contains(c, (1, 0))


def test_encode_lands_in_code():
    import random

    rng = random.Random(5)
    for code in (hamming(), CyclicCode.from_defining_set(GF4, 15, bch_defining_set(15, 4, 2))):
        for _ in range(25):
            msg = [rng.randrange(code.field.order) for _ in range(code.k)]
            assert contains(code, encode(code, msg))


def _brute_force_dual(field, code, kind):
    """All length-n vectors orthogonal to every codeword, by enumeration."""
    from itertools import product

    rows = [list(map(int, r)) for r in code.generator_matrix()] if code.k else []
    conj_k = field.s // 2 if kind == "hermitian" else 0
    out = set()
    for vec in product(range(field.order), repeat=code.n):
        for row in rows:
            acc = 0
            for a, b in zip(row, vec):
                acc ^= field.mul(a, frobenius(field, b, conj_k))
            if acc:
                break
        else:
            out.add(vec)
    return out


@pytest.mark.parametrize(
    "field,n,kind",
    [(GF2, 7, "euclidean"), (GF4, 5, "euclidean"), (GF4, 5, "hermitian"), (GF4, 7, "hermitian")],
)
def test_dual_matches_brute_force(field, n, kind):
    from itertools import product

    for code in divisor_codes(field, n):
        expected = _brute_force_dual(field, code, kind)
        d = code.dual(kind)
        got = set()
        for msg in product(range(field.order), repeat=d.k):
            got.add(encode(d, msg))
        assert got == expected, (n, kind, code.T)


def test_self_orthogonality_via_matrix():
    c = hamming()
    d = c.dual("euclidean")  # simplex-plus-parity, self-orthogonal
    gd = d.generator_matrix()
    assert not mat_mul(GF2, gd, gd.T).any()
    g = c.generator_matrix()
    assert mat_mul(GF2, g, g.T).any()  # Hamming itself is not self-orthogonal


def test_each_generator_expands_its_cosets_in_one_call(monkeypatch):
    # g1, h1, the dual's h and g2 are products of one table, which each root
    # context expands once, on first use
    calls = []
    build = cyclic.minimal_polynomial

    def counted(ctx):
        calls.append((ctx.emb.base.order, ctx.n))
        return build(ctx)

    monkeypatch.setattr(cyclic, "minimal_polynomial", counted)
    cyclic.root_context.cache_clear()  # a fresh context, whose table is unexpanded
    for _ in range(2):
        assert build_family("hermitian", 1, 3, 1).all_checks_pass
    assert calls == [(4, 63)]
