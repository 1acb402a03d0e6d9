import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from cycledual import (
    Field,
    FieldElement,
    extension_with_embedding,
    field_create,
    gf,
    nth_root_of_unity,
)
from cycledual.gf import default_modulus, is_irreducible


def test_field_create_defaults():
    f2 = field_create(1)
    assert (f2.s, f2.modulus, f2.order) == (1, 0b11, 2)
    f4 = field_create(2)
    assert f4.modulus == 0b111  # the only irreducible degree-2 binary polynomial
    assert field_create(3).modulus == 0b1011
    assert field_create(4).modulus == 0b10011
    assert field_create(8).modulus == 0b100011101


def test_field_create_custom_modulus():
    f8 = field_create(3, 0b1011)  # x^3 + x + 1 has no root in GF(2)
    assert f8.order == 8
    # the other irreducible cubic works too
    assert field_create(3, 0b1101).order == 8


def test_field_create_rejects_reducible():
    with pytest.raises(ValueError, match="not irreducible"):
        field_create(4, 0b10101)  # x^4 + x^2 + 1 = (x^2 + x + 1)^2


def test_field_create_rejects_degree_mismatch():
    with pytest.raises(ValueError, match="degree mismatch"):
        field_create(4, 0b1011)
    with pytest.raises(ValueError):
        field_create(0)
    with pytest.raises(ValueError):
        field_create(17)


def test_default_modulus_search_degrees_without_table_entry():
    for s in (7, 9, 10):
        mod = default_modulus(s)
        assert mod.bit_length() - 1 == s
        assert is_irreducible(mod)
        # lexicographically smallest: nothing below it is irreducible
        assert all(not is_irreducible(c) for c in range((1 << s) + 1, mod))


def test_arith_examples():
    f4 = field_create(2)
    assert f4.add(2, 2) == 0  # w + w = 0 in characteristic two
    assert f4.mul(2, 2) == 3  # w * w = w + 1 forced by x^2 + x + 1
    f8 = field_create(3, 0b1011)
    assert f8.mul(4, 4) == 6  # x^2 * x^2 = x^4 = x^2 + x mod x^3 + x + 1
    assert f8.div(6, 4) == 4
    with pytest.raises(ValueError, match="division by zero"):
        f8.div(1, 0)


def test_field_element_operators_and_mismatch():
    f4 = field_create(2)
    f8 = field_create(3)
    w = f4.element(2)
    assert (w + w).value == 0
    assert (w * w).value == 3
    assert (w / w).value == 1
    assert (w**3).value == 1
    assert -w == w
    assert int(w) == 2 and bool(w) and not bool(f4.zero)
    with pytest.raises(ValueError, match="field mismatch"):
        w + f8.element(2)
    with pytest.raises(ValueError, match="field mismatch"):
        w * f8.element(1)
    with pytest.raises(ValueError):
        f4.element(4)


@pytest.mark.parametrize("s", [1, 2, 3, 4])
def test_field_laws_exhaustive(s):
    f = field_create(s)
    els = list(f.elements())
    for a in els:
        for b in els:
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            for c in els:
                assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


@pytest.mark.parametrize("s", [1, 2, 3, 4, 8])
def test_inverse_law(s):
    f = field_create(s)
    for a in range(1, f.order):
        assert f.mul(a, f.pow(a, f.order - 2)) == 1
        assert f.mul(a, f.inv(a)) == 1


def test_frobenius_examples():
    f4 = field_create(2)
    assert f4.frobenius(2, 1) == 3  # w^2 = w + 1
    for s in (1, 2, 3, 4):
        f = field_create(s)
        assert all(f.frobenius(1, k) == 1 for k in range(6))
        assert all(f.frobenius(a, s) == a for a in f.elements())
    f16 = field_create(4)
    assert all(f16.frobenius(a, 4) == a for a in f16.elements())


@pytest.mark.parametrize("s", [1, 2, 3, 4])
def test_frobenius_is_a_ring_map(s):
    f = field_create(s)
    for a in f.elements():
        for b in f.elements():
            assert f.frobenius(f.add(a, b), 1) == f.add(f.frobenius(a, 1), f.frobenius(b, 1))
            assert f.frobenius(f.mul(a, b), 1) == f.mul(f.frobenius(a, 1), f.frobenius(b, 1))


def test_extension_prime_subfield():
    f2 = field_create(1)
    ext, emb = extension_with_embedding(f2, 3)
    assert ext.order == 8
    assert emb.table == (0, 1)
    assert emb.apply(1).value == 1


def test_extension_gf4_into_gf64():
    f4 = field_create(2)
    ext, emb = extension_with_embedding(f4, 3)
    assert ext.order == 64
    w = emb.apply(2).value
    # image of w satisfies w^2 + w + 1 = 0 inside GF(64)
    assert ext.mul(w, w) ^ w ^ 1 == 0
    # full ring-homomorphism check over all 16 pairs
    for a in f4.elements():
        for b in f4.elements():
            assert emb.table[f4.add(a, b)] == ext.add(emb.table[a], emb.table[b])
            assert emb.table[f4.mul(a, b)] == ext.mul(emb.table[a], emb.table[b])
    # every image lands in the subfield: e^(2^2) = e
    for img in emb.table:
        assert ext.frobenius(img, 2) == img


def test_embedding_pullback():
    f4 = field_create(2)
    ext, emb = extension_with_embedding(f4, 3)
    for v in f4.elements():
        assert emb.pullback(emb.apply(v)).value == v
    outside = next(x for x in range(ext.order) if not emb.in_image(x))
    with pytest.raises(ValueError, match="not in embedded subfield"):
        emb.pullback(outside)


def test_extension_size_limit():
    f16 = field_create(16)
    with pytest.raises(ValueError, match="2\\^32"):
        extension_with_embedding(f16, 3)


def test_nth_root_of_unity():
    f8 = field_create(3)
    assert nth_root_of_unity(f8, 1).value == 1
    beta = nth_root_of_unity(f8, 7)
    assert (beta**7).value == 1
    assert all((beta**k).value != 1 for k in range(1, 7))
    with pytest.raises(ValueError, match="no primitive n-th root"):
        nth_root_of_unity(f8, 5)


@pytest.mark.parametrize("s,n", [(2, 3), (4, 15), (4, 5), (6, 63), (6, 21), (6, 9)])
def test_nth_root_order_property(s, n):
    ext = field_create(s)
    beta = nth_root_of_unity(ext, n).value
    assert ext.pow(beta, n) == 1
    for p in (2, 3, 5, 7):
        if n % p == 0:
            assert ext.pow(beta, n // p) != 1


def test_primitive_element_is_canonical():
    # smallest element of full order, so a second lookup must agree
    for s in (1, 2, 3, 4, 6):
        f = field_create(s)
        g = f.primitive_element()
        assert g == f.primitive_element()
        if f.order > 2:
            assert all(
                f.multiplicative_order(v) < f.order - 1 for v in range(2, g)
            )
            assert f.multiplicative_order(g) == f.order - 1


def test_field_equality_and_hash():
    assert field_create(2) == Field(2)
    assert field_create(2) != field_create(3)
    assert hash(field_create(2)) == hash(Field(2, 0b111))
    e = FieldElement(field_create(2), 3)
    assert e == FieldElement(Field(2), 3)


@pytest.mark.parametrize(
    "s,m",
    [(2, 6), (4, 3), (8, 2), (2, 13)],
    ids=["gf4-gf2^12", "gf16-gf2^12", "gf256-gf2^16", "gf4-gf2^26"],
)
def test_extension_embedding_is_a_ring_map(s, m):
    # GF(2^12) and GF(2^16) multiply by table, GF(2^26) by shift-and-add
    base = field_create(s)
    ext, emb = extension_with_embedding(base, m)
    assert ext.s == s * m
    table = emb.table
    for a in base.elements():
        for b in base.elements():
            assert table[a ^ b] == table[a] ^ table[b]
            assert table[base.mul(a, b)] == ext.mul(table[a], table[b])
    assert all(ext.frobenius(img, s) == img for img in table)
    assert len(set(table)) == base.order


# -- scalar products: log/antilog tables up to GF(2^16), shift-and-add beyond --

TABLE_DEGREES = range(1, gf.TABLE_MAX_S + 1)
LOOP_DEGREES = (17, 26, 32)


def loop_field(s):
    """GF(2^s) past the tables, the cached extension of GF(2): constructing
    such a field checks its modulus by trial division, about a second."""
    return extension_with_embedding(field_create(1), s)[0]


@pytest.mark.parametrize("s", range(1, 7))
def test_table_mul_matches_reference_exhaustively(s):
    f = field_create(s)
    for a in f.elements():
        assert [f.mul(a, b) for b in f.elements()] == [
            reference.gf_mul(f, a, b) for b in f.elements()
        ]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_table_mul_matches_reference(data):
    f = field_create(data.draw(st.sampled_from(TABLE_DEGREES), label="s"))
    element = st.one_of(st.just(0), st.just(1), st.integers(0, f.order - 1))
    a, b = data.draw(element, label="a"), data.draw(element, label="b")
    assert f.mul(a, b) == reference.gf_mul(f, a, b)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_loop_mul_beyond_the_tables_matches_reference(data):
    f = loop_field(data.draw(st.sampled_from(LOOP_DEGREES), label="s"))
    element = st.one_of(st.just(0), st.just(1), st.integers(0, f.order - 1))
    a, b = data.draw(element, label="a"), data.draw(element, label="b")
    assert f.mul(a, b) == reference.gf_mul(f, a, b)
    assert f._log is None and f not in gf._tables


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_pow_agrees_before_and_after_the_tables(data):
    s = data.draw(st.sampled_from((*TABLE_DEGREES, *LOOP_DEGREES)), label="s")
    if s in LOOP_DEGREES:
        fresh = used = loop_field(s)
    else:
        fresh, used = Field(s), Field(s)
        used.mul(1, 1)  # builds the tables
    a = data.draw(st.integers(0, fresh.order - 1), label="a")
    e = data.draw(st.integers(0, 3 * fresh.order), label="e")
    expected = 1
    for bit in bin(e)[2:]:
        expected = reference.gf_mul(fresh, expected, expected)
        if bit == "1":
            expected = reference.gf_mul(fresh, expected, a)
    assert fresh.pow(a, e) == used.pow(a, e) == expected
    assert fresh._log is None
    if a:
        assert used.mul(a, used.inv(a)) == 1


@pytest.mark.parametrize("s", TABLE_DEGREES)
def test_log_exp_matches_the_walk_one_product_at_a_time(s):
    log, exp = gf.log_exp(field_create(s))
    ref_log, ref_exp = reference.log_exp_tables(field_create(s))
    assert log.dtype == ref_log.dtype and exp.dtype == ref_exp.dtype
    assert np.array_equal(log, ref_log) and np.array_equal(exp, ref_exp)


def test_tables_are_built_by_the_first_product_only(monkeypatch):
    calls = []
    build = gf.log_exp

    def counting(field):
        calls.append(field)
        return build(field)

    monkeypatch.setattr(gf, "log_exp", counting)
    # the largest degree-10 modulus: no other test uses this field
    modulus = max(c for c in range((1 << 10) + 1, 1 << 11, 2) if is_irreducible(c))
    f = Field(10, modulus)
    monkeypatch.delitem(gf._tables, f, raising=False)
    gamma = f.primitive_element()
    assert f.multiplicative_order(gamma) == f.order - 1
    assert f.multiplicative_order(f.pow(gamma, 3)) == (f.order - 1) // 3
    assert calls == [] and f._log is None and f not in gf._tables
    assert f.mul(gamma, gamma) == reference.gf_mul(f, gamma, gamma)
    assert calls == [f] and f in gf._tables
    for a in (0, 1, gamma, f.order - 1):
        assert f.mul(a, 5) == reference.gf_mul(f, a, 5)
    assert f.pow(gamma, 5) == f.mul(f.mul(gamma, gamma), f.pow(gamma, 3))
    assert calls == [f]
