import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from cycledual import (
    Field,
    extension_with_embedding,
    field_create,
    gf,
    nth_root_of_unity,
)
from cycledual.gf import default_modulus, dtype_for, is_irreducible


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
    with pytest.raises(ValueError, match="not irreducible"):
        Field(26, (1 << 26) | 1)  # x^26 + 1 = (x^13 + 1)^2


def test_field_create_rejects_degree_mismatch():
    with pytest.raises(ValueError, match="degree mismatch"):
        field_create(4, 0b1011)
    with pytest.raises(ValueError, match="degree mismatch"):
        Field(26, default_modulus(25))
    with pytest.raises(ValueError):
        field_create(0)
    with pytest.raises(ValueError):
        field_create(17)


def test_every_fixed_default_modulus_is_irreducible():
    # the constructor trusts these: it tests only a modulus that its caller passed
    for s, mod in gf._DEFAULT_MODULI.items():
        assert mod.bit_length() - 1 == s and is_irreducible(mod), s
        assert default_modulus(s) == mod


def test_default_field_runs_no_irreducibility_test(monkeypatch):
    s = 26
    calls = []
    check = gf.is_irreducible

    def counting(modulus):
        calls.append(modulus)
        return check(modulus)

    monkeypatch.setattr(gf, "is_irreducible", counting)
    f = Field(s)
    assert calls == []  # the fixed table is trusted; the tests check it
    assert f.modulus == gf._DEFAULT_MODULI[s]
    assert Field(s, f.modulus).modulus == f.modulus
    assert calls == [f.modulus]  # a modulus from the caller is tested


CUSTOMARY_DEGREES = (1, 2, 3, 4, 5, 6, 8)


def test_default_moduli_past_the_customary_degrees_are_the_smallest_irreducibles():
    assert sorted(gf._DEFAULT_MODULI) == list(range(1, gf.EXTENSION_MAX_S + 1))
    for s in range(1, gf.EXTENSION_MAX_S + 1):
        if s not in CUSTOMARY_DEGREES:
            assert default_modulus(s) == reference.smallest_irreducible(s), s
    assert default_modulus(12) == 0x1009
    assert default_modulus(16) == 0x1002B
    assert default_modulus(32) == 0x10000008D
    for s in (0, gf.EXTENSION_MAX_S + 1):
        with pytest.raises(ValueError, match="no default modulus"):
            default_modulus(s)


def test_arith_examples():
    f4 = field_create(2)
    assert f4.mul(2, 2) == 3  # w * w = w + 1 forced by x^2 + x + 1
    f8 = field_create(3, 0b1011)
    assert f8.mul(4, 4) == 6  # x^2 * x^2 = x^4 = x^2 + x mod x^3 + x + 1
    assert f8.mul(6, f8.inv(4)) == 4
    with pytest.raises(ValueError, match="division by zero"):
        f8.inv(0)


@pytest.mark.parametrize("s", [1, 2, 3, 4])
def test_field_laws_exhaustive(s):
    # addition is xor, so only the laws that involve mul need checking
    f = field_create(s)
    els = range(f.order)
    for a in els:
        assert f.mul(a, 1) == a and f.mul(a, 0) == 0
        for b in els:
            assert f.mul(a, b) == f.mul(b, a)
            for c in els:
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                assert f.mul(a, b ^ c) == f.mul(a, b) ^ f.mul(a, c)


@pytest.mark.parametrize("s", [4, 8, 16])
def test_numpy_scalar_operands_give_int_results(s):
    # coefficients read from a dtype_for(field) array are numpy scalars, and
    # shift-and-add must not shift them past their width
    f = field_create(s)
    dtype = gf.dtype_for(f)
    top = 1 << (s - 1)
    cases = [
        (f.mul(dtype(top), dtype(3)), reference.gf_mul(f, top, 3)),
        (f.mul(dtype(3), dtype(top)), reference.gf_mul(f, 3, top)),
        (f.pow(dtype(top), dtype(5)), f.pow(top, 5)),
        (f.pow(dtype(top), np.int64(-1)), f.inv(top)),
        (f.inv(dtype(top)), f.inv(top)),
    ]
    for got, expected in cases:
        assert type(got) is int and got == expected
    assert reference.gf_mul(f, top, f.inv(dtype(top))) == 1


@pytest.mark.parametrize("s", [1, 2, 3, 4, 8])
def test_inverse_law(s):
    f = field_create(s)
    for a in range(1, f.order):
        assert f.mul(a, f.pow(a, f.order - 2)) == 1
        assert f.mul(a, f.inv(a)) == 1


def test_frobenius_examples():
    frobenius = reference.frobenius
    f4 = field_create(2)
    assert frobenius(f4, 2, 1) == 3  # w^2 = w + 1
    for s in (1, 2, 3, 4):
        f = field_create(s)
        assert all(frobenius(f, 1, k) == 1 for k in range(6))
        assert all(frobenius(f, a, s) == a for a in range(f.order))
        for k in range(2 * s + 1):
            assert all(frobenius(f, a, k) == f.pow(a, 1 << k) for a in range(f.order))


@pytest.mark.parametrize("s", [1, 2, 3, 4])
def test_frobenius_is_a_ring_map(s):
    f = field_create(s)

    def square(a):
        return f.pow(a, 2)

    for a in range(f.order):
        assert square(a) == reference.frobenius(f, a, 1)
        for b in range(f.order):
            assert square(a ^ b) == square(a) ^ square(b)
            assert square(f.mul(a, b)) == f.mul(square(a), square(b))


def test_extension_prime_subfield():
    f2 = field_create(1)
    ext, emb = extension_with_embedding(f2, 3)
    assert ext.order == 8
    assert emb.table == (0, 1)
    assert pullback(emb) == {0: 0, 1: 1}


def test_extension_gf4_into_gf64():
    f4 = field_create(2)
    ext, emb = extension_with_embedding(f4, 3)
    assert ext.order == 64
    w = emb.table[2]
    # image of w satisfies w^2 + w + 1 = 0 inside GF(64)
    assert ext.mul(w, w) ^ w ^ 1 == 0
    # full ring-homomorphism check over all 16 pairs
    for a in range(f4.order):
        for b in range(f4.order):
            assert emb.table[a ^ b] == emb.table[a] ^ emb.table[b]
            assert emb.table[f4.mul(a, b)] == ext.mul(emb.table[a], emb.table[b])
    # every image lands in the subfield: e^(2^2) = e
    for img in emb.table:
        assert ext.pow(img, 4) == img


def test_embedding_pullback():
    f4 = field_create(2)
    ext, emb = extension_with_embedding(f4, 3)
    for v in range(f4.order):
        assert pullback(emb)[emb.table[v]] == v
    # the subfield is exactly the fixed points of e -> e^4
    subfield = {x for x in range(ext.order) if ext.pow(x, 4) == x}
    assert set(pullback(emb)) == subfield and len(emb.sorted_images) == f4.order


def pullback(emb):
    """The embedding's image -> base value map, read from its two arrays,
    after checking their form: read-only, the images strictly ascending, the
    base values in the base field's dtype."""
    images, values = emb.sorted_images, emb.preimages
    assert not images.flags.writeable and not values.flags.writeable
    assert images.dtype == np.uint64 and values.dtype == dtype_for(emb.base)
    assert (images[1:] > images[:-1]).all()
    return dict(zip(images.tolist(), values.tolist()))


def test_extension_size_limit():
    f16 = field_create(16)
    with pytest.raises(ValueError, match="2\\^32"):
        extension_with_embedding(f16, 3)


def test_nth_root_of_unity():
    f8 = field_create(3)
    assert nth_root_of_unity(f8, 1) == 1
    beta = nth_root_of_unity(f8, 7)
    assert f8.pow(beta, 7) == 1
    assert all(f8.pow(beta, k) != 1 for k in range(1, 7))
    with pytest.raises(ValueError, match="no primitive n-th root"):
        nth_root_of_unity(f8, 5)


@pytest.mark.parametrize("s,n", [(2, 3), (4, 15), (4, 5), (6, 63), (6, 21), (6, 9)])
def test_nth_root_order_property(s, n):
    ext = field_create(s)
    beta = nth_root_of_unity(ext, n)
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
            order = reference.multiplicative_order
            assert all(order(f, v) < f.order - 1 for v in range(2, g))
            assert order(f, g) == f.order - 1


def test_primitive_elements_are_pinned():
    # the primitive element fixes beta, and so every certificate; Field, not
    # field_create, reaches past GF(2^16)
    assert [Field(s).primitive_element() for s in range(1, 33)] == [
        1, 2, 2, 2, 2, 2, 2, 2, 7, 2, 2, 3, 2, 7, 2, 3,
        2, 10, 2, 2, 2, 2, 2, 2, 2, 3, 2, 7, 2, 19, 2, 3,
    ]


def test_field_equality_and_hash():
    assert field_create(2) == Field(2)
    assert field_create(2) != field_create(3)
    assert hash(field_create(2)) == hash(Field(2, 0b111))
    assert Field(3, 0b1011) != Field(3, 0b1101)


@pytest.mark.parametrize(
    "s,m",
    [(2, 6), (4, 3), (8, 2), (2, 13), (8, 1)],
    ids=["gf4-gf2^12", "gf16-gf2^12", "gf256-gf2^16", "gf4-gf2^26", "gf256-itself"],
)
def test_extension_embedding_is_a_ring_map(s, m):
    # the embedding is built by array products: GF(2^12) and GF(2^16) by
    # table, GF(2^26) by shift-and-add; GF(256) into itself is the identity,
    # whose images need no sort
    base = field_create(s)
    ext, emb = extension_with_embedding(base, m)
    assert ext.s == s * m
    table = emb.table
    for a in range(base.order):
        for b in range(base.order):
            assert table[a ^ b] == table[a] ^ table[b]
            assert table[base.mul(a, b)] == ext.mul(table[a], table[b])
    assert all(ext.pow(img, 1 << s) == img for img in table)
    assert len(set(table)) == base.order
    assert pullback(emb) == {img: v for v, img in enumerate(table)}


# -- scalar products: shift-and-add in every field, checked on both sides of the
# -- degrees where array products use log/antilog tables ----------------------

TABLE_DEGREES = range(1, gf.TABLE_MAX_S + 1)
LOOP_DEGREES = range(gf.TABLE_MAX_S + 1, gf.EXTENSION_MAX_S + 1)


def any_field(s):
    """The cached GF(2^s): past the alphabets, the extension of GF(2)."""
    if s <= gf.ALPHABET_MAX_S:
        return field_create(s)
    return extension_with_embedding(field_create(1), s)[0]


def scalar_element(f):
    return st.one_of(st.just(0), st.just(1), st.just(f.order - 1), st.integers(0, f.order - 1))


@pytest.mark.parametrize("s", range(1, 7))
def test_table_mul_matches_reference_exhaustively(s):
    f = field_create(s)
    for a in range(f.order):
        assert [f.mul(a, b) for b in range(f.order)] == [
            reference.gf_mul(f, a, b) for b in range(f.order)
        ]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_table_mul_matches_reference(data):
    f = any_field(data.draw(st.sampled_from(TABLE_DEGREES), label="s"))
    element = scalar_element(f)
    a, b = data.draw(element, label="a"), data.draw(element, label="b")
    assert f.mul(a, b) == reference.gf_mul(f, a, b)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_loop_mul_beyond_the_tables_matches_reference(data):
    f = any_field(data.draw(st.sampled_from(LOOP_DEGREES), label="s"))
    element = scalar_element(f)
    a, b = data.draw(element, label="a"), data.draw(element, label="b")
    assert f.mul(a, b) == reference.gf_mul(f, a, b)
    assert f not in gf._tables


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_pow_matches_reference(data):
    f = any_field(data.draw(st.integers(1, gf.EXTENSION_MAX_S), label="s"))
    a = data.draw(st.integers(0, f.order - 1), label="a")
    e = data.draw(st.integers(-3 * f.order, 3 * f.order), label="e")
    if a == 0 and e < 0:
        with pytest.raises(ValueError, match="division by zero"):
            f.pow(a, e)
        return
    base = a if e >= 0 else f.inv(a)
    expected = 1
    for bit in bin(abs(e))[2:]:
        expected = reference.gf_mul(f, expected, expected)
        if bit == "1":
            expected = reference.gf_mul(f, expected, base)
    assert f.pow(a, e) == expected
    if a:
        assert reference.gf_mul(f, a, f.inv(a)) == 1


@pytest.mark.parametrize("s", TABLE_DEGREES)
def test_log_exp_matches_the_walk_one_product_at_a_time(s):
    log, exp = gf.log_exp(field_create(s))
    ref_log, ref_exp = reference.log_exp_tables(field_create(s))
    assert log.dtype == ref_log.dtype and exp.dtype == ref_exp.dtype
    assert np.array_equal(log, ref_log) and np.array_equal(exp, ref_exp)


def test_scalar_arithmetic_builds_no_tables():
    # the largest degree-10 modulus: no other test uses this field
    modulus = max(c for c in range((1 << 10) + 1, 1 << 11, 2) if is_irreducible(c))
    f = Field(10, modulus)
    gamma = f.primitive_element()
    assert f.mul(gamma, gamma) == reference.gf_mul(f, gamma, gamma)
    assert f.mul(f.pow(gamma, 5), f.inv(gamma)) == f.pow(gamma, 4)
    assert f not in gf._tables
    gf.log_exp(f)  # an array product builds them
    assert f in gf._tables


# -- arrays of elements: one elementwise product and one doubling walk --------


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_times_matches_reference(data):
    s = data.draw(st.integers(1, gf.EXTENSION_MAX_S), label="s")
    f = any_field(s)
    element = st.one_of(st.just(0), st.just(1), st.integers(0, f.order - 1))
    a = data.draw(st.lists(element, min_size=1, max_size=20), label="a")
    b = data.draw(st.lists(element, min_size=len(a), max_size=len(a)), label="b")
    c = data.draw(element, label="c")
    vec_a = np.array(a, dtype=np.uint64)
    assert gf.times(f, vec_a, np.array(b, dtype=np.uint64)).tolist() == [
        reference.gf_mul(f, x, y) for x, y in zip(a, b)
    ]
    assert gf.times(f, vec_a, c).tolist() == [reference.gf_mul(f, x, c) for x in a]
    assert gf.times(f, c, vec_a).tolist() == [reference.gf_mul(f, c, x) for x in a]
    if s > gf.TABLE_MAX_S:
        assert f not in gf._tables


@pytest.mark.parametrize("s", [15, 16, 17, 26])
def test_power_table_matches_pow_on_both_sides_of_the_tables(s):
    f = any_field(s)
    rng = np.random.default_rng(s)
    for x in (0, 1, f.primitive_element(), *rng.integers(2, f.order, size=4).tolist()):
        for count in (0, 1, 2, 3, 64, 100):
            got = gf.power_table(f, x, count)
            assert got.dtype == np.uint64
            assert got.tolist() == [f.pow(x, j) for j in range(count)]
