import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import reference
from cycledual import (
    CyclicCode,
    bch_bound,
    bch_defining_set,
    build_family,
    distance,
    exact_min_distance,
    family_parameters,
    field_create,
    sampled_weight_upper_bound,
)
from cycledual.gf import dtype_for

from conftest import GF2, GF4, divisor_codes

GF8 = field_create(3)
GF16 = field_create(4)
GF256 = field_create(8)
GF512 = field_create(9)


def hamming():
    return CyclicCode.from_defining_set(GF2, 7, bch_defining_set(7, 2, 1))


def uuv_14_7():
    code = hamming()
    return reference.uuv_basis(code, code.dual("euclidean"))


def test_weight():
    # the weight of a word is its count of nonzero symbols, packed or not
    for field, word, w in [
        (GF2, [0] * 7, 0),
        (GF2, (1, 1, 0, 1, 0, 0, 0), 3),
        (GF4, [2, 3, 0, 1], 3),
        (GF4, np.array([0, 2, 0, 1], dtype=np.uint8), 2),
    ]:
        assert _packed_weights(field, np.array([word], dtype=dtype_for(field))).tolist() == [w]


def test_exact_hamming():
    r = exact_min_distance(GF2, hamming().generator_matrix())
    assert (r.value, r.exact, r.enumerated) == (3, True, 15)
    assert r.method == "exhaustive"


def test_exact_uuv():
    r = exact_min_distance(GF2, uuv_14_7())
    assert (r.value, r.enumerated) == (4, 127)


def test_exact_budget_error():
    cert = build_family("euclidean", 2, 3, 3)
    k = cert.n_outer - cert.outer_generator.degree
    basis = np.zeros((k, cert.n_outer), dtype=np.uint8)
    for i in range(k):
        for j, c in enumerate(cert.outer_generator.coeffs):
            basis[i, i + j] = c
    with pytest.raises(ValueError, match="infeasible"):
        exact_min_distance(GF4, basis)  # 4^21 - 1 codewords


def test_dependent_rows_rejected():
    with pytest.raises(ValueError, match="dependent"):
        exact_min_distance(GF2, [[1, 1, 0], [1, 1, 0]])


def test_sampled_consistency_and_determinism():
    basis = uuv_14_7()
    a = sampled_weight_upper_bound(GF2, basis, 10000, seed=42)
    b = sampled_weight_upper_bound(GF2, basis, 10000, seed=42)
    assert a == b
    assert a.value >= 4  # can never beat the true minimum
    assert (a.method, a.exact, a.enumerated, a.seed) == ("sampled", False, 10000, 42)
    c = sampled_weight_upper_bound(GF2, basis, 10000, seed=43)
    assert c.value >= 4


def test_sampled_k1():
    r = sampled_weight_upper_bound(GF2, [[1, 1, 1]], trials=1, seed=0)
    assert r.value == 3  # only one nonzero codeword


def test_sampled_never_below_exact():
    for code in divisor_codes(GF2, 9):
        if code.k == 0:
            continue
        exact = exact_min_distance(GF2, code.generator_matrix()).value
        sampled = sampled_weight_upper_bound(GF2, code.generator_matrix(), 500, seed=1).value
        assert sampled >= exact


@pytest.mark.parametrize("field", [GF2, GF4])
def test_exact_vs_bch_bound_and_singleton(field):
    budget = 1 << 16
    checked = 0
    for n in (1, 3, 5, 7, 9, 11, 13, 15):
        for code in divisor_codes(field, n):
            if code.k == 0 or field.order**code.k - 1 > budget:
                continue
            r = exact_min_distance(field, code.generator_matrix(), budget=budget)
            assert r.value >= bch_bound(code.T)
            assert r.value <= code.n - code.k + 1  # Singleton bound
            checked += 1
    assert checked >= 30


# the largest k per field keeps the brute force at 16^3 messages or fewer
MAX_K = {GF2: 5, GF4: 5, GF16: 3}


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_both_methods_against_brute_force(data):
    field = data.draw(st.sampled_from(list(MAX_K)), label="field")
    k = data.draw(st.integers(1, MAX_K[field]), label="k")
    # lengths past 64 and 128 cross the word boundaries of the packed
    # codewords; n * q^k stays small enough for the brute force
    n_max = min(130, max(10, (1 << 14) // field.order**k))
    n = data.draw(st.integers(k, n_max), label="n")
    symbol = st.integers(0, field.order - 1)
    row = st.lists(symbol, min_size=n, max_size=n)
    basis = data.draw(st.lists(row, min_size=k, max_size=k), label="basis")
    assume(reference.rank(field, basis) == k)
    weights = reference.message_weights(field, basis)
    total = field.order**k - 1
    d = min(weights[1:])
    r = exact_min_distance(field, basis)
    assert (r.value, r.exact, r.enumerated) == (d, True, total)

    trials = data.draw(st.integers(1, 3000), label="trials")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    s = sampled_weight_upper_bound(field, basis, trials, seed)
    assert s.value >= d and s.enumerated == trials
    assert sampled_weight_upper_bound(field, basis, trials, seed) == s


def _walk(field, basis) -> list[list[int]]:
    """The weight blocks of the exhaustive table walk over ``basis``."""
    multiples = distance._packed_multiples(field, np.asarray(basis, dtype=dtype_for(field)))
    return [block.tolist() for block in distance._table_walk(multiples)]


def _walked_messages(q: int, k: int, table: int) -> list[int]:
    """The messages the walk weighs, in order, for a table of the last L
    rows' q^L = ``table`` combinations: 1..q^L-1, then for t = 0 .. k-L-1 the
    high values in [q^t, 2 q^t), whose leading digit is 1, each with every
    low value."""
    high = [h for t in range(k) if q**t * table < q**k for h in range(q**t, 2 * q**t)]
    return list(range(1, table)) + [h * table + j for h in high for j in range(table)]


# the largest k per field keeps the brute force at 2^16 symbol steps or fewer
WALK_MAX_K = {GF2: 12, GF4: 6, GF8: 4, GF16: 3}


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_walk_over_the_high_digits_matches_the_brute_force(data):
    # a table of q or q^2 entries leaves k - 1 or k - 2 high digits, so the
    # walk over their values with leading digit 1 is checked, not only the
    # table; one row a multiple of another makes a dependent basis
    field = data.draw(st.sampled_from(list(WALK_MAX_K)), label="field")
    q = field.order
    k = data.draw(st.integers(2, WALK_MAX_K[field]), label="k")
    entries = data.draw(st.sampled_from([q, q * q]), label="entries")
    n = data.draw(st.integers(k, max(k, min(130, (1 << 16) // q**k))), label="n")
    row = st.lists(st.integers(0, q - 1), min_size=n, max_size=n)
    basis = data.draw(st.lists(row, min_size=k, max_size=k), label="basis")
    if data.draw(st.booleans(), label="dependent"):
        i, j = data.draw(st.permutations(range(k)), label="rows")[:2]
        c = data.draw(st.integers(1, q - 1), label="c")
        basis[j] = [reference.gf_mul(field, c, x) for x in basis[i]]
    weights = reference.message_weights(field, basis)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(distance, "_WALK_ENTRIES", entries)
        blocks = _walk(field, basis)
        walked = _walked_messages(q, k, len(blocks[0]) + 1)
        assert sum(blocks, []) == [weights[m] for m in walked]
        if reference.rank(field, basis) < k:
            with pytest.raises(ValueError, match="linearly dependent"):
                exact_min_distance(field, basis)
        else:
            r = exact_min_distance(field, basis)
            assert (r.value, r.exact, r.enumerated) == (min(weights[1:]), True, q**k - 1)


def test_walk_weighs_one_message_per_line_of_the_code():
    # the [21,12] GF(4) inner code of E s=2 m=3 mu=3: the table of the last L
    # rows, then q^L messages for each of the (q^(k-L) - 1)/(q - 1) high
    # values whose leading digit is 1, not for all q^(k-L) - 1 of them
    params = family_parameters("euclidean", 2, 3, 3)
    n, q = params.n_inner, params.alphabet.order
    code = CyclicCode.from_defining_set(GF4, n, bch_defining_set(n, q, params.b_default))
    blocks, k = _walk(GF4, code.generator_matrix()), code.k
    table = len(blocks[0]) + 1
    high = q**k // table  # q^(k-L)
    assert (n, k, q) == (21, 12, 4) and high > 1
    assert sum(map(len, blocks)) == table - 1 + table * (high - 1) // (q - 1)
    assert sum(map(len, blocks)) < q**k - 1
    # over GF(2) every nonzero message is the one multiple of its line
    basis = np.random.default_rng(1).integers(0, 2, size=(18, 40))
    assert list(map(len, _walk(GF2, basis))) == [2**16 - 1] + [2**16] * 3
    weights = reference.message_weights(GF2, uuv_14_7())
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(distance, "_WALK_ENTRIES", 8)
        assert sum(_walk(GF2, uuv_14_7()), []) == weights[1:]


def test_budget_is_a_rule_of_q_and_k():
    assert distance._check_budget(4, 7, 16383) == 16383
    with pytest.raises(ValueError, match=r"infeasible: needs 4\^7 - 1 codewords, budget 16382"):
        distance._check_budget(4, 7, 16382)
    # 2^62 - 1 messages fit the int64 index range; 2^63 - 1 do not, at any budget
    assert distance._check_budget(4, 31, 1 << 62) == (1 << 62) - 1
    with pytest.raises(ValueError, match=r"needs 2\^63 - 1 codewords"):
        distance._check_budget(2, 63, 1 << 70)


def _packed_weights(field, words):
    planes = distance._pack(field, words).transpose(1, 0, 2)
    return distance._weights(planes)


@pytest.mark.parametrize("field", [GF2, GF4, GF16, GF256])
def test_packed_weight_is_the_count_of_nonzero_symbols(field):
    rng = np.random.default_rng(field.order)
    for n in (1, 63, 64, 65, 127, 128, 129):
        words = rng.integers(0, field.order, size=(40, n), dtype=dtype_for(field))
        words[rng.random(words.shape) < 0.5] = 0
        words[0] = 0
        packed = distance._pack(field, words)
        assert _packed_weights(field, words).tolist() == np.count_nonzero(words, axis=1).tolist()
        sums = (packed ^ packed[::-1]).transpose(1, 0, 2)
        expected = np.count_nonzero(words ^ words[::-1], axis=1)
        assert distance._weights(sums).tolist() == expected.tolist()
        assert not distance._weights((packed ^ packed).transpose(1, 0, 2)).any()


@settings(max_examples=40, deadline=None)
@given(
    field=st.sampled_from([GF2, GF4, GF8, GF16, GF256, GF512]),
    k=st.integers(1, 20),
    n=st.integers(0, 130),
    trials=st.one_of(st.integers(1, 20), st.integers(1, 40_000)),
    seed=st.integers(0, 2**64 - 1),
    basis_seed=st.integers(0, 2**32 - 1),
)
@example(field=GF2, k=20, n=129, trials=40_000, seed=7, basis_seed=1)  # runs 8, 8, 4
@example(field=GF4, k=19, n=64, trials=16_385, seed=2**64 - 1, basis_seed=2)  # 4, ..., 4, 3
@example(field=GF8, k=19, n=63, trials=20_003, seed=5, basis_seed=5)  # 2, ..., 2, 1: 6-bit runs
@example(field=GF16, k=19, n=65, trials=20_000, seed=0, basis_seed=3)  # 2, ..., 2, 1
@example(field=GF256, k=20, n=130, trials=1, seed=12345, basis_seed=4)
@example(field=GF512, k=20, n=130, trials=16_391, seed=41, basis_seed=6)  # 16-bit units
@example(field=GF2, k=1, n=5, trials=7, seed=0, basis_seed=7)  # half the messages are zero
@example(field=GF2, k=2, n=9, trials=13, seed=2**64 - 1, basis_seed=8)
@example(field=GF2, k=2, n=70, trials=30_001, seed=3, basis_seed=9)  # past one draw
@example(field=GF8, k=1, n=3, trials=3, seed=7, basis_seed=10)
def test_sampled_matches_the_row_multiple_reference(field, k, n, trials, seed, basis_seed):
    # k up to 20 gives every field of at most 16 elements more than one row
    # run; 40,000 trials take more than one draw of 2^14 messages.  The
    # reference draws 2^14 messages every time, so it also checks that drawing
    # only the messages still needed does not change them
    basis = np.random.default_rng(basis_seed).integers(0, field.order, size=(k, n))
    r = sampled_weight_upper_bound(field, basis, trials, seed)
    assert r.value == reference.sampled_min_weight(field, basis, trials, seed)


@pytest.mark.parametrize("s", range(1, 17))
def test_digits_are_the_generator_integers(s):
    # the top s bits of the raw units are what Generator.integers draws for
    # q = 2^s, over consecutive draws of one stream
    field = field_create(s)
    for seed in (0, 7, 2**64 - 1):
        for k in (1, 7, 127):
            rng, bits = np.random.default_rng(seed), np.random.PCG64(seed)
            for rows in (24, 8):
                expected = rng.integers(0, 2**s, size=(rows, k), dtype=dtype_for(field))
                digits = distance._digits(bits, field, rows, k)
                assert digits.dtype == expected.dtype
                assert np.array_equal(digits, expected)


def test_few_trials_draw_only_the_messages_they_need():
    # one draw of 2^14 messages of k = 3000 bytes would take 49 MB
    k, n = 3000, 64
    basis = np.random.default_rng(1).integers(0, 2, size=(k, n))
    tracemalloc.start()
    try:
        sampled_weight_upper_bound(GF2, basis, trials=200, seed=7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < (1 << 14) * k


def test_sampled_refuses_one_row_tables_past_the_limit(monkeypatch):
    # over GF(2^16), 8 rows of 1024 symbols need 8 * 2^16 * 16 * 16 * 8 bytes
    monkeypatch.setattr(distance, "_run_tables", None)  # a table build would fail
    basis = np.zeros((8, 1024), dtype=np.uint16)
    with pytest.raises(ValueError, match="sampled distance infeasible: .* 1073741824 bytes"):
        sampled_weight_upper_bound(field_create(16), basis, 10, 0)
