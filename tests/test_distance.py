import time
from unittest import mock

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
    field_create,
    sampled_weight_upper_bound,
    uuv_construct,
    weight,
)
from cycledual.gf import dtype_for

from conftest import GF2, GF4, divisor_codes

GF16 = field_create(4)
GF256 = field_create(8)


def hamming():
    return CyclicCode.from_defining_set(GF2, 7, bch_defining_set(7, 2, 1))


def uuv_14_7():
    return uuv_construct(hamming(), "euclidean")


def test_weight():
    assert weight([0] * 7) == 0
    assert weight((1, 1, 0, 1, 0, 0, 0)) == 3
    assert weight([GF4.element(2), GF4.element(3), GF4.zero, GF4.one]) == 3
    assert weight(np.array([0, 2, 0, 1], dtype=np.uint8)) == 2


def test_exact_hamming():
    r = exact_min_distance(GF2, hamming().generator_matrix())
    assert (r.value, r.exact, r.enumerated) == (3, True, 15)
    assert r.method == "exhaustive"


def test_exact_uuv():
    r = exact_min_distance(GF2, uuv_14_7().basis)
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


def test_partition_determinism():
    basis = uuv_14_7().basis
    reports = [exact_min_distance(GF2, basis, partitions=p) for p in (1, 2, 4, 8)]
    assert all(r == reports[0] for r in reports)


def test_early_exit_with_known_bound():
    basis = uuv_14_7().basis
    r = exact_min_distance(GF2, basis, known_lower_bound=4)
    assert r.value == 4 and r.exact and r.enumerated <= 127


def test_dependent_rows_rejected():
    with pytest.raises(ValueError, match="dependent"):
        exact_min_distance(GF2, [[1, 1, 0], [1, 1, 0]])


def test_sampled_consistency_and_determinism():
    basis = uuv_14_7().basis
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


def _lexicographic_walk(weights, partitions, chunk, bound):
    """(least weight, messages seen) when the messages 1..q^k-1, with the
    given codeword weights, are walked in blocks of chunk counted from the
    start of each contiguous partition, stopping after the block whose
    minimum reaches bound."""
    total = len(weights) - 1
    best, seen = max(weights) + 1, 0
    for j in range(partitions):
        end = 1 + total * (j + 1) // partitions
        for pos in range(1 + total * j // partitions, end, chunk):
            block = weights[pos : min(pos + chunk, end)]
            best, seen = min(best, *block), seen + len(block)
            if best <= bound:
                return best, seen
    return best, seen


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
    for partitions in range(1, 5):
        r = exact_min_distance(field, basis, partitions=partitions)
        assert (r.value, r.exact, r.enumerated) == (d, True, total)

    # early stop: small chunks put block boundaries inside every partition,
    # and more partitions than messages leave some of them empty
    partitions = data.draw(st.integers(1, 3 * total), label="partitions")
    chunk = data.draw(st.sampled_from([1, 2, 5, distance._CHUNK]), label="chunk")
    bound = data.draw(st.integers(1, n), label="known_lower_bound")
    with mock.patch.object(distance, "_CHUNK", chunk):
        r = exact_min_distance(field, basis, partitions=partitions, known_lower_bound=bound)
    assert (r.value, r.enumerated) == _lexicographic_walk(weights, partitions, chunk, bound)

    trials = data.draw(st.integers(1, 3000), label="trials")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    s = sampled_weight_upper_bound(field, basis, trials, seed)
    assert s.value >= d and s.enumerated == trials
    assert sampled_weight_upper_bound(field, basis, trials, seed) == s


def test_early_stop_counts_keep_chunk_and_partition_boundaries():
    # criterion 2's [14, 7] code over GF(4): 4^7 - 1 = 16383 messages, two
    # blocks of 2^13 at one partition.  The first block of every partition
    # count already reaches d = 4, so each count is that block's length
    cert = build_family("euclidean", 2, 3, 9)
    inner = CyclicCode.from_defining_set(cert.field, cert.n_inner, cert.defining_set)
    basis = uuv_construct(inner, "euclidean").basis
    counts = [
        exact_min_distance(cert.field, basis, partitions=p, known_lower_bound=4).enumerated
        for p in (1, 2, 3, 4)
    ]
    assert counts == [8192, 8191, 5461, 4095]
    assert exact_min_distance(cert.field, basis).enumerated == 16383


def test_budget_is_a_rule_of_q_and_k():
    assert distance._check_budget(4, 7, 16383) == 16383
    with pytest.raises(ValueError, match=r"infeasible: needs 4\^7 - 1 codewords, budget 16382"):
        distance._check_budget(4, 7, 16382)
    # 2^62 - 1 messages fit the int64 index range; 2^63 - 1 do not, at any budget
    assert distance._check_budget(4, 31, 1 << 62) == (1 << 62) - 1
    with pytest.raises(ValueError, match=r"needs 2\^63 - 1 codewords"):
        distance._check_budget(2, 63, 1 << 70)


def test_partition_count_costs_nothing():
    # no code loops over partitions: the block that holds the first message
    # at the bound is found by arithmetic
    basis = uuv_14_7().basis
    start = time.perf_counter()
    r = exact_min_distance(GF2, basis, partitions=10**8)
    stopped = exact_min_distance(GF2, basis, partitions=10**8, known_lower_bound=4)
    assert time.perf_counter() - start < 1.0
    assert r == exact_min_distance(GF2, basis, partitions=1)
    # with more partitions than messages, every message is a block of its own
    weights = reference.message_weights(GF2, basis)
    first = next(i for i, w in enumerate(weights) if 0 < w <= 4)
    assert (stopped.value, stopped.enumerated) == (4, first)


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
    field=st.sampled_from([GF2, GF4, GF16, GF256]),
    k=st.integers(1, 20),
    n=st.integers(0, 130),
    trials=st.integers(1, 40_000),
    seed=st.integers(0, 2**64 - 1),
    basis_seed=st.integers(0, 2**32 - 1),
)
@example(field=GF2, k=20, n=129, trials=40_000, seed=7, basis_seed=1)  # runs 8, 8, 4
@example(field=GF4, k=19, n=64, trials=16_385, seed=2**64 - 1, basis_seed=2)  # 4, ..., 4, 3
@example(field=GF16, k=19, n=65, trials=20_000, seed=0, basis_seed=3)  # 2, ..., 2, 1
@example(field=GF256, k=20, n=130, trials=1, seed=12345, basis_seed=4)
def test_sampled_matches_the_row_multiple_reference(field, k, n, trials, seed, basis_seed):
    # k up to 20 gives every field more than one row run; 40,000 trials take
    # more than one draw of 2^14 messages
    basis = np.random.default_rng(basis_seed).integers(0, field.order, size=(k, n))
    r = sampled_weight_upper_bound(field, basis, trials, seed)
    assert r.value == reference.sampled_min_weight(field, basis, trials, seed)
