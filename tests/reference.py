"""Slow, obviously-correct references for the tests to compare against.

A search over the odd binary polynomials of degree s in increasing order,
each tested by trial division, is the reference for the fixed table of
default moduli in cycledual.gf past the customary degrees.

A carry-less multiply followed by reduction modulo the field's polynomial is
the reference for ``Field.mul``'s shift-and-add loop and ``Field.pow``, and
for the elementwise ``cycledual.gf.times``; the walk over the powers of the
primitive element, one such product per step, is the reference for the
doubling walk (``cycledual.gf.power_table``) that builds
``cycledual.gf.log_exp``'s tables.  The tests also compare ``power_table``,
and the table of beta's powers it walks for ``root_context``, with
``Field.pow``.

Repeated squaring with that multiply is the reference Frobenius map a^(2^k),
and a walk over an element's powers, one such product per step, the
reference multiplicative order.

Schoolbook polynomial multiply and long division, one lookup in those walked
log/antilog tables per coefficient pair, are the reference for the numpy
kernel of cycledual.poly; the monic reversal and the coefficient-wise q-th
power, one ``Field.mul`` or Frobenius map per coefficient, for its table
lookups.  They read ``p.coeffs.tolist()``, so their arithmetic is on Python
ints, never on numpy scalars.  A message times the
generator modulo x^n - 1 (``encode``) and the remainder by the generator
(``contains``) are the brute-force span and membership of a cyclic code.

The partition of Z_n into q-cyclotomic cosets, one ``coset`` orbit per
residue not yet met (``all_cosets``), is the reference for the cosets that
``cycledual.cyclo.minimal_polynomial`` finds by one walk over every residue
of Z_n at once.  Frozensets of residues, mapped, complemented and scanned one
member at a time, are the reference for the defining-set masks of
cycledual.cyclo: ``set_map``, ``complement``, ``is_coset_closed``, the
containment predicate ``is_dual_containing_set`` and the run scan of
``bch_bound``.  A coset's roots walked by Frobenius steps from
one power of beta, multiplied out one linear factor at a time with the
carry-less multiply, are the reference for its minimal polynomials, whose
roots it reads from the table of beta's powers.

The weight of every message's codeword, enumerated with itertools, is the
reference for the exhaustive table walk of cycledual.distance; the seeded
messages' codewords as xors of unpacked row multiples, one per digit, are the
reference for its sampled row-run tables.

A generator matrix filled row by row is the reference for the read-only
view that ``cycledual.linalg.shifted_rows`` returns.

Dense GF(2^s) linear algebra is the reference for the polynomial checks in
cycledual.construct and cycledual.cyclic, on the [u|u+v] basis of
``uuv_basis``: rows [u|u] for the inner code's generator matrix and [0|v]
for its dual's.

Every recorded fact is re-derived here from explicit basis matrices: the
dual's rows reduced against the code's row echelon form, G G^T = 0 for
self-duality, row-by-row divisibility plus a rank count (or an outright
codeword-set comparison) for the van Lint equivalence, and the cyclic shift
as a code automorphism.  The tests compare the production checks with these
at small lengths.

The paper's gcd lemma (``gcd_lemma``), closed forms for gcd(q^a - 1, q^b - 1)
and gcd(q^a + 1, q^b - 1), lives here: no command needs it, and the tests
check it against the integer gcd.

Trial division up to the square root is the reference for the divisors of
2^e - 1 that ``table`` finds by Miller-Rabin and Pollard-Brent rho.

The interleaving permutation table is the reference for the two slice
assignments of ``interleave``.  The interleaved seed rows [g1|g1] and
[0|g_dual], each divided by the outer generator (``seeds_in_ideal``, which
takes any G), are the reference for the product identities that decide them
in cycledual.construct for G = g1 g_dual.

The argparse parser that the command line had (``_build_parser``) is the
reference for the grammar of ``cycledual.options._parse``, which reads one
option table without importing argparse.
"""

from __future__ import annotations

import argparse
import itertools
import math
from dataclasses import dataclass

import numpy as np

from cycledual import CyclicCode, Embedding, Field, Poly, x_pow_n_minus_1
from cycledual.cyclo import HERMITIAN, KINDS
from cycledual.gf import _gf2_mod, dtype_for, is_irreducible, log_exp, times
from cycledual.linalg import shifted_rows

FULL_COMPARE_LIMIT = 1 << 20

_frob_tables: dict[tuple[Field, int], np.ndarray] = {}
_lists: dict[Field, tuple[list[int], list[int]]] = {}


# -- integers --------------------------------------------------------------------


def divisors(n: int) -> list[int]:
    """The divisors of n >= 1 in increasing order, by trial division up to
    the square root of n."""
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d * d != n:
                large.append(n // d)
        d += 1
    return small + large[::-1]


# -- cyclotomic cosets -----------------------------------------------------------


def coset(n: int, q: int, i: int) -> tuple[int, ...]:
    """The orbit of i under multiplication by q modulo n, sorted."""
    if n < 1:
        raise ValueError("modulus n must be positive")
    i %= n
    orbit = set()
    j = i
    while j not in orbit:
        orbit.add(j)
        j = (j * q) % n
    return tuple(sorted(orbit))


def all_cosets(n: int, q: int) -> dict[int, tuple[int, ...]]:
    """Partition of Z_n into q-cyclotomic cosets, keyed by minimal element."""
    if n < 1:
        raise ValueError("modulus n must be positive")
    if math.gcd(n, q) != 1:
        raise ValueError("q must be invertible modulo n")
    out: dict[int, tuple[int, ...]] = {}
    seen: set[int] = set()
    for i in range(n):
        if i in seen:
            continue
        orb = coset(n, q, i)
        out[i] = orb
        seen.update(orb)
    return out


# -- defining sets as frozensets ------------------------------------------------


def set_map(members: frozenset[int], n: int, c: int) -> frozenset[int]:
    """{c*i mod n : i in members}."""
    return frozenset((c * i) % n for i in members)


def complement(members: frozenset[int], n: int) -> frozenset[int]:
    return frozenset(range(n)) - members


def is_coset_closed(members: frozenset[int], n: int, q: int) -> bool:
    return all((i * q) % n in members for i in members)


def is_dual_containing_set(members: frozenset[int], n: int, c: int) -> bool:
    """The containment predicate: members disjoint from their image under c
    (c = -1 Euclidean, c = -q Hermitian)."""
    return members.isdisjoint(set_map(members, n, c))


def bch_bound(members: frozenset[int], n: int) -> int:
    """1 + the longest cyclically-consecutive run of residues in members,
    by a scan over the sorted residues and the run that wraps past n - 1."""
    mem = sorted(members)
    if not mem:
        return 1
    if len(mem) == n:
        return n + 1
    best = 0
    cur = 0
    prev = None
    for v in mem:
        cur = cur + 1 if prev is not None and v == prev + 1 else 1
        if cur > best:
            best = cur
        prev = v
    if mem[0] == 0 and mem[-1] == n - 1:
        lead = 1
        while lead < len(mem) and mem[lead] == lead:
            lead += 1
        tail = 1
        while tail < len(mem) and mem[-1 - tail] == n - 1 - tail:
            tail += 1
        best = max(best, lead + tail)
    return best + 1


def gcd_lemma(q: int, a: int, b: int, form: str) -> int:
    """The paper's lemma: closed forms for gcd(q^a - 1, q^b - 1) and
    gcd(q^a + 1, q^b - 1)."""
    if q < 2 or a < 1 or b < 1:
        raise ValueError("need q > 1 and positive exponents")
    g = math.gcd(a, b)
    if form == "minus_minus":
        return q**g - 1
    if form == "plus_minus":
        if (b // g) % 2 == 0:
            return q**g + 1
        return 1 if q % 2 == 0 else 2
    raise ValueError(f"unknown form {form!r}")


# -- scalars in GF(2^s) ----------------------------------------------------------


def smallest_irreducible(s: int) -> int:
    """The smallest irreducible binary polynomial of degree s > 1 as an
    integer: x divides every even candidate."""
    return next(c for c in range((1 << s) + 1, 1 << (s + 1), 2) if is_irreducible(c))


def gf_mul(field: Field, a: int, b: int) -> int:
    """a * b: the carry-less product of the two bit polynomials, reduced
    modulo the field's polynomial."""
    product = 0
    i = 0
    while b >> i:
        if b >> i & 1:
            product ^= a << i
        i += 1
    return _gf2_mod(product, field.modulus)


def multiplicative_order(field: Field, a: int) -> int:
    """The least t >= 1 with a^t = 1, walking a's powers one product at a
    time."""
    if a == 0:
        raise ValueError("zero has no multiplicative order")
    t, v = 1, a
    while v != 1:
        v = gf_mul(field, v, a)
        t += 1
    return t


def frobenius(field: Field, a: int, k: int) -> int:
    """a^(2^k) by k mod s squarings; the identity whenever s divides k."""
    for _ in range(k % field.s):
        a = gf_mul(field, a, a)
    return a


def log_exp_tables(field: Field) -> tuple[np.ndarray, np.ndarray]:
    """The (log, exp) tables of ``log_exp``, walked one product at a time:
    exp repeats the powers of the primitive element twice, then 2(q - 1) + 1
    zeros, and log[0] = 2(q - 1) points into that tail.  The primitive
    element comes from a fresh field, which has built no tables."""
    q1 = field.order - 1
    gamma = Field(field.s, field.modulus).primitive_element()
    log = np.empty(field.order, dtype=np.int32)
    log[0] = 2 * q1
    exp = np.zeros(4 * q1 + 1, dtype=dtype_for(field))
    v = 1
    for i in range(q1):
        exp[i] = exp[i + q1] = v
        log[v] = i
        v = gf_mul(field, v, gamma)
    return log, exp


# -- polynomials over GF(2^s) ----------------------------------------------------


def _log_exp_lists(field: Field) -> tuple[list[int], list[int]]:
    """``log_exp_tables`` as Python lists, built once per field: the
    schoolbook loops below make one lookup per coefficient pair, which is
    several times faster than a shift-and-add ``Field.mul``."""
    tabs = _lists.get(field)
    if tabs is None:
        log, exp = log_exp_tables(field)
        tabs = _lists[field] = (log.tolist(), exp.tolist())
    return tabs


def poly_mul(a: Poly, b: Poly) -> Poly:
    """Schoolbook product."""
    if a.field != b.field:
        raise ValueError("field mismatch")
    f = a.field
    if a.is_zero or b.is_zero:
        return Poly(f)
    log, exp = _log_exp_lists(f)
    out = [0] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, x in enumerate(a.coeffs.tolist()):
        for j, y in enumerate(b.coeffs.tolist()):
            out[i + j] ^= exp[log[x] + log[y]]
    return Poly(f, out)


def poly_divrem(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    """Long division: quotient and remainder with deg(remainder) < deg(b)."""
    if a.field != b.field:
        raise ValueError("field mismatch")
    if b.is_zero:
        raise ValueError("division by zero polynomial")
    f = a.field
    db = b.degree
    r = a.coeffs.tolist()
    if len(r) <= db:
        return Poly(f), Poly(f, r)
    log, exp = _log_exp_lists(f)
    q = [0] * (len(r) - db)
    divisor = b.coeffs.tolist()
    log_lead_inv = log[f.inv(divisor[-1])]
    for i in range(len(r) - 1 - db, -1, -1):
        t = exp[log[r[i + db]] + log_lead_inv]
        q[i] = t
        for j, y in enumerate(divisor):
            r[i + j] ^= exp[log[t] + log[y]]
    return Poly(f, q), Poly(f, r)


def monic_reversal(h: Poly) -> Poly:
    """x^k h(1/x) / h(0) for h of degree k with h(0) != 0."""
    f = h.field
    coeffs = h.coeffs.tolist()
    inv0 = f.inv(coeffs[0])
    return Poly(f, [f.mul(inv0, c) for c in reversed(coeffs)])


def conjugate_poly(p: Poly, q: int) -> Poly:
    """Every coefficient raised to the q-th power, q a power of two."""
    k = q.bit_length() - 1
    return Poly(p.field, [frobenius(p.field, c, k) for c in p.coeffs.tolist()])


def minimal_polynomial(coset_residues, beta: int, emb: Embedding) -> Poly:
    """prod (x - beta^j) over one q-cyclotomic coset, q = |base|, with the
    roots beta^(j q) = (beta^j)^q walked from the smallest member; the
    linear factors are multiplied out in the extension, and each coefficient
    must lie in the embedded base field."""
    ext = emb.ext
    root = ext.pow(beta, min(coset_residues))
    coeffs = [1]
    for _ in coset_residues:  # times x - root: c_(k-1) + root c_k
        coeffs = [a ^ gf_mul(ext, b, root) for a, b in zip([0] + coeffs, coeffs + [0])]
        root = frobenius(ext, root, emb.base.s)
    inverse = {img: v for v, img in enumerate(emb.table)}
    return Poly(emb.base, [inverse[c] for c in coeffs])


# -- cyclic codes, by their polynomials ------------------------------------------


def encode(code: CyclicCode, message) -> tuple[int, ...]:
    """The codeword m(x) g(x) mod x^n - 1 of a message of length k, as n
    coefficients."""
    msg = list(message)
    if len(msg) != code.k:
        raise ValueError(f"message length {len(msg)} != dimension {code.k}")
    product = poly_mul(Poly(code.field, msg), code.g)
    word = poly_divrem(product, x_pow_n_minus_1(code.field, code.n))[1]
    return tuple(word.coeffs.tolist()) + (0,) * (code.n - len(word.coeffs))


def contains(code: CyclicCode, word) -> bool:
    """g divides the word; for the zero code deg g = n exceeds deg w, so w is
    its own remainder."""
    vals = list(word)
    if len(vals) != code.n:
        raise ValueError(f"word length {len(vals)} != code length {code.n}")
    return poly_divrem(Poly(code.field, vals), code.g)[1].is_zero


def dense_shifted_rows(g: Poly, length: int) -> np.ndarray:
    """The (length - deg g) x length matrix with x^i g(x) in row i, filled
    row by row into a fresh array: the reference for the strided view of
    ``cycledual.linalg.shifted_rows``."""
    mat = np.zeros((length - g.degree, length), dtype=dtype_for(g.field))
    for i in range(mat.shape[0]):
        mat[i, i : i + len(g.coeffs)] = g.coeffs.tolist()
    return mat


def uuv_basis(inner: CyclicCode, dual: CyclicCode) -> np.ndarray:
    """The [u|u+v] basis: [u|u] for the rows of the inner code's generator
    matrix, then [0|v] for the rows of its dual's."""
    gm = shifted_rows(inner.g, inner.n)
    dm = shifted_rows(dual.g, dual.n)  # no rows when the dual is the zero code
    return np.vstack([np.hstack([gm, gm]), np.hstack([np.zeros_like(dm), dm])])


# -- codeword weights ----------------------------------------------------------


def message_weights(field: Field, basis) -> list[int]:
    """The weight of the codeword of each of the q^k messages, in
    lexicographic order with the first row's coefficient most significant, so
    entry 0 is the zero message."""
    rows = np.asarray(basis, dtype=dtype_for(field)).tolist()
    elements = range(field.order)
    mul = [[field.mul(a, b) for b in elements] for a in elements]
    weights = []
    for msg in itertools.product(elements, repeat=len(rows)):
        word = [0] * len(rows[0])
        for c, row in zip(msg, rows):
            for j, x in enumerate(row):
                word[j] ^= mul[c][x]
        weights.append(sum(1 for x in word if x))
    return weights


def sampled_min_weight(field: Field, basis, trials: int, seed: int) -> int:
    """The least weight over the codewords of ``trials`` seeded nonzero
    messages: draws of 2^14 x k digits with the zero messages dropped, each
    codeword the xor of one row multiple per digit."""
    basis = np.asarray(basis, dtype=dtype_for(field))
    row_mult = [
        np.stack([times(field, row, c) for c in range(field.order)]) for row in basis
    ]
    rng = np.random.default_rng(seed)
    best = basis.shape[1] + 1
    while trials > 0:
        digits = rng.integers(0, field.order, size=(1 << 14, len(basis)), dtype=dtype_for(field))
        digits = digits[digits.any(axis=1)][:trials]
        if len(digits):
            trials -= len(digits)
            words = row_mult[0][digits[:, 0]]
            for i in range(1, len(row_mult)):
                words ^= row_mult[i][digits[:, i]]
            best = min(best, int(np.count_nonzero(words, axis=1).min()))
    return best


# -- matrices over GF(2^s) ------------------------------------------------------


def elementwise_mul(field: Field, a, b) -> np.ndarray:
    log, exp = log_exp(field)
    return exp[log[np.asarray(a)] + log[np.asarray(b)]]  # zero operands give zero


def frobenius_array(field: Field, arr, k: int) -> np.ndarray:
    table = _frob_tables.get((field, k % field.s))
    if table is None:
        table = np.array(
            [frobenius(field, v, k) for v in range(field.order)], dtype=dtype_for(field)
        )
        _frob_tables[(field, k % field.s)] = table
    return table[np.asarray(arr)]


def mat_mul(field: Field, a, b) -> np.ndarray:
    a = np.asarray(a, dtype=dtype_for(field))
    b = np.asarray(b, dtype=dtype_for(field))
    if a.shape[1] != b.shape[0]:
        raise ValueError("shape mismatch")
    out = np.zeros((a.shape[0], b.shape[1]), dtype=dtype_for(field))
    for t in range(a.shape[1]):
        col = a[:, t]
        if not col.any():
            continue
        out ^= elementwise_mul(field, col[:, None], b[t, :][None, :])
    return out


def rref(field: Field, mat) -> tuple[np.ndarray, tuple[int, ...]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns)."""
    m = np.array(mat, dtype=dtype_for(field), copy=True)
    if m.ndim != 2:
        raise ValueError("expected a matrix")
    rows, cols = m.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(m[r:, c])[0]
        if nz.size == 0:
            continue
        p = r + int(nz[0])
        if p != r:
            m[[r, p]] = m[[p, r]]
        if m[r, c] != 1:
            m[r] = times(field, m[r], field.inv(int(m[r, c])))
        factors = m[:, c].copy()
        factors[r] = 0
        if factors.any():
            m ^= elementwise_mul(field, factors[:, None], m[r][None, :])
        pivots.append(c)
        r += 1
    return m[:r], tuple(pivots)


def rank(field: Field, mat) -> int:
    return len(rref(field, mat)[1])


def reduce_row(field: Field, reduced: np.ndarray, pivots: tuple[int, ...], row) -> np.ndarray:
    res = np.array(row, dtype=dtype_for(field), copy=True)
    for i, c in enumerate(pivots):
        f = int(res[c])
        if f:
            res ^= times(field, reduced[i], f)
    return res


def in_rowspace(field: Field, reduced: np.ndarray, pivots: tuple[int, ...], row) -> bool:
    return not reduce_row(field, reduced, pivots, row).any()


def reduce_rows(field: Field, reduced: np.ndarray, pivots: tuple[int, ...], rows) -> np.ndarray:
    """Reduce many rows against an rref at once; zero rows are members."""
    res = np.array(rows, dtype=dtype_for(field), copy=True)
    for i, c in enumerate(pivots):
        factors = res[:, c]
        if factors.any():
            res ^= elementwise_mul(field, factors[:, None], reduced[i][None, :])
    return res


def poly_remainder_rows(field: Field, rows, divisor_coeffs) -> np.ndarray:
    """Remainders of many coefficient rows (low degree first) modulo one
    polynomial, all rows reduced in lockstep."""
    res = np.array(rows, dtype=dtype_for(field), copy=True)
    g = np.asarray(list(divisor_coeffs), dtype=dtype_for(field))
    if g.size == 0 or g[-1] == 0:
        raise ValueError("divisor must be nonzero with exact leading coefficient")
    dg = g.size - 1
    if dg == 0:
        return res[:, :0]
    lead_inv = field.inv(int(g[-1]))
    for top in range(res.shape[1] - 1, dg - 1, -1):
        t = times(field, res[:, top], lead_inv)
        if t.any():
            res[:, top - dg : top + 1] ^= elementwise_mul(field, t[:, None], g[None, :])
    return res[:, :dg]


def _pack(field: Field, word) -> int:
    acc = 0
    for i, v in enumerate(word):
        acc |= int(v) << (i * field.s)
    return acc


def span_packed(field: Field, rows, limit: int = 1 << 20):
    """All codewords spanned by the rows, packed s bits per symbol.

    Returns a sorted numpy int64 array when the packed width fits, otherwise
    a sorted list of python ints.
    """
    rows = [list(map(int, r)) for r in rows]
    q = field.order
    if q ** len(rows) > limit:
        raise ValueError(f"span of {len(rows)} rows over GF({q}) exceeds limit {limit}")
    if not rows:
        return np.zeros(1, dtype=np.int64)
    width = len(rows[0]) * field.s
    multiples = [
        [_pack(field, [field.mul(c, v) for v in row]) for c in range(q)] for row in rows
    ]
    if width <= 62:
        arr = np.zeros(1, dtype=np.int64)
        for packs in multiples:
            arr = (arr[:, None] ^ np.array(packs, dtype=np.int64)[None, :]).ravel()
        return np.unique(arr)
    words = {0}
    for packs in multiples:
        words = {w ^ p for w in words for p in packs}
    return sorted(words)


def spans_equal(a, b) -> bool:
    if isinstance(a, np.ndarray) and isinstance(b, np.ndarray):
        return a.shape == b.shape and bool((a == b).all())
    return list(a) == list(b)


# -- coordinate permutations ---------------------------------------------------


@dataclass(frozen=True)
class CoordinatePermutation:
    """A permutation of coordinates: output position p reads input
    position table[p]."""

    table: tuple[int, ...]

    def __post_init__(self) -> None:
        table = tuple(int(t) for t in self.table)
        if sorted(table) != list(range(len(table))):
            raise ValueError("permutation table is not a bijection")
        object.__setattr__(self, "table", table)

    @property
    def size(self) -> int:
        return len(self.table)

    def apply(self, word):
        if isinstance(word, np.ndarray):
            if word.shape[-1] != self.size:
                raise ValueError("size mismatch")
            return word[..., np.array(self.table)]
        word = tuple(word)
        if len(word) != self.size:
            raise ValueError("size mismatch")
        return tuple(word[t] for t in self.table)

    def inverse(self) -> "CoordinatePermutation":
        inv = [0] * self.size
        for p, t in enumerate(self.table):
            inv[t] = p
        return CoordinatePermutation(tuple(inv))


def interleave_permutation(n: int) -> CoordinatePermutation:
    """Sends the concatenated word (x | y) of length 2n to the word w with
    w_p = x_{p mod n} for even p and w_p = y_{p mod n} for odd p."""
    if n < 1 or n % 2 == 0:
        raise ValueError("n must be odd")
    table = tuple((p % n) if p % 2 == 0 else n + (p % n) for p in range(2 * n))
    return CoordinatePermutation(table)


def poly_word(p: Poly, n: int) -> list[int]:
    """The coefficients of p as a word of length n.  The only divisor of
    x^n - 1 of degree n is x^n - 1 itself, which generates the zero code."""
    if p.degree >= n:
        return [0] * n
    return p.coeffs.tolist() + [0] * (n - len(p.coeffs))


def interleave(x: list[int], y: list[int]) -> list[int]:
    """The word w of length 2n with w_p = x_(p mod n) for even p and
    w_p = y_(p mod n) for odd p, n = len(x) = len(y) odd.  The even p < n
    read the even positions of x and the even p >= n its odd ones; the odd p
    read the odd positions of y first, then its even ones."""
    w = [0] * (2 * len(x))
    w[0::2] = x[0::2] + x[1::2]
    w[1::2] = y[1::2] + y[0::2]
    return w


def seeds_in_ideal(g1: Poly, g_dual: Poly, n: int, outer_generator: Poly) -> bool:
    """outer_generator divides the interleaved seed rows [g1|g1] and
    [0|g_dual], each divided out by schoolbook long division."""
    field = g1.field
    g1_word = poly_word(g1, n)
    for row in (interleave(g1_word, g1_word), interleave([0] * n, poly_word(g_dual, n))):
        if not poly_divrem(Poly(field, row), outer_generator)[1].is_zero:
            return False
    return True


# -- the recorded checks, by dense linear algebra ------------------------------


def cyclic_shift_permutation(size: int, shift: int = 1) -> CoordinatePermutation:
    """Cyclic right shift by ``shift`` positions."""
    if size < 1:
        raise ValueError("size must be positive")
    return CoordinatePermutation(tuple((p - shift) % size for p in range(size)))


def dual_containing(code: CyclicCode, kind: str) -> bool:
    """Every row of the dual's generator matrix reduces to zero against the
    code's row echelon form."""
    dual = code.dual(kind)
    if dual.k == 0:
        return True
    if code.k == 0:
        return False
    reduced, pivots = rref(code.field, code.generator_matrix())
    return not reduce_rows(code.field, reduced, pivots, dual.generator_matrix()).any()


def verify_self_dual(field: Field, basis, kind: str) -> bool:
    """True iff the rows span a self-dual code: dimension is half the length
    and G G^T = 0 (Euclidean) or G conj(G)^T = 0 (Hermitian)."""
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
    basis = np.asarray(basis, dtype=dtype_for(field))
    rows, cols = basis.shape
    if rank(field, basis) < rows:
        raise ValueError("not a basis: rows are linearly dependent")
    if cols % 2 or rows != cols // 2:
        return False
    if kind == HERMITIAN:
        if field.s % 2:
            raise ValueError("hermitian self-duality needs a field of square order")
        other = frobenius_array(field, basis, field.s // 2)
    else:
        other = basis
    return not mat_mul(field, basis, other.T).any()


def verify_van_lint_equivalence(
    field: Field, basis, n: int, outer_generator: Poly, full: bool = False
) -> bool:
    """The interleaved rows of a [u|u+v] basis span exactly the code of
    length 2n generated by outer_generator: every row is divisible by it and
    the dimensions agree, or with full=True the two codeword sets are
    compared outright (feasible only at desk scale)."""
    basis = np.asarray(basis, dtype=dtype_for(field))
    if rank(field, basis) != basis.shape[0] or basis.shape[0] != 2 * n - outer_generator.degree:
        return False
    permuted = interleave_permutation(n).apply(basis)
    if poly_remainder_rows(field, permuted, outer_generator.coeffs.tolist()).any():
        return False
    if full:
        lhs = span_packed(field, permuted, limit=FULL_COMPARE_LIMIT)
        rhs = span_packed(
            field, shifted_rows(outer_generator, 2 * n), limit=FULL_COMPARE_LIMIT
        )
        return spans_equal(lhs, rhs)
    return True


def check_code_automorphism(field: Field, basis, perm: CoordinatePermutation) -> bool:
    """True iff permuting every basis row lands back inside the row space."""
    basis = np.asarray(basis, dtype=dtype_for(field))
    if perm.size != basis.shape[1]:
        raise ValueError("size mismatch between permutation and code length")
    reduced, pivots = rref(field, basis)
    residues = reduce_rows(field, reduced, pivots, perm.apply(basis))
    return not residues.any()


def pipeline_checks(
    inner: CyclicCode, kind: str, outer_generator: Poly | None = None
) -> dict[str, bool]:
    """The four recorded checks by dense linear algebra, with the same
    verdict dict as cycledual.construct.pipeline_checks."""
    checks = dict.fromkeys(
        ("dual_containing", "self_dual", "van_lint_equivalence", "cyclic_invariance"), False
    )
    checks["dual_containing"] = dual_containing(inner, kind)
    if not checks["dual_containing"]:
        return checks
    dual = inner.dual(kind)
    basis = uuv_basis(inner, dual)
    field, n = inner.field, inner.n
    checks["self_dual"] = verify_self_dual(field, basis, kind)
    if outer_generator is None:
        outer_generator = inner.g * inner.g * poly_divrem(dual.g, inner.g)[0]
    checks["van_lint_equivalence"] = verify_van_lint_equivalence(
        field, basis, n, outer_generator
    )
    permuted = interleave_permutation(n).apply(basis)
    checks["cyclic_invariance"] = check_code_automorphism(
        field, permuted, cyclic_shift_permutation(2 * n)
    )
    return checks


# -- the command line -----------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cycledual",
        description="Self-dual repeated-root cyclic codes over GF(2^s) "
        "from dual-containing BCH codes, with re-checkable certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="run one pipeline cell")
    c.add_argument("--kind", required=True, choices=KINDS)
    c.add_argument("--s", type=int, required=True, help="alphabet exponent (q = 2^s)")
    c.add_argument("--m", type=int, required=True, help="odd extension degree")
    c.add_argument("--mu", type=int, required=True, help="length divisor")
    c.add_argument("--b", type=int, default=None, help="override the coset count")
    c.add_argument("--out", default=None, help="write the certificate here")

    v = sub.add_parser("verify", help="re-check a certificate from scratch")
    v.add_argument("certificate")

    d = sub.add_parser("distance", help="measure a certificate's outer code")
    d.add_argument("certificate")
    d.add_argument("--method", required=True, choices=("exhaustive", "sampled"))
    d.add_argument("--budget", type=int, default=None, help="most codewords to weigh")
    d.add_argument("--partitions", type=int, default=1)
    d.add_argument("--trials", type=int, default=10000)
    d.add_argument("--seed", type=int, default=0)

    t = sub.add_parser("table", help="sweep a parameter grid")
    t.add_argument("--kind", required=True, choices=KINDS)
    t.add_argument("--s", type=int, required=True)
    t.add_argument("--m-max", dest="m_max", type=int, required=True)
    t.add_argument("--mu", type=int, default=None, help="restrict to one divisor")

    f = sub.add_parser("factor", help="cosets and irreducible factors of x^n - 1")
    f.add_argument("--q", type=int, required=True)
    f.add_argument("--n", type=int, required=True)

    return parser
