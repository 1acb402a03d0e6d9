"""Cyclotomic cosets modulo n, defining-set algebra, the consecutive-run
BCH bound, the gcd(q^a±1, q^b-1) closed forms, and minimal polynomials of
cosets.

A defining set is a subset of Z_n tagged with the coset base q (the alphabet
order; q^2-cyclotomic work simply uses that square as the base).  Sets
serialize as comma-separated decimal residues in ascending order.

:func:`minimal_polynomial` takes a sequence of cosets and expands all of
them in one numpy pass: it reads the roots beta^j from the table of beta's
powers that :func:`cycledual.cyclic.root_context` builds once per (field,
n), one coset per column of an (L, N) matrix padded with the root 0 (L the
largest coset size), expands the products as one (L + 1, N) coefficient
matrix in L row steps (through the extension's log/antilog tables up to
GF(2^16), by vectorised shift-and-add beyond), and pulls the coefficients
back to the base field through the embedding's inverse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from .gf import TABLE_MAX_S, Embedding, Field, log_exp
from .poly import Poly

__all__ = [
    "EUCLIDEAN",
    "HERMITIAN",
    "KINDS",
    "DefiningSet",
    "coset",
    "all_cosets",
    "set_map",
    "complement",
    "bch_defining_set",
    "bch_bound",
    "is_dual_containing_set",
    "gcd_lemma",
    "minimal_polynomial",
]

EUCLIDEAN = "euclidean"
HERMITIAN = "hermitian"
KINDS = (EUCLIDEAN, HERMITIAN)


def _check_kind(kind: str) -> None:
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")


@dataclass(frozen=True)
class DefiningSet:
    """A subset of Z_n with its coset base recorded."""

    n: int
    q: int
    members: frozenset[int]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("modulus n must be positive")
        if self.q < 2:
            raise ValueError("coset base q must be at least 2")
        members = frozenset(int(i) for i in self.members)
        if any(i < 0 or i >= self.n for i in members):
            raise ValueError("residues must lie in 0..n-1")
        object.__setattr__(self, "members", members)

    @property
    def sorted_members(self) -> tuple[int, ...]:
        return tuple(sorted(self.members))

    def is_coset_closed(self) -> bool:
        return all((i * self.q) % self.n in self.members for i in self.members)

    def __contains__(self, i: int) -> bool:
        return i in self.members

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.sorted_members)

    def to_string(self) -> str:
        return ",".join(str(i) for i in self.sorted_members)

    @classmethod
    def from_string(cls, n: int, q: int, text: str) -> "DefiningSet":
        if text == "":
            return cls(n, q, frozenset())
        vals = []
        for t in text.split(","):
            try:
                v = int(t, 10)
            except ValueError:
                raise ValueError(f"bad residue {t!r}") from None
            if str(v) != t:
                raise ValueError(f"non-canonical residue {t!r}")
            vals.append(v)
        if vals != sorted(set(vals)):
            raise ValueError("residues must be distinct and ascending")
        return cls(n, q, frozenset(vals))


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


def set_map(T: DefiningSet, c: int) -> DefiningSet:
    """{c*i mod n : i in T}; c = -1 gives T^-1 and c = -q gives T^-q."""
    return DefiningSet(T.n, T.q, frozenset((c * i) % T.n for i in T.members))


def complement(T: DefiningSet) -> DefiningSet:
    return DefiningSet(T.n, T.q, frozenset(range(T.n)) - T.members)


def bch_defining_set(n: int, q: int, b: int) -> DefiningSet:
    """Union of the cosets of 1..b (so b = delta - 1); empty for b = 0."""
    if b < 0:
        raise ValueError("coset count b must be nonnegative")
    members: set[int] = set()
    for i in range(1, b + 1):
        members.update(coset(n, q, i))
    return DefiningSet(n, q, frozenset(members))


def bch_bound(T: DefiningSet) -> int:
    """1 + the longest cyclically-consecutive run of residues inside T."""
    mem = T.sorted_members
    if not mem:
        return 1
    n = T.n
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


def is_dual_containing_set(T: DefiningSet, kind: str, q: int | None = None) -> bool:
    """Dual-containment predicate: T disjoint from T^-1 (Euclidean) or from
    T^-q (Hermitian, where T's base must be q^2)."""
    _check_kind(kind)
    if not T.is_coset_closed():
        raise ValueError("defining set not coset-closed")
    if kind == EUCLIDEAN:
        mapped = {(-i) % T.n for i in T.members}
    else:
        if q is None:
            raise ValueError("hermitian containment test needs the conjugation base q")
        if q * q != T.q:
            raise ValueError(f"hermitian defining sets use base q^2; got q={q}, base={T.q}")
        mapped = {(-q * i) % T.n for i in T.members}
    return T.members.isdisjoint(mapped)


def gcd_lemma(q: int, a: int, b: int, form: str) -> int:
    """Closed forms for gcd(q^a - 1, q^b - 1) and gcd(q^a + 1, q^b - 1)."""
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


@lru_cache(maxsize=None)
def _order(ext: Field, beta: int) -> int:
    """The multiplicative order of beta, computed once per (extension, beta)."""
    return ext.multiplicative_order(beta)


def minimal_polynomial(
    cosets: Iterable[Iterable[int]], beta: int, emb: Embedding, powers: Sequence[int]
) -> list[Poly]:
    """The minimal polynomial prod_{j in C} (x - beta^j) of each coset C, in
    order, with its coefficients pulled back to the base field.  beta is an
    element of the embedding's extension of order n, and powers is the table
    of beta^j for 0 <= j < n (see :func:`cycledual.cyclic.root_context`), from
    which each root is read.  The same coset may appear more than once."""
    ext = emb.ext
    if not 0 <= beta < ext.order:
        raise ValueError(f"value {beta} out of range for {ext!r}")
    rows = [tuple(c) for c in cosets]
    lengths = [len(row) for row in rows]
    if 0 in lengths:
        raise ValueError("empty coset")
    if not rows:
        return []
    n = _order(ext, beta)
    try:  # a negative residue does not fit either
        flat = np.fromiter(chain.from_iterable(rows), np.uint64, sum(lengths))
    except OverflowError:
        raise ValueError("coset residues must lie in 0..n-1") from None
    if flat.max() >= n:
        raise ValueError("coset residues must lie in 0..n-1")
    # one coset per column, so that reductions run along the short axis 0;
    # residue n pads each column below its members
    sizes = np.array(lengths)
    width = max(lengths)
    padded = np.full((len(rows), width), n, dtype=np.uint64)
    padded[np.arange(width) < sizes[:, None]] = flat
    residues = np.ascontiguousarray(padded.T)
    if not _is_one_coset(residues, sizes, n, emb.base.order).all():
        raise ValueError("not a single cyclotomic coset")
    if len(powers) != n or powers[1 % n] != beta:
        raise ValueError("powers must be the table of beta^j for 0 <= j < n")
    # the padding reads the root 0, so column i holds x^(width - L_i) times
    # its minimal polynomial
    table = np.fromiter(chain(powers, (0,)), np.int64, n + 1)
    coeffs = _expand(table[residues], ext).T.ravel().tolist()
    try:
        coeffs = list(map(emb.inverse.__getitem__, coeffs))
    except KeyError:
        raise ValueError("coset/base mismatch") from None
    out = []
    for i, size in enumerate(lengths):  # monic, past the padding's zeros
        end = (i + 1) * (width + 1)
        out.append(Poly._trusted(emb.base, tuple(coeffs[end - size - 1 : end])))
    return out


def _is_one_coset(residues: np.ndarray, sizes: np.ndarray, n: int, q: int) -> np.ndarray:
    """For each column of a residue matrix, padded with n below its L
    members, whether they are one q-coset mod n: the walk j -> j q from the
    first member returns to it at step L and not before, so it visits L
    distinct residues, and each of them occurs in the column, which then
    holds exactly these L.  The residues are below n < 2^32, so the
    products fit in uint64."""
    width = len(residues)
    steps = np.array([pow(q, t, n) for t in range(width + 1)], dtype=np.uint64)
    walk = steps[:, None] * residues[0] % n
    t = np.arange(1, width + 1)[:, None]
    returns = (walk[1:] == walk[0]) == (t == sizes)
    visited = (residues[:, None] == walk[None, :width]).any(axis=0)
    return (returns & visited | (t > sizes)).all(axis=0)


def _expand(roots: np.ndarray, ext: Field) -> np.ndarray:
    """prod_j (x - roots[j, i]) for each column i of an (L, N) matrix of
    extension values, as an (L + 1, N) coefficient matrix, low degree first.

    Row k accumulates the k-th elementary symmetric function of the roots
    read so far, one root per step for all columns at once; the products
    run through the extension's log/antilog tables up to GF(2^TABLE_MAX_S),
    and by shift-and-add over the bits of the coefficients beyond."""
    size, count = roots.shape
    times = _table_times(roots, ext) if ext.s <= TABLE_MAX_S else _shift_times(roots, ext)
    sym = np.zeros((size + 1, count), dtype=np.int64)
    sym[0] = 1
    for t in range(size):
        sym[1 : t + 2] ^= times(sym[: t + 1], t)
    return sym[::-1]


def _table_times(roots: np.ndarray, ext: Field):
    """values * roots[t], column by column, through the log/antilog tables."""
    log, exp = log_exp(ext)
    log_roots = log[roots]
    return lambda values, t: exp[log[values] + log_roots[t]]


def _shift_times(roots: np.ndarray, ext: Field):
    """values * roots[t], column by column, as the xor of roots[t] x^b over
    the set bits b of the values; the (s, L, N) multiples roots x^b are
    reduced once, not per product."""
    multiples = np.empty((ext.s,) + roots.shape, dtype=np.int64)
    multiples[0] = roots
    for b in range(1, ext.s):
        shifted = multiples[b - 1] << 1
        multiples[b] = shifted ^ (shifted >> ext.s) * ext.modulus

    def times(values, t):
        out = np.zeros_like(values)
        for b in range(ext.s):
            out ^= (values >> b & 1) * multiples[b, t]
        return out

    return times
