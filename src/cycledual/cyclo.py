"""Cyclotomic cosets modulo n, defining-set algebra, the consecutive-run
BCH bound, the gcd(q^a±1, q^b-1) closed forms, and minimal polynomials of
cosets.

A defining set is a subset of Z_n tagged with the coset base q (the alphabet
order; q^2-cyclotomic work simply uses that square as the base).  Sets
serialize as comma-separated decimal residues in ascending order.

:func:`minimal_polynomial` takes residues and expands the minimal
polynomials of all the cosets they meet in one numpy pass: it finds the
cosets by walking every residue's orbit at once, reads the roots beta^j from
the table of beta's powers that :func:`cycledual.cyclic.root_context` builds
once per (field, n), one coset per column of an (L, N) matrix padded with
the root 0 (L the largest coset size), expands the products as one
(L + 1, N) coefficient matrix in L row steps, one
:func:`cycledual.gf.times` call each, and pulls the coefficients back to
the base field through the embedding's inverse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

import numpy as np

from .gf import Field, times
from .poly import Poly

if TYPE_CHECKING:
    from .cyclic import RootContext

__all__ = [
    "EUCLIDEAN",
    "HERMITIAN",
    "KINDS",
    "DefiningSet",
    "coset",
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


def minimal_polynomial(ctx: RootContext, residues: Iterable[int]) -> dict[tuple[int, ...], Poly]:
    """The minimal polynomial prod_{j in C} (x - beta^j) of each q-coset C
    that meets residues, with its coefficients pulled back to the base field
    GF(q).  ctx is the :func:`cycledual.cyclic.root_context` of GF(q) and n,
    whose table of beta's powers supplies the roots.  Residues lie in
    0..n-1, in any order and with repeats.  Each key is its coset's members
    in ascending order, and the entries come in order of smallest member.

    Each residue walks r q^t mod n for 0 <= t <= m, m = ctx.m the order of q
    mod n, one column each.  A column's smallest entry is its coset's
    representative, and the walk is taken again from the distinct
    representatives, one column each.  A column returns to its
    representative first at step |C|, and at the latest at step m."""
    n = ctx.n
    try:  # neither a negative residue nor one of 2^64 or more fits
        r = np.fromiter(residues, np.uint64)
    except OverflowError:
        raise ValueError("residues must lie in 0..n-1") from None
    if not r.size:
        return {}
    if r.max() >= n:
        raise ValueError("residues must lie in 0..n-1")
    # the residues are below n < 2^32, so the products fit in uint64
    q = ctx.emb.base.order
    steps = np.array([pow(q, t, n) for t in range(ctx.m + 1)], dtype=np.uint64)[:, None]
    walk = steps * r
    walk %= n  # in place: the walk over all residues is the largest array here
    seen = np.zeros(n, dtype=bool)
    seen[walk.min(axis=0)] = True
    walk = steps * np.flatnonzero(seen).astype(np.uint64) % n
    sizes = (walk[1:] == walk[0]).argmax(axis=0) + 1
    width = int(sizes.max())
    # padding with the root 0 makes column i x^(width - |C_i|) times its
    # minimal polynomial
    roots = ctx.powers[walk[:width]]
    roots[np.arange(width)[:, None] >= sizes] = 0
    coeffs = _expand(roots, ctx.emb.ext).T.ravel().tolist()
    try:
        coeffs = list(map(ctx.emb.inverse.__getitem__, coeffs))
    except KeyError:
        raise RuntimeError(
            "internal: a minimal polynomial has a coefficient outside the base field"
        ) from None
    out = {}
    for i, (members, size) in enumerate(zip(walk.T.tolist(), sizes.tolist())):
        end = (i + 1) * (width + 1)  # monic, past the padding's zeros
        out[tuple(sorted(members[:size]))] = Poly._trusted(
            ctx.emb.base, tuple(coeffs[end - size - 1 : end])
        )
    return out


def _expand(roots: np.ndarray, ext: Field) -> np.ndarray:
    """prod_j (x - roots[j, i]) for each column i of an (L, N) matrix of
    extension values, as an (L + 1, N) coefficient matrix, low degree first.

    Row k accumulates the k-th elementary symmetric function of the roots
    read so far, one root per step for all columns at once, with one
    ``times`` call per step."""
    size, count = roots.shape
    sym = np.zeros((size + 1, count), dtype=np.uint64)
    sym[0] = 1
    for t in range(size):
        sym[1 : t + 2] ^= times(ext, roots[t], sym[: t + 1])
    return sym[::-1]
