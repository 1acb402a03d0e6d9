"""Cyclotomic cosets modulo n, defining-set algebra, the consecutive-run
BCH bound, the gcd(q^a±1, q^b-1) closed forms, and minimal polynomials of
cosets.

A defining set is a subset of Z_n tagged with the coset base q (the alphabet
order; q^2-cyclotomic work simply uses that square as the base).  Sets
serialize as comma-separated decimal residues in ascending order.

:func:`minimal_polynomial` reads each root beta^j of a coset from the
table of beta's powers that :func:`cycledual.cyclic.root_context` builds
once per (field, n), expands prod (x - beta^j) with scalar extension
arithmetic, O(|coset|^2) ``Field.mul`` calls (one table lookup each up to
GF(2^16), shift-and-add beyond), and pulls each coefficient back to the
base field with one lookup in the embedding's inverse table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

from .gf import Embedding, Field
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
    coset_residues: Iterable[int], beta: int, emb: Embedding, powers: Sequence[int]
) -> Poly:
    """Expand prod_{j in coset} (x - beta^j) in the extension and pull the
    coefficients back to the base field.  beta is an element of the
    embedding's extension of order n, and powers is the table of beta^j for
    0 <= j < n (see :func:`cycledual.cyclic.root_context`), from which each
    root is read."""
    ext = emb.ext
    if not 0 <= beta < ext.order:
        raise ValueError(f"value {beta} out of range for {ext!r}")
    members = frozenset(int(j) for j in coset_residues)
    if not members:
        raise ValueError("empty coset")
    n = _order(ext, beta)
    if any(j < 0 or j >= n for j in members):
        raise ValueError("coset residues must lie in 0..n-1")
    # one walk j -> j q mod n from the smallest member: each step lands in
    # members and the orbit has len(members) elements.  n divides 2^k - 1,
    # so q (a power of two) is invertible mod n and the walk returns.
    q, start = emb.base.order, min(members)
    size, j = 1, start * q % n
    while j != start:
        if j not in members:
            raise ValueError("not a single cyclotomic coset")
        size, j = size + 1, j * q % n
    if size != len(members):
        raise ValueError("not a single cyclotomic coset")
    if len(powers) != n or powers[1 % n] != beta:
        raise ValueError("powers must be the table of beta^j for 0 <= j < n")
    return _expand([powers[j] for j in members], emb)


def _expand(roots: Iterable[int], emb: Embedding) -> Poly:
    """prod (x - root) over roots in the extension, as a plain list of
    extension values built with scalar ``ext.mul``, its coefficients pulled
    back to the base field with one ``emb.inverse`` lookup each; a
    coefficient outside the base field is a coset/base mismatch."""
    mul = emb.ext.mul
    prod = [1]
    for root in roots:
        # (x + root) * prod, low degree first
        prod = [mul(root, c) ^ lower for c, lower in zip(prod + [0], [0] + prod)]
    inverse = emb.inverse
    try:  # base values, and monic: nothing for Poly's checks to catch
        return Poly._trusted(emb.base, tuple([inverse[c] for c in prod]))
    except KeyError:
        raise ValueError("coset/base mismatch") from None
