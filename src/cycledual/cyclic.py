"""Cyclic codes over GF(2^s) with odd length n: construction from a defining
set or a generator polynomial, Euclidean and Hermitian duals (generator from
the check polynomial, defining set from T, root-checked against each other),
membership, and non-systematic encoding.

The primitive n-th root beta used to pin defining sets is canonical per
(field, n): it is gamma^((2^(s*m)-1)/n) for the canonical primitive element
gamma of the extension GF(2^(s*m)), m the multiplicative order of 2^s mod n.
Repeated-root codes (even length) are deliberately rejected here; they are
built by the construct module.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from . import linalg
from .cyclo import (
    EUCLIDEAN,
    HERMITIAN,
    DefiningSet,
    all_cosets,
    complement,
    coset,
    is_dual_containing_set,
    minimal_polynomial,
    set_map,
)
from .gf import (
    EXTENSION_MAX_S,
    Embedding,
    Field,
    FieldElement,
    extension_with_embedding,
    nth_root_of_unity,
)
from .poly import Poly, _monic_reversal, conjugate_poly, x_pow_n_minus_1

__all__ = ["RootContext", "root_context", "CyclicCode", "hermitian_base"]


@dataclass(frozen=True)
class RootContext:
    """Extension field hosting the canonical primitive n-th root of unity."""

    m: int
    ext: Field
    emb: Embedding
    beta: FieldElement
    beta_exponent: int


@lru_cache(maxsize=None)
def root_context(field: Field, n: int) -> RootContext:
    if n < 1 or n % 2 == 0:
        raise ValueError("length n must be odd and positive")
    m = 1
    pw = field.order % n
    while pw != 1 % n:
        pw = (pw * field.order) % n
        m += 1
        if field.s * m > EXTENSION_MAX_S:
            raise ValueError(
                f"extension degree for n={n} exceeds the 2^{EXTENSION_MAX_S} limit"
            )
    ext, emb = extension_with_embedding(field, m)
    beta = nth_root_of_unity(ext, n)
    return RootContext(m, ext, emb, beta, (ext.order - 1) // n)


@lru_cache(maxsize=None)
def _coset_minimal_polynomial(field: Field, n: int, rep: int) -> Poly:
    ctx = root_context(field, n)
    return minimal_polynomial(coset(n, field.order, rep), ctx.beta, ctx.emb)


def hermitian_base(field: Field) -> int:
    """The q with q^2 = |field|, i.e. the Hermitian conjugation power."""
    if field.s % 2:
        raise ValueError("hermitian operations need a field of square order")
    return 1 << (field.s // 2)


class CyclicCode:
    """A cyclic code of odd length n over GF(2^s), an ideal of
    GF(2^s)[x]/(x^n - 1) generated by a monic divisor g of x^n - 1."""

    __slots__ = ("field", "n", "g", "h", "T", "k")

    def __init__(self, field: Field, n: int, g: Poly, T: DefiningSet):
        h, rem = x_pow_n_minus_1(field, n).divrem(g)
        if not rem.is_zero:
            raise ValueError("not a divisor: g does not divide x^n - 1")
        if len(T) != g.degree:
            raise RuntimeError("internal: |T| != deg(g)")
        self.field = field
        self.n = n
        self.g = g
        self.h = h
        self.T = T
        self.k = n - g.degree

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_defining_set(cls, field: Field, n: int, T: DefiningSet) -> "CyclicCode":
        if n % 2 == 0:
            raise ValueError("use construct module for repeated-root codes")
        if T.n != n:
            raise ValueError("defining set modulus does not match the length")
        if T.q != field.order:
            raise ValueError("defining set base does not match the field order")
        if not T.is_coset_closed():
            raise ValueError("defining set not coset-closed")
        root_context(field, n)  # validates feasibility up front
        g = Poly.one(field)
        seen: set[int] = set()
        for i in T.sorted_members:
            if i in seen:
                continue
            orb = coset(n, field.order, i)
            seen.update(orb)
            g = g * _coset_minimal_polynomial(field, n, min(orb))
        return cls(field, n, g, T)

    @classmethod
    def from_generator(cls, field: Field, n: int, g: Poly) -> "CyclicCode":
        if n % 2 == 0:
            raise ValueError("use construct module for repeated-root codes")
        if g.field != field:
            raise ValueError("field mismatch")
        if g.is_zero:
            raise ValueError("generator must be nonzero")
        g = g.monic()
        ctx = root_context(field, n)
        # roots of a GF(q)-coefficient polynomial come in whole cosets:
        # g(beta^(q i)) = g(beta^i)^q, so one representative decides the orbit
        members: set[int] = set()
        for rep, orbit in all_cosets(n, field.order).items():
            if g.eval(ctx.beta**rep, ctx.emb).value == 0:
                members.update(orbit)
        T = DefiningSet(n, field.order, frozenset(members))
        return cls(field, n, g, T)

    # -- duals -----------------------------------------------------------------

    def _dual_generator(self, kind: str) -> Poly:
        gd = _monic_reversal(self.h)
        if kind == EUCLIDEAN:
            return gd
        if kind == HERMITIAN:
            return conjugate_poly(gd, hermitian_base(self.field))
        raise ValueError(f"unknown dual kind {kind!r}")

    def dual(self, kind: str = EUCLIDEAN) -> "CyclicCode":
        """The dual code: generator the (conjugated) reversal of the check
        polynomial, defining set T^perp = -q (Z_n minus T).  That generator
        divides the squarefree x^n - 1 with degree |T^perp|, so its roots are
        T^perp iff it vanishes at no coset representative of -q T."""
        gd = self._dual_generator(kind)
        q = 1 if kind == EUCLIDEAN else hermitian_base(self.field)
        ctx = root_context(self.field, self.n)
        for rep in sorted({min(coset(self.n, self.field.order, i)) for i in self.T}):
            if gd.eval(ctx.beta ** (-q * rep % self.n), ctx.emb).value == 0:
                raise RuntimeError("internal: the dual generator has a root outside T^perp")
        return CyclicCode(self.field, self.n, gd, set_map(complement(self.T), -q))

    def is_dual_containing(self, kind: str = EUCLIDEAN) -> bool:
        """The defining-set predicate: the dual lies in the code."""
        if kind == HERMITIAN:
            return is_dual_containing_set(self.T, kind, hermitian_base(self.field))
        return is_dual_containing_set(self.T, kind)

    # -- linear-algebra views -----------------------------------------------

    def generator_matrix(self) -> np.ndarray:
        """k x n matrix whose rows are x^i * g(x)."""
        if self.k < 1:
            raise ValueError("no basis: the zero code has no generator matrix")
        return linalg.shifted_rows(self.g, self.n)

    def encode(self, message: Sequence[int | FieldElement]) -> tuple[int, ...]:
        """Non-systematic encoding m(x) * g(x), returned as n coefficients."""
        msg = [self.field.element(c).value for c in message]
        if len(msg) != self.k:
            raise ValueError(f"message length {len(msg)} != dimension {self.k}")
        word = (Poly(self.field, msg) * self.g) % x_pow_n_minus_1(self.field, self.n)
        coeffs = list(word.coeffs)
        return tuple(coeffs + [0] * (self.n - len(coeffs)))

    def contains(self, word: Iterable[int | FieldElement]) -> bool:
        vals = [self.field.element(c).value for c in word]
        if len(vals) != self.n:
            raise ValueError(f"word length {len(vals)} != code length {self.n}")
        if self.k == 0:
            return not any(vals)
        return (Poly(self.field, vals) % self.g).is_zero

    def __repr__(self) -> str:
        return f"CyclicCode([{self.n}, {self.k}] over {self.field!r})"
