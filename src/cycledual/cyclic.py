"""Cyclic codes over GF(2^s) with odd length n: construction from a defining
set or a generator polynomial, and Euclidean and Hermitian duals.

A dual's generator is read off the check polynomial, its defining set is
T^perp = -q (Z_n minus T), and one product ties the two together.

The primitive n-th root beta used to pin defining sets is canonical per
(field, n): it is gamma^((2^(s*m)-1)/n) for the canonical primitive element
gamma of the extension GF(2^(s*m)), m the multiplicative order of 2^s mod n.
The table of its powers, from which the minimal polynomials read their
roots, is :func:`cycledual.gf.power_table`'s doubling walk.  A generator is
the product of the minimal polynomials of its defining set's cosets, which
:func:`cycledual.cyclo.minimal_polynomial` finds from the set's residues.
Repeated-root codes (even length) are deliberately rejected here; they are
built by the construct module.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import linalg
from .cyclo import (
    EUCLIDEAN,
    HERMITIAN,
    DefiningSet,
    _check_kind,
    complement,
    is_dual_containing_set,
    minimal_polynomial,
    set_map,
)
from .gf import (
    EXTENSION_MAX_S,
    Embedding,
    Field,
    extension_with_embedding,
    nth_root_of_unity,
    power_table,
)
from .poly import Poly, _monic_reversal, conjugate_poly, product, x_pow_n_minus_1

__all__ = ["RootContext", "root_context", "CyclicCode", "hermitian_base"]


@dataclass(frozen=True)
class RootContext:
    """Extension field hosting the canonical primitive n-th root of unity
    beta, held as its int value."""

    n: int
    m: int
    ext: Field
    emb: Embedding
    beta: int
    beta_exponent: int

    @cached_property
    def powers(self) -> np.ndarray:
        """beta^j for 0 <= j < n as a read-only uint64 array, walked by
        doubling on first use; a context that never reads it stays as cheap
        as its field.  Read-only because the context is cached and shared."""
        powers = power_table(self.ext, self.beta, self.n)
        # the walk returns to 1 exactly at step n, so beta has order n
        if (powers[1:] == 1).any() or self.ext.mul(int(powers[-1]), self.beta) != 1:
            raise RuntimeError(f"internal: beta does not have multiplicative order {self.n}")
        powers.flags.writeable = False
        return powers


def _extension_degree(field: Field, n: int) -> int:
    """The multiplicative order m of |field| modulo n: GF(|field|^m) is the
    smallest extension holding the n-th roots of unity.  Raises ValueError
    when that extension exceeds GF(2^EXTENSION_MAX_S)."""
    m = 1
    pw = field.order % n
    while pw != 1 % n:
        pw = (pw * field.order) % n
        m += 1
        if field.s * m > EXTENSION_MAX_S:
            raise ValueError(
                f"extension degree for n={n} exceeds the 2^{EXTENSION_MAX_S} limit"
            )
    return m


@lru_cache(maxsize=None)
def root_context(field: Field, n: int) -> RootContext:
    if n < 1 or n % 2 == 0:
        raise ValueError("length n must be odd and positive")
    m = _extension_degree(field, n)
    ext, emb = extension_with_embedding(field, m)
    beta = nth_root_of_unity(ext, n)
    return RootContext(n, m, ext, emb, beta, (ext.order - 1) // n)


def _generator(field: Field, n: int, T: DefiningSet) -> Poly:
    """The monic polynomial with roots beta^i for i in the coset-closed T:
    the product of the minimal polynomials of T's cosets."""
    return product(field, minimal_polynomial(root_context(field, n), T).values())


def hermitian_base(field: Field) -> int:
    """The q with q^2 = |field|, i.e. the Hermitian conjugation power."""
    if field.s % 2:
        raise ValueError("hermitian operations need a field of square order")
    return 1 << (field.s // 2)


def _conjugation_power(field: Field, kind: str) -> int:
    """The q of the kind's inner product sum u_i v_i^q: 1 (Euclidean) or
    sqrt|field| (Hermitian)."""
    _check_kind(kind)
    return hermitian_base(field) if kind == HERMITIAN else 1


def _dual_from_check(h: Poly, q: int) -> Poly:
    """The dual generator of the code with check polynomial h: the monic
    reversal of h, with every coefficient raised to the q-th power."""
    return conjugate_poly(_monic_reversal(h), q)


class CyclicCode:
    """A cyclic code of odd length n over GF(2^s), an ideal of
    GF(2^s)[x]/(x^n - 1) generated by a monic divisor g of x^n - 1."""

    __slots__ = ("field", "n", "g", "h", "T", "k")

    def __init__(self, field: Field, n: int, g: Poly, h: Poly, T: DefiningSet):
        """The caller has checked g h = x^n - 1: from_defining_set by
        dividing, dual by its product check."""
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
        g = _generator(field, n, T)
        h, rem = x_pow_n_minus_1(field, n).divrem(g)
        if not rem.is_zero:
            raise RuntimeError("internal: the generator does not divide x^n - 1")
        return cls(field, n, g, h, T)

    # kept because the benchmark reaches it: perfbench/tracing.py METHODS wraps it
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
        for orbit in minimal_polynomial(ctx, range(n)):
            if g.eval(int(ctx.powers[orbit[0]]), ctx.emb) == 0:
                members.update(orbit)
        code = cls.from_defining_set(field, n, DefiningSet(n, field.order, frozenset(members)))
        # x^n - 1 is squarefree, so g divides it iff g is the product of x - beta^i over its roots
        if code.g != g:
            raise ValueError("not a divisor: g does not divide x^n - 1")
        return code

    # -- duals -----------------------------------------------------------------

    def _dual_generator(self, kind: str) -> Poly:
        return _dual_from_check(self.h, _conjugation_power(self.field, kind))

    def dual(self, kind: str = EUCLIDEAN) -> "CyclicCode":
        """The dual code: generator the (conjugated) reversal of the check
        polynomial, defining set T^perp = -q (Z_n minus T).  Since x^n - 1
        is squarefree, that generator has exactly the roots T^perp iff its
        product with the generator of -q T, the complement of T^perp, is
        x^n - 1.  The check builds the latter from minimal polynomials, not
        from the reversal or the conjugation, so it catches a fault in
        either.  It also makes the generator of -q T the dual's h."""
        q = _conjugation_power(self.field, kind)
        gd = self._dual_generator(kind)
        complement_g = _generator(self.field, self.n, set_map(self.T, -q))
        if gd * complement_g != x_pow_n_minus_1(self.field, self.n):
            raise RuntimeError("internal: the dual generator has a root outside T^perp")
        return CyclicCode(self.field, self.n, gd, complement_g, set_map(complement(self.T), -q))

    def is_dual_containing(self, kind: str = EUCLIDEAN) -> bool:
        """The defining-set predicate: the dual lies in the code."""
        return is_dual_containing_set(self.T, kind, _conjugation_power(self.field, kind))

    # -- linear-algebra views -----------------------------------------------

    # kept because the benchmark reaches it: perfbench/child.py's distance ops call it
    def generator_matrix(self) -> np.ndarray:
        """k x n matrix whose rows are x^i * g(x)."""
        if self.k < 1:
            raise ValueError("no basis: the zero code has no generator matrix")
        return linalg.shifted_rows(self.g, self.n)

    def __repr__(self) -> str:
        return f"CyclicCode([{self.n}, {self.k}] over {self.field!r})"
