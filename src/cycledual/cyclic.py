"""Cyclic codes over GF(2^s) with odd length n: construction from a defining
set or a generator polynomial, and Euclidean and Hermitian duals.

A dual's generator is read off the check polynomial, its defining set is
T^perp = -q (Z_n minus T), and one product ties the two together.

The primitive n-th root beta used to pin defining sets is canonical per
(field, n): it is gamma^((2^(s*m)-1)/n) for the canonical primitive element
gamma of the extension GF(2^(s*m)), m the multiplicative order of 2^s mod n.
The root context caches beta's powers (:func:`cycledual.gf.power_table`) and
the coset table, the minimal polynomials of every coset of Z_n as one record
of read-only arrays (:class:`cycledual.cyclo.CosetTable`).  Every generator
and check polynomial is a product of the table's rows: g over T, h over the
cosets outside T, checked by g h = x^n - 1.  A mask over Z_n picks the rows
by their cosets' least members, and their coefficients go to the product as
they lie in the table.  :meth:`CyclicCode.from_generator` reads the roots of
g off the same table, by one Horner pass at each coset's beta^c.
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
    CosetTable,
    DefiningSet,
    _check_kind,
    _horner,
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
from .poly import Poly, _monic_reversal, _product, conjugate_poly, x_pow_n_minus_1

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

    @cached_property
    def minimal_polynomials(self) -> CosetTable:
        """The coset table, minimal_polynomial(self), on first use; its
        arrays are read-only."""
        return minimal_polynomial(self)


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


def _coset_product(field: Field, n: int, mask: np.ndarray) -> Poly:
    """The product of the coset table's rows whose least member the mask
    holds: for the membership mask of a coset-closed S, the roots are beta^S.
    The rows go to the product as the table's coefficients, never as Polys."""
    table = root_context(field, n).minimal_polynomials
    pick = mask[table.least]
    lens = table.sizes + 1
    coeffs = table.coeffs[np.repeat(pick, lens)]
    return Poly._of(field, _product(field, coeffs, lens[pick].tolist()))


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
        """The caller has checked g h = x^n - 1 by one product."""
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
        g = _coset_product(field, n, T.mask)  # raises first if n is infeasible
        h = _coset_product(field, n, ~T.mask)
        if g * h != x_pow_n_minus_1(field, n):
            raise RuntimeError("internal: the coset table does not multiply back to x^n - 1")
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
        table = ctx.minimal_polynomials
        # roots of a GF(q)-coefficient polynomial come in whole cosets:
        # g(beta^(q i)) = g(beta^i)^q, so one representative decides the
        # orbit; one Horner pass evaluates g at every beta^c
        roots = _horner(ctx, g.coeffs, ctx.powers[table.least]) == 0
        mask = np.zeros(n, dtype=bool)
        mask[table.members] = np.repeat(roots, table.sizes)
        code = cls.from_defining_set(field, n, DefiningSet._of(n, field.order, mask))
        # x^n - 1 is squarefree, so g divides it iff g is the product of x - beta^i over its roots
        if code.g != g:
            raise ValueError("not a divisor: g does not divide x^n - 1")
        return code

    # -- duals -----------------------------------------------------------------

    def _dual_generator(self, kind: str) -> Poly:
        return _dual_from_check(self.h, _conjugation_power(self.field, kind))

    def dual(self, kind: str = EUCLIDEAN) -> "CyclicCode":
        """The dual code: generator the (conjugated) reversal of the check
        polynomial, defining set T^perp = -q (Z_n minus T), the complement
        of -q T, since multiplying by the unit -q permutes Z_n.  Since
        x^n - 1 is squarefree, that generator has exactly the roots T^perp
        iff its product with the coset table's product over -q T is
        x^n - 1, which catches a fault in the reversal or the conjugation.
        That product over -q T is also the dual's h."""
        q = _conjugation_power(self.field, kind)
        gd = self._dual_generator(kind)
        image = set_map(self.T, -q)
        hd = _coset_product(self.field, self.n, image.mask)
        if gd * hd != x_pow_n_minus_1(self.field, self.n):
            raise RuntimeError("internal: the dual generator has a root outside T^perp")
        return CyclicCode(self.field, self.n, gd, hd, complement(image))

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
