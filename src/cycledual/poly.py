"""Dense univariate polynomials over GF(2^s).

Coefficients are raw field values stored low degree first with trailing
zeros trimmed, so the zero polynomial has an empty coefficient tuple.  The
serialized form is a comma-separated list of lowercase hex coefficients,
low degree first: 1 + x + x^3 over GF(2) is "1,1,0,1".

Multiplication and division share one numpy kernel over the field's
log/antilog tables (:func:`cycledual.gf.log_exp`, fields up to
GF(2^TABLE_MAX_S)): ``_add_scaled`` adds c times a coefficient array B,
shifted, in one vector operation, a plain xor when c = 1 and otherwise
``exp[log B + log c]``.  :func:`product` multiplies any number of factors in
one accumulator array, which becomes a tuple only once, at the end; for each
factor it takes B to be the longer operand and makes one such step per
nonzero coefficient c of the shorter one.  ``Poly.__mul__`` is its
two-factor case.  Long division keeps its sequential loop over the quotient
coefficients; B is the divisor and each step updates the remainder once.
The monic reversal and the q-th power of dual generators are one table
lookup each.  Results come back as tuples of plain Python ints.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .gf import Embedding, Field, dtype_for, log_exp

__all__ = ["Poly", "product", "x_pow_n_minus_1", "conjugate_poly"]


class Poly:
    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs: Iterable[int] = ()):
        vals = []
        for c in coeffs:
            c = int(c)
            if not 0 <= c < field.order:
                raise ValueError(f"coefficient {c} out of range for {field!r}")
            vals.append(c)
        while vals and vals[-1] == 0:
            vals.pop()
        self.field = field
        self.coeffs = tuple(vals)

    @classmethod
    def _trusted(cls, field: Field, coeffs: tuple[int, ...]) -> "Poly":
        """A polynomial from plain in-range ints with no trailing zero: the
        kernel's results, which need none of the constructor's checks."""
        p = object.__new__(cls)
        p.field = field
        p.coeffs = coeffs
        return p

    @classmethod
    def zero(cls, field: Field) -> "Poly":
        return cls(field)

    @classmethod
    def one(cls, field: Field) -> "Poly":
        return cls(field, (1,))

    # -- basic queries -------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def coefficient(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def _check(self, other: "Poly") -> None:
        if not isinstance(other, Poly) or other.field != self.field:
            raise ValueError("field mismatch")

    # -- ring operations -------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] ^= c
        return Poly(self.field, out)

    __sub__ = __add__

    def __mul__(self, other: "Poly") -> "Poly":
        return product(self.field, (self, other))

    def divrem(self, other: "Poly") -> tuple["Poly", "Poly"]:
        """Quotient and remainder with deg(remainder) < deg(other)."""
        self._check(other)
        if other.is_zero:
            raise ValueError("division by zero polynomial")
        f = self.field
        log, exp = log_exp(f)
        db = other.degree
        if len(self.coeffs) <= db:
            return Poly(f), self
        q1 = f.order - 1
        arr_b = np.array(other.coeffs, dtype=dtype_for(f))
        log_b = log[arr_b]
        r = np.array(self.coeffs, dtype=arr_b.dtype)
        quot = [0] * (len(r) - db)
        log_lead_inv = -int(log[other.coeffs[-1]]) % q1
        for i in range(len(r) - 1 - db, -1, -1):
            c = int(r[i + db])
            if c:
                log_t = (int(log[c]) + log_lead_inv) % q1
                quot[i] = int(exp[log_t])
                _add_scaled(r, i, arr_b, log_b, exp, log_t)
        nonzero = np.flatnonzero(r[:db])
        rem = tuple(r[: nonzero[-1] + 1].tolist()) if nonzero.size else ()
        # quot[-1] = lead(self) / lead(other) is nonzero
        return Poly._trusted(f, tuple(quot)), Poly._trusted(f, rem)

    def __mod__(self, other: "Poly") -> "Poly":
        return self.divrem(other)[1]

    def monic(self) -> "Poly":
        if self.is_zero:
            raise ValueError("zero polynomial has no monic form")
        lead = self.coeffs[-1]
        if lead == 1:
            return self
        f = self.field
        inv = f.inv(lead)
        return Poly(f, [f.mul(inv, c) for c in self.coeffs])

    # -- evaluation ------------------------------------------------------------

    # kept because the benchmark reaches it: perfbench/tracing.py METHODS wraps it
    def eval(self, x: int, emb: Embedding | None = None) -> int:
        """Horner evaluation; with emb, coefficients are first mapped into
        the extension and x must live there."""
        target = self.field if emb is None else emb.ext
        if emb is not None and emb.base != self.field:
            raise ValueError("embedding base does not match coefficient field")
        x = int(x)
        if not 0 <= x < target.order:
            raise ValueError(f"value {x} out of range for {target!r}")
        acc = 0
        table = emb.table if emb is not None else None
        for c in reversed(self.coeffs):
            cv = table[c] if table is not None else c
            acc = target.mul(acc, x) ^ cv
        return acc

    # -- serialization ------------------------------------------------------

    def to_string(self) -> str:
        if not self.coeffs:
            return "0"
        return ",".join(format(c, "x") for c in self.coeffs)

    @classmethod
    def from_string(cls, field: Field, text: str) -> "Poly":
        tokens = text.split(",")
        vals = []
        for t in tokens:
            try:
                v = int(t, 16)
            except ValueError:
                raise ValueError(f"bad coefficient {t!r}") from None
            if v < 0 or format(v, "x") != t:
                raise ValueError(f"non-canonical coefficient {t!r}")
            if v >= field.order:
                raise ValueError(f"coefficient {t!r} out of range for {field!r}")
            vals.append(v)
        if vals == [0]:
            return cls(field)
        if vals[-1] == 0:
            raise ValueError("trailing zero coefficient in serialized polynomial")
        return cls(field, vals)

    # -- identity ------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Poly)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.field, self.coeffs))

    def __repr__(self) -> str:
        return f"Poly({self.field!r}, [{self.to_string()}])"


def _add_scaled(
    out: np.ndarray, i: int, arr_b: np.ndarray, log_b: np.ndarray, exp: np.ndarray, log_c: int
) -> None:
    """The kernel's one step: out[i : i + len(B)] ^= c * B for the nonzero c
    with log c = log_c, a plain xor when c = 1."""
    if log_c == 0:
        out[i : i + len(arr_b)] ^= arr_b
    else:
        out[i : i + len(arr_b)] ^= exp[log_b + log_c]


def product(field: Field, polys: Iterable[Poly]) -> Poly:
    """The product of polys over field; Poly.one(field) when there are none.

    The running product stays one coefficient array from the first factor to
    the last.  Each factor is one kernel product: the longer operand is B,
    gathered into the log domain once, and the shorter one contributes one
    ``_add_scaled`` step per nonzero coefficient."""
    log, exp = log_exp(field)
    dtype = dtype_for(field)
    acc = None
    for p in polys:
        if not isinstance(p, Poly) or p.field != field:
            raise ValueError("field mismatch")
        if acc is None:
            acc = np.array(p.coeffs, dtype=dtype)
        elif not acc.size or not p.coeffs:
            acc = acc[:0]
        else:
            if len(p.coeffs) > acc.size:
                a, arr_b = acc.tolist(), np.array(p.coeffs, dtype=dtype)
            else:
                a, arr_b = p.coeffs, acc
            log_b = log[arr_b]
            acc = np.zeros(len(a) + len(arr_b) - 1, dtype=dtype)
            for i, c in enumerate(a):
                if c:
                    _add_scaled(acc, i, arr_b, log_b, exp, int(log[c]))
    if acc is None:
        return Poly.one(field)
    # every factor is trimmed, so the leading coefficient is a nonzero product
    return Poly._trusted(field, tuple(acc.tolist()))


def x_pow_n_minus_1(field: Field, n: int) -> Poly:
    """x^n - 1, which in characteristic two is x^n + 1."""
    if n < 1:
        raise ValueError("n must be positive")
    return Poly(field, [1] + [0] * (n - 1) + [1])


def _monic_reversal(h: Poly) -> Poly:
    """x^k h(1/x) / h(0) for h = (x^n - 1) / g of degree k: the dual generator,
    with leading coefficient h(0) / h(0) = 1 (x does not divide x^n - 1)."""
    f = h.field
    log, exp = log_exp(f)
    rev = np.array(h.coeffs[::-1], dtype=dtype_for(f))
    return Poly._trusted(f, tuple(exp[log[rev] + log[f.inv(h.coeffs[0])]].tolist()))


def conjugate_poly(p: Poly, q: int) -> Poly:
    """Raise every coefficient to the q-th power (q a power of two)."""
    f = p.field
    if q < 1 or q & (q - 1) or q > f.order:
        raise ValueError("q must be a power of two not exceeding the field order")
    log, exp = log_exp(f)
    c = np.array(p.coeffs, dtype=dtype_for(f))
    # c^q = exp[q log c mod (|F| - 1)]; log[0] is a sentinel, not a logarithm
    out = np.where(c != 0, exp[log[c].astype(np.int64) * q % (f.order - 1)], 0)
    return Poly._trusted(f, tuple(out.tolist()))
