"""Dense univariate polynomials over GF(2^s).

Coefficients are raw field values in one read-only array of dtype_for(field),
low degree first with trailing zeros trimmed: the zero polynomial's is empty.
The serialized form is a comma-separated list of lowercase hex coefficients,
low degree first: 1 + x + x^3 over GF(2) is "1,1,0,1".

Division runs one numpy kernel over the field's log/antilog tables
(:func:`cycledual.gf.log_exp`, fields up to GF(2^TABLE_MAX_S)):
``_add_scaled`` adds c times a coefficient array B, shifted, in one vector
operation, a plain xor when c = 1 and otherwise ``exp[log B + log c]``.  Long
division loops over the quotient coefficients; B is the divisor and each
step updates the remainder once.

:func:`product`, of which ``Poly.__mul__`` is the two-factor case, folds a
short product factor by factor with the same kernel, one step per nonzero
coefficient of the shorter operand.  A long product is a balanced
product tree over one zero-padded coefficient matrix, each level
multiplying every adjacent pair of rows at once: by the kernel, one step
per column for all pairs, while the operands are short, and then through
the FFT by Kronecker substitution over the s bit planes of the
coefficients (von zur Gathen & Gerhard, Modern Computer Algebra, Ch. 8).
The bit-plane convolutions come back as floats, are rounded and checked to
lie within 1/4 of an integer, and their parities fold back into GF(2^s).
``numpy.fft`` is reached only there, so a short product never loads it.
The crossovers are measured; see :func:`product`.

The monic reversal and the q-th power of dual generators are one table
lookup each.  Every kernel takes and returns coefficient arrays.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .gf import Embedding, Field, dtype_for, log_exp

__all__ = ["Poly", "product", "x_pow_n_minus_1", "conjugate_poly"]


class Poly:
    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs: Iterable[int] = ()):
        # a negative int overflows uint64, and a negative array entry wraps past |F|
        try:
            vals = np.asarray(coeffs if isinstance(coeffs, np.ndarray) else [*coeffs], np.uint64)
            if np.count_nonzero(vals >= field.order):
                raise OverflowError
        except OverflowError:
            raise ValueError(f"coefficient out of range for {field!r}") from None
        nonzero = vals.nonzero()[0]
        self.field = field
        self.coeffs = vals[: nonzero[-1] + 1 if nonzero.size else 0].astype(dtype_for(field))
        self.coeffs.setflags(write=False)

    @classmethod
    def _of(cls, field: Field, coeffs: np.ndarray) -> "Poly":
        """Takes over a kernel's result, of the field's dtype, in range and trimmed, read-only."""
        p = object.__new__(cls)
        if coeffs.flags.writeable:  # a view of a read-only array is read-only already
            coeffs.setflags(write=False)
        p.field, p.coeffs = field, coeffs
        return p

    @classmethod
    def zero(cls, field: Field) -> "Poly":
        return cls._of(field, np.zeros(0, dtype_for(field)))

    @classmethod
    def one(cls, field: Field) -> "Poly":
        return cls._of(field, np.ones(1, dtype_for(field)))

    # -- basic queries -------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs.size

    def _check(self, other: "Poly") -> None:
        if not isinstance(other, Poly) or other.field != self.field:
            raise ValueError("field mismatch")

    # -- ring operations -------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = a.copy()
        out[: len(b)] ^= b
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
        b, db = other.coeffs, other.degree
        if len(self.coeffs) <= db:
            return Poly.zero(f), self
        q1 = f.order - 1
        log_b = log[b]
        r = self.coeffs.copy()
        quot = np.zeros(len(r) - db, dtype=r.dtype)
        log_lead_inv = -int(log_b[-1]) % q1
        for i in range(len(r) - 1 - db, -1, -1):
            c = r[i + db]
            if c:
                log_t = (int(log[c]) + log_lead_inv) % q1
                quot[i] = exp[log_t]
                _add_scaled(r, i, b, log_b, exp, log_t)
        # quot[-1] = lead(self) / lead(other) is nonzero
        return Poly._of(f, quot), Poly(f, r[:db])

    def monic(self) -> "Poly":
        if self.is_zero:
            raise ValueError("zero polynomial has no monic form")
        lead = self.coeffs[-1]
        if lead == 1:
            return self
        log, exp = log_exp(self.field)
        return Poly._of(self.field, exp[log[self.coeffs] + log[self.field.inv(lead)]])

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
        for c in reversed(self.coeffs.tolist()):
            cv = table[c] if table is not None else c
            acc = target.mul(acc, x) ^ cv
        return acc

    # -- serialization ------------------------------------------------------

    def to_string(self) -> str:
        return ",".join([format(c, "x") for c in self.coeffs.tolist()]) or "0"

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
        if vals[-1] == 0 and vals != [0]:  # "0" is the zero polynomial
            raise ValueError("trailing zero coefficient in serialized polynomial")
        return cls(field, vals)

    # -- identity ------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Poly)
            and self.field == other.field
            and np.array_equal(self.coeffs, other.coeffs)
        )

    def __hash__(self) -> int:
        return hash((self.field, self.coeffs.tobytes()))

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


# Below _TREE_MIN_LENGTH coefficients a product is folded factor by factor;
# from it on, a balanced tree whose levels take the FFT once the shorter
# operand has _FFT_MIN_LENGTH coefficients per bit plane (see product).
_TREE_MIN_LENGTH = 1024
_FFT_MIN_LENGTH = 32
# Longest transform: the rounded convolution sums stay below s * 2^22, far
# inside float64's exact integers, and the rounding guard below checks them.
_FFT_MAX_LENGTH = 1 << 22


def product(field: Field, polys: Iterable[Poly]) -> Poly:
    """The product of polys over field; Poly.one(field) when there are none.

    A product of fewer than ``_TREE_MIN_LENGTH`` = 1024 coefficients is
    folded into one accumulator array, factor by factor: the longer operand
    is B, and the shorter one contributes one ``_add_scaled`` step per
    nonzero coefficient.  A longer product is a balanced product tree.  Its
    factors are the rows of one zero-padded coefficient matrix, and each
    level multiplies rows 2i and 2i + 1 for every i at once; an odd last row
    waits for the next level.  A level whose shorter operand has at least
    ``_FFT_MIN_LENGTH`` = 32 coefficients per bit plane of GF(2^s) takes the
    FFT (``_fft_product``: Kronecker substitution over bit planes, with a
    checked rounding); a shorter one, the kernel (``_columns``).

    The crossovers are measured (2-vCPU VM, numpy 2.4).  The fold makes the
    fewest kernel steps, one per nonzero coefficient of the factors, each
    about 1.5 us; a tree level makes one step per column of its shorter
    operand for all pairs at once, about 6 us, or one FFT of a near-fixed
    number of steps whose size grows with s.  On the levels of the coset
    factors of x^4095 - 1, kernel and FFT broke even near operand length 25
    over GF(2), 50-100 over GF(4) and 100-200 over GF(16).  Below 1024
    coefficients the fold won on every product of the ``ladder`` cells, up
    to 2.5 times against the tree, and an FFT would not repay loading
    ``numpy.fft`` (about 1.4 ms and 0.8 MB, once per process).  So short
    products, such as most ``Poly.__mul__`` calls, never load it."""
    log, exp = log_exp(field)
    rows = []
    for p in polys:
        if not isinstance(p, Poly) or p.field != field:
            raise ValueError("field mismatch")
        rows.append(p.coeffs)
    if not rows:
        return Poly.one(field)
    # lens[r] is the length of row r's polynomial: a product of nonzero
    # polynomials has length la + lb - 1, so no level searches for zeros
    lens = [len(c) for c in rows]
    if 0 in lens:
        return Poly.zero(field)
    dtype = dtype_for(field)
    if sum(lens) - len(lens) + 1 < _TREE_MIN_LENGTH:
        acc = rows[0]
        for b in rows[1:]:
            if len(b) > len(acc):  # B, the scaled operand, is the longer one
                acc, b = b, acc
            log_acc = log[acc]
            out = np.zeros(len(acc) + len(b) - 1, dtype=dtype)
            for i, c in enumerate(b.tolist()):
                if c:
                    _add_scaled(out, i, acc, log_acc, exp, int(log[c]))
            acc = out
        return Poly._of(field, acc)
    m = np.zeros((len(rows), max(lens)), dtype=dtype)
    m[np.arange(m.shape[1]) < np.array(lens)[:, None]] = np.concatenate(rows)
    while len(m) > 1:
        pairs = len(m) // 2
        la, lb = lens[0 : 2 * pairs : 2], lens[1 : 2 * pairs : 2]
        a = m[0 : 2 * pairs : 2, : max(la)]
        b = m[1 : 2 * pairs : 2, : max(lb)]
        if min(a.shape[1], b.shape[1]) < _FFT_MIN_LENGTH * field.s:
            out = _columns(a, b, log, exp)
        else:
            out = _fft_product(field, a, b)
        lens = [x + y - 1 for x, y in zip(la, lb)] + lens[2 * pairs :]
        if len(m) % 2:  # the odd last row waits for the next level
            grown = np.zeros((pairs + 1, max(out.shape[1], lens[-1])), dtype=dtype)
            grown[:pairs, : out.shape[1]] = out
            grown[pairs, : lens[-1]] = m[-1, : lens[-1]]
            out = grown
        m = out
    # every factor is nonzero, so is the product: its leading coefficient too
    return Poly._of(field, m[0, : lens[0]])


def _columns(a: np.ndarray, b: np.ndarray, log: np.ndarray, exp: np.ndarray) -> np.ndarray:
    """Row i of a times row i of b by the table kernel: one step per column
    of the shorter operand for all pairs at once, ``exp[log B + log c]``."""
    if a.shape[1] > b.shape[1]:
        a, b = b, a
    log_a, log_b = log[a][:, :, None], log[b]
    out = np.zeros((len(a), a.shape[1] + b.shape[1] - 1), dtype=b.dtype)
    for i in range(a.shape[1]):
        out[:, i : i + b.shape[1]] ^= exp[log_b + log_a[:, i]]
    return out


def _fft_product(field: Field, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row i of a times row i of b by Kronecker substitution over bit planes.

    A coefficient is sum_i a_i y^i, y the root of the field's modulus, so a
    product of polynomials is sum_e y^e sum_{i+j=e} A_i * B_j, where A_i is
    the 0/1 polynomial of bit i of a's coefficients and * is convolution.
    One real FFT of all planes of all rows per operand, the sums for each e
    <= 2s - 2 in the frequency domain, and one inverse FFT give the
    convolutions as floats; rounded, their parities are the GF(2)
    coefficients of y^e, and y^e folds back into the field as
    ``field.pow(2, e)``.  A transform longer than ``_FFT_MAX_LENGTH``, or a
    value 1/4 or more from an integer, raises RuntimeError."""
    width = a.shape[1] + b.shape[1] - 1
    size = 1 << (width - 1).bit_length()
    if size > _FFT_MAX_LENGTH:
        raise RuntimeError(f"product of length {width} exceeds the FFT limit {_FFT_MAX_LENGTH}")
    s = field.s
    conv = np.fft.irfft(_plane_spectrum(a, b, s, size), size)
    rounded = np.rint(conv)
    conv -= rounded
    if np.abs(conv, out=conv).max() >= 0.25:
        raise RuntimeError("FFT product lost precision: a convolution is not near an integer")
    bits = rounded[..., :width].astype(np.int64).astype(a.dtype)
    bits &= 1  # the parities, by integer casts
    # y^e is bit e of a field value below s, field.pow(2, e) from s on
    y_pow = [1 << e for e in range(s)] + [field.pow(2, e) for e in range(s, 2 * s - 1)]
    bits *= np.array(y_pow, dtype=a.dtype)[:, None, None]
    return np.bitwise_xor.reduce(bits, axis=0)


def _plane_spectrum(a: np.ndarray, b: np.ndarray, s: int, size: int) -> np.ndarray:
    """sum_{i+j=e} FA_i FB_j for e = 0 .. 2s - 2, FA_i the length-size real
    FFT of bit plane i of a's rows.  Only the result outlives the call, and
    the sums go in place: at these sizes fresh pages cost more than the
    arithmetic."""
    planes = np.arange(s, dtype=a.dtype)[:, None, None]
    fa = np.fft.rfft((a >> planes) & 1, size)
    fb = np.fft.rfft((b >> planes) & 1, size)
    spec = np.zeros((2 * s - 1,) + fb.shape[1:], dtype=fb.dtype)
    term = np.empty_like(fb)
    for i in range(s):
        spec[i : i + s] += np.multiply(fa[i], fb, out=term)
    return spec


def x_pow_n_minus_1(field: Field, n: int) -> Poly:
    """x^n - 1, which in characteristic two is x^n + 1."""
    if n < 1:
        raise ValueError("n must be positive")
    coeffs = np.zeros(n + 1, dtype=dtype_for(field))
    coeffs[[0, n]] = 1
    return Poly._of(field, coeffs)


def _monic_reversal(h: Poly) -> Poly:
    """x^k h(1/x) / h(0) for h = (x^n - 1) / g of degree k: the dual generator,
    with leading coefficient h(0) / h(0) = 1 (x does not divide x^n - 1)."""
    f = h.field
    log, exp = log_exp(f)
    return Poly._of(f, exp[log[h.coeffs[::-1]] + log[f.inv(h.coeffs[0])]])


def conjugate_poly(p: Poly, q: int) -> Poly:
    """Raise every coefficient to the q-th power (q a power of two)."""
    f = p.field
    if q < 1 or q & (q - 1) or q > f.order:
        raise ValueError("q must be a power of two not exceeding the field order")
    log, exp = log_exp(f)
    # c^q = exp[q log c mod (|F| - 1)]; log[0] is a sentinel, not a logarithm
    out = exp[log[p.coeffs].astype(np.int64) * q % (f.order - 1)]
    out[p.coeffs == 0] = 0
    return Poly._of(f, out)
