"""Arithmetic in GF(2^s): field construction, extension fields, subfield
embeddings, and roots of unity.

A field element is an ``int`` whose bit ``i`` is the coefficient of ``x^i``
in the polynomial basis, so GF(4) is {0, 1, 2, 3} with 2 = x and 3 = x + 1.
Addition is xor; multiplication reduces modulo an irreducible binary
polynomial stored the same way (x^2 + x + 1 is 0b111 = 7).

:class:`Field` operates on raw ints, and so does every caller.

Canonical choices (so that independent runs agree bit for bit):

* the default modulus of each degree comes from a fixed table: customary
  ones for degrees 1-6 and 8, and the smallest irreducible polynomial (as
  an integer) for every other degree up to 32;
* the primitive element of a field is the smallest element (as an integer)
  of full multiplicative order;
* a subfield embedding sends the base generator to the smallest root of the
  base modulus inside the extension.

The size limits live here, together: code alphabets (``field_create``) go up
to GF(2^16), extension fields hosting roots of unity up to GF(2^32), and the
log/antilog tables up to GF(2^16), which admits every alphabet.

Scalar ``Field.mul`` shifts and adds, one step per bit of its second
operand, in every field; so do ``Field.pow`` and ``Field.inv`` by
square-and-multiply.

This module owns the arithmetic on arrays of elements too, as one
elementwise product, ``times``, and one walk over the powers of an element,
``power_table``, which doubles the number of known powers with each
``times`` call.  Up to GF(2^16), ``times`` reads the field's one pair of
log/antilog numpy tables (``log_exp``), built on first use (an array
product, never the constructor or a scalar product) by the same doubling
walk over the powers of the primitive element; beyond, it shifts and adds
over the bits of its second operand.  The vectorised arithmetic of
:mod:`cycledual.poly` reads the tables directly; :mod:`cycledual.cyclo`,
:mod:`cycledual.cyclic` and :mod:`cycledual.distance` multiply through
``times``.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = [
    "Field",
    "Embedding",
    "field_create",
    "extension_with_embedding",
    "nth_root_of_unity",
    "default_modulus",
    "is_irreducible",
]


ALPHABET_MAX_S = 16
EXTENSION_MAX_S = 32
TABLE_MAX_S = 16


def _gf2_degree(p: int) -> int:
    return p.bit_length() - 1


def _gf2_mod(a: int, b: int) -> int:
    """Remainder of binary-coefficient polynomial a modulo b."""
    db = _gf2_degree(b)
    while a and _gf2_degree(a) >= db:
        a ^= b << (_gf2_degree(a) - db)
    return a


def is_irreducible(modulus: int) -> bool:
    """Irreducibility over GF(2) by trial division against every binary
    polynomial of degree up to half the modulus degree."""
    deg = _gf2_degree(modulus)
    if deg < 1:
        return False
    if deg == 1:
        return True
    if not modulus & 1:  # divisible by x
        return False
    for d in range(1, deg // 2 + 1):
        for div in range(1 << d, 1 << (d + 1)):
            if _gf2_mod(modulus, div) == 0:
                return False
    return True


# The default modulus of every degree up to EXTENSION_MAX_S.  Degrees 1-6
# and 8 take customary choices; every other degree takes the smallest
# irreducible polynomial of that degree (as an integer), which the tests
# check against a trial-division search.
_DEFAULT_MODULI = {
    1: 0b11,          # x + 1
    2: 0b111,         # x^2 + x + 1
    3: 0b1011,        # x^3 + x + 1
    4: 0b10011,       # x^4 + x + 1
    5: 0b100101,      # x^5 + x^2 + 1
    6: 0b1000011,     # x^6 + x + 1
    7: 0x83,          # x^7 + x + 1
    8: 0b100011101,   # x^8 + x^4 + x^3 + x^2 + 1
    9: 0x203,         # x^9 + x + 1
    10: 0x409,        # x^10 + x^3 + 1
    11: 0x805,        # x^11 + x^2 + 1
    12: 0x1009,       # x^12 + x^3 + 1
    13: 0x201b,       # x^13 + x^4 + x^3 + x + 1
    14: 0x4021,       # x^14 + x^5 + 1
    15: 0x8003,       # x^15 + x + 1
    16: 0x1002b,      # x^16 + x^5 + x^3 + x + 1
    17: 0x20009,      # x^17 + x^3 + 1
    18: 0x40009,      # x^18 + x^3 + 1
    19: 0x80027,      # x^19 + x^5 + x^2 + x + 1
    20: 0x100009,     # x^20 + x^3 + 1
    21: 0x200005,     # x^21 + x^2 + 1
    22: 0x400003,     # x^22 + x + 1
    23: 0x800021,     # x^23 + x^5 + 1
    24: 0x100001b,    # x^24 + x^4 + x^3 + x + 1
    25: 0x2000009,    # x^25 + x^3 + 1
    26: 0x400001b,    # x^26 + x^4 + x^3 + x + 1
    27: 0x8000027,    # x^27 + x^5 + x^2 + x + 1
    28: 0x10000003,   # x^28 + x + 1
    29: 0x20000005,   # x^29 + x^2 + 1
    30: 0x40000003,   # x^30 + x + 1
    31: 0x80000009,   # x^31 + x^3 + 1
    32: 0x10000008d,  # x^32 + x^7 + x^3 + x^2 + 1
}


def default_modulus(s: int) -> int:
    """The canonical degree-s irreducible modulus, 1 <= s <= EXTENSION_MAX_S."""
    try:
        return _DEFAULT_MODULI[s]
    except KeyError:
        raise ValueError(
            f"no default modulus of degree {s}: s must lie in 1..{EXTENSION_MAX_S}"
        ) from None


def _prime_factors(n: int) -> tuple[int, ...]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return tuple(out)


class Field:
    """The finite field GF(2^s), elements represented as s-bit integers."""

    __slots__ = ("s", "modulus", "order", "_factors", "_primitive")

    def __init__(self, s: int, modulus: int | None = None):
        if not 1 <= s <= EXTENSION_MAX_S:
            raise ValueError(f"field degree s={s} outside supported range 1..{EXTENSION_MAX_S}")
        if modulus is None:
            # irreducible: the tests check every entry of the fixed table
            modulus = default_modulus(s)
        elif _gf2_degree(modulus) != s:
            raise ValueError(
                f"modulus degree mismatch: got degree {_gf2_degree(modulus)}, need {s}"
            )
        elif not is_irreducible(modulus):
            raise ValueError("modulus not irreducible")
        self.s = s
        self.modulus = modulus
        self.order = 1 << s
        self._factors: tuple[int, ...] | None = None
        self._primitive: int | None = None

    # -- raw integer arithmetic -------------------------------------------

    def mul(self, a: int, b: int) -> int:
        return self._mul_loop(a, b)

    def _mul_loop(self, a: int, b: int) -> int:
        """Shift-and-add product, one step per bit of b.  ``pow`` and the
        power walks call it directly, not through ``mul``, so a count of
        ``mul`` calls sees only the products that callers asked for."""
        r = 0
        while b:
            if b & 1:
                r ^= a
            b >>= 1
            a <<= 1
            if a & self.order:
                a ^= self.modulus
        return r

    def pow(self, a: int, e: int) -> int:
        """a^e by square-and-multiply; a negative e inverts a first."""
        if e < 0:
            a = self.inv(a)
            e = -e
        r = 1
        while e:
            if e & 1:
                r = self._mul_loop(r, a)
            a = self._mul_loop(a, a)
            e >>= 1
        return r

    def inv(self, a: int) -> int:
        if a == 0:
            raise ValueError("division by zero")
        return self.pow(a, self.order - 2)

    # -- structure ---------------------------------------------------------

    def group_factors(self) -> tuple[int, ...]:
        """Prime factors of the multiplicative group order 2^s - 1."""
        if self._factors is None:
            self._factors = _prime_factors(self.order - 1)
        return self._factors

    def primitive_element(self) -> int:
        """Smallest element (by integer value) of order 2^s - 1."""
        if self._primitive is None:
            if self.order == 2:
                self._primitive = 1
            else:
                q1 = self.order - 1
                facs = self.group_factors()
                for v in range(2, self.order):
                    if all(self.pow(v, q1 // p) != 1 for p in facs):
                        self._primitive = v
                        break
                else:  # pragma: no cover - every finite field has one
                    raise RuntimeError("no primitive element found")
        return self._primitive

    # -- identity ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Field)
            and self.s == other.s
            and self.modulus == other.modulus
        )

    def __hash__(self) -> int:
        return hash((self.s, self.modulus))

    def __repr__(self) -> str:
        return f"GF(2^{self.s}, 0x{self.modulus:x})"


@lru_cache(maxsize=None)
def _get_field(s: int, modulus: int | None) -> Field:
    return Field(s, modulus)


def field_create(s: int, modulus: int | None = None) -> Field:
    """Create (or fetch the cached) GF(2^s) with the given or default modulus."""
    if not 1 <= s <= ALPHABET_MAX_S:
        raise ValueError(f"s={s} outside supported range 1..{ALPHABET_MAX_S}")
    return _get_field(s, modulus)


# -- arrays of elements (package-internal, so not in __all__) ------------------

_tables: dict[Field, tuple[np.ndarray, np.ndarray]] = {}


def dtype_for(field: Field):
    """The narrowest unsigned numpy dtype holding every element."""
    if field.order <= 1 << 8:
        return np.uint8
    if field.order <= 1 << 16:
        return np.uint16
    return np.uint32


def log_exp(field: Field) -> tuple[np.ndarray, np.ndarray]:
    """The field's (log, exp) tables, built once per field, such that
    ``exp[log[a] + log[b]] == field.mul(a, b)`` for all a, b, zero included.

    Nonzero logs lie in 0..q-2 (q = field order), so their sums index the
    first 2(q-1) entries of ``exp``, which repeat the powers of the
    primitive element twice and need no modulo.  ``log[0]`` is 2(q-1), and
    every sum involving it lands in the zero-filled tail of ``exp``.  Fields
    beyond GF(2^TABLE_MAX_S) raise ValueError before anything is allocated.

    The powers come from :func:`power_table`'s doubling walk, multiplied by
    shift-and-add, since the tables do not exist yet.  No step calls
    ``Field.mul``.
    """
    tabs = _tables.get(field)
    if tabs is None:
        if field.s > TABLE_MAX_S:
            raise ValueError(
                f"{field!r} exceeds the 2^{TABLE_MAX_S} limit of table arithmetic"
            )
        q1 = field.order - 1
        powers = _walk(field, _shift_add, field.primitive_element(), q1)
        log = np.empty(field.order, dtype=np.int32)
        log[0] = 2 * q1
        log[powers] = np.arange(q1, dtype=np.int32)
        exp = np.zeros(4 * q1 + 1, dtype=dtype_for(field))
        exp[:q1] = exp[q1 : 2 * q1] = powers
        tabs = (log, exp)
        _tables[field] = tabs
    return tabs


def times(field: Field, a, b) -> np.ndarray:
    """a * b elementwise, with numpy broadcasting, so either operand may be
    a scalar: ``exp[log a + log b]`` up to GF(2^TABLE_MAX_S), shift-and-add
    over the bits of b beyond."""
    if field.s <= TABLE_MAX_S:
        log, exp = log_exp(field)
        return exp[log[a] + log[b]]
    return _shift_add(field, a, b)


def _shift_add(field: Field, a, b) -> np.ndarray:
    """a * b elementwise in uint64, as the xor of a x^i over the set bits i
    of b, each a x^i reduced once for all of b.  A scalar b is its own
    largest value, so its bits are tested as a Python int."""
    a, b = np.asarray(a, dtype=np.uint64), np.asarray(b, dtype=np.uint64)
    out = np.zeros(np.broadcast(a, b).shape, dtype=np.uint64)
    top = int(b.max(initial=0))
    for i in range(top.bit_length()):
        if i:
            a = a << 1
            a ^= (a >> field.s) * np.uint64(field.modulus)
        if b.ndim:
            out ^= (b >> i & 1) * a
        elif top >> i & 1:
            out ^= a
    return out


def power_table(field: Field, x: int, count: int) -> np.ndarray:
    """x^0 .. x^(count - 1) as a uint64 array, by :func:`times`."""
    return _walk(field, times, x, count)


def _walk(field: Field, product, x: int, count: int) -> np.ndarray:
    """x^0 .. x^(count - 1) by doubling: with the first k powers known, the
    next k are those times x^k, one vector ``product`` per level.  The
    scalar squarings that give x^k shift and add in Python, which beats a
    numpy call on one element."""
    powers = np.empty(count, dtype=np.uint64)
    powers[:1] = 1
    k, step = 1, x  # step is x^k
    while k < count:
        powers[k : 2 * k] = product(field, powers[: min(k, count - k)], step)
        step = field._mul_loop(step, step)
        k *= 2
    return powers


class Embedding:
    """A ring embedding of GF(2^s) into GF(2^(s*m)).

    ``table`` maps each base value to its image, and ``inverse`` maps each
    image back to its base value, both as ints; an element of the extension
    lies in the embedded subfield iff it is a key of ``inverse``.
    """

    __slots__ = ("base", "ext", "table", "inverse")

    def __init__(self, base: Field, ext: Field, table: tuple[int, ...]):
        self.base = base
        self.ext = ext
        self.table = table
        self.inverse = {img: v for v, img in enumerate(table)}

    def __repr__(self) -> str:
        return f"Embedding({self.base!r} -> {self.ext!r})"


@lru_cache(maxsize=None)
def _extension_with_embedding(base: Field, m: int) -> tuple[Field, Embedding]:
    if m == 1:
        return base, Embedding(base, base, tuple(range(base.order)))
    ext = _get_field(base.s * m, None)
    if base.s == 1:
        table: tuple[int, ...] = (0, 1)
    else:
        # The roots of the base modulus all lie in the subfield of size 2^s,
        # whose nonzero elements are the powers of gamma^step; 0 is no root,
        # as the modulus has constant term 1.  Horner evaluates the modulus
        # at all of them at once.
        gamma = ext.primitive_element()
        step = (ext.order - 1) // (base.order - 1)
        candidates = power_table(ext, ext.pow(gamma, step), base.order - 1)
        value = np.zeros_like(candidates)
        for i in range(base.s, -1, -1):
            value = times(ext, value, candidates) ^ (base.modulus >> i & 1)
        alpha_img = int(candidates[value == 0].min())
        # the image of a base value is the sum of alpha's powers over its set
        # bits: those with top bit i are those below 2^i plus alpha^i
        images = np.zeros(base.order, dtype=np.uint64)
        for i, power in enumerate(power_table(ext, alpha_img, base.s)):
            images[1 << i : 2 << i] = images[: 1 << i] ^ power
        table = tuple(images.tolist())
    return ext, Embedding(base, ext, table)


def extension_with_embedding(base: Field, m: int) -> tuple[Field, Embedding]:
    """GF(2^(s*m)) together with the canonical embedding of the base field."""
    if m < 1:
        raise ValueError("extension degree must be positive")
    if base.s * m > EXTENSION_MAX_S:
        raise ValueError(
            f"extension field GF(2^{base.s * m}) exceeds the 2^{EXTENSION_MAX_S} limit"
        )
    return _extension_with_embedding(base, m)


def nth_root_of_unity(ext: Field, n: int) -> int:
    """The canonical primitive n-th root of unity gamma^((2^s-1)/n)."""
    if n < 1:
        raise ValueError("n must be positive")
    if (ext.order - 1) % n != 0:
        raise ValueError(f"no primitive n-th root: {n} does not divide {ext.order - 1}")
    gamma = ext.primitive_element()
    return ext.pow(gamma, (ext.order - 1) // n)
