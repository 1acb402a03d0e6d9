"""Cyclotomic cosets modulo n, defining-set algebra, the consecutive-run
BCH bound, the gcd(q^a±1, q^b-1) closed forms, and minimal polynomials of
cosets.

A defining set is a subset of Z_n tagged with the coset base q (the alphabet
order; q^2-cyclotomic work simply uses that square as the base), held as one
read-only bool mask of length n, so that the set operations are array
expressions with no Python pass over residues.  Sets still serialize as
comma-separated decimal residues in ascending order.

:func:`minimal_polynomial` expands the minimal polynomials of every coset of
Z_n in one numpy pass into the coset table, a :class:`CosetTable`, a named
tuple of three read-only arrays (the residues coset by coset, the coset
sizes and the rows' coefficients end to end) that the root context caches
once per (field, n).
It reads the roots beta^j from the context's powers, one coset per column of
an (L, N) matrix padded with the root 0 (L the largest coset size), expands
the products as one (L + 1, N) coefficient matrix in L row steps, one
:func:`cycledual.gf.times` call each, keeps each column's |C| + 1 top
coefficients, and pulls them back to the base field by a binary search among
the embedding's sorted images, which it holds as arrays built once.  No step
loops over the cosets in Python.

:func:`is_coset_table` proves such a table without multiplying it back to
x^n - 1: its cosets must be the q-cosets, and each row monic over GF(q), of
the coset's size and zero at one root, which one Horner pass over all rows
checks at once.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, NamedTuple

import numpy as np

from .gf import Field, dtype_for, times

if TYPE_CHECKING:
    from .cyclic import RootContext

__all__ = [
    "EUCLIDEAN",
    "HERMITIAN",
    "KINDS",
    "DefiningSet",
    "set_map",
    "complement",
    "bch_defining_set",
    "bch_bound",
    "is_dual_containing_set",
    "CosetTable",
    "minimal_polynomial",
    "is_coset_table",
]

EUCLIDEAN = "euclidean"
HERMITIAN = "hermitian"
KINDS = (EUCLIDEAN, HERMITIAN)


def _check_kind(kind: str) -> None:
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")


class DefiningSet:
    """A subset of Z_n with its coset base q recorded, held as a read-only
    bool mask of length n: residue i is a member iff mask[i]."""

    __slots__ = ("n", "q", "mask")

    def __init__(self, n: int, q: int, members: Iterable[int]):
        if n < 1:
            raise ValueError("modulus n must be positive")
        if q < 2:
            raise ValueError("coset base q must be at least 2")
        try:
            residues = np.fromiter(members, dtype=np.int64)
            if ((residues < 0) | (residues >= n)).any():
                raise OverflowError
        except OverflowError:
            raise ValueError("residues must lie in 0..n-1") from None
        mask = np.zeros(n, dtype=bool)
        mask[residues] = True
        mask.flags.writeable = False
        self.n, self.q, self.mask = n, q, mask

    @classmethod
    def _of(cls, n: int, q: int, mask: np.ndarray) -> "DefiningSet":
        """The set with membership mask mask, which it takes over read-only."""
        T = cls.__new__(cls)
        mask.flags.writeable = False
        T.n, T.q, T.mask = n, q, mask
        return T

    @property
    def sorted_members(self) -> tuple[int, ...]:
        return tuple(np.flatnonzero(self.mask).tolist())

    def is_coset_closed(self) -> bool:
        return bool(self.mask[np.flatnonzero(self.mask) * (self.q % self.n) % self.n].all())

    def __len__(self) -> int:
        return int(np.count_nonzero(self.mask))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, DefiningSet)
            and (self.n, self.q) == (other.n, other.q)
            and np.array_equal(self.mask, other.mask)
        )

    def __hash__(self) -> int:
        return hash((self.n, self.q, self.mask.tobytes()))

    def __repr__(self) -> str:
        return f"DefiningSet({self.n}, {self.q}, [{self.to_string()}])"

    def to_string(self) -> str:
        return ",".join(str(i) for i in self.sorted_members)

    @classmethod
    def from_string(cls, n: int, q: int, text: str) -> "DefiningSet":
        if text == "":
            return cls(n, q, ())
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
        return cls(n, q, vals)


def set_map(T: DefiningSet, c: int) -> DefiningSet:
    """{c*i mod n : i in T}; c = -1 gives T^-1 and c = -q gives T^-q."""
    mask = np.zeros(T.n, dtype=bool)
    mask[np.flatnonzero(T.mask) * (c % T.n) % T.n] = True
    return DefiningSet._of(T.n, T.q, mask)


def complement(T: DefiningSet) -> DefiningSet:
    return DefiningSet._of(T.n, T.q, ~T.mask)


def bch_defining_set(n: int, q: int, b: int) -> DefiningSet:
    """Union of the cosets of 1..b (so b = delta - 1); empty for b = 0.
    The residues 1..b walk i q^t mod n together, marking their cosets, until
    all are back at their start, after ord_n(q) steps."""
    if b < 0:
        raise ValueError("coset count b must be nonnegative")
    mask = DefiningSet(n, q, np.arange(1, min(b, n) + 1) % n).mask.copy()
    start = np.flatnonzero(mask)
    step = q % n
    walk = start * step % n
    while (walk != start).any():
        mask[walk] = True
        walk = walk * step % n
    return DefiningSet._of(n, q, mask)


def bch_bound(T: DefiningSet) -> int:
    """1 + the longest cyclically-consecutive run of residues inside T: the
    largest gap between the zeros of T's mask laid twice end to end, or
    n + 1 for the full set."""
    zeros = np.flatnonzero(~np.concatenate((T.mask, T.mask)))
    return int(np.diff(zeros).max()) if zeros.size else T.n + 1


def is_dual_containing_set(T: DefiningSet, kind: str, q: int | None = None) -> bool:
    """Dual-containment predicate: T disjoint from T^-1 (Euclidean) or from
    T^-q (Hermitian, where T's base must be q^2)."""
    _check_kind(kind)
    if not T.is_coset_closed():
        raise ValueError("defining set not coset-closed")
    if kind == HERMITIAN:
        if q is None:
            raise ValueError("hermitian containment test needs the conjugation base q")
        if q * q != T.q:
            raise ValueError(f"hermitian defining sets use base q^2; got q={q}, base={T.q}")
    return not (T.mask & set_map(T, -1 if kind == EUCLIDEAN else -q).mask).any()


class CosetTable(NamedTuple):
    """The q-cyclotomic cosets of Z_n with their minimal polynomials over
    GF(q), as three read-only arrays.

    ``members`` holds the n residues coset by coset, each coset walked
    c, c q, c q^2, ... from its least member c; ``sizes`` holds |C| for each
    coset, the cosets in ascending order of their least members; ``coeffs``
    holds the rows end to end, row C being the |C| + 1 coefficients of C's
    minimal polynomial, low degree first and monic, in the base field's
    dtype."""

    members: np.ndarray
    sizes: np.ndarray
    coeffs: np.ndarray

    @property
    def least(self) -> np.ndarray:
        """The least member of each coset, the first of its walk."""
        return self.members[np.cumsum(self.sizes) - self.sizes]


def minimal_polynomial(ctx: RootContext) -> CosetTable:
    """The coset table: the minimal polynomial prod_{j in C} (x - beta^j)
    of every q-coset C of Z_n, with its coefficients pulled back to the base
    field GF(q).  ctx is the :func:`cycledual.cyclic.root_context` of GF(q)
    and n, whose table of beta's powers supplies the roots.

    Each residue r walks r q^t mod n for 0 <= t <= m, m = ctx.m the order of
    q mod n, one column each; a column whose smallest entry is r is its
    coset's, and returns to r first at step |C|, at the latest at step m."""
    n = ctx.n
    q = ctx.emb.base.order
    # the residues are below n < 2^32, so the products fit in uint64
    steps = np.array([pow(q, t, n) for t in range(ctx.m + 1)], dtype=np.uint64)[:, None]
    walk = steps * np.arange(n, dtype=np.uint64)
    walk %= n  # in place: the walk over all residues is the largest array here
    walk = walk[:, walk.min(axis=0) == walk[0]]
    sizes = (walk[1:] == walk[0]).argmax(axis=0) + 1
    width = int(sizes.max())
    # padding with the root 0 makes column i x^(width - |C_i|) times its
    # minimal polynomial
    inside = np.arange(width)[:, None] < sizes
    roots = ctx.powers[walk[:width]]
    roots[~inside] = 0
    # row i's last |C_i| + 1 coefficients, past the padding's zeros
    coeffs = _expand(roots, ctx.emb.ext).T[np.arange(width + 1) >= width - sizes[:, None]]
    images = ctx.emb.sorted_images
    at = np.searchsorted(images, coeffs)
    if (images.take(at, mode="clip") != coeffs).any():
        raise RuntimeError(
            "internal: a minimal polynomial has a coefficient outside the base field"
        )
    table = CosetTable(walk[:width].T[inside.T].astype(np.intp), sizes, ctx.emb.preimages[at])
    for array in table:
        array.setflags(write=False)
    return table


def is_coset_table(ctx: RootContext, table: CosetTable) -> bool:
    """Whether table is the coset table of ctx: each coset C of the table a
    q-coset of Z_n and its row C's minimal polynomial
    prod_{j in C} (x - beta^j) over the base field GF(q), with the cosets
    partitioning Z_n.  Then the product of the rows is
    prod_{j in Z_n} (x - beta^j) = x^n - 1.

    Given rows of sum(|C| + 1) coefficients, it checks that
      1. the cosets partition Z_n;
      2. each coset C is closed under r -> r q mod n, and |C| is the orbit
         length of its first member c (its least, in minimal_polynomial's
         layout, though any member would do);
      3. each row is over GF(q) and monic, so of degree |C|;
      4. each row vanishes at beta^c.
    These suffice (MacWilliams & Sloane, Ch. 4 §4).  ctx.powers proves that
    beta has order exactly n, so beta^(c q^t) = beta^c iff c q^t = c mod n,
    and the minimal polynomial M of beta^c over GF(q) is monic of degree the
    orbit length of c.  By 2, the orbit of c lies in C and is as large, so it
    is C, and M = prod_{j in C} (x - beta^j).  By 3 and 4, M divides the
    row, which is monic of the same degree, so the row is M.  By 1, the
    rows' roots are every beta^j once.

    The rows are evaluated at their beta^c by one Horner pass over all rows
    at once (:func:`_horner`), padded with zeros above each row's degree."""
    n, base = ctx.n, ctx.emb.base
    q = base.order
    members, sizes, coeffs = table
    # the layout: n residues in nonempty cosets and |C| + 1 coefficients each
    if not (len(members) == n and (sizes > 0).all() and sizes.sum() == n):
        return False
    if len(coeffs) != n + len(sizes):
        return False
    # 1: n distinct residues in 0..n-1
    if not (members.min() >= 0 and members.max() < n):
        return False
    owner = np.full(n, -1, dtype=np.intp)
    owner[members] = np.repeat(np.arange(len(sizes)), sizes)
    if (owner < 0).any():
        return False
    # 2: closure through the coset of each residue; the first members c walk
    # c q^t mod n for 1 <= t <= ctx.m and are back at c by step ctx.m
    if not (owner[members * (q % n) % n] == owner[members]).all():
        return False
    least = table.least
    steps = np.array([pow(q, t, n) for t in range(1, ctx.m + 1)], dtype=np.uint64)[:, None]
    start = least.astype(np.uint64)
    if not ((steps * start % np.uint64(n) == start).argmax(axis=0) + 1 == sizes).all():
        return False
    # 3: over GF(q) and monic
    if not (coeffs.dtype == dtype_for(base) and (coeffs < q).all()):
        return False
    if not (coeffs[np.cumsum(sizes + 1) - 1] == 1).all():
        return False
    # 4: Horner at beta^c, every row at once
    width = int(sizes.max())
    padded = np.zeros((len(sizes), width + 1), dtype=coeffs.dtype)
    padded[np.arange(width + 1) <= sizes[:, None]] = coeffs
    return not _horner(ctx, padded, ctx.powers[least]).any()


def _horner(ctx: RootContext, coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_k coeffs[..., k] x^k over the extension, for base-field
    coefficients (the last axis the degree, low first, with numpy
    broadcasting against the points x), by Horner's rule: one
    :func:`cycledual.gf.times` call per coefficient.  The coefficients are
    embedded through one array of the base field's images."""
    emb = ctx.emb
    images = np.empty_like(emb.sorted_images)
    images[emb.preimages] = emb.sorted_images
    embedded = images[coeffs]
    acc = np.zeros_like(x)
    for k in range(coeffs.shape[-1] - 1, -1, -1):
        acc = times(emb.ext, acc, x) ^ embedded[..., k]
    return acc


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
