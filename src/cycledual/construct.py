"""The [u|u+v] construction of Euclidean and Hermitian self-dual codes from
dual-containing cyclic codes, the interleaving equivalence with repeated-root
cyclic codes, the BCH-pipeline families, and the checks recorded in their
certificates.

Given a dual-containing cyclic code C of odd length n, the code
{(u | u+v) : u in C, v in the dual of C} has length 2n, dimension n, is
self-dual for the matching inner product, and its minimum distance is at
least min(d(dual), 2 d(C)).  After interleaving the two halves it becomes
the repeated-root cyclic code generated by g1^2 g2, where g1 generates C and
g1 g2 generates the dual.  Every one of those claims is re-verified here at
construction time rather than assumed.

The four recorded checks are identities on g1, the dual generator g_dual,
their check polynomials h1 and h_dual, and G = g1 g_dual = g1^2 g2, and
pipeline_checks is the one place that decides them.  Every division is by
the short g1, none by G:

- dual_containing: the defining-set predicate, cross-checked against g1
  dividing the dual generator;
- cyclic_invariance: G h1 h_dual = x^(2n) - 1;
- self_dual: G equals its own dual generator, the monic reversal of
  h1 h_dual (for Hermitian codes, the q-conjugate of it);
- van_lint_equivalence: G divides x^(2n) - 1 and the two interleaved seed
  rows (see _seeds_in_ideal), and the dimensions agree.

The dense matrix versions of these checks, and the seed rows divided by any
G, live in the test suite's reference module, which the tests compare
against at small lengths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .cyclic import CyclicCode, _conjugation_power, _dual_from_check, root_context
from .cyclo import (
    EUCLIDEAN,
    KINDS,
    DefiningSet,
    bch_bound,
    bch_defining_set,
)
from .gf import Field, field_create
from .poly import Poly, x_pow_n_minus_1

__all__ = [
    "MAX_INNER_LENGTH",
    "MAX_RHO_STEPS",
    "VerificationError",
    "FamilyParams",
    "family_parameters",
    "PaperFloor",
    "paper_floor",
    "DistanceSummary",
    "SelfDualCertificate",
    "build_family",
]


# the largest inner length n that build_family and factor accept (Hermitian s=2 m=3 has 4095)
MAX_INNER_LENGTH = 8191
# the most Pollard rho steps that table spends factoring one 2^e - 1; all of
# them, on the prime 2^127 - 1, took 0.5 s on a 2-vCPU VM
MAX_RHO_STEPS = 1 << 20


def check_inner_length(n: int) -> None:
    """Raise ValueError when the inner length n exceeds MAX_INNER_LENGTH."""
    if n > MAX_INNER_LENGTH:
        raise ValueError(f"inner length n = {n} exceeds MAX_INNER_LENGTH = {MAX_INNER_LENGTH}")


class VerificationError(Exception):
    """A recorded mathematical check failed (or an internal self-check fired)."""


def _seeds_in_ideal(g1: Poly, g_dual: Poly, h_dual: Poly) -> bool:
    """G = g1 g_dual divides the interleaved seed rows [g1|g1] and [0|g_dual].
    As n is odd, interleaving sends (u|u) to u (x^n - 1) and (0|v) to
    v + E (x^n - 1), E the even-degree part of v.  With g_dual h_dual = x^n - 1,
    checked by CyclicCode.dual, the first seed is G h_dual, and the second is
    g_dual (1 + h_dual E), which G divides iff g1 divides 1 + h_dual (E mod g1).
    Every other [u|u+v] basis row interleaves to a seed times x^(t(n+1))
    mod x^(2n) - 1, so when G divides x^(2n) - 1 and the dimensions agree,
    membership forces equality."""
    even = list(g_dual.coeffs)
    even[1::2] = [0] * (len(even) // 2)
    even_mod_g1 = Poly(g1.field, even) % g1
    return ((Poly.one(g1.field) + h_dual * even_mod_g1) % g1).is_zero


# -- pipeline families ---------------------------------------------------------


@dataclass(frozen=True)
class FamilyParams:
    kind: str
    s: int
    m: int
    mu: int
    alphabet: Field
    n_inner: int
    delta: Fraction
    b_default: int


def family_parameters(kind: str, s: int, m: int, mu: int) -> FamilyParams:
    """Resolve one (kind, s, m, mu) cell: alphabet, inner length n, design
    distance delta, and the default coset count b = ceil(delta) - 1."""
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
    if s < 1:
        raise ValueError("s must be positive")
    if m < 1 or m % 2 == 0:
        raise ValueError("m must be odd")
    if mu < 1:
        raise ValueError("mu must be positive")
    q = 1 << s
    exponent, what = (s * m, "s*m") if kind == EUCLIDEAN else (2 * s * m, "2*s*m")
    if exponent > mu.bit_length() + 64:  # n >= 2^63, and 2^e - 1 may not fit in memory
        raise ValueError(f"2^{exponent} - 1 is too large: the inner length would exceed 2^63")
    group = (1 << exponent) - 1
    if group % mu:
        raise ValueError(f"mu={mu} does not divide 2^({what})-1 = {group}")
    if kind == EUCLIDEAN:
        alphabet_s = s
        delta = Fraction(q ** ((m + 1) // 2) - q, mu)
    else:
        alphabet_s = 2 * s
        delta = Fraction(q**m - 1, mu)
    alphabet = field_create(alphabet_s)
    return FamilyParams(
        kind, s, m, mu, alphabet, group // mu, delta, math.ceil(delta) - 1
    )


@dataclass(frozen=True)
class PaperFloor:
    value: float
    clamped: int
    exact: str


def paper_floor(kind: str, s: int, m: int, mu: int) -> PaperFloor:
    """The closed-form distance floor of the family with length
    n = 2(2^(s*m)-1)/mu over GF(2^s) (Euclidean: sqrt(2^(s-1) n / mu) - 2^s/mu)
    or n = 2(2^(2*s*m)-1)/mu over GF(2^(2s)) (Hermitian: sqrt(n / (2 mu)))."""
    params = family_parameters(kind, s, m, mu)
    n = 2 * params.n_inner
    if kind == EUCLIDEAN:
        radicand = Fraction(2 ** (s - 1) * n, mu)
        shift = Fraction(2**s, mu)
    else:
        radicand = Fraction(n, 2 * mu)
        shift = Fraction(0)
    value = math.sqrt(radicand.numerator / radicand.denominator) - float(shift)
    num_r = math.isqrt(radicand.numerator)
    den_r = math.isqrt(radicand.denominator)
    if num_r * num_r == radicand.numerator and den_r * den_r == radicand.denominator:
        clamped = max(1, math.ceil(Fraction(num_r, den_r) - shift))
    else:
        clamped = max(1, math.ceil(value))
    exact = f"sqrt({radicand})" + (f" - {shift}" if shift else "")
    return PaperFloor(value, clamped, exact)


@dataclass(frozen=True)
class DistanceSummary:
    method: str
    value: int
    exact: bool


@dataclass(frozen=True)
class SelfDualCertificate:
    """Full record of one pipeline run, re-checkable from scratch."""

    kind: str
    s: int
    m: int
    mu: int
    b: int
    field: Field
    extension_modulus: int
    beta_exponent: int
    n_inner: int
    k_inner: int
    defining_set: DefiningSet
    inner_generator: Poly
    g2: Poly
    n_outer: int
    k_outer: int
    outer_generator: Poly
    bch_inner: int
    bch_dual: int
    floor_min: int
    paper_floor_value: float
    paper_floor_exact: str
    paper_floor_int: int
    dual_containing: bool
    self_dual: bool
    van_lint_equivalence: bool
    cyclic_invariance: bool
    distance: DistanceSummary | None = None

    @property
    def checks(self) -> dict[str, bool]:
        return {
            "dual_containing": self.dual_containing,
            "self_dual": self.self_dual,
            "van_lint_equivalence": self.van_lint_equivalence,
            "cyclic_invariance": self.cyclic_invariance,
        }

    @property
    def all_checks_pass(self) -> bool:
        return all(self.checks.values())


def pipeline_checks(
    inner: CyclicCode, kind: str
) -> tuple[CyclicCode | None, Poly | None, Poly | None, dict[str, bool]]:
    """Run the four recorded checks for an inner code and return its dual,
    g2, the outer generator G = g1 g_dual = g1^2 g2 derived from the inner
    code, and the verdicts.  The dual generator is divided by g1 once: the
    remainder must agree with the defining-set predicate, and the quotient is
    g2.  G's check polynomial is h_out = h1 h_dual, with no division: the
    compare G h_out = x^(2n) - 1 decides cyclic_invariance and the
    divisibility part of van_lint_equivalence, and self_dual reads the
    reversal of h_out.  Never raises on a mathematical failure."""
    checks = {
        "dual_containing": False,
        "self_dual": False,
        "van_lint_equivalence": False,
        "cyclic_invariance": False,
    }
    dual_code = inner.dual(kind)
    g2, rem = dual_code.g.divrem(inner.g)
    checks["dual_containing"] = inner.is_dual_containing(kind)
    if checks["dual_containing"] != rem.is_zero:
        raise RuntimeError("internal: containment predicate and generator division disagree")
    if not checks["dual_containing"]:
        return None, None, None, checks
    g_out = inner.g * dual_code.g
    h_out = inner.h * dual_code.h
    # an ideal generated by a divisor of x^(2n) - 1 is shift-invariant, and
    # deg G = deg g1 + deg g_dual matches the van Lint dimensions by construction
    divides = g_out * h_out == x_pow_n_minus_1(inner.field, 2 * inner.n)
    q = _conjugation_power(inner.field, kind)
    checks["self_dual"] = divides and _dual_from_check(h_out, q) == g_out
    checks["cyclic_invariance"] = divides
    checks["van_lint_equivalence"] = divides and _seeds_in_ideal(
        inner.g, dual_code.g, dual_code.h
    )
    return dual_code, g2, g_out, checks


def build_family(
    kind: str, s: int, m: int, mu: int, b_override: int | None = None
) -> SelfDualCertificate:
    """Run one full pipeline cell and return its certificate.

    Builds the inner BCH code with defining set C_1 .. C_b (b = ceil(delta)-1
    unless overridden), verifies dual-containment, runs the [u|u+v]
    construction and all recorded checks, and fills in the bounds.  Cells
    with an inner length above MAX_INNER_LENGTH raise ValueError first.
    """
    params = family_parameters(kind, s, m, mu)
    check_inner_length(params.n_inner)
    b = params.b_default if b_override is None else b_override
    if b_override is None and b < 1:
        raise ValueError(
            f"cell gives b = {b} < 1 cosets (delta = {params.delta}); nothing to build"
        )
    if b < 0:
        raise ValueError("b must be nonnegative")
    field = params.alphabet
    n = params.n_inner
    T = bch_defining_set(n, field.order, b)
    inner = CyclicCode.from_defining_set(field, n, T)
    dual_code, g2, g_out, checks = pipeline_checks(inner, kind)
    if not checks["dual_containing"]:
        raise VerificationError(
            "theorem precondition violated: constructed defining set is not dual-containing"
        )
    bch_inner = bch_bound(T)
    bch_dual = bch_bound(dual_code.T)
    floor = paper_floor(kind, s, m, mu)
    ctx = root_context(field, n)
    return SelfDualCertificate(
        kind=kind,
        s=s,
        m=m,
        mu=mu,
        b=b,
        field=field,
        extension_modulus=ctx.ext.modulus,
        beta_exponent=ctx.beta_exponent,
        n_inner=n,
        k_inner=inner.k,
        defining_set=T,
        inner_generator=inner.g,
        g2=g2,
        n_outer=2 * n,
        k_outer=n,
        outer_generator=g_out,
        bch_inner=bch_inner,
        bch_dual=bch_dual,
        floor_min=min(bch_dual, 2 * bch_inner),
        paper_floor_value=floor.value,
        paper_floor_exact=floor.exact,
        paper_floor_int=floor.clamped,
        dual_containing=checks["dual_containing"],
        self_dual=checks["self_dual"],
        van_lint_equivalence=checks["van_lint_equivalence"],
        cyclic_invariance=checks["cyclic_invariance"],
    )
