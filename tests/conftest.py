"""Shared helpers for the test suite."""

from __future__ import annotations

import reference
from cycledual import CyclicCode, DefiningSet, field_create, x_pow_n_minus_1


def divisor_defining_sets(field, n):
    """Defining sets of every divisor of x^n - 1 over the field (all unions
    of cyclotomic cosets), in a deterministic order."""
    orbits = [frozenset(orb) for _, orb in sorted(reference.all_cosets(n, field.order).items())]
    out = []
    for bits in range(1 << len(orbits)):
        members: frozenset[int] = frozenset()
        for i, orb in enumerate(orbits):
            if bits >> i & 1:
                members |= orb
        out.append(DefiningSet(n, field.order, members))
    return out


def divisor_codes(field, n):
    return [CyclicCode.from_defining_set(field, n, T) for T in divisor_defining_sets(field, n)]


def van_lint_verdict(g1, g_dual, n, outer_generator):
    """The van Lint verdict for any outer generator G, composed from its
    pieces by the reference's divisions: the dimensions agree (for the
    derived G = g1 g_dual they do by construction), G divides x^(2n) - 1, and
    G divides the interleaved seed rows [g1|g1] and [0|g_dual].  For the
    derived G, pipeline_checks decides the same facts by product
    identities."""
    if (n - g1.degree) + (n - g_dual.degree) != 2 * n - outer_generator.degree:
        return False
    divides = reference.poly_divrem(x_pow_n_minus_1(g1.field, 2 * n), outer_generator)[1].is_zero
    return divides and reference.seeds_in_ideal(g1, g_dual, n, outer_generator)


GF2 = field_create(1)
GF4 = field_create(2)
