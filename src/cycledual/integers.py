"""Factoring 2^e - 1: the divisors that ``table`` sweeps as mu, and the
primes by which ``Field.primitive_element`` tests the order of an element.

Trial division by the primes up to 97 comes first.  What is left is split
by Pollard-Brent rho (Brent 1980) until every part is proven prime by
Miller-Rabin to the first 13 prime bases, which is exact below about
3.3 * 10^24 (Sorenson and Webster 2015).  Rho takes at most
``MAX_RHO_STEPS`` steps per number, so a number that does not factor within
them, such as a prime past that bound, raises ValueError in bounded time.
"""

from __future__ import annotations

import itertools
import math

__all__ = ["divisors"]

# the most Pollard rho steps spent factoring one number; all of them, on the
# prime 2^127 - 1, took 0.5 s on a 2-vCPU VM
MAX_RHO_STEPS = 1 << 20

_SMALL_PRIMES = tuple(p for p in range(2, 98) if all(p % d for d in range(2, p)))
_MILLER_RABIN_BOUND = 3_317_044_064_679_887_385_961_981
_RHO_BATCH = 128  # rho takes one gcd per this many products of |x - y|


def _is_prime(n: int) -> bool:
    """Whether n, odd and above 41, is proven prime by deterministic
    Miller-Rabin; n at or above _MILLER_RABIN_BOUND is never called prime."""
    if n >= _MILLER_RABIN_BOUND:
        return False
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in _SMALL_PRIMES[:13]:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho(n: int, steps: int) -> tuple[int, int]:
    """A proper factor of the odd composite n by Pollard-Brent rho (Brent
    1980), and how many of ``steps`` are left; a step is one iteration of
    y -> y^2 + c.  ValueError rather than start a round that would use more
    steps than are left."""
    for c in itertools.count(1):
        y, r, g = 2, 1, 1
        while g == 1:
            if 2 * r > steps:
                raise ValueError(f"no factor of {n} within {MAX_RHO_STEPS} Pollard rho steps")
            steps -= 2 * r
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            for k in range(0, r, _RHO_BATCH):
                ys, product = y, 1
                for _ in range(min(_RHO_BATCH, r - k)):
                    y = (y * y + c) % n
                    product = product * abs(x - y) % n
                g = math.gcd(product, n)
                if g != 1:
                    break
            r *= 2
        if g == n:  # the batch passed a factor: redo it one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g, steps


def _prime_factors(n: int) -> dict[int, int]:
    """The prime factorisation of n >= 1, {p: exponent}: trial division by
    the primes up to 97, then Miller-Rabin and Pollard-Brent rho on what is
    left, with at most MAX_RHO_STEPS steps of rho in all."""
    factors: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    pending, steps = [n] if n > 1 else [], MAX_RHO_STEPS
    while pending:
        m = pending.pop()
        if _is_prime(m):
            factors[m] = factors.get(m, 0) + 1
        else:
            d, steps = _rho(m, steps)
            pending += [d, m // d]
    return factors


def divisors(n: int) -> list[int]:
    """The divisors of n >= 1 in increasing order; ValueError when n does not
    factor within MAX_RHO_STEPS."""
    found = [1]
    for p, e in _prime_factors(n).items():
        found = [d * p**i for d in found for i in range(e + 1)]
    return sorted(found)
