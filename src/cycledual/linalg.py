"""Dense GF(2^s) arrays for minimum-distance enumeration.

Arrays hold raw element values.  ``shifted_rows`` lays out the generator
matrix of a cyclic code as a read-only view of one padded copy of its
generator, and ``scalar_mul`` scales rows through the field's
log/antilog tables, which :mod:`cycledual.gf` builds once per field and
shares with the polynomial kernel of :mod:`cycledual.poly`.  The recorded
checks use no matrices: they are polynomial identities (see
:mod:`cycledual.construct`).
"""

# kept as a module of its own because the benchmark reaches it: perfbench/tracing.py LAYERS

from __future__ import annotations

import numpy as np

from .gf import Field, dtype_for, log_exp
from .poly import Poly

__all__ = ["scalar_mul", "shifted_rows"]


def as_array(field: Field, mat) -> np.ndarray:
    return np.asarray(mat, dtype=dtype_for(field))


def scalar_mul(field: Field, c: int, arr) -> np.ndarray:
    log, exp = log_exp(field)
    return exp[log[as_array(field, arr)] + log[c]]


def shifted_rows(g: Poly, length: int) -> np.ndarray:
    """The (length - deg g) x length matrix whose rows are x^i g(x), i.e. the
    generator matrix of the cyclic code of that length generated by g.  It is
    a read-only view: row i is the window at k - 1 - i of g padded with k - 1
    zeros on each side, so it takes O(k + length) memory."""
    k, dtype = length - g.degree, dtype_for(g.field)
    if k < 1:  # no rows; np.zeros refuses a negative count
        return np.zeros((k, length), dtype=dtype)
    padded = np.zeros(k - 1 + length, dtype=dtype)
    padded[k - 1 : k - 1 + len(g.coeffs)] = g.coeffs
    return np.lib.stride_tricks.sliding_window_view(padded, length)[::-1]
