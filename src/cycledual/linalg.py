"""Dense GF(2^s) arrays for minimum-distance enumeration.

Arrays hold raw element values.  ``shifted_rows`` lays out the generator
matrix of a cyclic code, and ``scalar_mul`` scales rows through the field's
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
    generator matrix of the cyclic code of that length generated by g."""
    coeffs = np.asarray(g.coeffs, dtype=dtype_for(g.field))  # converted once, not per row
    mat = np.zeros((length - g.degree, length), dtype=coeffs.dtype)
    for i in range(mat.shape[0]):
        mat[i, i : i + len(coeffs)] = coeffs
    return mat
