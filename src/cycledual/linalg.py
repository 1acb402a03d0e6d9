"""Dense GF(2^s) arrays for minimum-distance enumeration.

Arrays hold raw element values.  ``shifted_rows`` lays out the generator
matrix of a cyclic code, and ``scalar_mul`` scales rows through log/antilog
tables built lazily per field, with results identical to the plain
carry-less arithmetic in :mod:`cycledual.gf`.  The recorded checks use no
matrices: they are polynomial identities (see :mod:`cycledual.construct`).
"""

from __future__ import annotations

import numpy as np

from .gf import Field
from .poly import Poly

__all__ = ["dtype_for", "scalar_mul", "shifted_rows"]

_TABLE_LIMIT = 1 << 20

_tables: dict[Field, tuple[np.ndarray, np.ndarray]] = {}


def dtype_for(field: Field):
    if field.order <= 1 << 8:
        return np.uint8
    if field.order <= 1 << 16:
        return np.uint16
    return np.uint32


def _log_exp(field: Field) -> tuple[np.ndarray, np.ndarray]:
    tabs = _tables.get(field)
    if tabs is None:
        if field.order > _TABLE_LIMIT:
            raise ValueError(f"{field!r} too large for table-based matrix ops")
        q1 = field.order - 1
        gamma = field.primitive_element()
        log = np.zeros(field.order, dtype=np.int32)
        # exp doubled so summed logs index directly, no modulo
        exp = np.zeros(2 * q1 if q1 > 1 else 2, dtype=dtype_for(field))
        v = 1
        for i in range(q1):
            exp[i] = v
            exp[i + q1] = v
            log[v] = i
            v = field.mul(v, gamma)
        tabs = (log, exp)
        _tables[field] = tabs
    return tabs


def as_array(field: Field, mat) -> np.ndarray:
    return np.asarray(mat, dtype=dtype_for(field))


def scalar_mul(field: Field, c: int, arr) -> np.ndarray:
    arr = as_array(field, arr)
    if c == 0:
        return np.zeros_like(arr)
    if c == 1:
        return arr.copy()
    log, exp = _log_exp(field)
    out = exp[log[arr] + log[c]]
    out[arr == 0] = 0
    return out


def shifted_rows(g: Poly, length: int) -> np.ndarray:
    """The (length - deg g) x length matrix whose rows are x^i g(x), i.e. the
    generator matrix of the cyclic code of that length generated by g."""
    coeffs = g.coeffs
    mat = np.zeros((length - g.degree, length), dtype=dtype_for(g.field))
    for i in range(mat.shape[0]):
        mat[i, i : i + len(coeffs)] = coeffs
    return mat
