"""Dense GF(2^s) arrays for minimum-distance enumeration.

``shifted_rows`` lays out the generator matrix of a cyclic code as a
read-only view of one padded copy of its generator, holding raw element
values.  Products of elements live in :mod:`cycledual.gf`.  The recorded
checks use no matrices: they are polynomial identities (see
:mod:`cycledual.construct`).
"""

# kept as a module of its own because the benchmark reaches it: perfbench/tracing.py LAYERS

from __future__ import annotations

import numpy as np

from .gf import dtype_for
from .poly import Poly

__all__ = ["shifted_rows"]


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
