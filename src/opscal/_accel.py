"""Numba on/off switch for the hot kernels.

The sequential per-step loops (online Newton updates, hedging, tracking)
dominate experiment runtime and cannot be vectorized across time, so they
are JIT-compiled with numba when available. Setting the environment
variable ``OPSCAL_NUMBA=0`` (or numba being absent) selects the plain
Python path. Both run the *same* function bodies, compiled on numpy arrays
or interpreted on Python floats (``opscal.kernels`` picks the container from
``NUMBA_ENABLED``), so results are bit-identical either way.
"""

from __future__ import annotations

import os

try:
    from numba import njit as _njit

    HAS_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba
    _njit = None
    HAS_NUMBA = False

NUMBA_ENABLED = HAS_NUMBA and os.environ.get("OPSCAL_NUMBA", "1").lower() not in (
    "0",
    "false",
    "off",
)


def maybe_jit(fn):
    """Return the numba-compiled version of ``fn``, or ``fn`` unchanged."""
    if NUMBA_ENABLED:
        return _njit(cache=True)(fn)
    return fn
