"""Special-function primitives: Kummer's M and the complementary error function.

Both are thin wrappers over scipy.special (hyp1f1 and erfc) that keep the
library's domain checks and its calling convention: scalars or numpy arrays
in, a float for a scalar argument.  On the domain the library uses
(a = kappa/2 or kappa/2 + 1, b = kappa + 1/2, z in [-12.5, 0]) both agree
with exact-series and quadrature oracles to about 1e-15 relative.
"""

from __future__ import annotations

import numpy as np
from scipy import special

from .errors import InvalidParameter

SQRT_PI = float(np.sqrt(np.pi))

_Z_DOMAIN = 50.0  # argument cap; callers stay well inside


def kummer_m(a: float, b: float, z):
    """Kummer's confluent hypergeometric function M(a, b, z), |z| <= 50."""
    if b <= 0 and float(b).is_integer():
        raise InvalidParameter(f"b must not be a non-positive integer, got b={b}")
    z_arr = np.asarray(z, dtype=float)
    if not np.all(np.abs(z_arr) <= _Z_DOMAIN):  # also rejects NaN
        raise InvalidParameter(f"|z| exceeds supported domain {_Z_DOMAIN}")
    out = special.hyp1f1(a, b, z_arr)
    return float(out) if z_arr.ndim == 0 else out


def erfc(x):
    """Complementary error function 1 - erf(x)."""
    x_arr = np.asarray(x, dtype=float)
    out = special.erfc(x_arr)
    return float(out) if x_arr.ndim == 0 else out
