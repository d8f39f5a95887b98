"""Special functions, and the pointwise convention every evaluator follows.

`pointwise` makes a function scalar-or-array in its last positional
argument: a float for a scalar, an array of the same shape for an array.
kummer_m and erfc wrap scipy.special (hyp1f1, erfc) and keep the library's
domain checks; on its domain (a = kappa/2 or kappa/2 + 1, b = kappa + 1/2,
z in [-12.5, 0]) both agree with exact-series and quadrature oracles to
about 1e-15 relative.
"""

from __future__ import annotations

import functools

import numpy as np
from scipy import special

from .errors import InvalidParameter

SQRT_PI = float(np.sqrt(np.pi))

_Z_DOMAIN = 50.0  # argument cap; callers stay well inside


def pointwise(fn):
    """Call fn with its last positional argument as a 1-d float array (which
    fn must not modify); return a float for a scalar argument, otherwise
    fn's result shaped like the argument."""

    @functools.wraps(fn)
    def wrapper(*args):
        x = np.asarray(args[-1], dtype=float)
        out = fn(*args[:-1], x.reshape(-1))
        return float(out[0]) if x.ndim == 0 else out.reshape(x.shape)

    return wrapper


@pointwise
def kummer_m(a: float, b: float, z):
    """Kummer's confluent hypergeometric function M(a, b, z), |z| <= 50."""
    if b <= 0 and float(b).is_integer():
        raise InvalidParameter(f"b must not be a non-positive integer, got b={b}")
    if not np.all(np.abs(z) <= _Z_DOMAIN):  # also rejects NaN
        raise InvalidParameter(f"|z| exceeds supported domain {_Z_DOMAIN}")
    return special.hyp1f1(a, b, z)


@pointwise
def erfc(x):
    """Complementary error function 1 - erf(x)."""
    return special.erfc(x)
