"""Special functions, and the pointwise convention every evaluator follows.

`pointwise` makes a function scalar-or-array in its last positional
argument: a float for a scalar, an array of the same shape for an array.
kummer_m and erfc wrap scipy.special (hyp1f1, erfc) and keep the library's
domain checks; on its domain (a = kappa/2 or kappa/2 + 1, b = kappa + 1/2,
z in [-12.5, 0]) both agree with exact-series and quadrature oracles to
about 1e-15 relative.  kummer_series evaluates M(a, b, .) on one fixed
interval [-z_max, 0] from a power series set up once per interval; the
derived kernel's fixed-rule quadrature uses it for its millions of nodes.
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


def _check_b_and_z(b: float, z) -> None:
    if b <= 0 and float(b).is_integer():
        raise InvalidParameter(f"b must not be a non-positive integer, got b={b}")
    if not np.all(np.abs(z) <= _Z_DOMAIN):  # also rejects NaN
        raise InvalidParameter(f"|z| exceeds supported domain {_Z_DOMAIN}")


@pointwise
def kummer_m(a: float, b: float, z):
    """Kummer's confluent hypergeometric function M(a, b, z), |z| <= 50."""
    _check_b_and_z(b, z)
    return special.hyp1f1(a, b, z)


def kummer_series(a: float, b: float, z_max: float):
    """M(a, b, z) for z in [-z_max, 0] (z_max <= 50) as an array function.

    Kummer's transformation M(a, b, z) = e^z M(b - a, b, -z) turns the
    alternating series into one in w = -z >= 0.  For 0 <= a <= b every
    coefficient (b - a)_n / ((b)_n n!) is non-negative, so the Horner sum
    does not cancel.  The degree is fixed once from z_max: the last term
    kept at w = z_max is below eps/4 of the sum, and the term ratios past
    it are at most 1/2, so the dropped tail is below that too.  The
    returned function does not check its argument against z_max.
    """
    _check_b_and_z(b, z_max)
    w_max = abs(float(z_max))
    eps = float(np.finfo(float).eps)
    coef = [1.0]
    term = total = 1.0
    n = 0
    while not (term <= 0.25 * eps * total and w_max <= 0.5 * (n + 1)):
        coef.append(coef[-1] * (b - a + n) / ((b + n) * (n + 1)))
        term = abs(coef[-1]) * w_max ** (n + 1)
        total += term
        n += 1

    def m_eval(z):
        w = -np.asarray(z, dtype=float)
        p = np.full(w.shape, coef[-1])
        for c in coef[-2::-1]:
            p *= w
            p += c
        return np.exp(-w) * p

    return m_eval


@pointwise
def erfc(x):
    """Complementary error function 1 - erf(x)."""
    return special.erfc(x)
