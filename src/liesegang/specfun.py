"""Special functions, and the pointwise convention every evaluator follows.

`pointwise` makes a function scalar-or-array in its last positional
argument: a float for a scalar, an array of the same shape for an array.
kummer_m and erfc keep the library's domain checks.  erfc wraps
scipy.special.erfc.  kummer_m sums Kummer's transformed, non-negative
series point by point, and is defined only where that series is: z <= 0
and 0 <= a <= b, which covers every call the profile makes (a = kappa/2
or kappa/2 + 1, b = kappa + 1/2, kappa > 1, z = -eta^2/4 <= 0).  There it
agrees with exact-series and quadrature oracles to about 1e-15 relative;
scipy.special.hyp1f1 (scipy 1.17) is off by 1.6e-12 relative at a = 0.3,
b = 3.3, z = -1.7.  kummer_series sets up the same
transformed series once for one interval [-z_max, 0], as a polynomial
P(w) with M(a, b, z) = e^z P(-z); the derived kernel's fixed-rule
quadrature evaluates it by Horner at its millions of nodes.

The library's two numerical policies live here too.  root refines a
bracketed root by Brent's method (Brent 1973) to 4 eps relative, and
integral is one adaptive QUADPACK call (Piessens et al. 1983) with
epsabs = 0 and 400 subintervals whose error estimate must stay within
10 tol of the value.
"""

from __future__ import annotations

import functools
import math
import warnings

import numpy as np
from scipy import integrate, optimize, special

from .errors import InvalidParameter, QuadratureFailure

SQRT_PI = float(np.sqrt(np.pi))

Z_DOMAIN = 50.0  # argument cap; callers stay well inside
_EPS = float(np.finfo(float).eps)


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
    if not (np.abs(z) <= Z_DOMAIN).all():  # also rejects NaN
        raise InvalidParameter(f"|z| exceeds supported domain {Z_DOMAIN}")


def _kummer_transformed(a: float, b: float, z: float) -> float:
    """M(a, b, z) at one z <= 0 for 0 <= a <= b, as e^z M(b - a, b, -z).

    The terms of M(b - a, b, w), w = -z, are non-negative and summed in
    order; the sum stops on kummer_series's rule (last term below eps/4
    of the sum, later term ratios at most 1/2).
    """
    c, w = b - a, -z
    term = total = 1.0
    n = 0
    while not (term <= 0.25 * _EPS * total and w <= 0.5 * (n + 1)):
        term *= (c + n) * w / ((b + n) * (n + 1))
        total += term
        n += 1
    return math.exp(z) * total


@pointwise
def kummer_m(a: float, b: float, z):
    """Kummer's confluent hypergeometric function M(a, b, z) for
    0 <= a <= b and -50 <= z <= 0."""
    _check_b_and_z(b, z)
    if not (0.0 <= a <= b and (z <= 0.0).all()):
        raise InvalidParameter(f"kummer_m needs 0 <= a <= b and z <= 0, got a={a}, b={b}")
    return np.array([_kummer_transformed(a, b, x) for x in z.tolist()])


def kummer_series(a: float, b: float, z_max: float):
    """P(w) = e^w M(a, b, -w) for w in [0, z_max] (z_max <= 50) as an array
    function, so M(a, b, z) = e^z P(-z); the caller applies e^-w.

    Kummer's transformation M(a, b, z) = e^z M(b - a, b, -z) makes P the
    series of M(b - a, b, w) in w = -z >= 0.  For 0 <= a <= b every
    coefficient (b - a)_n / ((b)_n n!) is non-negative, so the Horner sum
    does not cancel.  The degree is fixed once from z_max: the last term
    kept at w = z_max is below eps/4 of the sum, and the term ratios past
    it are at most 1/2, so the dropped tail is below that too.  The
    returned function does not check its argument against z_max.
    """
    _check_b_and_z(b, z_max)
    w_max = abs(float(z_max))
    coef = [1.0]
    term = total = 1.0
    n = 0
    while not (term <= 0.25 * _EPS * total and w_max <= 0.5 * (n + 1)):
        coef.append(coef[-1] * (b - a + n) / ((b + n) * (n + 1)))
        term = abs(coef[-1]) * w_max ** (n + 1)
        total += term
        n += 1

    def p_eval(w):
        w = np.asarray(w, dtype=float)
        p = np.full(w.shape, coef[-1])
        for c in coef[-2::-1]:
            p *= w
            p += c
        return p

    return p_eval


@pointwise
def erfc(x):
    """Complementary error function 1 - erf(x)."""
    return special.erfc(x)


def root(f, lo: float, hi: float, args=()) -> float:
    """Root of f(x, *args) in the sign-changing bracket [lo, hi] by Brent's
    method.  xtol is tiny, so it stops on the relative test (4 eps) alone;
    maxiter is 200 because near sigma = 0.01 round-off in q_star's function
    forces bisection steps (up to 82)."""
    return optimize.brentq(f, lo, hi, args=args, xtol=np.finfo(float).tiny, maxiter=200)


def integral(f, a: float, b: float, tol: float, what: str, **kw) -> float:
    """int_a^b f by QUADPACK to relative tolerance tol (epsabs = 0, limit
    400), with its warnings silenced; kw goes on to scipy's quad (points,
    weight, wvar).  Raises QuadratureFailure naming what when the error
    estimate exceeds 10 tol |value|."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        val, err = integrate.quad(f, a, b, epsabs=0.0, epsrel=tol, limit=400, **kw)
    if err > 10.0 * tol * abs(val):
        raise QuadratureFailure(f"{what} quadrature error {err:.2e} above tolerance {tol:.2e}")
    return val
