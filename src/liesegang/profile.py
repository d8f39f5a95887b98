"""Self-similar reactant profiles and the (kappa, gamma) eigenvalue solve.

The stationary profile Phi in similarity variables satisfies

    Phi'' + (eta/2) Phi' + (alpha*beta/2) delta(eta - alpha)
        - (gamma/eta^2) H(alpha - eta) Phi = 0,
    Phi'(0) = 0,  Phi(eta) -> 0,  Phi(alpha) = u_star,

and is given explicitly by a Kummer-function branch below the source line
eta = alpha and an erfc branch above it.  The internal boundary condition
fixes kappa (gamma = kappa * (kappa - 1)) as the root of an algebraic
equation in Kummer and erfc values; the root exists iff u_star is below a
solvability threshold.

Psi is the precipitation-free analog (gamma = 0): constant below the source
line, erfc decay above, with the jump condition Psi'(alpha+) = -alpha*beta/2
fixing the closed form  Psi(alpha) = (alpha*beta*sqrt(pi)/2) e^{alpha^2/4}
erfc(alpha/2).  The finite-difference scheme initializes with it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameter, NoRoot, require_positive
from .specfun import SQRT_PI, Z_DOMAIN, erfc, kummer_m, pointwise, root

KAPPA_MAX = 50.0
# solve_kappa's scan grid in (1, KAPPA_MAX]; its ends are the solvable bracket
KAPPA_GRID = 1.0 + np.geomspace(1e-9, KAPPA_MAX - 1.0, 240)


@dataclass(frozen=True)
class ModelParams:
    """Physical parameters: source slope alpha, strength beta, threshold u_star.

    All three must be positive and finite, and alpha^2/4 must stay in
    kummer_m's domain.  Whether the eigenvalue problem is solvable for these
    values is checked when a Profile is constructed (solve_kappa) and can be
    queried without raising via check_solvability.
    """

    alpha: float
    beta: float
    u_star: float

    def __post_init__(self):
        require_positive(alpha=self.alpha, beta=self.beta, u_star=self.u_star)
        if self.alpha * self.alpha / 4.0 > Z_DOMAIN:
            raise InvalidParameter(f"alpha must satisfy alpha^2/4 <= {Z_DOMAIN}, got {self.alpha}")


@dataclass(frozen=True)
class Profile:
    """Solved self-similar profile: eigenvalue pair and branch prefactor."""

    params: ModelParams
    kappa: float
    gamma: float
    c1: float  # prefactor of the Kummer branch, u*/(alpha^kappa M(kappa/2, kappa+1/2, -alpha^2/4))
    # u_star_curve calls solve_kappa made: bracket, Brent iterations, residual check
    kappa_evals: int = field(default=0, compare=False)


def u_star_curve(params: ModelParams, kappa: float) -> float:
    """Right-hand side of the eigenvalue equation as a function of kappa.

    Decreasing in kappa on the search bracket; the eigenvalue is the kappa
    at which this curve equals u_star.
    """
    a = params.alpha
    z = -a * a / 4.0
    first = kappa * kummer_m(kappa / 2.0 + 1.0, kappa + 0.5, z) / (
        a * kummer_m(kappa / 2.0, kappa + 0.5, z)
    )
    second = np.exp(z) / (SQRT_PI * erfc(a / 2.0))
    return (first + second) ** -1.0 * a * params.beta / 2.0


def threshold_candidates(params: ModelParams) -> tuple[float, float]:
    """The two gamma = 0 threshold values, at kappa = 0 and kappa = 1.

    gamma = kappa*(kappa - 1) vanishes at both kappa values and they give
    different thresholds, Psi(alpha) and u_star_curve(params, 1); both are
    reported, the operational solvability test below uses the kappa = 1
    value (root bracket starts there).
    """
    return psi_at_source(params), float(u_star_curve(params, 1.0))


@dataclass(frozen=True)
class SolvabilityReport:
    solvable: bool
    u0_star_kappa0: float
    u0_star_kappa1: float


def check_solvability(params: ModelParams) -> SolvabilityReport:
    """solvable iff the ends of solve_kappa's grid, which starts just above
    kappa = 1, bracket a root (so just below u0_star_kappa1 is not)."""
    at_zero, at_one = threshold_candidates(params)
    lo, hi = KAPPA_GRID[0], KAPPA_GRID[-1]
    solvable = u_star_curve(params, hi) < params.u_star < u_star_curve(params, lo)
    return SolvabilityReport(bool(solvable), at_zero, at_one)


def solve_kappa(params: ModelParams) -> Profile:
    """Solve the eigenvalue equation for kappa > 1; gamma = kappa*(kappa-1).

    u_star_curve decreases in kappa, so on a geometric grid of 240 points
    in (1, KAPPA_MAX] the sign of u_star_curve - u_star changes at most
    once.  Bisection over the grid indices finds that grid panel (about 8
    evaluations, not 240), and Brent's method refines the root in it to
    4 eps relative.  Raises NoRoot when the ends of the grid do not
    bracket a root (solvability violated) or the root leaves a residual
    above 1e-12.
    """
    evals = 0

    def f(k: float) -> float:
        nonlocal evals
        evals += 1
        return u_star_curve(params, k) - params.u_star

    grid = KAPPA_GRID
    lo, hi = 0, len(grid) - 1
    if not f(grid[lo]) > 0.0 > f(grid[hi]):
        raise NoRoot(
            f"no kappa root in (1, {KAPPA_MAX}]: u_star={params.u_star} "
            f"vs threshold {u_star_curve(params, 1.0):.6g}"
        )
    while hi - lo > 1:  # invariant: f(grid[lo]) > 0 >= f(grid[hi])
        mid = (lo + hi) // 2
        if f(grid[mid]) > 0.0:
            lo = mid
        else:
            hi = mid
    kappa = root(f, grid[lo], grid[hi])
    if abs(f(kappa)) > 1e-12:
        raise NoRoot("root refinement left residual above 1e-12")
    a = params.alpha
    c1 = params.u_star / (
        a**kappa * kummer_m(kappa / 2.0, kappa + 0.5, -a * a / 4.0)
    )
    return Profile(params=params, kappa=float(kappa), gamma=float(kappa * (kappa - 1.0)),
                   c1=float(c1), kappa_evals=evals)


@pointwise
def phi_eval(profile: Profile, eta):
    """Evaluate Phi at eta >= 0 (scalar or array).

    Kummer branch below alpha, erfc branch above; both agree at alpha where
    the value is u_star.
    """
    p = profile.params
    if np.any(eta < 0):
        raise InvalidParameter("eta must be non-negative")
    kappa = profile.kappa
    return np.piecewise(eta, [eta < p.alpha], [
        lambda eb: profile.c1 * eb**kappa * kummer_m(kappa / 2.0, kappa + 0.5, -eb * eb / 4.0),
        lambda ea: p.u_star * erfc(ea / 2.0) / erfc(p.alpha / 2.0),
    ])


def psi_at_source(params: ModelParams) -> float:
    """Psi(alpha) = (alpha*beta/2) sqrt(pi) e^{alpha^2/4} erfc(alpha/2)."""
    a = params.alpha
    return float(a * params.beta / 2.0 * SQRT_PI * np.exp(a * a / 4.0) * erfc(a / 2.0))


@pointwise
def psi_eval(params: ModelParams, eta):
    """Precipitation-free profile: flat below alpha, erfc decay above."""
    if np.any(eta < 0):
        raise InvalidParameter("eta must be non-negative")
    top = psi_at_source(params)
    return np.where(
        eta <= params.alpha,
        top,
        top * erfc(np.minimum(eta, 60.0) / 2.0) / erfc(params.alpha / 2.0),
    )
