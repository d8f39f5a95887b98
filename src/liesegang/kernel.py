"""Memory kernel of the relay integral equation.

The scalar equation carries a kernel K(theta) = theta^2 (G(theta) + G(-theta))
on [0, 1], where G is a one-dimensional integral of the self-similar profile
against a heat-kernel weight.  The raw integrand has an inverse-square-root
endpoint singularity; all evaluations here use the substitution

    v = 1 / sigma^2,
    G(theta) = pref(theta) * (1/2) * int_{v_min}^inf e^-v v^-3/2 psi(zeta(v)) dv,

    pref(theta)  = (alpha^3 / (2 sqrt pi)) |theta| (1-theta) e^{-alpha^2 (1-theta)^2 / 4}
    zeta(v)      = alpha |theta| sqrt(1 + cc / v),   cc = (alpha (1-theta) / 2)^2
    v_min        = alpha^2 theta^2 (1-theta) / (4 (1+theta))
    psi(zeta)    = Phi(zeta) / zeta^3,

which is smooth on the whole integration range.  Asymptotics:

    G(theta) ~ sqrt(2/pi) (u*/alpha) sqrt(1-theta)                 theta -> 1
    G(theta) ~ sqrt(2/pi) (u*/alpha^3) e^{alpha^2/4}
               (1+theta)^{3/2} e^{-alpha^2/(2(1+theta))}           theta -> -1
    G(theta) ~ A |theta|^{kappa-2}  (1 < kappa < 2),
               A_log * (-ln|theta|) (kappa = 2),  continuous (kappa > 2)

near theta = 0.  K inherits K(0) = K'(0) = 0 and K ~ k sqrt(1-theta) with
k = sqrt(2/pi) u*/alpha.

G has two evaluators.  g_eval is adaptive (one QUADPACK call in log v,
a scalar Python integrand that sums Kummer's series term by term) and
serves scalar probes.  _g_grid, behind the tables, uses fixed 16-point
Gauss rules: geometric panels of ratio <= 4 from v_min up to v = 1, then
one Gauss rule in u = 1/v for the weight e^-v v^-3/2 on [1, 47], built
once at import and shared by every point with v_min < 1; a point with
v_min >= 1 gets 6 panels in v that widen up to the e^-46 truncation.
Above kappa = 8 the v^(-kappa/2) fall near v_min gets ceil(kappa/8)
times the panels.  At g_eval's quad_tol = 1e-11 the two agree to 2.2e-13
relative from kappa = 1.8 to 46 with theta down to 1e-10 and up to
1 - 1e-12 (worst at theta ~ -0.99, where v_min > 1), and to 1.1e-12 over
90 random profiles with alpha and beta in [0.3, 3] (worst at
theta ~ -2.5e-5, kappa 8.0).
gamma * int G, the constant Gamma, is Psi(alpha) - u* in closed form.

The module also hosts the generic Kernel container used by the ring-pattern,
degenerate-construction and extended-solution solvers: a synthetic power-law
family with closed-form integrals, cached tables of the derived kernel, and
kernels rebuilt from sampled values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from numpy.polynomial.polynomial import polyval
from scipy.interpolate import CubicHermiteSpline, CubicSpline

from .errors import InvalidParameter, QuadratureFailure, SingularAtZero, require_positive
from .profile import Profile, psi_at_source
from .specfun import (
    SQRT_PI, _check_b_and_z, _kummer_transformed, integral, kummer_series, pointwise,
)

SIGMA_MAX = float(np.log2(3.0) - 1.0)  # admissible degeneracy exponents (0, log2 3 - 1)
_V_CUT = 46.0  # e^-46 ~ 1e-20: exponential tail truncation
_GL_X, _GL_W = np.polynomial.legendre.leggauss(16)
_GEO_KAPPA = 8.0  # above this kappa, _g_grid splits the panels of the v^(-kappa/2) fall
# v-layout of _g_grid: the largest ratio of the geometric panels below v = 1,
# and the offsets from v = 1 (or v_min) of the graded exponential panels
_V_LAYOUT = (4.0, (0.0, 1.0, 3.0, 7.0, 15.0, 31.0, _V_CUT))
_BLOCK_PANELS = 512  # _g_grid evaluates about this many panels (8192 nodes) at a time
QUAD_TOL_MIN = 50.0 * float(np.finfo(float).eps)  # QUADPACK's floor on epsrel
MAX_TABLE_POINTS = 1 << 16  # cap on table/export sizes, checked before allocating
TABLE_QUAD_TOL = 1e-9  # build_kernel_table's default probe tolerance, the CLI's only one
_SERIES_THETA, _SERIES_TERMS = 1e-2, 10  # synthetic_kernel's power series near theta = 0


def require_sigma(sigma: float) -> None:
    """Raise InvalidParameter unless sigma is an admissible degeneracy exponent."""
    if not 0.0 < sigma < SIGMA_MAX:
        raise InvalidParameter(f"sigma must lie in (0, {SIGMA_MAX:.6f}), got {sigma}")


@dataclass(frozen=True)
class Kernel:
    """Evaluator bundle for one memory kernel.

    eval maps theta in [0,1] (scalar or array) to K(theta) >= 0; prefix is
    an antiderivative of K (any additive constant, scalar or array), and
    cum(a, b) = int_a^b K is its difference; gamma_const is the constant
    term Gamma of the integral equation driven by this kernel; K ~ k_coeff
    (1-theta)^sigma near 1.
    """

    eval: Callable
    prefix: Callable
    gamma_const: float
    sigma: float
    k_coeff: float
    label: str = "kernel"
    # derived from prefix, but still a constructor argument: perfbench's
    # tracer swaps in a recording eval and cum through dataclasses.replace
    cum: Callable | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.cum is None:
            prefix = self.prefix
            object.__setattr__(self, "cum", lambda a, b: prefix(b) - prefix(a))


@dataclass(frozen=True)
class KernelTable:
    """Cached grid of kernel values and prefix integrals, and the errors
    |eval - k_eval| / max(1, |k_eval|) of the off-grid probes."""

    thetas: np.ndarray
    g_plus: np.ndarray
    g_minus: np.ndarray
    k_vals: np.ndarray
    cum_prefix: np.ndarray
    probe_errors: tuple


# ---------------------------------------------------------------------------
# synthetic template family


def synthetic_kernel(sigma: float, scale: float) -> Kernel:
    """Power-law template K(theta) = scale * theta^2 (1-theta)^sigma.

    All integrals are closed form (Beta-function antiderivatives), which
    makes this family the exact oracle for the pattern solvers.  The
    associated density G = scale (1-theta)^sigma gives
    gamma_const = scale / (1 + sigma).
    """
    require_sigma(sigma)
    require_positive(scale=scale)

    # the series coefficients scale (-1)^n binom(sigma, n) / (n + 3), n < _SERIES_TERMS
    n = np.arange(1.0, _SERIES_TERMS)
    coef = scale * np.cumprod(np.append(1.0, (n - 1.0 - sigma) / n)) / np.append(3.0, n + 3.0)

    @pointwise
    def prefix(theta):
        # scale * int theta^2 (1-theta)^sigma with theta^2 = 1 - 2(1-t) + (1-t)^2;
        # one power of 1 - theta, the next two by multiplying
        one = 1.0 - theta
        p1 = one ** (sigma + 1.0)
        p2 = p1 * one
        out = scale * (-p1 / (sigma + 1.0) + 2.0 * p2 / (sigma + 2.0) - p2 * one / (sigma + 3.0))
        # on (0, _SERIES_THETA) those O(1) terms cancel to round-off, so there
        # prefix is prefix(0) plus sum_n coef_n theta^(n+3), whose terms past
        # _SERIES_TERMS add below 1e-20 of the sum: cum(0, theta) stays >= 0
        # and does not fall
        small = (0.0 < theta) & (theta < _SERIES_THETA)
        if small.any():
            out[small] = head + theta[small] ** 3 * polyval(theta[small], coef)
        return out

    head = prefix(0.0)  # the closed form at 0

    def k_eval(theta):
        t = np.asarray(theta, dtype=float)
        return scale * t * t * (1.0 - t) ** sigma

    return Kernel(
        eval=k_eval,
        prefix=prefix,
        gamma_const=scale / (1.0 + sigma),
        sigma=sigma,
        k_coeff=scale,
        label=f"synthetic(sigma={sigma}, scale={scale})",
    )


# ---------------------------------------------------------------------------
# derived-kernel quadrature


def _v_min(alpha: float, theta) -> np.ndarray:
    t = np.asarray(theta, dtype=float)
    return alpha * alpha * t * t * (1.0 - t) / (4.0 * (1.0 + t))


def _weighted_panels(a_e, b_e, x=_GL_X, w=_GL_W):
    """Nodes v of the Gauss rule (x, w) on each panel [a_e, b_e], one row a
    panel, and their weights times e^-v v^-3/2."""
    half = 0.5 * (b_e - a_e)
    v = 0.5 * (b_e + a_e)[:, None] + half[:, None] * x
    return v, np.exp(-v) / (v * np.sqrt(v)) * (half[:, None] * w)


def _inverse_v_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-node Gauss rule (u_k, w_k) in u = 1/v for the exponential range:
    sum w_k h(u_k) ~ int_1^(1+_V_CUT) e^-v v^-3/2 h(1/v) dv, exact for
    polynomials h of degree < 2n.

    Golub & Welsch (Math. Comp. 23, 1969): the nodes are the eigenvalues of
    the Jacobi matrix and the weights the mass times the squared first
    components of its eigenvectors.  The matrix comes from Lanczos with
    full reorthogonalization on a discretization of the measure
    (Gautschi, Orthogonal Polynomials, 2004, sec. 2.2): 20-point
    Gauss-Legendre on 19 panels in v, narrow near v = 1, where u^31 falls
    fastest.  At n = 16 its moments up to u^31 agree with 30-digit
    quadrature to 2.5e-15 relative.
    """
    edges = np.array([1.0, 1.125, 1.25, 1.5, 1.75, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0, 8.0,
                      10.0, 12.0, 15.0, 20.0, 25.0, 30.0, 40.0, 1.0 + _V_CUT])
    v, wts = _weighted_panels(edges[:-1], edges[1:], *np.polynomial.legendre.leggauss(20))
    u, wts = 1.0 / v.ravel(), wts.ravel()
    mass = np.sum(wts)
    basis = np.zeros((n + 1, u.size))  # orthonormal in the discrete inner product
    basis[0] = np.sqrt(wts / mass)
    diag, off = np.zeros(n), np.zeros(n)
    for j in range(n):
        r = u * basis[j]
        diag[j] = basis[j] @ r
        for _ in range(2):  # Gram-Schmidt twice keeps the basis orthogonal
            r -= basis[:j + 1].T @ (basis[:j + 1] @ r)
        off[j] = np.linalg.norm(r)
        basis[j + 1] = r / off[j]
    nodes, vecs = np.linalg.eigh(np.diag(diag) + np.diag(off[:-1], -1))
    return nodes, mass * vecs[0] ** 2


_INV_V_RULE = _inverse_v_rule(16)  # _g_grid's nodes and weights on v in [1, 1 + _V_CUT]


def _prefactor(alpha: float, theta) -> np.ndarray:
    t = np.asarray(theta, dtype=float)
    return (
        alpha**3
        / (2.0 * SQRT_PI)
        * np.abs(t)
        * (1.0 - t)
        * np.exp(-alpha * alpha * (1.0 - t) ** 2 / 4.0)
    )


def g_eval(profile: Profile, theta: float, quad_tol: float = 1e-10) -> float:
    """Density G(theta) for theta in [-1, 1], adaptive quadrature.

    Off theta in {0, +-1} this is one QUADPACK call in w = log v over
    [log v_min, log(v_min + 46)], with a break at v = 1 when v_min < 1:
    the same integrand for theta near 1, near -1 and near 0.
    theta = 0 is only defined for kappa > 2 (continuous extension); for
    kappa <= 2 it diverges and SingularAtZero is raised.
    The integrands are scalar Python, with kummer_m's series
    (_kummer_transformed) checked once per call for |z| <= alpha^2/4.
    """
    if not QUAD_TOL_MIN <= quad_tol <= 1e-6:
        raise InvalidParameter(f"quad_tol must lie in [{QUAD_TOL_MIN:.3g}, 1e-6], got {quad_tol}")
    if not -1.0 <= theta <= 1.0:
        raise InvalidParameter(f"theta must lie in [-1, 1], got {theta}")
    alpha = profile.params.alpha
    c1, k = profile.c1, profile.kappa
    a, b = k / 2.0, k + 0.5
    _check_b_and_z(b, alpha * alpha / 4.0)
    if theta == 0.0:
        if k <= 2.0:
            raise SingularAtZero("G(0) diverges for kappa <= 2")
        c = alpha / SQRT_PI * np.exp(-alpha * alpha / 4.0)

        def f0(zeta):
            # Phi(zeta)/zeta^3 = [Phi/zeta^kappa] zeta^(kappa-3); the bracket is smooth
            return c1 * _kummer_transformed(a, b, -zeta * zeta / 4.0)

        return float(c * integral(f0, 0.0, alpha, quad_tol, "G(0)",
                                  weight="alg", wvar=(k - 3.0, 0.0)))
    if abs(theta) == 1.0:
        return 0.0

    vmin = float(_v_min(alpha, theta))
    if vmin > 700.0:
        return 0.0
    if not vmin >= np.finfo(float).tiny:
        # below it cc/v rounds past zeta = alpha, where the series would not stop
        raise InvalidParameter(f"theta={theta}: v_min = {vmin:.3g} underflows")
    cc = (alpha * (1.0 - theta) / 2.0) ** 2
    athe = alpha * abs(theta)

    def f(w):
        # w = log v turns the algebraic fall near a small v_min
        # (theta -> 0 or 1) into an exponential one
        v = math.exp(w)
        zeta = athe * math.sqrt(1.0 + cc / v)
        psi = c1 * zeta ** (k - 3.0) * _kummer_transformed(a, b, -zeta * zeta / 4.0)
        return math.exp(-v) / math.sqrt(v) * psi

    # the break at v = 1 keeps QUADPACK from accepting one panel that
    # straddles both regimes: near theta = 1 its error estimate read 3e-12
    # on a value 4.5e-10 off at quad_tol = 1e-11
    val = integral(f, np.log(vmin), np.log(vmin + _V_CUT), quad_tol, f"G({theta})",
                   points=[0.0] if vmin < 1.0 else None)
    return float(_prefactor(alpha, theta) * 0.5 * val)


def _g_grid(profile: Profile, thetas) -> np.ndarray:
    """Vectorized G on an array of thetas via fixed Gauss rules.

    A point with v_min < 1 gets m geometric panels of ratio <= geo_max
    from v_min up to v = 1, then the exponential range [1, 1 + _V_CUT]
    from _INV_V_RULE: 16 Gauss nodes in u = 1/v for the weight e^-v v^-3/2,
    where the rest of the integrand, F(A + B u) below, is analytic in u
    out to its branch point u = -A/B < 0.  A point with v_min >= 1 gets
    graded panels with edges v_min + offsets up to the e^-46 truncation:
    there the integrand is e^-v times a function analytic at distance >= 1
    from each panel, so the panels may widen with v (the 6 graded ones
    have widths 1, 2, 4, 8, 16, 15).  Both panel kinds take 16-point
    Gauss-Legendre; _V_LAYOUT = (geo_max, offsets).  Near v_min the
    integrand falls like v^(-kappa/2); above kappa = _GEO_KAPPA that fall
    is split into ceil(kappa/_GEO_KAPPA) panels, on the geometric range and
    on the first graded panel.  The rules agree with panels of ratio 1.5
    and width 1/4 (the exponential range included) to 2e-14 relative from
    kappa = 1.8 to 46, and with g_eval as the module docstring states.

    The integrand is c1 e^-v v^-3/2 F(w), w = zeta^2/4 = A + B/v with
    A = (alpha theta)^2/4 and B = A cc, F(w) = e^-w (4w)^((kappa-3)/2) P(w)
    and P from kummer_series, set up once per call for w up to alpha^2/4
    (zeta <= alpha).  Points with v_min < 1 share the rule's nodes: its
    weights form one row, and such a point's exponential part is the row
    sum of F times it.  The other panels keep a v per node in one ragged
    list.  Both run in blocks of about _BLOCK_PANELS panels' nodes that
    split only between points; a point's ragged panel sums are added in
    panel order by np.bincount, then its shared sum.  Sums are
    np.sum(axis=1), not @: BLAS gemv may round a row differently with the
    number of rows, and a point's G must not depend on its neighbours.  The
    scalar path (g_eval) sums the same series term by term, so the table's
    probes stay a separate check of this one.
    """
    t = np.asarray(thetas, dtype=float)
    out = np.zeros_like(t)
    alpha = profile.params.alpha
    k = profile.kappa
    interior = np.flatnonzero((np.abs(t) < 1.0) & (t != 0.0))
    vmin = _v_min(alpha, t[interior])
    keep = vmin <= 700.0
    live = interior[keep]
    if live.size == 0:
        return out
    tt = t[live]
    vm = vmin[keep]
    w_a = (alpha * tt) ** 2 / 4.0
    w_b = w_a * (alpha * (1.0 - tt) / 2.0) ** 2
    series = kummer_series(k / 2.0, k + 0.5, alpha * alpha / 4.0)

    def f_of_w(w):
        # e^-w (4w)^((kappa-3)/2) P(w), the two powers in one exponential
        return np.exp((k - 3.0) / 2.0 * np.log(4.0 * w) - w) * series(w)

    # ragged edges of point i: vm ratio^j, j <= m, when vm < 1, else vm + offsets
    geo_max, offsets = _V_LAYOUT
    split = max(1, int(np.ceil(k / _GEO_KAPPA)))
    offsets = np.concatenate((np.linspace(offsets[0], offsets[1], split + 1), offsets[2:]))
    n_graded = offsets.size - 1
    m = np.zeros(tt.shape, dtype=int)
    small = vm < 1.0
    m[small] = split * np.maximum(1, np.ceil(np.log(1.0 / vm[small]) / np.log(geo_max)).astype(int))
    ratio = (1.0 / vm) ** (1.0 / np.maximum(m, 1))
    inv_shared, row = _INV_V_RULE
    n_own = np.where(small, m, n_graded)
    first = np.concatenate(([0], np.cumsum(n_own)))

    res = np.empty(tt.shape)
    cuts = np.unique(np.searchsorted(first, np.arange(0, first[-1], _BLOCK_PANELS)))
    for lo, hi in zip(cuts, np.append(cuts[1:], tt.size)):
        point = np.repeat(np.arange(lo, hi), n_own[lo:hi])
        j = np.arange(first[lo], first[hi]) - first[point]
        sp, vp, rp = small[point], vm[point], ratio[point]

        def edge(jj):
            return np.where(sp, vp * rp**jj, vp + offsets[np.minimum(jj, n_graded)])

        v, wts = _weighted_panels(edge(j), edge(j + 1))
        panel = np.sum(f_of_w(w_a[point, None] + w_b[point, None] / v) * wts, axis=1)
        res[lo:hi] = np.bincount(point - lo, weights=panel, minlength=hi - lo)
    shared, step = np.flatnonzero(small), _BLOCK_PANELS * _GL_X.size // row.size
    for lo in range(0, shared.size, step):
        s = shared[lo:lo + step]
        res[s] += np.sum(f_of_w(w_a[s, None] + w_b[s, None] * inv_shared) * row, axis=1)
    out[live] = _prefactor(alpha, tt) * (0.5 * profile.c1) * res
    return out


def k_eval(profile: Profile, theta: float, quad_tol: float = 1e-10) -> float:
    """K(theta) = theta^2 (G(theta) + G(-theta)); K(0) = 0 for every kappa."""
    if not 0.0 <= theta <= 1.0:
        raise InvalidParameter(f"theta must lie in [0, 1], got {theta}")
    if theta == 0.0:
        return 0.0
    if theta == 1.0:
        return 0.0
    return theta * theta * (
        g_eval(profile, theta, quad_tol) + g_eval(profile, -theta, quad_tol)
    )


def gamma_const(profile: Profile) -> float:
    """Gamma = gamma * int_{-1}^{1} G(theta) dtheta = Psi(alpha) - u*.

    The identity holds for the profile solve_kappa returns: gamma * int G
    is the precipitation-free profile on the source line minus the
    threshold.  tests/test_kernel.py integrates _g_grid over theta and
    checks it against this value.
    """
    return psi_at_source(profile.params) - profile.params.u_star


# ---------------------------------------------------------------------------
# cached table and Kernel assembly

def k_coefficient(profile: Profile) -> float:
    """Tail coefficient k in K ~ k sqrt(1-theta): sqrt(2/pi) u*/alpha."""
    p = profile.params
    return float(np.sqrt(2.0 / np.pi) * p.u_star / p.alpha)


def _u_of_theta(theta):
    return np.arcsin(np.sqrt(np.clip(theta, 0.0, 1.0)))


def build_kernel_table(
    profile: Profile, n_points: int = 2048, quad_tol: float = TABLE_QUAD_TOL
) -> tuple[KernelTable, Kernel]:
    """Tabulate the derived kernel and wrap it as a fast Kernel.

    The grid theta = sin^2(u) with uniform u is Chebyshev-spaced, dense at
    both endpoints.  Interpolation runs on V(u) = K/sqrt(1-theta), which is
    smooth up to theta = 1, where it takes the tail coefficient k of
    K ~ k sqrt(1-theta); the spline alone is accurate there, so no
    asymptotic blend is needed.  The cumulative
    integral is the antiderivative of a spline of K dtheta/du on a 4x finer
    grid, so cum is exactly additive.  Off-grid probes against the adaptive
    scalar evaluator guard the interpolation error.
    """
    if not 256 <= n_points <= MAX_TABLE_POINTS:
        raise InvalidParameter(f"n_points must lie in [256, {MAX_TABLE_POINTS}], got {n_points}")
    kc = k_coefficient(profile)
    u = np.linspace(0.0, np.pi / 2.0, n_points + 1)
    thetas = np.sin(u) ** 2
    g_plus, g_minus = np.split(_g_grid(profile, np.concatenate([thetas, -thetas])), 2)
    if profile.kappa > 2.0:
        g0 = g_eval(profile, 0.0, min(quad_tol, 1e-9))
        g_plus[0] = g_minus[0] = g0
    k_vals = thetas * thetas * (g_plus + g_minus)
    k_vals[0] = 0.0
    k_vals[-1] = 0.0

    with np.errstate(invalid="ignore", divide="ignore"):
        v_vals = np.where(thetas < 1.0, k_vals / np.sqrt(1.0 - thetas), 0.0)
    v_vals[-1] = kc
    v_spline = CubicSpline(u, v_vals)

    @pointwise
    def eval_fn(theta):
        tt = np.clip(theta, 0.0, 1.0)
        return v_spline(_u_of_theta(tt)) * np.sqrt(1.0 - tt)

    u_fine = np.linspace(0.0, np.pi / 2.0, 4 * n_points + 1)
    w_fine = eval_fn(np.sin(u_fine) ** 2) * np.sin(2.0 * u_fine)
    anti = CubicSpline(u_fine, w_fine).antiderivative()

    @pointwise
    def prefix(theta):
        return anti(_u_of_theta(theta))

    probe_errors = []
    for probe in (0.1234567, 1.0 / 3.0, 0.5555555, 0.87654321):
        direct = k_eval(profile, probe, quad_tol)
        probe_errors.append(abs(float(eval_fn(probe)) - direct) / max(1.0, abs(direct)))
        if probe_errors[-1] > 10.0 * quad_tol:
            raise QuadratureFailure(f"table interpolation error at theta={probe} above 10*quad_tol")
    table = KernelTable(
        thetas=thetas,
        g_plus=g_plus,
        g_minus=g_minus,
        k_vals=k_vals,
        cum_prefix=np.asarray(anti(u)) - float(anti(0.0)),
        probe_errors=tuple(probe_errors),
    )
    kern = Kernel(
        eval=eval_fn,
        prefix=prefix,
        gamma_const=gamma_const(profile),
        sigma=0.5,
        k_coeff=kc,
        label=(
            f"derived(alpha={profile.params.alpha}, beta={profile.params.beta}, "
            f"u_star={profile.params.u_star})"
        ),
    )
    return table, kern


def kernel_from_samples(
    thetas, k_values, cum_values, sigma: float, k_coeff: float, gamma_const_value: float,
    label: str = "tabulated",
) -> Kernel:
    """Rebuild a Kernel from sampled theta, K and cumK = int_0^theta K.

    prefix is one cubic Hermite interpolant P(w), w = (1-theta)^(1+sigma),
    through the nodes' cumK with slope -V/(1+sigma), V = K/(1-theta)^sigma
    (k_coeff at theta = 1); eval is its derivative -(1+sigma) P'(w)
    (1-theta)^sigma.  A last node below 1 gets a node at theta = 1 that
    holds V, so past it P is linear in w and K follows (1-theta)^sigma.
    """
    require_sigma(sigma)
    t = np.asarray(thetas, dtype=float)
    k = np.asarray(k_values, dtype=float)
    cum = np.asarray(cum_values, dtype=float)
    if t.ndim != 1 or t.shape != k.shape or t.shape != cum.shape or len(t) < 8:
        raise InvalidParameter("need matching 1-d theta/K/cumK arrays with >= 8 samples")
    if not (np.all(np.diff(t) > 0) and 0.0 <= t[0] and t[-1] <= 1.0):
        raise InvalidParameter("theta samples must be strictly increasing in [0, 1]")
    with np.errstate(divide="ignore", invalid="ignore"):
        v = np.where(t < 1.0, k / (1.0 - t) ** sigma, k_coeff)
    if not np.all((v >= 0.0) & (v < np.inf)):
        raise InvalidParameter("K samples and k_coeff must be finite and non-negative")
    if not (np.all(np.isfinite(cum)) and np.all(np.diff(cum) >= 0.0)):
        raise InvalidParameter("cumK samples must be finite and non-decreasing")
    p = 1.0 + sigma
    if t[-1] < 1.0:
        cum = np.append(cum, cum[-1] + v[-1] * (1.0 - t[-1]) ** p / p)
        t, v = np.append(t, 1.0), np.append(v, v[-1])
    # w falls as theta rises; thetas an ulp apart can round to one w
    w, first = np.unique((1.0 - t) ** p, return_index=True)
    spline = CubicHermiteSpline(w, cum[first], -v[first] / p)

    @pointwise
    def eval_fn(theta):
        one = 1.0 - np.clip(theta, 0.0, 1.0)
        return -p * spline(one**p, 1) * one**sigma

    @pointwise
    def prefix(theta):
        return spline((1.0 - np.clip(theta, 0.0, 1.0)) ** p)

    return Kernel(
        eval=eval_fn,
        prefix=prefix,
        gamma_const=float(gamma_const_value),
        sigma=float(sigma),
        k_coeff=float(k_coeff),
        label=label,
    )


def f_diagnostic(kern: Kernel, z: float) -> float:
    """F(z) = z^2 K'(z) - 2 z K(z) - 2 int_z^1 K(theta) dtheta.

    K' by central finite difference with the step kept away from the
    degenerate endpoint; diagnostic accuracy only.
    """
    if not 0.0 < z < 1.0:
        raise InvalidParameter(f"z must lie in (0, 1), got {z}")
    step = min(1e-4, (1.0 - z) / 8.0, z / 8.0)
    kprime = (float(kern.eval(z + step)) - float(kern.eval(z - step))) / (2.0 * step)
    return z * z * kprime - 2.0 * z * float(kern.eval(z)) - 2.0 * float(kern.cum(z, 1.0))
