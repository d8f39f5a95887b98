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

The module also hosts the generic Kernel container used by the ring-pattern,
degenerate-construction and extended-solution solvers: a synthetic power-law
family with closed-form integrals, cached tables of the derived kernel, and
kernels rebuilt from sampled values.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy import integrate
from scipy.interpolate import CubicSpline

from .errors import InvalidParameter, QuadratureFailure, SingularAtZero
from .profile import Profile
from .specfun import SQRT_PI, kummer_m, kummer_series, pointwise

SIGMA_MAX = float(np.log2(3.0) - 1.0)  # admissible degeneracy exponents (0, log2 3 - 1)
_V_CUT = 46.0  # e^-46 ~ 1e-20: exponential tail truncation
_GL_X, _GL_W = np.polynomial.legendre.leggauss(16)
_GEO_KAPPA = 8.0  # above this kappa, _g_grid splits each of its panels
_N_LIN = 23  # linear panels of width 2 from v = 1 (or v_min) to the truncation
_BLOCK_PANELS = 512  # _g_grid evaluates about this many panels (8192 nodes) at a time
QUAD_TOL_MIN = 50.0 * float(np.finfo(float).eps)  # QUADPACK's floor on epsrel
MAX_TABLE_POINTS = 1 << 16  # cap on table/export sizes, checked before allocating


def _quad(f, a, b, quad_tol, **kw):
    """QUADPACK wrapper; the caller applies its own error policy."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        return integrate.quad(f, a, b, epsabs=0.0, epsrel=quad_tol, limit=400, **kw)


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
    """Cached grid of kernel values and prefix integrals."""

    thetas: np.ndarray
    g_plus: np.ndarray
    g_minus: np.ndarray
    k_vals: np.ndarray
    cum_prefix: np.ndarray


# ---------------------------------------------------------------------------
# synthetic template family


def synthetic_kernel(sigma: float, scale: float) -> Kernel:
    """Power-law template K(theta) = scale * theta^2 (1-theta)^sigma.

    All integrals are closed form (Beta-function antiderivatives), which
    makes this family the exact oracle for the pattern solvers.  The
    associated density G = scale (1-theta)^sigma gives
    gamma_const = scale / (1 + sigma).
    """
    if not 0.0 < sigma < SIGMA_MAX:
        raise InvalidParameter(f"sigma must lie in (0, {SIGMA_MAX:.6f}), got {sigma}")
    if not 0.0 < scale < np.inf:
        raise InvalidParameter(f"scale must be positive and finite, got {scale}")

    @pointwise
    def prefix(theta):
        # scale * int theta^2 (1-theta)^sigma with theta^2 = 1 - 2(1-t) + (1-t)^2;
        # one power of 1 - theta, the next two by multiplying
        one = 1.0 - theta
        p1 = one ** (sigma + 1.0)
        p2 = p1 * one
        return scale * (-p1 / (sigma + 1.0) + 2.0 * p2 / (sigma + 2.0) - p2 * one / (sigma + 3.0))

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


def _psi_over_zeta3(profile: Profile, zeta):
    """Phi(zeta)/zeta^3 on (0, alpha], via the Kummer branch."""
    k = profile.kappa
    z = np.asarray(zeta, dtype=float)
    return profile.c1 * z ** (k - 3.0) * kummer_m(k / 2.0, k + 0.5, -z * z / 4.0)


def _v_min(alpha: float, theta) -> np.ndarray:
    t = np.asarray(theta, dtype=float)
    return alpha * alpha * t * t * (1.0 - t) / (4.0 * (1.0 + t))


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

    theta = 0 is only defined for kappa > 2 (continuous extension); for
    kappa <= 2 it diverges and SingularAtZero is raised.
    """
    if not QUAD_TOL_MIN <= quad_tol <= 1e-6:
        raise InvalidParameter(f"quad_tol must lie in [{QUAD_TOL_MIN:.3g}, 1e-6], got {quad_tol}")
    if not -1.0 <= theta <= 1.0:
        raise InvalidParameter(f"theta must lie in [-1, 1], got {theta}")
    alpha = profile.params.alpha
    if theta == 0.0:
        if profile.kappa <= 2.0:
            raise SingularAtZero("G(0) diverges for kappa <= 2")
        c = alpha / SQRT_PI * np.exp(-alpha * alpha / 4.0)

        def f0(zeta):
            # Phi(zeta)/zeta^3 = [Phi/zeta^kappa] zeta^(kappa-3); the bracket is smooth
            return profile.c1 * kummer_m(
                profile.kappa / 2.0, profile.kappa + 0.5, -zeta * zeta / 4.0
            )

        val, err = _quad(f0, 0.0, alpha, quad_tol,
                         weight="alg", wvar=(profile.kappa - 3.0, 0.0))
        if err > 10.0 * quad_tol * abs(val):
            raise QuadratureFailure(f"G(0) quadrature error {err:.2e} above tolerance")
        return float(c * val)
    if abs(theta) == 1.0:
        return 0.0

    vmin = float(_v_min(alpha, theta))
    pref = float(_prefactor(alpha, theta))
    if vmin > 700.0:
        return 0.0
    cc = (alpha * (1.0 - theta) / 2.0) ** 2
    athe = alpha * abs(theta)

    if theta >= 0.995:
        # near theta = 1 the mass of the v-form piles onto the lower endpoint;
        # the original sigma variable is uniformly smooth there
        z_up = 1.0 / np.sqrt(vmin)

        def f_sigma(s):
            if s < 1e-8:
                return 0.0
            zeta = athe * np.sqrt(1.0 + cc * s * s)
            return np.exp(-1.0 / (s * s)) * _psi_over_zeta3(profile, zeta)

        # z_up grows like (1 - theta)^-1/2; breakpoints 4^j keep the
        # rule's nodes on the rise of exp(-1/s^2) near s = 1 and on its
        # 1/s^2 approach to 1, which one rule over [0, z_up] steps over
        breaks = 4.0 ** np.arange(-1.0, np.log(z_up) / np.log(4.0))
        val, err = _quad(f_sigma, 0.0, z_up, quad_tol, points=breaks[breaks < z_up])
        if err > 10.0 * quad_tol * abs(val):
            raise QuadratureFailure(
                f"G({theta}) quadrature error {err:.2e} above tolerance {quad_tol:.2e}"
            )
        return float(pref * val)

    def f(v):
        zeta = athe * np.sqrt(1.0 + cc / v)
        return np.exp(-v) * v**-1.5 * _psi_over_zeta3(profile, zeta)

    if vmin < 0.5:
        # small |theta| spreads algebraic decay over many decades; integrate
        # the low range in log space where it is a plain exponential
        def f_log(w):
            v = np.exp(w)
            return f(v) * v

        v1, e1 = _quad(f_log, np.log(vmin), 0.0, quad_tol)
        v2, e2 = _quad(f, 1.0, 1.0 + _V_CUT, quad_tol)
        val, err = v1 + v2, e1 + e2
    else:
        val, err = _quad(f, vmin, vmin + _V_CUT, quad_tol)
    if err > 10.0 * quad_tol * abs(val):
        raise QuadratureFailure(
            f"G({theta}) quadrature error {err:.2e} above tolerance {quad_tol:.2e}"
        )
    return float(pref * 0.5 * val)


def _g_grid(profile: Profile, thetas) -> np.ndarray:
    """Vectorized G on an array of thetas via fixed composite Gauss panels.

    Each point gets m geometric panels (ratio <= 4) from v_min up to
    v = 1, then linear panels of width 2 over the exponential range up to
    the e^-46 truncation; 16-point Gauss-Legendre per panel.  Near v_min
    the integrand falls like v^(-kappa/2), so above kappa = _GEO_KAPPA
    every panel is split into ceil(kappa/_GEO_KAPPA), which bounds its
    fall over one panel.  Relative accuracy ~1e-12, uniform in theta and
    up to kappa = 50.
    The panels of all points form one ragged list, evaluated in blocks of
    about _BLOCK_PANELS panels that split only between points; each
    point's panel sums are added in panel order by np.bincount.

    Kummer's M here is kummer_series, set up once per call for |z| up to
    alpha^2/4 (zeta <= alpha on every panel): its positive series is as
    accurate as hyp1f1 and many times cheaper per node.  The scalar path
    (g_eval, k_eval, the table's probes) keeps hyp1f1 through
    _psi_over_zeta3, so the probes stay an independent check of this one.
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
    cc = (alpha * (1.0 - tt) / 2.0) ** 2
    athe = alpha * np.abs(tt)
    kummer = kummer_series(k / 2.0, k + 0.5, alpha * alpha / 4.0)

    # edges of point i: vm ratio^j for j <= m, then 1 + width (j - m);
    # with m = 0 (vm >= 1) the linear panels start at vm itself
    split = max(1, int(np.ceil(k / _GEO_KAPPA)))
    width = 2.0 / split
    m = np.zeros(tt.shape, dtype=int)
    small = vm < 1.0
    m[small] = split * np.maximum(1, np.ceil(np.log(1.0 / vm[small]) / np.log(4.0)).astype(int))
    ratio = np.where(small, (1.0 / vm) ** (1.0 / np.maximum(m, 1)), 1.0)
    base = np.where(small, 1.0, vm)
    n_panels = m + split * _N_LIN
    first = np.concatenate(([0], np.cumsum(n_panels)))

    res = np.empty(tt.shape)
    cuts = np.unique(np.searchsorted(first, np.arange(0, first[-1], _BLOCK_PANELS)))
    for lo, hi in zip(cuts, np.append(cuts[1:], tt.size)):
        point = np.repeat(np.arange(lo, hi), n_panels[lo:hi])
        j = np.arange(first[lo], first[hi]) - first[point]
        mp, vp, rp, bp = m[point], vm[point], ratio[point], base[point]

        def edge(jj):
            return np.where(jj <= mp, vp * rp ** np.minimum(jj, mp), bp + width * (jj - mp))

        a_e = edge(j)
        b_e = edge(j + 1)
        half = 0.5 * (b_e - a_e)
        mid = 0.5 * (b_e + a_e)
        v = mid[:, None] + half[:, None] * _GL_X[None, :]
        zeta = athe[point, None] * np.sqrt(1.0 + cc[point, None] / v)
        fv = np.exp(-v) * v**-1.5 * (profile.c1 * zeta ** (k - 3.0) * kummer(-zeta * zeta / 4.0))
        res[lo:hi] = np.bincount(point - lo, weights=half * (fv @ _GL_W), minlength=hi - lo)
    out[live] = _prefactor(alpha, tt) * 0.5 * res
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


def k_grid(profile: Profile, thetas) -> np.ndarray:
    """Vectorized K on an array of thetas (fixed-rule evaluation)."""
    t = np.asarray(thetas, dtype=float)
    return t * t * (_g_grid(profile, t) + _g_grid(profile, -t))


def small_theta_coefficient(profile: Profile) -> float:
    """Coefficient A of the near-zero law G ~ A |theta|^(kappa-2), 1 < kappa < 2.

    Closed form: A = C1 alpha^(kappa-1)/sqrt(pi) *
    int_0^1 exp(-alpha^2/(4 s^2)) (1-s^2)^(-kappa/2) ds.
    """
    k = profile.kappa
    if not 1.0 < k < 2.0:
        raise InvalidParameter("closed-form small-theta coefficient needs 1 < kappa < 2")
    alpha = profile.params.alpha

    def f(s):
        return np.exp(-alpha * alpha / (4.0 * s * s)) * (1.0 + s) ** (-k / 2.0)

    val, _ = _quad(f, 0.0, 1.0, 1e-11, weight="alg", wvar=(0.0, -k / 2.0))
    return float(profile.c1 * alpha ** (k - 1.0) / SQRT_PI * val)


def gamma_const(profile: Profile, quad_tol: float = 1e-9) -> float:
    """Gamma = gamma * int_{-1}^{1} G(theta) dtheta.

    Graded geometric mesh toward theta = 0 down to 1e-10, then the
    integrable small-theta asymptote (power law, or log at kappa = 2)
    integrated in closed form with its coefficient measured at the
    matching point.  Refinement with doubled panel density provides the
    error estimate.
    """
    if not QUAD_TOL_MIN <= quad_tol <= 1e-6:
        raise InvalidParameter(f"quad_tol must lie in [{QUAD_TOL_MIN:.3g}, 1e-6], got {quad_tol}")
    t0 = 1e-10
    kappa = profile.kappa

    def panel_sum(edges: np.ndarray, f) -> float:
        half = 0.5 * (edges[1:] - edges[:-1])
        mid = 0.5 * (edges[1:] + edges[:-1])
        nodes = (mid[:, None] + half[:, None] * _GL_X[None, :]).ravel()
        fv = f(nodes).reshape(len(half), -1)
        return float(np.sum(half * (fv @ _GL_W)))

    def side(sign: float, level: int) -> float:
        # graded geometric mesh on [t0, 1/2] resolves the theta -> 0 power law
        geo = np.geomspace(t0, 0.5, 10 * 3 * level + 1)
        body = panel_sum(geo, lambda t: _g_grid(profile, sign * t))
        # theta = 1 - s^2 renders the upper half smooth (sqrt tail for +,
        # exponentially flat for -)
        s_edges = np.linspace(0.0, np.sqrt(0.5), 8 * level + 1)
        upper = panel_sum(
            s_edges, lambda s: 2.0 * s * _g_grid(profile, sign * (1.0 - s * s))
        )
        # asymptotic tail on [0, t0]
        g0 = _g_grid(profile, np.array([sign * t0]))[0]
        if abs(kappa - 2.0) <= 1e-9:
            tail = g0 / (-np.log(t0)) * (t0 - t0 * np.log(t0))
        elif kappa < 2.0:
            tail = g0 / t0 ** (kappa - 2.0) * t0 ** (kappa - 1.0) / (kappa - 1.0)
        else:
            tail = g0 * t0
        return body + upper + float(tail)

    coarse = side(1.0, 1) + side(-1.0, 1)
    fine = side(1.0, 2) + side(-1.0, 2)
    if abs(fine - coarse) > max(quad_tol, 1e-12) * abs(fine):
        raise QuadratureFailure(
            f"Gamma refinement gap {abs(fine - coarse):.2e} above tolerance"
        )
    return float(profile.gamma * fine)


# ---------------------------------------------------------------------------
# cached table and Kernel assembly

_BLEND = 1e-3  # width of the near-1 asymptotic blending zone


def k_coefficient(profile: Profile) -> float:
    """Tail coefficient k in K ~ k sqrt(1-theta): sqrt(2/pi) u*/alpha."""
    p = profile.params
    return float(np.sqrt(2.0 / np.pi) * p.u_star / p.alpha)


def _u_of_theta(theta):
    return np.arcsin(np.sqrt(np.clip(theta, 0.0, 1.0)))


def _spline_prefix(eval_fn: Callable, n_fine: int):
    """Antiderivative of K from a spline of K dtheta/du, theta = sin^2 u.

    Returns the antiderivative A(u) on n_fine uniform u-panels and
    prefix(theta) = A(u(theta)).
    """
    u_fine = np.linspace(0.0, np.pi / 2.0, n_fine + 1)
    w_fine = eval_fn(np.sin(u_fine) ** 2) * np.sin(2.0 * u_fine)
    anti = CubicSpline(u_fine, w_fine).antiderivative()

    @pointwise
    def prefix(theta):
        return anti(_u_of_theta(theta))

    return anti, prefix


def build_kernel_table(
    profile: Profile, n_points: int = 2048, quad_tol: float = 1e-9
) -> tuple[KernelTable, Kernel]:
    """Tabulate the derived kernel and wrap it as a fast Kernel.

    The grid theta = sin^2(u) with uniform u is Chebyshev-spaced, dense at
    both endpoints.  Interpolation runs on V(u) = K/sqrt(1-theta), which is
    smooth up to theta = 1; on [1 - 1e-3, 1] the evaluation blends the
    table into the exact tail asymptote k sqrt(1-theta).  The cumulative
    integral is the antiderivative of a spline of K dtheta/du on a 4x finer
    grid, so cum is exactly additive.  Off-grid probes against the adaptive
    scalar evaluator guard the interpolation error.
    """
    if not 256 <= n_points <= MAX_TABLE_POINTS:
        raise InvalidParameter(f"n_points must lie in [256, {MAX_TABLE_POINTS}], got {n_points}")
    kc = k_coefficient(profile)
    u = np.linspace(0.0, np.pi / 2.0, n_points + 1)
    thetas = np.sin(u) ** 2
    g_plus = _g_grid(profile, thetas)
    g_minus = _g_grid(profile, -thetas)
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
        uu = _u_of_theta(tt)
        root = np.sqrt(np.maximum(1.0 - tt, 0.0))
        base = v_spline(uu) * root
        w = np.clip((tt - (1.0 - _BLEND)) / _BLEND, 0.0, 1.0)
        return (1.0 - w) * base + w * kc * root

    anti, prefix = _spline_prefix(eval_fn, 4 * n_points)
    a0 = float(anti(0.0))

    gamma_c = gamma_const(profile, quad_tol)
    table = KernelTable(
        thetas=thetas,
        g_plus=g_plus,
        g_minus=g_minus,
        k_vals=k_vals,
        cum_prefix=np.asarray(anti(u)) - a0,
    )
    kern = Kernel(
        eval=eval_fn,
        prefix=prefix,
        gamma_const=gamma_c,
        sigma=0.5,
        k_coeff=kc,
        label=(
            f"derived(alpha={profile.params.alpha}, beta={profile.params.beta}, "
            f"u_star={profile.params.u_star})"
        ),
    )
    for probe in (0.1234567, 1.0 / 3.0, 0.5555555, 0.87654321):
        direct = k_eval(profile, probe, quad_tol)
        if abs(float(eval_fn(probe)) - direct) > 10.0 * quad_tol * max(1.0, abs(direct)):
            raise QuadratureFailure(
                f"table interpolation error at theta={probe} above 10*quad_tol"
            )
    return table, kern


def kernel_from_samples(
    thetas, k_values, sigma: float, k_coeff: float, gamma_const_value: float,
    label: str = "tabulated",
) -> Kernel:
    """Rebuild a Kernel from sampled (theta, K) pairs.

    Values interpolate linearly in V = K/(1-theta)^sigma; beyond the last
    node the tail is linear in sqrt(1-theta) through zero at theta = 1.
    """
    if not 0.0 < sigma < SIGMA_MAX:
        raise InvalidParameter(f"sigma must lie in (0, {SIGMA_MAX:.6f}), got {sigma}")
    t = np.asarray(thetas, dtype=float)
    k = np.asarray(k_values, dtype=float)
    if t.ndim != 1 or t.shape != k.shape or len(t) < 8:
        raise InvalidParameter("need matching 1-d theta/K arrays with >= 8 samples")
    if np.any(np.diff(t) <= 0) or t[0] < 0 or t[-1] > 1.0:
        raise InvalidParameter("theta samples must be strictly increasing in [0, 1]")
    with np.errstate(divide="ignore", invalid="ignore"):
        v = np.where(t < 1.0, k / (1.0 - t) ** sigma, k_coeff)
    t_last = t[-1]
    k_last = k[-1]

    @pointwise
    def eval_fn(theta):
        xx = np.clip(theta, 0.0, 1.0)
        inside = np.interp(xx, t, v) * (1.0 - xx) ** sigma
        if t_last < 1.0:
            tail = k_last * np.sqrt(np.maximum(1.0 - xx, 0.0)) / np.sqrt(1.0 - t_last)
            return np.where(xx <= t_last, inside, tail)
        return inside

    return Kernel(
        eval=eval_fn,
        prefix=_spline_prefix(eval_fn, 8192)[1],
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
