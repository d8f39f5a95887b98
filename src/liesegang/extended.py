"""Completed-relay (extended) solutions past the breakdown point.

An extended solution is a pair (omega, rho) with

    omega(x) = Gamma - x^2 * int_0^1 K(theta) rho(x theta) dtheta,
    rho(y) in {0} / [0,1] / {1}  as  omega(y) < 0 / = 0 / > 0.

The solver replaces the Heaviside selection by a smooth ramp H_eps and
marches the causal fixed point node by node (each omega(x) depends on
[0, x] only); rho is extracted at the last mollification level and the
defect of the unmollified equation is recomputed with an independent
quadrature as the certificate.

The regular extension instead imposes omega = 0 past the breakdown point
x* and solves the resulting first-kind problem for rho panel by panel; the
newest panel's coefficient is the kernel mass of the (1 - h/x)-to-1 window,
which is positive but degenerates like h^(1+sigma).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameter, PicardStall, SingularPanel
from .kernel import Kernel
from .rings import Classification, RingPattern
from .specfun import pointwise

_GL4_X, _GL4_W = np.polynomial.legendre.leggauss(4)
_GL6_X, _GL6_W = np.polynomial.legendre.leggauss(6)
_ZERO = np.float64(0.0)  # 0/0 at a NaN argument gives NaN, as the array path does


def _end_panel(theta_lo: float):
    """6-point Gauss rule on the degenerate panel [theta_lo, 1], theta = 1 - t^2.

    The sqrt-type kernel tail is polynomial in t.  Returns the theta nodes,
    dtheta/dt at the nodes and the half-width of the t-interval, so that
    int_theta_lo^1 f dtheta ~ half * sum(_GL6_W * f(theta) * jac).
    """
    half = 0.5 * np.sqrt(max(1.0 - theta_lo, 0.0))
    t = half + half * _GL6_X
    return 1.0 - t * t, 2.0 * t, half


@dataclass(frozen=True)
class Mollifier:
    """Smooth monotone ramp: 0 below -epsilon, 1 above +epsilon, 1/2 at 0."""

    epsilon: float

    def __post_init__(self):
        if not 0.0 < self.epsilon < np.inf:
            raise InvalidParameter("mollifier epsilon must be positive and finite")

    def ramp(self, z: float) -> float:
        """The ramp at one point.  np.exp, not math.exp, so that the value
        is bitwise the one numpy's array exp gives."""
        t = min(max((z + self.epsilon) / (2.0 * self.epsilon), 0.0), 1.0)
        f = np.exp(-1.0 / t) if t > 0.0 else _ZERO
        g = np.exp(-1.0 / (1.0 - t)) if t < 1.0 else _ZERO
        return float(f / (f + g))

    @pointwise
    def __call__(self, z):
        return np.fromiter(map(self.ramp, z.tolist()), float, len(z))


@dataclass(frozen=True)
class ExtendedSolution:
    grid: np.ndarray
    omega: np.ndarray
    rho: np.ndarray
    residual: float
    residual_local: np.ndarray
    epsilon_trace: tuple  # rows (epsilon, sup-change to previous level)


def mollified_solve(kern: Kernel, mollifiers, b: float, h: float):
    """March the mollified equation on a uniform grid over [0, b], one row
    of omega per mollifier.

    Product integration: rho-factor piecewise linear (trapezoidal weights),
    kernel mass per panel exact through cum, so the degenerate last panel
    carries its true h^(1+sigma) weight.  The masses do not depend on the
    mollifier, so every level is marched in the same pass over the nodes,
    each with its own sums.  The implicit last-node value is resolved by
    Picard iteration, which contracts because that weight is small.
    """
    mollifiers = list(mollifiers)
    if not (0.0 < b < np.inf and h > 0.0):
        raise InvalidParameter("b and h must be positive and b finite")
    if not mollifiers:
        raise InvalidParameter("need at least one mollifier")
    if any(h > m.epsilon / 4.0 for m in mollifiers):
        raise InvalidParameter("need h <= epsilon/4 to resolve the relay ramp")
    n = int(round(b / h))
    x = h * np.arange(n + 1)
    gamma = kern.gamma_const
    omegas = np.empty((len(mollifiers), n + 1))
    omegas[:, 0] = gamma
    # per level: trapezoid means 0.5 (phi[i] + phi[i+1]) of phi = H_eps(omega),
    # and phi at the newest node
    means = np.empty((len(mollifiers), n))
    phi_last = [m.ramp(gamma) for m in mollifiers]
    for k in range(1, n + 1):
        xk = x[k]
        theta = x[: k + 1] / xk
        masses = xk * xk * kern.cum(theta[:-1], theta[1:])
        c_last = float(masses[k - 1])
        for j, moll in enumerate(mollifiers):
            known = float(np.dot(means[j, : k - 1], masses[: k - 1]))
            phi_prev = phi_k = phi_last[j]
            om_prev = None
            for it in range(60):
                om = gamma - known - 0.5 * (phi_prev + phi_k) * c_last
                phi_k = moll.ramp(om)
                if om_prev is not None and abs(om - om_prev) < 1e-12 and it >= 2:
                    break
                om_prev = om
            else:
                raise PicardStall(f"node {k} did not contract (h too large for epsilon?)")
            omegas[j, k] = om
            means[j, k - 1] = 0.5 * (phi_prev + phi_k)
            phi_last[j] = phi_k
    return x, omegas


def extended_solve(kern: Kernel, b: float, h: float, eps_sequence) -> ExtendedSolution:
    """Run the mollified march along a decreasing epsilon schedule.

    omega is the last level, rho its ramp image; the reported residual is
    the sup-norm defect of the relay equation on the grid, recomputed with
    an independent quadrature: composite 4-point Gauss per grid panel with
    K evaluated pointwise and rho interpolated linearly, the nodes and the
    rho-weights laid out once in y-space; the degenerate final panel is
    mapped by theta = 1 - t^2, where the sqrt-type kernel tail is polynomial.
    """
    eps_sequence = list(eps_sequence)
    if not eps_sequence or any(
        e2 >= e1 for e1, e2 in zip(eps_sequence, eps_sequence[1:])
    ):
        raise InvalidParameter("eps_sequence must be strictly decreasing")
    mollifiers = [Mollifier(e) for e in eps_sequence]
    grid, omegas = mollified_solve(kern, mollifiers, b, h)
    changes = [np.nan] + [float(np.max(np.abs(o2 - o1))) for o1, o2 in zip(omegas, omegas[1:])]
    omega = omegas[-1]
    rho = mollifiers[-1](omega)
    half = 0.5 * (grid[1:] - grid[:-1])
    mid = 0.5 * (grid[1:] + grid[:-1])
    node_y = (mid[:, None] + half[:, None] * _GL4_X[None, :]).ravel()
    node_wr = (half[:, None] * _GL4_W[None, :]).ravel() * np.interp(node_y, grid, rho)
    local = np.zeros(len(grid))
    for k in range(1, len(grid)):
        x = grid[k]
        total = float(np.dot(node_wr[: 4 * (k - 1)], kern.eval(node_y[: 4 * (k - 1)] / x))) / x
        th, jac, half_t = _end_panel(grid[k - 1] / x)
        rv = np.interp(th * x, grid[: k + 1], rho[: k + 1])
        total += float(np.sum(_GL6_W * kern.eval(th) * rv * jac) * half_t)
        local[k] = abs(float(omega[k] - kern.gamma_const + x * x * total))
    return ExtendedSolution(
        grid=grid,
        omega=omega,
        rho=rho,
        residual=float(np.max(local)),
        residual_local=local,
        epsilon_trace=tuple(zip(map(float, eps_sequence), changes)),
    )


@dataclass(frozen=True)
class RegularExtension:
    grid: np.ndarray  # panel right edges in (x*, b]
    rho: np.ndarray  # piecewise-constant rho per panel
    residual: float  # worst defect of the first-kind equation, independent quadrature
    residual_local: np.ndarray
    out_of_range: tuple  # panel indices where rho leaves [0, 1] by more than 1e-6


def regular_extension_solve(
    kern: Kernel, pattern: RingPattern, b: float, h: float
) -> RegularExtension:
    """Impose omega = 0 on (x*, b] and solve the first-kind equation for rho.

    Piecewise-constant rho per panel, marched by collocation at panel right
    edges: the newest panel coefficient x^2 int_(panel) K(y/x) dy/x is
    positive, so each step is a scalar division.
    """
    if pattern.classification not in (
        Classification.NON_DEGENERATE_ACCUMULATION,
        Classification.DEGENERATE,
    ):
        raise InvalidParameter("pattern must have a known breakdown point")
    x_star = pattern.x_star
    if not (h > 0.0 and x_star + h < b < np.inf):
        raise InvalidParameter("need h > 0 and finite b exceeding x* by at least one panel")
    gamma = kern.gamma_const
    m = int(np.floor((b - x_star) / h))
    edges = x_star + h * np.arange(m + 1)
    history = pattern.precipitated()
    rho = np.empty(m)
    for j in range(1, m + 1):
        x = edges[j]
        hist = 0.0  # scalar cum calls: one array call would round differently
        for lo, hi in history:
            hist += float(kern.cum(lo / x, hi / x))
        hist *= x * x
        prev = float(
            np.dot(rho[: j - 1], x * x * kern.cum(edges[: j - 1] / x, edges[1:j] / x))
        ) if j > 1 else 0.0
        coeff = x * x * float(kern.cum(edges[j - 1] / x, 1.0))
        if coeff < 1e3 * np.finfo(float).eps * max(gamma, 1.0):
            raise SingularPanel(f"panel {j} coefficient {coeff:.2e} too small")
        rho[j - 1] = (gamma - hist - prev) / coeff

    # independent residual: rho is piecewise constant between known
    # discontinuities (ring boundaries, then panel edges), so integrate
    # K(theta) piece by piece with Gauss rules on the exact partition
    pieces = [(lo, hi, 1.0) for lo, hi in history if hi > lo]  # (y_lo, y_hi, rho)
    for j in range(m):
        pieces.append((float(edges[j]), float(edges[j + 1]), float(rho[j])))

    # composite Gauss nodes are laid out once in y-space (sub-panels narrow
    # enough for every collocation point); the piece adjoining theta = 1 is
    # re-mapped per point since it is the one that degenerates
    node_y, node_w = [], []
    for lo, hi, val in pieces[:-1]:
        if val == 0.0:
            continue
        n_sub = max(1, int(np.ceil((hi - lo) / (0.04 * x_star))))
        sub = np.linspace(lo, hi, n_sub + 1)
        half = 0.5 * (sub[1:] - sub[:-1])
        mid = 0.5 * (sub[1:] + sub[:-1])
        node_y.append((mid[:, None] + half[:, None] * _GL4_X[None, :]).ravel())
        node_w.append((val * half[:, None] * _GL4_W[None, :]).ravel())
    node_y = np.concatenate(node_y) if node_y else np.empty(0)
    node_w = np.concatenate(node_w) if node_w else np.empty(0)

    local = np.zeros(m)
    for j in range(1, m + 1):
        x = edges[j]
        live = np.searchsorted(node_y, edges[j - 1])  # node_y is sorted
        total = float(np.dot(node_w[:live], kern.eval(node_y[:live] / x))) / x
        # newest panel [edges[j-1], x] adjoins theta = 1
        th, jac, half = _end_panel(edges[j - 1] / x)
        total += rho[j - 1] * half * float(np.dot(_GL6_W, kern.eval(th) * jac))
        local[j - 1] = abs(float(gamma - x * x * total))
    out = tuple(int(i) for i in np.nonzero((rho < -1e-6) | (rho > 1.0 + 1e-6))[0])
    return RegularExtension(
        grid=edges[1:], rho=rho, residual=float(np.max(local)),
        residual_local=local, out_of_range=out,
    )
