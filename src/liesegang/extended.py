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
newest panel's coefficient is the kernel mass of the (1/q)-to-1 window,
which is positive but degenerates like (q - 1)^(1+sigma).

Both march on geometric nodes x_k = x_0 q^k.  The integral is a Mellin
convolution, so in theta = y/x_k panel i of node k is [q^-(m+1), q^-m] with
m = k - 1 - i: every kernel mass and every certificate quadrature weight is
a table over the offset m, made with one prefix or eval call (Hairer, Lubich
& Schlichte, SIAM J. Sci. Stat. Comput. 6, 1985; Vainikko, Numer. Funct.
Anal. Optim. 30, 2009).  The history sums are marched in blocks of nodes,
one correlation per block (_causal_march), and each certificate is one
discrete convolution.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameter, PicardStall, SingularPanel
from .kernel import Kernel
from .rings import Classification, RingPattern
from .specfun import pointwise

_GL4_X, _GL4_W = np.polynomial.legendre.leggauss(4)
_GL4_S = 0.5 * (1.0 + _GL4_X)  # the 4-point nodes as fractions of their panel
_GL6_X, _GL6_W = np.polynomial.legendre.leggauss(6)
_ZERO = np.float64(0.0)  # 0/0 at a NaN argument gives NaN, as the array path does
MAX_NODES = 10**6  # grid nodes or panels of one march, checked before allocating
_THETA_FLOOR = 1e-6  # the first band's certificate panels are graded down to here
_BLOCK = 16  # nodes per block of the causal march; 32 times the same, 64 is slower


def _geometric_nodes(lo: float, b: float, h: float):
    """Nodes lo q^k, k = 0..n, with q <= 1 + h/b chosen so that the last is
    b: every step is at most h.  Returns (nodes, q); a single node lo = b
    comes with q = 1 + h/b."""
    steps, rate = np.log(b / lo), np.log1p(h / b)  # n = ceil(steps / rate)
    if not steps <= MAX_NODES * rate:
        raise InvalidParameter(
            f"steps of at most h = {h:.3g} from {lo:.6g} to b = {b:.6g} exceed {MAX_NODES} nodes"
        )
    if steps == 0.0:
        return np.array([lo]), 1.0 + h / b
    n = int(np.ceil(steps / rate))
    q = (b / lo) ** (1.0 / n)
    return lo * q ** np.arange(n + 1.0), q


def _mass_table(kern: Kernel, q: float, n: int):
    """Kernel masses of a geometric grid from one prefix call.

    Returns c with c[m] = A(q^-m) - A(q^-(m+1)), m = 0..n-1, the mass of
    panel i at node k being x_k^2 c[k-1-i]; and band with band[k-1] =
    A(q^-k) - A(0), k = 1..n, the mass of [0, x_0] at node k.
    """
    p = kern.prefix(np.append(q ** -np.arange(n + 1.0), 0.0))
    return p[:-2] - p[1:-1], p[1:-1] - p[-1]


def _panels(q: float, n: int, to_zero: bool = False):
    """Lower edges and widths, in theta, of the certificate's panels below
    the end panel [1/q, 1]: panel m = 1..n is [q^-(m+1), q^-m].

    With to_zero the panels go on to 0 through the first band, where rho = 1
    and the panels need only be accurate: each is 1/16 of its distance to
    theta = 1 wide in log theta (at least log q), down to _THETA_FLOOR, and
    one more reaches 0.  Their number grows like log(1/(q - 1)), not 1/(q - 1).
    """
    lo = q ** -np.arange(2.0, n + 2.0)
    width = (q - 1.0) * lo
    if to_zero:
        u = [(n + 1.0) * np.log(q)]  # -log theta of the next edge down
        while u[-1] < -np.log(_THETA_FLOOR):
            u.append(u[-1] + max(np.log(q), u[-1] / 16.0))
        edges = np.append(np.exp(-np.array(u)), 0.0)
        lo = np.append(lo, edges[1:])
        width = np.append(width, edges[:-1] - edges[1:])
    return lo, width


def _gauss_table(kern: Kernel, q: float, lo, width):
    """Certificate weights on the panels [lo, lo + width], one eval call.

    Row g, column j is panel j's 4-point Gauss weight times K at its node g,
    which sits at the fixed fraction _GL4_S[g] of the panel.  The end panel
    [1/q, 1] takes the 6-point rule in theta = 1 - t^2, where a sqrt-type
    kernel tail is polynomial; its weights come with the nodes' fractions
    (theta q - 1)/(q - 1) of the newest grid panel, for interpolating rho.
    """
    half_t = 0.5 * np.sqrt(1.0 - 1.0 / q)
    t = half_t * (1.0 + _GL6_X)
    theta_end = 1.0 - t * t
    k = kern.eval(np.concatenate([theta_end, (lo + width * _GL4_S[:, None]).ravel()]))
    end = half_t * _GL6_W * 2.0 * t * k[:6]
    table = 0.5 * _GL4_W[:, None] * width * k[6:].reshape(4, len(lo))
    return table, end, (theta_end * q - 1.0) / (q - 1.0)


def _convolve(a, b):
    """c[j] = sum_(i <= j) a[i] b[j - i] for j < len(a) = len(b), by FFT."""
    if len(a) == 0:
        return np.zeros(0)
    size = 1 << (2 * len(a) - 1).bit_length()
    return np.fft.irfft(np.fft.rfft(a, size) * np.fft.rfft(b, size), size)[: len(a)]


def _suffix_sums(values):
    """out[k] = sum(values[k:]), accumulated within blocks of 256 and then
    over the block totals, so the rounding grows with the block size and
    the block count, not with len(values)."""
    rows = -(-len(values) // 256)
    padded = np.zeros(rows * 256)
    padded[: len(values)] = values
    within = np.cumsum(padded.reshape(rows, 256)[:, ::-1], axis=1)[:, ::-1]
    later = np.append(np.cumsum(within[:0:-1, 0])[::-1], 0.0)
    return (within + later[:, None]).ravel()[: len(values)]


def _causal_march(c, step):
    """March v[k-1] = step(k, s_k) for k = 1..n = len(c), where s_k =
    sum_(i < k-1) v[i] c[k-1-i] is the history of node k without its newest
    panel; returns v.

    The nodes go in blocks of _BLOCK (Hairer, Lubich & Schlichte): the part
    of s_k from the values before the block is one correlation per block,
    the part from the block's own values a scalar sum over c[1:_BLOCK].
    """
    n = len(c)
    v = np.empty(n)
    near = c[1:_BLOCK].tolist()
    for k0 in range(1, n + 1, _BLOCK):
        k1 = min(k0 + _BLOCK, n + 1)
        if k0 == 1:
            far = [0.0] * (k1 - k0)
        else:  # far[r] = sum_(i <= k0-2) v[i] c[k0+r-1-i]
            far = np.correlate(c[1 : k1 - 1], v[k0 - 2 :: -1], "valid").tolist()
        recent = []  # the block's values, newest first, so recent[j] meets near[j]
        for k, s in zip(range(k0, k1), far):
            recent.insert(0, step(k, s + sum(map(operator.mul, recent, near))))
        v[k0 - 1 : k1 - 1] = recent[::-1]
    return v


@dataclass(frozen=True)
class Mollifier:
    """Smooth monotone ramp: 0 below -epsilon, 1 above +epsilon, 1/2 at 0."""

    epsilon: float

    def __post_init__(self):
        if not 0.0 < self.epsilon < np.inf:
            raise InvalidParameter("mollifier epsilon must be positive and finite")

    def ramp_slope(self, z: float):
        """The ramp and its derivative at one point.  np.exp, not math.exp,
        so that the value is bitwise the one numpy's array exp gives."""
        t = min(max((z + self.epsilon) / (2.0 * self.epsilon), 0.0), 1.0)
        f = np.exp(-1.0 / t) if t > 0.0 else _ZERO
        g = np.exp(-1.0 / (1.0 - t)) if t < 1.0 else _ZERO
        r = float(f / (f + g))
        if not 0.0 < r < 1.0:  # flat, and 1/t^2 or 1/(1-t)^2 may be infinite
            return r, 0.0
        u = 1.0 - t
        return r, r * (1.0 - r) * (1.0 / (t * t) + 1.0 / (u * u)) / (2.0 * self.epsilon)

    @pointwise
    def __call__(self, z):
        t = np.clip((z + self.epsilon) / (2.0 * self.epsilon), 0.0, 1.0)
        with np.errstate(divide="ignore"):
            f = np.where(t > 0.0, np.exp(-1.0 / t), 0.0)
            g = np.where(t < 1.0, np.exp(-1.0 / (1.0 - t)), 0.0)
        return f / (f + g)


@dataclass(frozen=True)
class ExtendedSolution:
    grid: np.ndarray
    omega: np.ndarray
    rho: np.ndarray
    residual: float
    residual_local: np.ndarray
    epsilon_trace: tuple  # rows (epsilon, sup-change to previous level)
    # rows (epsilon, fraction of geometric nodes in the ramp zone, max and
    # mean Newton steps of a ramp-zone node)
    newton_trace: tuple


@dataclass(frozen=True)
class _RelayGrid:
    """Output nodes of a mollified march: the first band's nodes, step at
    most h, then geometric nodes x0 q^k from grid[first] = x0 to b."""

    grid: np.ndarray
    first: int
    q: float
    mass: float  # int_0^1 K: on [0, x0], omega = Gamma - x^2 mass


def _relay_grid(kern: Kernel, mollifiers, b: float, h: float) -> _RelayGrid:
    """Check the march's inputs and lay out its nodes.

    While omega >= epsilon the ramp is exactly 1, so up to the first zero
    omega is the closed form Gamma - x^2 int_0^1 K.  The first band ends at
    x0, where that closed form falls to max(Gamma/16, min(2 eps,
    (Gamma + eps)/2)) for the widest ramp eps: above eps with a margin, and
    the same x0 for every schedule whose eps stays below Gamma/32.
    """
    if not (0.0 < b < np.inf and h > 0.0):
        raise InvalidParameter("b and h must be positive and b finite")
    if not mollifiers:
        raise InvalidParameter("need at least one mollifier")
    if any(h > m.epsilon / 4.0 for m in mollifiers):
        raise InvalidParameter("need h <= epsilon/4 to resolve the relay ramp")
    gamma = kern.gamma_const
    eps = max(m.epsilon for m in mollifiers)
    if not eps < gamma:
        raise InvalidParameter(
            f"epsilon {eps:.6g} must be below Gamma = {gamma:.6g}, or the relay has no first band"
        )
    mass = float(kern.cum(0.0, 1.0))
    x0 = min(np.sqrt((gamma - max(gamma / 16.0, min(2.0 * eps, 0.5 * (gamma + eps)))) / mass), b)
    if any(m.ramp_slope(gamma - x0 * x0 * mass)[0] != 1.0 for m in mollifiers):
        raise InvalidParameter(f"the ramp is not saturated at the first band's end x0 = {x0:.6g}")
    if not x0 <= MAX_NODES * h:
        raise InvalidParameter(f"the first band [0, {x0:.6g}] needs over {MAX_NODES} steps of h")
    nodes, q = _geometric_nodes(x0, b, h)
    band = np.linspace(0.0, x0, int(np.ceil(x0 / h)) + 1)[:-1]
    return _RelayGrid(np.concatenate([band, nodes]), len(band), q, mass)


def _relay_level(moll: Mollifier, gamma: float, x2, band, c, omega):
    """March one level over the geometric nodes 1..n = len(c), writing
    omega[k-1] at node k (x2[k] = x_k^2; see mollified_solve); returns
    (fraction of the nodes in the ramp zone, max and mean Newton steps of a
    ramp-zone node)."""
    eps, c0, n = moll.epsilon, float(c[0]) if len(c) else 0.0, len(c)
    phi_prev = 1.0  # the first band ends with the ramp saturated
    zone = most = total = 0

    def node(k, s):
        """omega at node k from its history s; returns the newest panel's
        trapezoid mean of phi = H_eps(omega)."""
        nonlocal phi_prev, zone, most, total
        xk2 = x2.item(k)
        known = gamma - xk2 * (band.item(k - 1) + s)
        c_last = xk2 * c0
        om = known - phi_prev * c_last
        if (om >= eps and phi_prev == 1.0) or (om <= -eps and phi_prev == 0.0):
            phi = phi_prev
        else:
            half = 0.5 * c_last
            a = known - half * phi_prev
            lo, hi = a - half, a
            for it in range(1, 61):
                phi, slope = moll.ramp_slope(om)
                f = om + half * phi - a
                if f > 0.0:
                    hi = om
                else:
                    lo = om
                step = f / (1.0 + half * slope)
                if not lo <= om - step <= hi:
                    step = om - 0.5 * (lo + hi)
                if abs(step) < 1e-12:
                    break
                om -= step
            else:
                raise PicardStall(f"node {k} did not converge (h too large for epsilon?)")
            zone, most, total = zone + 1, max(most, it), total + it
        omega[k - 1] = om
        mean = 0.5 * (phi_prev + phi)
        phi_prev = phi
        return mean

    _causal_march(c, node)
    return zone / max(n, 1), most, total / max(zone, 1)


def mollified_solve(kern: Kernel, mollifiers, b: float, h: float, stats=None):
    """March the mollified equation over [0, b], one row of omega per
    mollifier; returns (grid, omegas).

    The first band [0, x0] is the closed form (see _relay_grid), sampled at
    steps of at most h.  Past x0 the nodes are geometric with steps of at
    most h.  Product integration: rho-factor piecewise linear (trapezoidal
    weights), kernel mass per panel exact through prefix, so the degenerate
    last panel carries its true (q - 1)^(1+sigma) weight.  The masses of node
    k are x_k^2 c_(k-1-i) for one table c_m = A(q^-m) - A(q^-(m+1)), and the
    band adds x_k^2 (A(q^-k) - A(0)).  They do not depend on the mollifier;
    each level is marched on its own through _causal_march.

    The newest node's value solves om + (c/2) H_eps(om) = a, with c = x_k^2
    c_0 and a the rest.  If the previous node's ramp value is 1 (or 0) and
    om computed with it is at least eps (at most -eps), the ramp stays flat
    and that om is the solution, bit for bit.  Elsewhere, in the ramp zone,
    safeguarded Newton on the strictly increasing left side, bracketed by
    [a - c/2, a], stops when a step is below 1e-12.  If stats is a list, one
    row (fraction of geometric nodes in the ramp zone, max and mean Newton
    steps of a ramp-zone node) per level is appended to it.
    """
    mollifiers = list(mollifiers)
    layout = _relay_grid(kern, mollifiers, b, h)
    gamma, x = kern.gamma_const, layout.grid[layout.first :]
    n = len(x) - 1
    omegas = np.empty((len(mollifiers), len(layout.grid)))
    omegas[:, : layout.first + 1] = gamma - layout.grid[: layout.first + 1] ** 2 * layout.mass
    c, band = _mass_table(kern, layout.q, n)
    x2 = x * x
    for omega, moll in zip(omegas[:, layout.first + 1 :], mollifiers):
        row = _relay_level(moll, gamma, x2, band, c, omega)
        if stats is not None:
            stats.append(row)
    return layout.grid, omegas


def _relay_integral(kern: Kernel, layout: _RelayGrid, rho):
    """int_0^1 K(theta) rho(x theta) dtheta at every node, rho interpolated
    linearly: 4-point Gauss on each geometric panel and on panels through
    the first band (where rho = 1) down to 0 (see _panels); the end panel
    [1/q, 1] by the theta = 1 - t^2 rule.  Every weight depends on the panel
    offset alone, so the panel sums are two convolutions and the first
    band's part is a suffix sum.
    """
    r = rho[layout.first :]
    n = len(r) - 1
    table, end, frac = _gauss_table(kern, layout.q, *_panels(layout.q, n, to_zero=True))
    left, right = (1.0 - _GL4_S) @ table, _GL4_S @ table  # weights of rho at panel ends
    band = _suffix_sums(left + right)  # band[k - 1]: the panels m >= k, all with rho = 1
    end_lo, end_hi = float(np.sum(end * (1.0 - frac))), float(np.sum(end * frac))
    total = np.full(len(rho), end_lo + end_hi + band[0])  # rho = 1 on the first band
    total[layout.first + 1 :] = end_lo * r[:-1] + end_hi * r[1:] + band[:n]
    total[layout.first + 2 :] += _convolve(r[: n - 1], left[: n - 1])
    total[layout.first + 2 :] += _convolve(r[1:n], right[: n - 1])
    return total


def extended_solve(kern: Kernel, b: float, h: float, eps_sequence) -> ExtendedSolution:
    """Run the mollified march along a decreasing epsilon schedule.

    omega is the last level, rho its ramp image; the reported residual is
    the sup-norm defect of the relay equation on the grid, recomputed with
    an independent quadrature of K on eval (_relay_integral), never prefix.
    """
    eps_sequence = list(eps_sequence)
    if not eps_sequence or any(
        e2 >= e1 for e1, e2 in zip(eps_sequence, eps_sequence[1:])
    ):
        raise InvalidParameter("eps_sequence must be strictly decreasing")
    mollifiers = [Mollifier(e) for e in eps_sequence]
    stats = []
    grid, omegas = mollified_solve(kern, mollifiers, b, h, stats)
    changes = [np.nan] + [float(np.max(np.abs(o2 - o1))) for o1, o2 in zip(omegas, omegas[1:])]
    omega = omegas[-1]
    rho = mollifiers[-1](omega)
    integral = _relay_integral(kern, _relay_grid(kern, mollifiers, b, h), rho)
    local = np.abs(omega - kern.gamma_const + grid * grid * integral)
    return ExtendedSolution(
        grid=grid,
        omega=omega,
        rho=rho,
        residual=float(np.max(local)),
        residual_local=local,
        epsilon_trace=tuple(zip(map(float, eps_sequence), changes)),
        newton_trace=tuple((float(e), *row) for e, row in zip(eps_sequence, stats)),
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

    Piecewise-constant rho per panel between edges x* q^j (steps at most h),
    marched by collocation at panel right edges: the newest panel
    coefficient x_j^2 c_0 is positive, so each step is a scalar division.
    The other panels' masses are x_j^2 c_(j-1-i) from one table, as in
    mollified_solve.
    """
    history = pattern.precipitated()
    if not history or pattern.classification not in (
        Classification.NON_DEGENERATE_ACCUMULATION,
        Classification.DEGENERATE,
    ):
        raise InvalidParameter("pattern must have a ring and a known breakdown point")
    x_star = pattern.x_star
    if not (h > 0.0 and x_star + h < b < np.inf):
        raise InvalidParameter("need h > 0 and finite b exceeding x* by at least one panel")
    edges, q = _geometric_nodes(x_star, b, h)
    x = edges[1:]
    n = len(x)
    gamma = kern.gamma_const
    c = _mass_table(kern, q, n)[0]
    x2, c0 = x * x, float(c[0])
    if x2[0] * c0 < 1e3 * np.finfo(float).eps * max(gamma, 1.0):
        raise SingularPanel(f"panel 1 coefficient {x2[0] * c0:.2e} too small")
    ring_lo, ring_hi = np.transpose(history)
    # one row per ring, summed in ring order, as np.cumsum does (np.sum
    # would pair the terms)
    hist = x2 * np.cumsum(kern.cum(ring_lo[:, None] / x, ring_hi[:, None] / x), axis=0)[-1]
    rho = _causal_march(
        c, lambda j, s: (gamma - hist.item(j - 1) - x2.item(j - 1) * s) / (x2.item(j - 1) * c0)
    )

    # independent residual: rho is piecewise constant between known
    # discontinuities (ring boundaries, then panel edges), so integrate
    # K(theta) piece by piece with Gauss rules on the exact partition; the
    # rings' composite nodes are laid out once in y-space (sub-panels of at
    # most 0.04 x*), the panels' through _gauss_table
    integral = np.zeros(n)
    for lo, hi in history:
        if hi <= lo:
            continue
        sub = np.linspace(lo, hi, max(1, int(np.ceil((hi - lo) / (0.04 * x_star)))) + 1)
        half = 0.5 * (sub[1:] - sub[:-1])
        mid = 0.5 * (sub[1:] + sub[:-1])
        node_y = (mid[:, None] + half[:, None] * _GL4_X).ravel()
        node_w = (half[:, None] * _GL4_W).ravel()
        for y, w in zip(node_y, node_w):
            integral += w * kern.eval(y / x)
    integral /= x
    table, end, _ = _gauss_table(kern, q, *_panels(q, n - 1))
    integral += float(np.sum(end)) * rho
    integral[1:] += _convolve(rho[:-1], table.sum(axis=0))
    local = np.abs(gamma - x * x * integral)
    out = tuple(int(i) for i in np.nonzero((rho < -1e-6) | (rho > 1.0 + 1e-6))[0])
    return RegularExtension(
        grid=x, rho=rho, residual=float(np.max(local)),
        residual_local=local, out_of_range=out,
    )
