"""Constructive example of a kernel whose ring pattern cannot be continued.

Starting from a power-law template K* (default theta^2 sqrt(1-theta)), the
template's band solution omega* has zeros x1 < x2 with omega*'(x2) > 0.
The construction shifts the end of the first gap to x2 + eps, inserts a
monotone C^1 bridge omega_eps on [x2 - eps, x2 + 2 eps] whose value and
slope vanish at x2 + eps, and reads a new kernel off the bridge through

    K_eps(theta) = omega_eps'(x1/theta)/x1 - 2 theta (omega_eps(x1/theta) - Gamma)/x1^2

on [r, 1], r = x1/(x2 + 2 eps).  A spline head on [0, r) restores the two
mass identities  int K_hat = int K*  and  int G_hat = Gamma  (G = K/theta^2),
after which the assembled kernel K_hat reproduces x1 and x2 + eps as its
first two zeros while neither sign hypothesis continues the solution past
x2 + eps: the positive candidate equals -(1/2) x^2 int_{(x2+eps)/x}^1 K*,
which is negative, and the negative candidate equals omega_eps itself,
which is positive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import integrate, optimize
from scipy.interpolate import CubicHermiteSpline

from . import rings
from .errors import (
    BridgeInfeasible,
    EpsilonNotFound,
    InvalidParameter,
    LambdaOutOfRange,
    PositivityViolation,
    TailPowerNotFound,
    TangentialTemplate,
    VerificationFailed,
)
from .kernel import Kernel, synthetic_kernel
from .specfun import pointwise

def default_template() -> Kernel:
    return synthetic_kernel(0.5, 1.0)


def template_zeros(template: Kernel) -> tuple[float, float]:
    """First two zeros x1 < x2 of the template band solution."""
    x1 = float(np.sqrt(template.gamma_const / template.cum(0.0, 1.0)))
    value, _ = _omega_star(template, x1)
    lo, hi = x1 * 1.0001, x1 * 1.5
    no_zero = InvalidParameter(f"no second zero found for template with sigma={template.sigma}")
    # at small sigma the first gap ends before lo (synthetic: below 0.0483)
    if not value(lo) < 0:
        raise no_zero
    while value(hi) < 0:
        hi *= 1.5
        if hi > 1e6 * x1:
            raise no_zero
    return x1, optimize.brentq(value, lo, hi, xtol=np.finfo(float).tiny)  # 4 eps relative


def _omega_star(template: Kernel, x1: float):
    gamma = template.gamma_const

    @pointwise
    def value(x):
        ratio = np.minimum(np.where(x > 0, x1 / np.maximum(x, 1e-300), 1.0), 1.0)
        return gamma - x * x * template.cum(0.0, ratio)

    @pointwise
    def slope(x):
        ratio = np.minimum(np.where(x > 0, x1 / np.maximum(x, 1e-300), 1.0), 1.0)
        return -2.0 * x * template.cum(0.0, ratio) + np.where(
            x > x1, x1 * template.eval(ratio), 0.0
        )

    return value, slope


@dataclass(frozen=True)
class GapBridge:
    """Piecewise omega_eps on [0, x2 + 2 eps]: template, Hermite middle, tail."""

    template: Kernel
    x1: float
    x2: float
    epsilon: float
    z_eps: float
    left: Callable  # omega* and its slope, left of x2 - eps
    left_slope: Callable
    middle: CubicHermiteSpline
    middle_slope: Callable
    right: Callable  # (1/2) x^2 int_{(x2+eps)/x}^1 K*, from x2 + eps on

    def _pieces(self, x):
        """Template left of x2 - eps, Hermite middle, right branch from x2 + eps."""
        lo, hi = self.x2 - self.epsilon, self.x2 + self.epsilon
        return [x <= lo, (x > lo) & (x < hi), x >= hi]

    @pointwise
    def value(self, x):
        return np.piecewise(x, self._pieces(x), [self.left, self.middle, self.right])

    @pointwise
    def slope(self, x):
        t, z = self.template, self.x2 + self.epsilon

        def right(xr):
            ratio = z / xr
            return xr * t.cum(ratio, 1.0) + 0.5 * z * t.eval(ratio)

        return np.piecewise(x, self._pieces(x), [self.left_slope, self.middle_slope, right])


def build_gap_bridge(template: Kernel, x1: float, x2: float, epsilon: float) -> GapBridge:
    """Monotone C^1 filler of the shifted first gap.

    Five-node cubic Hermite on [x2 - eps, x2 + eps] with end data matched to
    the template on the left and to the zero-value, zero-slope state on the
    right; node values and slopes are sampled from a monotone quintic ramp
    and Fritsch-Carlson limited, so the filler is increasing and below
    Gamma by construction.
    """
    if epsilon <= 0 or epsilon >= x2 / 2.0:
        raise InvalidParameter("epsilon must lie in (0, x2/2)")
    gamma = template.gamma_const
    value_star, slope_star = _omega_star(template, x1)
    if slope_star(x2) <= 0:
        raise TangentialTemplate("template solution is tangential at its second zero")
    if np.any(slope_star(np.linspace(x2 - epsilon, x2, 65)) <= 0):
        raise BridgeInfeasible("omega*' is not positive on [x2 - eps, x2]")

    x_l = x2 - epsilon
    v0 = value_star(x_l)
    s0 = slope_star(x_l)
    if v0 >= 0:
        raise BridgeInfeasible("left bridge value is not negative")
    # monotone quintic ramp: slope phi(t) = s0 (1-t)^2 + c t^2 (1-t)^2 on
    # t in [0,1] integrates to |v0| over the bridge, fixing c
    c = 30.0 * (-v0 / (2.0 * epsilon) - s0 / 3.0)
    if c < 0:
        raise BridgeInfeasible("bridge slope budget is negative at this epsilon")

    def phi(t):
        return s0 * (1.0 - t) ** 2 + c * t * t * (1.0 - t) ** 2

    def ramp(t):
        # int_0^t phi, closed form
        poly_s0 = s0 * (t - t * t + t**3 / 3.0)
        poly_c = c * (t**3 / 3.0 - t**4 / 2.0 + t**5 / 5.0)
        return poly_s0 + poly_c

    t_nodes = np.linspace(0.0, 1.0, 5)
    x_nodes = x_l + 2.0 * epsilon * t_nodes
    values = v0 + 2.0 * epsilon * ramp(t_nodes)
    slopes = phi(t_nodes)
    slopes[0] = s0
    slopes[-1] = 0.0
    deltas = np.diff(values) / np.diff(x_nodes)
    if np.any(deltas <= 0):
        raise BridgeInfeasible("bridge node values are not increasing")
    for i in range(1, 4):
        slopes[i] = min(slopes[i], 3.0 * min(deltas[i - 1], deltas[i]))
    if slopes[0] > 3.0 * deltas[0] or slopes[-1] > 3.0 * deltas[-1]:
        raise BridgeInfeasible("end slopes violate the monotonicity criterion")
    middle = CubicHermiteSpline(x_nodes, values, slopes)
    middle_slope = middle.derivative()

    # z_eps: level Gamma/2 on the right branch if reached, else x2 + 2 eps
    def right(x):
        return 0.5 * x * x * template.cum((x2 + epsilon) / x, 1.0)

    z_hi = x2 + 2.0 * epsilon
    if right(z_hi) > gamma / 2.0:
        # right(x2 + eps) = 0; xtol tiny: stop on the relative test (4 eps) alone
        z_eps = optimize.brentq(
            lambda x: right(x) - gamma / 2.0, x2 + epsilon, z_hi, xtol=np.finfo(float).tiny
        )
    else:
        z_eps = z_hi

    bridge = GapBridge(template, x1, x2, epsilon, float(z_eps), value_star, slope_star,
                       middle, middle_slope, right)
    # conditions: increasing and below Gamma across the modified interval
    vals = bridge.value(np.linspace(x_l, x2 + 2.0 * epsilon, 65))
    if np.any(np.diff(vals) <= 0):
        raise BridgeInfeasible("bridge is not increasing on the modified interval")
    if np.any(vals >= gamma):
        raise BridgeInfeasible("bridge exceeds Gamma on the modified interval")
    return bridge


@dataclass(frozen=True)
class PartialKernel:
    """K_eps on [r, 1] with its antiderivative, integrals and edge density."""

    bridge: GapBridge
    r: float
    eval: Callable
    anti: Callable  # -(omega_eps(x1/theta) - Gamma) theta^2 / x1^2, d/dtheta = K_eps
    int_k: float  # int_r^1 K_eps = anti(1) - anti(r)
    int_g: float  # int_r^1 G_eps
    g_at_r: float


def kernel_from_bridge(bridge: GapBridge) -> PartialKernel:
    """Read K_eps off the bridge on [x1/(x2 + 2 eps), 1] and integrate it."""
    gamma = bridge.template.gamma_const
    x1, x2, eps = bridge.x1, bridge.x2, bridge.epsilon
    r = x1 / (x2 + 2.0 * eps)

    @pointwise
    def k_eps(th):
        x = x1 / th
        return bridge.slope(x) / x1 - 2.0 * th * (bridge.value(x) - gamma) / x1**2

    def anti(th):
        return -(bridge.value(x1 / th) - gamma) * th * th / x1**2

    def g_eps(theta):
        return k_eps(theta) / (theta * theta)

    vals = k_eps(np.linspace(r, 1.0, 1001)[:-1])
    if np.any(vals <= 0):
        raise PositivityViolation("K_eps non-positive on its domain")

    int_k = anti(1.0) - anti(r)
    breaks = sorted(
        {r, x1 / (x2 + eps), x1 / x2, x1 / (x2 - eps), x1 / (x2 - eps / 2.0)}
    )
    int_g, err = integrate.quad(
        g_eps, r, 1.0, points=[b for b in breaks if r < b < 1.0],
        epsabs=0.0, epsrel=1e-11, limit=400,
    )
    return PartialKernel(
        bridge=bridge, r=float(r), eval=k_eps, anti=anti,
        int_k=float(int_k), int_g=float(int_g), g_at_r=float(g_eps(r)),
    )


def choose_epsilon(template: Kernel, x1: float, x2: float) -> PartialKernel:
    """Scan eps = x2 * 2^-k until the head-mass inequality holds with a 10% margin.

    The inequality (int K* - int_r^1 K_eps) / (int G* - int_r^1 G_eps) < r^2
    makes room for the head construction; it holds for all small eps because
    K* = theta^2 G* pushes the masses below r^2 on [0, r].  Returns the
    accepted partial kernel; its bridge carries eps.  A tangential template
    raises TangentialTemplate from the first bridge.
    """
    gamma = template.gamma_const
    total_k = template.cum(0.0, 1.0)
    for k in range(2, 41):
        eps = x2 * 2.0**-k
        try:
            bridge = build_gap_bridge(template, x1, x2, eps)
            partial = kernel_from_bridge(bridge)
        except (BridgeInfeasible, PositivityViolation):
            continue
        r = partial.r
        num = total_k - partial.int_k
        den = gamma - partial.int_g
        if num > 0 and den > 0 and num / den < 0.9 * r * r:
            return partial
    raise EpsilonNotFound("no admissible epsilon within 40 halvings")


@dataclass(frozen=True)
class DegenerateConstruction:
    template: Kernel
    x1: float
    x2: float
    epsilon: float
    z_eps: float
    r: float
    r_star: float
    n_power: int
    lambda_star: float
    k_star: float
    result: Kernel
    theta_breaks: tuple = ()  # kink/cusp locations of K_hat, for samplers


def fill_head(partial: PartialKernel) -> DegenerateConstruction:
    """Head construction on [0, r) and assembly of the full kernel K_hat.

    Choose the smallest tail power n with
        r*^2 = (int K* - int_r^1 K_eps - G_eps(r) r^3/(n+3))
             / (int G* - int_r^1 G_eps - G_eps(r) r/(n+1))  in (0, r^2),
    then mixes two quartic bumps b1 on [0, r*/2] and b2 on [r*, r] with the
    weight lambda* solving B1(lambda)/B2(lambda) = r*^2, and adds the tail
    G_eps(r) theta^(n+2)/r^n.  The construction forces int K_hat = int K*
    and int G_hat = Gamma; the moments, b_norm, head and prefix all come
    from one polynomial per bump, so int K_hat meets int K* to rounding.
    """
    bridge, r = partial.bridge, partial.r
    template = bridge.template
    gamma = template.gamma_const
    total_k = template.cum(0.0, 1.0)
    mass_k = total_k - partial.int_k
    mass_g = gamma - partial.int_g
    g_r = partial.g_at_r

    n_power = None
    for n in range(1, 201):
        num = mass_k - g_r * r**3 / (n + 3.0)
        den = mass_g - g_r * r / (n + 1.0)
        if num > 0 and den > 0 and num / den < r * r:
            n_power = n
            r_star2 = num / den
            k_star = num
            break
    if n_power is None:
        raise TailPowerNotFound("no tail power n <= 200 satisfies the ratio bound")
    r_star = float(np.sqrt(r_star2))

    # each bump (theta - lo)^4 (hi - theta)^4 is one polynomial; its moments,
    # b_norm, the head and its prefix all come from it
    th = np.polynomial.Polynomial([0.0, 1.0])
    supports = ((0.0, r_star / 2.0), (r_star, r))
    bumps = [(th - lo) ** 4 * (hi - th) ** 4 for lo, hi in supports]
    weighted = [th * th * b for b in bumps]
    anti_w = [w.integ() for w in weighted]

    def bump_masses(t):
        # int_lo^t theta^2 b of each bump, t clipped to the bump's support
        return [a(np.clip(t, lo, hi)) - a(lo) for a, (lo, hi) in zip(anti_w, supports)]

    i0_b1, i0_b2 = (b.integ()(hi) - b.integ()(lo) for b, (lo, hi) in zip(bumps, supports))
    i2_b1, i2_b2 = bump_masses(r)
    if not (i2_b1 / i0_b1 < r_star2 < i2_b2 / i0_b2):
        raise LambdaOutOfRange("bump second moments do not bracket r*^2")
    # B1(lambda)/B2(lambda) = r*^2 is linear in lambda; the complement
    # mu = 1 - lambda is carried explicitly because lambda* can sit within
    # round-off of 1 when the bump masses are lopsided
    a1 = i2_b1 - r_star2 * i0_b1
    a2 = i2_b2 - r_star2 * i0_b2
    lambda_star = a2 / (a2 - a1)
    mu_star = -a1 / (a2 - a1)
    if not (lambda_star > 0.0 and mu_star > 0.0):
        raise LambdaOutOfRange(f"lambda* = {lambda_star} outside (0, 1)")
    b_norm = lambda_star * i2_b1 + mu_star * i2_b2

    def head(t):
        # near a bump's ends the power basis can round below 0
        w1, w2 = (np.where((t >= lo) & (t <= hi), np.maximum(w(t), 0.0), 0.0)
                  for w, (lo, hi) in zip(weighted, supports))
        spline = k_star / b_norm * (lambda_star * w1 + mu_star * w2)
        return spline + g_r * t ** (n_power + 2) / r**n_power

    def head_prefix(t):
        part1, part2 = bump_masses(t)
        spline = k_star / b_norm * (lambda_star * part1 + mu_star * part2)
        return spline + g_r * t ** (n_power + 3) / ((n_power + 3.0) * r**n_power)

    x1, x2, eps = bridge.x1, bridge.x2, bridge.epsilon
    anti = partial.anti
    # on [r, 1] the prefix is measured down from theta = 1: prefix(1) is the
    # sum head mass + int_k that k_star balances against int K*
    total, top = float(head_prefix(r)) + partial.int_k, anti(1.0)

    @pointwise
    def eval_fn(theta):
        return np.piecewise(theta, [theta < r], [
            head, lambda th: partial.eval(np.minimum(th, 1.0))
        ])

    @pointwise
    def prefix(theta):
        flat = np.clip(theta, 0.0, 1.0)
        return np.piecewise(flat, [flat <= r], [
            head_prefix, lambda th: total - (top - anti(th))
        ])

    kern = Kernel(
        eval=eval_fn,
        prefix=prefix,
        gamma_const=gamma,
        sigma=template.sigma,
        k_coeff=template.k_coeff,
        label=f"degenerate(eps={eps:.6g})",
    )
    # non-smooth points: spline-head seams, the gluing point r, the images of
    # the bridge nodes, and the sqrt cusp at x1/(x2 + eps)
    breaks = {r_star / 2.0, r_star, float(r)}
    for k in range(5):
        breaks.add(x1 / (x2 - eps + k * eps / 2.0))
    return DegenerateConstruction(
        template=template,
        x1=x1,
        x2=x2,
        epsilon=eps,
        z_eps=bridge.z_eps,
        r=float(r),
        r_star=r_star,
        n_power=n_power,
        lambda_star=float(lambda_star),
        k_star=float(k_star),
        result=kern,
        theta_breaks=tuple(sorted(b for b in breaks if 0.0 < b < 1.0)),
    )


def construct_degenerate(template: Kernel | None = None) -> DegenerateConstruction:
    """Full pipeline: zeros, epsilon scan (which builds the accepted bridge
    and partial kernel once), head fill."""
    template = template or default_template()
    x1, x2 = template_zeros(template)
    partial = choose_epsilon(template, x1, x2)
    cons = fill_head(partial)

    # mass identities must hold by construction; verify to 1e-8 with the
    # head contribution in closed form and the K_eps region independently
    # quadratured in kernel_from_bridge; a NaN (an overflowing scale) fails
    total_k = template.cum(0.0, 1.0)
    got_k = cons.result.cum(0.0, 1.0)
    if not abs(got_k - total_k) <= 1e-8:
        raise VerificationFailed(
            f"{template.label}: kernel mass mismatch {got_k - total_k:.2e}"
        )
    head_g = cons.k_star / cons.r_star**2 + partial.g_at_r * cons.r / (cons.n_power + 1.0)
    g_int = head_g + partial.int_g
    if not abs(g_int - template.gamma_const) <= 1e-8:
        raise VerificationFailed(
            f"{template.label}: Gamma identity mismatch {g_int - template.gamma_const:.2e}"
        )
    return cons


def verify_degeneracy(cons: DegenerateConstruction) -> bool:
    """Solve the ring pattern for K_hat and certify the breakdown at x2 + eps."""
    kern = cons.result
    x_break = cons.x2 + cons.epsilon
    pattern = rings.solve_pattern(kern, max_zeros=4, horizon=3.0 * x_break)
    if pattern.classification is not rings.Classification.DEGENERATE:
        raise VerificationFailed(
            f"pattern classified {pattern.classification.value}, expected Degenerate"
        )
    if len(pattern.zeros) != 3:
        raise VerificationFailed(f"expected exactly 2 zeros, got {len(pattern.zeros) - 1}")
    if abs(pattern.zeros[1] - cons.x1) > 1e-11 * cons.x1:
        raise VerificationFailed("first zero does not match the template x1")
    # the second zero is tangential (value and slope vanish), so its
    # location is conditioned only to the width of the round-off plateau
    if abs(pattern.zeros[2] - x_break) > 1e-6 * x_break:
        raise VerificationFailed("second zero does not match x2 + eps")
    # explicit candidate identities just past the breakdown
    for delta in (1e-4, 1e-5):
        x = x_break + delta
        cand_pos = rings.omega_eval(kern, [0.0, cons.x1, x_break], x)
        expected = -0.5 * x * x * cons.template.cum(x_break / x, 1.0)
        if abs(cand_pos - expected) > 1e-8:
            raise VerificationFailed(
                f"positive candidate deviates from -(1/2) x^2 int K*: {cand_pos - expected:.2e}"
            )
        if not cand_pos < 0:
            raise VerificationFailed("positive candidate is not negative")
        cand_neg = rings.omega_eval(kern, [0.0, cons.x1], x)
        if not cand_neg > 0:
            raise VerificationFailed("negative candidate is not positive")
    return True
