"""Constructive example of a kernel whose ring pattern cannot be continued.

Starting from a power-law template K* (default theta^2 sqrt(1-theta)), the
template's band solution omega* has zeros x1 < x2 with omega*'(x2) > 0.
The construction shifts the end of the first gap to x2 + eps and bridges
it with omega_eps on [x2 - eps, x2 + 2 eps]: one monotone cubic Hermite
piece on [x2 - eps, x2 + eps] whose value and slope vanish at x2 + eps
(refused iff omega*'(x2 - eps) > 3 |omega*(x2 - eps)| / (2 eps)), then the
right branch.  It reads a new kernel off the bridge through

    K_eps(theta) = omega_eps'(x1/theta)/x1 - 2 theta (omega_eps(x1/theta) - Gamma)/x1^2

on [r, 1], r = x1/(x2 + 2 eps).  A spline head on [0, r) restores the two
mass identities  int K_hat = int K*  and  int G_hat = Gamma  (G = K/theta^2),
after which the assembled kernel K_hat reproduces x1 and x2 + eps as its
first two zeros while neither sign hypothesis continues the solution past
x2 + eps: the positive candidate equals -(1/2) x^2 int_{(x2+eps)/x}^1 K*,
which is negative, and the negative candidate equals omega_eps itself,
which is positive.  K_hat's kinks (theta_breaks) are the head seams r*/2
and r*, the gluing point r, and the images x1/(x2 - eps) and x1/(x2 + eps)
of the cubic's ends, the second a sqrt cusp.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import special
from scipy.interpolate import CubicHermiteSpline

from . import rings
from .errors import BridgeInfeasible, InvalidParameter, TangentialTemplate, VerificationFailed
from .kernel import Kernel, synthetic_kernel
from .specfun import integral, pointwise, root

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
    return x1, root(value, lo, hi)


def _omega_star(template: Kernel, x1: float):
    gamma = template.gamma_const

    @pointwise
    def value(x):
        return gamma - x * x * template.cum(0.0, x1 / np.maximum(x, x1))

    @pointwise
    def slope(x):
        ratio = x1 / np.maximum(x, x1)
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

        return np.piecewise(
            x, self._pieces(x), [self.left_slope, lambda xm: self.middle(xm, 1), right]
        )


def build_gap_bridge(template: Kernel, x1: float, x2: float, epsilon: float) -> GapBridge:
    """Monotone C^1 filler of the shifted first gap.

    One cubic Hermite piece on [x2 - eps, x2 + eps] from the template's value
    v0 < 0 and slope s0 > 0 at x2 - eps to value and slope 0 at x2 + eps.
    By the Fritsch-Carlson test on one interval it is increasing, and so
    below Gamma, iff s0 <= 3 (-v0)/(2 eps); it is refused otherwise.  It
    meets zero to second order: a higher-order contact would widen the
    round-off plateau in which the tangential zero at x2 + eps is found.
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
    # the secant less a third of s0: negative iff s0 > 3 (-v0)/(2 eps)
    if -v0 / (2.0 * epsilon) - s0 / 3.0 < 0:
        raise BridgeInfeasible("bridge slope budget is negative at this epsilon")
    middle = CubicHermiteSpline([x_l, x2 + epsilon], [v0, 0.0], [s0, 0.0])

    # z_eps: level Gamma/2 on the right branch if reached, else x2 + 2 eps
    def right(x):
        return 0.5 * x * x * template.cum((x2 + epsilon) / x, 1.0)

    z_hi = x2 + 2.0 * epsilon
    if right(z_hi) > gamma / 2.0:
        # right(x2 + eps) = 0
        z_eps = root(lambda x: right(x) - gamma / 2.0, x2 + epsilon, z_hi)
    else:
        z_eps = z_hi

    bridge = GapBridge(template, x1, x2, epsilon, float(z_eps), value_star, slope_star,
                       middle, right)
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
        raise BridgeInfeasible("K_eps non-positive on its domain")

    int_k = anti(1.0) - anti(r)
    breaks = sorted({r, x1 / (x2 + eps), x1 / (x2 - eps)})
    int_g = integral(g_eps, r, 1.0, 1e-11, "G_eps", points=[b for b in breaks if r < b < 1.0])
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
        except BridgeInfeasible:
            continue
        r = partial.r
        num = total_k - partial.int_k
        den = gamma - partial.int_g
        if num > 0 and den > 0 and num / den < 0.9 * r * r:
            return partial
    raise BridgeInfeasible("no admissible epsilon within 40 halvings")


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
    and int G_hat = Gamma; each bump is a product and its mass a sum of
    non-negative incomplete Betas, so int K_hat meets int K* to rounding.
    """
    bridge, r = partial.bridge, partial.r
    template = bridge.template
    gamma = template.gamma_const
    mass_k = template.cum(0.0, 1.0) - partial.int_k
    mass_g = gamma - partial.int_g
    g_r = partial.g_at_r

    for n_power in range(1, 201):
        k_star = mass_k - g_r * r**3 / (n_power + 3.0)
        den = mass_g - g_r * r / (n_power + 1.0)
        if k_star > 0 and den > 0 and k_star / den < r * r:
            r_star2 = k_star / den
            break
    else:
        raise BridgeInfeasible("no tail power n <= 200 satisfies the ratio bound")
    r_star = float(np.sqrt(r_star2))

    # each bump is theta^2 (theta - lo)^4 (hi - theta)^4 on [lo, hi]; with
    # theta = lo + L s its mass up to lo + u L is L^9 int_0^u (lo + L s)^2
    # s^4 (1-s)^4 ds, a sum of non-negative incomplete Betas I_u(5|6|7, 5)
    # weighted by B(5,5) = 2 B(6,5) = 1/630 and B(7,5) = 1/2310
    supports = ((0.0, r_star / 2.0), (r_star, r))

    def bump_mass(lo, hi, u):
        length = hi - lo
        i5, i6, i7 = (special.betainc(a, 5.0, u) for a in (5.0, 6.0, 7.0))
        return length**9 * (lo * lo * i5 / 630.0 + lo * length * i6 / 630.0
                            + length * length * i7 / 2310.0)

    i2_b1, i2_b2 = (bump_mass(lo, hi, 1.0) for lo, hi in supports)
    i0_b1, i0_b2 = ((hi - lo) ** 9 / 630.0 for lo, hi in supports)
    # B1(lambda)/B2(lambda) = r*^2 is linear in lambda; mu = 1 - lambda is
    # carried explicitly, as lambda* can sit within round-off of 1.  Both lie
    # in (0, 1) for 0 < r* < r, so they fail only where r* rounds to r
    a1 = i2_b1 - r_star2 * i0_b1
    a2 = i2_b2 - r_star2 * i0_b2
    lambda_star = a2 / (a2 - a1)
    mu_star = -a1 / (a2 - a1)
    if not (lambda_star > 0.0 and mu_star > 0.0):
        raise BridgeInfeasible(f"r* = {r_star!r} leaves a head bump no support in "
                               f"[0, r = {r!r}]: lambda* = {lambda_star}")
    b_norm = lambda_star * i2_b1 + mu_star * i2_b2

    def head(t):
        w1, w2 = (np.where((t >= lo) & (t <= hi), t * t * ((t - lo) * (hi - t)) ** 4, 0.0)
                  for lo, hi in supports)
        spline = k_star / b_norm * (lambda_star * w1 + mu_star * w2)
        return spline + g_r * t ** (n_power + 2) / r**n_power

    def head_prefix(t):
        part1, part2 = (bump_mass(lo, hi, np.clip((t - lo) / (hi - lo), 0.0, 1.0))
                        for lo, hi in supports)
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
    # non-smooth points: spline-head seams, the gluing point r, and the
    # images of the bridge's ends (x1/(x2 + eps) is a sqrt cusp)
    breaks = {r_star / 2.0, r_star, float(r), x1 / (x2 - eps), x1 / (x2 + eps)}
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
