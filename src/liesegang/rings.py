"""Band-by-band solution of the relay integral equation.

With precipitation toggling at the ordered zeros 0 = x_0 < x_1 < ... the
equation reduces, between zeros, to the explicit partial sum

    omega(x) = Gamma - sum_{x_i < x} (-1)^i rho_i(x),
    rho_i(x) = x^2 * int_{x_i/x}^1 K(theta) dtheta,

so bands alternate: omega > 0 on (x_2j, x_2j+1) (rings), < 0 on gaps.  The
solver scans each band for the next sign change, refines it with Brent's
method, and then tests whether either sign hypothesis continues the
solution past the new zero, with both candidates written as increments
from omega = 0 at that zero.
If neither does, the pattern breaks down degenerately there; otherwise the
widths shrink geometrically and the zeros accumulate at a finite point,
with the eventual ratio bounded by the root q* of

    (1+q)^(1+sigma) - q^(1+sigma) - q - 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InvalidParameter, require_positive
from .kernel import Kernel, require_sigma
from .specfun import pointwise, root

MAX_SCAN_POINTS = 2**20  # omega evaluations of one next_zero scan, checked as it advances
_Q_FLOOR = 1e-280  # q_star's scan starts here
_TAIL_GAP = 1e-8  # below this gap 1 - theta, K and its tail integral follow k s^sigma
_GL_X, _GL_WX = np.polynomial.legendre.leggauss(16)
_GL_U, _GL_W = 0.5 * (_GL_X + 1.0), 0.5 * _GL_WX  # Gauss-Legendre on [0, 1]


class Classification(str, Enum):
    NON_DEGENERATE_ACCUMULATION = "NonDegenerateAccumulation"
    DEGENERATE = "Degenerate"
    TRUNCATED = "Truncated"


@dataclass(frozen=True)
class RingPattern:
    """Ordered zeros with breakdown classification; widths and ratios follow."""

    zeros: tuple
    classification: Classification
    x_star: float
    q_star_bound: float

    @property
    def widths(self) -> tuple:
        return tuple(np.diff(self.zeros))

    @property
    def ratios(self) -> tuple:
        w = np.diff(self.zeros)
        return tuple(w[1:] / w[:-1])

    def precipitated(self):
        """Precipitated intervals in order: the rings (x_2j, x_2j+1) and,
        when the open band is a ring, the unresolved sliver (x_last, x*)."""
        z = self.zeros
        out = [(z[i], z[i + 1]) for i in range(0, len(z) - 1, 2)]
        if len(z) % 2 == 1 and self.x_star > z[-1]:
            out.append((z[-1], self.x_star))
        return tuple(out)


@dataclass(frozen=True)
class ContinuationVerdict:
    positive_consistent: bool
    negative_consistent: bool

    @property
    def degenerate(self) -> bool:
        return not (self.positive_consistent or self.negative_consistent)


@pointwise
def omega_eval(kern: Kernel, zeros, x):
    """Partial-sum evaluation Gamma - sum_{x_i < x} (-1)^i rho_i(x).

    zeros is a confirmed prefix of the pattern (zeros[0] == 0); for x inside
    band n (past the last zero) this is exactly the continued solution with
    the band in its alternating state.
    """
    z = np.asarray(zeros, dtype=float)
    if len(z) and z[0] != 0.0:
        raise InvalidParameter("zeros must start at 0")
    out = np.full_like(x, kern.gamma_const)
    pos = x > 0
    if np.any(pos) and len(z):
        xp = x[pos]
        # one prefix call; a zero at or past x has ratio 1, so its term is 0
        ratio = np.minimum(z[:, None] / xp, 1.0)
        a = kern.prefix(np.append(ratio, 1.0))
        terms = xp**2 * (a[-1] - a[:-1].reshape(ratio.shape))
        terms[1::2] *= -1.0
        # summed in zero order: np.sum would pair the terms and round differently
        out[pos] = kern.gamma_const - np.cumsum(terms, axis=0)[-1]
    return out


def _band_value(x, kern: Kernel, zeros) -> float:
    """omega at a scalar x > 0 for root, omega_eval's bit for bit: one
    prefix call, then the terms in zero order as its cumsum adds them.  kern
    and zeros come through args=; a closure would keep the kernel alive."""
    *a, last = kern.prefix(np.array([min(z / x, 1.0) for z in zeros] + [1.0])).tolist()
    total = 0.0
    for i, ai in enumerate(a):
        total += (-1.0) ** i * (x * x * (last - ai))
    return kern.gamma_const - total


def next_zero(kern: Kernel, zeros, scan_step: float, root_tol: float,
              horizon: float, start: float) -> float | None:
    """Scan from start (the last zero, or past a touch) for the next sign
    change, then refine it with Brent's method to 4 eps relative.

    root_tol is the scan floor: the anchor past start backs off no closer
    than root_tol/4, and a rescaled stride stays at least 8 root_tol.
    Returns start itself when no point past it takes the band's sign (the
    band is below resolution), and None when no sign change occurs before
    the horizon.  Raises InvalidParameter when the scan would take over
    MAX_SCAN_POINTS points.
    """
    require_positive(scan_step=scan_step, root_tol=root_tol, horizon=horizon)
    n = len(zeros) - 1  # index of the open band
    band_sign = (-1.0) ** n

    # establish a same-sign anchor just past the zero
    a = start + scan_step
    backoff = 0
    while np.sign(omega_eval(kern, zeros, a)) != band_sign:
        a = start + (a - start) / 4.0
        backoff += 1
        if backoff > 60 or (a - start) < root_tol / 4.0:
            return start
    # a backoff means the band is thinner than the stride; rescale the scan
    # so the bracketing cannot jump across a whole band
    step = min(scan_step, max(2.0 * (a - start), 8.0 * root_tol))
    x_prev = a
    block = 512
    scanned = 0
    while x_prev < horizon:
        xs = x_prev + step * np.arange(1, block + 1)
        xs = xs[xs <= horizon]
        if len(xs) == 0:
            break
        scanned += len(xs)
        if scanned > MAX_SCAN_POINTS:
            raise InvalidParameter(
                f"a stride of {step:.3g} from {start:.6g} needs over {MAX_SCAN_POINTS} scan points"
            )
        vals = omega_eval(kern, zeros, xs)
        flip = np.nonzero(np.sign(vals) == -band_sign)[0]
        if len(flip) == 0:
            x_prev = float(xs[-1])
            continue
        j = int(flip[0])
        lo = x_prev if j == 0 else float(xs[j - 1])
        return root(_band_value, lo, float(xs[j]), args=(kern, zeros))
    return None


def _gap_eval(kern: Kernel, s):
    """K(1 - s) at gaps s > 0; below _TAIL_GAP the tail law k s^sigma."""
    return np.where(s < _TAIL_GAP, kern.k_coeff * s**kern.sigma, kern.eval(1.0 - s))


def _gap_tail(kern: Kernel, s):
    """int_{1-s}^1 K at gaps s > 0; below _TAIL_GAP the tail law's integral."""
    p = 1.0 + kern.sigma
    return np.where(s < _TAIL_GAP, kern.k_coeff * s**p / p, kern.cum(1.0 - s, 1.0))


def candidates(kern: Kernel, zeros, delta: float) -> tuple[float, float]:
    """Both continuations at z_n + delta, z_n = zeros[-1], as increments from
    omega(z_n) = 0: (without the toggle at z_n, with it).

    Each earlier relay term enters as
        rho_i(z_n + d) - rho_i(z_n) = d (2 z_n + d) int_{z_i/z_n}^1 K
                                      + (z_n + d)^2 int_{z_i/(z_n+d)}^{z_i/z_n} K,
    the short integral by 16-point Gauss-Legendre in y = z_n + d u, and the
    toggle adds the newest term (z_n + d)^2 int_{1-s}^1 K, s = d/(z_n + d).
    Every gap 1 - theta is formed from differences of zeros, so rounding
    scales with d rather than with Gamma.
    """
    z = np.asarray(zeros, dtype=float)
    zn, zi = float(z[-1]), z[:-1, None]
    x = zn + delta
    y = zn + delta * _GL_U  # theta = z_i / y sweeps the short integral
    short = delta * (_gap_eval(kern, (y - zi) / y) * zi / y**2) @ _GL_W
    incr = delta * (zn + x) * _gap_tail(kern, (zn - z[:-1]) / zn) + x * x * short
    incr[1::2] *= -1.0
    without = -float(np.sum(incr))
    newest = x * x * float(_gap_tail(kern, delta / x))
    return without, without - (-1.0) ** (len(z) - 1) * newest


def classify_continuation(kern: Kernel, zeros, delta_probe: float) -> ContinuationVerdict:
    """Test both sign hypotheses at one offset past the last zero z_n.

    Hypothesis + : the new band precipitates (omega > 0 there); its candidate
    solution includes the relay toggled at z_n when the band index is even,
    and drops the toggle otherwise.  Hypothesis - symmetrically.  A
    hypothesis is consistent when its candidate, anchored at omega(z_n) = 0
    (see candidates), carries the hypothesized sign at z_n + delta_probe.
    The toggled candidate is the untoggled one minus a positive term in the
    band's sign, so at most one hypothesis holds.
    """
    if len(zeros) < 2:
        raise InvalidParameter("need at least one positive zero to classify")
    require_positive(delta_probe=delta_probe)
    without, with_toggle = candidates(kern, zeros, delta_probe)
    if len(zeros) % 2 == 1:  # band index even: the toggled band is a ring
        return ContinuationVerdict(bool(with_toggle > 0.0), bool(without < 0.0))
    return ContinuationVerdict(bool(without > 0.0), bool(with_toggle < 0.0))


def q_star(sigma: float) -> float:
    """Unique positive root of (1+q)^(1+sigma) - q^(1+sigma) - q - 1 in (0,1).

    A geometric scan from _Q_FLOOR brackets the root (so sigma >= 0.00757,
    as it falls like sigma^(1/sigma)); Brent's method refines it to 4 eps.
    """
    require_sigma(sigma)

    def g(q):
        # (1+q)^(1+sigma) - 1 written through expm1/log1p: the root collapses
        # like sigma^(1/sigma) for small sigma and the naive form cancels
        return np.expm1((1.0 + sigma) * np.log1p(q)) - q ** (1.0 + sigma) - q

    qs = np.geomspace(_Q_FLOOR, 1.0, 4097)
    vals = g(qs)
    idx = np.nonzero((vals[:-1] > 0) & (vals[1:] <= 0))[0]
    if len(idx) == 0:
        raise InvalidParameter(f"sigma={sigma}: q* ~ sigma^(1/sigma) lies below the scan "
                               f"floor {_Q_FLOOR:g} (sigma below about 0.00757)")
    return root(g, qs[idx[0]], qs[idx[0] + 1])


def _extrapolate(zeros, q_bound: float) -> float:
    """Accumulation point x_last + d_last q/(1-q), q the geometric mean of
    the last three ratios clamped to q_bound."""
    widths = np.diff(zeros)
    ratios = widths[1:] / widths[:-1]
    q_hat = min(float(np.exp(np.mean(np.log(ratios[-3:])))), q_bound)
    return float(zeros[-1] + widths[-1] * q_hat / (1.0 - q_hat))


def solve_pattern(
    kern: Kernel,
    max_zeros: int = 64,
    min_width: float | None = None,
    horizon: float | None = None,
) -> RingPattern:
    """Iterate next_zero / classify_continuation until breakdown or budget.

    With x1 = sqrt(Gamma / int K), the first zero of any kernel, the scan
    starts at strides of x1/200 and refines to a floor of 1e-12 x1; min_width
    and horizon default to 1e-9 x1 and 20 x1.  Each zero gets one verdict at
    a probe offset far below the next band.
    Stops with Degenerate when neither continuation is consistent (x* is the
    last zero).  A zero where only the untoggled candidate holds is a touch,
    not a crossing: it is dropped and the scan resumes past the probe, at
    most max_zeros times in a row.  Stops with NonDegenerateAccumulation
    when a band width falls below min_width or, past a crossing, below the
    scan's resolution (x* extrapolated from five zeros up), and with
    Truncated when max_zeros or the horizon is exhausted first.  Raises
    InvalidParameter unless int_0^1 K is positive and finite and the
    horizon is at least x1/200.
    """
    mass = float(kern.cum(0.0, 1.0))
    require_positive(kernel_mass=mass)
    x1_scale = float(np.sqrt(kern.gamma_const / mass))
    scan_step = x1_scale / 200.0
    root_tol = 1e-12 * x1_scale
    min_width = 1e-9 * x1_scale if min_width is None else min_width
    horizon = 20.0 * x1_scale if horizon is None else horizon
    require_positive(x1=x1_scale, min_width=min_width, horizon=horizon)
    if not scan_step <= horizon:
        raise InvalidParameter(f"horizon must be at least x1/200 = {scan_step}, got {horizon}")
    if max_zeros < 1:
        raise InvalidParameter(f"max_zeros must be >= 1, got {max_zeros}")
    q_bound = q_star(kern.sigma)
    # probe offset per unit band width: sqrt(eps) lies 500 times below the
    # smallest next-band ratio seen from sigma 0.2 up (7.7e-6); below that
    # the ratios approach q*, and 1e-3 q* keeps a margin of 245 or more
    probe = min(float(np.sqrt(np.finfo(float).eps)), 1e-3 * q_bound)

    zeros = [0.0]
    start = 0.0  # where the scan resumes: the last zero, or past a touch
    step = scan_step
    touches = 0
    classification = Classification.TRUNCATED
    while True:
        z = next_zero(kern, zeros, step, root_tol, horizon, start)
        if z is None:
            break
        if z == start:  # the band is below resolution
            if len(zeros) > 1 and start == zeros[-1]:
                classification = Classification.NON_DEGENERATE_ACCUMULATION
            break
        zeros.append(z)
        width = zeros[-1] - zeros[-2]
        if width < min_width:
            classification = Classification.NON_DEGENERATE_ACCUMULATION
            break
        delta = probe * width
        verdict = classify_continuation(kern, zeros, delta)
        if verdict.degenerate:
            classification = Classification.DEGENERATE
            break
        # the toggled hypothesis takes the new band's sign, + on even bands
        if not (verdict.positive_consistent if len(zeros) % 2 else verdict.negative_consistent):
            zeros.pop()
            touches += 1
            start = z + delta
            if touches > max_zeros:
                break
            continue
        touches = 0
        start = z
        if len(zeros) >= max_zeros + 1 or z >= horizon:
            break
        step = max(min(step, width / 4.0), root_tol * 4.0)

    x_star = zeros[-1]
    if classification is Classification.NON_DEGENERATE_ACCUMULATION and len(zeros) >= 5:
        x_star = _extrapolate(np.asarray(zeros), q_bound)
    return RingPattern(
        zeros=tuple(zeros),
        classification=classification,
        x_star=float(x_star),
        q_star_bound=q_bound,
    )
