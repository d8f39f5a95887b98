"""Band-by-band solution of the relay integral equation.

With precipitation toggling at the ordered zeros 0 = x_0 < x_1 < ... the
equation reduces, between zeros, to the explicit partial sum

    omega(x) = Gamma - sum_{x_i < x} (-1)^i rho_i(x),
    rho_i(x) = x^2 * int_{x_i/x}^1 K(theta) dtheta,

so bands alternate: omega > 0 on (x_2j, x_2j+1) (rings), < 0 on gaps.  The
solver scans each band for the next sign change, refines it with Brent's
method, and then tests whether either sign hypothesis continues the
solution past the new zero.
If neither does, the pattern breaks down degenerately there; otherwise the
widths shrink geometrically and the zeros accumulate at a finite point,
with the eventual ratio bounded by the root q* of

    (1+q)^(1+sigma) - q^(1+sigma) - q - 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy import optimize

from .errors import AmbiguousContinuation, InvalidParameter, require_positive
from .kernel import SIGMA_MAX, Kernel
from .specfun import pointwise

MAX_SCAN_POINTS = 2**20  # omega evaluations of one next_zero scan, checked as it advances


class Classification(str, Enum):
    NON_DEGENERATE_ACCUMULATION = "NonDegenerateAccumulation"
    DEGENERATE = "Degenerate"
    TRUNCATED = "Truncated"


@dataclass(frozen=True)
class RingPattern:
    """Ordered zeros with widths, ratios and breakdown classification."""

    zeros: tuple
    widths: tuple
    ratios: tuple
    classification: Classification
    x_star: float
    q_star_bound: float

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
    positive_refuted: bool
    negative_refuted: bool

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
    """omega at a scalar x, for brentq: kern and zeros go through args=, as a
    closure over them would keep the kernel alive until a full collection."""
    return omega_eval(kern, zeros, x)


def next_zero(kern: Kernel, zeros, scan_step: float, root_tol: float,
              horizon: float) -> float | None:
    """Scan past the last zero for the next sign change, then refine it with
    Brent's method to 4 eps relative.

    root_tol is the scan floor: the anchor past the last zero backs off no
    closer than root_tol/4, and a rescaled stride stays at least 8 root_tol.
    Returns None when no sign change occurs before the horizon (the band
    extends beyond it, or widths fell below resolution).  Raises
    InvalidParameter when the scan would take over MAX_SCAN_POINTS points.
    """
    require_positive(scan_step=scan_step, root_tol=root_tol, horizon=horizon)
    last = zeros[-1] if zeros else 0.0
    n = len(zeros) - 1  # index of the open band
    band_sign = (-1.0) ** n

    # establish a same-sign anchor just past the zero
    a = last + scan_step
    backoff = 0
    while np.sign(omega_eval(kern, zeros, a)) != band_sign:
        a = last + (a - last) / 4.0
        backoff += 1
        if backoff > 60 or (a - last) < root_tol / 4.0:
            return None
    # a backoff means the band is thinner than the stride; rescale the scan
    # so the bracketing cannot jump across a whole band
    step = min(scan_step, max(2.0 * (a - last), 8.0 * root_tol))
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
                f"a stride of {step:.3g} from {last:.6g} needs over {MAX_SCAN_POINTS} scan points"
            )
        vals = omega_eval(kern, zeros, xs)
        flip = np.nonzero(np.sign(vals) == -band_sign)[0]
        if len(flip) == 0:
            x_prev = float(xs[-1])
            continue
        j = int(flip[0])
        lo = x_prev if j == 0 else float(xs[j - 1])
        # xtol tiny: stop on the relative test (4 eps) alone
        return optimize.brentq(_band_value, lo, float(xs[j]), args=(kern, zeros),
                               xtol=np.finfo(float).tiny)
    return None


def classify_continuation(kern: Kernel, zeros, delta_probe: float,
                          root_tol: float = 1e-12) -> ContinuationVerdict:
    """Test both sign hypotheses just past the last confirmed zero.

    Hypothesis + : the new band precipitates (omega > 0 there); its candidate
    solution includes the relay toggled at the last zero when the band index
    is even, and drops the toggle otherwise.  Hypothesis - symmetrically.
    A hypothesis is consistent when its candidate carries the hypothesized
    sign at the probes last + delta * 2^-j, j = 0..6, or, with all probes
    at the root-tolerance level, when its one-sided slope does.  A
    hypothesis is refuted when some probe value of the wrong sign clears
    the resolution floor.  Raises AmbiguousContinuation if both hypotheses
    pass.  root_tol caps the value floor of the probes.
    """
    if len(zeros) < 2:
        raise InvalidParameter("need at least one positive zero to classify")
    require_positive(delta_probe=delta_probe)
    last = zeros[-1]
    n = len(zeros) - 1  # band index just past the zero
    with_toggle = list(zeros)
    without_toggle = list(zeros[:-1])
    if n % 2 == 0:
        pos_zeros, neg_zeros = with_toggle, without_toggle
    else:
        pos_zeros, neg_zeros = without_toggle, with_toggle
    probes = last + delta_probe * 0.5 ** np.arange(7)
    cand_pos = omega_eval(kern, pos_zeros, probes)
    cand_neg = omega_eval(kern, neg_zeros, probes)
    # resolution of the probe values: rounding of the partial sums is locally
    # correlated, so probe signs stay meaningful down to a few ulps of the
    # term scale; a recorded zero that is itself displaced (tangential case)
    # biases both candidates by its residual, which also caps the resolution
    noise = 32.0 * np.finfo(float).eps * max(abs(kern.gamma_const), 1.0)
    residual = abs(float(omega_eval(kern, list(zeros), zeros[-1])))
    value_floor = max(min(root_tol, noise), 4.0 * residual)

    def consistent(vals, zeros_used, sign):
        informative = np.abs(vals) > value_floor
        if np.any(informative):
            if not np.all(sign * vals[informative] > 0):
                return False
            # genuine band values scale with the probe offset, whereas the
            # offset of a displaced zero sits flat across the probe ladder
            signed = sign * vals
            variation = float(np.max(signed) - np.min(signed))
            return variation >= 0.5 * float(np.max(signed))
        # all probes at the noise floor: decide by the one-sided slope,
        # provided its increment clears both round-off and the zero residual
        h = delta_probe / 64.0
        incr = omega_eval(kern, zeros_used, last + h) - omega_eval(kern, zeros_used, last)
        if abs(incr) < max(2.0 * noise, 4.0 * residual):
            return False
        return sign * incr > 0

    pos_ok = consistent(cand_pos, pos_zeros, +1.0)
    neg_ok = consistent(cand_neg, neg_zeros, -1.0)
    if pos_ok and neg_ok:
        raise AmbiguousContinuation(
            f"both sign hypotheses are consistent past x={last!r}"
        )
    return ContinuationVerdict(
        bool(pos_ok), bool(neg_ok),
        bool(np.any(cand_pos < -value_floor)), bool(np.any(cand_neg > value_floor)),
    )


def q_star(sigma: float) -> float:
    """Unique positive root of (1+q)^(1+sigma) - q^(1+sigma) - q - 1 in (0,1).

    A geometric scan brackets the root; Brent's method refines it to 4 eps
    relative.
    """
    if not 0.0 < sigma < SIGMA_MAX:
        raise InvalidParameter(f"sigma must lie in (0, {SIGMA_MAX:.6f}), got {sigma}")

    def g(q):
        # (1+q)^(1+sigma) - 1 written through expm1/log1p: the root collapses
        # like sigma^(1/sigma) for small sigma and the naive form cancels
        return np.expm1((1.0 + sigma) * np.log1p(q)) - q ** (1.0 + sigma) - q

    qs = np.geomspace(1e-280, 1.0, 4097)
    vals = g(qs)
    idx = np.nonzero((vals[:-1] > 0) & (vals[1:] <= 0))[0]
    if len(idx) == 0:
        raise InvalidParameter("no bracket found; sigma outside admissible range?")
    # xtol tiny: stop on the relative test (4 eps) alone; near sigma = 0.01
    # round-off in g forces bisection steps (up to 82 of the default 100)
    return optimize.brentq(
        g, qs[idx[0]], qs[idx[0] + 1], xtol=np.finfo(float).tiny, maxiter=200
    )


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
    scan_step: float | None = None,
    root_tol: float | None = None,
) -> RingPattern:
    """Iterate next_zero / classify_continuation until breakdown or budget.

    Stops with Degenerate when neither continuation is consistent (x* is the
    last zero), with NonDegenerateAccumulation when the band width falls
    below min_width (x* extrapolated), and with Truncated when max_zeros or
    the horizon is exhausted first.  Raises InvalidParameter unless
    root_tol < scan_step <= horizon.
    """
    x1_scale = float(np.sqrt(kern.gamma_const / kern.cum(0.0, 1.0)))
    scan_step = x1_scale / 200.0 if scan_step is None else scan_step
    root_tol = 1e-12 * x1_scale if root_tol is None else root_tol
    min_width = 1e-9 * x1_scale if min_width is None else min_width
    horizon = 20.0 * x1_scale if horizon is None else horizon
    require_positive(
        min_width=min_width, horizon=horizon, scan_step=scan_step, root_tol=root_tol
    )
    if not root_tol < scan_step <= horizon:
        raise InvalidParameter(
            f"need root_tol < scan_step <= horizon, got root_tol={root_tol}, "
            f"scan_step={scan_step}, horizon={horizon}"
        )
    if max_zeros < 1:
        raise InvalidParameter(f"max_zeros must be >= 1, got {max_zeros}")
    q_bound = q_star(kern.sigma)

    zeros = [0.0]
    step = scan_step
    classification = Classification.TRUNCATED
    x_star = 0.0
    while True:
        z = next_zero(kern, zeros, step, root_tol, horizon)
        if z is None:
            classification = Classification.TRUNCATED
            x_star = zeros[-1]
            break
        zeros.append(z)
        width = zeros[-1] - zeros[-2]
        if width < min_width:
            # below the declared resolution, continuation verdicts are noise
            classification = Classification.NON_DEGENERATE_ACCUMULATION
            x_star = (
                _extrapolate(np.asarray(zeros), q_bound)
                if len(zeros) >= 5
                else zeros[-1]
            )
            break
        # a probe span wider than the (unknown) next band falsifies a healthy
        # continuation, so descend the probe scale until some hypothesis is
        # consistent; a degenerate verdict needs informative (above-floor)
        # refutation of both hypotheses at some scale, otherwise the cascade
        # has merely exhausted the floating-point resolution
        delta = width / 4.0
        delta_floor = 64.0 * np.finfo(float).eps * max(zeros[-1], 1.0)
        refuted_pos = refuted_neg = False
        while True:
            verdict = classify_continuation(kern, zeros, delta, root_tol)
            refuted_pos |= verdict.positive_refuted
            refuted_neg |= verdict.negative_refuted
            if not verdict.degenerate or delta / 16.0 <= delta_floor:
                break
            delta /= 16.0
        if verdict.degenerate:
            if refuted_pos and refuted_neg:
                classification = Classification.DEGENERATE
                x_star = zeros[-1]
            elif len(zeros) >= 5:
                classification = Classification.NON_DEGENERATE_ACCUMULATION
                x_star = _extrapolate(np.asarray(zeros), q_bound)
            else:
                classification = Classification.TRUNCATED
                x_star = zeros[-1]
            break
        if len(zeros) >= max_zeros + 1 or zeros[-1] >= horizon:
            classification = Classification.TRUNCATED
            x_star = zeros[-1]
            break
        step = max(min(step, width / 4.0), root_tol * 4.0)

    widths = tuple(np.diff(zeros))
    ratios = tuple(np.diff(zeros)[1:] / np.diff(zeros)[:-1]) if len(zeros) > 2 else ()
    return RingPattern(
        zeros=tuple(zeros),
        widths=widths,
        ratios=ratios,
        classification=classification,
        x_star=float(x_star),
        q_star_bound=q_bound,
    )
