import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liesegang import rings
from liesegang.errors import InsufficientData, InvalidParameter
from liesegang.kernel import SIGMA_MAX

X1_EXACT = np.sqrt(70.0) / 4.0  # root of 2/3 = x^2 * 16/105
Q_STAR_HALF = 0.41964337760736525  # frozen, |G(q*)| <= 1e-13


def march_oracle(kern, h, horizon, max_zeros=6):
    """Brute-force relay march on a uniform grid (independent of the solver's
    bracketing/bisection); zeros land on grid points."""
    zeros = [0.0]
    state = 1
    x = h
    while x < horizon and len(zeros) <= max_zeros:
        block = np.arange(x, min(x + 4096 * h, horizon), h)
        if len(block) == 0:
            break
        vals = rings.omega_eval(kern, zeros, block)
        want = 1.0 if state == 1 else -1.0
        flip = np.nonzero(np.sign(vals) == -want)[0]
        if len(flip):
            j = int(flip[0])
            zeros.append(float(block[j]))
            state = -state
            x = float(block[j]) + h
        else:
            x = float(block[-1]) + h
    return zeros


def test_omega_at_origin(synthetic):
    assert rings.omega_eval(synthetic, [0.0], 0.0) == synthetic.gamma_const


def test_omega_before_first_zero(synthetic):
    # closed form: 2/3 - x^2 * 16/105
    for x in (0.5, 1.0, 2.0):
        expect = 2.0 / 3.0 - x * x * 16.0 / 105.0
        assert rings.omega_eval(synthetic, [0.0], x) == pytest.approx(expect, abs=1e-14)


def test_omega_past_first_zero(synthetic):
    x1 = X1_EXACT
    x = x1 + 0.2
    expect = 2.0 / 3.0 - x * x * synthetic.cum(0.0, x1 / x)
    assert rings.omega_eval(synthetic, [0.0, x1], x) == pytest.approx(expect, abs=1e-14)


def test_omega_requires_zero_prefix(synthetic):
    with pytest.raises(InvalidParameter):
        rings.omega_eval(synthetic, [1.0], 2.0)


def test_first_zero_closed_form(synthetic):
    z = rings.next_zero(synthetic, [0.0], 0.01, 1e-13, 10.0)
    assert z == pytest.approx(X1_EXACT, abs=1e-12)


def test_next_zero_bracket_signs(synthetic):
    delta = 1e-6
    assert rings.omega_eval(synthetic, [0.0], X1_EXACT - delta) > 0
    assert rings.omega_eval(synthetic, [0.0], X1_EXACT + delta) < 0


def test_next_zero_horizon(synthetic):
    assert rings.next_zero(synthetic, [0.0], 0.01, 1e-13, 1.0) is None


@pytest.mark.parametrize("bad", [0.0, -1.0, np.inf, np.nan])
def test_tuning_values_must_be_positive_and_finite(synthetic, bad):
    with pytest.raises(InvalidParameter):
        rings.next_zero(synthetic, [0.0], 0.01, 1e-13, bad)
    with pytest.raises(InvalidParameter):
        rings.classify_continuation(synthetic, [0.0, X1_EXACT], bad)


def test_march_oracle_equivalence(synthetic, synthetic_pattern):
    oracle = march_oracle(synthetic, 1e-5, 4.0)
    for i in (1, 2, 3):
        assert abs(synthetic_pattern.zeros[i] - oracle[i]) < 1e-4


def test_pattern_classification(synthetic_pattern):
    assert synthetic_pattern.classification is rings.Classification.NON_DEGENERATE_ACCUMULATION
    assert len(synthetic_pattern.zeros) >= 12
    assert synthetic_pattern.x_star >= synthetic_pattern.zeros[-1]


def test_zeros_strictly_increasing(synthetic_pattern):
    assert np.all(np.diff(synthetic_pattern.zeros) > 0)


def test_zero_residuals(synthetic, synthetic_pattern):
    z = synthetic_pattern.zeros
    worst = max(
        abs(rings.omega_eval(synthetic, z[: i + 1], z[i])) for i in range(1, len(z))
    )
    assert worst <= 10.0 * 1e-12 * X1_EXACT


def test_band_sign_alternation(synthetic, synthetic_pattern):
    z = synthetic_pattern.zeros
    for i in range(min(8, len(z) - 1)):
        mid = 0.5 * (z[i] + z[i + 1])
        val = rings.omega_eval(synthetic, z[: i + 1], mid)
        assert np.sign(val) == (-1.0) ** i


def test_ratio_law(synthetic_pattern):
    bound = Q_STAR_HALF + 0.05
    assert max(synthetic_pattern.ratios[10:]) <= bound


def test_ring_widths_decreasing(synthetic_pattern):
    # rings are even-indexed bands; their widths shrink beyond the transient
    ring_widths = synthetic_pattern.widths[4::2]
    assert all(w2 < w1 for w1, w2 in zip(ring_widths, ring_widths[1:]))


def test_classify_at_first_zero(synthetic, synthetic_pattern):
    v = rings.classify_continuation(synthetic, list(synthetic_pattern.zeros[:2]), 0.1)
    assert not v.positive_consistent
    assert v.negative_consistent
    # past x1 the ring candidate (no toggle) is negative above the floor
    assert v.positive_refuted
    assert not v.negative_refuted


def test_classify_at_second_zero(synthetic, synthetic_pattern):
    v = rings.classify_continuation(synthetic, list(synthetic_pattern.zeros[:3]), 1e-3)
    assert v.positive_consistent
    assert not v.negative_consistent


@pytest.mark.parametrize(
    "zeros, x_star, expect",
    [
        # three zeros: the open band 3 is a gap, so only the rings precipitate
        ((0.0, 1.0, 2.0, 2.5), 2.7, ((0.0, 1.0), (2.0, 2.5))),
        # four zeros: the open ring band runs on to x*
        ((0.0, 1.0, 2.0, 2.5, 2.75), 2.9, ((0.0, 1.0), (2.0, 2.5), (2.75, 2.9))),
        ((0.0, 1.0, 2.0, 2.5, 2.75), 2.75, ((0.0, 1.0), (2.0, 2.5))),
    ],
)
def test_precipitated_intervals(zeros, x_star, expect):
    pat = rings.RingPattern(
        zeros=zeros, widths=tuple(np.diff(zeros)), ratios=(),
        classification=rings.Classification.NON_DEGENERATE_ACCUMULATION,
        x_star=x_star, q_star_bound=rings.q_star(0.5),
    )
    assert pat.precipitated() == expect


def test_truncated_budget(synthetic):
    pat = rings.solve_pattern(synthetic, max_zeros=3)
    assert pat.classification is rings.Classification.TRUNCATED
    assert len(pat.zeros) == 4


def test_truncated_horizon(synthetic):
    pat = rings.solve_pattern(synthetic, horizon=1.0)
    assert pat.classification is rings.Classification.TRUNCATED


def test_q_star_closed_points():
    sigma = 0.5
    g = lambda q: (1.0 + q) ** (1.0 + sigma) - q ** (1.0 + sigma) - q - 1.0
    assert g(0.0) == 0.0
    assert g(1.0) == pytest.approx(2.0**1.5 - 3.0, abs=1e-15)
    assert g(1.0) < 0


def test_q_star_value_and_scan_oracle():
    q = rings.q_star(0.5)
    assert q == pytest.approx(Q_STAR_HALF, abs=1e-10)
    # sign-scan oracle at step 1e-6
    qs = np.arange(0.41, 0.43, 1e-6)
    g = (1.0 + qs) ** 1.5 - qs**1.5 - qs - 1.0
    i = np.nonzero((g[:-1] > 0) & (g[1:] <= 0))[0][0]
    assert qs[i] <= q <= qs[i + 1] + 1e-6


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=0.05, max_value=SIGMA_MAX - 0.01))
def test_q_star_properties(sigma):
    q = rings.q_star(sigma)
    assert 0.0 < q < 1.0
    g = lambda x: (1.0 + x) ** (1.0 + sigma) - x ** (1.0 + sigma) - x - 1.0
    assert abs(g(q)) <= 1e-12
    assert g(min(1.0, q + 0.05)) < 0


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=0.05, max_value=SIGMA_MAX - 0.01))
def test_q_star_brackets_the_root_to_1e9_relative(sigma):
    # the root collapses like sigma^(1/sigma) (1e-10 at sigma = 0.1), so an
    # absolute residual test stops early; g is in the cancellation-free form
    g = lambda q: np.expm1((1.0 + sigma) * np.log1p(q)) - q ** (1.0 + sigma) - q
    q = rings.q_star(sigma)
    assert g(q * (1.0 - 1e-9)) > 0.0 > g(q * (1.0 + 1e-9))


def test_q_star_rejects_bad_sigma():
    with pytest.raises(InvalidParameter):
        rings.q_star(0.6)


def test_estimate_accumulation_geometric_exact(synthetic_pattern):
    # a purely geometric tail must extrapolate to the exact series limit
    q = 0.3
    widths = [1.0 * q**k for k in range(6)]
    zeros = [0.0] + list(np.cumsum(widths))
    pat = rings.RingPattern(
        zeros=tuple(zeros),
        widths=tuple(widths),
        ratios=tuple([q] * 5),
        classification=rings.Classification.NON_DEGENERATE_ACCUMULATION,
        x_star=0.0,
        q_star_bound=rings.q_star(0.5),
    )
    expect = zeros[-1] + widths[-1] * q / (1.0 - q)
    assert rings.estimate_accumulation(pat) == pytest.approx(expect, rel=1e-12)
    assert expect == pytest.approx(1.0 / (1.0 - q), rel=1e-12)


def test_estimate_accumulation_needs_data(synthetic):
    pat = rings.solve_pattern(synthetic, max_zeros=2)
    with pytest.raises(InsufficientData):
        rings.estimate_accumulation(pat)


def test_accumulation_window_stability(synthetic_pattern):
    z = np.asarray(synthetic_pattern.zeros)
    w = np.diff(z)
    r = w[1:] / w[:-1]
    qb = synthetic_pattern.q_star_bound
    estimates = []
    for last in (3, 5):
        q_hat = min(float(np.exp(np.mean(np.log(r[-last:])))), qb)
        estimates.append(z[-1] + w[-1] * q_hat / (1.0 - q_hat))
    assert estimates[0] == pytest.approx(estimates[1], rel=1e-3)


def test_model_kernel_pattern(model_pattern):
    # at least two rings and two gaps, widths decreasing from the second ring
    assert len(model_pattern.zeros) >= 5
    assert model_pattern.classification is rings.Classification.NON_DEGENERATE_ACCUMULATION
    w = model_pattern.widths
    assert all(w2 < w1 for w1, w2 in zip(w[2:], w[3:]))
