import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from liesegang import rings
from liesegang.errors import InvalidParameter
from liesegang.kernel import SIGMA_MAX, kernel_from_samples, synthetic_kernel

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


def test_omega_eval_matches_per_zero_sum(model_kernel02, model_pattern):
    # the plain partial sum Gamma - sum_{x_i < x} (-1)^i x^2 cum(x_i/x, 1),
    # one scalar cum per zero, in zero order
    _, kern = model_kernel02
    zeros = list(model_pattern.zeros)
    xs = np.concatenate([[0.0, 0.5 * zeros[1]], np.linspace(0.0, 1.2 * model_pattern.x_star, 601)])
    ref = []
    for x in xs:
        acc = 0.0
        for i, xi in enumerate(zeros):
            if xi < x:
                acc += (-1.0) ** i * x * x * kern.cum(xi / x, 1.0)
        ref.append(kern.gamma_const - acc)
    assert np.array_equal(rings.omega_eval(kern, zeros, xs), ref)
    assert rings.omega_eval(kern, zeros, 0.0) == kern.gamma_const
    assert rings.omega_eval(kern, zeros, 0.5 * zeros[1]) == ref[1]


def test_omega_requires_zero_prefix(synthetic):
    with pytest.raises(InvalidParameter):
        rings.omega_eval(synthetic, [1.0], 2.0)


def test_first_zero_closed_form():
    # x1 = sqrt(Gamma / int K); brentq stops on its 4 eps relative test,
    # and lands within 1 eps of x1 across sigma
    for sigma in np.linspace(0.02, 0.98 * SIGMA_MAX, 12):
        kern = synthetic_kernel(sigma, 1.0)
        x1 = np.sqrt(kern.gamma_const / kern.cum(0.0, 1.0))
        z = rings.next_zero(kern, [0.0], 0.01, 1e-13, 10.0, 0.0)
        assert abs(z - x1) <= 2.0 * np.finfo(float).eps * x1, sigma


def test_next_zero_scan_is_capped(synthetic):
    # a stride of 1e-300 would need about 1e301 scan points to reach the horizon
    with pytest.raises(InvalidParameter):
        rings.next_zero(synthetic, [0.0], 1e-300, 1e-13, 10.0, 0.0)


def test_zero_refinement_work(synthetic, monkeypatch):
    # Brent's method needs about 14 scalar omega evaluations per zero, scan
    # and continuation probes included; a bisection to root_tol needs 46
    # (brentq calls _band_value; the scan and the anchor call omega_eval)
    scalar_calls = []
    original, band = rings.omega_eval, rings._band_value

    def counted(kern, zeros, x):
        if np.ndim(x) == 0:
            scalar_calls.append(x)
        return original(kern, zeros, x)

    def counted_band(x, kern, zeros):
        scalar_calls.append(x)
        return band(x, kern, zeros)

    monkeypatch.setattr(rings, "omega_eval", counted)
    monkeypatch.setattr(rings, "_band_value", counted_band)
    pattern = rings.solve_pattern(synthetic)
    assert len(scalar_calls) <= 20 * (len(pattern.zeros) - 1)


@pytest.fixture(scope="module")
def file_kernel(model_kernel02):
    table, kern = model_kernel02
    return kernel_from_samples(table.thetas, table.k_vals, table.cum_prefix, kern.sigma,
                               kern.k_coeff, kern.gamma_const)


@pytest.mark.parametrize("which", ["synthetic", "derived", "file"])
@settings(max_examples=60, deadline=None)
@given(n=st.integers(0, 40), where=st.sampled_from(["band", "zero", "past"]),
       frac=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
def test_band_value_is_omega_eval_bitwise(request, synthetic_pattern, model_pattern,
                                          which, n, where, frac):
    # brentq's scalar omega sums the same terms in the same order as omega_eval
    kern, zeros = {
        "synthetic": (request.getfixturevalue("synthetic"), synthetic_pattern.zeros),
        "derived": (request.getfixturevalue("model_kernel02")[1], model_pattern.zeros),
        "file": (request.getfixturevalue("file_kernel"), model_pattern.zeros),
    }[which]
    n = min(n, len(zeros) - 2)
    prefix = list(zeros[:n + 1])
    if where == "band":  # strictly inside the open band (z_n, z_n+1)
        x = zeros[n] + frac * (zeros[n + 1] - zeros[n])
        assume(zeros[n] < x < zeros[n + 1])
    elif where == "zero":
        x = zeros[1 + min(int(frac * (n + 1)), n)]
    else:  # past the last zero of the whole pattern
        prefix = list(zeros)
        x = zeros[-1] * (1.0 + frac)
    assert rings._band_value(x, kern, prefix) == rings.omega_eval(kern, prefix, x)


def test_next_zero_bracket_signs(synthetic):
    delta = 1e-6
    assert rings.omega_eval(synthetic, [0.0], X1_EXACT - delta) > 0
    assert rings.omega_eval(synthetic, [0.0], X1_EXACT + delta) < 0


def test_next_zero_horizon(synthetic):
    assert rings.next_zero(synthetic, [0.0], 0.01, 1e-13, 1.0, 0.0) is None


@pytest.mark.parametrize("bad", [0.0, -1.0, np.inf, np.nan])
def test_tuning_values_must_be_positive_and_finite(synthetic, bad):
    with pytest.raises(InvalidParameter):
        rings.next_zero(synthetic, [0.0], 0.01, 1e-13, bad, 0.0)
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
    zeros = list(synthetic_pattern.zeros[:2])
    v = rings.classify_continuation(synthetic, zeros, 0.1)
    assert not v.positive_consistent
    assert v.negative_consistent
    assert not v.degenerate
    # past x1 the ring candidate (no toggle) is negative
    without, with_toggle = rings.candidates(synthetic, zeros, 0.1)
    assert with_toggle < 0.0 and without < 0.0


def test_classify_at_second_zero(synthetic, synthetic_pattern):
    v = rings.classify_continuation(synthetic, list(synthetic_pattern.zeros[:3]), 1e-3)
    assert v.positive_consistent
    assert not v.negative_consistent


@pytest.mark.parametrize("n", range(1, 9))
def test_candidates_match_omega_eval_at_a_wide_offset(synthetic, synthetic_pattern, n):
    # at 0.3 band widths the anchored candidates are the partial sums
    # themselves, up to the partial sums' rounding (omega(z_n) is not 0 there)
    zeros = list(synthetic_pattern.zeros[: n + 1])
    x = zeros[-1] + 0.3 * (zeros[-1] - zeros[-2])
    without, with_toggle = rings.candidates(synthetic, zeros, x - zeros[-1])
    tol = 8.0 * np.finfo(float).eps * synthetic.gamma_const
    assert abs(without - rings.omega_eval(synthetic, zeros[:-1], x)) <= tol
    assert abs(with_toggle - rings.omega_eval(synthetic, zeros, x)) <= tol


@pytest.mark.parametrize("n", [3, 6, 9])
def test_candidates_are_linear_at_a_tiny_offset(synthetic, synthetic_pattern, n):
    # at 1e-12 widths the partial sums are rounding noise; the anchored
    # candidates still double with d, the toggle's d^(1+sigma) term aside
    zeros = list(synthetic_pattern.zeros[: n + 1])
    d = 1e-12 * (zeros[-1] - zeros[-2])
    a1, b1 = rings.candidates(synthetic, zeros, d)
    a2, b2 = rings.candidates(synthetic, zeros, 2.0 * d)
    assert a1 != 0.0 and abs(a2 / a1 - 2.0) <= 1e-9
    assert abs(b2 / b1 - 2.0) <= 1e-4


SIGMA_GRID = np.round(np.arange(0.20, 0.5501, 0.01), 2)


@pytest.mark.parametrize("min_width_x1", [None, 1e-10])
def test_no_degenerate_breakdown_on_the_sigma_grid(min_width_x1):
    # an 80-digit evaluation of the template continues the pattern past 18
    # zeros at every sigma of this grid; the former pooled probe cascade
    # called 13 of them Degenerate at the default min_width and 22 at 1e-10 x1
    labels = {}
    for sigma in SIGMA_GRID:
        kern = synthetic_kernel(float(sigma), 1.0)
        x1 = float(np.sqrt(kern.gamma_const / kern.cum(0.0, 1.0)))
        min_width = None if min_width_x1 is None else min_width_x1 * x1
        labels[float(sigma)] = rings.solve_pattern(kern, min_width=min_width).classification
    assert set(labels.values()) == {rings.Classification.NON_DEGENERATE_ACCUMULATION}, labels


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
        zeros=zeros, classification=rings.Classification.NON_DEGENERATE_ACCUMULATION,
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


@pytest.mark.parametrize("sigma", [0.0075, 0.005, 1e-300])
def test_q_star_below_its_scan_floor_names_sigma(sigma):
    # admissible, but q* ~ sigma^(1/sigma) lies below the 1e-280 floor
    with pytest.raises(InvalidParameter, match=rf"sigma={sigma}: .*scan floor 1e-280"):
        rings.q_star(sigma)
    assert 0.0 < rings.q_star(0.0076) < 1e-270


def test_extrapolate_geometric_exact():
    # a purely geometric tail must extrapolate to the exact series limit
    q = 0.3
    widths = [1.0 * q**k for k in range(6)]
    zeros = [0.0] + list(np.cumsum(widths))
    expect = zeros[-1] + widths[-1] * q / (1.0 - q)
    got = rings._extrapolate(np.asarray(zeros), rings.q_star(0.5))
    assert got == pytest.approx(expect, rel=1e-12)
    assert expect == pytest.approx(1.0 / (1.0 - q), rel=1e-12)


@pytest.mark.parametrize("min_width, n_zeros", [(3.0, 1), (1.5, 2), (0.01, 3), (0.005, 4)])
def test_accumulation_point_needs_five_zeros(synthetic, min_width, n_zeros):
    # widths 2.09, 1.19, 0.0076, 0.0031: a band below min_width ends the
    # pattern, and x* is extrapolated only from four positive zeros up
    pat = rings.solve_pattern(synthetic, min_width=min_width)
    assert pat.classification is rings.Classification.NON_DEGENERATE_ACCUMULATION
    assert len(pat.zeros) - 1 == n_zeros
    if n_zeros < 4:
        assert pat.x_star == pat.zeros[-1]
    else:
        assert pat.x_star == rings._extrapolate(np.asarray(pat.zeros), pat.q_star_bound)
        assert pat.x_star > pat.zeros[-1]


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


def test_classify_needs_a_positive_zero(synthetic):
    with pytest.raises(InvalidParameter, match="at least one positive zero"):
        rings.classify_continuation(synthetic, [0.0], 1e-3)


def test_touches_stop_after_max_zeros_in_a_row(synthetic, monkeypatch):
    # a scan that finds a zero one unit on from wherever it resumes, and a
    # verdict that holds only the untoggled hypothesis: every zero is a
    # touch, and after max_zeros + 1 of them in a row the solve gives up
    starts = []

    def next_zero(kern, zeros, scan_step, root_tol, horizon, start):
        starts.append(start)
        return start + 1.0

    monkeypatch.setattr(rings, "next_zero", next_zero)
    monkeypatch.setattr(rings, "classify_continuation",
                        lambda kern, zeros, delta: rings.ContinuationVerdict(True, False))
    pattern = rings.solve_pattern(synthetic, max_zeros=3)
    assert pattern.zeros == (0.0,)
    assert pattern.classification is rings.Classification.TRUNCATED
    assert len(starts) == 4
