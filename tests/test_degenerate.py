import dataclasses

import numpy as np
import pytest
from scipy import integrate

from liesegang import degenerate as dg
from liesegang import rings, specfun
from liesegang.errors import (
    BridgeInfeasible,
    InvalidParameter,
    QuadratureFailure,
    TangentialTemplate,
    VerificationFailed,
)
from liesegang.kernel import Kernel, synthetic_kernel
from liesegang.specfun import pointwise

X1_EXACT = np.sqrt(70.0) / 4.0


@pytest.fixture(scope="module")
def template():
    return dg.default_template()


@pytest.fixture(scope="module")
def zeros12(template):
    return dg.template_zeros(template)


@pytest.fixture(scope="module")
def bridge(template, zeros12):
    x1, x2 = zeros12
    return dg.choose_epsilon(template, x1, x2).bridge


@pytest.fixture(scope="module")
def partial(bridge):
    return dg.kernel_from_bridge(bridge)


def test_template_zeros(template, zeros12):
    x1, x2 = zeros12
    assert x1 == pytest.approx(X1_EXACT, abs=1e-13)
    gamma = template.gamma_const
    assert gamma - x2 * x2 * template.cum(0.0, x1 / x2) == pytest.approx(0.0, abs=1e-12)
    assert x2 > x1


def test_template_generic(template, zeros12):
    x1, x2 = zeros12
    _, slope = dg._omega_star(template, x1)
    assert slope(x2) > 0


def test_choose_epsilon_inequality(template, zeros12, bridge, partial):
    x1, x2 = zeros12
    eps = bridge.epsilon
    assert eps < x2 / 2.0
    r = partial.r
    num = template.cum(0.0, 1.0) - partial.int_k
    den = template.gamma_const - partial.int_g
    assert num > 0 and den > 0
    assert num / den < 0.9 * r * r
    # eps -> 0 limit of the same ratio is the pure template head ratio
    head_k = template.cum(0.0, x1 / x2)
    head_g, _ = integrate.quad(
        lambda t: float(template.eval(t)) / (t * t), 1e-12, x1 / x2, limit=200
    )
    assert head_k / head_g < (x1 / x2) ** 2


def test_bridge_boundary_data(bridge):
    x_break = bridge.x2 + bridge.epsilon
    assert bridge.value(x_break) == pytest.approx(0.0, abs=1e-14)
    assert bridge.slope(x_break) == pytest.approx(0.0, abs=1e-14)


@pytest.mark.parametrize("sigma", [0.3, 0.5])
def test_bridge_meets_zero_to_second_order(sigma):
    # the cubic piece has value and slope 0 at x_b = x2 + eps, so halving the
    # distance to x_b quarters its value; a quintic ramp (zero second
    # derivative there too) would give 1/8 and a wider round-off plateau
    # around the tangential zero
    template = synthetic_kernel(sigma, 1.0)
    bridge = dg.choose_epsilon(template, *dg.template_zeros(template)).bridge
    x_b = bridge.x2 + bridge.epsilon
    h = bridge.epsilon * 2.0 ** -np.arange(8.0, 17.0)
    ratios = bridge.value(x_b - h) / bridge.value(x_b - 2.0 * h)
    assert ratios == pytest.approx(0.25, rel=0.01)


def test_bridge_monotone_and_below_gamma(template, bridge):
    xs = np.linspace(bridge.x2 - bridge.epsilon, bridge.x2 + 2 * bridge.epsilon, 64)
    vals = np.array([bridge.value(x) for x in xs])
    assert np.all(np.diff(vals) > 0)
    assert np.all(vals < template.gamma_const)


def test_bridge_c1_at_left_junction(template, bridge):
    x = bridge.x2 - bridge.epsilon
    _, slope_star = dg._omega_star(template, bridge.x1)
    assert bridge.slope(x + 1e-12) == pytest.approx(slope_star(x), rel=1e-6)


def test_bridge_rejects_bad_epsilon(template, zeros12):
    x1, x2 = zeros12
    with pytest.raises(InvalidParameter):
        dg.build_gap_bridge(template, x1, x2, x2)


def test_tangential_guard(template, zeros12):
    x1, _ = zeros12
    # omega*' is negative at 2.2, inside the first gap, so a doctored
    # second-zero location must be rejected
    with pytest.raises((TangentialTemplate, BridgeInfeasible)):
        dg.build_gap_bridge(template, x1, 2.2, 0.05)


def test_choose_epsilon_tangential_guard(template, zeros12):
    # the scan's first bridge raises TangentialTemplate, which it does not catch
    x1, _ = zeros12
    with pytest.raises(TangentialTemplate):
        dg.choose_epsilon(template, x1, 2.2)


def test_accepted_bridge_is_built_once(template, zeros12, monkeypatch):
    # construct_degenerate hands choose_epsilon's partial kernel to fill_head
    # instead of rebuilding the bridge and K_eps with the accepted eps
    calls = {"build_gap_bridge": 0, "kernel_from_bridge": 0}
    for name in calls:
        original = getattr(dg, name)

        def counted(*args, _name=name, _fn=original):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(dg, name, counted)
    partial = dg.choose_epsilon(template, *zeros12)
    scan = dict(calls)
    calls.update(dict.fromkeys(calls, 0))
    cons = dg.construct_degenerate(template)
    assert calls == scan
    assert cons.epsilon == partial.bridge.epsilon


def test_kernel_from_bridge_matches_template(template, bridge, partial):
    x1, x2, eps = bridge.x1, bridge.x2, bridge.epsilon
    for th in np.linspace(x1 / (x2 - eps) + 1e-9, 1.0 - 1e-9, 9):
        assert partial.eval(th) == pytest.approx(float(template.eval(th)), abs=1e-10)


def test_kernel_from_bridge_edge_value(template, bridge, partial):
    # value and slope of the bridge vanish at x2 + eps, so K_eps = 2 theta Gamma / x1^2
    # there.  theta = x1/(x2 + eps) is a sqrt cusp, where a relative shift d of the
    # argument moves K_eps by about 5 sqrt(|d|): probe just off it on the smooth
    # Hermite side tightly, and at the cusp itself within its round-off sensitivity.
    th = bridge.x1 / (bridge.x2 + bridge.epsilon)
    smooth = th * (1.0 + 1e-10)
    expect = 2.0 * smooth * template.gamma_const / bridge.x1**2
    assert partial.eval(smooth) == pytest.approx(expect, rel=1e-9)
    expect = 2.0 * th * template.gamma_const / bridge.x1**2
    assert partial.eval(th) == pytest.approx(expect, rel=1e-6)


def test_bridge_array_matches_scalar_calls(bridge):
    x2, eps = bridge.x2, bridge.epsilon
    xs = np.array([x2 + 1.5 * eps, x2 - eps, bridge.x1 * 1.1, x2, x2 + eps, x2 - 0.5 * eps,
                   x2 + 2.0 * eps, x2 - 2.0 * eps])
    for fn in (bridge.value, bridge.slope):
        assert np.array_equal(fn(xs), [fn(x) for x in xs])


def test_kernel_from_bridge_positive(partial):
    thetas = np.linspace(partial.r, 1.0 - 1e-9, 1000)
    assert np.all(partial.eval(thetas) > 0)


def test_k_def_consistency(template, bridge, partial):
    # (x^2/x1) d/dx [(omega_eps - Gamma)/x^2] reproduces K_eps(x1/x)
    gamma = template.gamma_const
    x1 = bridge.x1
    h = 1e-6
    for x in np.linspace(x1 * 1.05, (bridge.x2 + 2 * bridge.epsilon) * 0.95, 5):
        num = (bridge.value(x + h) - gamma) / (x + h) ** 2 - (
            bridge.value(x - h) - gamma
        ) / (x - h) ** 2
        lhs = (x * x / x1) * num / (2.0 * h)
        assert lhs == pytest.approx(partial.eval(x1 / x), abs=1e-9)


def test_int_k_eps_telescoped(template, bridge, partial):
    # telescoped closed form against direct quadrature
    val, _ = integrate.quad(
        partial.eval, partial.r, 1.0,
        points=[bridge.x1 / (bridge.x2 + bridge.epsilon),
                bridge.x1 / (bridge.x2 - bridge.epsilon)],
        epsabs=0.0, epsrel=1e-11, limit=400,
    )
    assert partial.int_k == pytest.approx(val, abs=1e-10)


def test_construction_summary(construction):
    assert construction.r_star < construction.r
    assert 0.0 < construction.lambda_star < 1.0
    assert construction.n_power >= 1
    assert construction.z_eps <= construction.x2 + 2 * construction.epsilon


def test_mass_identities(construction):
    kern = construction.result
    template = construction.template
    assert abs(kern.cum(0.0, 1.0) - template.cum(0.0, 1.0)) < 1e-8
    g_int, _ = integrate.quad(
        lambda t: kern.eval(t) / (t * t), 1e-12, 1.0,
        points=[construction.r_star / 2.0, construction.r_star, construction.r,
                *construction.theta_breaks],
        epsabs=0.0, epsrel=1e-10, limit=500,
    )
    assert abs(g_int - template.gamma_const) < 1e-8


def test_lambda_bracketing(construction):
    # bump second-moment averages must straddle r*^2
    r, rs = construction.r, construction.r_star

    def b1(t):
        return np.where((t >= 0) & (t <= rs / 2.0), t**4 * (rs / 2.0 - t) ** 4, 0.0)

    def b2(t):
        return np.where((t >= rs) & (t <= r), (t - rs) ** 4 * (r - t) ** 4, 0.0)

    def moments(b, lo, hi):
        # (int b, int theta^2 b) by an 8-point Gauss rule, exact for degree <= 15
        x, w = np.polynomial.legendre.leggauss(8)
        half = 0.5 * (hi - lo)
        th = 0.5 * (hi + lo) + half * x
        return half * np.sum(w * b(th)), half * np.sum(w * th * th * b(th))

    i0b1, i2b1 = moments(b1, 0.0, rs / 2.0)
    i0b2, i2b2 = moments(b2, rs, r)
    assert i2b1 / i0b1 < rs * rs < i2b2 / i0b2


def test_head_continuity_and_flat_start(construction):
    kern = construction.result
    r = construction.r
    assert float(kern.eval(r - 1e-12)) == pytest.approx(float(kern.eval(r + 1e-12)), abs=1e-8)
    assert float(kern.eval(0.0)) == 0.0
    assert float(kern.eval(1e-8)) / 1e-8 < 1e-12  # K'(0) = 0


def test_tail_inherited(construction):
    kern = construction.result
    for d in (1e-3, 1e-4):
        ratio = float(kern.eval(1.0 - d)) / np.sqrt(d)
        assert ratio == pytest.approx(kern.k_coeff, rel=3 * d + 1e-6)


def test_kernel_cum_additive(construction):
    kern = construction.result
    a, b, c = 0.05, construction.r, 0.9
    assert kern.cum(a, b) + kern.cum(b, c) == pytest.approx(kern.cum(a, c), abs=1e-14)


def test_kernel_array_matches_scalar_calls(construction):
    kern, r = construction.result, construction.r
    thetas = np.array([0.9, r, 0.5 * r, 1.0, 0.0, np.nextafter(r, 0.0), 0.5 * (r + 1.0), 0.1 * r])
    assert np.array_equal(kern.eval(thetas), [kern.eval(t) for t in thetas])
    assert np.array_equal(kern.cum(0.0, thetas), [kern.cum(0.0, t) for t in thetas])


def test_verify_degeneracy(construction):
    assert dg.verify_degeneracy(construction) is True


IDENTITY_SIGMAS = (0.3, 0.4127, 0.48, 0.4905, 0.5, 0.55)


@pytest.fixture(scope="module")
def constructions():
    return {s: dg.construct_degenerate(synthetic_kernel(s, 1.0)) for s in IDENTITY_SIGMAS}


@pytest.mark.parametrize("sigma", IDENTITY_SIGMAS)
def test_mass_identity_and_tangential_zero_to_rounding(constructions, sigma):
    # the head's moments, b_norm and prefix are the same incomplete-Beta
    # masses, so int K_hat = int K* and omega(x2 + eps) = 0 hold to rounding
    cons = constructions[sigma]
    kern, eps = cons.result, np.finfo(float).eps
    total = cons.template.cum(0.0, 1.0)
    assert abs(kern.cum(0.0, 1.0) - total) <= 4.0 * eps * total
    omega = rings.omega_eval(kern, [0.0, cons.x1], cons.x2 + cons.epsilon)
    assert abs(omega) <= 4.0 * eps * kern.gamma_const


@pytest.mark.parametrize("sigma", [0.48, 0.4905, 0.2, 0.24, 0.28, 0.33, 0.37, 0.42, 0.46, 0.52])
def test_verify_degeneracy_across_sigma(constructions, sigma):
    # a mass mismatch of 1e-14 leaves omega(x2 + eps) near -1e-13, and a
    # chatter zero past x2 + eps then hides the breakdown.  The template
    # itself continues at every sigma; only the constructed kernel stops
    cons = constructions.get(sigma) or dg.construct_degenerate(synthetic_kernel(sigma, 1.0))
    assert dg.verify_degeneracy(cons) is True


def test_pattern_is_degenerate(construction):
    pat = rings.solve_pattern(construction.result, max_zeros=4)
    assert pat.classification is rings.Classification.DEGENERATE
    assert pat.x_star == pat.zeros[-1]
    assert pat.zeros[1] == pytest.approx(construction.x1, abs=1e-10)
    assert pat.zeros[2] == pytest.approx(
        construction.x2 + construction.epsilon, rel=1e-6
    )


def test_candidate_identities_past_breakdown(construction):
    kern = construction.result
    template = construction.template
    x_break = construction.x2 + construction.epsilon
    for delta in (1e-4, 1e-5):
        x = x_break + delta
        cand_pos = rings.omega_eval(kern, [0.0, construction.x1, x_break], x)
        expect = -0.5 * x * x * template.cum(x_break / x, 1.0)
        assert cand_pos == pytest.approx(expect, abs=1e-9)
        assert cand_pos < 0
        cand_neg = rings.omega_eval(kern, [0.0, construction.x1], x)
        assert cand_neg > 0


def test_both_hypotheses_inconsistent(construction):
    x_break = construction.x2 + construction.epsilon
    for delta in (0.05, 1e-8 * (x_break - construction.x1)):
        verdict = rings.classify_continuation(
            construction.result, [0.0, construction.x1, x_break], delta
        )
        assert verdict.degenerate


# ---------------------------------------------------------------------------
# refusals: each constraint of the construction and each certificate check,
# reached with a real input or a tampered construction


def test_template_without_second_zero_is_refused():
    # K = sqrt(theta): past x1, omega* = Gamma - x^2 int_0^(x1/x) K falls like
    # -sqrt(x) and never returns to zero, so the bracket search gives up
    @pointwise
    def prefix(theta):
        return theta**1.5 / 1.5

    kern = Kernel(eval=np.sqrt, prefix=prefix, gamma_const=1.0, sigma=0.5, k_coeff=1.0)
    with pytest.raises(InvalidParameter, match="no second zero"):
        dg.template_zeros(kern)


def test_bridge_refusals(template, zeros12):
    x1, x2 = zeros12
    eps = 1e-3
    # past the true second zero omega*(x2 - eps) is already positive
    with pytest.raises(BridgeInfeasible, match="left bridge value is not negative"):
        dg.build_gap_bridge(template, x1, 1.5 * x2, eps)
    # half an eps past it, |omega*(x2 - eps)| < (2/3) eps omega*': no room for the ramp
    with pytest.raises(BridgeInfeasible, match="slope budget is negative"):
        dg.build_gap_bridge(template, x1, x2 + eps / 2.0, eps)
    # a template whose int_a^1 K is negative for a > 0 makes the right branch fall
    falling = dataclasses.replace(
        template, cum=lambda a, b: np.where(np.asarray(a) == 0.0, 1.0, -1.0) * template.cum(a, b)
    )
    with pytest.raises(BridgeInfeasible, match="not increasing on the modified interval"):
        dg.build_gap_bridge(falling, x1, x2, eps)
    # the right branch does not depend on Gamma, so a small one is overtaken
    low = dataclasses.replace(template, gamma_const=1e-5)
    with pytest.raises(BridgeInfeasible, match="exceeds Gamma"):
        dg.build_gap_bridge(low, x1, x2, eps)


def test_non_positive_k_eps_is_refused(template, bridge):
    # K_eps = omega'/x1 - 2 theta (omega - Gamma)/x1^2 turns negative when
    # Gamma lies far below the bridge
    tampered = dataclasses.replace(
        bridge, template=dataclasses.replace(template, gamma_const=-10.0)
    )
    with pytest.raises(BridgeInfeasible, match="K_eps non-positive"):
        dg.kernel_from_bridge(tampered)


def test_inaccurate_g_eps_quadrature_is_refused(bridge, monkeypatch):
    # int_r^1 G_eps is the only runtime route to int G_hat = Gamma (the head
    # reduces to Gamma - int_g), so an error estimate above 10 tol of the
    # value must fail here rather than pass the Gamma check by construction
    monkeypatch.setattr(specfun.integrate, "quad", lambda *args, **kw: (1.0, 1e-3))
    with pytest.raises(QuadratureFailure, match="G_eps quadrature error"):
        dg.kernel_from_bridge(bridge)


def test_epsilon_scan_without_admissible_epsilon(template, zeros12):
    # with x2 past the true zero every eps is refused, and the scan says so
    x1, x2 = zeros12
    with pytest.raises(BridgeInfeasible, match="no admissible epsilon within 40 halvings"):
        dg.choose_epsilon(template, x1, 1.5 * x2)


def test_fill_head_without_tail_power(template, partial):
    # int_r^1 K_eps = int K* leaves no head mass for any n
    with pytest.raises(BridgeInfeasible, match="no tail power"):
        dg.fill_head(dataclasses.replace(partial, int_k=template.cum(0.0, 1.0)))


@pytest.mark.parametrize("sigma", [0.3, 0.5])
def test_fill_head_accepts_r_star_next_to_r(sigma):
    # masses that put r* within 1e-9 to 1e-3 (relative) of r squeeze the
    # second bump into [r*, r]; its product form and incomplete-Beta masses
    # are sums of non-negative terms, so every input is accepted, both mass
    # identities hold to rounding and K_hat stays non-negative on the head
    template = synthetic_kernel(sigma, 1.0)
    partial = dg.choose_epsilon(template, *dg.template_zeros(template))
    r, g_r = partial.r, partial.g_at_r
    total_k, gamma = template.cum(0.0, 1.0), template.gamma_const
    den = gamma - partial.int_g - g_r * r / 2.0
    ends = 1.0 - 2.0 ** -np.arange(1.0, 40.0)
    for d in np.geomspace(1e-9, 1e-3, 200):
        int_k = total_k - (r * r * (1.0 - d) * den + g_r * r**3 / 4.0)
        cons = dg.fill_head(dataclasses.replace(partial, int_k=int_k))
        rs = cons.r_star
        assert rs < r
        assert abs(cons.result.cum(0.0, 1.0) - total_k) <= 1e-15
        head_g = cons.k_star / rs**2 + g_r * r / (cons.n_power + 1.0)
        assert abs(head_g + partial.int_g - gamma) <= 1e-15
        thetas = np.concatenate([
            np.linspace(0.0, r, 1001), rs / 2.0 * ends, rs / 2.0 * (2.0 - ends),
            rs + (r - rs) * ends, r - (r - rs) * ends,
        ])
        assert np.all(cons.result.eval(thetas) >= 0.0)


def test_head_bump_vanishes_to_fourth_order_at_its_end(constructions):
    # K_hat ~ (r*/2 - theta)^4 just below the first bump's end, so halving
    # the distance divides it by 16, down to distances of 2^-30 r*/2 where
    # K_hat is about 1e-36 (the tail term there is about 1e-42)
    cons = constructions[0.55]
    vals = cons.result.eval(cons.r_star / 2.0 * (1.0 - 2.0 ** -np.arange(10.0, 31.0)))
    assert vals[:-1] / vals[1:] == pytest.approx(16.0, rel=0.01)


def test_fill_head_refuses_r_star_within_rounding_of_r(template, partial):
    # r*^2 one float below r^2 rounds r* = sqrt(r*^2) to r itself, which
    # leaves the second bump [r*, r] no support.  With no tail (G_eps(r) = 0)
    # r*^2 is the head mass ratio (int K* - int_k)/(Gamma - int_g), set here
    # to that float over 1
    r = partial.r
    r_star2 = np.nextafter(r * r, 0.0)
    assert np.sqrt(r_star2) == r
    total_k, gamma = template.cum(0.0, 1.0), template.gamma_const
    int_k, int_g = total_k - r_star2, gamma - 1.0
    assert (total_k - int_k, gamma - int_g) == (r_star2, 1.0)
    tampered = dataclasses.replace(partial, int_k=int_k, int_g=int_g, g_at_r=0.0)
    with pytest.raises(BridgeInfeasible, match=r"leaves a head bump no support.*lambda\* = 0\.0"):
        dg.fill_head(tampered)


def test_gamma_identity_mismatch_is_refused(monkeypatch):
    # a head weight 1% off breaks int G_hat = Gamma, but not int K_hat
    fill_head = dg.fill_head

    def tampered(partial):
        cons = fill_head(partial)
        return dataclasses.replace(cons, k_star=1.01 * cons.k_star)

    monkeypatch.setattr(dg, "fill_head", tampered)
    with pytest.raises(VerificationFailed, match="Gamma identity mismatch"):
        dg.construct_degenerate()


def _with_prefix_changed(kern, targets, change):
    """kern whose prefix differs at exactly the thetas in targets."""
    base = kern.prefix

    @pointwise
    def prefix(theta):
        out = base(theta)
        hit = np.isin(theta, targets)
        out[hit] = change(out[hit])
        return out

    return dataclasses.replace(kern, prefix=prefix, cum=None)


def _spike_kernel(gamma):
    """theta^2 (1-theta)^(-1/2): its tail integral outgrows the gap's linear
    fall, so both hypotheses fail at the first zero."""

    @pointwise
    def prefix(theta):
        one = 1.0 - theta
        p1 = np.sqrt(one)
        return -2.0 * p1 + 2.0 * p1 * one / 1.5 - p1 * one * one / 2.5

    return Kernel(eval=lambda t: t * t / np.sqrt(1.0 - np.asarray(t)), prefix=prefix,
                  gamma_const=gamma, sigma=0.5, k_coeff=1.0)


def test_verify_degeneracy_refuses_tampered_constructions(construction):
    cons = construction
    x_break = cons.x2 + cons.epsilon
    probes = [x_break + d for d in (1e-4, 1e-5)]  # verify_degeneracy's offsets
    past = [x_break / x for x in probes]  # where the positive candidate reads K_hat
    cases = [
        (dataclasses.replace(cons, result=cons.template), "classified Truncated"),
        (dataclasses.replace(cons, result=_spike_kernel(cons.template.gamma_const)),
         "expected exactly 2 zeros, got 1"),
        (dataclasses.replace(cons, x1=cons.x1 * (1.0 + 1e-9)), "first zero does not match"),
        (dataclasses.replace(cons, epsilon=1.1 * cons.epsilon), "does not match x2 \\+ eps"),
        (dataclasses.replace(cons, template=synthetic_kernel(0.5, 2.0)),
         "positive candidate deviates"),
        # a NaN candidate passes the deviation test, not the sign test
        (dataclasses.replace(cons, result=_with_prefix_changed(
            cons.result, past, lambda v: np.nan)), "positive candidate is not negative"),
        # the same shift at x1/x and x_break/x leaves the positive candidate
        # alone and lowers the negative one by x^2 1e-5
        (dataclasses.replace(cons, result=_with_prefix_changed(
            cons.result, past + [cons.x1 / x for x in probes], lambda v: v + 1e-5)),
         "negative candidate is not positive"),
    ]
    for tampered, message in cases:
        with pytest.raises(VerificationFailed, match=message):
            dg.verify_degeneracy(tampered)
