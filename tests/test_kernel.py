import tracemalloc

import numpy as np
import pytest
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st
from scipy import integrate

from liesegang import kernel as kn
from liesegang import specfun
from liesegang.errors import InvalidParameter, QuadratureFailure, SingularAtZero
from liesegang.profile import (
    ModelParams, check_solvability, phi_eval, psi_at_source, solve_kappa,
)

from .conftest import LARGE_KAPPA_PARAMS, SOURCE_IDENTITY_POINTS


def raw_gauss_jacobi_g(profile, theta, tol=1e-10):
    """Oracle: the unsubstituted density integral with the endpoint
    singularity handled by a Gauss-Jacobi weight."""
    al = profile.params.alpha
    t = abs(theta)

    def f(z):
        d = z * z - al * al * t * t
        if d <= 0.0:
            return 0.0
        return (
            al / np.sqrt(np.pi)
            * np.exp(-z * z * al * al * (1 - theta) ** 2 / (4.0 * d))
            * phi_eval(profile, z) / z**2 / np.sqrt(z + al * t)
        )

    val, _ = integrate.quad(
        f, al * t, al, weight="alg", wvar=(-0.5, 0.0),
        epsabs=0.0, epsrel=tol, limit=400,
    )
    return val


def small_theta_coefficient(profile):
    """Oracle: coefficient A of the near-zero law G ~ A |theta|^(kappa-2),
    1 < kappa < 2, in closed form

        A = C1 alpha^(kappa-1)/sqrt(pi) int_0^1 exp(-alpha^2/(4 s^2)) (1-s^2)^(-kappa/2) ds.
    """
    k = profile.kappa
    assert 1.0 < k < 2.0
    alpha = profile.params.alpha
    val, _ = integrate.quad(
        lambda s: np.exp(-alpha * alpha / (4.0 * s * s)) * (1.0 + s) ** (-k / 2.0),
        0.0, 1.0, weight="alg", wvar=(0.0, -k / 2.0), epsabs=0.0, epsrel=1e-11, limit=400,
    )
    return profile.c1 * alpha ** (k - 1.0) / np.sqrt(np.pi) * val


# ---------------------------------------------------------------------------
# synthetic template (closed-form Beta integrals)


def test_synthetic_total_mass(synthetic):
    assert synthetic.cum(0.0, 1.0) == pytest.approx(16.0 / 105.0, abs=1e-15)


def test_synthetic_gamma(synthetic):
    assert synthetic.gamma_const == pytest.approx(2.0 / 3.0, abs=1e-15)


def test_synthetic_empty_interval(synthetic):
    assert synthetic.cum(0.0, 0.0) == 0.0


def test_synthetic_sigma_range():
    with pytest.raises(InvalidParameter):
        kn.synthetic_kernel(0.7, 1.0)
    with pytest.raises(InvalidParameter):
        kn.synthetic_kernel(0.0, 1.0)


@settings(max_examples=50, deadline=None)
@given(
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_synthetic_cum_additive(a, b, c):
    kern = kn.synthetic_kernel(0.5, 1.0)
    lo, mid, hi = sorted((a, b, c))
    assert kern.cum(lo, mid) + kern.cum(mid, hi) == pytest.approx(
        kern.cum(lo, hi), abs=1e-12
    )


SYNTHETIC_SIGMAS = np.round(np.arange(0.20, 0.555, 0.01), 2)


@pytest.mark.parametrize("n_points", [256, 1024, 1025, 2048, 4096])
def test_synthetic_cum_from_zero_is_non_negative_and_rising(n_points):
    # the closed form's O(1) terms cancel near theta = 0; the power series
    # there keeps cum(0, theta) at or above 0 and non-decreasing on every
    # sin^2 grid, for sigma 0.20 to 0.55
    thetas = np.sin(np.linspace(0.0, np.pi / 2.0, n_points + 1)) ** 2
    for sigma in SYNTHETIC_SIGMAS:
        cums = kn.synthetic_kernel(sigma, 1.0).cum(0.0, thetas)
        assert cums[0] == 0.0 and np.all(np.diff(cums) >= 0.0), sigma


@pytest.mark.parametrize("sigma, scale", [(0.2, 1.0), (0.5, 1.0), (0.55, 2.5), (0.37, 0.3)])
def test_synthetic_prefix_series_near_zero(sigma, scale):
    kern = kn.synthetic_kernel(sigma, scale)
    # at theta = 0 the prefix is the closed form, bit for bit
    closed = scale * (-1.0 / (sigma + 1.0) + 2.0 / (sigma + 2.0) - 1.0 / (sigma + 3.0))
    assert kern.prefix(0.0) == closed
    # below the switch cum(0, theta) = (closed + series) - closed is the sum
    # rounded once, so it sits within one ulp of prefix(0) of the integral;
    # the closed form's cancelling terms miss it by up to 7 ulps there
    ulp = np.spacing(abs(closed))
    for theta in (1e-4, 1e-3, 5e-3, np.nextafter(kn._SERIES_THETA, 0.0)):
        exact, _ = integrate.quad(lambda t: scale * t * t * (1.0 - t) ** sigma, 0.0, theta,
                                  epsabs=0.0, epsrel=1e-13)
        assert abs(kern.cum(0.0, theta) - exact) <= ulp, theta
    # and it meets the closed form at the switch to round-off of the O(1) terms
    below = kern.prefix(np.nextafter(kn._SERIES_THETA, 0.0))
    assert abs(below - kern.prefix(kn._SERIES_THETA)) <= 1e-15 * scale


def test_synthetic_cum_is_prefix_difference(synthetic):
    ts = np.linspace(0.0, 1.0, 101)
    assert np.array_equal(synthetic.cum(0.3, ts), synthetic.prefix(ts) - synthetic.prefix(0.3))


def _file_kernel():
    thetas = np.sin(np.linspace(0.0, np.pi / 2.0, 257)) ** 2
    synth = kn.synthetic_kernel(0.5, 1.0)
    return kn.kernel_from_samples(
        thetas, synth.eval(thetas), synth.cum(0.0, thetas), 0.5, 1.0, synth.gamma_const
    )


@pytest.mark.parametrize("kind", ["synthetic", "derived", "file", "degenerate"])
def test_cum_scalar_calls_equal_array_call(request, kind):
    # batching scalar cum calls into one array call must not change a bit
    kern = {
        "synthetic": lambda: kn.synthetic_kernel(0.3, 1.7),
        "derived": lambda: request.getfixturevalue("model_kernel02")[1],
        "file": _file_kernel,
        "degenerate": lambda: request.getfixturevalue("construction").result,
    }[kind]()
    ts = np.random.default_rng(11).random(10_000)
    assert np.array_equal(kern.cum(0.0, ts), [kern.cum(0.0, t) for t in ts])


# ---------------------------------------------------------------------------
# derived-kernel density and its three asymptotic laws


def test_g_tail_law_toward_one(profile015):
    expect = np.sqrt(2.0 / np.pi) * 0.15
    ratio = kn.g_eval(profile015, 1.0 - 1e-4, 1e-11) / np.sqrt(1e-4)
    assert ratio == pytest.approx(expect, rel=0.01)
    devs = [
        abs(kn.g_eval(profile015, 1.0 - d, 1e-11) / np.sqrt(d) / expect - 1.0)
        for d in (1e-2, 1e-3, 1e-4, 1e-5)
    ]
    assert all(d2 < d1 for d1, d2 in zip(devs, devs[1:]))


def test_g_tail_law_toward_minus_one(profile015):
    expect = np.sqrt(2.0 / np.pi) * 0.15 * np.exp(0.25)
    devs = []
    for th in (-0.8, -0.9, -0.95, -0.98):
        g = kn.g_eval(profile015, th, 1e-11)
        scaled = g * np.exp(1.0 / (2.0 * (1.0 + th))) / (1.0 + th) ** 1.5
        devs.append(abs(scaled / expect - 1.0))
    assert all(d2 < d1 for d1, d2 in zip(devs, devs[1:]))
    assert devs[-1] < 0.02


def test_g_at_zero_continuous_branch(profile01):
    # kappa > 2: continuous extension equals the direct integral
    g0 = kn.g_eval(profile01, 0.0, 1e-11)
    val, _ = integrate.quad(
        lambda z: phi_eval(profile01, z) / z**3, 1e-12, 1.0, limit=400
    )
    expected = np.exp(-0.25) / np.sqrt(np.pi) * val
    assert g0 == pytest.approx(expected, rel=1e-8)


def test_g_at_zero_singular_branch(profile02):
    with pytest.raises(SingularAtZero):
        kn.g_eval(profile02, 0.0)


def test_g_small_theta_power_law(profile02):
    # kappa in (1, 2): G = A |theta|^(kappa-2) + O(1), so the scaled values
    # converge like theta^(2-kappa); two-point extrapolation in that power
    # recovers the closed-form coefficient
    a_coeff = small_theta_coefficient(profile02)
    k = profile02.kappa
    t1, t2 = 1e-7, 1e-8
    s1 = kn.g_eval(profile02, t1, 1e-11) / t1 ** (k - 2.0)
    s2 = kn.g_eval(profile02, t2, 1e-11) / t2 ** (k - 2.0)
    w1, w2 = t1 ** (2.0 - k), t2 ** (2.0 - k)
    extrap = (s2 * w1 - s1 * w2) / (w1 - w2)
    assert extrap == pytest.approx(a_coeff, rel=2e-3)
    # the scaled values must approach the coefficient monotonically
    assert abs(s2 - a_coeff) < abs(s1 - a_coeff)


def test_k_endpoint_values(profile015):
    assert kn.k_eval(profile015, 0.0) == 0.0
    assert kn.k_eval(profile015, 1.0) == 0.0
    # the (1 - theta) prefactor vanishes at both ends of G's domain
    assert kn.g_eval(profile015, 1.0) == 0.0
    assert kn.g_eval(profile015, -1.0) == 0.0


def test_scalar_evaluators_check_their_inputs(profile015, synthetic):
    with pytest.raises(InvalidParameter, match="quad_tol"):
        kn.g_eval(profile015, 0.5, 1e-20)
    with pytest.raises(InvalidParameter, match="quad_tol"):
        kn.g_eval(profile015, 0.5, 1e-3)
    for theta in (1.5, -1.0 - 1e-12, np.nan):
        with pytest.raises(InvalidParameter, match="theta must lie in \\[-1, 1\\]"):
            kn.g_eval(profile015, theta)
    for theta in (-0.1, 1.0 + 1e-12, np.nan):
        with pytest.raises(InvalidParameter, match="theta must lie in \\[0, 1\\]"):
            kn.k_eval(profile015, theta)
    for z in (0.0, 1.0, np.nan):
        with pytest.raises(InvalidParameter, match="z must lie in"):
            kn.f_diagnostic(synthetic, z)


@pytest.mark.parametrize("theta", [0.0, 0.5, -0.5])
def test_g_eval_refuses_an_inaccurate_quadrature(monkeypatch, profile01, theta):
    # an error estimate above 10 quad_tol of the value is a failure, at
    # theta = 0 (kappa > 2 here) as elsewhere
    assert profile01.kappa > 2.0
    monkeypatch.setattr(specfun.integrate, "quad", lambda *args, **kw: (1.0, 1e-3))
    with pytest.raises(QuadratureFailure, match="quadrature error"):
        kn.g_eval(profile01, theta)


def test_k_dual_route(profile015):
    # substituted smooth form against the raw Gauss-Jacobi quadrature
    th = 0.5
    raw = th * th * (
        raw_gauss_jacobi_g(profile015, th) + raw_gauss_jacobi_g(profile015, -th)
    )
    sub = kn.k_eval(profile015, th, 1e-11)
    assert abs(raw - sub) < 1e-7


# kappa = 5.22: at theta = SINGLE_PANEL_THETA, one QUADPACK panel across
# v = 1 in log v reports 3e-12 on a value 4.5e-10 off
SINGLE_PANEL_PARAMS = (0.7071276517545955, 1.4888463614081064, 0.0655739756998827)
SINGLE_PANEL_THETA = 0.999999999192067


@pytest.fixture(scope="module")
def profile_large_kappa():
    return solve_kappa(ModelParams(*LARGE_KAPPA_PARAMS))


def _table_thetas(n_points=2048):
    return np.sin(np.linspace(0.0, np.pi / 2.0, n_points + 1)) ** 2


def test_grid_matches_scalar(profile01, profile015, profile02, profile_large_kappa):
    # the ends of the gamma_const mesh (1e-10), both ends of [-1, 1] and
    # points beyond the v_min > 700 cut, where both evaluators give 0
    sweep = np.array([
        -(1.0 - 1e-12), -0.9995, -0.9, -0.3, -1e-4, -1e-10,
        1e-10, 1e-4, 0.4, 0.9, 0.9999, 0.999999, 1.0 - 1e-12, SINGLE_PANEL_THETA,
    ])
    assert profile_large_kappa.kappa > kn._GEO_KAPPA
    single_panel = solve_kappa(ModelParams(*SINGLE_PANEL_PARAMS))
    for prof in (profile01, profile015, profile02, profile_large_kappa, single_panel):
        grid = kn._g_grid(prof, sweep)
        for th, g in zip(sweep, grid):
            direct = kn.g_eval(prof, float(th), 1e-11)
            if direct == 0.0:
                assert g == 0.0
            else:
                assert g == pytest.approx(direct, rel=1e-10, abs=0.0)
        assert np.array_equal(kn._g_grid(prof, [-1.0, 0.0, 1.0]), np.zeros(3))
        # -0.9995 lies past the cut for every alpha >= 1
        assert prof.params.alpha < 1.0 or kn._v_min(prof.params.alpha, -0.9995) > 700.0


@pytest.mark.parametrize("which", ["profile02", "profile_large_kappa"])
def test_grid_point_alone_equals_table_call(request, which):
    # a point's G does not depend on its neighbours in the ragged panel
    # list or on where the blocks split
    prof = request.getfixturevalue(which)
    thetas = _table_thetas()
    # every point at kappa 1.77; every 7th at kappa 46, where the geometric
    # panels and the first graded one are split six ways
    stride = 1 if which == "profile02" else 7
    for sign in (1.0, -1.0):
        together = kn._g_grid(prof, sign * thetas)[::stride]
        alone = [kn._g_grid(prof, sign * thetas[i:i + 1])[0] for i in range(0, len(thetas), stride)]
        assert np.array_equal(alone, together)


def test_grid_work_is_pinned(monkeypatch, profile02):
    # point i costs its m_i geometric panels (ratio <= 4 from v_min up to
    # v = 1) and the six graded panels of the exponential range, 16 nodes
    # each; uniform panels over the exponential range would cost 23
    nodes = []
    series = kn.kummer_series

    def counting_series(*args):
        m_eval = series(*args)

        def counted(z):
            nodes.append(np.size(z))
            return m_eval(z)

        return counted

    monkeypatch.setattr(kn, "kummer_series", counting_series)
    assert profile02.kappa < kn._GEO_KAPPA
    thetas = _table_thetas()
    for sign in (1.0, -1.0):
        nodes.clear()
        g = kn._g_grid(profile02, sign * thetas)
        vm = kn._v_min(profile02.params.alpha, sign * thetas[g != 0.0])
        m = np.where(vm < 1.0, np.maximum(1.0, np.ceil(-np.log(vm) / np.log(4.0))), 0.0)
        assert 0 < sum(nodes) <= np.sum((m + 6) * 16)


@pytest.mark.parametrize("which, cap", [("profile02", 1000), ("profile_large_kappa", 1400)])
def test_probe_work_is_pinned(monkeypatch, request, which, cap):
    # the table's four k_eval probes are 8 g_eval integrals, each one
    # QUADPACK call in log v: about 80 integrand calls at kappa 1.77 and
    # 120 at kappa 46, each summing Kummer's series once
    prof = request.getfixturevalue(which)
    calls = []
    series = kn._kummer_transformed

    def counting_series(a, b, z):
        calls.append(1)
        return series(a, b, z)

    monkeypatch.setattr(kn, "_kummer_transformed", counting_series)
    kn.build_kernel_table(prof, 256)
    assert 0 < len(calls) <= cap


@pytest.mark.parametrize("quad_tol", [kn.QUAD_TOL_MIN, 1e-13, 1e-12, 1e-6])
def test_g_eval_meets_every_tolerance(profile02, profile_large_kappa, quad_tol):
    # near both ends and near 0 the single log-v call stays within its
    # 10 quad_tol error check
    for prof in (profile02, profile_large_kappa):
        for th in (1.0 - 1e-12, 1.0 - 1e-7, 1e-6, -1e-6, -0.99):
            assert kn.g_eval(prof, th, quad_tol) > 0.0


@pytest.mark.parametrize("theta", [1e-160, -1e-200, 5e-324])
def test_g_eval_refuses_an_underflowing_v_min(profile02, theta):
    # below |theta| ~ 1e-154 v_min is subnormal or 0: zeta would round past
    # alpha, outside the domain checked once per call
    with pytest.raises(InvalidParameter, match="underflows"):
        kn.g_eval(profile02, theta)


@pytest.mark.parametrize("which", ["profile02", "profile_large_kappa"])
def test_grid_layout_converged(monkeypatch, request, which):
    # against panels of ratio 1.5 below v = 1 and width 1/4 above it
    prof = request.getfixturevalue(which)
    thetas = _table_thetas()[::8]
    for sign in (1.0, -1.0):
        with monkeypatch.context() as m:
            m.setattr(kn, "_V_LAYOUT", (1.5, np.arange(0.0, kn._V_CUT + 0.125, 0.25)))
            ref = kn._g_grid(prof, sign * thetas)
        np.testing.assert_allclose(kn._g_grid(prof, sign * thetas), ref, rtol=1e-13, atol=0.0)


def test_grid_memory_peak(profile02):
    # the blocks bound _g_grid's working set on a table-sized call
    thetas = _table_thetas()
    kn._g_grid(profile02, thetas)
    tracemalloc.start()
    try:
        kn._g_grid(profile02, thetas)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2e6


# ---------------------------------------------------------------------------
# Gamma constant


def gamma_by_quadrature(profile):
    """Oracle: gamma * int_{-1}^{1} G over _g_grid, the independent route to
    Gamma = Psi(alpha) - u*.

    32 geometric theta panels (ratio 2) on [1e-10, 1/2] resolve the
    theta -> 0 power law, theta = 1 - s^2 with 16 uniform s-panels renders
    the upper half smooth (sqrt tail for +, exponentially flat for -), and
    [0, 1e-10] takes the small-theta asymptote (power law, or log at
    kappa = 2) in closed form, with its coefficient measured at 1e-10.
    Against 240 theta panels this is within 1e-14 relative on
    [1e-10, 1/2] for kappa 1.1 to 48.
    """
    t0 = 1e-10
    kappa = profile.kappa

    def panel_sum(edges, f):
        half = 0.5 * (edges[1:] - edges[:-1])
        mid = 0.5 * (edges[1:] + edges[:-1])
        nodes = (mid[:, None] + half[:, None] * kn._GL_X[None, :]).ravel()
        return float(np.sum(half * (f(nodes).reshape(len(half), -1) @ kn._GL_W)))

    total = 0.0
    for sign in (1.0, -1.0):
        def g(t):
            return kn._g_grid(profile, sign * t)

        body = panel_sum(np.geomspace(t0, 0.5, 33), g)
        upper = panel_sum(np.linspace(0.0, np.sqrt(0.5), 17), lambda s: 2.0 * s * g(1.0 - s * s))
        g0 = g(np.array([t0]))[0]
        if abs(kappa - 2.0) <= 1e-9:
            tail = g0 / (-np.log(t0)) * (t0 - t0 * np.log(t0))
        elif kappa < 2.0:
            tail = g0 / t0 ** (kappa - 2.0) * t0 ** (kappa - 1.0) / (kappa - 1.0)
        else:
            tail = g0 * t0
        total += body + upper + tail
    return profile.gamma * total


@pytest.mark.parametrize(
    "layout",
    [(4.0, (0.0, 1.0, 3.0, 7.0)), (64.0, kn._V_LAYOUT[1])],
    ids=["cut_at_e^-7", "geometric_ratio_64"],
)
def test_gamma_gap_sees_the_v_layout(monkeypatch, profile02, layout):
    # a broken v-layout shows in the table's off-grid probes against the
    # adaptive g_eval
    monkeypatch.setattr(kn, "_V_LAYOUT", layout)
    with pytest.raises(QuadratureFailure, match="table interpolation error"):
        kn.build_kernel_table(profile02, 2048, 1e-9)


def test_gamma_work_is_pinned(monkeypatch, profile02):
    # Gamma is the closed form: no density point and no Kummer function
    calls = []

    def counting(name):
        original = getattr(kn, name)

        def counted(*args):
            calls.append(name)
            return original(*args)

        return counted

    for name in ("_g_grid", "g_eval", "_kummer_transformed", "kummer_series"):
        monkeypatch.setattr(kn, name, counting(name))
    assert kn.gamma_const(profile02) > 0.0
    assert calls == []


def test_gamma_const_graded_vs_cutoff_extrapolation(profile02):
    gam = kn.gamma_const(profile02)
    # plain adaptive quadrature with interior cutoffs 10^-k, extrapolated
    # through the leading |theta|^(kappa - 2) tail (the next, constant-order
    # density term leaves a residual of order cut itself, hence small cuts)
    k = profile02.kappa

    def plain(lo, hi):
        pieces = 0.0
        for sign in (1.0, -1.0):
            val, _ = integrate.quad(
                lambda t: kn.g_eval(profile02, sign * t, 1e-7),
                lo, hi, epsabs=1e-9, epsrel=1e-7, limit=200,
            )
            pieces += val
        return profile02.gamma * pieces

    cuts = [1e-6, 1e-7]
    base = plain(cuts[0], 1.0)
    vals = [base, base + plain(cuts[1], cuts[0])]
    w1, w2 = cuts[0] ** (k - 1.0), cuts[1] ** (k - 1.0)
    extrap = (vals[1] * w1 - vals[0] * w2) / (w1 - w2)
    assert gam == pytest.approx(extrap, abs=1e-6)


@pytest.mark.parametrize("alpha, beta, u_star", SOURCE_IDENTITY_POINTS)
def test_gamma_const_positive_and_matches_source_identity(alpha, beta, u_star):
    # the precipitation-free self-similar solution gives the exact identity
    # Gamma = Psi(alpha) - u*; the points put kappa on both sides of 2,
    # and the last at 46.  Worst gap 1.0e-10 relative, at kappa 1.77
    prof = solve_kappa(ModelParams(alpha, beta, u_star))
    gam = kn.gamma_const(prof)
    assert gam > 0
    assert gam == psi_at_source(prof.params) - u_star
    assert gamma_by_quadrature(prof) == pytest.approx(gam, rel=1e-9, abs=0.0)


@pytest.mark.parametrize("alpha, beta, u_star", SOURCE_IDENTITY_POINTS)
def test_gamma_const_meets_the_tightest_tolerance(alpha, beta, u_star):
    # build_kernel_table accepts quad_tol down to QUAD_TOL_MIN: the default
    # table passes its off-grid probes there and carries the closed-form Gamma
    prof = solve_kappa(ModelParams(alpha, beta, u_star))
    _, kern = kn.build_kernel_table(prof, 2048, kn.QUAD_TOL_MIN)
    assert kern.gamma_const == kn.gamma_const(prof)


# each example builds a table and integrates G over theta (0.1-0.4 s, over
# 1 s at large kappa), so a failure is reported as drawn, without minutes
# of shrinking
@settings(max_examples=12, deadline=None, derandomize=True, phases=(Phase.generate,))
@given(
    st.floats(min_value=0.5, max_value=3.0),
    st.floats(min_value=0.3, max_value=3.0),
    st.floats(min_value=0.01, max_value=1.0),
)
def test_gamma_identity_on_solvable_parameters(alpha, beta, u_star):
    params = ModelParams(alpha, beta, u_star)
    assume(check_solvability(params).solvable)
    prof = solve_kappa(params)
    # the benchmark's bound; the table's off-grid probes must pass too
    _, kern = kn.build_kernel_table(prof, 256)
    assert kern.gamma_const == psi_at_source(params) - u_star
    assert abs(gamma_by_quadrature(prof) - kern.gamma_const) <= 1e-9


# ---------------------------------------------------------------------------
# table and Kernel wrapper


def test_table_invariants(model_kernel02):
    table, kern = model_kernel02
    assert table.k_vals[0] == 0.0
    assert table.k_vals[-1] == 0.0
    recon = table.thetas**2 * (table.g_plus + table.g_minus)
    interior = slice(1, -1)
    assert np.max(np.abs(recon[interior] - table.k_vals[interior])) < 1e-12
    assert np.all(np.diff(table.cum_prefix) >= -1e-15)


def test_table_offgrid_probes(profile02, model_kernel02):
    _, kern = model_kernel02
    for th in (0.0123456, 0.2468, 0.654321, 0.9753):
        direct = kn.k_eval(profile02, th, 1e-10)
        assert abs(float(kern.eval(th)) - direct) <= 1e-8 * max(1.0, abs(direct))


def test_table_cum_additive_and_consistent(model_kernel02):
    _, kern = model_kernel02
    a, b, c = 0.1, 0.45, 0.83
    assert kern.cum(a, b) + kern.cum(b, c) == pytest.approx(kern.cum(a, c), abs=1e-12)
    quad_val, _ = integrate.quad(lambda t: float(kern.eval(t)), 0.0, c, limit=300)
    assert kern.cum(0.0, c) == pytest.approx(quad_val, abs=1e-9)


def test_table_prefix_matches_independent_quadrature(model_kernel02):
    table, kern = model_kernel02
    i = len(table.thetas) // 2
    th = float(table.thetas[i])
    quad_val, _ = integrate.quad(lambda t: float(kern.eval(t)), 0.0, th, limit=300)
    assert table.cum_prefix[i] == pytest.approx(quad_val, abs=1e-9)


def test_table_tail_ratio(model_kernel02):
    _, kern = model_kernel02
    for j in range(2, 6):
        d = 10.0**-j
        ratio = float(kern.eval(1.0 - d)) / np.sqrt(d)
        assert ratio == pytest.approx(kern.k_coeff, rel=0.2 / j)


def test_property_one_decay(profile015):
    vals = [kn.k_eval(profile015, h, 1e-10) / h for h in (1e-2, 1e-3, 1e-4, 1e-5)]
    assert all(v2 < v1 for v1, v2 in zip(vals, vals[1:]))
    assert vals[-1] < 1e-4


def test_property_three_single_inflection(profile015):
    thetas = np.linspace(1e-3, 1.0 - 1e-3, 2000)
    k_vals = thetas**2 * (kn._g_grid(profile015, thetas) + kn._g_grid(profile015, -thetas))
    d2 = np.diff(k_vals, 2)
    nz = d2[np.abs(d2) > 0]
    assert int(np.sum(np.diff(np.sign(nz)) != 0)) == 1


def test_kernel_positive_interior(model_kernel02):
    _, kern = model_kernel02
    vals = kern.eval(np.linspace(1e-3, 1.0 - 1e-3, 500))
    assert np.all(vals > 0)


# ---------------------------------------------------------------------------
# unimodality diagnostic F


def f_exact_synthetic(z):
    kp = 2.0 * z * np.sqrt(1.0 - z) - z * z / (2.0 * np.sqrt(1.0 - z))
    kern = kn.synthetic_kernel(0.5, 1.0)
    return z * z * kp - 2.0 * z * (z * z * np.sqrt(1.0 - z)) - 2.0 * kern.cum(z, 1.0)


def test_f_diagnostic_against_closed_form(synthetic):
    for z in (0.2, 0.5, 0.8):
        assert kn.f_diagnostic(synthetic, z) == pytest.approx(f_exact_synthetic(z), abs=1e-5)


def test_f_diagnostic_toward_one(synthetic):
    vals = [kn.f_diagnostic(synthetic, 1.0 - d) for d in (1e-2, 1e-3, 1e-4)]
    assert all(v < 0 for v in vals)


def test_f_prime_single_sign_change(model_kernel015):
    _, kern = model_kernel015
    zs = np.linspace(0.02, 0.98, 200)
    f_vals = np.array([kn.f_diagnostic(kern, z) for z in zs])
    df = np.diff(f_vals)
    changes = int(np.sum(np.diff(np.sign(df[df != 0])) != 0))
    assert changes == 1
    z_star = zs[np.argmax(f_vals)]
    assert f_vals.max() == max(f_vals)
    assert 0.0 < z_star < 1.0


# ---------------------------------------------------------------------------
# sampled-kernel reconstruction


def test_kernel_from_samples_roundtrip(synthetic):
    thetas = np.sin(np.linspace(0.0, np.pi / 2.0, 1025)) ** 2
    cums = synthetic.cum(0.0, thetas)
    rebuilt = kn.kernel_from_samples(
        thetas, synthetic.eval(thetas), cums, 0.5, 1.0, synthetic.gamma_const,
    )
    probe = np.linspace(0.01, 0.999, 301)
    assert np.max(np.abs(rebuilt.eval(probe) - synthetic.eval(probe))) < 2e-6
    assert rebuilt.cum(0.0, 1.0) == pytest.approx(16.0 / 105.0, abs=1e-6)


def test_kernel_from_samples_tail_rule():
    thetas = np.linspace(0.0, 0.9, 200)
    kern = kn.synthetic_kernel(0.5, 1.0)
    rebuilt = kn.kernel_from_samples(
        thetas, kern.eval(thetas), kern.cum(0.0, thetas), 0.5, 1.0, kern.gamma_const
    )
    # beyond the last node: linear in sqrt(1 - theta) through zero at 1
    k_last = float(kern.eval(0.9))
    expect = k_last * np.sqrt(1.0 - 0.95) / np.sqrt(1.0 - 0.9)
    assert float(rebuilt.eval(0.95)) == pytest.approx(expect, rel=1e-12)
    assert float(rebuilt.eval(1.0)) == 0.0


def test_kernel_from_samples_tail_follows_sigma():
    # beyond the last node K keeps V = K/(1-theta)^sigma at its last value
    thetas = np.linspace(0.0, 0.9, 200)
    kern = kn.synthetic_kernel(0.3, 1.0)
    rebuilt = kn.kernel_from_samples(
        thetas, kern.eval(thetas), kern.cum(0.0, thetas), 0.3, 1.0, kern.gamma_const
    )
    expect = float(kern.eval(0.9)) * (0.05 / 0.1) ** 0.3
    assert float(rebuilt.eval(0.95)) == pytest.approx(expect, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("last", [1.0, 0.9])
def test_kernel_from_samples_reproduces_nodes(last):
    # one interpolant: prefix meets cumK and eval meets K at every node, and
    # eval is the derivative of prefix, also past a last node below 1
    kern = kn.synthetic_kernel(0.3, 1.0)
    thetas = last * np.sin(np.linspace(0.0, np.pi / 2.0, 129)) ** 2
    k, cum = kern.eval(thetas), kern.cum(0.0, thetas)
    rebuilt = kn.kernel_from_samples(thetas, k, cum, 0.3, 1.0, kern.gamma_const)
    np.testing.assert_allclose(rebuilt.prefix(thetas) - rebuilt.prefix(0.0), cum,
                               rtol=0.0, atol=1e-15)
    np.testing.assert_allclose(rebuilt.eval(thetas), k, rtol=1e-13, atol=1e-16)
    for a, b in ((0.05, 0.4), (0.5, 0.97), (0.0, 1.0)):
        inside = thetas[(thetas > a) & (thetas < b)]
        val, _ = integrate.quad(rebuilt.eval, a, b, epsabs=0.0, epsrel=1e-13,
                                limit=400, points=inside)
        assert rebuilt.cum(a, b) == pytest.approx(val, rel=1e-12, abs=0.0)


def test_kernel_from_samples_rejects_bad_shapes_and_sigma():
    kern = kn.synthetic_kernel(0.5, 1.0)
    thetas = np.linspace(0.0, 0.9, 20)
    k, cum = kern.eval(thetas), kern.cum(0.0, thetas)
    for sigma in (0.0, kn.SIGMA_MAX, np.nan):
        with pytest.raises(InvalidParameter, match="sigma must lie in"):
            kn.kernel_from_samples(thetas, k, cum, sigma, 1.0, 2.0 / 3.0)
    for args in ((thetas[:7], k[:7], cum[:7]), (thetas, k[:-1], cum),
                 (thetas, k, cum[:-1]), (thetas[None, :], k[None, :], cum[None, :])):
        with pytest.raises(InvalidParameter, match="matching 1-d"):
            kn.kernel_from_samples(*args, 0.5, 1.0, 2.0 / 3.0)


@pytest.mark.parametrize(
    "column, value, name",
    [("theta", np.nan, "^theta samples"), ("K", -1e-3, "^K samples"),
     ("K", np.nan, "^K samples"), ("K", np.inf, "^K samples"),
     ("cum", 0.0, "^cumK samples"), ("cum", np.nan, "^cumK samples"),
     ("cum", np.inf, "^cumK samples")],
)
def test_kernel_from_samples_rejects_bad_values(column, value, name):
    kern = kn.synthetic_kernel(0.5, 1.0)
    thetas = np.linspace(0.0, 0.9, 20)
    cols = {"theta": thetas, "K": kern.eval(thetas), "cum": kern.cum(0.0, thetas)}
    cols[column][10] = value
    with pytest.raises(InvalidParameter, match=name):
        kn.kernel_from_samples(cols["theta"], cols["K"], cols["cum"], 0.5, 1.0, 2.0 / 3.0)


def test_generalizes_beyond_unit_parameters():
    # a steep case (kappa ~ 18): Gamma identity and tail law still hold
    from liesegang.profile import ModelParams, psi_at_source, solve_kappa

    params = ModelParams(2.0, 0.5, 0.05)
    prof = solve_kappa(params)
    assert prof.kappa > 10
    assert gamma_by_quadrature(prof) == pytest.approx(psi_at_source(params) - 0.05, abs=1e-8)
    ratio = kn.k_eval(prof, 1.0 - 1e-4, 1e-9) / np.sqrt(1e-4)
    assert ratio == pytest.approx(kn.k_coefficient(prof), rel=0.05)


@pytest.mark.parametrize("gap", [3e-4, 1e-4, 1e-7])
def test_table_eval_near_one_matches_direct(profile02, model_kernel02, gap):
    # the V(u) spline is accurate up to theta = 1; the leading asymptote
    # k sqrt(1 - theta) is 0.6% off at 1 - theta = 1e-4
    _, kern = model_kernel02
    direct = kn.k_eval(profile02, 1.0 - gap, quad_tol=1e-11)
    assert abs(float(kern.eval(1.0 - gap)) - direct) <= 1e-9 * direct
