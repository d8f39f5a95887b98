import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st
from scipy import optimize
from scipy.integrate import solve_ivp

from liesegang import profile as pr
from liesegang.errors import InvalidParameter, NoRoot
from liesegang.profile import (
    KAPPA_MAX,
    ModelParams,
    check_solvability,
    phi_eval,
    psi_at_source,
    psi_eval,
    solve_kappa,
    threshold_candidates,
    u_star_curve,
)

from .conftest import SOURCE_IDENTITY_POINTS

# frozen oracle values, alpha = beta = 1
U0_KAPPA0 = 0.5456413607650469  # (sqrt(pi)/2) e^(1/4) erfc(1/2)
U0_KAPPA1 = 0.2840062616079514  # (sqrt(pi)/2) e^(1/4) erf(1/2) erfc(1/2)
PSI0_SHOOTING = 0.5456413607650495  # linear shooting with jump condition at alpha


def test_params_validation():
    with pytest.raises(InvalidParameter):
        ModelParams(-1.0, 1.0, 0.2)
    with pytest.raises(InvalidParameter):
        ModelParams(1.0, 1.0, 0.0)


def test_kappa_root_with_scan_oracle(params02, profile02):
    # independent fine-grid scan brackets the root
    ks = np.linspace(1.7, 1.85, 3001)
    vals = np.array([u_star_curve(params02, k) - 0.2 for k in ks])
    idx = np.nonzero(vals[:-1] * vals[1:] < 0)[0]
    assert len(idx) == 1
    lo, hi = ks[idx[0]], ks[idx[0] + 1]
    assert lo <= profile02.kappa <= hi
    assert abs(u_star_curve(params02, profile02.kappa) - 0.2) < 1e-10


def _scan_grid():
    return 1.0 + np.geomspace(1e-9, KAPPA_MAX - 1.0, 240)


def _full_scan_kappa(params):
    """Reference: every scan point, the first sign change, then brentq."""

    def f(k):
        return u_star_curve(params, k) - params.u_star

    grid = _scan_grid()
    vals = np.array([f(k) for k in grid])
    idx = np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]
    return optimize.brentq(f, grid[idx[0]], grid[idx[0] + 1], xtol=np.finfo(float).tiny)


@pytest.mark.parametrize("alpha, beta, u_star", SOURCE_IDENTITY_POINTS)
def test_kappa_bisection_matches_full_scan(monkeypatch, alpha, beta, u_star):
    # bisection over the grid finds the scan's own bracket, so brentq's
    # iterates and kappa are bitwise the same, at a tenth of the calls
    params = ModelParams(alpha, beta, u_star)
    reference = _full_scan_kappa(params)
    calls = []

    def counting_curve(p, k):
        calls.append(k)
        return u_star_curve(p, k)

    monkeypatch.setattr(pr, "u_star_curve", counting_curve)
    prof = solve_kappa(params)
    assert prof.kappa == reference
    assert len(calls) == prof.kappa_evals <= 30


def test_kappa_at_a_grid_point_is_returned():
    # a u* that puts the root exactly on a scan point: the scan saw no
    # strict sign change there, the bisection brackets it
    params = ModelParams(1.0, 1.0, 0.2)
    k = _scan_grid()[100]
    on_grid = ModelParams(1.0, 1.0, u_star_curve(params, k))
    assert solve_kappa(on_grid).kappa == k


# bisection's premise: the curve decreases strictly in kappa; beta only
# scales it
@settings(max_examples=40, deadline=None, derandomize=True, phases=(Phase.generate,))
@given(st.floats(min_value=0.05, max_value=6.0))
def test_u_star_curve_decreases_on_scan_grid(alpha):
    params = ModelParams(alpha, 1.0, 0.2)
    vals = np.array([u_star_curve(params, k) for k in _scan_grid()])
    assert np.all(np.diff(vals) < 0.0)


def test_gamma_relation(profile02):
    assert profile02.gamma == profile02.kappa * (profile02.kappa - 1.0)


def test_kappa_monotonic_in_u_star(profile02, profile015):
    assert profile015.kappa > profile02.kappa


def test_no_root_above_threshold():
    with pytest.raises(NoRoot):
        solve_kappa(ModelParams(1.0, 1.0, 10.0))
    with pytest.raises(NoRoot):
        solve_kappa(ModelParams(1.0, 1.0, U0_KAPPA1 * 1.0001))


def test_threshold_candidates(params02):
    at0, at1 = threshold_candidates(params02)
    assert at0 == pytest.approx(U0_KAPPA0, abs=1e-12)
    assert at1 == pytest.approx(U0_KAPPA1, abs=1e-12)


def test_check_solvability(params02):
    rep = check_solvability(params02)
    assert rep.solvable
    assert not check_solvability(ModelParams(1.0, 1.0, 10.0)).solvable


def test_solvability_sliver_below_kappa_one():
    # between u_star_curve(1 + 1e-9) and u_star_curve(1): below the reported
    # kappa = 1 threshold, but the scan grid brackets no root
    params = ModelParams(1.0, 1.0, 0.28400626153195696)
    rep = check_solvability(params)
    assert params.u_star < rep.u0_star_kappa1
    assert not rep.solvable
    with pytest.raises(NoRoot):
        solve_kappa(params)


@settings(max_examples=80, deadline=None, derandomize=True, phases=(Phase.generate,))
@given(
    st.floats(min_value=0.05, max_value=6.0),
    st.floats(min_value=0.1, max_value=5.0),
    st.sampled_from([1.0, 1.0 + 5e-10, float(_scan_grid()[0]), 1.7, KAPPA_MAX]),
    st.floats(min_value=-1e-9, max_value=1e-9),
)
def test_check_solvability_agrees_with_solve_kappa(alpha, beta, kappa, shift):
    # u* drawn next to the bracket's ends, where the two could disagree
    params = ModelParams(alpha, beta, 1.0)
    params = ModelParams(alpha, beta, u_star_curve(params, kappa) * (1.0 + shift))
    try:
        solve_kappa(params)
        solved = True
    except NoRoot:
        solved = False
    assert check_solvability(params).solvable == solved


def test_phi_internal_boundary(profile02):
    assert phi_eval(profile02, 1.0) == pytest.approx(0.2, rel=1e-12)


def test_phi_branches_agree_at_alpha(profile02):
    alpha = profile02.params.alpha
    left = phi_eval(profile02, alpha - 1e-13)
    right = phi_eval(profile02, alpha + 1e-13)
    assert abs(left - right) < 1e-10


def test_phi_array_matches_scalar_calls(profile02):
    alpha = profile02.params.alpha
    eta = np.array([2.0, 0.3, alpha, 0.0, np.nextafter(alpha, 0.0), 5.5, 0.9 * alpha])
    assert np.array_equal(phi_eval(profile02, eta), [phi_eval(profile02, e) for e in eta])


def test_phi_positive_and_decaying(profile02):
    eta = np.linspace(0.05, 8.0, 200)
    vals = phi_eval(profile02, eta)
    assert np.all(vals > 0)
    tail = phi_eval(profile02, np.array([4.0, 6.0, 8.0]))
    assert np.all(np.diff(tail) < 0)


def test_phi_against_ode_shooting(profile02):
    # integrate the self-similar equation from the regular small-eta branch
    k, g = profile02.kappa, profile02.gamma
    eta0 = 1e-8

    def rhs(t, y):
        return [y[1], -(t / 2.0) * y[1] + (g / (t * t)) * y[0]]

    sol = solve_ivp(
        rhs, [eta0, 1.0], [eta0**k, k * eta0 ** (k - 1.0)],
        rtol=1e-12, atol=1e-300, dense_output=True, method="DOP853",
    )
    scale = 0.2 / sol.y[0, -1]
    oracle = scale * sol.sol(0.5)[0]
    assert phi_eval(profile02, 0.5) == pytest.approx(oracle, rel=1e-9)


def test_phi_ode_residual(profile02):
    # finite-difference residual of the similarity equation away from alpha
    pts = np.concatenate([np.linspace(0.1, 0.9, 60), np.linspace(1.1, 3.0, 40)])
    h = 1e-4
    for eta in pts:
        f0 = phi_eval(profile02, eta)
        fp = phi_eval(profile02, eta + h)
        fm = phi_eval(profile02, eta - h)
        d2 = (fp - 2.0 * f0 + fm) / h**2
        d1 = (fp - fm) / (2.0 * h)
        sink = profile02.gamma / eta**2 * f0 if eta < 1.0 else 0.0
        assert abs(d2 + (eta / 2.0) * d1 - sink) < 1e-4


def test_psi_closed_form(params02):
    assert psi_eval(params02, 0.0) == pytest.approx(U0_KAPPA0, abs=1e-12)
    assert psi_eval(params02, 1.0) == psi_eval(params02, 0.0)
    assert psi_eval(params02, 40.0) < 1e-30


def test_psi_shooting_oracle(params02):
    # flat below alpha; above alpha solve y'' = -(eta/2) y' with the
    # jump y'(alpha+) = -alpha beta / 2 and y -> 0, so Psi(0) = -y2(L)
    # for y2 with y2(alpha) = 0 (linearity in the unknown constant)
    assert PSI0_SHOOTING == pytest.approx(psi_at_source(params02), abs=1e-11)


def test_psi_jump_condition(params02):
    h = 1e-7
    slope_right = (psi_eval(params02, 1.0 + 2 * h) - psi_eval(params02, 1.0 + h)) / h
    assert slope_right == pytest.approx(-0.5, rel=1e-4)


def test_psi_dominates_phi(params02, profile02):
    eta = np.linspace(0.0, 1.0, 41)
    assert np.all(psi_eval(params02, eta) >= phi_eval(profile02, eta))
