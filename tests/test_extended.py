import numpy as np
import pytest
from scipy import integrate

from liesegang import extended, rings
from liesegang.errors import InvalidParameter, SingularPanel


@pytest.fixture(scope="module")
def solution(synthetic, synthetic_pattern):
    b = 1.5 * synthetic_pattern.x_star
    return extended.extended_solve(synthetic, b=b, h=2e-3, eps_sequence=[3.2e-2, 1.6e-2, 8e-3])


def test_mollifier_shape():
    moll = extended.Mollifier(1e-2)
    assert moll(0.0) == pytest.approx(0.5, abs=1e-14)
    assert moll(1e-2) == 1.0
    assert moll(-1e-2) == 0.0
    zs = np.linspace(-2e-2, 2e-2, 101)
    vals = moll(zs)
    assert np.all(np.diff(vals) >= 0)
    assert np.all((vals >= 0) & (vals <= 1))


def test_mollifier_validation():
    with pytest.raises(InvalidParameter):
        extended.Mollifier(0.0)


def test_mollified_start_at_gamma(synthetic):
    grid, (omega,) = extended.mollified_solve(synthetic, [extended.Mollifier(1e-2)], 0.5, 2e-3)
    assert omega[0] == synthetic.gamma_const


def test_mollified_saturated_plateau(synthetic):
    # before the ramp is reached the relay sits at 1 and omega matches the
    # no-memory closed form
    grid, (omega,) = extended.mollified_solve(synthetic, [extended.Mollifier(1e-2)], 1.5, 1e-3)
    expect = synthetic.gamma_const - grid**2 * synthetic.cum(0.0, 1.0)
    mask = expect > 0.1  # comfortably above the ramp
    assert np.max(np.abs(omega[mask] - expect[mask])) < 1e-5


def test_mollified_near_first_zero(synthetic):
    x1 = np.sqrt(70.0) / 4.0
    eps, h = 4e-3, 1e-3
    grid, (omega,) = extended.mollified_solve(synthetic, [extended.Mollifier(eps)], 2.2, h)
    k = int(round(x1 / h))
    assert abs(omega[k]) < 5 * (eps + np.sqrt(h))


def test_step_size_guard(synthetic):
    with pytest.raises(InvalidParameter):
        extended.mollified_solve(synthetic, [extended.Mollifier(1e-3)], 1.0, 1e-3)


@pytest.mark.parametrize("small", [0, 1, 2])
def test_step_size_guard_checks_every_level(synthetic, small):
    eps = [1.6e-2, 8e-3, 4e-3]
    eps[small] = 3e-3  # below 4h for h = 1e-3, at any position
    with pytest.raises(InvalidParameter):
        extended.mollified_solve(synthetic, [extended.Mollifier(e) for e in eps], 1.0, 1e-3)


def test_joint_march_rows_equal_single_marches(synthetic):
    eps = [1.6e-2, 8e-3, 4e-3]
    grid, omegas = extended.mollified_solve(
        synthetic, [extended.Mollifier(e) for e in eps], 2.2, 1e-3
    )
    assert omegas.shape == (3, len(grid))
    for row, e in zip(omegas, eps):
        single_grid, single = extended.mollified_solve(synthetic, [extended.Mollifier(e)], 2.2, 1e-3)
        assert np.array_equal(single_grid, grid)
        assert np.array_equal(single[0], row)


@pytest.mark.parametrize("eps", [1.6e-2, 8e-3, 4e-3, 0.3])
def test_ramp_matches_array_call_bitwise(eps):
    moll = extended.Mollifier(eps)
    zs = np.concatenate([np.linspace(-2 * eps, 2 * eps, 4001), [eps, -eps, 0.0]])
    scalar = np.array([moll.ramp(z) for z in zs])
    assert np.array_equal(scalar, moll(zs))
    # the same closed form through numpy's array exp, the march's reference
    t = np.clip((zs + eps) / (2.0 * eps), 0.0, 1.0)
    with np.errstate(divide="ignore"):
        f = np.where(t > 0.0, np.exp(-1.0 / t), 0.0)
        g = np.where(t < 1.0, np.exp(-1.0 / (1.0 - t)), 0.0)
    assert np.array_equal(scalar, f / (f + g))


def test_eps_sequence_validation(synthetic):
    with pytest.raises(InvalidParameter):
        extended.extended_solve(synthetic, 1.0, 1e-3, [1e-2, 2e-2])
    with pytest.raises(InvalidParameter):
        extended.extended_solve(synthetic, 1.0, 1e-3, [1e-2, 2e-3])


def test_relay_inclusion(solution):
    rho, omega = solution.rho, solution.omega
    assert np.all((rho >= -1e-6) & (rho <= 1.0 + 1e-6))
    tol_omega = max(8e-3, 10.0 * (2e-3) ** 0.75)
    assert np.all(rho[omega > tol_omega] == 1.0)
    assert np.all(rho[omega < -tol_omega] == 0.0)


def test_band_structure(solution, synthetic_pattern):
    z = synthetic_pattern.zeros
    grid = solution.grid
    ring_interior = (grid > z[0] + 0.1) & (grid < z[1] - 0.1)
    gap_interior = (grid > z[1] + 0.1) & (grid < z[2] - 0.1)
    assert np.all(solution.rho[ring_interior] == 1.0)
    assert np.all(solution.rho[gap_interior] == 0.0)


def test_residual_certificate(solution):
    assert solution.residual <= 5e-3
    assert solution.residual == pytest.approx(np.max(solution.residual_local))


def test_residual_local_matches_adaptive_quadrature(solution, synthetic):
    grid, rho = solution.grid, solution.rho
    for k in (1, 2, 7, len(grid) // 2, len(grid) - 1):
        x = grid[k]
        val, _ = integrate.quad(
            lambda t: synthetic.eval(t) * np.interp(t * x, grid, rho), 0.0, 1.0,
            points=grid[1:k] / x, epsabs=1e-15, epsrel=1e-13, limit=4 * k + 50,
        )
        defect = abs(solution.omega[k] - synthetic.gamma_const + x * x * val)
        assert solution.residual_local[k] == pytest.approx(defect, abs=1e-12)


def test_agreement_with_rings(solution, synthetic, synthetic_pattern):
    x_star = synthetic_pattern.x_star
    h, eps_last = 2e-3, 8e-3
    mask = solution.grid <= x_star - 10 * h
    ref = rings.omega_eval(synthetic, list(synthetic_pattern.zeros), solution.grid[mask])
    assert np.max(np.abs(solution.omega[mask] - ref)) <= 5.0 * (eps_last + np.sqrt(h))


def test_levels_reported(solution):
    eps_vals = [row[0] for row in solution.epsilon_trace]
    assert eps_vals == sorted(eps_vals, reverse=True)
    changes = [row[1] for row in solution.epsilon_trace[1:]]
    assert all(np.isfinite(c) for c in changes)
    # successive mollification levels move the iterate less and less
    assert all(c2 < c1 for c1, c2 in zip(changes, changes[1:]))


def test_regular_extension(synthetic, synthetic_pattern):
    b = 1.3 * synthetic_pattern.x_star
    reg = extended.regular_extension_solve(synthetic, synthetic_pattern, b, 2e-3)
    assert reg.residual < 1e-6
    assert reg.out_of_range == ()
    assert np.all((reg.rho >= 0.0) & (reg.rho <= 1.0))
    assert np.all(reg.residual_local <= reg.residual + 1e-300)


def test_regular_extension_guards(synthetic, synthetic_pattern):
    with pytest.raises(InvalidParameter):
        extended.regular_extension_solve(
            synthetic, synthetic_pattern, synthetic_pattern.x_star, 1e-3
        )
    with pytest.raises(SingularPanel):
        extended.regular_extension_solve(
            synthetic, synthetic_pattern, synthetic_pattern.x_star + 1e-11, 1e-12
        )


def test_regular_extension_needs_breakdown(synthetic):
    truncated = rings.solve_pattern(synthetic, max_zeros=2)
    with pytest.raises(InvalidParameter):
        extended.regular_extension_solve(synthetic, truncated, 5.0, 1e-3)
    ringless = rings.RingPattern((0.0,), (), (), rings.Classification.DEGENERATE, 0.0, 0.5)
    with pytest.raises(InvalidParameter, match="ring"):
        extended.regular_extension_solve(synthetic, ringless, 5.0, 1e-3)
