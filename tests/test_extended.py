import dataclasses
import math

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st
from scipy import integrate

from liesegang import extended, kernel, rings
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
    k = int(np.argmin(np.abs(grid - x1)))
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
    scalar = np.array([moll.ramp_slope(z)[0] for z in zs])
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
    assert [row[0] for row in solution.newton_trace] == eps_vals
    for _, fraction, most, mean in solution.newton_trace:
        assert 0.0 < fraction < 1.0 and 1.0 <= mean <= most <= 3


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
    ringless = rings.RingPattern((0.0,), rings.Classification.DEGENERATE, 0.0, 0.5)
    with pytest.raises(InvalidParameter, match="ring"):
        extended.regular_extension_solve(synthetic, ringless, 5.0, 1e-3)


def test_relay_grid_layout(synthetic):
    # the first band is sampled at steps of at most h; past x0 the nodes are
    # x0 q^k with q <= 1 + h/b, ending at b
    b, h = 2.5, 1e-3
    mollifiers = [extended.Mollifier(e) for e in (1.6e-2, 8e-3)]
    layout = extended._relay_grid(synthetic, mollifiers, b, h)
    assert np.all(np.diff(layout.grid) <= h * (1.0 + 1e-12))
    geo = layout.grid[layout.first :]
    assert np.allclose(geo[1:] / geo[:-1], layout.q, rtol=1e-13, atol=0.0)
    assert layout.q <= 1.0 + h / b
    assert geo[-1] == pytest.approx(b, rel=1e-13)
    # the closed form holds on the first band, and the ramp is flat at its end
    grid, omegas = extended.mollified_solve(synthetic, mollifiers, b, h)
    band = grid[: layout.first + 1]
    for row, moll in zip(omegas, mollifiers):
        closed_form = synthetic.gamma_const - band**2 * layout.mass
        assert np.array_equal(row[: layout.first + 1], closed_form)
        assert moll.ramp_slope(row[layout.first])[0] == 1.0


def test_eps_not_below_gamma_has_no_first_band(synthetic):
    with pytest.raises(InvalidParameter, match="Gamma"):
        extended.mollified_solve(synthetic, [extended.Mollifier(0.7)], 3.0, 1e-3)


@pytest.fixture(scope="module")
def coarse():
    # a small grid: q - 1 is about 0.05
    return kernel.synthetic_kernel(0.5, 4.0), 4.0, 0.2, [0.8]


def test_mass_table_matches_per_node_prefix(coarse):
    # the Toeplitz masses against each node's own prefix differences over
    # grid/x_k, and the first band's mass; relative to the node's largest
    # mass, since the prefix rounds absolutely where theta is small
    kern, b, h, eps = coarse
    layout = extended._relay_grid(kern, [extended.Mollifier(e) for e in eps], b, h)
    geo = layout.grid[layout.first :]
    c, band = extended._mass_table(kern, layout.q, len(geo) - 1)
    assert len(geo) > 15
    for k in range(1, len(geo)):
        xk = geo[k]
        direct = xk * xk * np.diff(kern.prefix(geo[: k + 1] / xk))
        assert np.max(np.abs(xk * xk * c[k - 1 :: -1] - direct)) <= 1e-14 * np.max(direct)
        direct_band = xk * xk * kern.cum(0.0, geo[0] / xk)
        assert xk * xk * band[k - 1] == pytest.approx(direct_band, rel=1e-14)


def test_march_solves_the_per_node_product_integration(synthetic, synthetic_pattern):
    # the Toeplitz march against the per-node scheme it replaces: omega at
    # node k with the masses x_k^2 diff(prefix(grid/x_k)) of that node
    moll = extended.Mollifier(8e-3)
    b, h = 1.2 * synthetic_pattern.x_star, 2e-3
    grid, (omega,) = extended.mollified_solve(synthetic, [moll], b, h)
    first = extended._relay_grid(synthetic, [moll], b, h).first
    geo, om = grid[first:], omega[first:]
    phi = moll(om)
    means = 0.5 * (phi[:-1] + phi[1:])
    assert np.any(phi < 1.0)
    for k in range(1, len(geo), 7):
        xk = geo[k]
        masses = xk * xk * np.diff(synthetic.prefix(geo[: k + 1] / xk))
        band = xk * xk * synthetic.cum(0.0, geo[0] / xk)
        expect = synthetic.gamma_const - band - float(np.dot(means[:k], masses))
        assert abs(om[k] - expect) <= 1e-10


def _picard_march(kern, mollifiers, b, h):
    """The relay march with a per-node dot product over the history and a
    Picard loop on the newest node, level by level: the reference for
    mollified_solve.  Returns omega at the geometric nodes past x0."""
    layout = extended._relay_grid(kern, mollifiers, b, h)
    gamma, x = kern.gamma_const, layout.grid[layout.first :]
    n = len(x) - 1
    c, band = extended._mass_table(kern, layout.q, n)
    c_rev = c[::-1].copy()  # c_m at index n - 1 - m
    omegas = np.empty((len(mollifiers), n))
    for omega, moll in zip(omegas, mollifiers):
        means, phi_last = np.zeros(n), 1.0
        for k in range(1, n + 1):
            xk = x[k]
            known = xk * xk * (band[k - 1] + float(np.dot(means[: k - 1], c_rev[n - k : n - 1])))
            c_last = xk * xk * c_rev[-1]
            phi_prev = phi_k = phi_last
            om_prev = None
            for it in range(60):
                om = gamma - known - 0.5 * (phi_prev + phi_k) * c_last
                phi_k = moll.ramp_slope(om)[0]
                if om_prev is not None and abs(om - om_prev) < 1e-12 and it >= 2:
                    break
                om_prev = om
            else:
                raise AssertionError(f"node {k} did not contract")
            omega[k - 1] = om
            means[k - 1] = 0.5 * (phi_prev + phi_k)
            phi_last = phi_k
    return omegas


@pytest.mark.parametrize("scale", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("sigma", [0.25, 0.4, 0.55])
def test_march_matches_the_picard_reference(sigma, scale):
    # the Newton node solve stops on the Picard loop's 1e-12 step test, and
    # the blocked history sums in another order
    kern = kernel.synthetic_kernel(sigma, scale)
    b = 1.5 * rings.solve_pattern(kern).x_star
    mollifiers = [extended.Mollifier(e) for e in (1.6e-2, 8e-3, 4e-3)]
    grid, omegas = extended.mollified_solve(kern, mollifiers, b, 1e-3)
    ref = _picard_march(kern, mollifiers, b, 1e-3)
    assert np.max(np.abs(omegas[:, len(grid) - ref.shape[1] :] - ref)) <= 2e-12


@pytest.mark.parametrize(
    "n", [0, 1, extended._BLOCK - 1, extended._BLOCK, extended._BLOCK + 1, 3 * extended._BLOCK + 5]
)
def test_causal_march_matches_per_node_dot(n):
    rng = np.random.default_rng(n)
    c, values = rng.random(n), rng.random(n) - 0.5
    seen = []

    def step(k, s):
        seen.append((k, s))
        return values[k - 1]

    assert np.array_equal(extended._causal_march(c, step), values)
    assert [k for k, _ in seen] == list(range(1, n + 1))
    for k, s in seen:
        terms = values[: k - 1] * c[k - 1 : 0 : -1]  # v_i c_(k-1-i), i < k - 1
        assert abs(s - np.dot(values[: k - 1], c[k - 1 : 0 : -1])) <= 1e-14 * np.sum(np.abs(terms))


def test_ramp_work_is_pinned(synthetic, synthetic_pattern, monkeypatch):
    # ramp_slope runs only at ramp-zone nodes, at most 3 times at each: a
    # node is saturated when omega at the previous ramp value lies on the
    # flat side that value came from
    moll, b, h = extended.Mollifier(4e-3), 1.5 * synthetic_pattern.x_star, 1e-3
    first = extended._relay_grid(synthetic, [moll], b, h).first
    calls = []
    ramp_slope = extended.Mollifier.ramp_slope
    monkeypatch.setattr(
        extended.Mollifier, "ramp_slope", lambda self, z: calls.append(z) or ramp_slope(self, z)
    )
    stats = []
    grid, (omega,) = extended.mollified_solve(synthetic, [moll], b, h, stats)
    [(fraction, most, mean)] = stats
    phi = moll(omega[first:])
    assert phi[0] == 1.0
    prev, om = phi[:-1], omega[first + 1 :]
    saturated = ((prev == 1.0) & (om >= moll.epsilon)) | ((prev == 0.0) & (om <= -moll.epsilon))
    zone = int(np.count_nonzero(~saturated))
    assert 0 < zone < len(om)
    assert fraction == zone / len(om)
    # one more call: _relay_grid checks the ramp at x0
    assert len(calls) - 1 == pytest.approx(mean * zone, abs=1e-6)
    assert 1 <= mean <= most <= 3


def test_regular_march_solves_the_per_node_collocation(synthetic, synthetic_pattern):
    x_star = synthetic_pattern.x_star
    reg = extended.regular_extension_solve(synthetic, synthetic_pattern, 1.3 * x_star, 2e-3)
    edges = np.concatenate([[x_star], reg.grid])
    ring_lo, ring_hi = np.transpose(synthetic_pattern.precipitated())
    for j in range(0, len(reg.grid), 5):
        x = reg.grid[j]
        masses = x * x * np.diff(synthetic.prefix(edges[: j + 2] / x))
        hist = x * x * float(np.sum(synthetic.cum(ring_lo / x, ring_hi / x)))
        assert hist + float(np.dot(reg.rho[: j + 1], masses)) == pytest.approx(
            synthetic.gamma_const, abs=1e-10
        )


def test_suffix_sums_round_like_short_sums():
    # the certificate's first-band sums run over every geometric panel; a
    # plain reverse cumsum of these values is off by up to 8.7e-15 relative
    values = np.random.default_rng(3).random(50_000) * 1e-4
    out = extended._suffix_sums(values)
    for k in (*range(0, len(values), 997), 255, 256, 257, len(values) - 1):
        exact = math.fsum(values[k:])
        assert abs(out[k] - exact) <= 2e-15 * exact


_GL4 = np.polynomial.legendre.leggauss(4)
_GL6 = np.polynomial.legendre.leggauss(6)


def _gauss(f, lo, hi):
    """4-point Gauss rule of f on each panel [lo, hi], summed."""
    x, w = _GL4
    lo = np.asarray(lo, dtype=float)[..., None]
    half = 0.5 * (np.asarray(hi, dtype=float)[..., None] - lo)
    return float(np.sum(half * w * f(lo + half * (1.0 + x))))


def _end_gauss(f, theta_lo):
    """6-point Gauss rule of f on [theta_lo, 1] in theta = 1 - t^2."""
    x, w = _GL6
    half = 0.5 * np.sqrt(1.0 - theta_lo)
    t = half * (1.0 + x)
    return half * float(np.sum(w * f(1.0 - t * t) * 2.0 * t))


def test_relay_certificate_matches_per_node_gauss_loop(coarse):
    # the convolution certificate against a per-node loop over the same
    # panels, rho interpolated by np.interp at each node's own points
    kern, b, h, eps = coarse
    sol = extended.extended_solve(kern, b, h, eps)
    layout = extended._relay_grid(kern, [extended.Mollifier(e) for e in eps], b, h)
    q = layout.q
    lo, width = extended._panels(q, len(sol.grid) - 1 - layout.first, to_zero=True)
    assert lo[-1] == 0.0 and lo[-2] <= 1e-6
    assert np.any(sol.rho[layout.first :] < 1.0)
    for k, x in enumerate(sol.grid):
        def f(theta):
            return kern.eval(theta) * np.interp(x * theta, sol.grid, sol.rho)

        total = _end_gauss(f, 1.0 / q) + _gauss(f, lo, lo + width)
        expect = abs(sol.omega[k] - kern.gamma_const + x * x * total)
        assert sol.residual_local[k] == pytest.approx(expect, abs=1e-13)


def test_regular_certificate_matches_per_node_gauss_loop(synthetic, synthetic_pattern):
    x_star = synthetic_pattern.x_star
    reg = extended.regular_extension_solve(synthetic, synthetic_pattern, 1.3 * x_star, 0.05)
    edges = np.concatenate([[x_star], reg.grid])
    assert len(reg.grid) > 10
    for j, x in enumerate(reg.grid):
        def f(y):
            return synthetic.eval(y / x)

        total = 0.0
        for lo, hi in synthetic_pattern.precipitated():
            sub = np.linspace(lo, hi, int(np.ceil((hi - lo) / (0.04 * x_star))) + 1)
            total += _gauss(f, sub[:-1], sub[1:])
        total += sum(reg.rho[i] * _gauss(f, edges[i], edges[i + 1]) for i in range(j))
        total = total / x + reg.rho[j] * _end_gauss(synthetic.eval, edges[j] / x)
        expect = abs(synthetic.gamma_const - x * x * total)
        assert reg.residual_local[j] == pytest.approx(expect, abs=1e-13)


def _counting(kern):
    """kern with prefix and eval wrapped to count their calls."""
    calls = {"prefix": 0, "eval": 0}

    def wrap(name, fn):
        def counted(theta):
            calls[name] += 1
            return fn(theta)

        return counted

    counted = dataclasses.replace(
        kern, prefix=wrap("prefix", kern.prefix), eval=wrap("eval", kern.eval), cum=None
    )
    return counted, calls


def test_kernel_calls_do_not_grow_with_the_node_count(synthetic, synthetic_pattern):
    b = 1.5 * synthetic_pattern.x_star
    counts = []
    for h in (4e-3, 2e-3):
        kern, calls = _counting(synthetic)
        sol = extended.extended_solve(kern, b, h, [1.6e-2])
        reg = extended.regular_extension_solve(kern, synthetic_pattern, b, h)
        counts.append((dict(calls), len(sol.grid), len(reg.grid)))
    (coarse, n_sol, n_reg), (fine, n_sol2, n_reg2) = counts
    assert n_sol2 > 1.8 * n_sol and n_reg2 > 1.8 * n_reg
    assert coarse == fine


def test_mollified_converges_to_regular_extension():
    # past x*, omega_eps -> 0 and rho_eps -> rho_reg at first order in eps.
    # Measured on x > 1.02 x*: the max rho gap near ring edges and near x*
    # decays slowly, so the rho check is on the mean gap.  sigma 0.3 and 0.4
    # both accumulate; the third case is sigma 0.3's first six zeros labelled
    # Degenerate, with x* at the last zero.
    eps = [1.6e-2, 8e-3, 4e-3, 2e-3]
    cases = []
    for sigma in (0.3, 0.4):
        kern = kernel.synthetic_kernel(sigma, 1.0)
        pattern = rings.solve_pattern(kern)
        assert pattern.classification is rings.Classification.NON_DEGENERATE_ACCUMULATION
        cases.append((kern, pattern))
    kern, pattern = cases[0]
    zeros = pattern.zeros[:7]
    at_zero = rings.RingPattern(
        zeros=zeros, classification=rings.Classification.DEGENERATE, x_star=zeros[-1],
        q_star_bound=pattern.q_star_bound,
    )
    cases.append((kern, at_zero))
    for kern, pattern in cases:
        b = 1.5 * pattern.x_star
        mollifiers = [extended.Mollifier(e) for e in eps]
        grid, omegas = extended.mollified_solve(kern, mollifiers, b, 5e-4)
        reg = extended.regular_extension_solve(kern, pattern, b, 1e-3)
        past = grid > 1.02 * pattern.x_star
        # rho_reg is per panel: interpolate through the panel midpoints
        edges = np.concatenate([[pattern.x_star], reg.grid])
        rho_reg = np.interp(grid[past], 0.5 * (edges[1:] + edges[:-1]), reg.rho)
        sups = [float(np.max(np.abs(row[past]))) for row in omegas]
        for e, sup, row in zip(eps, sups, omegas):
            assert sup <= 0.6 * e
            gap = np.mean(np.abs(extended.Mollifier(e)(row[past]) - rho_reg))
            assert gap <= 0.5 * e
        for s1, s2 in zip(sups, sups[1:]):
            assert 0.45 <= s2 / s1 <= 0.55


# each example runs the whole pipeline (about 0.2 s), so a failure is
# reported as drawn, without minutes of shrinking
@settings(max_examples=8, deadline=None, derandomize=True, phases=(Phase.generate,))
@given(
    st.floats(min_value=0.2, max_value=0.55),
    st.floats(min_value=0.5, max_value=2.0),
)
def test_relay_pipeline_checks(sigma, scale):
    # the relay benchmark's pipeline and its per-case checks
    kern = kernel.synthetic_kernel(sigma, scale)
    pattern = rings.solve_pattern(kern)
    b = 1.5 * pattern.x_star
    sol = extended.extended_solve(kern, b, 1e-3, [1.6e-2, 8e-3, 4e-3])
    reg = extended.regular_extension_solve(kern, pattern, b, 1e-3)
    assert sol.residual <= 5e-3
    assert np.all((sol.rho >= -1e-6) & (sol.rho <= 1.0 + 1e-6))
    assert reg.residual < 1e-6
    assert reg.out_of_range == ()
    # the solves leave the pattern as a fresh solve_pattern finds it
    fresh = rings.solve_pattern(kernel.synthetic_kernel(sigma, scale))
    assert len(fresh.zeros) == len(pattern.zeros)
