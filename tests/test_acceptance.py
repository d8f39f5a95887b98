"""Acceptance suite: one test per criterion, printed pass/fail lines.

Each criterion pins its tolerances explicitly; shared heavy objects come
from session fixtures (their construction cost is itself covered by the
module tests).  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import time
from contextlib import contextmanager
import numpy as np
import pytest
from scipy import integrate

from liesegang import degenerate, extended, pde, rings
from liesegang import kernel as kn
from liesegang.profile import ModelParams, threshold_candidates
from liesegang.specfun import erfc, kummer_m


@contextmanager
def criterion(number, description, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number}: FAIL - {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {number}: PASS - {description} ({elapsed:.1f}s)")
    assert elapsed < budget_seconds, f"runtime {elapsed:.1f}s over budget {budget_seconds}s"


def test_criterion_1_special_functions():
    with criterion(1, "special functions", 1.0):
        # M(1, 2, z) = (e^z - 1)/z; kummer_m is defined for z <= 0 only
        assert abs(kummer_m(1.0, 2.0, -1.0) - (1.0 - np.exp(-1.0))) < 1e-11
        for a in (0.7, 1.3, 2.6, 4.9):
            for z in (-5.0, -1.0, -0.3, 0.0):
                assert abs(kummer_m(a, a, z) - np.exp(z)) < 1e-11 * max(1.0, np.exp(z))
        quad_val, _ = integrate.quad(
            lambda t: np.exp(-t * t), 0.5, np.inf, epsabs=0.0, epsrel=1e-13
        )
        oracle = 2.0 / np.sqrt(np.pi) * quad_val
        assert abs(erfc(0.5) - oracle) < 1e-11


def test_criterion_2_eigenvalue_solve(params02, profile02):
    with criterion(2, "eigenvalue solve", 1.0):
        from liesegang.profile import u_star_curve

        assert abs(u_star_curve(params02, profile02.kappa) - 0.2) < 1e-10
        assert profile02.gamma == profile02.kappa * (profile02.kappa - 1.0)
        at0, _ = threshold_candidates(params02)
        quad_val, _ = integrate.quad(
            lambda t: np.exp(-t * t), 0.5, np.inf, epsabs=0.0, epsrel=1e-13
        )
        erfc_oracle = 2.0 / np.sqrt(np.pi) * quad_val
        closed = (np.sqrt(np.pi) / 2.0) * np.exp(0.25) * erfc_oracle
        assert abs(at0 - closed) < 1e-9


def test_criterion_3_kernel_properties(profile02, profile015, profile01):
    # absolute bounds for properties (i) and (ii) run at the canonical
    # kernel parameters u* = 0.15 (for u* = 0.2 the near-zero exponent
    # kappa - 1 = 0.77 puts K(h)/h at 1.19e-4 for h = 1e-5; the decay to
    # zero is asserted for all three parameter sets)
    with criterion(3, "kernel properties (i)-(iii)", 60.0):
        assert kn.k_eval(profile015, 0.0) == 0.0
        assert abs(kn.k_eval(profile015, 1e-5, 1e-10) / 1e-5) < 1e-4
        ratio = kn.k_eval(profile015, 1.0 - 1e-4, 1e-10) / np.sqrt(1e-4)
        assert abs(ratio / (np.sqrt(2.0 / np.pi) * 0.15) - 1.0) < 0.01
        thetas = np.linspace(1e-4, 1.0 - 1e-4, 9999)
        for prof in (profile02, profile015, profile01):
            decay = [kn.k_eval(prof, h, 1e-10) / h for h in (1e-2, 1e-3, 1e-4, 1e-5)]
            assert all(b < a for a, b in zip(decay, decay[1:]))
            k_vals = thetas**2 * (kn._g_grid(prof, thetas) + kn._g_grid(prof, -thetas))
            d2 = np.diff(k_vals, 2)
            nz = d2[np.abs(d2) > 0]
            changes = int(np.sum(np.diff(np.sign(nz)) != 0))
            assert changes == 1
            first = nz[0]
            assert first > 0  # convex then concave


def test_criterion_4_synthetic_ring_oracle(synthetic, synthetic_pattern):
    with criterion(4, "synthetic-kernel ring oracle", 30.0):
        assert abs(synthetic_pattern.zeros[1] - np.sqrt(70.0) / 4.0) < 1e-8
        from .test_rings import march_oracle

        oracle = march_oracle(synthetic, 1e-5, 4.0)
        for i in (1, 2, 3):
            assert abs(synthetic_pattern.zeros[i] - oracle[i]) < 1e-4


def test_criterion_5_accumulation_law(synthetic_pattern):
    with criterion(5, "accumulation ratio law", 60.0):
        q_bound = rings.q_star(0.5)
        g_val = (1.0 + q_bound) ** 1.5 - q_bound**1.5 - q_bound - 1.0
        assert abs(g_val) <= 1e-12
        assert abs(q_bound - 0.420) < 1e-3
        assert len(synthetic_pattern.widths) >= 11
        assert synthetic_pattern.widths[-1] < 1e-8  # run reached the width floor
        assert all(q <= q_bound + 0.05 for q in synthetic_pattern.ratios[10:])
        z = np.asarray(synthetic_pattern.zeros)
        w = np.diff(z)
        r = w[1:] / w[:-1]
        estimates = []
        for window in (3, 5):
            q_hat = min(float(np.exp(np.mean(np.log(r[-window:])))), q_bound)
            estimates.append(z[-1] + w[-1] * q_hat / (1.0 - q_hat))
        # stable to three significant digits across window choices
        assert abs(estimates[0] - estimates[1]) < 1e-3 * abs(estimates[0])


def test_criterion_6_model_pattern(model_pattern):
    with criterion(6, "derived-kernel ring pattern", 300.0):
        # at least two rings and two gaps: zeros x1..x4 all present
        assert len(model_pattern.zeros) >= 5
        widths = model_pattern.widths
        assert all(b < a for a, b in zip(widths[2:], widths[3:]))


def test_criterion_7_degenerate_construction(construction):
    with criterion(7, "degenerate construction", 120.0):
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
        assert degenerate.verify_degeneracy(construction) is True
        verdict = rings.classify_continuation(
            kern, [0.0, construction.x1, construction.x2 + construction.epsilon], 0.05
        )
        assert not verdict.positive_consistent
        assert not verdict.negative_consistent


def test_criterion_8_extended_certificate(synthetic, synthetic_pattern):
    with criterion(8, "extended-solution certificate", 300.0):
        b = 1.5 * synthetic_pattern.x_star
        sol = extended.extended_solve(
            synthetic, b=b, h=1e-3, eps_sequence=[1.6e-2, 8e-3, 4e-3]
        )
        assert sol.residual <= 5e-3
        fine = extended.extended_solve(
            synthetic, b=b, h=5e-4, eps_sequence=[8e-3, 4e-3, 2e-3]
        )
        assert fine.residual < sol.residual
        assert fine.residual <= 0.75 * sol.residual
        # relay inclusion
        tol_omega = max(4e-3, 10.0 * (1e-3) ** 0.75)
        assert np.all((sol.rho >= -1e-6) & (sol.rho <= 1.0 + 1e-6))
        assert np.all(sol.rho[sol.omega > tol_omega] == 1.0)
        assert np.all(sol.rho[sol.omega < -tol_omega] == 0.0)
        reg = extended.regular_extension_solve(synthetic, synthetic_pattern, b, 1e-3)
        assert reg.residual < 1e-6
        assert np.all(reg.residual_local < 1e-6)


def test_criterion_9_pde_scheme(params02):
    with criterion(9, "finite-difference scheme", 300.0):
        cfg = pde.PdeConfig(ModelParams(1.6, 1.0, 0.2), N=16, ds=1e-2, s_max=0.1)
        state = pde.init(cfg)
        state.j = 6
        diag, lower, upper, _ = pde.assemble_system(state, cfg)
        assert (diag[3], lower[3], upper[3]) == pytest.approx((410.0, -200.0, -203.0))
        for model in (pde.SIMPLIFIED, pde.FULL):
            config = pde.PdeConfig(params02, N=100, ds=1e-2, s_max=40.0, model=model)
            state = pde.init(config)
            worst = 0.0
            n_steps = int(round(config.s_max / config.ds))
            sup_at_5 = None
            for _ in range(n_steps):
                pde.step(state, config)
                j = state.j
                if j > config.N:
                    lhs = (j / config.N) * float(np.sum(state.p[: config.N]))
                    rhs = state.P_hist[j] - state.P_hist[0]
                    worst = max(worst, abs(lhs - rhs))
                if j == int(round(5.0 / config.ds)):
                    sup_at_5 = float(np.max(np.abs(state.w)))
            sup_at_40 = float(np.max(np.abs(state.w)))
            assert worst <= 1e-12
            assert sup_at_40 < sup_at_5


def test_criterion_10_cross_validation(params02, model_kernel02, model_pattern):
    # onset offsets are measured in the mesh's physical image on the
    # parabola (size s * d_eta); the similarity-step measure is also
    # reported by the comparison op
    with criterion(10, "PDE versus relay cross-validation", 600.0):
        _, kern = model_kernel02
        config = pde.PdeConfig(params02, N=1000, ds=1e-3, s_max=4.0)
        result = pde.run(config)
        report = pde.parabola_compare(result, kern, model_pattern)
        print(
            f"  onset offset: {report.first_onset_cells:.2f} physical cells, "
            f"{report.first_onset_similarity_cells:.2f} similarity steps"
        )
        assert report.first_onset_cells < 3.0
