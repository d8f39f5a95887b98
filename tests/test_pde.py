import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import LinAlgError

from liesegang import pde
from liesegang.errors import InvalidParameter
from liesegang.profile import ModelParams


@pytest.fixture(scope="module")
def small_config(params02):
    return pde.PdeConfig(params02, N=32, ds=5e-3, s_max=1.0)


def test_config_validation(params02):
    with pytest.raises(InvalidParameter):
        pde.PdeConfig(params02, N=8, ds=1e-2, s_max=1.0)
    with pytest.raises(InvalidParameter):
        pde.PdeConfig(params02, N=32, ds=0.0, s_max=1.0)
    with pytest.raises(InvalidParameter):
        pde.PdeConfig(params02, N=32, ds=1e-2, s_max=1.0, model="other")


@pytest.mark.parametrize(
    "n_cells, ds, s_max",
    [(10**8, 1e-2, 1.0), (32, 1e-2, np.inf),
     (32, 1e-2, 1e300), (32, 1e-300, 40.0), (32, 1e-300, 1e300), (32, 1e-2, np.nan)],
)
def test_config_rejects_sizes_before_allocating(params02, n_cells, ds, s_max):
    # N = 10**8 is only ever passed to the constructor: a run would take gigabytes
    with pytest.raises(InvalidParameter):
        pde.PdeConfig(params02, N=n_cells, ds=ds, s_max=s_max)


def test_config_size_caps_are_inclusive(params02):
    cfg = pde.PdeConfig(params02, N=pde.MAX_N, ds=1e-6, s_max=1.0)
    assert cfg.n_steps == pde.MAX_STEPS
    with pytest.raises(InvalidParameter):
        pde.PdeConfig(params02, N=pde.MAX_N + 1, ds=1e-2, s_max=1.0)
    with pytest.raises(InvalidParameter):
        pde.PdeConfig(params02, N=32, ds=1e-6, s_max=1.1)


def test_domain_extent(small_config):
    assert small_config.n_full == 6 * small_config.N
    assert small_config.eta[-1] == pytest.approx(6.0 - small_config.d_eta)


def test_matrix_coefficients():
    # i = 3, j = 7, d_eta = 0.1: diagonal 410, lower -200, upper -203
    cfg = pde.PdeConfig(ModelParams(1.6, 1.0, 0.2), N=16, ds=1e-2, s_max=0.1)
    state = pde.init(cfg)
    state.j = 6
    diag, lower, upper, _ = pde.assemble_system(state, cfg)
    assert diag[3] == pytest.approx(410.0, rel=1e-13)
    assert lower[3] == pytest.approx(-200.0, rel=1e-13)
    assert upper[3] == pytest.approx(-203.0, rel=1e-13)
    assert upper[0] == pytest.approx(-400.0, rel=1e-13)


def test_diagonal_dominance(small_config):
    state = pde.init(small_config)
    diag, lower, upper, _ = pde.assemble_system(state, small_config)
    margin = np.abs(diag[1:-1]) - np.abs(lower[1:-1]) - np.abs(upper[1:-1])
    assert np.all(margin >= 1.0 - 1e-9)


def test_initial_state(params02, small_config):
    state = pde.init(small_config)
    n = small_config.N
    from liesegang.profile import psi_at_source

    assert state.w[n] == pytest.approx(psi_at_source(params02) - 0.2, rel=1e-12)
    assert np.max(np.abs(state.w)) <= psi_at_source(params02)
    assert np.all(state.p == 0)
    assert state.j == 0


def zero_state(config):
    """init's state with w = 0: the profile Phi itself, no excess."""
    state = pde.init(config)
    state.w = np.zeros_like(state.w)
    return state


def solve_step(state, config):
    """pde.step's implicit solve without the transport, so state.p stays
    as the test set it."""
    state.w = pde._solve_tridiagonal(*pde.assemble_system(state, config))
    state.j += 1


def test_initial_phi_hook(small_config):
    # from w = 0 (the profile Phi itself) and p = 0 the right side is the source alone
    state = zero_state(small_config)
    _, _, _, b = pde.assemble_system(state, small_config)
    assert np.array_equal(b[1:], state.src[1:])
    assert b[0] == b[1]


def test_zero_dynamics(small_config):
    state = zero_state(small_config)
    state.src = np.zeros(small_config.n_full)
    for _ in range(20):
        solve_step(state, small_config)
    assert np.max(np.abs(state.w)) == 0.0


def test_fractional_p_keeps_stationary(small_config):
    # p = gamma/(eta s)^2 below the source line balances the forcing exactly
    state = zero_state(small_config)
    for _ in range(50):
        s = (state.j + 1) * small_config.ds
        i_arr = np.arange(small_config.n_full)
        with np.errstate(divide="ignore"):
            p_frac = np.where(
                i_arr <= small_config.N,
                state.profile.gamma / np.maximum(small_config.eta * s, 1e-300) ** 2,
                0.0,
            )
        state.p = p_frac
        solve_step(state, small_config)
    assert np.max(np.abs(state.w)) < 1e-14


def test_psi_phi_stationarity_truncation(params02):
    # w = Psi - Phi is steady for p = 0; the drift is pure truncation error
    drifts = []
    for n_cells in (64, 128):
        cfg = pde.PdeConfig(params02, N=n_cells, ds=1e-3, s_max=0.06)
        state = pde.init(cfg)
        w0 = state.w.copy()
        for _ in range(50):
            solve_step(state, cfg)  # init's p = 0
        drifts.append(np.max(np.abs(state.w - w0)))
    assert drifts[0] < 5e-3
    assert drifts[1] < drifts[0]


def test_tridiagonal_residual(small_config):
    state = pde.init(small_config)
    for _ in range(10):
        diag, lower, upper, b = pde.assemble_system(state, small_config)
        w = pde._solve_tridiagonal(diag, lower, upper, b)
        n = len(diag)
        res = diag * w
        res[1:] += lower[1:] * w[:-1]
        res[:-1] += upper[:-1] * w[1:]
        assert np.max(np.abs(res - b)) <= 1e-10 * np.max(np.abs(b))
        state.w = w
        state.j += 1
        pde.transport_p(state, small_config)


def test_discrete_maximum_principle(params02):
    # with p = 0 and nonnegative forcing w never undershoots its initial floor
    cfg = pde.PdeConfig(params02, N=32, ds=1e-2, s_max=0.5)
    state = pde.init(cfg)
    floor = min(0.0, float(np.min(state.w)))
    for _ in range(50):
        solve_step(state, cfg)  # init's p = 0
        assert np.min(state.w) >= floor - 1e-12


def test_solve_rejects_a_singular_matrix():
    # a zero diagonal of odd size is singular: gtsv reports a zero pivot
    with pytest.raises(LinAlgError, match="gtsv failed"):
        pde._solve_tridiagonal(np.zeros(5), -np.ones(5), -np.ones(5), np.ones(5))


def test_solve_rejects_non_finite_rhs(small_config):
    state = pde.init(small_config)
    diag, lower, upper, b = pde.assemble_system(state, small_config)
    b[5] = np.nan
    with pytest.raises(ValueError):
        pde._solve_tridiagonal(diag, lower, upper, b)


def test_step_past_n_steps_raises(params02):
    cfg = pde.PdeConfig(params02, N=16, ds=1e-2, s_max=0.05)
    state = pde.init(cfg)
    for _ in range(cfg.n_steps):
        pde.step(state, cfg)
    assert state.j == cfg.n_steps == 5
    with pytest.raises(InvalidParameter):
        pde.step(state, cfg)


def test_lookup_formulas():
    assert pde.backward_index(10, 5, 10) == 5
    assert pde.forward_index(3, 20, 10) == 2
    assert pde.forward_index(7, 20, 10) == 4  # ceil(7/2)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=1), min_size=21, max_size=80))
def test_forward_mapping_mass(bits):
    # running-sum forward mapping against brute-force summation
    j = len(bits) - 1
    n_cells = 10
    if j <= n_cells:
        return
    p_hist = np.asarray(bits, dtype=float)
    prefix = np.concatenate([[p_hist[0]], np.cumsum(p_hist[1:]) + p_hist[0]])
    i_arr = np.arange(n_cells)
    hi = pde.backward_index(i_arr + 1, j, n_cells)
    lo = pde.backward_index(i_arr, j, n_cells)
    p_row = (n_cells / j) * (prefix[hi] - prefix[lo])
    brute = np.zeros(n_cells + 1)
    for k in range(1, j + 1):
        i = pde.forward_index(k, j, n_cells)
        if i <= n_cells:
            brute[i] += (n_cells / j) * p_hist[k]
    # running-sum cell i collects exactly the sources k with
    # forward_index(k, j, N) == i + 1
    assert p_row == pytest.approx(brute[1:], rel=1e-12, abs=1e-12)
    assert (j / n_cells) * np.sum(p_row) == pytest.approx(prefix[j] - prefix[0], abs=1e-12)


def test_transport_conservation_in_run(small_config):
    state = pde.init(small_config)
    n_steps = int(round(small_config.s_max / small_config.ds))
    worst = 0.0
    for _ in range(n_steps):
        pde.step(state, small_config)
        j = state.j
        if j > small_config.N:
            lhs = (j / small_config.N) * np.sum(state.p[: small_config.N])
            rhs = state.P_hist[j] - state.P_hist[0]
            worst = max(worst, abs(lhs - rhs))
    assert worst < 1e-12


def test_backward_lookup_phase(small_config):
    state = pde.init(small_config)
    for _ in range(small_config.N // 2):
        pde.step(state, small_config)
    j = state.j
    hist = np.asarray(state.p_source_hist)
    i_arr = np.arange(small_config.N)
    assert np.array_equal(state.p[: small_config.N], hist[(i_arr * j) // small_config.N])


def test_simplified_p_support(small_config):
    state = pde.init(small_config)
    for _ in range(30):
        pde.step(state, small_config)
    assert np.all(state.p[small_config.N + 1 :] == 0.0)


def test_full_model_frontier(params02):
    cfg = pde.PdeConfig(params02, N=32, ds=5e-3, s_max=0.6, model="full")
    state = pde.init(cfg)
    for _ in range(int(round(cfg.s_max / cfg.ds))):
        pde.step(state, cfg)
        if state.I_max >= cfg.N:
            seg = state.p[cfg.N : state.I_max + 1]
            assert np.all(seg == 1.0)
            assert np.all(state.p[state.I_max + 1 :] == 0.0)
    assert state.I_max >= cfg.N  # precipitation reached past the source line


def test_run_decay_both_models(params02):
    for model in (pde.SIMPLIFIED, pde.FULL):
        cfg = pde.PdeConfig(params02, N=100, ds=1e-2, s_max=40.0, model=model)
        result = pde.run(cfg)
        i5 = int(np.searchsorted(result.s, 5.0))
        assert result.sup_w[-1] < result.sup_w[i5]


def test_trace_starts_at_gamma(params02, model_kernel02):
    _, kern = model_kernel02
    cfg = pde.PdeConfig(params02, N=64, ds=5e-3, s_max=0.2)
    result = pde.run(cfg)
    # along the parabola the no-memory value is Gamma
    assert result.trace_w[0] == pytest.approx(kern.gamma_const, abs=5e-3)


def test_trace_oscillation_decays(params02):
    # source-line trace swings about the threshold with rapidly shrinking
    # amplitude once the second crossing region is reached
    cfg = pde.PdeConfig(params02, N=100, ds=1e-2, s_max=30.0)
    result = pde.run(cfg)
    flips = np.nonzero(np.diff(result.trace_p) != 0)[0]
    assert len(flips) >= 2
    gap_amp = np.max(np.abs(result.trace_w[flips[0] : flips[1]]))
    late_amp = np.max(np.abs(result.trace_w[flips[1] :]))
    assert late_amp < 0.5 * gap_amp


def test_snapshot_cadence(params02):
    cfg = pde.PdeConfig(params02, N=32, ds=1e-2, s_max=2.0)
    result = pde.run(cfg)
    assert len(result.snapshots) == 100
    s0, w0, p0 = result.snapshots[0]
    assert w0.shape == (cfg.n_full,)
    assert p0.shape == (cfg.n_full,)


def test_parabola_compare_report(params02, model_kernel02, model_pattern):
    _, kern = model_kernel02
    cfg = pde.PdeConfig(params02, N=100, ds=1e-2, s_max=4.0)
    result = pde.run(cfg)
    report = pde.parabola_compare(result, kern, model_pattern)
    assert report.sup_trace_diff < 0.02
    assert len(report.pde_toggles) >= 1
    assert report.zero_times[0] == pytest.approx(model_pattern.zeros[1], rel=1e-12)
    assert report.first_onset_cells < 5.0


def _reference_step(state, config):
    """One step with every array built afresh and the sink on all cells:
    the reference for pde.step's laid-out arrays."""
    j = state.j + 1
    diag = j + np.arange(config.n_full) + 4.0 / config.d_eta**2
    s_j = j * config.ds
    density = state.phi_grid + state.w if config.model == pde.FULL else state.phi_grid
    b = state.src + j * state.w
    b[1:] -= 2.0 * s_j**2 * state.p[1:] * density[1:]
    b[0] = b[1]
    state.w = w = pde._solve_tridiagonal(diag, state.lower, state.upper, b)
    state.j = j
    N = config.N
    u_star = config.params.u_star
    p = np.zeros_like(state.p)
    if config.model == pde.SIMPLIFIED:
        p_src = 1.0 if w[N] >= u_star - state.phi_grid[N] else 0.0
    else:
        above = np.nonzero(w[N:] > u_star - state.phi_grid[N:])[0]
        frontier = N + int(above.max()) if len(above) else -1
        recede = (state.I_max * (j - 1)) // j if state.I_max >= 0 else -1
        state.I_max = max(frontier, recede)
        p_src = 1.0 if state.I_max >= N else 0.0
        if state.I_max >= N:
            p[N : state.I_max + 1] = 1.0
    state.p_source_hist[j] = p_src
    state.P_running += p_src
    state.P_hist[j] = state.P_running
    if config.model == pde.SIMPLIFIED:
        p[N] = p_src
    i_arr = np.arange(N)
    lo = pde.backward_index(i_arr, j, N)
    if j <= N:
        p[:N] = state.p_source_hist[lo]
    else:
        hi = pde.backward_index(i_arr + 1, j, N)
        p[:N] = (N / j) * (state.P_hist[hi] - state.P_hist[lo])
    state.p = p


@pytest.mark.parametrize("alpha, u_star, n_cells, model, ds, s_max", [
    (1.0, 0.2, 32, pde.SIMPLIFIED, 5e-3, 1.0), (1.0, 0.2, 32, pde.FULL, 5e-3, 1.0),
    # 4/d_eta^2 = 487.04 is not an integer; from step 1466 on, adding j to a
    # laid-out i + 4/d_eta^2 rounds twice and leaves (j + i) + 4/d_eta^2
    (1.45, 0.2, 16, pde.FULL, 1e-2, 20.0),
])
def test_run_matches_the_reference_march(alpha, u_star, n_cells, model, ds, s_max):
    # the relay toggles are threshold decisions, so only bit-for-bit equality counts
    cfg = pde.PdeConfig(ModelParams(alpha, 1.0, u_star), N=n_cells, ds=ds, s_max=s_max,
                        model=model)
    result = pde.run(cfg)
    state = pde.init(cfg)
    cadence = max(1, int(np.ceil(cfg.s_max / (100.0 * cfg.ds))))
    rows, snapshots, widest = [], [], -1
    for _ in range(cfg.n_steps):
        _reference_step(state, cfg)
        widest = max(widest, state.I_max)
        s = state.j * cfg.ds
        rows.append((s, np.max(np.abs(state.w)), state.w[cfg.N], state.p[cfg.N]))
        if state.j % cadence == 0:
            snapshots.append((s, state.w, state.p))
    assert cfg.n_steps > cfg.N  # both the lookup and the running sum ran
    if model == pde.FULL:
        assert widest > cfg.N  # the sink reached past the source line
    for got, want in zip((result.s, result.sup_w, result.trace_w, result.trace_p), zip(*rows)):
        assert np.array_equal(got, np.array(want))
    for name in ("w", "p", "P_hist", "p_source_hist"):
        assert np.array_equal(getattr(result.state, name), getattr(state, name))
    assert result.state.I_max == state.I_max
    assert len(result.snapshots) == len(snapshots)
    for got, want in zip(result.snapshots, snapshots):
        assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_solve_leaves_its_inputs_unchanged(params02):
    # the diagonal is a view into state.diag_table, so a solve that wrote
    # into its inputs would corrupt every later step
    cfg = pde.PdeConfig(params02, N=32, ds=5e-3, s_max=1.0, model=pde.FULL)
    state = pde.init(cfg)
    for _ in range(40):
        pde.step(state, cfg)
    table = state.diag_table.copy()
    system = pde.assemble_system(state, cfg)
    before = [a.copy() for a in system]
    pde._solve_tridiagonal(*system)
    assert all(np.array_equal(a, b) for a, b in zip(system, before))
    assert np.array_equal(state.diag_table, table)
