"""Finite-difference solver in parabolic similarity variables.

The difference field w = u - phi obeys

    s w_s - eta w_eta - 2 w_etaeta = (2 gamma / eta^2) H(alpha - eta) Phi
                                     - 2 s^2 p (Phi + w)        (full)
                                     - 2 s^2 p Phi              (simplified)

on eta in [0, 6 alpha] with w_eta(0) = 0 and w = 0 at the right edge,
initialized with w(eta, 0) = Psi(eta) - Phi(eta).  Time stepping is first
order, implicit on the left side: with Delta eta = alpha/N and s_j = j ds
the tridiagonal rows are

    a[i][i]   = j + i + 4/Delta_eta^2
    a[i][i-1] = -2/Delta_eta^2
    a[i][i+1] = -i - 2/Delta_eta^2,   a[0][1] = -4/Delta_eta^2,

diagonally dominant with margin j.  The forcing at i = 0 is copied from
i = 1 because the 1/eta^2 source diverges there; the solution is
insensitive to the value used.

Precipitation is binary and rides the characteristics eta s = const, which
shrink toward the origin by the factor N/j per index.  Below the source
line the field is transported by a backward lookup (j <= N) or a running-
sum forward mapping (j > N) that preserves the integral exactly; at and
above the source line the simplified model precipitates only in the source
cell (w_N >= u* - Phi_N), while the full model tracks the largest
precipitating index and fills downward.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, lapack

from .errors import InvalidParameter
from .kernel import Kernel
from .profile import ModelParams, Profile, phi_eval, psi_eval, solve_kappa
from .rings import RingPattern, omega_eval

FULL = "full"
SIMPLIFIED = "simplified"

# size caps, checked before anything is allocated: run() keeps about 100
# snapshots of w and p on 6 N cells (about 9600 N bytes), the step
# histories and recorded traces take 48 bytes per step, and init's diagonal
# table 8 bytes per step and per cell
MAX_N = 20_000  # 10x the largest N the benchmark runs
MAX_STEPS = 10**6


@dataclass(frozen=True)
class PdeConfig:
    params: ModelParams
    N: int
    ds: float
    s_max: float
    model: str = SIMPLIFIED

    def __post_init__(self):
        if not 16 <= self.N <= MAX_N:
            raise InvalidParameter(f"N must lie in [16, {MAX_N}], got {self.N}")
        if not (self.ds > 0 and self.ds < self.s_max < np.inf):
            raise InvalidParameter("need ds > 0 and finite s_max > ds")
        if not self.s_max / self.ds <= MAX_STEPS:
            raise InvalidParameter(f"s_max/ds must be at most {MAX_STEPS} steps")
        if self.model not in (FULL, SIMPLIFIED):
            raise InvalidParameter(f"model must be '{FULL}' or '{SIMPLIFIED}'")

    @property
    def d_eta(self) -> float:
        return self.params.alpha / self.N

    @property
    def n_full(self) -> int:
        return 6 * self.N

    @property
    def eta(self) -> np.ndarray:
        return self.d_eta * np.arange(self.n_full)

    @property
    def n_steps(self) -> int:
        return int(round(self.s_max / self.ds))


@dataclass
class PdeState:
    j: int
    w: np.ndarray
    p: np.ndarray
    P_running: float
    I_max: int
    profile: Profile
    phi_grid: np.ndarray
    src: np.ndarray  # (2 gamma / eta^2) Phi on 0 < eta <= alpha, else 0
    lower: np.ndarray  # the step matrix's fixed off-diagonals
    upper: np.ndarray
    diag_table: np.ndarray  # entry k is k + 4/d_eta^2; step j's diagonal is [j, j + 6N)
    cells: np.ndarray  # 0..N, the transport's index vector
    thresh: np.ndarray  # u* - Phi on cells N.., the precipitation threshold
    p_source_hist: np.ndarray  # slot k: source-cell precipitation at step k
    P_hist: np.ndarray  # slot k: running sum of p_source_hist[1..k]


def init(config: PdeConfig) -> PdeState:
    """Initial state: w = Psi - Phi."""
    profile = solve_kappa(config.params)
    eta = config.eta
    phi_grid = phi_eval(profile, eta)
    w0 = psi_eval(config.params, eta) - phi_grid
    inner = slice(1, config.N + 1)
    src = np.zeros_like(eta)
    src[inner] = 2.0 * profile.gamma / eta[inner] ** 2 * phi_grid[inner]
    de2 = config.d_eta**2
    upper = -np.arange(config.n_full, dtype=float) - 2.0 / de2
    upper[0] = -4.0 / de2
    return PdeState(
        j=0, w=w0, p=np.zeros_like(eta), P_running=0.0, I_max=-1, profile=profile,
        phi_grid=phi_grid, src=src, lower=np.full(config.n_full, -2.0 / de2), upper=upper,
        # the integer j + i is exact, so each entry rounds as (j + i) + 4/de2 would
        diag_table=np.arange(config.n_full + config.n_steps + 1) + 4.0 / de2,
        cells=np.arange(config.N + 1), thresh=config.params.u_star - phi_grid[config.N :],
        p_source_hist=np.zeros(config.n_steps + 1), P_hist=np.zeros(config.n_steps + 1),
    )


def assemble_system(state: PdeState, config: PdeConfig):
    """Tridiagonal matrix and right side for the step to index j+1, from
    state.w, state.p and the source state.src."""
    j = state.j + 1
    diag = state.diag_table[j : j + config.n_full]
    s_j = j * config.ds
    b = state.w * j
    b += state.src
    # transport confines p to cells 1..max(N, I_max), so the sink runs there; row 0
    # is overwritten below, so its sink (inf * 0 for p singular at eta = 0) is skipped
    m = max(config.N, state.I_max) + 1
    density = state.phi_grid[1:m] + state.w[1:m] if config.model == FULL else state.phi_grid[1:m]
    b[1:m] -= 2.0 * s_j**2 * state.p[1:m] * density
    b[0] = b[1]
    return diag, state.lower, state.upper, b


def _solve_tridiagonal(diag, lower, upper, b):
    """LAPACK gtsv; a non-finite diag or b raises ValueError, a zero pivot
    LinAlgError.  The off-diagonals are finite constants set up by init."""
    check = np.asarray_chkfinite
    *_, x, info = lapack.dgtsv(lower[1:], check(diag), upper[:-1], check(b))
    if info:
        raise LinAlgError(f"gtsv failed with info = {info}")
    return x


def backward_index(i, j: int, N: int):
    """Past source-time index feeding spatial index i (int or array) at time j."""
    return (i * j) // N


def forward_index(k: int, j: int, N: int) -> int:
    """Spatial index reached at time j by the source cell of past time k."""
    return -((-k * N) // j)  # ceil(k N / j)


def transport_p(state: PdeState, config: PdeConfig) -> np.ndarray:
    """Update the precipitation field for the (already solved) step."""
    j = state.j
    N = config.N
    w = state.w
    p = np.zeros(config.n_full)

    if config.model == SIMPLIFIED:
        p_src = 1.0 if w[N] >= state.thresh[0] else 0.0
    else:
        above = (w[N:] > state.thresh).nonzero()[0]
        frontier = N + int(above[-1]) if len(above) else -1
        recede = (state.I_max * (j - 1)) // j if state.I_max >= 0 else -1
        state.I_max = max(frontier, recede)
        p_src = 1.0 if state.I_max >= N else 0.0
        if state.I_max >= N:
            p[N : state.I_max + 1] = 1.0

    state.p_source_hist[j] = p_src
    state.P_running += p_src
    state.P_hist[j] = state.P_running
    if config.model == SIMPLIFIED:
        p[N] = p_src

    k = backward_index(state.cells, j, N)
    if j <= N:
        p[:N] = state.p_source_hist[k[:N]]
    else:
        # cell i sums the sources in slots k[i] + 1..k[i + 1]; k[N] = j is filled
        q = state.P_hist[k]
        p[:N] = (N / j) * (q[1:] - q[:-1])
    state.p = p
    return p


def step(state: PdeState, config: PdeConfig) -> PdeState:
    """Advance one time step: implicit solve, then precipitation transport."""
    if state.j >= config.n_steps:
        raise InvalidParameter(f"step {state.j + 1} is past n_steps = {config.n_steps}")
    state.w = _solve_tridiagonal(*assemble_system(state, config))
    state.j += 1
    transport_p(state, config)
    return state


@dataclass(frozen=True)
class PdeRun:
    config: PdeConfig
    s: np.ndarray
    sup_w: np.ndarray
    trace_w: np.ndarray  # w at the source cell, per step
    trace_p: np.ndarray
    snapshots: tuple  # rows (s, w copy, p copy)
    state: PdeState


def run(config: PdeConfig) -> PdeRun:
    """March to s_max from w = Psi - Phi recording the trace and snapshots."""
    state = init(config)
    n_steps = config.n_steps
    cadence = max(1, int(np.ceil(config.s_max / (100.0 * config.ds))))
    s_out = np.empty(n_steps)
    sup_w = np.empty(n_steps)
    trace_w = np.empty(n_steps)
    trace_p = np.empty(n_steps)
    snapshots = []
    for k in range(n_steps):
        step(state, config)
        w = state.w
        s_out[k] = state.j * config.ds
        # max|w| bit for bit; abs folds the -0.0 an all-zero w would give
        sup_w[k] = abs(max(w.max(), -w.min()))
        trace_w[k] = w[config.N]
        trace_p[k] = state.p[config.N]
        if state.j % cadence == 0:
            snapshots.append((s_out[k], w.copy(), state.p.copy()))
    return PdeRun(
        config=config,
        s=s_out,
        sup_w=sup_w,
        trace_w=trace_w,
        trace_p=trace_p,
        snapshots=tuple(snapshots),
        state=state,
    )


@dataclass(frozen=True)
class CompareReport:
    omega_ref: np.ndarray  # the relay solution omega(alpha s) at each traced s
    sup_trace_diff: float
    pde_toggles: tuple  # s locations where the source-cell relay switches
    zero_times: tuple  # pattern zeros mapped to similarity time x_i / alpha
    first_onset_cells: float  # offset in local physical cells (size s * d_eta)
    first_onset_similarity_cells: float  # offset measured in ds steps


def parabola_compare(run_result: PdeRun, kern: Kernel, pattern: RingPattern) -> CompareReport:
    """Trace-versus-relay comparison along the source parabola.

    The simplified-model solution on the line eta = alpha equals the relay
    solution omega(alpha s); the report carries the sup difference and the
    offsets between relay toggle locations and the pattern zeros.
    """
    cfg = run_result.config
    alpha = cfg.params.alpha
    x_trace = alpha * run_result.s
    omega_ref = omega_eval(kern, list(pattern.zeros), x_trace)
    sup_diff = float(np.max(np.abs(run_result.trace_w - omega_ref)))
    flips = np.nonzero(np.diff(run_result.trace_p) != 0)[0]
    toggles = tuple(float(run_result.s[i + 1]) for i in flips)
    zero_times = tuple(float(z / alpha) for z in pattern.zeros[1:])
    if toggles and zero_times:
        dx = alpha * abs(toggles[0] - zero_times[0])
        # a mesh cell's physical image on the parabola has size s * d_eta,
        # which is the scheme's actual location resolution at the onset
        phys_cells = dx / (zero_times[0] * cfg.d_eta * alpha)
        sim_cells = abs(toggles[0] - zero_times[0]) / cfg.ds
    else:
        phys_cells = sim_cells = float("inf")
    return CompareReport(
        omega_ref=omega_ref,
        sup_trace_diff=sup_diff,
        pde_toggles=toggles,
        zero_times=zero_times,
        first_onset_cells=float(phys_cells),
        first_onset_similarity_cells=float(sim_cells),
    )
