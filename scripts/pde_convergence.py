"""Grid-refinement study of the similarity-variable scheme.

Runs the simplified model over a resolution sweep and reports the decay of
the difference field plus the drift of the first relay toggle along the
source parabola, with each level's wall time and cost per step.

Usage: python scripts/pde_convergence.py [--ustar U] [--smax S] [--levels L]
"""

import argparse
import time

from liesegang import pde, rings
from liesegang.kernel import build_kernel_table
from liesegang.profile import ModelParams, solve_kappa


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--ustar", type=float, default=0.2)
    ap.add_argument("--smax", type=float, default=4.0)
    ap.add_argument("--levels", type=int, default=3)
    args = ap.parse_args()

    params = ModelParams(1.0, 1.0, args.ustar)
    profile = solve_kappa(params)
    _, kern = build_kernel_table(profile, 2048, 1e-9)
    pattern = rings.solve_pattern(kern, max_zeros=8, min_width=1e-6, horizon=100.0)
    x1 = pattern.zeros[1]
    print(f"relay first zero x1 = {x1:.8f}")

    for level in range(args.levels):
        n_cells = 250 * 2**level
        ds = 4e-3 / 2**level
        cfg = pde.PdeConfig(params, N=n_cells, ds=ds, s_max=args.smax)
        start = time.perf_counter()
        result = pde.run(cfg)
        wall = time.perf_counter() - start
        report = pde.parabola_compare(result, kern, pattern)
        toggle = report.pde_toggles[0] if report.pde_toggles else float("nan")
        print(
            f"N={n_cells:5d} ds={ds:.1e}: sup trace diff {report.sup_trace_diff:.3e}, "
            f"first toggle {toggle:.6f}, onset error {abs(toggle - x1):.3e} "
            f"({report.first_onset_cells:.2f} physical cells), "
            f"wall {wall:.2f} s ({1e6 * wall / cfg.n_steps:.1f} us per step)"
        )


if __name__ == "__main__":
    main()
