"""Command-line front end.

Subcommands: profile, kernel, rings, degenerate, extended, pde, compare.
Every command writes a CSV with a '#'-prefixed metadata header (full
parameter echo) followed by plain numeric rows, so identical invocations
produce byte-identical files.  Exit codes: 0 success, 2 invalid input,
3 numerical failure, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import degenerate as dg
from . import extended as ext
from . import pde, rings
from .errors import InvalidParameter, LiesegangError
from .kernel import Kernel, build_kernel_table, kernel_from_samples, synthetic_kernel
from .profile import ModelParams, check_solvability, phi_eval, psi_eval, solve_kappa

def _fmt(v) -> str:
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def emit_csv(path: str, meta: dict, header, rows, trailer: dict | None = None) -> None:
    lines = [f"# {k} = {_fmt(v)}" for k, v in meta.items()]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    for k, v in (trailer or {}).items():
        lines.append(f"# {k} = {_fmt(v)}")
    text = "\n".join(lines) + "\n"
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--ustar", type=float, default=0.2)


def _add_kernel_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--kernel", default="synthetic",
        help="synthetic | model | file:PATH (tabulated CSV)",
    )
    p.add_argument("--sigma", type=float, default=0.5)
    p.add_argument("--scale", type=float, default=1.0)
    _add_model_flags(p)
    _add_table_flags(p)


def _add_table_flags(p: argparse.ArgumentParser) -> None:
    """Resolution of the derived-kernel table."""
    p.add_argument("--table-points", type=int, default=2048)
    p.add_argument("--quad-tol", type=float, default=1e-9)


def load_kernel_file(path: str) -> Kernel:
    """Tabulated kernel: '#' keys sigma, k_coeff, gamma; rows theta, K."""
    meta = {}
    thetas, kvals = [], []
    n_rows = 0
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                if "=" in line:
                    key, _, val = line[1:].partition("=")
                    meta[key.strip()] = val.strip()
                continue
            n_rows += 1
            parts = line.split(",")
            try:
                th, kv = float(parts[0]), float(parts[1])
            except (ValueError, IndexError):
                if n_rows == 1:
                    continue  # column header row
                raise InvalidParameter(
                    f"{path}:{lineno}: malformed data row {line!r}"
                ) from None
            thetas.append(th)
            kvals.append(kv)
    try:
        sigma = float(meta["sigma"])
        k_coeff = float(meta["k_coeff"])
        gamma = float(meta["gamma"])
    except KeyError as exc:
        raise InvalidParameter(f"kernel file lacks required header key {exc}")
    except ValueError as exc:
        raise InvalidParameter(f"kernel file header: {exc}") from None
    return kernel_from_samples(thetas, kvals, sigma, k_coeff, gamma, label=f"file:{path}")


def resolve_kernel(args) -> Kernel:
    if args.kernel == "synthetic":
        return synthetic_kernel(args.sigma, args.scale)
    if args.kernel == "model":
        profile = solve_kappa(ModelParams(args.alpha, args.beta, args.ustar))
        _, kern = build_kernel_table(profile, args.table_points, args.quad_tol)
        return kern
    if args.kernel.startswith("file:"):
        return load_kernel_file(args.kernel[5:])
    raise InvalidParameter(f"unknown kernel selector {args.kernel!r}")


def cmd_profile(args) -> None:
    if args.n < 2 or not 0.0 < args.eta_max < np.inf:
        raise InvalidParameter(
            f"need --n >= 2 and 0 < --eta-max < inf, got {args.n} and {args.eta_max}"
        )
    params = ModelParams(args.alpha, args.beta, args.ustar)
    report = check_solvability(params)
    profile = solve_kappa(params)  # raises NoRoot when not solvable
    eta = np.linspace(0.0, args.eta_max, args.n)
    phi = phi_eval(profile, eta)
    psi = psi_eval(params, eta)
    meta = {
        "command": "profile", "alpha": args.alpha, "beta": args.beta,
        "ustar": args.ustar, "kappa": profile.kappa, "gamma": profile.gamma,
        "c1": profile.c1, "solvable": report.solvable,
        "u0_star_kappa0": report.u0_star_kappa0,
        "u0_star_kappa1": report.u0_star_kappa1,
    }
    emit_csv(args.out, meta, ["eta", "phi", "psi"], zip(eta, phi, psi))
    print(f"profile: kappa={profile.kappa:.12g} gamma={profile.gamma:.12g}")


def cmd_kernel(args) -> None:
    params = ModelParams(args.alpha, args.beta, args.ustar)
    profile = solve_kappa(params)
    table, kern = build_kernel_table(profile, args.table_points, args.quad_tol)
    meta = {
        "command": "kernel", "alpha": args.alpha, "beta": args.beta,
        "ustar": args.ustar, "kappa": profile.kappa, "gamma": kern.gamma_const,
        "sigma": kern.sigma, "k_coeff": kern.k_coeff,
        "table_points": args.table_points, "quad_tol": args.quad_tol,
    }
    rows = zip(table.thetas, table.g_plus, table.g_minus, table.k_vals, table.cum_prefix)
    emit_csv(args.out, meta, ["theta", "G_plus", "G_minus", "K", "cumK"], rows)
    print(f"kernel: Gamma={kern.gamma_const:.10g} k={kern.k_coeff:.10g}")


def cmd_rings(args) -> None:
    kern = resolve_kernel(args)
    pattern = rings.solve_pattern(
        kern,
        max_zeros=args.max_zeros,
        min_width=args.min_width,
        horizon=args.horizon,
        scan_step=args.scan_step,
        root_tol=args.root_tol,
    )
    meta = {"command": "rings", "kernel": kern.label, "gamma": kern.gamma_const}
    rows = []
    z = pattern.zeros
    for n in range(1, len(z)):
        d_n = pattern.widths[n - 1]
        q_n = pattern.ratios[n - 2] if 2 <= n <= len(pattern.ratios) + 1 else ""
        rows.append((n, z[n], d_n, q_n))
    trailer = {
        "classification": pattern.classification.value,
        "x_star": pattern.x_star,
        "q_star_bound": pattern.q_star_bound,
    }
    emit_csv(args.out, meta, ["n", "x_n", "d_n", "q_n"], rows, trailer=trailer)
    print(
        f"rings: {len(z) - 1} zeros, {pattern.classification.value}, "
        f"x*={pattern.x_star:.10g}"
    )


def cmd_degenerate(args) -> None:
    if args.table_points < 1:
        raise InvalidParameter(f"--table-points must be >= 1, got {args.table_points}")
    template = synthetic_kernel(args.sigma, args.scale)
    cons = dg.construct_degenerate(template)
    verified = dg.verify_degeneracy(cons)
    base = np.sin(np.linspace(0.0, np.pi / 2.0, args.table_points + 1)) ** 2
    # cluster export samples geometrically around the kernel's kinks and the
    # sqrt cusp so a reimport preserves the breakdown structure
    spacing = np.pi / (2.0 * args.table_points)
    cluster = [
        np.clip(c + s * spacing * 0.5**k, 0.0, 1.0)
        for c in cons.theta_breaks
        for s in (-1.0, 1.0)
        for k in range(0, 44)
    ]
    thetas = np.unique(np.concatenate([base, np.asarray(cluster), np.asarray(cons.theta_breaks)]))
    k_hat = cons.result.eval(thetas)
    meta = {
        "command": "degenerate", "template_sigma": args.sigma,
        "template_scale": args.scale, "sigma": cons.result.sigma,
        "k_coeff": cons.result.k_coeff, "gamma": cons.result.gamma_const,
    }
    trailer = {
        "x1": cons.x1, "x2": cons.x2, "epsilon": cons.epsilon, "r": cons.r,
        "r_star": cons.r_star, "lambda_star": cons.lambda_star,
        "n_power": cons.n_power, "z_eps": cons.z_eps, "verified": verified,
    }
    emit_csv(args.out, meta, ["theta", "K_hat"], zip(thetas, k_hat), trailer=trailer)
    print(
        f"degenerate: breakdown at x2+eps={cons.x2 + cons.epsilon:.10g}, "
        f"verified={verified}"
    )


def cmd_extended(args) -> None:
    kern = resolve_kernel(args)
    if args.mode == "mollified":
        try:
            eps_seq = [float(e) for e in args.eps.split(",")]
        except ValueError:
            raise InvalidParameter(
                f"--eps must be comma-separated numbers, got {args.eps!r}"
            ) from None
        sol = ext.extended_solve(kern, args.b, args.h, eps_seq)
        meta = {
            "command": "extended", "mode": "mollified", "kernel": kern.label,
            "b": args.b, "h": args.h, "eps": args.eps, "residual": sol.residual,
        }
        rows = zip(sol.grid, sol.omega, sol.rho, sol.residual_local)
        emit_csv(args.out, meta, ["x", "omega", "rho", "residual_local"], rows)
        print(f"extended: residual={sol.residual:.4g}")
    else:
        pattern = rings.solve_pattern(kern)
        reg = ext.regular_extension_solve(kern, pattern, args.b, args.h)
        meta = {
            "command": "extended", "mode": "regular", "kernel": kern.label,
            "b": args.b, "h": args.h, "x_star": pattern.x_star,
            "residual": reg.residual, "out_of_range": len(reg.out_of_range),
        }
        rows = zip(reg.grid, np.zeros_like(reg.grid), reg.rho, reg.residual_local)
        emit_csv(args.out, meta, ["x", "omega", "rho", "residual_local"], rows)
        print(f"extended (regular): residual={reg.residual:.4g}")


def cmd_pde(args) -> None:
    params = ModelParams(args.alpha, args.beta, args.ustar)
    config = pde.PdeConfig(params, N=args.N, ds=args.ds, s_max=args.smax, model=args.model)
    result = pde.run(config)
    meta = {
        "command": "pde", "model": args.model, "alpha": args.alpha,
        "beta": args.beta, "ustar": args.ustar, "N": args.N, "ds": args.ds,
        "smax": args.smax,
    }
    rows = zip(result.s, result.sup_w, result.trace_w, result.trace_p)
    emit_csv(args.out, meta, ["s", "sup_w", "w_N", "p_N"], rows)
    if args.snapshots_out:
        snap_rows = []
        eta = config.eta
        for s_val, w, p in result.snapshots:
            snap_rows.extend(zip([s_val] * len(eta), eta, w, p))
        emit_csv(args.snapshots_out, meta, ["s", "eta", "w", "p"], snap_rows)
    print(f"pde: {len(result.s)} steps, final sup_w={result.sup_w[-1]:.6g}")


def cmd_compare(args) -> None:
    params = ModelParams(args.alpha, args.beta, args.ustar)
    profile = solve_kappa(params)
    _, kern = build_kernel_table(profile, args.table_points, args.quad_tol)
    pattern = rings.solve_pattern(kern, max_zeros=8, min_width=1e-6, horizon=50.0 * args.alpha)
    config = pde.PdeConfig(params, N=args.N, ds=args.ds, s_max=args.smax, model="simplified")
    result = pde.run(config)
    report = pde.parabola_compare(result, kern, pattern)
    omega_ref = rings.omega_eval(kern, list(pattern.zeros), args.alpha * result.s)
    meta = {
        "command": "compare", "alpha": args.alpha, "beta": args.beta,
        "ustar": args.ustar, "N": args.N, "ds": args.ds, "smax": args.smax,
        "sup_trace_diff": report.sup_trace_diff,
        "first_onset_cells": report.first_onset_cells,
        "first_onset_similarity_cells": report.first_onset_similarity_cells,
        "pde_toggles": ";".join(_fmt(t) for t in report.pde_toggles),
        "zero_times": ";".join(_fmt(t) for t in report.zero_times),
    }
    rows = zip(
        result.s, args.alpha * result.s, result.trace_w, omega_ref,
        np.abs(result.trace_w - omega_ref),
    )
    emit_csv(args.out, meta, ["s", "x", "w_trace", "omega", "abs_diff"], rows)
    print(
        f"compare: sup diff={report.sup_trace_diff:.4g}, "
        f"first onset offset={report.first_onset_cells:.2f} cells"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liesegang",
        description="Ring patterns of a relay-hysteresis precipitation model",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("profile", help="self-similar profile and eigenvalue pair")
    _add_model_flags(p)
    p.add_argument("--eta-max", type=float, default=6.0)
    p.add_argument("--n", type=int, default=601)
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("kernel", help="tabulate the derived memory kernel")
    _add_model_flags(p)
    _add_table_flags(p)
    p.set_defaults(func=cmd_kernel)

    p = sub.add_parser("rings", help="solve the band pattern")
    _add_kernel_flags(p)
    p.add_argument("--max-zeros", type=int, default=64)
    p.add_argument("--min-width", type=float, default=None)
    p.add_argument("--horizon", type=float, default=None)
    p.add_argument("--scan-step", type=float, default=None)
    p.add_argument("--root-tol", type=float, default=None)
    p.set_defaults(func=cmd_rings)

    p = sub.add_parser("degenerate", help="construct a degenerate-breakdown kernel")
    p.add_argument("--sigma", type=float, default=0.5)
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--table-points", type=int, default=2048)
    p.set_defaults(func=cmd_degenerate)

    p = sub.add_parser("extended", help="completed-relay solution")
    _add_kernel_flags(p)
    p.add_argument("--mode", choices=["mollified", "regular"], default="mollified")
    p.add_argument("--b", type=float, default=5.0)
    p.add_argument("--h", type=float, default=1e-3)
    p.add_argument("--eps", default="1.6e-2,8e-3,4e-3")
    p.set_defaults(func=cmd_extended)

    p = sub.add_parser("pde", help="finite-difference run in similarity variables")
    _add_model_flags(p)
    p.add_argument("--model", choices=[pde.FULL, pde.SIMPLIFIED], default=pde.SIMPLIFIED)
    p.add_argument("--N", type=int, default=100)
    p.add_argument("--ds", type=float, default=1e-2)
    p.add_argument("--smax", type=float, default=40.0)
    p.add_argument("--snapshots-out", default=None)
    p.set_defaults(func=cmd_pde)

    p = sub.add_parser("compare", help="parabola trace versus ring pattern")
    _add_model_flags(p)
    p.add_argument("--N", type=int, default=1000)
    p.add_argument("--ds", type=float, default=1e-3)
    p.add_argument("--smax", type=float, default=4.0)
    _add_table_flags(p)
    p.set_defaults(func=cmd_compare)
    for p in sub.choices.values():
        p.add_argument("--out", default="-")
    return parser


def dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        args.func(args)
    except InvalidParameter as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except LiesegangError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    return 0


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
