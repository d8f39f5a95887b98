"""Command-line front end.

Subcommands: profile, kernel, rings, degenerate, extended, pde, compare.
Every command writes a CSV with a '#'-prefixed metadata header (full
parameter echo) followed by plain numeric rows, so identical invocations
produce byte-identical files.  Exit codes: 0 success, 2 invalid input,
3 numerical failure, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile

import numpy as np

from . import degenerate as dg
from . import extended as ext
from . import kernel, pde, rings
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
    elif os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w") as fh:  # a device or pipe, such as /dev/null, is not replaced
            fh.write(text)
    else:
        _replace_file(path, text)


def _replace_file(path: str, text: str) -> None:
    """Write text to a temporary file beside path, then rename it over path,
    so a failed write leaves no partial file and any old file untouched."""
    target = os.path.realpath(path)  # through a symlink, not over it
    try:
        mode = os.stat(target).st_mode & 0o7777  # an old file keeps its mode
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        mode = 0o666 & ~umask  # the mode open(path, "w") gives a new file
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target), prefix=".liesegang-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.chmod(tmp, mode)
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise


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


def load_kernel_file(path: str) -> Kernel:
    """Tabulated kernel: '#' keys sigma, k_coeff, gamma, then a column header
    row naming theta, K (a `kernel` export) or K_hat (a `degenerate` export)
    and cumK = int_0^theta K, then one row of numbers per node."""
    meta = {}
    cols, rows = None, []
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
            parts = line.split(",")
            if cols is None:  # column header row
                names = [p.strip() for p in parts]
                k_name = "K" if "K" in names else "K_hat"
                if not {"theta", k_name, "cumK"} <= set(names):
                    raise InvalidParameter(
                        f"{path}:{lineno}: column header {line!r} must name theta, "
                        "K or K_hat, and cumK"
                    )
                cols = [names.index(n) for n in ("theta", k_name, "cumK")]
                continue
            try:
                rows.append([float(parts[i]) for i in cols])
            except (ValueError, IndexError):
                raise InvalidParameter(
                    f"{path}:{lineno}: malformed data row {line!r}"
                ) from None
    try:
        sigma = float(meta["sigma"])
        k_coeff = float(meta["k_coeff"])
        gamma = float(meta["gamma"])
    except KeyError as exc:
        raise InvalidParameter(f"kernel file lacks required header key {exc}")
    except ValueError as exc:
        raise InvalidParameter(f"kernel file header: {exc}") from None
    thetas, kvals, cums = np.reshape(rows, (-1, 3)).T
    return kernel_from_samples(thetas, kvals, cums, sigma, k_coeff, gamma, label=f"file:{path}")


def resolve_kernel(args) -> Kernel:
    if args.kernel == "synthetic":
        return synthetic_kernel(args.sigma, args.scale)
    if args.kernel == "model":
        profile = solve_kappa(ModelParams(args.alpha, args.beta, args.ustar))
        _, kern = build_kernel_table(profile, args.table_points)
        return kern
    if args.kernel.startswith("file:"):
        return load_kernel_file(args.kernel[5:])
    raise InvalidParameter(f"unknown kernel selector {args.kernel!r}")


def cmd_profile(args) -> None:
    cap = kernel.MAX_TABLE_POINTS
    if not 2 <= args.n <= cap or not 0.0 < args.eta_max < np.inf:
        raise InvalidParameter(
            f"need 2 <= --n <= {cap} and 0 < --eta-max < inf, got {args.n} and {args.eta_max}"
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
    emit_csv(args.out, meta, ["eta", "phi", "psi"], zip(eta, phi, psi),
             trailer={"kappa_evals": profile.kappa_evals})
    print(f"profile: kappa={profile.kappa:.12g} gamma={profile.gamma:.12g}")


def cmd_kernel(args) -> None:
    params = ModelParams(args.alpha, args.beta, args.ustar)
    profile = solve_kappa(params)
    table, kern = build_kernel_table(profile, args.table_points)
    meta = {
        "command": "kernel", "alpha": args.alpha, "beta": args.beta,
        "ustar": args.ustar, "kappa": profile.kappa, "gamma": kern.gamma_const,
        "sigma": kern.sigma, "k_coeff": kern.k_coeff,
        "table_points": args.table_points, "quad_tol": kernel.TABLE_QUAD_TOL,
    }
    rows = zip(table.thetas, table.g_plus, table.g_minus, table.k_vals, table.cum_prefix)
    emit_csv(args.out, meta, ["theta", "G_plus", "G_minus", "K", "cumK"], rows)
    print(f"kernel: Gamma={kern.gamma_const:.10g} k={kern.k_coeff:.10g}")


def cmd_rings(args) -> None:
    kern = resolve_kernel(args)
    pattern = rings.solve_pattern(
        kern, max_zeros=args.max_zeros, min_width=args.min_width, horizon=args.horizon
    )
    meta = {"command": "rings", "kernel": kern.label, "gamma": kern.gamma_const}
    z, widths, ratios = pattern.zeros, pattern.widths, ("",) + pattern.ratios
    rows = [(n, z[n], widths[n - 1], ratios[n - 1]) for n in range(1, len(z))]
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
    cap = kernel.MAX_TABLE_POINTS
    if not 1 <= args.table_points <= cap:
        raise InvalidParameter(f"--table-points must lie in [1, {cap}], got {args.table_points}")
    template = synthetic_kernel(args.sigma, args.scale)
    cons = dg.construct_degenerate(template)
    verified = dg.verify_degeneracy(cons)
    # the base nodes plus the kernel's kinks and sqrt cusp: the file carries
    # cumK, so a reimport keeps the breakdown structure without clustering
    base = np.sin(np.linspace(0.0, np.pi / 2.0, args.table_points + 1)) ** 2
    thetas = np.union1d(base, cons.theta_breaks)
    k_hat = cons.result.eval(thetas)
    cum_k = cons.result.cum(0.0, thetas)
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
    emit_csv(args.out, meta, ["theta", "K_hat", "cumK"], zip(thetas, k_hat, cum_k),
             trailer=trailer)
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
        # one value per level of the eps schedule
        names = ("ramp_zone_fraction", "newton_max", "newton_mean")
        columns = list(zip(*sol.newton_trace))[1:]
        trailer = {name: ",".join(map(_fmt, col)) for name, col in zip(names, columns)}
        emit_csv(args.out, meta, ["x", "omega", "rho", "residual_local"], rows, trailer=trailer)
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
    _, kern = build_kernel_table(profile, args.table_points)
    pattern = rings.solve_pattern(kern, max_zeros=8, min_width=1e-6, horizon=50.0 * args.alpha)
    config = pde.PdeConfig(params, N=args.N, ds=args.ds, s_max=args.smax, model="simplified")
    result = pde.run(config)
    report = pde.parabola_compare(result, kern, pattern)
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
        result.s, args.alpha * result.s, result.trace_w, report.omega_ref,
        np.abs(result.trace_w - report.omega_ref),
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
