"""The four benchmark workloads: seeded inputs, pipeline, per-case checks.

A workload draws its inputs from the seed in passes.  Each pass covers the
parameter box evenly (a Latin hypercube with antithetic pairs: the strata of
one half of the pass are mirrored about the box centre in the other half),
so runs with different seeds see different inputs with the same spread.
The benchmark times whole passes and reports statistics over them.

``run(case, tracer)`` executes one case and returns its wall time in
seconds (the pipeline only) and its key outputs; ``check(case, out)``
returns the failed checks, an empty list when the case is correct.
Tolerances are those of the repository's acceptance tests.
"""

from __future__ import annotations

import hashlib
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from liesegang import extended, kernel, pde, profile, rings

MODEL_BOX = {"alpha": (0.8, 1.3), "u_star": (0.1, 0.2)}
RELAY_BOX = {"sigma": (0.2, 0.55), "scale": (0.5, 2.0)}
EPS_SCHEDULE = (1.6e-2, 8e-3, 4e-3)


def antithetic_lhs(rng, n: int, box: dict) -> list[dict]:
    """n points (n even) over box: one per stratum and axis, in mirrored pairs."""
    half = n // 2
    cols = []
    for _ in box:
        lower = rng.permutation(half)  # strata 0 .. half-1, mirrored to n-1 .. half
        u = (lower + rng.random(half)) / n
        cols.append(np.concatenate([u, 1.0 - u]))
    order = rng.permutation(n)
    return [
        {key: float(lo + (hi - lo) * col[i]) for (key, (lo, hi)), col in zip(box.items(), cols)}
        for i in order
    ]


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()


def _timed(tracer, fn, *args):
    """(seconds, fn(*args)), under a "bench.case" span when tracing."""
    start = time.perf_counter()
    if tracer is None:
        result = fn(*args)
    else:
        tracer.install()
        try:
            result = tracer.wrap("bench.case", fn)(*args)
        finally:
            tracer.uninstall()
    return time.perf_counter() - start, result


class _InProcess:
    """A workload run inside the benchmark process, one seeded pass at a time."""

    in_process = True
    box: dict
    pass_size: int

    def __init__(self, seed: int, workdir: Path):
        self.rng = np.random.default_rng(seed)

    def next_pass(self) -> list[dict]:
        return antithetic_lhs(self.rng, self.pass_size, self.box)


class ModelChain(_InProcess):
    """solve_kappa -> build_kernel_table -> solve_pattern on seeded (alpha, u*)."""

    name = "model_chain"
    box = MODEL_BOX
    pass_size = 10

    @staticmethod
    def _pipeline(case):
        alpha = case["alpha"]
        params = profile.ModelParams(alpha, 1.0, case["u_star"])
        prof = profile.solve_kappa(params)
        _, kern = kernel.build_kernel_table(prof, 2048, 1e-9)
        pattern = rings.solve_pattern(kern, max_zeros=12, min_width=1e-6, horizon=100.0 * alpha)
        return params, prof, kern, pattern

    def run(self, case, tracer=None):
        seconds, (params, prof, kern, pattern) = _timed(tracer, self._pipeline, case)
        return seconds, {
            "kappa": prof.kappa,
            "gamma": prof.gamma,
            "Gamma": kern.gamma_const,
            "zeros": list(pattern.zeros),
            "x_star": pattern.x_star,
            "classification": pattern.classification.value,
            "ratios": list(pattern.ratios),
            "q_star": pattern.q_star_bound,
            "u_star_residual": abs(profile.u_star_curve(params, prof.kappa) - params.u_star),
            "gamma_identity_err": abs(
                kern.gamma_const - (profile.psi_at_source(params) - params.u_star)
            ),
        }

    def check(self, case, out) -> list[str]:
        failed = []
        if not out["u_star_residual"] <= 1e-10:
            failed.append("u_star_curve(kappa) != u*")
        if not out["gamma_identity_err"] <= 1e-9:
            failed.append("Gamma != Psi(alpha) - u*")
        if out["classification"] == rings.Classification.NON_DEGENERATE_ACCUMULATION.value:
            if any(q > out["q_star"] + 0.05 for q in out["ratios"][3:]):
                failed.append("ratio above q* + 0.05")
        return failed


class RelayMarch(_InProcess):
    """solve_pattern -> extended_solve -> regular_extension_solve, synthetic kernels."""

    name = "relay_march"
    box = RELAY_BOX
    pass_size = 6

    @staticmethod
    def _pipeline(case):
        kern = kernel.synthetic_kernel(case["sigma"], case["scale"])
        pattern = rings.solve_pattern(kern)
        b = 1.5 * pattern.x_star
        sol = extended.extended_solve(kern, b, 1e-3, list(EPS_SCHEDULE))
        reg = extended.regular_extension_solve(kern, pattern, b, 1e-3)
        return pattern, b, sol, reg

    def run(self, case, tracer=None):
        seconds, (pattern, b, sol, reg) = _timed(tracer, self._pipeline, case)
        return seconds, {
            "zeros": list(pattern.zeros),
            "x_star": pattern.x_star,
            "classification": pattern.classification.value,
            "b": b,
            "residual": sol.residual,
            "rho_min": float(np.min(sol.rho)),
            "rho_max": float(np.max(sol.rho)),
            "omega_digest": digest(sol.omega),
            "regular_residual": reg.residual,
            "regular_out_of_range": len(reg.out_of_range),
            "regular_rho_digest": digest(reg.rho),
        }

    def check(self, case, out) -> list[str]:
        failed = []
        if not out["residual"] <= 5e-3:
            failed.append("extended residual above 5e-3")
        if not (out["rho_min"] >= -1e-6 and out["rho_max"] <= 1.0 + 1e-6):
            failed.append("rho outside [-1e-6, 1 + 1e-6]")
        if not out["regular_residual"] < 1e-6:
            failed.append("regular-extension residual not below 1e-6")
        if out["regular_out_of_range"]:
            failed.append("regular-extension rho out of range")
        return failed


# (N, ds, s_max): two runs past j > N (running-sum mapping, up to 40 N),
# three with j <= N throughout (backward lookup).  The settings' run times
# are well apart and their number is odd, so the median case lies inside
# the middle setting's group.
PDE_SETTINGS = (
    (500, 2e-3, 1.0), (1000, 1e-3, 1.0), (100, 1e-2, 40.0), (2000, 1e-3, 2.0), (1000, 1e-3, 4.0)
)


class PdeScheme(_InProcess):
    """pde.run for every setting and both models, twice, on seeded (alpha, u*)."""

    name = "pde_scheme"
    box = MODEL_BOX
    pass_size = 4 * len(PDE_SETTINGS)

    def next_pass(self) -> list[dict]:
        points = super().next_pass()
        configs = [
            {"N": n, "ds": ds, "s_max": s_max, "model": model}
            for n, ds, s_max in PDE_SETTINGS
            for model in (pde.SIMPLIFIED, pde.FULL)
        ]
        cases = [{**p, **c} for p, c in zip(points, configs * 2)]
        return [cases[i] for i in self.rng.permutation(len(cases))]

    @staticmethod
    def _pipeline(case):
        params = profile.ModelParams(case["alpha"], 1.0, case["u_star"])
        config = pde.PdeConfig(params, N=case["N"], ds=case["ds"], s_max=case["s_max"],
                               model=case["model"])
        return pde.run(config)

    def run(self, case, tracer=None):
        seconds, result = _timed(tracer, self._pipeline, case)
        state, n = result.state, case["N"]
        fields = [result.s, result.sup_w, result.trace_w, result.trace_p, state.w, state.p]
        fields += [a for _, w, p in result.snapshots for a in (w, p)]
        conservation = None
        if state.j > n:
            lhs = (state.j / n) * float(np.sum(state.p[:n]))
            conservation = abs(lhs - (state.P_hist[state.j] - state.P_hist[0]))
        return seconds, {
            "kappa": state.profile.kappa,
            "steps": state.j,
            "regime": "running_sum" if state.j > n else "backward",
            "final_sup_w": float(result.sup_w[-1]),
            "final_trace_w": float(result.trace_w[-1]),
            "toggles": int(np.count_nonzero(np.diff(result.trace_p))),
            "P_running": state.P_running,
            "conservation_err": conservation,
            "finite": bool(all(np.all(np.isfinite(a)) for a in fields)),
            "trace_digest": digest(result.sup_w, result.trace_w, result.trace_p),
        }

    def check(self, case, out) -> list[str]:
        failed = []
        if not out["finite"]:
            failed.append("non-finite field")
        if out["conservation_err"] is not None and not out["conservation_err"] <= 1e-12:
            failed.append("running-sum conservation above 1e-12")
        return failed


def _sha256(path: Path) -> str | None:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None


def _csv_rows_and_trailer(path: Path):
    rows, trailer, seen_header = [], {}, False
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            key, _, val = line[1:].partition("=")
            if seen_header:
                trailer[key.strip()] = val.strip()
        elif not seen_header:
            seen_header = True
        else:
            rows.append(line.split(","))
    return rows, trailer


class CliRoundtrip:
    """Every subcommand as a fresh process; a case is one invocation.

    One seeded input set per run; a pass is two rounds over the eight
    invocations, so every run compares each command's CSV bytes with its
    earlier output.
    """

    name = "cli_roundtrip"
    in_process = False
    rounds_per_pass = 2

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        draw = antithetic_lhs(rng, 2, {**MODEL_BOX, "sigma": RELAY_BOX["sigma"]})[0]
        self.inputs = draw
        a, u, s = (repr(draw[k]) for k in ("alpha", "u_star", "sigma"))
        model = ["--alpha", a, "--ustar", u]
        self.round = [
            ("profile", ["profile", *model, "--out", "profile.csv"]),
            ("kernel", ["kernel", *model, "--table-points", "512", "--out", "kernel.csv"]),
            ("rings", ["rings", "--kernel", "synthetic", "--sigma", s, "--out", "rings.csv"]),
            ("degenerate", ["degenerate", "--sigma", s, "--out", "degenerate.csv"]),
            ("rings", ["rings", "--kernel", "file:degenerate.csv", "--out", "rings_file.csv"]),
            ("extended", ["extended", "--mode", "regular", "--sigma", s, "--out", "extended.csv"]),
            # pde sized to run about as long as degenerate and extended, so
            # the median invocation falls inside that group of run times
            ("pde", ["pde", *model, "--N", "100", "--ds", "1e-2", "--smax", "20",
                     "--out", "pde.csv"]),
            ("compare", ["compare", *model, "--N", "200", "--ds", "5e-3", "--smax", "4",
                         "--table-points", "512", "--out", "compare.csv"]),
        ]
        self.pass_size = self.rounds_per_pass * len(self.round)
        self.trace_unit = len(self.round)  # a traced run covers whole rounds
        self.first_sha: dict[str, str] = {}

    def next_pass(self) -> list[dict]:
        return [
            {"subcommand": sub, "argv": argv, **self.inputs}
            for _ in range(self.rounds_per_pass)
            for sub, argv in self.round
        ]

    def run(self, case, tracer=None):
        out_name = case["argv"][-1]
        cmd = [sys.executable, "-m", "liesegang.cli", *case["argv"]]
        written = [out_name]
        if tracer is not None:
            spans = f"spans-{tracer.case:04d}.json"
            cmd = [sys.executable, str(Path(__file__).with_name("cli_child.py")),
                   "--spans", spans, "--case", str(tracer.case), "--", *case["argv"]]
            written.append(spans)
        for name in written:  # read back only what this invocation writes
            (self.workdir / name).unlink(missing_ok=True)
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=self.workdir, capture_output=True, text=True,
                              timeout=150.0)
        seconds = time.perf_counter() - start
        out = {
            "exit_code": proc.returncode,
            "stdout": proc.stdout.strip(),
            "stderr": proc.stderr.strip()[-400:],
            "csv": out_name,
            "sha256": _sha256(self.workdir / out_name),
        }
        if tracer is not None:
            out["spans"] = str(self.workdir / spans)
        if case["subcommand"] == "degenerate" and proc.returncode == 0:
            _, trailer = _csv_rows_and_trailer(self.workdir / out_name)
            out["verified"] = trailer.get("verified")
            out["x_break"] = float(trailer["x2"]) + float(trailer["epsilon"])
        if out_name == "rings_file.csv" and proc.returncode == 0:
            rows, trailer = _csv_rows_and_trailer(self.workdir / out_name)
            out["zeros"] = [float(r[1]) for r in rows]
            out["classification"] = trailer.get("classification")
            out["x_star"] = float(trailer["x_star"])
        return seconds, out

    def check(self, case, out) -> list[str]:
        failed = []
        if out["exit_code"] != 0:
            failed.append(f"exit code {out['exit_code']}")
        if case["subcommand"] == "degenerate" and out.get("verified") != "True":
            failed.append("degenerate trailer lacks verified = True")
        first = self.first_sha.setdefault(out["csv"], out["sha256"])
        if out["sha256"] is None or out["sha256"] != first:
            failed.append(f"{out['csv']} bytes differ from the earlier output")
        return failed

    @staticmethod
    def roundtrip(cases) -> dict:
        """Zeros beyond the certified two, and the breakdown error, of the reimport."""
        x_break = zeros = None
        for rec in cases:
            x_break = (rec["out"] or {}).get("x_break", x_break)
            zeros = (rec["out"] or {}).get("zeros", zeros)
        if x_break is None or zeros is None:
            return {}
        second = zeros[1] if len(zeros) >= 2 else zeros[-1] if zeros else 0.0
        return {
            "cli.roundtrip_extra_zeros": len(zeros) - 2,
            "cli.roundtrip_break_rel_err": abs(second - x_break) / x_break,
        }


WORKLOADS = {w.name: w for w in (ModelChain, RelayMarch, PdeScheme, CliRoundtrip)}
