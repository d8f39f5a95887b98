import contextlib
import errno
import io
import math
import os
import runpy
import stat
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from liesegang import degenerate as dg
from liesegang import pde, rings
from liesegang.cli import dispatch, load_kernel_file
from liesegang.kernel import MAX_TABLE_POINTS, kernel_from_samples, synthetic_kernel
from liesegang.profile import ModelParams, solve_kappa


def read_rows(path):
    header, rows, meta = None, [], {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line.startswith("#"):
                key, _, val = line[1:].partition("=")
                meta[key.strip()] = val.strip()
            elif header is None:
                header = line.split(",")
            elif line:
                rows.append(line.split(","))
    return meta, header, rows


def test_help_exits_zero():
    assert dispatch(["--help"]) == 0


def test_unknown_command_exits_two():
    assert dispatch(["frobnicate"]) == 2


def test_rings_synthetic_first_zero(tmp_path):
    out = tmp_path / "rings.csv"
    rc = dispatch([
        "rings", "--kernel", "synthetic", "--sigma", "0.5", "--scale", "1",
        "--max-zeros", "4", "--out", str(out),
    ])
    assert rc == 0
    meta, header, rows = read_rows(out)
    assert header == ["n", "x_n", "d_n", "q_n"]
    assert float(rows[0][1]) == pytest.approx(np.sqrt(70.0) / 4.0, abs=1e-10)
    assert meta["q_star_bound"].startswith("0.4196")


def test_profile_no_root_exit_code(tmp_path):
    rc = dispatch([
        "profile", "--alpha", "1", "--beta", "1", "--ustar", "10",
        "--out", str(tmp_path / "p.csv"),
    ])
    assert rc == 3


def test_huge_finite_beta_exits_three(tmp_path):
    # finite and positive, so not an input error: the kappa bracket fails
    assert dispatch(["profile", "--beta", "1e300", "--out", str(tmp_path / "p.csv")]) == 3


def test_invalid_parameter_exit_code(tmp_path):
    rc = dispatch([
        "rings", "--kernel", "synthetic", "--sigma", "0.9",
        "--out", str(tmp_path / "r.csv"),
    ])
    assert rc == 2


def test_io_failure_exit_code():
    rc = dispatch([
        "rings", "--kernel", "synthetic", "--max-zeros", "3",
        "--out", "/nonexistent-dir/r.csv",
    ])
    assert rc == 4


def test_profile_csv(tmp_path):
    out = tmp_path / "profile.csv"
    rc = dispatch(["profile", "--ustar", "0.2", "--n", "51", "--out", str(out)])
    assert rc == 0
    meta, header, rows = read_rows(out)
    assert header == ["eta", "phi", "psi"]
    assert len(rows) == 51
    assert float(meta["kappa"]) == pytest.approx(1.76960, abs=1e-4)
    assert float(meta["u0_star_kappa0"]) == pytest.approx(0.5456413607, abs=1e-9)


def test_profile_trailer_reports_kappa_evals(tmp_path):
    # the solve's u_star_curve count follows the rows as a '#' trailer
    out = tmp_path / "profile.csv"
    assert dispatch(["profile", "--ustar", "0.2", "--n", "5", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    evals = solve_kappa(ModelParams(1.0, 1.0, 0.2)).kappa_evals
    assert lines[-1] == f"# kappa_evals = {evals}"
    assert lines[-7] == "eta,phi,psi"
    assert 0 < evals <= 30


def test_determinism(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["rings", "--kernel", "synthetic", "--max-zeros", "6"]
    assert dispatch(args + ["--out", str(a)]) == 0
    assert dispatch(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


class _DiskFull:
    """File wrapper whose write stores half of the text, then fails."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, text):
        self.fh.write(text[: len(text) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")


def test_failed_write_keeps_old_file(tmp_path, monkeypatch, capsys):
    out = tmp_path / "rings.csv"
    args = ["rings", "--kernel", "synthetic", "--max-zeros", "3", "--out", str(out)]
    out.write_bytes(b"old contents\n")
    real_fdopen = os.fdopen
    monkeypatch.setattr(os, "fdopen", lambda *a, **k: _DiskFull(real_fdopen(*a, **k)))
    assert dispatch(args) == 4
    assert "No space left" in capsys.readouterr().err
    # no partial file, no temporary file, and the old file byte for byte
    assert [p.name for p in tmp_path.iterdir()] == ["rings.csv"]
    assert out.read_bytes() == b"old contents\n"
    monkeypatch.undo()
    assert dispatch(args) == 0
    assert [p.name for p in tmp_path.iterdir()] == ["rings.csv"]
    assert out.read_bytes().startswith(b"# command = rings")


def test_written_file_mode_and_special_targets(tmp_path):
    # a new file gets the mode a plain open() would give, an old one keeps
    # its own; a symlink is written through, and a pipe is written into,
    # neither is replaced
    args = ["rings", "--kernel", "synthetic", "--max-zeros", "3", "--out"]
    out = tmp_path / "r.csv"
    assert dispatch(args + [str(out)]) == 0
    plain = tmp_path / "plain"
    plain.write_bytes(b"")
    assert out.stat().st_mode == plain.stat().st_mode
    out.chmod(0o640)
    assert dispatch(args + [str(out)]) == 0
    assert stat.S_IMODE(out.stat().st_mode) == 0o640
    link = tmp_path / "link.csv"
    link.symlink_to(out)
    out.write_bytes(b"")
    assert dispatch(args + [str(link)]) == 0
    assert link.is_symlink() and out.read_bytes().startswith(b"# command = rings")
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
    reader.start()
    assert dispatch(args + [str(fifo)]) == 0
    reader.join(10.0)
    assert not reader.is_alive() and got[0] == out.read_bytes()
    assert stat.S_ISFIFO(fifo.stat().st_mode)


def test_extended_csv(tmp_path, synthetic_pattern):
    out = tmp_path / "ext.csv"
    rc = dispatch([
        "extended", "--kernel", "synthetic", "--b", "2.5", "--h", "2e-3",
        "--eps", "3.2e-2,1.6e-2,8e-3", "--out", str(out),
    ])
    assert rc == 0
    meta, header, rows = read_rows(out)
    assert header == ["x", "omega", "rho", "residual_local"]
    assert float(meta["residual"]) < 5e-3
    assert float(rows[0][1]) == pytest.approx(2.0 / 3.0, abs=1e-12)
    # the march's per-level diagnostics, in the trailer after the rows
    with open(out) as fh:
        assert fh.read().splitlines()[-3].startswith("# ramp_zone_fraction = ")
    fraction, most, mean = (
        [float(v) for v in meta[key].split(",")]
        for key in ("ramp_zone_fraction", "newton_max", "newton_mean")
    )
    assert len(fraction) == len(most) == len(mean) == 3
    assert all(0.0 < f < 1.0 for f in fraction)
    assert all(1.0 <= m <= mx <= 3.0 for m, mx in zip(mean, most))


def test_extended_regular_on_a_degenerate_export(tmp_path):
    # past degenerate breakdown the projected step keeps rho in [0, 1]; the
    # unprojected division wrote 352 negative rows and a residual of 2.5e-4
    deg, out = tmp_path / "deg.csv", tmp_path / "ext.csv"
    assert dispatch(["degenerate", "--sigma", "0.3", "--out", str(deg)]) == 0
    assert dispatch([
        "extended", "--mode", "regular", "--kernel", f"file:{deg}", "--b", "5", "--h", "1e-3",
        "--out", str(out),
    ]) == 0
    meta, header, rows = read_rows(out)
    assert header == ["x", "omega", "rho", "residual_local"] and "out_of_range" not in meta
    omega, rho = (np.array([float(row[i]) for row in rows]) for i in (1, 2))
    assert np.all((rho >= 0.0) & (rho <= 1.0))
    assert np.any(omega < 0.0) and np.all(rho[omega < 0.0] == 0.0)
    assert float(meta["residual"]) < 1e-5


def test_pde_csv(tmp_path):
    out = tmp_path / "pde.csv"
    snap = tmp_path / "snap.csv"
    rc = dispatch([
        "pde", "--N", "32", "--ds", "1e-2", "--smax", "1.0",
        "--out", str(out), "--snapshots-out", str(snap),
    ])
    assert rc == 0
    meta, header, rows = read_rows(out)
    assert header == ["s", "sup_w", "w_N", "p_N"]
    assert len(rows) == 100
    _, sheader, srows = read_rows(snap)
    assert sheader == ["s", "eta", "w", "p"]
    assert len(srows) % (6 * 32) == 0


@pytest.mark.parametrize("sigma", [0.2, 0.3, 0.5, 0.55, 0.462021])
def test_degenerate_roundtrip(tmp_path, sigma):
    # the reimport interpolates the exported cumK, so it keeps the
    # construction's two zeros and its tangential breakdown at x2 + eps
    out = tmp_path / "deg.csv"
    assert dispatch(["degenerate", "--sigma", str(sigma), "--out", str(out)]) == 0
    meta, header, rows = read_rows(out)
    assert header == ["theta", "K_hat", "cumK"]
    assert meta["verified"] == "True"
    kern = load_kernel_file(str(out))
    assert kern.gamma_const == pytest.approx(1.0 / (1.0 + sigma), abs=1e-12)
    pattern = rings.solve_pattern(kern, max_zeros=8)
    assert len(pattern.zeros) == 3
    assert pattern.classification is rings.Classification.DEGENERATE
    x_break = float(meta["x2"]) + float(meta["epsilon"])
    assert pattern.zeros[2] == pytest.approx(x_break, rel=1e-6)
    assert pattern.x_star == pytest.approx(x_break, rel=1e-6)


def test_touch_is_scanned_past(monkeypatch):
    # the former export clustered 44 geometric nodes on each side of each
    # theta_breaks entry; rebuilt from those nodes at sigma 0.52, the
    # kernel's omega first meets zero just short of x2 + eps and turns back
    # (only the untoggled candidate holds), so that zero is dropped and the
    # scan resumes past the probe to the breakdown itself.  The head's
    # incomplete-Beta masses keep cumK non-decreasing at those nodes
    sigma = 0.52
    cons = dg.construct_degenerate(synthetic_kernel(sigma, 1.0))
    spacing = np.pi / (2.0 * 2048)
    cluster = [
        np.clip(c + s * spacing * 0.5**k, 0.0, 1.0)
        for c in cons.theta_breaks for s in (-1.0, 1.0) for k in range(44)
    ]
    base = np.sin(np.linspace(0.0, np.pi / 2.0, 2049)) ** 2
    thetas = np.unique(np.concatenate([base, cluster, cons.theta_breaks]))
    kern = kernel_from_samples(
        thetas, cons.result.eval(thetas), cons.result.cum(0.0, thetas),
        sigma, cons.result.k_coeff, cons.result.gamma_const,
    )
    verdicts = []
    classify = rings.classify_continuation

    def recorded(kern, zeros, delta):
        verdicts.append((len(zeros) - 1, classify(kern, zeros, delta)))
        return verdicts[-1][1]

    monkeypatch.setattr(rings, "classify_continuation", recorded)
    pattern = rings.solve_pattern(kern, max_zeros=8)
    touches = [n for n, v in verdicts if n == 2 and v.negative_consistent]
    assert len(touches) == 1
    assert len(pattern.zeros) == 3
    assert pattern.classification is rings.Classification.DEGENERATE
    x_break = cons.x2 + cons.epsilon
    assert abs(pattern.zeros[2] - x_break) <= 1e-9 * x_break


def test_kernel_csv_trailer_reports_probe_error(tmp_path):
    # the table's largest off-grid probe error is deterministic, so it sits
    # in the CSV trailer, after the rows
    out = tmp_path / "k.csv"
    assert dispatch(["kernel", "--table-points", "512", "--out", str(out)]) == 0
    meta, _, _ = read_rows(out)
    assert out.read_text().splitlines()[-1].startswith("# probe_max_err = ")
    assert 0.0 <= float(meta["probe_max_err"]) < 10.0 * float(meta["quad_tol"])


def test_kernel_export_roundtrip(tmp_path):
    # rings reads the export's K and cumK columns by name, and the reimport
    # finds the table's zeros
    export = tmp_path / "k.csv"
    assert dispatch(["kernel", "--table-points", "512", "--out", str(export)]) == 0
    zeros = []
    for selector in (f"file:{export}", "model"):
        out = tmp_path / "r.csv"
        rc = dispatch(["rings", "--kernel", selector, "--table-points", "512", "--out", str(out)])
        assert rc == 0
        zeros.append([float(row[1]) for row in read_rows(out)[2]])
    assert len(zeros[0]) == len(zeros[1])
    np.testing.assert_allclose(zeros[0], zeros[1], rtol=1e-6)


def assert_input_error(argv, capsys):
    """Invalid input: exit code 2 and a one-line error, never a traceback."""
    rc = dispatch(argv)
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error:")
    assert "Traceback" not in err
    return err


@pytest.mark.parametrize("eps", [
    "a,b", "nan", "1e-2,,5e-3", "1e-2;5e-3", "1e-2 5e-3", "", ",", "1e-2,", "0x1p-7", "inf",
    "1e-320", "1e-2,1e-2", "1e-2,2e-2",
])
def test_extended_malformed_eps_exits_two(tmp_path, capsys, eps):
    assert_input_error(
        ["extended", "--eps", eps, "--out", str(tmp_path / "e.csv")], capsys
    )


def test_extended_eps_not_below_gamma_exits_two(tmp_path, capsys):
    # sigma 0.5: Gamma = 2/3, so a ramp of half-width 0.7 leaves no first band
    err = assert_input_error(
        ["extended", "--sigma", "0.5", "--eps", "0.7", "--out", str(tmp_path / "e.csv")],
        capsys,
    )
    assert "Gamma" in err
    assert not (tmp_path / "e.csv").exists()


@pytest.mark.parametrize("mode", ["mollified", "regular"])
def test_extended_nan_b_exits_two(tmp_path, capsys, mode):
    assert_input_error(
        ["extended", "--mode", mode, "--b", "nan", "--out", str(tmp_path / "e.csv")],
        capsys,
    )


@pytest.mark.parametrize("scale", ["inf", "nan"])
def test_rings_non_finite_scale_exits_two(tmp_path, capsys, scale):
    assert_input_error(
        ["rings", "--scale", scale, "--out", str(tmp_path / "r.csv")], capsys
    )


@pytest.mark.parametrize("flag", ["--horizon", "--min-width"])
def test_rings_nan_tuning_flag_exits_two(tmp_path, capsys, flag):
    err = assert_input_error(
        ["rings", flag, "nan", "--out", str(tmp_path / "r.csv")], capsys
    )
    assert flag[2:].replace("-", "_") in err


MODEL_FLAG_NAMES = {"--alpha": "alpha", "--beta": "beta", "--ustar": "u_star"}


@pytest.mark.parametrize(
    "command, flag, value",
    [
        (command, flag, value)
        for command in ("profile", "kernel", "pde", "compare")
        for flag, values in (
            ("--alpha", ("inf", "nan", "0", "-1", "60")),
            ("--beta", ("inf", "nan", "0", "-1")),
            ("--ustar", ("inf", "nan", "0", "-1")),
        )
        for value in values
    ],
)
def test_model_parameter_rejected_by_name(tmp_path, capsys, recwarn, command, flag, value):
    # alpha = 60 leaves kummer_m's domain (alpha^2/4 <= 50); each rejection
    # comes before any numpy call, so nothing warns on the way
    err = assert_input_error(
        [command, f"{flag}={value}", "--out", str(tmp_path / "o.csv")], capsys
    )
    assert MODEL_FLAG_NAMES[flag] in err
    assert len(recwarn) == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["profile", "--n", "-3"],
        ["profile", "--n", "0"],
        ["profile", "--eta-max", "nan"],
        ["profile", "--eta-max", "inf"],
        ["profile", "--n", str(MAX_TABLE_POINTS + 1)],
        ["degenerate", "--table-points", "0"],
        ["degenerate", "--table-points", "-5"],
        ["rings", "--max-zeros", "0"],
        ["rings", "--max-zeros", "-1"],
        # solve_pattern needs a horizon of at least its first stride, x1/200
        ["rings", "--horizon", "1e-4"],
        ["pde", "--smax", "inf"],
        ["pde", "--smax", "1e300"],
        ["pde", "--ds", "1e-300"],
        ["extended", "--h", "1e-300"],
        ["extended", "--b", "1e300"],
        ["extended", "--mode", "regular", "--h", "1e-300"],
        ["extended", "--mode", "regular", "--b", "1e300"],
        ["kernel", "--table-points", str(MAX_TABLE_POINTS + 1)],
        ["degenerate", "--table-points", str(MAX_TABLE_POINTS + 1)],
    ],
    ids="_".join,
)
def test_out_of_range_size_or_tolerance_exits_two(tmp_path, capsys, argv):
    assert_input_error(argv + ["--out", str(tmp_path / "o.csv")], capsys)


@pytest.mark.parametrize("sigma", ["0.02", "1e-300"])
def test_degenerate_sigma_without_second_zero_exits_two(tmp_path, capsys, sigma):
    # below sigma 0.0483 the template's first gap is thinner than the
    # bracket's 1e-4 x1 offset, so there is no second zero to bracket
    err = assert_input_error(
        ["degenerate", "--sigma", sigma, "--out", str(tmp_path / "d.csv")], capsys
    )
    assert f"sigma={float(sigma)}" in err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_degenerate_overflowing_scale_fails_verification(tmp_path, capsys):
    # fill_head overflows at scale 1e300; the NaN mass must fail the mass
    # identity check by name rather than reach solve_pattern's input guards
    rc = dispatch(["degenerate", "--scale", "1e300", "--out", str(tmp_path / "d.csv")])
    err = capsys.readouterr().err
    assert rc == 3
    assert err.startswith("error: VerificationFailed:")
    assert "synthetic(sigma=0.5, scale=1e+300): kernel mass mismatch nan" in err
    assert "Traceback" not in err
    assert not (tmp_path / "d.csv").exists()


NUMERIC_FLAGS = [
    (["extended", "--mode", mode], flag) for mode in ("mollified", "regular")
    for flag in ("--b", "--h", "--eps")
] + [
    (["pde", "--model", model], flag) for model in ("simplified", "full")
    for flag in ("--ds", "--smax")
] + [(["profile"], "--eta-max"), (["compare"], "--ds"), (["compare"], "--smax")] + [
    (["kernel", "--table-points", "256"], flag) for flag in ("--alpha", "--beta", "--ustar")
] + [
    (["rings"], flag) for flag in ("--sigma", "--scale", "--min-width", "--horizon")
] + [
    (["degenerate"], "--sigma"),
    # fill_head overflows at --scale 1e300 and fails verification by name
    # (test_degenerate_overflowing_scale_fails_verification)
    pytest.param(["degenerate"], "--scale",
                 marks=pytest.mark.filterwarnings("ignore::RuntimeWarning")),
] + [
    (argv, flag)
    for argv in (["profile"], ["rings", "--kernel", "model", "--table-points", "256"],
                 ["extended", "--kernel", "model", "--table-points", "256"],
                 ["pde", "--N", "32", "--ds", "1e-2", "--smax", "1"],
                 ["compare", "--N", "32", "--ds", "1e-2", "--smax", "1", "--table-points", "256"])
    for flag in ("--alpha", "--beta", "--ustar")
] + [
    (["extended", "--mode", mode], flag) for mode in ("mollified", "regular")
    for flag in ("--sigma", "--scale")
]


@pytest.mark.parametrize("value", ["0", "-1", "nan", "inf", "1e-300", "1e300"])
@pytest.mark.parametrize(
    "argv, flag", NUMERIC_FLAGS, ids=lambda v: "_".join(v) if isinstance(v, list) else v
)
def test_numeric_flag_never_raises(tmp_path, capsys, argv, flag, value):
    # none of these values starts a long run: each is refused, or costs about
    # what the subcommand's defaults cost
    rc = dispatch(argv + [f"{flag}={value}", "--out", str(tmp_path / "o.csv")])
    assert rc in (0, 2, 3, 4)
    assert "Traceback" not in capsys.readouterr().err


# each size flag at 0, -1, 1 and one past its cap; --max-zeros has no cap
# (a solve stops on its width floor first), so it gets a huge count instead
INTEGER_FLAGS = [
    (argv, "--table-points", MAX_TABLE_POINTS)
    for argv in (["kernel"], ["rings", "--kernel", "model"], ["extended", "--kernel", "model"],
                 ["compare", "--N", "32", "--ds", "1e-2", "--smax", "1"], ["degenerate"])
] + [
    (["profile"], "--n", MAX_TABLE_POINTS),
    (["rings"], "--max-zeros", 10**18 - 1),
    (["pde", "--ds", "1e-2", "--smax", "1"], "--N", pde.MAX_N),
    (["compare", "--ds", "1e-2", "--smax", "1", "--table-points", "256"], "--N", pde.MAX_N),
]


@pytest.mark.parametrize("value", ["0", "-1", "1", "cap+1"])
@pytest.mark.parametrize(
    "argv, flag, cap", INTEGER_FLAGS,
    ids=lambda v: "_".join(v) if isinstance(v, list) else str(v),
)
def test_integer_flag_never_raises(tmp_path, capsys, argv, flag, cap, value):
    # a size past its cap is refused before anything is allocated
    value = str(cap + 1) if value == "cap+1" else value
    rc = dispatch(argv + [f"{flag}={value}", "--out", str(tmp_path / "o.csv")])
    assert rc in (0, 2, 3, 4)
    assert "Traceback" not in capsys.readouterr().err
    if value == str(cap + 1) and flag != "--max-zeros":
        assert rc == 2


def run_sized(tmp_path_factory, argv):
    """Exit code, stderr and data rows of one in-process run."""
    out = tmp_path_factory.mktemp("size") / "o.csv"
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = dispatch(argv + ["--out", str(out)])
    assert "Traceback" not in err.getvalue()
    return rc, err.getvalue(), read_rows(out)[2] if rc == 0 else None


@pytest.mark.parametrize("argv", [["pde"], ["compare", "--table-points", "256"]],
                         ids=["pde", "compare"])
@settings(max_examples=20, deadline=None)
@given(n_cells=st.integers(1, pde.MAX_N))
@example(n_cells=1).via("the smallest size")
@example(n_cells=15).via("one below the floor")
@example(n_cells=16).via("the floor")
@example(n_cells=pde.MAX_N).via("the cap")
def test_pde_size_between_one_and_the_cap(tmp_path_factory, argv, n_cells):
    # a 2-step run costs under 0.2 s even at the cap, so no draw starts a long run
    rc, err, rows = run_sized(tmp_path_factory,
                              argv + ["--N", str(n_cells), "--ds", "1e-2", "--smax", "2e-2"])
    if n_cells < 16:
        assert rc == 2
        assert err.startswith("error: InvalidParameter: N must lie in [16, ")
    else:
        assert rc == 0
        assert len(rows) == 2


# a 65536-point table costs about 0.8 s in process, so few draws
@settings(max_examples=4, deadline=None)
@given(n_points=st.integers(1, MAX_TABLE_POINTS))
@example(n_points=1).via("the smallest size")
@example(n_points=255).via("one below the floor")
@example(n_points=256).via("the floor")
@example(n_points=MAX_TABLE_POINTS).via("the cap")
def test_table_points_between_one_and_the_cap(tmp_path_factory, n_points):
    rc, err, rows = run_sized(tmp_path_factory, ["kernel", "--table-points", str(n_points)])
    if n_points < 256:
        assert rc == 2
        assert err.startswith("error: InvalidParameter: n_points must lie in [256, ")
    else:
        assert rc == 0
        assert len(rows) == n_points + 1


@settings(max_examples=10, deadline=None)
@given(n=st.integers(1, MAX_TABLE_POINTS))
@example(n=1).via("the smallest size, one below the floor")
@example(n=2).via("the floor")
@example(n=MAX_TABLE_POINTS).via("the cap")
def test_profile_size_between_one_and_the_cap(tmp_path_factory, n):
    rc, err, rows = run_sized(tmp_path_factory, ["profile", "--n", str(n)])
    if n < 2:
        assert rc == 2
        assert err.startswith("error: InvalidParameter: need 2 <= --n <= ")
    else:
        assert rc == 0
        assert len(rows) == n


@settings(max_examples=20, deadline=None)
@given(n=st.integers(1, 10**18 - 1))
@example(n=0).via("one below the floor")
@example(n=1).via("the smallest size and the floor")
@example(n=10**18 - 1).via("the cap")
def test_max_zeros_between_one_and_the_cap(tmp_path_factory, n):
    # the solve stops at the accumulation, so a huge count costs no more
    rc, err, rows = run_sized(tmp_path_factory, ["rings", "--max-zeros", str(n)])
    if n < 1:
        assert rc == 2
        assert err.startswith("error: InvalidParameter: max_zeros must be >= 1, got 0")
    else:
        assert rc == 0
        assert 1 <= len(rows) <= n
        assert len(rows) == n or "Truncated" not in err


def test_default_stdout_csv_reads_back(tmp_path, capsys):
    # with --out - (the default) stdout carries the CSV alone and the status
    # line goes to stderr, so a kernel export piped to a file reimports
    assert dispatch(["kernel", "--table-points", "256"]) == 0
    out, err = capsys.readouterr()
    assert err.startswith("kernel: Gamma=")
    assert out.splitlines()[-1].startswith("# probe_max_err = ")
    path = tmp_path / "k.csv"
    path.write_text(out)
    assert dispatch(["rings", "--kernel", f"file:{path}", "--out", str(tmp_path / "r.csv")]) == 0


@pytest.mark.parametrize("smax, toggles", [("6", True), ("1", False)])
def test_compare_csv(tmp_path, smax, toggles):
    # to s = 6 the source cell toggles and the first onset offset is finite;
    # to s = 1 it does not, and the offsets read inf
    out = tmp_path / "c.csv"
    rc = dispatch(["compare", "--N", "32", "--ds", "1e-2", "--smax", smax,
                   "--table-points", "256", "--out", str(out)])
    assert rc == 0
    meta, header, rows = read_rows(out)
    assert header == ["s", "x", "w_trace", "omega", "abs_diff"]
    assert len(rows) == round(float(smax) / 1e-2)
    assert float(meta["sup_trace_diff"]) == max(float(row[4]) for row in rows)
    assert bool(meta["pde_toggles"]) is toggles
    for key in ("first_onset_cells", "first_onset_similarity_cells"):
        assert math.isfinite(float(meta[key])) is toggles


def test_unknown_kernel_selector_exits_two(tmp_path, capsys):
    err = assert_input_error(
        ["rings", "--kernel", "tabulated", "--out", str(tmp_path / "r.csv")], capsys
    )
    assert "unknown kernel selector 'tabulated'" in err


@pytest.mark.filterwarnings("ignore:.*found in sys.modules:RuntimeWarning")
def test_module_entry_point(tmp_path, monkeypatch):
    # python -m liesegang.cli: main() exits with dispatch's code
    out = tmp_path / "r.csv"
    monkeypatch.setattr(sys, "argv", ["liesegang", "rings", "--max-zeros", "3", "--out", str(out)])
    with pytest.raises(SystemExit) as exc:
        runpy.run_module("liesegang.cli", run_name="__main__")
    assert exc.value.code == 0
    assert read_rows(out)[1] == ["n", "x_n", "d_n", "q_n"]


def write_kernel_file(path, thetas, k_vals, cums):
    lines = ["# sigma = 0.5", "# k_coeff = 1", "# gamma = 0.6666666666666666", "theta,K,cumK"]
    lines += [f"{t:.17g},{k:.17g},{c:.17g}" for t, k, c in zip(thetas, k_vals, cums)]
    path.write_text("\n".join(lines) + "\n")


def test_rings_scan_cap_exits_two(tmp_path, capsys):
    # K = 1 has one zero; its scan at strides of x1/200 from there would
    # need about 1e302 points to reach the horizon
    thetas = np.linspace(0.0, 1.0, 200)
    path = tmp_path / "k.csv"
    write_kernel_file(path, thetas, np.ones_like(thetas), thetas)
    err = assert_input_error(
        ["rings", "--kernel", f"file:{path}", "--horizon", "1e300",
         "--out", str(tmp_path / "r.csv")], capsys,
    )
    assert f"needs over {rings.MAX_SCAN_POINTS} scan points" in err


def test_rings_falling_cumk_exits_two(tmp_path, capsys):
    # cumK must be non-decreasing exactly: a fall of 1e-13 of its largest value
    # is refused by name
    kern = synthetic_kernel(0.5, 1.0)
    thetas = np.linspace(0.0, 1.0, 200)
    cums = kern.cum(0.0, thetas)
    cums[100] = cums[101] + 1e-13 * cums[-1]
    path = tmp_path / "k.csv"
    write_kernel_file(path, thetas, kern.eval(thetas), cums)
    err = assert_input_error(
        ["rings", "--kernel", f"file:{path}", "--out", str(tmp_path / "r.csv")], capsys
    )
    assert "cumK" in err


@pytest.mark.parametrize(
    "bad_line, lineno",
    [("0.95", 15), ("theta,K", 15), ("theta,G_plus", 4), ("# sigma = half", None)],
)
def test_kernel_file_malformed_line_exits_two(tmp_path, capsys, bad_line, lineno):
    # only the first non-'#' row is the column header, and it must name
    # theta, K or K_hat, and cumK; a later row that does not parse as
    # numbers in those columns is reported with its line number
    thetas = np.linspace(0.0, 0.9, 10)
    cums = synthetic_kernel(0.5, 1.0).cum(0.0, thetas)
    lines = ["# sigma = 0.5", "# k_coeff = 1", "# gamma = 0.6666666666666666", "theta,K,cumK"]
    lines += [f"{t:.17g},{t * t * np.sqrt(1.0 - t):.17g},{c:.17g}" for t, c in zip(thetas, cums)]
    if lineno is None:
        lines[0] = bad_line  # a header value that is not a number
    else:
        lines[lineno - 1:lineno] = [bad_line]  # line 15 is one past the end
    path = tmp_path / "k.csv"
    path.write_text("\n".join(lines) + "\n")
    err = assert_input_error(
        ["rings", "--kernel", f"file:{path}", "--out", str(tmp_path / "r.csv")], capsys
    )
    if lineno is not None:
        assert f":{lineno}:" in err


@pytest.mark.parametrize(
    "columns, sign, name",
    [("theta,K,cumK", -1.0, "K samples and k_coeff"), ("theta,K", 1.0, "cumK"),
     (None, 1.0, "cumK")],
)
def test_kernel_file_bad_columns_exit_two(tmp_path, capsys, recwarn, columns, sign, name):
    # a negative K, a missing cumK column and a file without a column header
    # row are each rejected by name, before any numpy call can warn
    kern = synthetic_kernel(0.5, 1.0)
    thetas = np.linspace(0.0, 1.0, 200)
    data = np.column_stack((thetas, sign * kern.eval(thetas), sign * kern.cum(0.0, thetas)))
    lines = ["# sigma = 0.5", "# k_coeff = 1", "# gamma = 0.6666666666666666"]
    if columns is not None:
        lines.append(columns)
    width = 2 if columns == "theta,K" else 3
    lines += [",".join(f"{v:.17g}" for v in row[:width]) for row in data]
    path = tmp_path / "k.csv"
    path.write_text("\n".join(lines) + "\n")
    err = assert_input_error(
        ["rings", "--kernel", f"file:{path}", "--out", str(tmp_path / "r.csv")], capsys
    )
    assert name in err
    assert len(recwarn) == 0


def test_kernel_file_blank_lines_are_skipped(tmp_path):
    thetas = np.linspace(0.0, 1.0, 200)
    kern = synthetic_kernel(0.5, 1.0)
    plain, blank = tmp_path / "plain.csv", tmp_path / "blank.csv"
    write_kernel_file(plain, thetas, kern.eval(thetas), kern.cum(0.0, thetas))
    lines = plain.read_text().splitlines()
    blank.write_text("\n".join(lines[:10] + ["", "   "] + lines[10:]) + "\n")
    probe = np.linspace(0.0, 1.0, 101)
    assert np.array_equal(load_kernel_file(str(blank)).eval(probe),
                          load_kernel_file(str(plain)).eval(probe))


@pytest.mark.parametrize("command", [["rings"], ["extended"], ["extended", "--mode", "regular"]])
def test_kernel_file_of_zero_mass_exits_two(tmp_path, capsys, command):
    # K = cumK = 0 passes kernel_from_samples; x1 = sqrt(Gamma / int K) and
    # the relay's first band refuse the mass by name instead of dividing by it
    thetas = np.linspace(0.0, 1.0, 200)
    path = tmp_path / "k.csv"
    write_kernel_file(path, thetas, np.zeros_like(thetas), np.zeros_like(thetas))
    err = assert_input_error(
        [*command, "--kernel", f"file:{path}", "--out", str(tmp_path / "o.csv")], capsys
    )
    assert "kernel_mass must be positive and finite, got 0.0" in err


@pytest.mark.parametrize("key", ["sigma", "k_coeff", "gamma"])
def test_kernel_file_missing_header_key_exits_two(tmp_path, capsys, key):
    thetas = np.linspace(0.0, 1.0, 200)
    kern = synthetic_kernel(0.5, 1.0)
    path = tmp_path / "k.csv"
    write_kernel_file(path, thetas, kern.eval(thetas), kern.cum(0.0, thetas))
    path.write_text("\n".join(line for line in path.read_text().splitlines()
                              if not line.startswith(f"# {key} =")) + "\n")
    err = assert_input_error(
        ["rings", "--kernel", f"file:{path}", "--out", str(tmp_path / "r.csv")], capsys
    )
    assert f"lacks required header key '{key}'" in err
