import errno
import os
import stat
import threading

import numpy as np
import pytest

from liesegang import rings
from liesegang.cli import dispatch, load_kernel_file
from liesegang.kernel import MAX_TABLE_POINTS
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


def test_degenerate_roundtrip(tmp_path, construction):
    out = tmp_path / "deg.csv"
    rc = dispatch(["degenerate", "--table-points", "2048", "--out", str(out)])
    assert rc == 0
    meta, header, rows = read_rows(out)
    assert header == ["theta", "K_hat"]
    assert meta["verified"] == "True"
    kern = load_kernel_file(str(out))
    assert kern.gamma_const == pytest.approx(2.0 / 3.0, abs=1e-12)
    pattern = rings.solve_pattern(kern, max_zeros=8)
    assert pattern.classification is rings.Classification.DEGENERATE
    x_break = construction.x2 + construction.epsilon
    assert pattern.x_star == pytest.approx(x_break, rel=0.01)


def test_kernel_export_roundtrip(tmp_path):
    # rings reads the export's K column by name, not G_plus in column 1
    export = tmp_path / "k.csv"
    assert dispatch(["kernel", "--table-points", "512", "--out", str(export)]) == 0
    zeros = []
    for selector in (f"file:{export}", "model"):
        out = tmp_path / "r.csv"
        rc = dispatch(["rings", "--kernel", selector, "--table-points", "512", "--out", str(out)])
        assert rc == 0
        zeros.append([float(row[1]) for row in read_rows(out)[2][:5]])
    assert len(zeros[0]) == 5
    np.testing.assert_allclose(zeros[0], zeros[1], rtol=1e-4)


def assert_input_error(argv, capsys):
    """Invalid input: exit code 2 and a one-line error, never a traceback."""
    rc = dispatch(argv)
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error:")
    assert "Traceback" not in err
    return err


@pytest.mark.parametrize("eps", ["a,b", "nan"])
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


@pytest.mark.parametrize("flag", ["--horizon", "--scan-step", "--root-tol", "--min-width"])
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
        ["kernel", "--quad-tol", "1e-300"],
        ["degenerate", "--table-points", "0"],
        ["degenerate", "--table-points", "-5"],
        ["rings", "--max-zeros", "0"],
        ["rings", "--max-zeros", "-1"],
        ["rings", "--scan-step", "1e-15"],
        ["rings", "--scan-step", "1e-300"],
        # solve_pattern needs root_tol < scan_step <= horizon
        ["rings", "--scan-step", "1e300"],
        ["rings", "--root-tol", "1e300"],
        ["rings", "--horizon", "1e-4"],
        # past that check, next_zero caps its scan at MAX_SCAN_POINTS
        ["rings", "--scan-step", "1e-15", "--root-tol", "1e-16"],
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


@pytest.mark.parametrize(
    "bad_line, lineno",
    [("0.95", 15), ("theta,K", 15), ("theta,G_plus", 4), ("# sigma = half", None)],
)
def test_kernel_file_malformed_line_exits_two(tmp_path, capsys, bad_line, lineno):
    # only the first non-'#' row may be a column header, and it must name K
    # or K_hat; a later row that does not parse as two numbers is reported
    # with its line number
    thetas = np.linspace(0.0, 0.9, 10)
    lines = ["# sigma = 0.5", "# k_coeff = 1", "# gamma = 0.6666666666666666", "theta,K"]
    lines += [f"{t:.17g},{t * t * np.sqrt(1.0 - t):.17g}" for t in thetas]
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
