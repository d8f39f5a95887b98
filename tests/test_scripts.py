import hashlib
import math
import re
import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_degenerate_demo_certifies(capsys):
    runpy.run_path(str(SCRIPTS / "degenerate_demo.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "degeneracy verified:   True" in out
    assert "classification:        Degenerate" in out


def test_pattern_study_writes_both_csvs(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["pattern_study.py", "--outdir", str(tmp_path)])
    runpy.run_path(str(SCRIPTS / "pattern_study.py"), run_name="__main__")
    assert "q* bound" in capsys.readouterr().out
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "pattern_model.csv", "pattern_synthetic.csv"
    ]


def test_pde_convergence_one_level(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["pde_convergence.py", "--levels", "1"])
    runpy.run_path(str(SCRIPTS / "pde_convergence.py"), run_name="__main__")
    out = capsys.readouterr().out
    errors = re.findall(r"onset error (\S+)", out)
    assert len(errors) == 1
    assert math.isfinite(float(errors[0]))
    per_step = re.findall(r"\(([0-9.]+) us per step\)", out)
    assert len(per_step) == 1
    assert float(per_step[0]) > 0


def test_cli_digest_hashes_what_the_cli_writes(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script puts perfbench/ on it
    digest = runpy.run_path(str(SCRIPTS / "cli_digest.py"))
    with pytest.raises(SystemExit, match="2"):
        digest["main"](["--only", "rings,ring"])
    assert "unknown --only names: ring" in capsys.readouterr().err
    assert digest["main"](["--only", "rings,extended"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split("  ")[1] for line in lines] == ["rings.csv", "extended.csv"]
    # the same invocations, run here, write the bytes hashed
    monkeypatch.chdir(tmp_path)
    calls = {argv[-1]: argv for argv in digest["invocations"](tmp_path)}
    assert len(calls) == 10 and {"extended_mollified.csv", "extended_degenerate.csv"} <= set(calls)
    for line in lines:
        sha, name = line.split("  ")
        assert digest["cli"].dispatch(calls[name]) == 0
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == sha


def test_cli_digest_saves_and_compares(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(sys, "path", list(sys.path))
    digest = runpy.run_path(str(SCRIPTS / "cli_digest.py"))
    saved = tmp_path / "saved"
    assert digest["main"](["--only", "profile,rings", "--save", str(saved)]) == 0
    hashes = dict(line.split("  ")[::-1] for line in capsys.readouterr().out.splitlines())
    assert sorted(p.name for p in saved.iterdir()) == ["profile.csv", "rings.csv"]
    for name, sha in hashes.items():
        assert hashlib.sha256((saved / name).read_bytes()).hexdigest() == sha
    assert digest["main"](["--only", "profile,rings", "--against", str(saved)]) == 0
    assert [line.split("  ")[2] for line in capsys.readouterr().out.splitlines()] == ["same"] * 2
    # a numeric cell moved by 1e-12 relative, then a trailer's text changed
    lines = (saved / "profile.csv").read_text().splitlines(keepends=True)
    row = lines.index("eta,phi,psi\n") + 2
    eta, phi, psi = lines[row].split(",")
    lines[row] = f"{eta},{float(phi) * (1.0 + 1e-12)!r},{psi}"
    (saved / "profile.csv").write_text("".join(lines))
    rings_csv = (saved / "rings.csv").read_text()
    (saved / "rings.csv").write_text(rings_csv.replace("classification = ", "classification = x"))
    assert digest["main"](["--only", "profile,rings", "--against", str(saved)]) == 0
    diffs = [line.split("  ")[2] for line in capsys.readouterr().out.splitlines()]
    assert float(diffs[0]) == pytest.approx(1e-12, rel=1e-2)
    assert diffs[1] == "inf"
    (saved / "rings.csv").unlink()
    assert digest["main"](["--only", "rings", "--against", str(saved)]) == 0
    assert capsys.readouterr().out.split("  ")[2].strip() == "missing"
    # signed zeros are equal; a cell that turns nan or inf has moved without bound
    assert digest["max_rel_diff"]("# x = 0.0\n1.0,-0.0\n", "# x = -0.0\n1.0,0.0\n") == 0.0
    assert digest["max_rel_diff"]("1.0,2.0\n", "nan,2.0\n") == math.inf
    assert digest["max_rel_diff"]("1.0,2.0\n", "1.0,inf\n") == math.inf
