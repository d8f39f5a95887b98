import math
import re
import runpy
import sys
from pathlib import Path

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
