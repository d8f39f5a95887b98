import runpy
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_degenerate_demo_certifies(capsys):
    runpy.run_path(str(SCRIPTS / "degenerate_demo.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "degeneracy verified:   True" in out
    assert "classification:        Degenerate" in out
