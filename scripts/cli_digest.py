"""SHA-256 of every CSV the benchmark's CLI invocations write.

Usage: python scripts/cli_digest.py [--only NAME[,NAME...]] [--save DIR] [--against DIR]

Runs the eight invocations of the cli_roundtrip benchmark workload, with
the inputs that workload draws from seed 107, then `extended` in its default
mollified mode (the workload runs only --mode regular) and `extended --mode
regular` on the degenerate export, all in this process through
liesegang.cli.dispatch, in a temporary directory.  Prints `sha256  name` per
CSV to stdout, in run order; the commands' status lines go to stderr.
--only keeps the invocations whose CSV stem is named (profile, kernel,
rings, degenerate, rings_file, extended, extended_mollified, pde, compare,
extended_degenerate); rings_file and extended_degenerate read
degenerate.csv, so they need degenerate with them.  Run it at two commits
and diff the outputs to check that a change leaves every CSV
byte-identical.  --save DIR copies the CSVs into DIR; --against DIR ends
each line with `same` when the CSV's bytes equal DIR's copy, else with the
largest relative difference over its numeric cells and `#` values (inf
where a text cell or the number of cells differs, `missing` where DIR has
no copy).  Exits 1 if an invocation exits nonzero, after printing the
rest.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from liesegang import cli  # noqa: E402
from workloads import CliRoundtrip  # noqa: E402

SEED = 107


def invocations(workdir: Path) -> list[list[str]]:
    """The workload's argument lists, then extended in mollified mode and
    in regular mode on the degenerate kernel."""
    argvs = [argv for _, argv in CliRoundtrip(SEED, workdir).round]
    regular = next(a for a in argvs if a[0] == "extended")
    sigma = regular[regular.index("--sigma") + 1]
    argvs.append(["extended", "--sigma", sigma, "--out", "extended_mollified.csv"])
    argvs.append(["extended", "--mode", "regular", "--kernel", "file:degenerate.csv",
                  "--out", "extended_degenerate.csv"])
    return argvs


def max_rel_diff(old: str, new: str) -> float:
    """Largest |a - b| / max(|a|, |b|) over the cells (split at `,` and
    `=`) of two CSV texts; inf where a non-numeric cell or the layout
    differs."""
    lines_old, lines_new = old.splitlines(), new.splitlines()
    if len(lines_old) != len(lines_new):
        return math.inf
    worst = 0.0
    for line_old, line_new in zip(lines_old, lines_new):
        cells_old = line_old.replace("=", ",").split(",")
        cells_new = line_new.replace("=", ",").split(",")
        if len(cells_old) != len(cells_new):
            return math.inf
        for a, b in zip(cells_old, cells_new):
            if a == b:
                continue
            try:
                x, y = float(a), float(b)
            except ValueError:
                return math.inf
            if x == y:  # 0.0 against -0.0
                continue
            rel = abs(x - y) / max(abs(x), abs(y))
            worst = max(worst, rel if rel == rel else math.inf)  # nan: a nan or inf moved
    return worst


def compare(name: str, against: Path) -> str:
    """`same`, the largest relative difference, or `missing`."""
    ref = against / name
    if not ref.exists():
        return "missing"
    if ref.read_bytes() == Path(name).read_bytes():
        return "same"
    return f"{max_rel_diff(ref.read_text(), Path(name).read_text()):.2e}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", help="comma-separated CSV stems")
    parser.add_argument("--save", type=Path, help="copy the CSVs into this directory")
    parser.add_argument("--against", type=Path, help="compare the CSVs with this directory's")
    args = parser.parse_args(argv)
    save, against = (None if d is None else d.resolve() for d in (args.save, args.against))
    if save is not None:
        save.mkdir(parents=True, exist_ok=True)
    failed, home = False, os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # the file: kernel's path is written relative, as the workload has it
        try:
            calls = invocations(Path(tmp))
            stems = {Path(call[-1]).stem for call in calls}
            keep = stems if args.only is None else set(args.only.split(","))
            if not keep <= stems:
                parser.error(f"unknown --only names: {', '.join(sorted(keep - stems))}")
            for call in calls:
                name = call[-1]
                if Path(name).stem not in keep:
                    continue
                code = cli.dispatch(call)
                if code != 0:
                    print(f"exit {code}  {name}", file=sys.stderr)
                    failed = True
                    continue
                line = f"{hashlib.sha256(Path(name).read_bytes()).hexdigest()}  {name}"
                if against is not None:
                    line += f"  {compare(name, against)}"
                print(line)
                if save is not None:
                    shutil.copyfile(name, save / name)
        finally:
            os.chdir(home)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
