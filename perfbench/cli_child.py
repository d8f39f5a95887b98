"""Traced stand-in for ``python -m liesegang.cli``.

Usage: cli_child.py --spans OUT.json --case N -- <liesegang cli arguments>

Imports the package from the checkout's src/, installs the benchmark's
span wrappers, calls ``liesegang.cli.dispatch`` and writes the spans, the
import time and the exit code to OUT.json.  Exits with dispatch's code.
"""

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def main(argv) -> int:
    sep = argv.index("--")
    opts = dict(zip(argv[:sep:2], argv[1:sep:2]))
    import_start = time.perf_counter()
    import liesegang.cli as cli

    import_s = time.perf_counter() - import_start
    from tracing import Tracer

    tracer = Tracer()
    tracer.case = int(opts["--case"])
    tracer.install()
    try:
        code = cli.dispatch(argv[sep + 1:])
    finally:
        tracer.uninstall()
    record = {
        "exit_code": code,
        "import_s": import_s,
        "names": tracer.names,
        "spans": tracer.span_array().tolist(),
    }
    with open(opts["--spans"], "w") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
