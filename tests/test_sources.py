import importlib
import importlib.util
from pathlib import Path

import liesegang

PACKAGE_DIR = Path(liesegang.__file__).resolve().parent
TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_package_sources_are_ascii():
    sources = sorted(PACKAGE_DIR.glob("*.py"))
    assert sources
    offenders = []
    for path in sources:
        try:
            path.read_bytes().decode("ascii")
        except UnicodeDecodeError as exc:
            offenders.append(f"{path.name}: non-ASCII byte at offset {exc.start}")
    assert not offenders, offenders


def test_benchmark_trace_table_names_resolve():
    # the benchmark's --trace 1 wraps every (module, name) in this table; a
    # renamed or removed function would otherwise only surface there
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"{module}.{name}"
        for module, name, _ in tracing.FUNCTIONS
        if not callable(getattr(importlib.import_module(f"liesegang.{module}"), name, None))
    ]
    assert not missing, missing
