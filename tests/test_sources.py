import importlib
import importlib.util
from pathlib import Path

import liesegang
from liesegang import extended, kernel

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


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_benchmark_trace_table_names_resolve():
    # the benchmark's --trace 1 wraps every (module, name) in this table; a
    # renamed or removed function would otherwise only surface there
    tracing = load_tracing()
    missing = [
        f"{module}.{name}"
        for module, name, _ in tracing.FUNCTIONS
        if not callable(getattr(importlib.import_module(f"liesegang.{module}"), name, None))
    ]
    assert not missing, missing


def test_tracer_records_one_joint_march():
    # all mollification levels are marched in one mollified_solve call,
    # whose span counts the grid nodes marched
    tracer = load_tracing().Tracer()
    kern = kernel.synthetic_kernel(0.5, 1.0)
    tracer.install()
    try:
        sol = extended.extended_solve(kern, 0.3, 2e-3, [1.6e-2, 8e-3])
    finally:
        tracer.uninstall()
    nid = tracer.names.index("extended.mollified_solve")
    marches = [s for s in tracer.spans if s[0] == nid]
    assert len(marches) == 1
    assert marches[0][5] == len(sol.grid) - 1


def test_tracer_wraps_the_derived_cum():
    # Kernel.cum is derived from prefix but stays a constructor argument, so
    # the tracer's dataclasses.replace(kern, eval=..., cum=...) still works
    untraced = kernel.synthetic_kernel(0.4, 1.3).cum(0.2, 0.9)
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        traced = kernel.synthetic_kernel(0.4, 1.3).cum(0.2, 0.9)
    finally:
        tracer.uninstall()
    assert traced == untraced
    nid = tracer.names.index("kernel.cum")
    assert sum(1 for s in tracer.spans if s[0] == nid) == 1
