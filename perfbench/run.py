"""Benchmark entry point: one workload, one seed, one result line.

Usage, from the repository root:
    python3 perfbench/run.py --workload W --seed N --seconds T --trace 0|1

Workloads: model_chain, relay_march, pde_scheme, cli_roundtrip (see
workloads.py).  BLAS and OpenMP are pinned to one thread.  With --trace 0
the run measures set-up three times (two set-up-only processes plus the
measuring process) and reports the end-to-end metrics; with --trace 1 it
reports the per-layer metrics of metrics.PER_LAYER.  The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics.  Each run also writes its full record (environment, every
case's inputs, key outputs, time and checks) to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import metrics

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
SETUP_SAMPLES = 3
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "BLIS_NUM_THREADS")


def check_layout() -> str | None:
    """Why this checkout cannot be benchmarked, or None."""
    if not (ROOT / "src" / "liesegang" / "__init__.py").is_file():
        return f"no liesegang package under {ROOT / 'src'}"
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        return f"cannot read BENCHMARK.json: {exc}"
    e2e = [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]]
    layer = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    if e2e != list(metrics.END_TO_END) or layer != [m[:3] for m in metrics.PER_LAYER]:
        return "BENCHMARK.json does not match perfbench/metrics.py"
    return None


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    problem = check_layout()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.update({var: "1" for var in THREAD_VARS})
    OUT.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record_path = OUT / f"{tag}.json"
    base = [sys.executable, str(ROOT / "perfbench" / "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--workdir", str(OUT / tag)]

    def spawn(record: Path, *extra) -> float:
        """Run one worker; return its set-up time (spawn to ready)."""
        record.unlink(missing_ok=True)
        start = time.monotonic()
        # own process group, so a timeout also ends the worker's cli children
        proc = subprocess.Popen([*base, "--record", str(record), *extra], env=env,
                                cwd=ROOT, start_new_session=True)
        try:
            code = proc.wait(timeout=max(deadline - start, 1.0))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
        if code != 0:
            raise RuntimeError(f"worker exited with code {code}")
        return json.loads(record.read_text())["ready_monotonic"] - start

    try:
        setups = []
        if not args.trace:
            probe = OUT / f"{tag}.setup.json"
            setups = [spawn(probe, "--setup-only") for _ in range(SETUP_SAMPLES - 1)]
            probe.unlink()
        setups.append(spawn(record_path))
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    record = json.loads(record_path.read_text())
    if args.trace:
        values = record["per_layer"]
        units = {name: unit for name, unit, *_ in metrics.PER_LAYER}
    else:
        summary = dict(record["summary"], setup_s=statistics.median(setups))
        record["setup_samples_s"] = setups
        record_path.write_text(json.dumps(record, indent=1))
        if record["attempted"] == record["failed"]:
            print("error: no case succeeded", file=sys.stderr)
            return 1
        values = {name: summary[name] for name, *_ in metrics.END_TO_END}
        units = {name: unit for name, unit, *_ in metrics.END_TO_END}
        print(f"{args.workload} seed {args.seed}: {summary['ok_cases']} cases in "
              f"{summary['passes']} pass(es), {summary['wall_s']:.2f} s timed; tail is "
              f"p{summary['tail_percentile']:.1f} of {summary['tail_sample_count']} cases, "
              f"{summary['tail_cases_beyond']} beyond it; "
              f"set-up samples {', '.join(f'{s:.3f}' for s in setups)} s")
    attempted, failed = record["attempted"], record["failed"]
    print(f"failed {failed} of {attempted} cases ({100.0 * failed / attempted:.1f}%)")
    for case in record["cases"]:
        if not case["ok"]:
            why = case.get("error") or "; ".join(case.get("failed_checks", []))
            print(f"  failed case {case['index']} {case['inputs']}: {why}")
    for name, value in values.items():
        print(f"  {name:44s} {value:.6g} {units[name]}")
    print(f"record: {record_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
