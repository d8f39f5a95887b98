"""One benchmark process: set up, run a workload's closed loop, write a record.

Usage (started by run.py, which pins the BLAS/OpenMP threads):
    worker.py --workload W --seed S --seconds T --trace 0|1 --record OUT.json
              --workdir DIR [--setup-only]

The process imports liesegang from the checkout's src/, draws the first pass
of inputs and notes the monotonic time at which it is ready to time the first
case.  With --setup-only it writes that time and exits.  Otherwise it runs:

* trace 0: whole passes of cases, one at a time (one client, closed loop),
  stopping at the pass boundary nearest the requested time; the statistics
  cover every case.
* trace 1: each case twice, untraced then traced, until the time is up; the
  spans of the traced cases give the per-layer metrics.

Every case's inputs, key outputs, time and check results go to the record.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import liesegang  # noqa: E402

if Path(liesegang.__file__).resolve().parent != ROOT / "src" / "liesegang":
    sys.exit(f"liesegang imported from {liesegang.__file__}, not from {ROOT / 'src'}")

import metrics  # noqa: E402
import tracing  # noqa: E402
from run import THREAD_VARS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def environment(seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "seed": seed,
    }


def run_case(wl, case, tracer, index, pass_no) -> dict:
    rec = {"index": index, "pass": pass_no, "traced": tracer is not None,
           "inputs": {k: v for k, v in case.items() if k != "argv"}}
    if "argv" in case:
        rec["argv"] = case["argv"]
    try:
        seconds, out = wl.run(case, tracer)
    except Exception as exc:  # a failing case is a result, not a crash
        rec.update(seconds=None, out=None, ok=False, error=f"{type(exc).__name__}: {exc}")
        return rec
    failed = wl.check(case, out)
    rec.update(seconds=seconds, out=out, ok=not failed, failed_checks=failed)
    return rec


def tail(times):
    """(value, percentile) of the slow end of the case times.

    The percentile is the highest with at least ten cases beyond it, but
    never below p90, read by linear interpolation between order statistics.
    Runs of fewer than 100 cases therefore report p90, which rests on fewer
    than ten cases; the record gives how many lie beyond it.
    """
    s = sorted(times)
    n = len(s)
    pct = max(90.0, 100.0 * (n - 10) / n)
    pos = pct / 100.0 * (n - 1)
    i = int(pos)
    return s[i] + (s[min(i + 1, n - 1)] - s[i]) * (pos - i), pct


def closed_loop(wl, passes, seconds: float) -> dict:
    cases, durations = [], []
    start = time.monotonic()
    while True:
        pass_start = time.monotonic()
        for case in next(passes):
            cases.append(run_case(wl, case, None, len(cases), len(durations)))
        durations.append(time.monotonic() - pass_start)
        elapsed = time.monotonic() - start
        # stop at the pass boundary nearest the requested time
        if elapsed + 0.5 * statistics.mean(durations) >= seconds:
            break
    wall = time.monotonic() - start
    times = [c["seconds"] for c in cases if c["ok"]]
    usage = resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
    summary = {"passes": len(durations), "wall_s": wall, "ok_cases": len(times),
               "peak_rss_mb": resource.getrusage(usage).ru_maxrss / 1024.0}
    if times:
        value, pct = tail(times)
        summary.update(case_p50_s=statistics.median(times), case_tail_s=value,
                       tail_percentile=pct, tail_sample_count=len(times),
                       tail_cases_beyond=sum(t > value for t in times),
                       cases_per_s=len(times) / wall)
    return {"cases": cases, "summary": summary}


def cli_stats(wl, cases, extra) -> dict:
    """Span stats of the traced cli children; their walls and import go to extra.

    cases alternate untraced and traced invocations.  A subcommand's wall is
    the mean of its untraced invocations (rings: synthetic and file kernel).
    """
    stats, imports, walls = {}, [], {}
    for rec in cases[1::2]:
        path = Path(rec["out"]["spans"]) if rec["out"] else None
        if path is not None and path.exists():
            child = json.loads(path.read_text())
            imports.append(child["import_s"])
            spans = np.asarray(child["spans"], dtype=np.int64)
            tracing.aggregate(child["names"], spans.reshape(-1, len(tracing.SPAN_COLUMNS)), stats)
    for rec in cases[::2]:
        if rec["ok"]:
            walls.setdefault(rec["inputs"]["subcommand"], []).append(rec["seconds"])
    for sub in metrics.CLI_SUBCOMMANDS:
        extra[f"cli.{sub}.wall_s"] = statistics.mean(walls.get(sub, [0.0]))
    extra["cli.import_s"] = extra["covered_extra_s"] = statistics.mean(imports or [0.0])
    extra.update(wl.roundtrip(cases))
    return stats


def traced_loop(wl, passes, seconds: float, spans_path: Path) -> dict:
    tracer = tracing.Tracer()
    unit = getattr(wl, "trace_unit", 1)  # cases that must be traced together
    cases, pending, pass_no = [], [], -1
    start = time.monotonic()
    while True:
        if not pending:
            pending, pass_no = list(next(passes)), pass_no + 1
        case = pending.pop(0)
        index = len(cases) // 2
        cases.append(run_case(wl, case, None, index, pass_no))
        tracer.case = index
        cases.append(run_case(wl, case, tracer, index, pass_no))
        if time.monotonic() - start >= seconds and (index + 1) % unit == 0:
            break
    pairs = [(u, t) for u, t in zip(cases[::2], cases[1::2]) if u["ok"] and t["ok"]]
    n_traced = len(cases) // 2
    untraced_s = sum(u["seconds"] for u, _ in pairs)
    traced_s = sum(t["seconds"] for _, t in pairs)
    extra = {
        "trace.case_s": traced_s / len(pairs) if pairs else 0.0,
        "trace.overhead_frac": traced_s / untraced_s - 1.0 if untraced_s else 0.0,
    }
    if wl.in_process:
        stats = tracing.aggregate(tracer.names, tracer.span_array())
        tracer.save(spans_path)
    else:
        stats = cli_stats(wl, cases, extra)
    per_layer = metrics.per_layer_values(stats, n_traced, extra)
    return {"cases": cases, "summary": {"traced_cases": n_traced, "pairs_ok": len(pairs),
                                        "span_stats": stats},
            "per_layer": per_layer}


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    record_path = Path(args.record)
    wl = WORKLOADS[args.workload](args.seed, Path(args.workdir))
    first = wl.next_pass()  # the first pass is drawn during set-up
    ready = time.monotonic()
    if args.setup_only:
        record_path.write_text(json.dumps({"ready_monotonic": ready}))
        return 0
    passes = itertools.chain([first], iter(wl.next_pass, None))
    if args.trace:
        result = traced_loop(wl, passes, args.seconds, record_path.with_suffix(".spans.npz"))
    else:
        result = closed_loop(wl, passes, args.seconds)
    attempted = len(result["cases"])
    failed = sum(not c["ok"] for c in result["cases"])
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(args.seed),
        "ready_monotonic": ready, "attempted": attempted, "failed": failed,
        **result,
    }
    record_path.write_text(json.dumps(record, indent=1, default=float))
    return 0


if __name__ == "__main__":
    sys.exit(main())
