"""Run the repro benchmark.

    python3 perfbench/run.py --workload serve-score --seed 1 --seconds 40 --trace 0

``--workload all`` (the default) runs every workload in turn.  With
``--trace 0`` a run prints its end-to-end metrics; with ``--trace 1``
it prints the per-layer table instead.  Either way it prints the
``env`` block first and, as its last line, one JSON object::

    {"correct": true, "attempted": 812, "failed": 0, "metrics": {...}}

The exit code is 0 only when every operation's output was correct.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import traceback
from pathlib import Path
from typing import Any

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import procs  # noqa: E402

# The keys of perfbench.workloads.WORKLOADS, listed here so arguments
# parse (and a checkout without the program fails cleanly) before
# anything imports the program.
WORKLOAD_NAMES = ("cli-cold", "serve-score", "serve-mixed", "som-large")

# Set-ups timed per run; setup_s is their median.
SETUPS = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "p50_ms": "ms",
    "p90_ms": "ms",
    "heavy_p50_ms": "ms",
    "heavy_p90_ms": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
}


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOAD_NAMES, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _bytecode_state() -> dict[str, Any]:
    cached = sum(1 for _ in procs.PYCACHE.rglob("*.pyc")) if procs.PYCACHE.is_dir() else 0
    return {
        "children_pycache_prefix": str(procs.PYCACHE.relative_to(procs.ROOT)),
        "children_pyc_files_at_start": cached,
    }


def _line(name: str, value: float, unit: str, note: str = "") -> str:
    return f"  {name:<36} {value:>14.4f} {unit:<6}{note}"


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict[str, Any]:
    """Run one workload; print its report; return its result object."""
    from perfbench import envinfo
    from perfbench.workloads import NAMED, WORKLOADS

    bytecode = _bytecode_state()
    calibration = [envinfo.calibrate()]
    print(f"== {name}  seed={seed}  seconds={seconds:g}  trace={int(trace)}", flush=True)
    if trace:
        from perfbench import layers

        traced = layers.traced_run(name, seed, seconds)
        attempted, failed, failures = traced.attempted, traced.failed, traced.failures
        metrics = {metric: {"value": value, "unit": unit}
                   for metric, (value, unit, _) in traced.table.items()}
        report_lines = ["per-layer table (self time per op; median over ops):"]
        report_lines += [_line(metric, value, unit, f"  {note}")
                         for metric, (value, unit, note) in traced.table.items()]
        report_lines.append(f"  spans written to {traced.spans_path.relative_to(procs.ROOT)}")
    else:
        outcome = WORKLOADS[name](seed, seconds, SETUPS)
        attempted, failed, failures = outcome.attempted, outcome.failed, outcome.failures
        values = outcome.metrics()
        metrics = {metric: {"value": values[metric], "unit": unit}
                   for metric, unit in END_TO_END_UNITS.items()}
        named = {**NAMED[name], "ok_frac": "ok_frac (= 1 - failed_frac)"}
        report_lines = ["end-to-end metrics:"]
        report_lines += [_line(named.get(metric, metric), values[metric], unit)
                         for metric, unit in END_TO_END_UNITS.items()]
        report_lines.append(f"  samples: {len(outcome.latencies)} main ops, "
                            f"{len(outcome.heavy)} heavy ops, {failed} failed")
    calibration.append(envinfo.calibrate())
    env = envinfo.env_block(procs.ROOT, bytecode)
    env["calibration_ms"] = {"start": calibration[0], "end": calibration[1]}
    print("env " + json.dumps(env, sort_keys=True))
    print("\n".join(report_lines))
    for reason in failures:
        print(f"  FAILED: {reason}")
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    report = procs.WORK / f"report-{name}-seed{seed}-trace{int(trace)}.json"
    report.write_text(json.dumps({**result, "env": env, "failures": failures},
                                 sort_keys=True, indent=1))
    return result


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    # SIGTERM unwinds like an exception, so the daemons and workers a
    # workload started are stopped by its cleanup code.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not procs.program_present():
        print(f"error: no program sources under {procs.SRC}", file=sys.stderr)
        return 2
    procs.WORK.mkdir(exist_ok=True)
    # The program's bytecode, as this process imports it, is cached
    # beside the children's caches, never in the checkout's src/.
    sys.pycache_prefix = str(procs.WORK / "pycache-bench")
    sys.path.insert(0, str(procs.SRC))
    names = list(WORKLOAD_NAMES) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        try:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except Exception:
            traceback.print_exc()
            print(f"error: workload {name} did not complete", file=sys.stderr)
            return 1
        if len(names) > 1:
            print(json.dumps(results[name]), flush=True)
    if len(names) == 1:
        summary = results[names[0]]
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}/{metric}": value for name, r in results.items()
                        for metric, value in r["metrics"].items()},
        }
    print(json.dumps(summary), flush=True)
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
