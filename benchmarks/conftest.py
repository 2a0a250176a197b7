"""Shared fixtures and report helpers for the benchmark harness.

Every bench regenerates one table or figure of the paper and prints it
in the paper's layout (run ``pytest benchmarks/ --benchmark-only -s``
to see the output).  Timing goes through pytest-benchmark; expensive
stages (SOM training) use ``benchmark.pedantic`` with a single round so
the suite stays fast.

Benches that measure performance also archive machine-readable results
with :func:`write_bench_json`: one ``results/BENCH_<name>.json`` per
bench, built from the tracer/metrics observability API, forming the
perf trajectory tracked across PRs.  Each payload carries the same
``env`` block perfbench stamps into its reports
(:func:`perfbench.envinfo.env_block`: Python, numpy, BLAS library and
thread count, available CPUs, git sha), so a number is never read
without the host it was taken on.  When the ``REPRO_LEDGER``
environment variable names a run-ledger file, each archived bench also
appends a ``bench:<name>`` record there, so CLI runs and bench runs
share one longitudinal timeline (`repro-hmeans obs runs`) and the
fleet-analytics commands (`obs trend/top/gate`) can group bench runs
by their configuration fingerprint.

A bench that **raises** still leaves a truthful ledger trail: the
:func:`pytest_runtest_makereport` hook appends a ``bench:<name>``
record with ``exit_code: 1`` (and the error text) when a ``bench_*``
test fails, so a crash mid-bench can no longer leave the timeline
empty — or worse, ending on a success-shaped record written before
the crash.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path
from typing import Any, Mapping

import pytest

from perfbench.envinfo import env_block
from repro.obs.ledger import RunLedger, RunRecorder, ledger_path_from_env
from repro.workloads.suite import BenchmarkSuite

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULTS_DIR = REPO_ROOT / "results"

SCIMARK = (
    "SciMark2.FFT",
    "SciMark2.LU",
    "SciMark2.MonteCarlo",
    "SciMark2.SOR",
    "SciMark2.Sparse",
)


@pytest.fixture(scope="session")
def paper_suite() -> BenchmarkSuite:
    """The Table I suite shared by every bench."""
    return BenchmarkSuite.paper_suite()


def emit(title: str, body: str) -> None:
    """Print one bench's regenerated artifact with a banner."""
    bar = "=" * 72
    print(f"\n{bar}\n{title}\n{bar}\n{body}\n")


def write_bench_json(
    name: str,
    payload: Mapping[str, Any],
    *,
    config: Mapping[str, Any] | None = None,
) -> Path:
    """Archive one bench's structured results as ``BENCH_<name>.json``.

    ``payload`` must be JSON-serializable; tracer span dicts
    (``Span.to_dict``) and ``MetricsRegistry.as_dict`` snapshots
    qualify directly.  ``config`` names the knobs that make two runs
    of this bench comparable (sizes, smoke flags, worker counts): it
    is folded into the ledger record's fingerprinted ``args``, so
    ``obs trend``/``obs gate`` only ever compare bench runs taken at
    the same configuration.  The payload is stamped with an ``env``
    block.  Returns the written path.
    """
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / f"BENCH_{name}.json"
    env = env_block(
        REPO_ROOT,
        {
            "dont_write_bytecode": sys.dont_write_bytecode,
            "pycache_prefix": sys.pycache_prefix,
        },
    )
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(
            {"bench": name, "schema": 1, **payload, "env": env},
            handle,
            indent=2,
        )
        handle.write("\n")
    _ledger_bench_record(name, payload, config=config)
    return path


def _ledger_bench_record(
    name: str,
    payload: Mapping[str, Any],
    *,
    config: Mapping[str, Any] | None = None,
) -> None:
    """Mirror one archived bench into the run ledger (REPRO_LEDGER)."""
    ledger_path = ledger_path_from_env()
    if not ledger_path:
        return
    args: dict[str, Any] = {"bench": name}
    if config:
        args.update(config)
    recorder = RunRecorder(f"bench:{name}", args)
    record = recorder.finish(exit_code=0)
    service_run_ids = payload.get("service_run_ids")
    if isinstance(service_run_ids, list) and service_run_ids:
        # A bench that drove a live scoring daemon: every request it
        # made already wrote its own ``service:<endpoint>`` record (with
        # stage walls) to this same ledger.  Mirroring the payload's
        # stages/metrics here would double-count those walls under a
        # second record, so the bench record only *links* to the
        # service-side run ids.
        record["service_run_ids"] = [str(r) for r in service_run_ids]
    else:
        # Benches report through heterogeneous payloads; surface any
        # engine-style stage timings they carry so `obs diff` can compare
        # bench runs, and keep the rest discoverable via the JSON file.
        stages = payload.get("stages")
        if isinstance(stages, list):
            record["stages"] = [s for s in stages if isinstance(s, Mapping)]
        metrics = payload.get("metrics")
        if isinstance(metrics, Mapping):
            record["metrics"] = dict(metrics)
    record["bench_json"] = os.fspath(RESULTS_DIR / f"BENCH_{name}.json")
    RunLedger(ledger_path).append(record)


def _bench_name_for_item(item: pytest.Item) -> str | None:
    """The ledger bench name for a test item, or None for non-benches."""
    module = getattr(item, "module", None)
    module_name = getattr(module, "__name__", "") or ""
    short = module_name.rsplit(".", 1)[-1]
    if not short.startswith("bench_"):
        return None
    return short[len("bench_"):]


def record_failed_bench(
    name: str, *, failed_test: str, error: str, wall_seconds: float = 0.0
) -> None:
    """Append a failure-shaped ``bench:<name>`` record (REPRO_LEDGER).

    Written with ``exit_code: 1`` so fleet analytics excludes the run
    from trends by default and ``obs runs`` shows the failure.
    """
    ledger_path = ledger_path_from_env()
    if not ledger_path:
        return
    recorder = RunRecorder(
        f"bench:{name}", {"bench": name, "failed_test": failed_test}
    )
    record = recorder.finish(exit_code=1)
    record["wall_seconds"] = float(wall_seconds)
    record["error"] = error
    RunLedger(ledger_path).append(record)


def pytest_runtest_makereport(item: pytest.Item, call: pytest.CallInfo):
    """On a failing ``bench_*`` test, append a truthful failure record.

    Without this, a benchmark raising mid-run either leaves no ledger
    record at all or — when it crashed after its ``write_bench_json``
    call — leaves only the success-shaped one, and the fleet timeline
    reads as healthy while CI is red.
    """
    if call.when != "call" or call.excinfo is None:
        return
    name = _bench_name_for_item(item)
    if name is None:
        return
    record_failed_bench(
        name,
        failed_test=item.name,
        error=call.excinfo.exconly(),
        wall_seconds=max(0.0, (call.stop or 0.0) - (call.start or 0.0)),
    )
