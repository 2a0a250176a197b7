"""The four workloads, measured untraced.

Every workload drives the program from outside, in its own processes,
and checks each operation's output after the timed window closes.
Set-up is timed only as ``setup_s``; everything in the window counts.
Load comes from this one process, with at most two threads (``nproc``
on the reference host) and one connection per thread.
"""

from __future__ import annotations

import itertools
import json
import math
import shutil
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator

from perfbench import checks, gen
from perfbench.procs import (
    WORK, Connection, Daemon, SomWorker, child_env, cpu_seconds,
    peak_rss_mb, run_child,
)
from perfbench.stats import median, sliced_percentile

PINNED_QE = Path(__file__).with_name("pinned_qe.json")

# serve-mixed offered load.  /analyze work holds the daemon's GIL for
# about a third of a second, so its rate sets how busy the daemon is.
# At 1/s the daemon was half busy, and when the 2-CPU reference host ran
# slow for a while the /score queue behind each analysis grew enough to
# double a run's p50 and triple its p90; at 0.5/s it stays well clear.
MIXED_SCORE_RATE = 50.0
MIXED_ANALYZE_RATE = 0.5
WARMUP_SCORES = 20


@dataclass
class Outcome:
    """What one workload run measured, before it is reported."""

    setup_s: list[float] = field(default_factory=list)
    # (completed at, seconds) per op of the main kind and of the
    # heaviest kind; a failed op's latency is math.inf.
    latencies: list[tuple[float, float]] = field(default_factory=list)
    heavy: list[tuple[float, float]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    elapsed_s: float = 0.0
    peak_rss_mb: float = 0.0
    late: list[float] = field(default_factory=list)  # generator lateness (s)
    loadgen_cpu_s: float = 0.0
    program_cpu_s: float | None = None  # daemon CPU in the window

    def record(self, ops: list, done: float, latency: float, reason: str | None) -> None:
        """Count one checked op; a failed one is slower than any percentile."""
        self.attempted += 1
        if reason:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(reason)
            latency = math.inf
        ops.append((done, latency))

    def metrics(self) -> dict[str, float]:
        """The end-to-end metrics (``BENCHMARK.json`` names)."""
        ok = self.attempted - self.failed
        # Single-kind workloads: the heaviest op kind is the only one.
        heavy = self.heavy or self.latencies
        return {
            "setup_s": median(self.setup_s),
            "p50_ms": sliced_percentile(self.latencies, 0.5) * 1e3,
            "p90_ms": sliced_percentile(self.latencies, 0.9) * 1e3,
            "heavy_p50_ms": sliced_percentile(heavy, 0.5) * 1e3,
            "heavy_p90_ms": sliced_percentile(heavy, 0.9) * 1e3,
            "ops_per_s": ok / self.elapsed_s,
            "peak_rss_mb": self.peak_rss_mb,
            "ok_frac": ok / self.attempted,
        }


def _setups(count: int, setup: Callable[[], Any], outcome: Outcome) -> list[Any]:
    """Set the program up ``count`` times, timing each; keep every instance.

    Measuring several instances in turn, and pooling their ops, keeps
    one process's luck (its placement, its hash seed) from deciding a
    whole run's figures.
    """
    kept = []
    for _ in range(count):
        started = time.perf_counter()
        kept.append(setup())
        outcome.setup_s.append(time.perf_counter() - started)
    return kept


def _warm_bytecode() -> None:
    """Compile the program's modules into the shared cache before timing set-up."""
    code, _, _, _ = run_child(
        ["-c", "import repro.cli, repro.service.app, repro.serialization, repro.synthetic"],
        child_env(),
    )
    if code:
        raise RuntimeError(f"importing the program exited {code}")


def _json(body: bytes) -> dict[str, Any]:
    try:
        return json.loads(body)
    except ValueError:
        return {}


# -- cli-cold -----------------------------------------------------------------


def cli_cold(seed: int, seconds: float, setups: int) -> Outcome:
    """Closed loop of ``python -m repro.cli pipeline`` children, one at a time."""
    out = Outcome()
    configs = gen.cli_configs(seed, 6)
    cold = WORK / "pycache-cold"

    def first_run() -> None:
        shutil.rmtree(cold, ignore_errors=True)
        code, _, _, _ = run_child(["-m", "repro.cli", *configs[0].argv()], child_env(cold))
        if code != 0:
            raise RuntimeError(f"set-up pipeline run exited {code}")

    _setups(setups, first_run, out)
    shutil.rmtree(cold, ignore_errors=True)
    # Warm the shared cache with every characterization's imports.
    env = child_env()
    for config in configs[:3]:
        run_child(["-m", "repro.cli", *config.argv()], env)

    records = []
    cpu0, started = time.process_time(), time.perf_counter()
    finished = started
    for config in itertools.cycle(configs):
        if finished - started >= seconds:
            break
        sent = time.perf_counter()
        out.late.append(sent - finished)
        code, stdout, wall, rss = run_child(["-m", "repro.cli", *config.argv()], env)
        finished = time.perf_counter()
        records.append((config, code, stdout, wall, finished))
        out.peak_rss_mb = max(out.peak_rss_mb, rss)
    out.elapsed_s = finished - started
    out.loadgen_cpu_s = time.process_time() - cpu0

    expected = {config: checks.cli_expected(config) for config in {r[0] for r in records}}
    for config, code, stdout, wall, done in records:
        reason = f"exit code {code}" if code else checks.check_cli(stdout, expected[config])
        out.record(out.latencies, done, wall, reason and f"{config}: {reason}")
    return out


# -- serve-score and serve-mixed ---------------------------------------------------


def _start_daemon(tag: str, warmup: Callable[[Connection], None]) -> Daemon:
    WORK.mkdir(exist_ok=True)
    ledger = WORK / f"ledger-{tag}.jsonl"
    ledger.unlink(missing_ok=True)
    daemon = Daemon(ledger, WORK / f"daemon-{tag}.log")
    try:
        daemon.start()
        conn = Connection(daemon.port)
        try:
            warmup(conn)
        finally:
            conn.close()
    except BaseException:
        daemon.stop()
        raise
    return daemon


def _warm_scores(bodies: Iterator[dict[str, Any]]) -> Callable[[Connection], None]:
    def warm(conn: Connection) -> None:
        for body in itertools.islice(bodies, WARMUP_SCORES):
            status, _ = conn.request("POST", "/score", gen.encode(body))
            if status != 200:
                raise RuntimeError(f"warm-up /score answered {status}")
    return warm


def _check_scores(records, out: Outcome) -> None:
    for body, status, payload, latency, done in records:
        reason = f"status {status}" if status != 200 else checks.check_score(body, _json(payload))
        out.record(out.latencies, done, latency, reason and f"/score: {reason}")


def _slices(seconds: float, instances: list) -> Iterator[tuple[Any, float]]:
    """Round-robin (instance, duration) slices covering ``seconds``."""
    rounds = 2
    for _ in range(rounds):
        for instance in instances:
            yield instance, seconds / (rounds * len(instances))


def _serve_stats(daemons: list[Daemon], cpu0: list[float], out: Outcome) -> None:
    out.program_cpu_s = sum(cpu_seconds(d.proc.pid) - c for d, c in zip(daemons, cpu0))
    out.peak_rss_mb = median([peak_rss_mb(d.proc.pid) for d in daemons])


def _stop_all(instances: list) -> None:
    for instance in instances:
        instance.stop()


def serve_score(seed: int, seconds: float, setups: int) -> Outcome:
    """One client on one keep-alive connection, distinct /score requests back to back."""
    out = Outcome()
    bodies = gen.score_bodies(seed)
    daemons: list[Daemon] = []
    records = []
    _warm_bytecode()
    try:
        tags = itertools.count()
        daemons += _setups(setups, lambda: _start_daemon(f"score{next(tags)}",
                                                          _warm_scores(bodies)), out)
        daemon_cpu0 = [cpu_seconds(d.proc.pid) for d in daemons]
        cpu0 = time.process_time()
        for daemon, length in _slices(seconds, daemons):
            conn = Connection(daemon.port)
            started = finished = time.perf_counter()
            while finished - started < length:
                body = next(bodies)
                data = gen.encode(body)
                sent = time.perf_counter()
                out.late.append(sent - finished)
                try:
                    status, payload = conn.request("POST", "/score", data)
                except OSError as error:
                    status, payload = f"{error!r}", b""
                    conn.close()
                    conn = Connection(daemon.port)
                finished = time.perf_counter()
                records.append((body, status, payload, finished - sent, finished))
            conn.close()
            out.elapsed_s += finished - started
        out.loadgen_cpu_s = time.process_time() - cpu0
        _serve_stats(daemons, daemon_cpu0, out)
    finally:
        _stop_all(daemons)
    _check_scores(records, out)
    return out


def _open_loop(port: int, path: str, bodies: Iterator[dict[str, Any]], rate: float,
               count: int, start: float, records: list, late: list) -> None:
    """Send ``count`` requests on a fixed schedule; time each from when it was due."""
    conn = Connection(port)
    try:
        for index in range(count):
            body = next(bodies)
            data = gen.encode(body)
            due = start + index / rate
            pause = due - time.perf_counter()
            if pause > 0:
                time.sleep(pause)
            late.append(time.perf_counter() - due)
            try:
                status, payload = conn.request("POST", path, data)
            except OSError as error:
                status, payload = f"{error!r}", b""
                conn.close()
                conn = Connection(port)
            done = time.perf_counter()
            records.append((body, status, payload, done - due, done))
    finally:
        conn.close()


def serve_mixed(seed: int, seconds: float, setups: int) -> Outcome:
    """Open-loop /score at 50/s beside /analyze at 1/s, one connection each."""
    out = Outcome()
    scores = gen.score_bodies(seed)
    analyses = gen.analyze_bodies(seed)
    warm_scores = _warm_scores(scores)

    def warm(conn: Connection) -> None:
        warm_scores(conn)
        # One analysis per characterization, so no measured request pays
        # for first-use imports.  A measured request reuses one of these
        # seeds (and replays it) with odds of about one in two million.
        for characterization, machine in gen.CHARACTERIZATIONS:
            body = {"characterization": characterization, "seed": seed % 1000 + 1}
            if machine is not None:
                body["machine"] = machine
            status, _ = conn.request("POST", "/analyze", gen.encode(body))
            if status != 200:
                raise RuntimeError(f"warm-up /analyze answered {status}")

    daemons: list[Daemon] = []
    score_records: list = []
    analyze_records: list = []
    _warm_bytecode()
    try:
        tags = itertools.count()
        daemons += _setups(setups, lambda: _start_daemon(f"mixed{next(tags)}", warm), out)
        daemon_cpu0 = [cpu_seconds(d.proc.pid) for d in daemons]
        cpu0 = time.process_time()
        window = seconds / len(daemons)
        for daemon in daemons:
            start = time.perf_counter() + 0.05
            thread = threading.Thread(
                target=_open_loop,
                args=(daemon.port, "/analyze", analyses, MIXED_ANALYZE_RATE,
                      round(window * MIXED_ANALYZE_RATE), start, analyze_records, []),
            )
            thread.start()
            try:
                _open_loop(daemon.port, "/score", scores, MIXED_SCORE_RATE,
                           round(window * MIXED_SCORE_RATE), start, score_records, out.late)
            finally:
                thread.join()
            out.elapsed_s += time.perf_counter() - start
        out.loadgen_cpu_s = time.process_time() - cpu0
        _serve_stats(daemons, daemon_cpu0, out)
    finally:
        _stop_all(daemons)

    _check_scores(score_records, out)
    expected: dict[str, dict[str, Any]] = {}
    for body, status, payload, latency, done in analyze_records:
        key = gen.encode(body).decode()
        if status == 200 and key not in expected:
            expected[key] = checks.analyze_expected(body)
        reason = (f"status {status}" if status != 200
                  else checks.check_analyze(_json(payload), expected[key]))
        out.record(out.heavy, done, latency, reason and f"/analyze: {reason}")
    return out


# -- som-large -----------------------------------------------------------------


def pinned_qe() -> dict[int, float]:
    """Exact-search quantization errors pinned per data seed."""
    pins = json.loads(PINNED_QE.read_text(encoding="utf-8"))["qe"]
    return {int(seed): value for seed, value in pins.items()}


def som_large(seed: int, seconds: float, setups: int) -> Outcome:
    """Worker processes fitting 1000x64 maps back to back (batch, default search).

    One worker fits at a time; fits go to the workers in turn.
    """
    out = Outcome()
    pins = pinned_qe()
    seeds = gen.som_data_seeds(seed, sorted(pins))

    def start() -> SomWorker:
        worker = SomWorker()
        try:
            worker.call({"op": "fit", "data_seed": next(seeds)})
        except BaseException:
            worker.stop()
            raise
        return worker

    workers: list[SomWorker] = []
    records = []
    _warm_bytecode()
    try:
        workers += _setups(setups, start, out)
        cpu0 = time.process_time()
        started = finished = time.perf_counter()
        for worker in itertools.cycle(workers):
            if finished - started >= seconds:
                break
            data_seed = next(seeds)
            out.late.append(time.perf_counter() - finished)
            answer = worker.call({"op": "fit", "data_seed": data_seed})
            finished = time.perf_counter()
            records.append((data_seed, answer, finished))
        out.elapsed_s = finished - started
        out.loadgen_cpu_s = time.process_time() - cpu0
        out.peak_rss_mb = median([peak_rss_mb(w.proc.pid) for w in workers])
    finally:
        _stop_all(workers)
    for data_seed, answer, done in records:
        reason = checks.check_qe(answer["qe"], pins[data_seed])
        out.record(out.latencies, done, answer["fit_ms"] / 1e3,
                   reason and f"data seed {data_seed}: {reason}")
    return out


WORKLOADS: dict[str, Callable[[int, float, int], Outcome]] = {
    "cli-cold": cli_cold,
    "serve-score": serve_score,
    "serve-mixed": serve_mixed,
    "som-large": som_large,
}

# Each workload's own names for its end-to-end metrics, as printed.
NAMED = {
    "cli-cold": {"p50_ms": "cli_p50_ms", "p90_ms": "cli_p90_ms"},
    "serve-score": {"p50_ms": "score_p50_ms", "p90_ms": "score_p90_ms",
                    "ops_per_s": "score_rps"},
    "serve-mixed": {"p50_ms": "score_p50_ms", "p90_ms": "score_p90_ms",
                    "heavy_p50_ms": "analyze_p50_ms", "heavy_p90_ms": "analyze_p90_ms"},
    "som-large": {"p50_ms": "fit_p50_ms", "p90_ms": "fit_p90_ms"},
}
