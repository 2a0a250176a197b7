"""The traced run: a per-layer table for one workload.

A traced run first runs the workload untraced (one set-up), which gives
the untraced latencies, the daemon's CPU and the load generator's own
figures.  It then replays the workload's operations in this process
through each layer's public calls, with :mod:`perfbench.spans`
recording a tree of spans per operation.  Every operation is also run
once more without spans, on its own state, so that the cost of tracing
is measured (``trace.overhead_frac``).

Every traced run reports every layer.  Layers the workload does not
reach are measured by a few probe operations of the other workloads'
kinds, and the table says which ops each value came from.
"""

from __future__ import annotations

import asyncio
import contextlib
import itertools
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator

from perfbench import checks, gen, spans
from perfbench.procs import WORK, child_env, run_child
from perfbench.stats import median, percentile
from perfbench.workloads import (
    MIXED_ANALYZE_RATE, MIXED_SCORE_RATE, WORKLOADS, Outcome, pinned_qe, serve_score,
)

# name -> unit, in table order.
PER_LAYER = {
    "cli.interp_ms": "ms",
    "cli.import_numpy_ms": "ms",
    "cli.import_repro_ms": "ms",
    "characterization.characterize_ms": "ms",
    "characterization.preprocess_ms": "ms",
    "characterization.dims_kept": "count",
    "som.reduce_ms": "ms",
    "som.train_steps": "count",
    "pca.init_ms": "ms",
    "som.bmu_search_ms": "ms",
    "som.bmu_pairs_per_epoch": "count",
    "cluster.cluster_ms": "ms",
    "analysis.recommend_ms": "ms",
    "viz.render_ms": "ms",
    "core.score_cuts_ms": "ms",
    "core.score_ms": "ms",
    "engine.overhead_ms": "ms",
    "engine.replay_ms": "ms",
    "engine.memo_hit_frac": "frac",
    "service.http_parse_ms": "ms",
    "service.validate_ms": "ms",
    "service.request_key_ms": "ms",
    "service.encode_ms": "ms",
    "service.analyze_compute_ms": "ms",
    "service.transport_ms": "ms",
    "service.cpu_ms_per_req": "ms",
    "obs.ledger_append_ms": "ms",
    "trace.overhead_frac": "frac",
    "loadgen.late_p90_ms": "ms",
    "loadgen.cpu_ms_per_req": "ms",
}

# Spans whose per-op self time is reported as ``<span>_ms``.
SELF_TIMED = (
    *spans.STAGE_SPANS,
    "pca.init",
    "som.bmu_search",
    "viz.render",
    "core.score",
    "service.http_parse",
    "service.validate",
    "service.request_key",
    "service.encode",
    "service.analyze_compute",
    "obs.ledger_append",
)
# The in-process part of a /score request; the rest of the untraced
# latency is transport (asyncio, thread hop, sockets, coalescing).
SCORE_CHAIN = (
    "service.http_parse", "service.validate", "service.request_key",
    "core.score", "service.encode", "obs.ledger_append",
)

# Op kinds each workload issues, as a repeating pattern.
PATTERN = {
    "cli-cold": ("cli",),
    "serve-score": ("score",),
    "serve-mixed": ("analyze",) + ("score",) * round(MIXED_SCORE_RATE / MIXED_ANALYZE_RATE),
    "som-large": ("fit",),
}
# Most ops of one kind a traced run replays, and probes of other kinds.
CAP = {"cli": 12, "score": 2000, "analyze": 24, "fit": 16}
PROBES = {"cli": 2, "score": 50, "analyze": 4, "fit": 1}
SERVICE_PROBE_SECONDS = 3.0


@dataclass
class Traced:
    attempted: int
    failed: int
    failures: list[str]
    table: dict[str, tuple[float, str, str]]  # metric -> (value, unit, note)
    spans_path: Path


@dataclass
class _Sample:
    kind: str
    probe: bool
    values: dict[str, float] = field(default_factory=dict)
    memo: tuple[int, int] = (0, 0)  # (stages replayed, stages expected)


def _null_span(name: str) -> contextlib.AbstractContextManager:
    return contextlib.nullcontext()


class LayerPass:
    """Runs ops of every kind in-process, traced and untraced."""

    def __init__(self, seed: int, recorder: spans.Recorder) -> None:
        from repro.service.runtime import ServiceRuntime

        self.recorder = recorder
        ledger = WORK / "ledger-layers.jsonl"
        ledger.unlink(missing_ok=True)
        # Traced and untraced ops each get their own runtime, so both
        # see the same sequence of memo misses and hits.
        self.runtimes = {True: ServiceRuntime(ledger_path=ledger),
                         False: ServiceRuntime(ledger_path=ledger)}
        self.inputs: dict[str, Iterator[Any]] = {
            "cli": itertools.cycle(gen.cli_configs(seed, 6)),
            "score": gen.score_bodies(seed),
            "analyze": gen.analyze_bodies(seed),
            "fit": gen.som_data_seeds(seed, sorted(pinned_qe())),
        }
        self.pairs: dict[str, list[tuple[float, float]]] = {}
        self.kinds: dict[int, tuple[str, bool]] = {}  # trace id -> (kind, probe)
        self.env = child_env()

    async def op(self, kind: str, probe: bool, order: int) -> None:
        """One op, run traced and untraced (in alternating order)."""
        item = next(self.inputs[kind])
        timings = {}
        for traced in ((True, False) if order % 2 else (False, True)):
            timings[traced] = await self._run(kind, item, traced, probe)
        self.pairs.setdefault(kind, []).append((timings[True], timings[False]))

    async def _run(self, kind: str, item: Any, traced: bool, probe: bool) -> float:
        prepared = _prepare(kind, item)
        if not traced:
            started = time.perf_counter()
            await _BODIES[kind](self, prepared, _null_span, False)
            return time.perf_counter() - started
        with spans.instrumented(self.recorder), self.recorder.trace(kind) as root:
            self.kinds[root.trace_id] = (kind, probe)
            if kind == "cli":
                self._cli_children()
            started = time.perf_counter()
            await _BODIES[kind](self, prepared, self.recorder.span, True)
            return time.perf_counter() - started

    def _cli_children(self) -> None:
        for name, code in (("cli.interp", "pass"), ("cli.import_numpy", "import numpy"),
                           ("cli.import_repro", "import repro, repro.cli")):
            with self.recorder.span(name):
                exit_code, _, _, _ = run_child(["-c", code], self.env)
            if exit_code:
                raise RuntimeError(f"python -c {code!r} exited {exit_code}")

    # -- op bodies: the same calls traced or not ---------------------------------

    async def cli(self, config: gen.CliConfig, span: Callable, traced: bool) -> None:
        from repro.viz.tables import format_hgm_table
        from repro.workloads.suite import BenchmarkSuite

        result = checks.library_pipeline(
            config.characterization, config.machine, config.seed
        ).run(BenchmarkSuite.paper_suite())
        measured, plain = checks.hgm_rows(result)
        with span("viz.render"):
            format_hgm_table(measured, plain=plain)

    async def service(self, prepared: tuple[str, Any], span: Callable, traced: bool) -> None:
        from repro.service.http import json_body, json_response, read_request, response_bytes
        from repro.service.schemas import validate_analyze_request, validate_score_request

        endpoint, reader = prepared
        runtime = self.runtimes[traced]
        started = time.perf_counter()
        with span("service.http_parse"):
            request = await read_request(reader)
        with span("service.validate"):
            validate = validate_score_request if endpoint == "score" else validate_analyze_request
            validated = validate(json_body(request))
        with span("service.request_key"):
            canonical = validated.canonical()
            runtime.request_key(endpoint, canonical)
        if endpoint == "score":
            with span("core.score"):
                payload = runtime.score(validated)
            stages = None
        else:
            with span("service.analyze_compute"):
                payload = runtime.analyze(validated)
            stages = payload["report"]["stages"]
        with span("service.encode"):
            status, body = json_response(200, payload)
            response_bytes(status, body)
        with span("obs.ledger_append"):
            runtime.record_request(endpoint, canonical, stages=stages,
                                   wall_seconds=time.perf_counter() - started)

    async def fit(self, prepared: tuple[int, Any], span: Callable, traced: bool) -> None:
        from repro.som.grid import Grid
        from repro.som.som import SelfOrganizingMap, SOMConfig

        data_seed, data = prepared
        rows, columns = Grid.suggested_shape(data.shape[0])
        SelfOrganizingMap(SOMConfig(rows=rows, columns=columns, seed=data_seed)).fit(
            data, mode="batch"
        )


_BODIES = {
    "cli": LayerPass.cli,
    "score": LayerPass.service,
    "analyze": LayerPass.service,
    "fit": LayerPass.fit,
}


def _prepare(kind: str, item: Any) -> Any:
    """Untimed per-op input: fit data, or the raw HTTP request on a stream."""
    if kind == "fit":
        return item, gen.som_data(item)
    if kind == "cli":
        return item
    body = gen.encode(item)
    reader = asyncio.StreamReader()
    reader.feed_data(
        f"POST /{kind} HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n\r\n".encode("latin-1") + body
    )
    reader.feed_eof()
    return kind, reader


async def _layer_pass(name: str, seed: int, seconds: float, recorder: spans.Recorder) -> LayerPass:
    layers = LayerPass(seed, recorder)
    counts: dict[str, int] = {}
    deadline = time.perf_counter() + seconds
    for kind in itertools.cycle(PATTERN[name]):
        if time.perf_counter() >= deadline or all(
            counts.get(k, 0) >= CAP[k] for k in set(PATTERN[name])
        ):
            break
        if counts.get(kind, 0) < CAP[kind]:
            await layers.op(kind, False, counts.get(kind, 0))
            counts[kind] = counts.get(kind, 0) + 1
    for kind, count in PROBES.items():
        if kind not in PATTERN[name]:
            for order in range(count):
                await layers.op(kind, True, order)
    return layers


def _samples(layers: LayerPass, recorder: spans.Recorder) -> list[_Sample]:
    """Per-op metric values, derived from each trace's spans."""
    selfs = spans.self_times(recorder.spans)
    by_trace: dict[int, list[spans.Span]] = {}
    for span in recorder.spans:
        by_trace.setdefault(span.trace_id, []).append(span)
    samples = []
    for trace_id, (kind, probe) in layers.kinds.items():
        sample = _Sample(kind, probe)
        values, own = sample.values, selfs[trace_id]
        for name in SELF_TIMED:
            if name in own:
                values[f"{name}_ms"] = own[name] * 1e3
        durations = {span.name: span.duration * 1e3 for span in by_trace[trace_id]}
        if kind == "cli":
            values["cli.interp_ms"] = durations["cli.interp"]
            values["cli.import_numpy_ms"] = durations["cli.import_numpy"] - durations["cli.interp"]
            values["cli.import_repro_ms"] = (durations["cli.import_repro"]
                                             - durations["cli.import_numpy"])
        if kind == "score":
            values["score_chain_ms"] = sum(own[name] for name in SCORE_CHAIN) * 1e3
        parents = {span.span_id: span for span in by_trace[trace_id]}
        stages_run = sum(1 for span in by_trace[trace_id] if span.name in spans.STAGE_SPANS
                         and span.parent_id in parents
                         and parents[span.parent_id].name == "engine.run")
        for span in by_trace[trace_id]:
            if span.name == "engine.run":
                if stages_run:
                    values["engine.overhead_ms"] = own["engine.run"] * 1e3
                else:
                    values["engine.replay_ms"] = span.duration * 1e3
                if kind == "analyze":
                    total = len(spans.STAGE_SPANS)
                    sample.memo = (total - stages_run, total)
            for attr in ("dims_kept", "train_steps", "bmu_pairs_per_epoch"):
                if attr in span.attrs:
                    metric = ("characterization." if attr == "dims_kept" else "som.") + attr
                    values[metric] = values.get(metric, 0) + span.attrs[attr]
        samples.append(sample)
    return samples


def _pick(samples: list[_Sample], metric: str) -> tuple[list[float], list[_Sample]]:
    """Values of ``metric`` from the workload's own ops, else from probes."""
    for probe in (False, True):
        chosen = [s for s in samples if s.probe == probe and metric in s.values]
        if chosen:
            return [s.values[metric] for s in chosen], chosen
    return [], []


def _note(chosen: list[_Sample]) -> str:
    kinds = sorted({s.kind for s in chosen})
    source = "probe" if chosen and chosen[0].probe else "workload"
    return f"n={len(chosen)} {'+'.join(kinds)} ops ({source})"


def traced_run(name: str, seed: int, seconds: float) -> Traced:
    """Untraced pass, then the traced layer pass; returns the table."""
    outcome: Outcome = WORKLOADS[name](seed, seconds, 1)
    attempted, failed, failures = outcome.attempted, outcome.failed, list(outcome.failures)
    service = outcome
    if name not in ("serve-score", "serve-mixed"):
        service = serve_score(seed, SERVICE_PROBE_SECONDS, 1)
        attempted += service.attempted
        failed += service.failed
        failures += service.failures

    for code in ("pass", "import numpy", "import repro, repro.cli"):
        run_child(["-c", code], child_env())  # warm the children's bytecode
    recorder = spans.Recorder()
    layers = asyncio.run(_layer_pass(name, seed, seconds, recorder))
    samples = _samples(layers, recorder)

    table: dict[str, tuple[float, str, str]] = {}
    for metric, unit in PER_LAYER.items():
        if metric == "engine.memo_hit_frac":
            chosen = [s for s in samples if s.kind == "analyze"]
            own = [s for s in chosen if not s.probe]
            chosen = own or chosen
            hits, total = (sum(s.memo[i] for s in chosen) for i in (0, 1))
            table[metric] = (hits / total, unit, _note(chosen))
            continue
        values, chosen = _pick(samples, metric)
        if values:
            table[metric] = (median(values), unit, _note(chosen))

    chain, chosen = _pick(samples, "score_chain_ms")
    score_p50_ms = service.metrics()["p50_ms"]
    table["service.transport_ms"] = (
        score_p50_ms - median(chain), "ms",
        f"untraced /score p50 {score_p50_ms:.3f} ms minus in-process chain, {_note(chosen)}",
    )
    table["service.cpu_ms_per_req"] = (
        service.program_cpu_s / service.attempted * 1e3, "ms",
        f"daemon CPU over {service.attempted} untraced requests",
    )
    own_kinds = sorted(set(PATTERN[name]))
    traced_s = [t for kind in own_kinds for t, _ in layers.pairs[kind]]
    untraced_s = [u for kind in own_kinds for _, u in layers.pairs[kind]]
    table["trace.overhead_frac"] = (
        median(traced_s) / median(untraced_s) - 1.0, "frac",
        f"{name}: traced vs untraced median over {len(traced_s)} op pairs",
    )
    table["loadgen.late_p90_ms"] = (
        percentile(outcome.late, 0.9) * 1e3, "ms", f"over {len(outcome.late)} sends",
    )
    table["loadgen.cpu_ms_per_req"] = (
        outcome.loadgen_cpu_s / outcome.attempted * 1e3, "ms",
        f"benchmark CPU over {outcome.attempted} untraced ops",
    )
    missing = [metric for metric in PER_LAYER if metric not in table]
    if missing:
        raise RuntimeError(f"traced run measured no samples for {missing}")

    spans_path = WORK / f"spans-{name}-seed{seed}.jsonl"
    recorder.write(spans_path)
    return Traced(attempted, failed, failures,
                  {metric: table[metric] for metric in PER_LAYER}, spans_path)
