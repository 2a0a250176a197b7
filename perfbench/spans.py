"""The benchmark's own span recorder and per-layer self times.

Spans are kept in memory: name, start, end, parent span, the trace of
the operation they belong to, and a few counts.  :func:`instrumented`
wraps public calls of each layer for the length of a ``with`` block,
so one library call yields a tree of nested layer spans; nothing in the
program itself is changed or asked to trace.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator


@dataclass
class Span:
    trace_id: int
    span_id: int
    parent_id: int | None
    name: str
    start: float
    end: float = 0.0
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans for a sequence of operations, one trace per op."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.traces: dict[int, str] = {}
        self._ids = itertools.count(1)
        self._stack: list[Span] = []

    @contextlib.contextmanager
    def trace(self, kind: str) -> Iterator[Span]:
        """A root span that starts a new trace (one benchmark op)."""
        if self._stack:
            raise RuntimeError("Recorder.trace: a trace is already open")
        trace_id = next(self._ids)
        self.traces[trace_id] = kind
        with self._open(trace_id, None, f"op.{kind}") as root:
            yield root

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Span]:
        """A child of the innermost open span."""
        parent = self._stack[-1]
        with self._open(parent.trace_id, parent.span_id, name) as span:
            yield span

    @contextlib.contextmanager
    def _open(self, trace_id: int, parent_id: int | None, name: str) -> Iterator[Span]:
        span = Span(trace_id, next(self._ids), parent_id, name, time.perf_counter())
        self._stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            self.spans.append(span)

    def write(self, path) -> None:
        """Write every span as one JSON line (times in ms from the first span)."""
        origin = min((span.start for span in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as out:
            for span in sorted(self.spans, key=lambda s: (s.trace_id, s.start)):
                out.write(json.dumps({
                    "trace_id": span.trace_id,
                    "kind": self.traces.get(span.trace_id),
                    "span_id": span.span_id,
                    "parent_id": span.parent_id,
                    "name": span.name,
                    "start_ms": (span.start - origin) * 1e3,
                    "duration_ms": span.duration * 1e3,
                    "attrs": span.attrs,
                }, sort_keys=True) + "\n")


def self_times(spans: list[Span]) -> dict[int, dict[str, float]]:
    """Per trace, the summed self time (seconds) of each span name.

    A span's self time is its duration minus the part of it that its
    child spans cover.
    """
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent_id is not None:
            children.setdefault(span.parent_id, []).append(span)
    totals: dict[int, dict[str, float]] = {}
    for span in spans:
        covered, reach = 0.0, span.start
        for child in sorted(children.get(span.span_id, ()), key=lambda s: s.start):
            start, end = max(child.start, reach), min(child.end, span.end)
            if end > start:
                covered += end - start
                reach = end
        per_name = totals.setdefault(span.trace_id, {})
        per_name[span.name] = per_name.get(span.name, 0.0) + span.duration - covered
    return totals


def _wrap(recorder: Recorder, name: str, fn: Callable, attrs: Callable | None) -> Callable:
    @functools.wraps(fn)
    def timed(*args, **kwargs):
        with recorder.span(name) as span:
            result = fn(*args, **kwargs)
            if attrs is not None:
                span.attrs.update(attrs(args, kwargs, result))
            return result

    return timed


def _fit_attrs(args, kwargs, som) -> dict[str, int]:
    samples = len(args[1])
    sequential = kwargs.get("mode", "sequential") == "sequential"
    return {
        "train_steps": som.epochs_trained * (samples if sequential else 1),
        "bmu_pairs_per_epoch": samples * som.grid.num_units,
    }


def _layer_calls() -> list[tuple[Any, str, str, Callable | None]]:
    """(owner, attribute, span name, attrs) of every call timed from inside.

    These are the calls the program makes itself, below the public
    entry points the benchmark calls (and spans) directly.
    """
    from repro.analysis import pipeline, stages as analysis_stages
    from repro.characterization import stages as characterization_stages
    from repro.cluster import stages as cluster_stages
    from repro.core import stages as core_stages
    from repro.som import som, stages as som_stages

    return [
        (pipeline.WorkloadAnalysisPipeline, "run", "engine.run", None),
        (characterization_stages.CharacterizeStage, "run",
         "characterization.characterize", None),
        (characterization_stages.PreprocessStage, "run",
         "characterization.preprocess",
         lambda a, k, out: {"dims_kept": out["prepared_vectors"].num_features}),
        (som_stages.SOMReduceStage, "run", "som.reduce", None),
        (som.SelfOrganizingMap, "fit", "som.reduce", _fit_attrs),
        (som, "bmu_indices", "som.bmu_search", None),
        (cluster_stages.ClusterStage, "run", "cluster.cluster", None),
        (core_stages.ScoreCutsStage, "run", "core.score_cuts", None),
        (analysis_stages.RecommendStage, "run", "analysis.recommend", None),
    ]


# Spans of the engine's six stages: an engine run that opens none of
# them replayed every stage from its memo.
STAGE_SPANS = (
    "characterization.characterize",
    "characterization.preprocess",
    "som.reduce",
    "cluster.cluster",
    "core.score_cuts",
    "analysis.recommend",
)


@contextlib.contextmanager
def instrumented(recorder: Recorder) -> Iterator[None]:
    """Record a span around each layer's public calls inside the block.

    The SOM's initializer is resolved by name at fit time, so the PCA
    initializer is timed through the resolver.
    """
    from repro.som import som

    saved = []
    for owner, attr, name, attrs in _layer_calls():
        original = owner.__dict__[attr]
        saved.append((owner, attr, original))
        setattr(owner, attr, _wrap(recorder, name, original, attrs))
    resolve = som.resolve_initializer
    saved.append((som, "resolve_initializer", resolve))
    som.resolve_initializer = lambda init: (
        _wrap(recorder, "pca.init", resolve(init), None)
        if init == "pca" else resolve(init)
    )
    try:
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
