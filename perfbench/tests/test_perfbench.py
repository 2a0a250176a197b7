"""Tests of the benchmark itself: generators, checks, percentiles, spans."""

from __future__ import annotations

import itertools
import json
import math
import subprocess
import sys

import pytest

from perfbench import checks, gen, spans
from perfbench.procs import ROOT, child_env
from perfbench.stats import percentile, sliced_percentile
from perfbench.workloads import pinned_qe


def _take(iterator, count):
    return list(itertools.islice(iterator, count))


# -- generators ----------------------------------------------------------------------


@pytest.mark.parametrize("make", [
    lambda seed: _take(gen.score_bodies(seed), 40),
    lambda seed: _take(gen.analyze_bodies(seed), 12),
    lambda seed: gen.cli_configs(seed, 9),
    lambda seed: _take(gen.som_data_seeds(seed, sorted(pinned_qe())), 40),
])
def test_generators_are_deterministic_per_seed(make):
    assert make(7) == make(7)
    assert make(7) != make(8)


def test_score_bodies_follow_the_request_mix():
    bodies = _take(gen.score_bodies(3), 400)
    assert len({gen.encode(body) for body in bodies}) == len(bodies)
    assert all(2 <= len(body["measurements"]) <= 4 for body in bodies)
    assert {len(body["partition"]) for body in bodies} == set(range(2, 9))
    geometric = sum(body["mean"] == "geometric" for body in bodies) / len(bodies)
    assert 0.65 < geometric < 0.85
    from repro.data.table3 import SPEEDUP_TABLE

    for column in bodies[0]["measurements"].values():
        ratios = [column[name] / SPEEDUP_TABLE[base][name]
                  for name in column for base in "AB"]
        assert any(0.9 <= r <= 1.1 for r in ratios)


def test_every_fourth_analyze_body_repeats_an_earlier_one():
    bodies = _take(gen.analyze_bodies(5), 16)
    for index, body in enumerate(bodies):
        earlier = bodies[max(0, index - 3):index]
        assert (body in earlier) == (index % 4 == 3)


def test_cli_configs_cycle_through_every_characterization():
    configs = gen.cli_configs(2, 9)
    assert [(c.characterization, c.machine) for c in configs[:3]] == list(
        gen.CHARACTERIZATIONS
    )


# -- correctness checks ---------------------------------------------------------------


def _score(body):
    from repro.service.runtime import ServiceRuntime
    from repro.service.schemas import validate_score_request

    payload = ServiceRuntime().score(validate_score_request(body))
    return json.loads(json.dumps(payload))


def test_check_score_accepts_the_service_and_rejects_a_flipped_score():
    body = next(gen.score_bodies(11))
    response = _score(body)
    assert checks.check_score(body, response) is None

    machine = next(iter(response["breakdowns"]))
    flipped = json.loads(json.dumps(response))
    flipped["breakdowns"][machine]["score"] *= 1 + 1e-9
    assert "score" in checks.check_score(body, flipped)

    reordered = json.loads(json.dumps(response))
    reordered["ranking"].reverse()
    assert "ranking" in checks.check_score(body, reordered)


def test_check_cli_accepts_the_real_cli_and_rejects_a_wrong_table():
    config = gen.cli_configs(4, 3)[2]
    done = subprocess.run(
        [sys.executable, "-m", "repro.cli", *config.argv()], cwd=ROOT,
        env=child_env(ROOT / ".perfbench" / "pycache-tests"),
        capture_output=True, text=True, check=True,
    )
    expected = checks.cli_expected(config)
    assert checks.check_cli(done.stdout, expected) is None

    table, clusters = expected
    wrong_table = done.stdout.replace(table.splitlines()[3], table.splitlines()[4], 1)
    assert checks.check_cli(wrong_table, expected) is not None
    wrong_k = done.stdout.replace(
        f"recommended cluster count: {clusters}",
        f"recommended cluster count: {clusters % 8 + 1}",
    )
    assert checks.check_cli(wrong_k, expected) is not None


def test_check_analyze_rejects_a_changed_result():
    body = {"characterization": "methods", "seed": 3}
    expected = checks.analyze_expected(body)
    assert checks.check_analyze({"result": expected}, expected) is None
    changed = json.loads(json.dumps(expected))
    changed["recommended_clusters"] += 1
    assert checks.check_analyze({"result": changed}, expected) is not None


def test_check_qe_rejects_an_error_two_percent_off():
    pinned = pinned_qe()[1001]
    assert checks.check_qe(pinned * 1.005, pinned) is None
    assert checks.check_qe(pinned * 1.02, pinned) is not None
    assert checks.check_qe(pinned * 0.98, pinned) is not None
    assert checks.check_qe(math.nan, pinned) is not None


# -- percentiles ----------------------------------------------------------------------


def test_percentile_interpolates_like_statistics_inclusive():
    import statistics

    values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0]
    assert percentile(values, 0.5) == statistics.median(values)
    quartiles = statistics.quantiles(values, n=4, method="inclusive")
    assert [percentile(values, q) for q in (0.25, 0.5, 0.75)] == pytest.approx(quartiles)


def test_failed_ops_count_as_slower_than_any_percentile():
    latencies = [0.001 * i for i in range(1, 101)]
    failed = [math.inf] * 20
    assert percentile(latencies, 0.9) < max(latencies)
    assert percentile(latencies + failed, 0.9) == math.inf
    assert percentile(latencies + failed[:1], 0.5) > percentile(latencies, 0.5)
    assert percentile(failed[:1], 0.0) == math.inf


def test_sliced_percentile_weights_time_not_op_count():
    # 8 s at 1 ms per op, then 8 s at 3 ms per op with a third as many ops.
    fast = [(i * 0.001, 0.001) for i in range(8000)]
    slow = [(8.0 + i * 0.003, 0.003) for i in range(2667)]
    assert percentile([lat for _, lat in fast + slow], 0.5) == 0.001
    assert sliced_percentile(fast + slow, 0.5) == pytest.approx(0.002)
    uniform = [(i * 0.01, 0.001 * (i % 7)) for i in range(700)]
    assert sliced_percentile(uniform, 0.5) == pytest.approx(0.003)


def test_sliced_percentile_keeps_failed_ops_beyond_any_percentile():
    samples = [(i * 0.01, 0.001) for i in range(100)]
    samples[50] = (0.5, math.inf)
    assert sliced_percentile(samples, 0.5) == pytest.approx(0.001)
    assert sliced_percentile(samples[40:55], 0.99) == math.inf  # one slice


# -- spans --------------------------------------------------------------------------------


def test_self_time_subtracts_children_and_traces_stay_apart():
    recorder = spans.Recorder()
    for _ in range(2):
        with recorder.trace("op"):
            with recorder.span("outer"):
                with recorder.span("inner"):
                    sum(range(20000))
    assert len(recorder.traces) == 2
    by_id = {span.span_id: span for span in recorder.spans}
    assert all(span.parent_id is None or by_id[span.parent_id].trace_id == span.trace_id
               for span in recorder.spans)
    for trace_id, totals in spans.self_times(recorder.spans).items():
        outer = next(s for s in recorder.spans if s.trace_id == trace_id and s.name == "outer")
        inner = next(s for s in recorder.spans if s.trace_id == trace_id and s.name == "inner")
        assert totals["outer"] == pytest.approx(outer.duration - inner.duration)
        assert totals["inner"] == pytest.approx(inner.duration)


def test_instrumented_records_nested_layer_spans_and_restores_calls():
    from repro.analysis.pipeline import WorkloadAnalysisPipeline
    from repro.som import som
    from repro.som.som import SOMConfig
    from repro.workloads.suite import BenchmarkSuite

    original = (WorkloadAnalysisPipeline.run, som.bmu_indices, som.resolve_initializer)
    recorder = spans.Recorder()
    pipeline = WorkloadAnalysisPipeline(
        characterization="methods", machine=None,
        som_config=SOMConfig(rows=5, columns=5, steps_per_sample=20, seed=3),
    )
    with spans.instrumented(recorder), recorder.trace("cli"):
        pipeline.run(BenchmarkSuite.paper_suite())
    assert (WorkloadAnalysisPipeline.run, som.bmu_indices, som.resolve_initializer) == original
    names = {span.name for span in recorder.spans}
    assert set(spans.STAGE_SPANS) | {"engine.run", "pca.init"} <= names
    parents = {span.span_id: span.name for span in recorder.spans}
    # The SOM fit nests inside the reduce stage under the same name.
    assert {parents[s.parent_id] for s in recorder.spans if s.name in spans.STAGE_SPANS} == {
        "engine.run", "som.reduce"
    }


def test_run_lists_every_workload_and_benchmark_json_matches():
    from perfbench import run
    from perfbench.layers import PER_LAYER
    from perfbench.workloads import WORKLOADS

    assert run.WORKLOAD_NAMES == tuple(WORKLOADS)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
