"""SweepScheduler: determinism, parallel/serial equivalence, sweeps."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.engine import (
    PlanEntry,
    SweepPlanner,
    SweepScheduler,
    Variant,
    derive_seed,
    fingerprint,
    fork_available,
)
from repro.exceptions import EngineError
from repro.obs import Tracer, use_tracer
from tests.sweep_plans import hand_plan

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")


def _scaled_draw(params, seed):
    """Module-level task (picklable): a seeded draw scaled by a knob."""
    rng = np.random.default_rng(seed)
    return float(rng.standard_normal() * params.get("scale", 1.0))


def _identity(params, seed):
    return {"params": dict(params), "seed": seed, "pid": os.getpid()}


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(11, 0, "a") == derive_seed(11, 0, "a")

    def test_discriminates_base_index_and_name(self):
        baseline = derive_seed(11, 0, "a")
        assert derive_seed(12, 0, "a") != baseline
        assert derive_seed(11, 1, "a") != baseline
        assert derive_seed(11, 0, "b") != baseline

    def test_non_negative_32bit(self):
        for index in range(20):
            seed = derive_seed(0, index, f"v{index}")
            assert 0 <= seed < 2**32


class TestSerialExecution:
    def test_outcomes_in_variant_order(self):
        variants = [Variant(f"v{i}") for i in range(4)]
        outcomes = SweepScheduler(_identity).execute(
            hand_plan(variants), variants
        )
        assert [o.name for o in outcomes] == ["v0", "v1", "v2", "v3"]

    def test_explicit_seed_wins_derived_fills_in(self):
        variants = [Variant("pinned", seed=7), Variant("derived")]
        outcomes = SweepScheduler(_scaled_draw).execute(
            hand_plan(variants, base_seed=11), variants
        )
        assert outcomes[0].seed == 7
        assert outcomes[1].seed == derive_seed(11, 1, "derived")

    def test_serial_runs_in_parent_process(self):
        variants = [Variant("only")]
        (outcome,) = SweepScheduler(_identity).execute(
            hand_plan(variants), variants
        )
        assert outcome.worker_pid == os.getpid()
        assert outcome.in_parent

    def test_initializer_runs_once_before_variants(self):
        ran = []
        scheduler = SweepScheduler(
            _identity,
            initializer=lambda tag: ran.append(tag),
            initargs=("setup",),
        )
        variants = [Variant("a"), Variant("b")]
        scheduler.execute(hand_plan(variants), variants)
        assert ran == ["setup"]

    def test_rejects_empty_and_duplicate_variants(self):
        scheduler = SweepScheduler(_identity)
        with pytest.raises(EngineError, match="no variants"):
            scheduler.execute(hand_plan([]), [])
        doubled = [Variant("same"), Variant("same")]
        with pytest.raises(EngineError, match="duplicate"):
            scheduler.execute(hand_plan(doubled), doubled)

    def test_spans_cover_run_and_each_variant(self):
        tracer = Tracer()
        variants = [Variant("a"), Variant("b")]
        with use_tracer(tracer):
            SweepScheduler(_scaled_draw).execute(hand_plan(variants), variants)
        assert len(tracer.find("fanout.run")) == 1
        variant_spans = tracer.find("fanout.variant")
        assert sorted(s.attributes["variant"] for s in variant_spans) == [
            "a",
            "b",
        ]
        assert all("wall_seconds" in s.attributes for s in variant_spans)
        # The variant span times the task itself, so its duration is
        # the measured wall time.
        for span in variant_spans:
            assert span.duration_seconds == pytest.approx(
                span.attributes["wall_seconds"], rel=0.5, abs=5e-3
            )
            assert span.attributes["worker_pid"] == os.getpid()


@pytest.mark.skipif(not fork_available(), reason="platform lacks fork")
class TestParallelExecution:
    def test_parallel_matches_serial_exactly(self):
        variants = [
            Variant(f"v{i}", params={"scale": float(i + 1)}) for i in range(5)
        ]
        scheduler = SweepScheduler(_scaled_draw)
        serial = scheduler.execute(
            hand_plan(variants, base_seed=3), variants
        )
        parallel = scheduler.execute(
            hand_plan(variants, workers=3, base_seed=3), variants
        )
        for s, p in zip(serial, parallel):
            assert s.seed == p.seed
            assert s.value == p.value  # bitwise: same seed, same arithmetic

    def test_parallel_runs_outside_the_parent(self):
        variants = [Variant(f"v{i}") for i in range(3)]
        outcomes = SweepScheduler(_identity).execute(
            hand_plan(variants, workers=2), variants
        )
        assert all(o.worker_pid != os.getpid() for o in outcomes)
        assert all(not o.in_parent for o in outcomes)

    def test_workers_capped_by_variant_count(self):
        # 1 variant with 8 workers on 8 CPUs plans serial execution.
        plan = SweepPlanner(cpus=8).plan(
            [PlanEntry(name="only", seed=1, stage_keys={"task": fingerprint(1)})],
            workers=8,
        )
        assert plan.mode == "serial"
        (outcome,) = SweepScheduler(_identity).execute(plan, [Variant("only")])
        assert outcome.in_parent

    def test_parallel_variant_spans_time_the_task(self):
        tracer = Tracer()
        variants = [Variant("a"), Variant("b")]
        with use_tracer(tracer):
            outcomes = SweepScheduler(_scaled_draw).execute(
                hand_plan(variants, workers=2), variants
            )
        variant_spans = tracer.find("fanout.variant")
        assert len(variant_spans) == 2
        for span, outcome in zip(variant_spans, outcomes):
            assert span.attributes["mode"] == "parallel"
            assert span.attributes["worker_pid"] == outcome.worker_pid
            assert span.duration_seconds == pytest.approx(
                span.attributes["wall_seconds"], rel=0.5, abs=5e-3
            )


class TestPipelineSweeps:
    @pytest.fixture(scope="class")
    def linkage_variants(self):
        from repro.analysis.sweep import PipelineVariant

        return [
            PipelineVariant(name=linkage, linkage=linkage, seed=11)
            for linkage in ("complete", "single")
        ]

    def test_serial_sweep_shares_upstream_stages(
        self, linkage_variants, paper_suite, tmp_path
    ):
        from repro.analysis.sweep import run_pipeline_variants

        runs = run_pipeline_variants(
            linkage_variants, paper_suite, workers=1, cache_dir=tmp_path
        )
        assert [r.name for r in runs] == ["complete", "single"]
        # Second variant reuses characterize/preprocess/reduce from the
        # first (memory or disk — anything but recompute).
        second = runs[1].result.run_report
        for stage in ("characterize", "preprocess", "reduce"):
            assert second.stats_for(stage).cache_source != "compute"

    @pytest.mark.skipif(not fork_available(), reason="platform lacks fork")
    def test_parallel_sweep_bitwise_matches_serial(
        self, linkage_variants, paper_suite, tmp_path
    ):
        from repro.analysis.sweep import run_pipeline_variants

        serial = run_pipeline_variants(
            linkage_variants,
            paper_suite,
            workers=1,
            cache_dir=tmp_path / "serial",
        )
        # Linkage variants share their upstream stages, so the planner
        # runs them serial; a hand-built plan forks them anyway.
        parallel = run_pipeline_variants(
            linkage_variants,
            paper_suite,
            cache_dir=tmp_path / "parallel",
            plan=hand_plan(linkage_variants, workers=2),
        )
        for s, p in zip(serial, parallel):
            assert p.worker_pid != os.getpid()
            assert s.seed == p.seed
            a, b = s.result, p.result
            assert np.array_equal(
                a.prepared_vectors.matrix, b.prepared_vectors.matrix
            )
            assert np.array_equal(a.som.weights, b.som.weights)
            assert a.positions == b.positions
            assert a.dendrogram == b.dendrogram
            assert a.cuts == b.cuts
            assert a.recommended_clusters == b.recommended_clusters
            assert [st.stage for st in a.run_report.stages] == [
                st.stage for st in b.run_report.stages
            ]

    def test_warm_parallel_sweep_computes_nothing(
        self, linkage_variants, paper_suite, tmp_path
    ):
        from repro.analysis.sweep import run_pipeline_variants

        run_pipeline_variants(
            linkage_variants, paper_suite, workers=1, cache_dir=tmp_path
        )
        warm = run_pipeline_variants(
            linkage_variants,
            paper_suite,
            workers=2 if fork_available() else 1,
            cache_dir=tmp_path,
        )
        for run in warm:
            assert all(
                s.cache_source in ("disk", "memory")
                for s in run.result.run_report.stages
            )

    def test_empty_variant_list_rejected(self, paper_suite):
        from repro.analysis.sweep import run_pipeline_variants
        from repro.exceptions import MeasurementError

        with pytest.raises(MeasurementError):
            run_pipeline_variants([], paper_suite)
