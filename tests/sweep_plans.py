"""Hand-built sweep plans for scheduler tests.

A :class:`~repro.engine.plan.SweepPlan` is pure data, so a test can
ask :class:`~repro.engine.fanout.SweepScheduler` for a fork pool on
any host — including a 1-CPU one, where the cost model would plan
serial — and compare it with a serial plan over the same variants.
"""

from __future__ import annotations

from typing import Sequence

from repro.engine.fanout import Variant, derive_seeds
from repro.engine.plan import SweepPlan, VariantPlan


def hand_plan(
    variants: Sequence[Variant], *, workers: int = 1, base_seed: int = 0
) -> SweepPlan:
    """Pool every variant across ``workers`` forks (serial when 1)."""
    seeds = derive_seeds(variants, base_seed)
    return SweepPlan(
        variants=tuple(
            VariantPlan(name=variant.name, seed=seed)
            for variant, seed in zip(variants, seeds)
        ),
        requested_workers=workers,
        workers=workers,
        mode="parallel" if workers > 1 else "serial",
        cpus=workers,
        est_serial_seconds=0.0,
        est_parallel_seconds=0.0,
    )
