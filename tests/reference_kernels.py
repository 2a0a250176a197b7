"""Slow, obviously-correct reference implementations of the hot kernels.

The vectorized kernels in ``repro.som``, ``repro.stats.distance`` and
``repro.core`` promise *provable output equivalence* with the scalar
formulations they replaced.  This module keeps those scalar
formulations alive — the sequential SOM training loop exactly as it
existed before vectorization, the batch epoch with its exhaustive
search and per-sample kernel rows, the per-pair distance loop, and the
one-replicate-at-a-time bootstrap — so the equivalence tests (and the
``bench_hotpaths`` harness, which times old vs. new) can compare
against them forever.

Nothing here is exported through the package; it is test/bench
scaffolding only, deliberately written step-at-a-time.
"""

from __future__ import annotations

from typing import Callable, Mapping, Sequence

import numpy as np

from repro.core.hierarchical import hierarchical_mean
from repro.engine.hostinfo import single_blas_thread
from repro.som.bmu import bmu_indices
from repro.som.decay import DecaySchedule
from repro.som.grid import Grid
from repro.som.initialization import resolve_initializer
from repro.som.neighborhood import NeighborhoodKernel
from repro.som.som import SOMConfig, SelfOrganizingMap


def reference_sequential_weights(
    config: SOMConfig, matrix: np.ndarray
) -> np.ndarray:
    """Train sequentially with the pre-vectorization scalar loop.

    This is a faithful transcription of ``SOM._fit_sequential`` /
    ``_sequential_steps`` as of PR 3: one scalar RNG draw per step,
    schedules evaluated per step, a fresh diff/kernel allocation per
    step.  Returns the trained weight matrix.
    """
    som = SelfOrganizingMap(config)
    grid: Grid = som.grid
    kernel: NeighborhoodKernel = som._kernel
    alpha_schedule: DecaySchedule = som._alpha
    sigma_schedule: DecaySchedule = som._sigma

    matrix = np.asarray(matrix, dtype=float)
    rng = np.random.default_rng(config.seed)
    initializer = resolve_initializer(config.initialization)
    weights = initializer(grid, matrix, rng).astype(float)

    n_samples = matrix.shape[0]
    total_steps = config.steps_per_sample * n_samples
    denominator = max(total_steps - 1, 1)
    for step in range(total_steps):
        progress = step / denominator
        alpha = alpha_schedule(progress)
        sigma = sigma_schedule(progress)
        sample = matrix[rng.integers(n_samples)]
        diff = weights - sample
        bmu = int(np.argmin(np.einsum("ij,ij->i", diff, diff)))
        influence = alpha * kernel(grid.squared_map_distances_from(bmu), sigma)
        weights += influence[:, None] * (sample - weights)
    return weights


def reference_batch_weights(
    config: SOMConfig, matrix: np.ndarray, epochs: int = 50
) -> np.ndarray:
    """Train in batch mode with the exhaustive search, kernel per sample.

    A transcription of ``SOM._batch_epoch`` from before default fits
    searched with the pruned bound and gathered kernel-table rows:
    every epoch runs the exhaustive :func:`bmu_indices` search,
    evaluates the kernel on the gathered ``(n_samples, n_units)``
    distance rows, then sums, multiplies and assigns in place.
    Like ``fit``, it runs initializer and epochs with BLAS at one
    thread: the ``influence.T @ matrix`` sum order depends on the
    thread count.  Returns the trained weight matrix.
    """
    som = SelfOrganizingMap(config)
    grid: Grid = som.grid
    kernel: NeighborhoodKernel = som._kernel
    sigma_schedule: DecaySchedule = som._sigma

    matrix = np.asarray(matrix, dtype=float)
    with single_blas_thread():
        rng = np.random.default_rng(config.seed)
        initializer = resolve_initializer(config.initialization)
        weights = initializer(grid, matrix, rng).astype(float)

        denominator = max(epochs - 1, 1)
        for epoch in range(epochs):
            sigma = sigma_schedule(epoch / denominator)
            bmus = bmu_indices(matrix, weights)
            influence = kernel(grid.squared_distance_table[bmus], sigma)
            totals = influence.sum(axis=0)
            active = totals > 1e-12
            numerator = influence.T @ matrix
            weights[active] = numerator[active] / totals[active, None]
    return weights


def reference_pairwise_distances(
    matrix: np.ndarray, metric: Callable[[np.ndarray, np.ndarray], float]
) -> np.ndarray:
    """The O(n^2) per-pair loop all fast paths must reproduce."""
    matrix = np.asarray(matrix, dtype=float)
    n = matrix.shape[0]
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            value = float(metric(matrix[i], matrix[j]))
            out[i, j] = value
            out[j, i] = value
    return out


def reference_bootstrap_scores(
    speedups: np.ndarray,
    workloads: Sequence[str],
    partition: Mapping[str, Sequence[str]],
    mean: str,
    resamples: int,
    seed: int,
) -> np.ndarray:
    """One-replicate-at-a-time bootstrap of the hierarchical mean.

    Consumes the Generator stream exactly as the vectorized
    ``repro.core.confidence`` path does (one ``(resamples, n)`` index
    block per workload, reference machine first), then evaluates each
    replicate with a separate scalar ``hierarchical_mean`` call.
    ``speedups`` has shape ``(resamples, n_workloads)``.
    """
    speedups = np.asarray(speedups, dtype=float)
    resamples = int(resamples)
    if speedups.shape != (resamples, len(workloads)):
        raise ValueError(
            f"speedups shape {speedups.shape} != ({resamples}, {len(workloads)})"
        )
    _ = seed  # draws happen upstream; kept for signature symmetry
    scores = np.empty(resamples)
    for index in range(resamples):
        row = {
            workload: float(speedups[index, column])
            for column, workload in enumerate(workloads)
        }
        scores[index] = hierarchical_mean(row, partition, mean=mean)
    return scores


def reference_resampled_speedups(
    reference_times: Mapping[str, Sequence[float]],
    machine_times: Mapping[str, Sequence[float]],
    workloads: Sequence[str],
    resamples: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Scalar per-replicate resampling of per-workload speedups.

    Workload-major draw order: for each workload, one ``(resamples,
    n_ref)`` block of reference-machine indices, then one ``(resamples,
    n_mach)`` block for the machine under test — matching the
    vectorized implementation's stream consumption, but averaging and
    dividing one replicate at a time.
    """
    out = np.empty((resamples, len(workloads)))
    for column, workload in enumerate(workloads):
        ref = np.asarray(reference_times[workload], dtype=float)
        mach = np.asarray(machine_times[workload], dtype=float)
        ref_draws = rng.integers(ref.size, size=(resamples, ref.size))
        mach_draws = rng.integers(mach.size, size=(resamples, mach.size))
        for index in range(resamples):
            ref_mean = ref[ref_draws[index]].mean()
            mach_mean = mach[mach_draws[index]].mean()
            out[index, column] = ref_mean / mach_mean
    return out
