"""The default batch fit: pruned search above the crossover, bitwise.

``fit(mode="batch")`` with no search option picks its per-epoch BMU
search by problem size: below ``_PRUNED_DEFAULT_MIN_PAIRS`` (samples x
units) the exhaustive einsum search, above it a fresh
:class:`PrunedBMUSearch`.  The two return the same winners, and the
built-in kernels are evaluated once per epoch on the ``(U, U)`` table
and gathered by BMU, which yields the same floats as evaluating the
gathered ``(S, U)`` rows.  So the promise is **bitwise identical**
weights to the exhaustive, per-sample reference in
``tests/reference_kernels.py`` — on both sides of the crossover, for
both built-in kernels and for custom kernels that are not
elementwise.  The switch is invisible otherwise: no search stats, no
search metrics, no new cache-key params, and every explicit search
option keeps its old meaning.
"""

from __future__ import annotations

import warnings

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

import repro.som.som as som_module
from repro.obs.metrics import MetricsRegistry, use_metrics
from repro.som.bmu import bmu_indices
from repro.som.grid import Grid
from repro.som.neighborhood import NeighborhoodKernel
from repro.som.som import SOMConfig, SelfOrganizingMap
from repro.som.stages import SOMReduceStage
from repro.synthetic import big_suite

from tests.reference_kernels import reference_batch_weights

CROSSOVER = som_module._PRUNED_DEFAULT_MIN_PAIRS


class ColumnScaledGaussian(NeighborhoodKernel):
    """A Gaussian divided by its per-unit maximum over the batch.

    Not elementwise: each output depends on the whole column, so the
    (U, U) table's column maxima (always 1, on the diagonal) differ
    from those of the gathered (S, U) rows.  A kernel like this must
    keep its per-sample evaluation.
    """

    def __call__(self, squared_distances, sigma, out=None):
        self._check_sigma(sigma)
        gauss = np.exp(
            -np.asarray(squared_distances, dtype=float) / (2.0 * sigma * sigma)
        )
        return gauss / gauss.max(axis=0)


def _standardized(n_workloads: int, n_dims: int, seed: int = 5) -> np.ndarray:
    raw = big_suite(n_workloads, n_dims, seed=seed)
    std = raw.std(axis=0)
    return (raw - raw.mean(axis=0)) / np.where(std > 0.0, std, 1.0)


def _kernel(name: str):
    return ColumnScaledGaussian() if name == "column-scaled" else name


@st.composite
def batch_problems(draw, above: bool):
    rows = draw(st.integers(min_value=2, max_value=12))
    columns = draw(st.integers(min_value=2, max_value=12))
    units = rows * columns
    if above:
        floor = -(-CROSSOVER // units)  # ceil: at least CROSSOVER pairs
        samples = draw(st.integers(min_value=floor, max_value=floor + 150))
    else:
        samples = draw(
            st.integers(min_value=1, max_value=(CROSSOVER - 1) // units)
        )
    dim = draw(st.integers(min_value=1, max_value=24))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    rng = np.random.default_rng(seed)
    # Draw from a small pool of distinct rows so duplicated samples
    # (exact BMU ties between samples) are common.
    pool = rng.normal(size=(draw(st.integers(1, samples)), dim))
    scale = draw(st.sampled_from([1e-6, 1.0, 3.0, 1e6]))
    matrix = pool[rng.integers(pool.shape[0], size=samples)] * scale
    config = SOMConfig(
        rows=rows,
        columns=columns,
        topology=draw(st.sampled_from(["rectangular", "hexagonal"])),
        initialization=draw(st.sampled_from(["pca", "random"])),
        neighborhood=_kernel(
            draw(st.sampled_from(["gaussian", "bubble", "column-scaled"]))
        ),
        seed=seed,
    )
    return config, matrix


class TestBitwiseAgainstReference:
    @pytest.mark.parametrize("above", [False, True], ids=["below", "above"])
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_default_fit_equals_exhaustive_reference(self, above, data):
        config, matrix = data.draw(batch_problems(above))
        units = config.rows * config.columns
        assert (matrix.shape[0] * units >= CROSSOVER) == above
        fitted = SelfOrganizingMap(config).fit(matrix, mode="batch")
        assert np.array_equal(
            fitted.weights, reference_batch_weights(config, matrix)
        )

    @pytest.mark.parametrize("kernel", ["gaussian", "bubble", "column-scaled"])
    @pytest.mark.parametrize("shape", [(13, 21), (100, 45), (300, 8), (1000, 64)])
    def test_suite_shapes(self, shape, kernel):
        data = _standardized(*shape)
        rows, columns = Grid.suggested_shape(shape[0])
        config = SOMConfig(
            rows=rows, columns=columns, neighborhood=_kernel(kernel), seed=3
        )
        fitted = SelfOrganizingMap(config).fit(data, mode="batch")
        assert np.array_equal(
            fitted.weights, reference_batch_weights(config, data)
        )

    def test_identical_rows_off_the_origin(self):
        """Every sample at one point: all units nearly tie, so float64
        rounding in the exhaustive search picks the winner."""
        rng = np.random.default_rng(0)
        matrix = np.tile(rng.normal(size=(1, 2)) * 1e-6, (1200, 1))
        config = SOMConfig(rows=2, columns=5, seed=0)
        assert matrix.shape[0] * 10 >= CROSSOVER
        fitted = SelfOrganizingMap(config).fit(matrix, mode="batch")
        assert np.array_equal(
            fitted.weights, reference_batch_weights(config, matrix)
        )

    def test_huge_values_fit_quietly(self):
        """Squares past float32 range overflow the pruned bound; the
        search falls back to exact without a warning the exhaustive
        search would not raise."""
        data = _standardized(300, 8) * 1e20
        config = SOMConfig(rows=8, columns=8, seed=4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fitted = SelfOrganizingMap(config).fit(data, mode="batch")
        assert np.array_equal(
            fitted.weights, reference_batch_weights(config, data)
        )

    def test_custom_kernel_sees_per_sample_rows(self):
        shapes = []

        class Recording(ColumnScaledGaussian):
            def __call__(self, squared_distances, sigma, out=None):
                shapes.append(np.shape(squared_distances))
                return super().__call__(squared_distances, sigma, out)

        data = _standardized(40, 6)
        config = SOMConfig(rows=4, columns=5, neighborhood=Recording(), seed=2)
        SelfOrganizingMap(config).fit(data, mode="batch")
        assert set(shapes) == {(40, 20)}


class TestSearchSelection:
    @pytest.fixture
    def exhaustive_calls(self, monkeypatch):
        calls = []

        def counting(matrix, weights):
            calls.append(matrix.shape[0])
            return bmu_indices(matrix, weights)

        monkeypatch.setattr(som_module, "bmu_indices", counting)
        return calls

    def test_below_crossover_searches_exhaustively(self, exhaustive_calls):
        data = _standardized(100, 12)
        config = SOMConfig(rows=8, columns=8, seed=1)
        assert data.shape[0] * 64 < CROSSOVER
        SelfOrganizingMap(config).fit(data, mode="batch")
        assert len(exhaustive_calls) == 50

    def test_above_crossover_never_runs_the_exhaustive_search(
        self, exhaustive_calls
    ):
        data = _standardized(400, 12)
        config = SOMConfig(rows=8, columns=8, seed=1)
        assert data.shape[0] * 64 >= CROSSOVER
        SelfOrganizingMap(config).fit(data, mode="batch")
        assert exhaustive_calls == []

    def test_explicit_hook_is_used_as_given(self):
        data = _standardized(400, 12)
        config = SOMConfig(rows=8, columns=8, seed=1)
        calls = []

        def hook(weights, matrix):
            calls.append(1)
            return bmu_indices(matrix, weights)

        hooked = SelfOrganizingMap(config).fit(data, mode="batch", bmu_search=hook)
        default = SelfOrganizingMap(config).fit(data, mode="batch")
        assert len(calls) == 50
        assert np.array_equal(hooked.weights, default.weights)


class TestInvisibleSwitch:
    @pytest.fixture(scope="class")
    def data(self):
        return _standardized(1000, 64)

    @pytest.fixture(scope="class")
    def config(self):
        return SOMConfig(rows=13, columns=13, seed=7)

    def test_no_stats_and_no_search_metrics(self, data, config):
        registry = MetricsRegistry()
        with use_metrics(registry):
            som = SelfOrganizingMap(config).fit(data, mode="batch")
        assert som.bmu_stats is None
        assert not [
            name for name in registry.as_dict() if name.startswith("repro_som_bmu_")
        ]

    def test_stage_cache_key_unchanged(self, config):
        stage = SOMReduceStage(config, mode="batch")
        assert dict(stage.params) == {"config": config, "mode": "batch"}
        # Digest of the same stage before the default search changed:
        # disk caches written by earlier versions stay valid.
        assert stage.signature == (
            "2a3c1f7511eb00c38cc8a611728cfd9645abf5463510f518711770471ae8e444"
        )
        # The non-default strategy's key is pinned the same way.
        pruned = SOMReduceStage(config, mode="batch", bmu_strategy="pruned")
        assert dict(pruned.params) == {
            "config": config,
            "mode": "batch",
            "bmu_strategy": "pruned",
        }
        assert pruned.signature == (
            "6448b3aa31be2b374dd7dd471a37aef6d33fee86a31de132f7ba3f8d45039c27"
        )
