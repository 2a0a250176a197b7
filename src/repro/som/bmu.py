"""Row-invariant best-matching-unit search.

:func:`bmu_indices` is the exhaustive batch search: it scores every
(sample, unit) pair.  BLAS-backed ``matrix @ weights.T`` would be
faster, but its blocking/threading strategy depends on the operand
shapes, so a row of a sliced or gathered product is not bitwise equal
to the same row of the full product.

:func:`bmu_indices` therefore evaluates the cross terms with numpy's
raw ``c_einsum`` kernel, which accumulates each output element over
the feature axis independently of every other row.  The result for a
sample is a pure function of that sample and the weights: slicing the
matrix and concatenating the per-slice results is bitwise identical
to one full-matrix call.  The pruned search relies on this:
:class:`repro.som.bmu_fast.PrunedBMUSearch` (through
:func:`repro.som.bmu_fast.bmu_indices_among`) scores its gathered
(sample, unit) shortlist with the same kernel, so each score it
compares is bitwise the exhaustive search's score for that pair and
its winners equal this function's, tie-breaks included.  The
invariance is pinned by ``tests/som/test_bmu_invariance.py``.
"""

from __future__ import annotations

import numpy as np

try:  # Same C kernel as np.einsum, minus the parsing wrapper.
    from numpy._core._multiarray_umath import c_einsum as _einsum
except ImportError:  # pragma: no cover - other numpy layouts
    _einsum = np.einsum

__all__ = ["bmu_indices"]


def bmu_indices(matrix: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Per-sample index of the nearest weight vector, shape ``(n,)``.

    Squared distances via the expansion trick
    ``||w||^2 - 2 <x, w>`` (the ``||x||^2`` term is constant per row
    and cannot change the argmin), with both reductions computed by
    einsum so every output row is independent of the others.
    """
    weight_norms = _einsum("ud,ud->u", weights, weights)
    cross = _einsum("sd,ud->su", matrix, weights)
    return np.argmin(weight_norms[None, :] - 2.0 * cross, axis=1)
