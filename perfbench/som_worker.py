"""SOM worker: fits large maps on request, one JSON line in, one out.

Run by the benchmark as its own process.  For ``{"op": "fit",
"data_seed": n}`` it builds the standardized ``big_suite(1000, 64)``
matrix for that seed, times only the ``fit`` call, then reports the
fit's quantization error.  It exits when its stdin closes.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.gen import som_data  # noqa: E402


def fit(data_seed: int) -> dict:
    import numpy as np

    from repro.som.bmu import bmu_indices
    from repro.som.grid import Grid
    from repro.som.som import SelfOrganizingMap, SOMConfig

    data = som_data(data_seed)
    rows, columns = Grid.suggested_shape(data.shape[0])
    som = SelfOrganizingMap(SOMConfig(rows=rows, columns=columns, seed=data_seed))
    started = time.perf_counter()
    som.fit(data, mode="batch")
    fit_ms = (time.perf_counter() - started) * 1e3
    weights = som.weights
    qe = float(np.mean(np.linalg.norm(data - weights[bmu_indices(data, weights)], axis=1)))
    return {"fit_ms": fit_ms, "qe": qe}


def main() -> None:
    for line in sys.stdin:
        message = json.loads(line)
        if message["op"] == "fit":
            answer = fit(int(message["data_seed"]))
        else:
            answer = {"ok": True}
        sys.stdout.write(json.dumps(answer) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
