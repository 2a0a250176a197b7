"""numpy's BLAS thread count: the controller and SOM fits.

Every SOM fit runs with BLAS at one thread, so its weights are the
same whatever thread count the host defaults to.  Tests
that drive the real OpenBLAS skip where no thread setter is found or
the library cannot run two threads.  The reference-counting logic is
also checked against a fake controller, which runs everywhere.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.engine import hostinfo
from repro.engine.hostinfo import BlasThreads, blas_threads, single_blas_thread
from repro.som.grid import Grid
from repro.som.som import SelfOrganizingMap, SOMConfig

REPO = Path(__file__).resolve().parents[2]

# A default batch fit at this size multiplies (81 x 1000) @ (1000 x 64)
# each epoch, large enough for OpenBLAS to split it across threads.
_DIGEST_SCRIPT = """
import hashlib
import numpy as np
from repro.engine.hostinfo import blas_threads
from repro.som.grid import Grid
from repro.som.som import SelfOrganizingMap, SOMConfig
threads = blas_threads()
data = np.random.default_rng(1001).standard_normal((1000, 64))
rows, columns = Grid.suggested_shape(1000)
som = SelfOrganizingMap(SOMConfig(rows=rows, columns=columns, seed=11))
som.fit(data, mode="batch")
print(threads, hashlib.sha1(som.weights.tobytes()).hexdigest())
"""


def _fit_weights(samples: int, dim: int, seed: int = 1001) -> np.ndarray:
    data = np.random.default_rng(seed).standard_normal((samples, dim))
    rows, columns = Grid.suggested_shape(samples)
    som = SelfOrganizingMap(SOMConfig(rows=rows, columns=columns, seed=11))
    return som.fit(data, mode="batch").weights


@pytest.fixture
def two_threads():
    """Ambient BLAS at two threads for the test, then the old count back."""
    controls = hostinfo._find_openblas()
    if controls is None:
        pytest.skip("no OpenBLAS thread setter in this process")
    get, set_ = controls
    before = get()
    set_(2)
    if get() != 2:
        set_(before)
        pytest.skip("this BLAS cannot run two threads")
    yield
    set_(before)


class _FakeBlas:
    """A thread count behind a (get, set) pair, as OpenBLAS exposes it."""

    def __init__(self, count: int) -> None:
        self.count = count
        self.lookups = 0

    def find(self):
        self.lookups += 1
        return (lambda: self.count), self._set

    def _set(self, count: int) -> None:
        self.count = count


class TestController:
    def test_restores_after_normal_exit(self, two_threads):
        with single_blas_thread():
            assert blas_threads() == 1
        assert blas_threads() == 2

    def test_restores_after_exception(self, two_threads):
        with pytest.raises(RuntimeError, match="boom"):
            with single_blas_thread():
                assert blas_threads() == 1
                raise RuntimeError("boom")
        assert blas_threads() == 2

    def test_nested_regions_restore_once(self):
        fake = _FakeBlas(4)
        blas = BlasThreads(find=fake.find)
        with blas.single():
            with blas.single():
                assert fake.count == 1
            assert fake.count == 1
        assert fake.count == 4
        assert fake.lookups == 1

    def test_fork_child_leaves_inherited_region(self):
        """A child forked mid-region gets the ambient count back."""
        fake = _FakeBlas(4)
        blas = BlasThreads(find=fake.find)
        with blas.single():
            blas._after_fork_in_child()
            assert fake.count == 4
            with blas.single():
                assert fake.count == 1
            assert fake.count == 4
        assert fake.count == 4

    def test_no_controller_is_a_no_op(self):
        blas = BlasThreads(find=lambda: None)
        assert blas.get() is None
        with blas.single():
            assert blas.get() is None


class TestFitBits:
    def test_digest_does_not_depend_on_thread_count(self):
        """A default 1000x64 batch fit hashes the same at 1 and 2 threads."""
        if blas_threads() is None:
            pytest.skip("no OpenBLAS thread setter in this process")
        digests = {}
        for threads in ("1", "2"):
            env = {
                **os.environ,
                "OPENBLAS_NUM_THREADS": threads,
                "PYTHONPATH": str(REPO / "src"),
            }
            done = subprocess.run(
                [sys.executable, "-c", _DIGEST_SCRIPT],
                env=env, capture_output=True, text=True, timeout=120,
                check=True,
            )
            reported, digest = done.stdout.split()
            if reported != threads:
                pytest.skip(f"BLAS ran {reported} thread(s), asked for {threads}")
            digests[threads] = digest
        assert digests["1"] == digests["2"]

    def test_concurrent_fits_match_serial(self, two_threads):
        """Overlapping fits in two threads each match the serial fit."""
        expected = _fit_weights(1000, 64)
        results: dict[str, list[np.ndarray]] = {"a": [], "b": []}
        errors: list[BaseException] = []
        barrier = threading.Barrier(2)

        def work(name: str, fits: int) -> None:
            try:
                barrier.wait(timeout=30)
                for _ in range(fits):
                    results[name].append(_fit_weights(1000, 64))
            except BaseException as exc:  # re-raised below via errors
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            # Different fit counts, so one thread leaves while the
            # other is still fitting.
            threads = [
                threading.Thread(target=work, args=("a", 2)),
                threading.Thread(target=work, args=("b", 3)),
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert not errors, errors
        assert [len(results["a"]), len(results["b"])] == [2, 3]
        for weights in results["a"] + results["b"]:
            assert np.array_equal(weights, expected)
        assert blas_threads() == 2

    def test_fit_without_controller_runs_and_matches(self, monkeypatch):
        expected = _fit_weights(200, 64)
        monkeypatch.setattr(hostinfo, "_BLAS", BlasThreads(find=lambda: None))
        assert blas_threads() is None
        assert np.array_equal(_fit_weights(200, 64), expected)

