"""The ``env`` block stamped into every run, and the host-drift probe."""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Exported thread-count getters of the BLAS builds numpy ships with.
_BLAS_GETTERS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def calibrate() -> float:
    """Milliseconds for a fixed pure-Python loop.

    Recorded at the start and end of each run to show host drift
    between runs.  It is never used to rescale a metric.
    """
    started = time.perf_counter()
    total = 0
    for value in range(2_000_000):
        total += value * value % 7
    return (time.perf_counter() - started) * 1e3


def _blas() -> dict[str, Any]:
    """The BLAS numpy was built against and its runtime thread count.

    The thread setting is read, never changed: runs measure the user's
    default.
    """
    import numpy as np

    info: dict[str, Any] = {"threads_env": {
        name: os.environ.get(name, "unset") for name in _THREAD_VARS
    }}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name"), blas.get("version")
    except (TypeError, KeyError):
        info["name"] = info["version"] = None
    info["threads"] = None
    with open("/proc/self/maps", encoding="utf-8", errors="replace") as maps:
        libraries = {line.split()[-1] for line in maps if "blas" in line.lower()}
    for library in sorted(libraries):
        try:
            handle = ctypes.CDLL(library)
        except OSError:
            continue
        for getter in _BLAS_GETTERS:
            function = getattr(handle, getter, None)
            if function is not None:
                function.argtypes, function.restype = [], ctypes.c_int
                info["threads"] = function()
                return info
    return info


def _git_sha(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _src_digest(root: Path) -> str:
    """SHA-1 over the program's sources, for checkouts without git."""
    digest = hashlib.sha1()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def env_block(root: Path, bytecode: dict[str, Any]) -> dict[str, Any]:
    """Everything a number from this run depends on besides the code."""
    import numpy as np

    from repro.engine.hostinfo import available_cpus

    return {
        "python": platform.python_version(),
        "python_executable": sys.executable,
        "numpy": np.__version__,
        "blas": _blas(),
        "available_cpus": available_cpus(),
        "bytecode": bytecode,
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED", "unset"),
        "git_sha": _git_sha(root),
        "src_sha1": _src_digest(root),
        "platform": platform.platform(),
    }
