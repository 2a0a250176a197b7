"""Affinity-aware host introspection and numpy's BLAS thread count.

``os.cpu_count()`` reports the machine's cores, not *this process's*
cores: under cgroup CPU sets, ``taskset``, or container runtimes the
process may be pinned to a subset, and sizing a fork pool by the raw
count spawns workers that time-slice one another.  The scheduler (and
the benchmarks that archive host facts) therefore size by
:func:`available_cpus`, which honors the scheduling affinity mask when
the platform exposes it.

numpy's OpenBLAS runs its own thread pool, sized by default to the
machine.  Two costs follow.  Processes that share the CPUs each keep
a full-size pool whose idle threads spin after a call, slowing the
others down (a 1000x64 batch SOM fit takes 1.8x as long when five
processes take turns on two CPUs), and a multi-threaded ``matmul``
sums in a thread-count-dependent order, so a large fit's bits depend
on the host.  :func:`single_blas_thread` runs a block at one BLAS
thread; every SOM fit runs inside it.  The thread setter is found in
the loaded OpenBLAS through ``ctypes``, once per process; where there
is none (another BLAS, or no ``/proc/self/maps``) both
:func:`single_blas_thread` and :func:`blas_threads` do nothing.
"""

from __future__ import annotations

import contextlib
import ctypes
import os
import threading
from typing import Callable, Iterator

__all__ = [
    "BlasThreads",
    "available_cpus",
    "blas_threads",
    "single_blas_thread",
]

# Exported (get, set) thread-count pairs of the OpenBLAS builds numpy
# ships with.  The 64-bit-integer names come first: numpy links the
# ILP64 build, while scipy, when imported, maps its own 32-bit one.
_OPENBLAS_PAIRS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)

_Controls = tuple[Callable[[], int], Callable[[int], None]]


def available_cpus() -> int:
    """CPUs this process may actually run on (always >= 1).

    Uses ``os.sched_getaffinity(0)`` where available (Linux); falls
    back to ``os.cpu_count()`` elsewhere (macOS, Windows), and to 1
    when even that is unknown.
    """
    getaffinity = getattr(os, "sched_getaffinity", None)
    if getaffinity is not None:
        try:
            return max(1, len(getaffinity(0)))
        except OSError:  # pragma: no cover - exotic kernels
            pass
    return max(1, os.cpu_count() or 1)


def _find_openblas() -> _Controls | None:
    """numpy's OpenBLAS ``(get, set)`` thread-count functions, or None."""
    import numpy  # noqa: F401  (maps the BLAS library into the process)

    try:
        with open("/proc/self/maps", encoding="utf-8", errors="replace") as maps:
            libraries = sorted(
                {line.split()[-1] for line in maps if "blas" in line.lower()}
            )
    except OSError:
        return None
    handles = []
    for library in libraries:
        try:
            handles.append(ctypes.CDLL(library))
        except OSError:
            continue
    for get_name, set_name in _OPENBLAS_PAIRS:
        for handle in handles:
            getter = getattr(handle, get_name, None)
            setter = getattr(handle, set_name, None)
            if getter is not None and setter is not None:
                getter.argtypes, getter.restype = [], ctypes.c_int
                setter.argtypes, setter.restype = [ctypes.c_int], None
                return getter, setter
    return None


class BlasThreads:
    """The BLAS thread count of this process, pinned to one by scope.

    ``find`` locates the ``(get, set)`` pair on first use; when it
    returns None every method is a no-op (``get`` returns None).
    :meth:`single` is reference-counted under a lock, so threads that
    fit concurrently share one pinned region: the first to enter saves
    the ambient count and sets 1, the last to leave restores it.
    """

    def __init__(
        self, find: Callable[[], _Controls | None] = _find_openblas
    ) -> None:
        self._find = find
        self._lock = threading.Lock()
        self._looked = False
        self._controls: _Controls | None = None
        self._depth = 0
        self._saved: int | None = None

    def _lookup(self) -> _Controls | None:
        """The controls, found once (call with the lock held)."""
        if not self._looked:
            self._controls = self._find()
            self._looked = True
        return self._controls

    def get(self) -> int | None:
        """The current BLAS thread count, or None without a controller."""
        with self._lock:
            controls = self._lookup()
            return None if controls is None else int(controls[0]())

    @contextlib.contextmanager
    def single(self) -> Iterator[None]:
        """Run the block with BLAS at one thread, then restore the count."""
        with self._lock:
            controls = self._lookup()
            if controls is not None:
                if self._depth == 0:
                    self._saved = int(controls[0]())
                    controls[1](1)
                self._depth += 1
        try:
            yield
        finally:
            if controls is not None:
                with self._lock:
                    # Floor at 0: a region entered before a fork ends in
                    # the child after the fork handler already closed it.
                    self._depth = max(0, self._depth - 1)
                    if self._depth == 0 and self._saved is not None:
                        controls[1](self._saved)
                        self._saved = None

    def _after_fork_in_child(self) -> None:
        # Only the forking thread survives a fork: a pinned region other
        # threads held is gone, and the lock may have been held too.
        self._lock = threading.Lock()
        if self._depth and self._controls is not None and self._saved is not None:
            self._controls[1](self._saved)
        self._depth, self._saved = 0, None


_BLAS = BlasThreads()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_BLAS._after_fork_in_child)


def blas_threads() -> int | None:
    """numpy's current BLAS thread count, or None when it cannot be read."""
    return _BLAS.get()


def single_blas_thread() -> contextlib.AbstractContextManager[None]:
    """Context manager: numpy's BLAS at one thread for the block.

    Safe to nest and to enter from several threads at once; the
    ambient count comes back when the last one leaves, also on an
    exception.
    """
    return _BLAS.single()
