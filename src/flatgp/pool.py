"""The epsilon pool: one evaluator for every loop over a kernel grid.

``map_spectra(fn, kernels, X)`` factors the GP spectrum of each kernel on one
design and returns ``fn(spectrum, kernel)`` for each, in grid order.  The
isofreedom curve, the convergence study and the CLI's dof-grid and
criteria-grid loop over epsilon through it, and each keeps its per-epsilon
work inside ``fn``, so that the work runs in the pool's workers.

Tasks are stacks of consecutive kernels, factored by one
``SaddleFactorization.from_kernels`` call, which gives each spectrum bitwise
as its one-kernel call does: with eigenvectors a task takes one kernel; with
eigenvalues alone (``vectors=False``) it takes floor(500 / n) + 1, the
smallest stack numpy solves without the GIL.  A grid that fits in one such
stack runs inline, without a pool, whether or not eigenvectors are wanted:
at that size the pool's start-up costs more than it overlaps (criteria-grid's
10 eps at n = 50: 0.0142 s inline against 0.0175 s pooled, the medians of 10
runs of the fastest call on a 2-vCPU VM).

While a pool runs, numpy's OpenBLAS runs one thread (its count is restored
afterwards): its threads and the pool's would share the same CPUs.  Where
that count cannot be reached, and neither OPENBLAS_NUM_THREADS nor
OMP_NUM_THREADS pins BLAS to one thread, the pool has one worker.
FLATGP_THREADS sets the pool's size.

nugget-compare stays serial: its two variants have different matrices, so no
stack holds both, and one 400 x 400 ``eigvalsh`` holds the GIL.
"""

import ctypes
import functools
import glob
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

import numpy as np

from .errors import FlatGpError
from .polybasis import as_design
from .spm import SaddleFactorization

# numpy's gufuncs, numpy.linalg's among them, release the GIL only when a
# call's outer size times its core size exceeds 500.  eigh counts its (n, n)
# eigenvector output and releases it at any n; eigvalsh counts its n
# eigenvalues, so one matrix with n <= 500 holds the GIL for the whole solve
# and the pool's workers take turns.  Measured with one BLAS thread on a
# 2-vCPU VM, 20 eigvalsh of 400 x 400 matrices took 0.169 s on one worker,
# 0.173 s on two, and 0.091 s on two in stacks of two.  A stack of
# floor(500 / n) + 1 matrices is the smallest call that runs without the GIL.
_GIL_FREE_SIZE = 500


def threads():
    """The pool's size: FLATGP_THREADS if set, else the CPUs this process may
    run on (at most 8).  A FLATGP_THREADS that is not an integer raises
    FlatGpError."""
    raw = os.environ.get("FLATGP_THREADS", "").strip()
    if raw:
        try:
            return max(1, int(raw))
        except ValueError:
            raise FlatGpError(f"FLATGP_THREADS must be an integer, got {raw!r}") from None
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(8, cpus)


# glibc's mallopt parameter for the number of malloc arenas
_M_ARENA_MAX = -8


def _share_main_heap():
    """Have the pool's worker threads allocate from the main heap (glibc).

    By default glibc gives each worker thread a heap of its own.  After the
    pool exits, those heaps keep the n x n arrays the grid freed, between
    1 and 9 MB per worker at n=400 depending on how the grid was scheduled,
    and no other thread reuses them.  With one heap, the next command reuses
    what a grid freed, and a process running many commands has the same
    footprint from run to run.  The workers allocate a few arrays per grid
    cell, so they seldom wait on the shared heap's lock.  Heaps made by
    threads before the first call stay in use; without glibc this does
    nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt(_M_ARENA_MAX, 1)


@functools.cache
def _openblas():
    """The thread-count getter and setter of the OpenBLAS that numpy bundles
    (``libscipy_openblas64_`` in ``numpy.libs``), or None where there is none.
    Loading the library again returns the instance numpy already uses."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas64_*"))):
        try:
            lib = ctypes.CDLL(path)
            get = lib.scipy_openblas_get_num_threads64_
            put = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        put.argtypes, put.restype = [ctypes.c_int], None
        return get, put
    return None


class _BlasPin:
    """One OpenBLAS thread while at least one pool runs.  The count is
    process-wide, so pools started from several threads share one pin: the
    first pins, and the last restores the count it found."""

    def __init__(self):
        self._lock = threading.Lock()
        self._pools = 0
        self._saved = None

    @contextmanager
    def __call__(self):
        """Yield whether BLAS runs one thread inside the block."""
        blas = _openblas()
        if blas is None:
            yield any(
                os.environ.get(var, "").strip() == "1"
                for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
            )
            return
        get, put = blas
        with self._lock:
            if self._pools == 0:
                self._saved = get()
                if self._saved > 1:
                    put(1)
            self._pools += 1
        try:
            yield True
        finally:
            with self._lock:
                self._pools -= 1
                if self._pools == 0 and self._saved > 1:
                    put(self._saved)


_one_blas_thread = _BlasPin()


def map_spectra(fn, kernels, X, nugget: float = 0.0, *, vectors: bool) -> list:
    """``[fn(spectrum, kernel) for kernel in kernels]``, in order, where
    ``spectrum`` is the GP spectrum ``SaddleFactorization.from_kernel(kernel,
    X, nugget, vectors=vectors)``.

    The spectra are factored in stacks and the stacks run concurrently (see
    the module docstring); ``fn`` runs in the worker that factored its
    spectrum, so it must not change state that other calls read.  An
    exception raised by ``fn`` or a factorization propagates as a serial loop
    would raise it: the first failing kernel's, in grid order.
    """
    kernels = list(kernels)
    design = as_design(X)
    # read on inline grids too, so that a malformed FLATGP_THREADS always fails
    workers = threads()
    stack = _GIL_FREE_SIZE // design.n + 1
    size = 1 if vectors else stack

    def task(start):
        part = kernels[start:start + size]
        specs = SaddleFactorization.from_kernels(part, design, nugget, vectors=vectors)
        return [fn(spec, kernel) for spec, kernel in zip(specs, part)]

    starts = range(0, len(kernels), size)
    if len(kernels) <= stack:
        return [out for start in starts for out in task(start)]
    with _one_blas_thread() as pinned:
        _share_main_heap()
        with ThreadPoolExecutor(max_workers=workers if pinned else 1) as pool:
            return [out for part in pool.map(task, starts) for out in part]
