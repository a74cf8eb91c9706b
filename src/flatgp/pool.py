"""The pool: one evaluator for every loop over a kernel grid, and for the
trials of an equivalence check; and the process's heap policy.

``map_pooled(fn, items)`` returns ``fn(item)`` for each item, in order, run
on the pool's workers; it is the one place a pool is started.
``map_spectra(fn, kernels, X)`` factors the GP spectrum of each kernel on one
design through it and returns ``fn(spectrum)`` for each, in grid order; the
spectrum records its kernel at unit gain (``spectrum.model.kernel``) and
carries the kernel's gain (``spectrum.gain``).  The isofreedom curve, the
convergence study and the CLI's dof-grid and criteria-grid loop over epsilon
through it, and each keeps its per-epsilon work inside ``fn``, so that the
work runs in the pool's workers.

``flatlimit.check_pred_equiv`` (the CLI's equiv-check) runs its independent
trials through ``map_pooled`` on designs of at least
``flatlimit._POOLED_TRIALS_SIZE`` points and inline below; the measurements
that set that size stand beside it.  The trials reduce to three maxima,
whose order does not matter, so under one BLAS thread a pooled check is
bitwise the inline one.

Tasks are stacks of consecutive kernels, factored by one
``SaddleFactorization.from_kernels`` call, which gives each spectrum bitwise
as its one-kernel call does: with eigenvectors a task takes one kernel; with
eigenvalues alone (``vectors=False``) it takes floor(500 / n) + 1, the
smallest stack numpy solves without the GIL.  A grid that fits in one such
stack runs inline, without a pool, whether or not eigenvectors are wanted:
at that size the pool's start-up costs more than it overlaps (criteria-grid's
10 eps at n = 50: 0.0142 s inline against 0.0175 s pooled, the medians of 10
runs of the fastest call on a 2-vCPU VM).

The pool has one worker per CPU this process may run on, at most 8; to cap
it, restrict the CPU set (``taskset -c 0 flatgp ...``), which numpy's
OpenBLAS reads the same way.  While a pool runs, OpenBLAS runs one thread
(its count is restored afterwards): its threads and the pool's would share
the same CPUs.  Where that count cannot be reached, and neither
OPENBLAS_NUM_THREADS nor OMP_NUM_THREADS pins BLAS to one thread, the pool
has one worker.

A nugget is no argument here: ``fn`` takes ``spectrum.shifted(nugget)``
itself, so the shift runs in the worker.  nugget-compare factors one
spectrum and needs no pool: its nugget variant is that spectrum shifted.

The heap has one policy, ``keep_heap()``: on glibc, three ``mallopt`` calls
that change this process's allocator alone.  ``M_ARENA_MAX`` 1 gives every
thread the one heap; ``M_MMAP_THRESHOLD`` 256 MiB takes blocks below that
size from it rather than mapping each on its own; ``M_TRIM_THRESHOLD``
512 MiB returns free memory at the heap's top to the system only once more
than that is free there.  ``cli.main`` calls it before its first command and
``map_pooled`` before it starts a pool, so library grids get it too; a second
call does nothing, and without glibc's ``mallopt`` the call does nothing.
Why: by default glibc maps each block from 128 KiB up on its own, raises that
threshold to the largest such block freed (at most 32 MiB) and trims the
heap's top beyond twice it.  So each of the dozen n x n arrays of a command
(1.28 MB at n = 400) is mapped anew or regrows a trimmed top, and the kernel
zero-fills its pages on first touch and takes them back on free: warm
``spline-n400`` benchmark commands made from 1.2k (fit) to 8k (dof-grid,
criteria-grid) minor page faults per call, and under the policy most calls
make 0 to a few dozen.  By default glibc also gives each worker thread a
heap of its own, which keeps the arrays a grid freed after the pool exits
(1 to 9 MB per worker at n = 400) where no other thread reuses them.  The cost: freed
memory stays in the heap for the next command, so a process keeps up to its
peak heap use, and up to 512 MiB free at the heap's top, instead of
returning it between commands; blocks of 256 MiB or more (an n x n float64
array from n = 5793) are still mapped and unmapped on their own.
``mallopt`` returns 0 for a value it refuses: ``keep_heap`` checks each
return, stops at the first refusal, and returns whether glibc took every
setting.  Heaps that threads made before the first call stay in use.
"""

import ctypes
import functools
import glob
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

import numpy as np

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
    """The pool's size: the number of CPUs this process may run on, at most 8."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(8, cpus)


# glibc's mallopt parameters, and the values the heap policy gives them
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_M_ARENA_MAX = -8
_HEAP_POLICY = ((_M_ARENA_MAX, 1), (_M_MMAP_THRESHOLD, 256 << 20), (_M_TRIM_THRESHOLD, 512 << 20))


@functools.cache
def keep_heap() -> bool:
    """Keep freed arrays in this process's one heap (glibc): True when glibc
    took every setting of the policy, False without ``mallopt`` or at its
    first refusal.  The module docstring states the policy and its cost."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    return all(mallopt(param, value) == 1 for param, value in _HEAP_POLICY)


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


def map_pooled(fn, items) -> list:
    """``[fn(item) for item in items]``, in order, run concurrently on the
    pool's workers with BLAS pinned to one thread (see the module docstring).

    A single item runs inline; so does a pool of one worker, under the same
    pin, so that its results are bitwise those of a larger pool.  ``fn`` must
    not change state that other calls read.  An exception raised by ``fn``
    propagates as a serial loop would raise it: the first failing item's, in
    order.
    """
    items = list(items)
    if len(items) < 2:
        return [fn(item) for item in items]
    with _one_blas_thread() as pinned:
        workers = threads() if pinned else 1
        if workers == 1:
            return [fn(item) for item in items]
        keep_heap()
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, items))


def map_spectra(fn, kernels, X, *, vectors: bool) -> list:
    """``[fn(spectrum) for kernel in kernels]``, in order, where
    ``spectrum`` is the GP spectrum ``SaddleFactorization.from_kernel(kernel,
    X, vectors=vectors)``.

    The spectra are factored in stacks and the stacks run through
    ``map_pooled`` (see the module docstring); ``fn`` runs in the worker that
    factored its spectrum, so it must not change state that other calls read.
    An exception raised by ``fn`` or a factorization propagates as a serial
    loop would raise it: the first failing kernel's, in grid order.
    """
    kernels = list(kernels)
    design = as_design(X)
    stack = _GIL_FREE_SIZE // design.n + 1
    size = 1 if vectors else stack

    def task(start):
        part = kernels[start:start + size]
        specs = SaddleFactorization.from_kernels(part, design, vectors=vectors)
        return [fn(spec) for spec in specs]

    starts = range(0, len(kernels), size)
    if len(kernels) <= stack:
        return [out for start in starts for out in task(start)]
    return [out for part in map_pooled(task, starts) for out in part]
