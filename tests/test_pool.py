import json
import os
import subprocess
import sys
import textwrap
import time

import numpy as np
import pytest

import flatgp
import flatgp.pool as pool_module
from flatgp.errors import UnreachableDof
from flatgp.kernels import Kernel
from flatgp.pool import map_spectra

X100 = np.linspace(0.0, 1.0, 100)


@pytest.fixture
def pools(monkeypatch):
    """The max_workers of every pool that map_spectra starts."""
    sizes = []
    executor = pool_module.ThreadPoolExecutor

    def recorded(max_workers):
        sizes.append(max_workers)
        return executor(max_workers=max_workers)

    monkeypatch.setattr(pool_module, "ThreadPoolExecutor", recorded)
    return sizes


def kernels(count):
    return [Kernel.matern(1.5, epsilon=0.5 + 0.1 * i) for i in range(count)]


@pytest.mark.parametrize("vectors", [False, True])
def test_a_grid_in_one_stack_runs_inline(vectors, pools, monkeypatch):
    monkeypatch.setenv("FLATGP_THREADS", "2")
    # at n = 100 a stack holds floor(500 / 100) + 1 = 6 kernels
    eps = lambda spec, kernel: kernel.epsilon  # noqa: E731
    assert map_spectra(eps, kernels(6), X100, vectors=vectors) == [k.epsilon for k in kernels(6)]
    assert pools == []
    assert map_spectra(eps, kernels(7), X100, vectors=vectors) == [k.epsilon for k in kernels(7)]
    assert pools == [2]


@pytest.mark.parametrize("vectors", [False, True])
def test_first_failure_in_grid_order_raises(vectors, monkeypatch):
    monkeypatch.setenv("FLATGP_THREADS", "2")
    grid = kernels(12)

    def fn(spec, kernel):
        # the second kernel fails last in time and first in grid order
        if kernel is grid[1]:
            time.sleep(0.2)
            raise UnreachableDof("second")
        if kernel is grid[9]:
            raise UnreachableDof("tenth")
        return spec.evals.max()

    with pytest.raises(UnreachableDof, match="second"):
        map_spectra(fn, grid, X100, vectors=vectors)


def test_without_openblas_control_the_pool_has_one_worker(pools, monkeypatch):
    monkeypatch.setattr(pool_module, "_openblas", lambda: None)
    monkeypatch.setenv("FLATGP_THREADS", "2")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    one = lambda spec, kernel: None  # noqa: E731
    map_spectra(one, kernels(7), X100, vectors=False)
    # BLAS may run threads of its own unless the environment pins it
    monkeypatch.setenv("OMP_NUM_THREADS", "1")
    map_spectra(one, kernels(7), X100, vectors=False)
    assert pools == [1, 2]


def test_a_pooled_command_runs_one_blas_thread_and_restores_the_count(tmp_path):
    # a fresh interpreter without thread variables, so that OpenBLAS starts
    # with its default count
    script = textwrap.dedent("""
        import json, sys
        import flatgp.doftools as doftools
        from flatgp import pool
        from flatgp.cli import main

        blas = pool._openblas()
        if blas is None:
            print(json.dumps(None))
            sys.exit()
        get, put = blas
        if get() == 1:
            put(2)  # one CPU: give the pin a count to change
        before, seen = get(), []
        solve = doftools.solve_trace

        def recorded(*args, **kwargs):
            seen.append(get())
            return solve(*args, **kwargs)

        doftools.solve_trace = recorded
        code = main(["isofreedom", "--n", "300", "--kernel", "matern", "--nu", "1.5",
                     "--dof", "2.5", "--eps-grid", "0.3:0.03:6", "--out", sys.argv[1]])
        print(json.dumps({"code": code, "before": before, "seen": seen, "after": get()}))
    """)
    src = os.path.dirname(os.path.dirname(flatgp.__file__))
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "FLATGP_THREADS")}
    env["PYTHONPATH"] = src
    done = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "iso")],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    found = json.loads(done.stdout)
    if found is None:
        pytest.skip("numpy bundles no libscipy_openblas64_ with thread control")
    # n = 300: three stacks of two eps, solved in the pool's workers
    assert found["code"] == 0 and found["seen"] == [1] * 6
    assert found["before"] > 1 and found["after"] == found["before"]
