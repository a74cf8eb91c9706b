"""Workload definitions: seeded datasets and the ten command lines per workload.

Every workload runs all ten ``flatgp`` commands, in the order of ``COMMANDS``.
The command lines follow the CLI examples of the project README; they differ
between workloads only in the kernel, the exponents of the flat-limit family
and the query set.
"""

import os
from dataclasses import dataclass

import numpy as np

COMMANDS = (
    "fit",
    "predict",
    "dof-grid",
    "criteria-grid",
    "isofreedom",
    "matched",
    "converge",
    "equiv-check",
    "pred-curve",
    "nugget-compare",
)

SIGMA2 = 0.01
NOISE_SD = 0.1

# Grid specs shared by the command lines and the output checks.
DOF_GRID = ("0.02:2:20", "1e-3:1e9:20")
CRITERIA_GRID = ("0.05:1:10", "0.01:100:10")
ISO_DOF, ISO_GRID = 2.5, "0.3:0.03:10"
FIT_EPS, FIT_GAMMA = 2.0, 1.0
MATCHED_EPS, MATCHED_GAMMA = 2.0, 5.0
CURVE_EPS, CURVE_GAMMAS, CURVE_XA, CURVE_XB = 0.5, "1e-8:1e12:200", 0.2, 0.8
NUGGET_EPS, NUGGET_GAMMAS, NUGGET = 0.05, "1e2:1e12:40", 1e-6


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n: int
    d: int
    kernel: tuple        # CLI kernel arguments of the GP commands
    family: str          # kernel family name, as the checks evaluate it
    n_query: int         # query points of predict, matched and converge
    converge: tuple      # kernel and family arguments of converge
    equiv: tuple         # kernel and family arguments of equiv-check
    converge_case: str   # case-table entry of the converge family
    equiv_case: str      # case-table entry of the equiv-check family
    equiv_basis: int     # basis size of the equiv-check limit model


MATERN = ("--kernel", "matern", "--nu", "1.5")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="spline-n400",
            why="d=1 n=400 Matern-3/2: factorization-bound; saddle-point fits of "
            "polyharmonic spline limits dominate",
            n=400, d=1, kernel=MATERN, family="matern15", n_query=200,
            converge=("--kernel", "exponential", "--p", "1", "--eps-grid", "0.025:0.2:4"),
            equiv=MATERN + ("--p", "3"),
            converge_case="spline-regression", equiv_case="spline-regression",
            equiv_basis=2,
        ),
        Workload(
            name="query-n150",
            why="d=1 n=150 with 3000-point query grids: per-query cross kernels, "
            "solves and variances dominate; factorizations stay small",
            n=150, d=1, kernel=MATERN, family="matern15", n_query=3000,
            converge=("--kernel", "exponential", "--p", "1", "--eps-grid", "0.025:0.2:4"),
            equiv=MATERN + ("--p", "3"),
            converge_case="spline-regression", equiv_case="spline-regression",
            equiv_basis=2,
        ),
        Workload(
            name="poly-n50-d2",
            why="d=2 n=50 Gaussian: polynomial limits (Wronskian, d=2 Vandermonde); "
            "interpreter glue, bisection and pool start-up dominate",
            n=50, d=2, kernel=("--kernel", "gaussian"), family="gaussian", n_query=50,
            converge=("--p", "2", "--eps-grid", "0.2:0.01:6"),
            equiv=("--kernel", "gaussian", "--p", "2"),
            converge_case="penalized-polynomial", equiv_case="penalized-polynomial",
            equiv_basis=1,
        ),
    )
}


# Defined and checked like the others, but not in BENCHMARK.json: with it,
# the runs of all workloads at a steady run length do not fit the time the
# benchmark's runs may take.  Run it by hand with ``--workload query-n150``.
BY_HAND = {"query-n150"}


def target(X):
    """Smooth regression target on [0, 1]^d."""
    return np.sum(np.sin(3.0 * X + 0.5 * np.arange(X.shape[1])), axis=1)


@dataclass(frozen=True)
class Inputs:
    """Generated data of one run and the files that hold it."""

    X: np.ndarray
    y: np.ndarray
    queries: np.ndarray
    data_path: str
    query_arg: str   # the --query argument: an a:b:k grid (d=1) or a CSV path


def _write_points(path, columns, rows):
    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(format(float(v), ".17g") for v in row) + "\n")


def make_inputs(w: Workload, seed: int, workdir: str, n: int = None, n_query: int = None) -> Inputs:
    """Write the seeded dataset (uniform design, smooth target plus noise).

    ``n`` and ``n_query`` override the workload sizes (the self-test uses
    tiny ones).  For d=1 the queries are an evenly spaced grid passed as
    ``0:1:k``; for d>1 they are seeded uniform points passed as a CSV.
    """
    n = w.n if n is None else n
    n_query = w.n_query if n_query is None else n_query
    rng = np.random.default_rng(seed)
    X = rng.uniform(0.0, 1.0, size=(n, w.d))
    y = target(X) + NOISE_SD * rng.normal(size=n)
    # the CSV round trip is exact at 17 significant digits
    names = [f"x{j + 1}" for j in range(w.d)]
    data_path = os.path.join(workdir, "data.csv")
    _write_points(data_path, names + ["y"], np.column_stack([X, y]))
    if w.d == 1:
        queries = np.linspace(0.0, 1.0, n_query)[:, None]
        query_arg = f"0:1:{n_query}"
    else:
        queries = rng.uniform(0.0, 1.0, size=(n_query, w.d))
        query_arg = os.path.join(workdir, "queries.csv")
        _write_points(query_arg, names, queries)
    return Inputs(X=X, y=y, queries=queries, data_path=data_path, query_arg=query_arg)


def command_lines(w: Workload, inputs: Inputs, seed: int, outdir: str) -> list:
    """(command, argv) for each command, in pass order."""
    k = list(w.kernel)
    q = ["--query", inputs.query_arg]
    extra = {
        "fit": k + ["--eps", str(FIT_EPS), "--gamma", str(FIT_GAMMA)],
        "predict": k + ["--eps", str(FIT_EPS), "--gamma", str(FIT_GAMMA)] + q,
        "dof-grid": k + ["--eps-grid", DOF_GRID[0], "--gamma-grid", DOF_GRID[1]],
        "criteria-grid": k + ["--eps-grid", CRITERIA_GRID[0], "--gamma-grid", CRITERIA_GRID[1]],
        "isofreedom": k + ["--dof", str(ISO_DOF), "--eps-grid", ISO_GRID],
        "matched": k + ["--eps", str(MATCHED_EPS), "--gamma", str(MATCHED_GAMMA)] + q,
        "converge": list(w.converge) + q,
        "equiv-check": list(w.equiv),
        "pred-curve": k + ["--eps", str(CURVE_EPS), "--gamma-grid", CURVE_GAMMAS,
                           "--xa", str(CURVE_XA), "--xb", str(CURVE_XB)],
        "nugget-compare": k + ["--eps", str(NUGGET_EPS), "--gamma-grid", NUGGET_GAMMAS,
                               "--nugget", str(NUGGET)],
    }
    common = ["--data", inputs.data_path, "--sigma2", str(SIGMA2), "--seed", str(seed)]
    return [
        (c, [c] + common + ["--out", os.path.join(outdir, c)] + extra[c]) for c in COMMANDS
    ]
