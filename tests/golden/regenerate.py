r"""Regenerate the golden outputs of all ten commands on two seeded datasets.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/golden/regenerate.py

writes the seeded datasets (d=1 Matern-3/2 and d=2 Gaussian) and then
every command's CSV and JSON into this directory, with ``exit_codes.json``.
``tests/test_golden.py`` runs the same commands on the committed datasets
(``--outputs-only --out DIR``) and compares field by field.  BLAS must run
one thread: OpenBLAS's threaded reductions sum in another order, so a
command's digits depend on the thread count.  The commands run with this
directory as the working directory, so the data and query paths in the JSON
config echo are relative.

A change that regenerates these files names each moved field and its size in
CHANGES.md.

A change meant to keep every output byte-identical checks that by hand: run

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/golden/regenerate.py --outputs-only --out DIR

on the parent's tree and on the change's, each into its own directory, and
diff the two, ignoring the JSON lines that echo the ``out``, ``outputs``
(``csv`` and ``json``), ``data`` and ``query`` paths:

    diff -r -I '"\(out\|csv\|json\|data\|query\)": ' PARENT_DIR CHANGE_DIR

Every CSV, every other JSON line and ``exit_codes.json`` must match.
"""

import argparse
import json
import os
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))

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

MATERN = ["--kernel", "matern", "--nu", "1.5"]
GAUSSIAN = ["--kernel", "gaussian"]

# name: (seed, n, d, kernel arguments, --query, converge and equiv-check arguments)
WORKLOADS = {
    "matern-d1": (
        7, 40, 1, MATERN, "0:1:25",
        ["--kernel", "exponential", "--p", "1", "--eps-grid", "0.025:0.2:4"],
        MATERN + ["--p", "3"],
    ),
    "gaussian-d2": (
        7, 30, 2, GAUSSIAN, "gaussian-d2_queries.csv",
        GAUSSIAN + ["--p", "2", "--eps-grid", "0.2:0.01:6"],
        GAUSSIAN + ["--p", "2"],
    ),
}


def _write_points(path, columns, rows):
    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(format(float(v), ".17g") for v in row) + "\n")


def write_inputs(directory):
    """The seeded datasets (uniform design, smooth target plus noise 0.1)
    and the d=2 query points."""
    for name, (seed, n, d, *_rest) in WORKLOADS.items():
        rng = np.random.default_rng(seed)
        X = rng.uniform(0.0, 1.0, size=(n, d))
        y = np.sum(np.sin(3.0 * X + 0.5 * np.arange(d)), axis=1) + 0.1 * rng.normal(size=n)
        names = [f"x{j + 1}" for j in range(d)]
        _write_points(os.path.join(directory, f"{name}_data.csv"), names + ["y"], np.column_stack([X, y]))
        if d > 1:
            _write_points(os.path.join(directory, f"{name}_queries.csv"), names, rng.uniform(0, 1, (20, d)))


def command_lines(name, outdir):
    """(output name, argv) of each command on one workload; the --out prefix
    is relative to this directory, so the committed outputs name no absolute
    path."""
    outdir = os.path.relpath(outdir, HERE)
    _seed, _n, _d, kernel, query, converge, equiv = WORKLOADS[name]
    q = ["--query", query]
    extra = {
        "fit": kernel + ["--eps", "2", "--gamma", "1"],
        "predict": kernel + ["--eps", "2", "--gamma", "1"] + q,
        "dof-grid": kernel + ["--eps-grid", "0.02:2:20", "--gamma-grid", "1e-3:1e9:20"],
        "criteria-grid": kernel + ["--eps-grid", "0.05:1:10", "--gamma-grid", "0.01:100:10"],
        "isofreedom": kernel + ["--dof", "2.5", "--eps-grid", "0.3:0.03:10"],
        "matched": kernel + ["--eps", "2", "--gamma", "5"] + q,
        "converge": converge + q,
        "equiv-check": equiv,
        # the benchmark's full gamma range: its large-gamma cells cancel
        "pred-curve": kernel + ["--eps", "0.5", "--gamma-grid", "1e-8:1e12:200",
                                "--xa", "0.2", "--xb", "0.8"],
        "nugget-compare": kernel + ["--eps", "0.05", "--gamma-grid", "1e2:1e12:40",
                                    "--nugget", "1e-6"],
    }
    common = ["--data", f"{name}_data.csv", "--sigma2", "0.01", "--seed", "7"]
    return [
        (f"{name}_{c}", [c] + common + ["--out", os.path.join(outdir, f"{name}_{c}")] + extra[c])
        for c in COMMANDS
    ]


def run_all(outdir):
    """Run every command of both workloads; their exit codes by output name."""
    from flatgp.cli import main

    os.chdir(HERE)
    codes = {}
    for name in WORKLOADS:
        for out, argv in command_lines(name, outdir):
            codes[out] = main(argv)
    with open(os.path.join(outdir, "exit_codes.json"), "w") as fh:
        json.dump(codes, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return codes


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=HERE, help="directory for the outputs")
    ap.add_argument("--outputs-only", action="store_true",
                    help="run the commands on the committed datasets; write no inputs")
    args = ap.parse_args(argv)
    if os.environ.get("OPENBLAS_NUM_THREADS") != "1":
        sys.exit("set OPENBLAS_NUM_THREADS=1: the outputs' digits depend on BLAS threads")
    outdir = os.path.abspath(args.out)
    if not args.outputs_only:
        write_inputs(HERE)
    run_all(outdir)


if __name__ == "__main__":
    main()
