"""Every command fails cleanly on tiny, degenerate inputs.

In-process ``cli.main`` runs each command on small random designs: duplicate
points, collinear designs, constant targets, 1-column query CSVs, one-point
and reversed grids, and noise levels from 1e-12 to 1e3.  Whatever the
numerics do, the command returns 0, 1 or 2 and raises nothing; on 0 or 2 its
JSON summary is strict JSON and every CSV row is as wide as its header; on 2
the summary names at least one error.  Usage errors return 1: a malformed
grid ('a:b', 'a:b:0'), a grid with a NaN or infinite endpoint, a NaN or
infinite scalar option, and a data CSV whose header names a column twice;
they write no file.
"""

import csv
import json
import os
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from flatgp.cli import main
from flatgp.dataio import format_float

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

KERNELS = (
    ("--kernel", "gaussian"),
    ("--kernel", "exponential"),
    ("--kernel", "matern", "--nu", "0.5"),
    ("--kernel", "matern", "--nu", "1.5"),
    ("--kernel", "matern", "--nu", "2.5"),
    ("--kernel", "zero"),
)


def log_uniform(lo, hi):
    return st.floats(lo, hi).map(lambda u: 10.0**u)


# the usage errors a grid spec can hold, each drawn about once in 16 specs
BAD_GRIDS = ("two-part", "no-points", "nan", "inf")

# the float options each command takes besides --sigma2 and --nu
FLOAT_OPTIONS = {
    "fit": ("--eps", "--gamma", "--nugget"),
    "predict": ("--eps", "--gamma", "--nugget"),
    "dof-grid": ("--nugget",),
    "criteria-grid": ("--nugget",),
    "isofreedom": ("--dof",),
    "matched": ("--eps", "--gamma"),
    "converge": ("--gamma0", "--tol"),
    "equiv-check": ("--gamma0", "--tol"),
    "pred-curve": ("--eps",),
    "nugget-compare": ("--eps", "--nugget"),
}


@st.composite
def grids(draw, lo, hi, max_points=4):
    """An 'a:b:k' log grid and whether it is valid: one point, or k points
    ascending or descending; or a malformed spec ('a:b', 'a:b:0') or one with
    a NaN or infinite endpoint."""
    shape = draw(st.sampled_from(["one-point", "ascending", "descending"] * 4 + list(BAD_GRIDS)))
    a, b = sorted([draw(log_uniform(lo, hi)), draw(log_uniform(lo, hi))])
    k = draw(st.integers(2, max_points))
    if shape == "one-point":
        return f"{a!r}:{b!r}:1", True
    if shape == "descending":
        a, b = b, a
    if shape == "two-part":
        return f"{a!r}:{b!r}", False
    if shape == "no-points":
        return f"{a!r}:{b!r}:0", False
    if shape in ("nan", "inf"):
        ends = [repr(a), shape] if draw(st.booleans()) else [shape, repr(b)]
        return f"{ends[0]}:{ends[1]}:{k}", False
    return f"{a!r}:{b!r}:{k}", True


@st.composite
def designs(draw):
    n = draw(st.integers(2, 40))
    d = draw(st.sampled_from([1, 2, 3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["uniform", "duplicates", "collinear"]))
    if kind == "collinear":
        # every point on one line
        t = rng.uniform(0.0, 1.0, size=(n, 1))
        X = rng.uniform(0.0, 0.5, size=d) + t * rng.uniform(-0.5, 0.5, size=d)
    else:
        X = rng.uniform(0.0, 1.0, size=(n, d))
    if kind == "duplicates":
        # each point past the first repeats an earlier one with probability 1/2
        for i in range(1, n):
            if rng.random() < 0.5:
                X[i] = X[rng.integers(i)]
    if draw(st.booleans()):
        y = np.full(n, draw(st.sampled_from([0.0, 1.0, -3.5])))
    else:
        y = rng.normal(size=n)
    queries = rng.uniform(0.0, 1.0, size=(draw(st.integers(1, 5)), d))
    return X, y, queries


@st.composite
def runs(draw):
    """A command, its design, its options (paths filled in by the test), and
    whether those options hold a usage error."""
    command = draw(st.sampled_from(COMMANDS))
    X, y, queries = draw(designs())
    n = len(X)
    valid = []

    def grid(*bounds):
        spec, ok = draw(grids(*bounds))
        valid.append(ok)
        return spec

    args = list(draw(st.sampled_from(KERNELS)))
    args += ["--sigma2", repr(draw(log_uniform(-12, 3))), "--seed", str(draw(st.integers(0, 99)))]
    args += ["--format", draw(st.sampled_from(["csv", "json"]))]
    eps, gamma = repr(draw(log_uniform(-2, 1.5))), repr(draw(log_uniform(-3, 3)))
    query = draw(st.sampled_from(["default", "csv", "grid", "list", "two-part grid"]))
    if command in ("fit", "predict"):
        args += ["--eps", eps, "--gamma", gamma]
    if command in ("fit", "predict", "dof-grid", "criteria-grid") and draw(st.booleans()):
        args += ["--nugget", repr(draw(log_uniform(-12, 0)))]
    if command == "predict" and draw(st.booleans()):
        args += ["--basis-degree", str(draw(st.integers(0, 3)))]
    if command in ("dof-grid", "criteria-grid"):
        args += ["--eps-grid", grid(-2, 1.5), "--gamma-grid", grid(-4, 8)]
    if command == "isofreedom":
        args += ["--eps-grid", grid(-2, 1.5, 5)]
        args += ["--dof", repr(draw(st.floats(0.1, n + 1.0)))]
    if command == "matched":
        args += ["--eps", eps, "--gamma", gamma]
    if command in ("converge", "equiv-check"):
        args += ["--p", str(draw(st.integers(0, 6)))]
    if command == "converge":
        args += ["--eps-grid", grid(-2, 0, 5)]
    if command == "pred-curve":
        args += ["--eps", eps, "--gamma-grid", grid(-8, 12, 6)]
        for flag in ("--xa", "--xb"):
            # one value for every coordinate, or one per coordinate; '=' keeps a
            # leading minus from reading as an option
            k = draw(st.sampled_from([1, X.shape[1]]))
            point = [draw(st.floats(-0.5, 1.5)) for _ in range(k)]
            args.append(f"{flag}=" + ",".join(repr(v) for v in point))
    if command == "nugget-compare":
        args += ["--eps", eps, "--gamma-grid", grid(-2, 12, 6)]
        args += ["--nugget", repr(draw(log_uniform(-12, 0)))]
    if draw(st.integers(0, 7)) == 0:
        # one float option, drawn or not, set to a NaN or an infinity; '='
        # keeps '-inf' from reading as an option
        flag = draw(st.sampled_from(("--sigma2", "--nu") + FLOAT_OPTIONS[command]))
        if flag in args:
            del args[args.index(flag):args.index(flag) + 2]
        args.append(f"{flag}=" + draw(st.sampled_from(["nan", "inf", "-inf"])))
        valid.append(False)
    if command not in ("predict", "matched", "converge"):
        query = None
    valid.append(query != "two-part grid")
    # the data CSV repeats the name of its first column, about once in 8 runs
    repeated = draw(st.integers(0, 7)) == 0
    valid.append(not repeated)
    return command, X, y, queries, query, args, repeated, all(valid)


def write_table(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(format_float(v) for v in row) + "\n")


def strict_json(text):
    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(text, parse_constant=refuse)


class TestCliFuzz:
    @given(run=runs())
    @settings(max_examples=120, deadline=None)
    def test_every_command_fails_cleanly(self, run):
        command, X, y, queries, query, args, repeated, valid = run
        d = X.shape[1]
        names = [f"x{j + 1}" for j in range(d)]
        with tempfile.TemporaryDirectory() as tmp:
            data = os.path.join(tmp, "data.csv")
            if repeated:
                # an extra column under the first column's name
                write_table(data, names + [names[0], "y"], np.column_stack([X, X[:, :1], y]))
            else:
                write_table(data, names + ["y"], np.column_stack([X, y]))
            argv = [command, "--data", data, "--out", os.path.join(tmp, "out")] + args
            if query == "csv":
                # d = 1 gives a 1-column query CSV
                argv += ["--query", os.path.join(tmp, "query.csv")]
                write_table(argv[-1], names, queries)
            elif query == "grid":
                argv += ["--query", f"{queries[0, 0]:.17g}:{queries[-1, 0]:.17g}:{len(queries)}"]
            elif query == "two-part grid":
                argv += ["--query", f"{queries[0, 0]:.17g}:{queries[-1, 0]:.17g}"]
            elif query == "list":
                argv += ["--query", ",".join(format_float(v) for v in queries.ravel())]
            code = main(argv)
            assert code in (0, 1, 2), (argv, code)
            if not valid:
                assert code == 1, (argv, code)
                assert not [f for f in os.listdir(tmp) if f.startswith("out")], argv
            if code == 1:
                return
            with open(os.path.join(tmp, "out.json")) as fh:
                summary = strict_json(fh.read())
            assert bool(summary["errors"]) == (code == 2), (argv, summary["errors"])
            tables = []
            if "table" in summary:
                tables.append([summary["table"]["header"]] + summary["table"]["rows"])
            if os.path.exists(os.path.join(tmp, "out.csv")):
                with open(os.path.join(tmp, "out.csv"), newline="") as fh:
                    tables.append(list(csv.reader(fh)))
            for header, *rows in tables:
                assert all(len(row) == len(header) for row in rows), argv
