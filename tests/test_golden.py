"""The ten commands' outputs on two seeded datasets match the committed ones.

``tests/golden/`` holds the CSV and JSON of every command on a d=1 Matern-3/2
and a d=2 Gaussian dataset, made by ``tests/golden/regenerate.py``.  One
subprocess runs all twenty commands again with one BLAS thread (their digits
depend on the thread count), and every field is compared: text fields
(statuses, cases, criterion names, flags) and exit codes exactly, numbers at
the relative tolerance stated below for their column, and the path-valued
fields (``config.data``, ``config.out``, ``outputs``) not at all.
"""

import csv
import json
import math
import os
import subprocess
import sys

import pytest

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
SRC = os.path.join(os.path.dirname(GOLDEN), os.pardir, "src")

# Relative tolerance of a number, by (command, column) for CSV columns and by
# (command, key) for JSON metrics; a field not listed here takes DEFAULT_RTOL.
# Each is about ten times the largest change that moving every input value
# by a few ulps (relative 4e-16) made, over five such perturbations, rounded
# up to a power of ten: round-off of another BLAS build moves the outputs by
# as much.
DEFAULT_RTOL = 1e-8
RTOL = {
    # pred-curve's large-gamma cells are sums (g kq) @ a whose terms of size
    # g |a| cancel down to O(1): from gamma ~ 1e7 upwards the curve keeps only
    # a few digits (ROADMAP item 8; perturbed inputs moved the d=2 cells at
    # gamma = 1e12 by 1e-2), so these columns get a wide tolerance instead of
    # a shorter gamma grid
    ("pred-curve", "pred_a"): 1e-1,
    ("pred-curve", "pred_b"): 1e-1,
    # at large gains round-off eigenvalues of the kernel matrix add to the
    # trace: nugget-compare's plain variant drifts by design
    ("nugget-compare", "dof"): 1e-2,
    ("dof-grid", "dof"): 1e-3,
    # converge's deviations are differences of GP and limit posteriors that
    # shrink with eps, so they carry the round-off of the small-eps GP solves
    ("converge", "mean_dev"): 1e-5,
    ("converge", "var_dev"): 1e-5,
    ("converge", "final_dev"): 1e-5,
    ("converge", "slope"): 1e-6,
    ("converge", "slope_var"): 1e-6,
    ("criteria-grid", "value"): 1e-7,
}
# Fields whose value is round-off itself: compared in absolute terms.
ATOL = {
    ("isofreedom", "residual"): 1e-12,  # trace-solve residual, ~1e-16
    ("equiv-check", "max_dev"): 1e-10,  # deviation of two equivalent models, ~1e-13
}
PATH_FIELDS = {("config", "data"), ("config", "out"), ("outputs",)}


def _close(command, field, want, got):
    if isinstance(want, str) or isinstance(got, str):
        try:
            want, got = float(want), float(got)
        except ValueError:
            return want == got
    if isinstance(want, bool) or isinstance(got, bool) or want is None or got is None:
        return want == got
    if math.isnan(want) or math.isnan(got):
        return math.isnan(want) and math.isnan(got)
    if (command, field) in ATOL:
        return abs(want - got) <= ATOL[(command, field)]
    rtol = RTOL.get((command, field), DEFAULT_RTOL)
    return abs(want - got) <= rtol * max(abs(want), abs(got))


def _text_column(name):
    return name in ("status", "criterion", "variant")


def compare_csv(command, want_path, got_path):
    """The mismatching cells of two CSV files, as messages."""
    with open(want_path) as fh:
        want = list(csv.reader(fh))
    with open(got_path) as fh:
        got = list(csv.reader(fh))
    if want[0] != got[0] or len(want) != len(got):
        return [f"header or row count: {want[0]} x {len(want)} vs {got[0]} x {len(got)}"]
    bad = []
    for i, (a, b) in enumerate(zip(want[1:], got[1:]), start=1):
        for col, x, y in zip(want[0], a, b):
            ok = x == y if _text_column(col) else _close(command, col, x, y)
            if not ok:
                bad.append(f"row {i} {col}: {x} vs {y}")
    return bad


def compare_json(command, want, got, path=()):
    """The mismatching fields of two JSON values, as messages."""
    if path in PATH_FIELDS:
        return []
    if isinstance(want, dict) and isinstance(got, dict):
        if set(want) != set(got):
            return [f"{'.'.join(path)}: keys {sorted(want)} vs {sorted(got)}"]
        return [m for k in want for m in compare_json(command, want[k], got[k], path + (k,))]
    if isinstance(want, list) and isinstance(got, list):
        if len(want) != len(got):
            return [f"{'.'.join(path)}: length {len(want)} vs {len(got)}"]
        return [
            m for i, (a, b) in enumerate(zip(want, got))
            for m in compare_json(command, a, b, path + (str(i),))
        ]
    field = path[-1] if path else ""
    # a number's key names its field; list entries take their parent's key
    while field.isdigit() and len(path) > 1:
        path = path[:-1]
        field = path[-1]
    if isinstance(want, (int, float)) and isinstance(got, (int, float)) and not (
        isinstance(want, bool) or isinstance(got, bool)
    ):
        return [] if _close(command, field, want, got) else [f"{field}: {want} vs {got}"]
    return [] if want == got else [f"{field}: {want!r} vs {got!r}"]


def run_commands(outdir):
    """All twenty commands on the committed datasets, in one subprocess with
    one BLAS thread."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.abspath(SRC), env.get("PYTHONPATH")]))
    subprocess.run(
        [sys.executable, os.path.join(GOLDEN, "regenerate.py"), "--outputs-only", "--out", str(outdir)],
        env=env, check=True, timeout=120,
    )


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("golden")
    run_commands(outdir)
    return outdir


def _golden_names():
    with open(os.path.join(GOLDEN, "exit_codes.json")) as fh:
        return sorted(json.load(fh))


def test_exit_codes(outputs):
    with open(os.path.join(GOLDEN, "exit_codes.json")) as fh:
        want = json.load(fh)
    with open(os.path.join(outputs, "exit_codes.json")) as fh:
        assert json.load(fh) == want


@pytest.mark.parametrize("name", _golden_names())
def test_outputs_match(outputs, name):
    command = name.split("_", 1)[1]
    for ext in ("csv", "json"):
        want_path = os.path.join(GOLDEN, f"{name}.{ext}")
        got_path = os.path.join(outputs, f"{name}.{ext}")
        assert os.path.exists(want_path) == os.path.exists(got_path), got_path
        if not os.path.exists(want_path):
            continue
        if ext == "csv":
            bad = compare_csv(command, want_path, got_path)
        else:
            with open(want_path) as fa, open(got_path) as fb:
                bad = compare_json(command, json.load(fa), json.load(fb))
        assert not bad, f"{name}.{ext}: " + "; ".join(bad[:5])
