#!/usr/bin/env python3
"""Fast self-test of the benchmark harness at tiny sizes (a few seconds).

    python3 perfbench/selftest.py

For every workload it runs one traced pass of all ten commands on a tiny
dataset and checks that

* every output check passes, and every oracle has cells to compare;
* every traced callable was rebound, and ``uninstall`` restored the originals;
* every traced callable recorded calls (except those flatgp never calls);
* each oracle and status check rejects a perturbed copy of the output;
* a round calls each command as often as planned, spread over the round,
  and is a plain pass when every command is called once;
* ``BENCHMARK.json`` lists exactly the metrics the harness reports.

Exit code 0 when all of this holds; 1 with the failures listed otherwise.
"""

import csv
import json
import os
import shutil
import sys

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

from oracles import Checker  # noqa: E402
from tracing import Tracer, pass_metrics, per_layer_specs  # noqa: E402
from worker import end_to_end_specs, repetitions, round_order, run_pass  # noqa: E402
from workloads import (  # noqa: E402
    COMMANDS,
    CRITERIA_GRID,
    DOF_GRID,
    BY_HAND,
    WORKLOADS,
    command_lines,
    make_inputs,
)

TINY = {1: (40, 25), 2: (30, 25)}   # d -> (n, queries)
SEED = 7
# traced callables no command reaches at this commit
NEVER_CALLED = {"accel.cross_dist_power", "linalg.eigvalsh"}


def _edit_csv(path, row, col, fn):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    rows[row + 1][col] = fn(rows[row + 1][col])
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def _edit_json(path, keys, fn):
    with open(path) as fh:
        doc = json.load(fh)
    node = doc
    for k in keys[:-1]:
        node = node[k]
    node[keys[-1]] = fn(node[keys[-1]])
    with open(path, "w") as fh:
        json.dump(doc, fh)


def bump(v):
    return repr(float(v) + 1e-3) if isinstance(v, str) else v + 1e-3


def mutations(checker, d):
    """(command, file suffix, locator, transform, expected message fragment)."""
    dof_cell = next(iter(checker.dof_cells))
    crit_cell = next(iter(checker.criteria_cells))
    curve_row = next(iter(checker.curve))
    nugget_row = next(iter(checker.nugget))
    swap_case = {"spline-regression": "penalized-polynomial"}
    dof_ng = int(DOF_GRID[1].split(":")[2])
    crit_ng = int(CRITERIA_GRID[1].split(":")[2])
    return [
        ("fit", ".json", ("metrics", "dof"), bump, "dof"),
        ("fit", ".csv", (0, d + 2), bump, "fitted"),
        ("predict", ".csv", (0, d + 1), bump, "variance"),
        ("dof-grid", ".csv", (dof_cell[0] * dof_ng + dof_cell[1], 2), bump, "dof at cell"),
        ("dof-grid", ".csv", (0, 3), lambda v: "ill-conditioned:x", "malformed status"),
        ("criteria-grid", ".csv", (3 * (crit_cell[0] * crit_ng + crit_cell[1]), 3), bump,
         "loo_mse at cell"),
        ("criteria-grid", ".csv", (0, 4), lambda v: "error", "malformed status"),
        ("isofreedom", ".csv", (0, 2), bump, "|dof - target|"),
        ("matched", ".csv", (0, d), bump, "gp_mean"),
        ("matched", ".json", ("metrics", "case"),
         lambda v: swap_case.get(v, "spline-regression"), "case"),
        ("converge", ".json", ("metrics", "slope"), bump, "slope"),
        ("equiv-check", ".json", ("metrics", "checks", "basis_change", "max_dev"),
         lambda v: 1.0, "basis_change"),
        ("pred-curve", ".json", ("metrics", "anchors", 0, "pred_a"), bump, "degree-0 anchor"),
        ("pred-curve", ".csv", (curve_row, 1), bump, "prediction at gamma"),
        ("nugget-compare", ".csv", (nugget_row, 2), bump, "dof at gamma"),
    ]


def traced_sites():
    """(owner, attribute) of every span wrapper left in flatgp or numpy.linalg."""
    left = []
    mods = [m for k, m in sys.modules.items() if k == "flatgp" or k.startswith("flatgp.")]
    for mod in mods + [sys.modules["numpy.linalg"]]:
        for key, value in vars(mod).items():
            owners = [(mod.__name__, key, value)]
            if isinstance(value, type) and value.__module__.startswith("flatgp"):
                owners += [(value.__qualname__, k, v) for k, v in vars(value).items()]
            for place, k, v in owners:
                v = getattr(v, "__func__", v)
                if hasattr(v, "perfbench_span") or getattr(v, "__name__", "") == "TracedPool":
                    left.append((place, k))
    return left


def check_workload(w, workdir, calls, failures):
    n, n_query = TINY[w.d]
    inputs = make_inputs(w, SEED, workdir, n, n_query)
    checker = Checker(w, inputs, SEED)
    outdir = os.path.join(workdir, "out")
    os.makedirs(outdir)
    lines = command_lines(w, inputs, SEED, outdir)

    tracer = Tracer()
    tracer.install()
    try:
        _, _, codes = run_pass(lines, tracer)
    finally:
        tracer.uninstall()
    for name, sites in tracer.sites.items():
        if sites < 1:
            failures.append(f"{w.name}: {name} was not rebound")
    for place, key in traced_sites():
        failures.append(f"{w.name}: {place}.{key} still traced after uninstall")
    metrics = pass_metrics(tracer.spans, tracer.main_thread)
    missing = {s[0] for s in per_layer_specs()} - set(metrics) - {"trace.overhead_s"}
    if missing:
        failures.append(f"{w.name}: per-layer metrics not derived: {sorted(missing)}")
    for key, value in metrics.items():
        if key.endswith(".calls"):
            calls[key[: -len(".calls")]] = calls.get(key[: -len(".calls")], 0) + value

    for command in COMMANDS:
        problems = checker.check(command, os.path.join(outdir, command), codes[command])
        failures.extend(f"{w.name} {command}: {p}" for p in problems)
    if not checker.check("fit", os.path.join(outdir, "fit"), 2):
        failures.append(f"{w.name}: exit code 2 accepted")
    if not checker._iso_cache:
        failures.append(f"{w.name}: no isofreedom point was checked against the oracle")

    for command, suffix, where, fn, fragment in mutations(checker, w.d):
        path = os.path.join(outdir, command + suffix)
        shutil.copy(path, path + ".orig")
        if suffix == ".csv":
            _edit_csv(path, where[0], where[1], fn)
        else:
            _edit_json(path, where, fn)
        problems = checker.check(command, os.path.join(outdir, command), 0)
        if not any(fragment in p for p in problems):
            failures.append(
                f"{w.name} {command}: perturbed {suffix} {where} not caught as {fragment!r}; "
                f"got {problems}"
            )
        shutil.move(path + ".orig", path)


def check_round_order(failures):
    lines = [(c, [c]) for c in COMMANDS]
    if round_order(lines, {c: 1 for c in COMMANDS}) != lines:
        failures.append("a round with one call per command is not a pass")
    warm = {c: 0.5 / (i + 1) for i, c in enumerate(COMMANDS)}
    reps = repetitions(warm, 0.5)
    order = [c for c, _ in round_order(lines, reps)]
    for c in COMMANDS:
        at = [i for i, x in enumerate(order) if x == c]
        if len(at) != reps[c]:
            failures.append(f"round calls {c} {len(at)} times, planned {reps[c]}")
        # the calls of a command are spread: its first call is in the first
        # share of the round that it has
        elif at[0] > len(order) / reps[c]:
            failures.append(f"round calls {c} first at {at[0]} of {len(order)}")


def check_benchmark_json(failures):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    # query-n150 is defined for runs by hand but not listed (see workloads.py)
    if sorted(x["name"] for x in bench["workloads"]) != sorted(set(WORKLOADS) - BY_HAND):
        failures.append("BENCHMARK.json workloads differ from perfbench/workloads.py")
    for key, specs in (("end_to_end", end_to_end_specs()), ("per_layer", per_layer_specs())):
        listed = [(x["name"], x["unit"], x["better"]) for x in bench[key]]
        if listed != list(specs):
            failures.append(f"BENCHMARK.json {key} differs from the harness: "
                            f"{sorted(set(listed) ^ set(specs))}")


def main():
    failures = []
    calls = {}
    base = os.path.join(ROOT, ".perfbench_out", f"selftest-{os.getpid()}")
    try:
        for w in WORKLOADS.values():
            workdir = os.path.join(base, w.name)
            os.makedirs(workdir)
            check_workload(w, workdir, calls, failures)
    finally:
        shutil.rmtree(base, ignore_errors=True)
    for name, count in sorted(calls.items()):
        if count == 0 and name not in NEVER_CALLED:
            failures.append(f"{name} recorded no calls in any workload")
    check_round_order(failures)
    check_benchmark_json(failures)
    for f in failures:
        print("FAIL", f)
    print("selftest", "failed" if failures else "ok",
          f"({len(WORKLOADS)} workloads, {len(calls)} traced callables)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
