#!/usr/bin/env python3
"""Benchmark of the flatgp CLI: every command, end to end, with per-layer spans.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload spline-n400 --seed 1 --seconds 50 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
lines before it are a readable report and the environment block; a detailed
result file (and, when traced, the spans) goes to ``.perfbench_out/``.

This process imports no numpy.  It measures the cold start of the CLI
(``setup_s``) in fresh interpreters, then runs the workload in a child
process whose BLAS and OpenMP pools are pinned to one thread; flatgp's own
grid pool keeps its default size.  See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_RUNS = 9
DEADLINE_S = 170.0
COLD_START = "import flatgp.cli as cli; cli.build_parser()"


def child_env():
    env = dict(os.environ)
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    # flatgp's own settings stay at their defaults
    env.pop("FLATGP_THREADS", None)
    env.pop("FLATGP_NUMBA", None)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def cold_start_seconds(env, runs):
    """Median wall time of fresh interpreters importing the CLI, ready to parse."""
    times = []
    for i in range(runs + 1):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", COLD_START], env=env, cwd=ROOT)
        # a blocking wait: wait(timeout=...) polls in steps of up to 50 ms
        watchdog = threading.Timer(60.0, proc.kill)
        watchdog.start()
        try:
            code = proc.wait()
        finally:
            watchdog.cancel()
        if code != 0:
            raise subprocess.CalledProcessError(code, COLD_START)
        if i:  # the first start only writes the bytecode cache
            times.append(time.perf_counter() - t0)
    return statistics.median(times)


def main(argv=None):
    started = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "flatgp", "cli.py")):
        print(f"no flatgp source under {ROOT}/src; run from a source checkout", file=sys.stderr)
        return 2

    env = child_env()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(OUT, f"work-{tag}-{os.getpid()}")
    os.makedirs(workdir)
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", workdir, "--result", os.path.join(OUT, f"result-{tag}.json"),
    ]
    try:
        if not args.trace:
            cmd += ["--setup-s", repr(cold_start_seconds(env, SETUP_RUNS))]
        child = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            out, _ = child.communicate(timeout=DEADLINE_S - (time.monotonic() - started))
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
            print("benchmark run exceeded its deadline", file=sys.stderr)
            return 3
    except subprocess.SubprocessError as exc:
        print(f"benchmark set-up failed: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = out.rstrip("\n").split("\n")
    if child.returncode != 0:
        print(f"benchmark worker exited with {child.returncode}", file=sys.stderr)
        return child.returncode or 1
    result = json.loads(lines[-1])
    print("\n".join(lines[:-1]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
