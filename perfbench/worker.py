"""One benchmark run in a process with pinned BLAS threads (started by run.py).

Closed loop, one client: the commands of a workload run through
``flatgp.cli.main`` in a fixed order, each starting when the previous one
returned, round after round until the time is used up.  A round calls
every command at least once, and the cheaper ones again, so that each
command gets about ``QUANTUM_S`` of calls per round, spread evenly over the
round.  Every output of every call is checked.  A command's time is the
fastest of its calls in the run (see ``describe``); ``batch_s`` is the
median over rounds of a pass's time.  With ``--trace 1``
every round is a single pass, and traced and untraced passes alternate; the
traced ones give the per-layer metrics, and the difference of the two kinds
of pass is the tracing overhead.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import flatgp  # noqa: E402
from flatgp import accel, cli  # noqa: E402
from oracles import Checker  # noqa: E402
from tracing import (  # noqa: E402
    COMPUTED_COUNTS,
    Tracer,
    median_metrics,
    pass_metrics,
    per_layer_specs,
)
from workloads import COMMANDS, WORKLOADS, command_lines, make_inputs  # noqa: E402

PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MAX_MESSAGES = 20
# seconds of calls per command and round, and the most calls in one round
QUANTUM_S = 2.0
MAX_REPS = 40


def end_to_end_specs():
    """(name, unit, better) of every end-to-end metric, in report order."""
    return (
        [(f"{c}_s", "s", "lower") for c in COMMANDS]
        + [
            ("batch_s", "s", "lower"),
            ("setup_s", "s", "lower"),
            ("peak_rss_mb", "MB", "lower"),
            ("ok_ratio", "ratio", "higher"),
        ]
    )


def describe(samples):
    """Fastest, quartiles, highest percentile with ten samples beyond it, count.

    The metric is the fastest call.  The host's speed drifts between fast
    and slow phases that last from seconds to minutes, and a run's median
    follows the share of slow phases in it; the fastest call moves far less.
    """
    xs = np.sort(np.asarray(samples, dtype=float))
    q1, med, q3 = np.percentile(xs, (25.0, 50.0, 75.0))
    out = {"min": float(xs[0]), "median": float(med), "q1": float(q1), "q3": float(q3),
           "n": len(xs), "tail": None}
    for p in PERCENTILES:
        v = float(np.percentile(xs, p))
        if np.sum(xs > v) >= 10:
            out["tail"] = (p, v)
            break
    return out


def call(argv):
    """One CLI command; an exception escaping main counts as a failed command."""
    try:
        return cli.main(argv)
    except Exception:  # noqa: BLE001 - the loop must go on and report the failure
        traceback.print_exc(file=sys.stderr)
        return None


def timed_call(command, argv, tracer=None, number=0):
    """(seconds, exit code) of one command, in a ``cli.<command>`` span if traced."""
    t0 = time.perf_counter()
    if tracer is None:
        code = call(argv)
    else:
        tracer.context = (number, command)
        span = tracer.begin(f"cli.{command}")
        code = call(argv)
        tracer.end(span)
        tracer.context = None
    return time.perf_counter() - t0, code


def run_pass(lines, tracer=None, number=0):
    times = {}
    codes = {}
    start = time.perf_counter()
    for command, argv in lines:
        times[command], codes[command] = timed_call(command, argv, tracer, number)
    return time.perf_counter() - start, times, codes


def _read(path):
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return None


def _git_commit():
    head = _read(os.path.join(ROOT, ".git", "HEAD"))
    if head is None:
        return None
    head = head.strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    loose = _read(os.path.join(ROOT, ".git", ref))
    if loose:
        return loose.strip()
    for line in (_read(os.path.join(ROOT, ".git", "packed-refs")) or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def environment():
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpuinfo = _read("/proc/cpuinfo") or ""
    model = next((ln.split(":", 1)[1].strip() for ln in cpuinfo.splitlines()
                  if ln.startswith("model name")), None)
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for idx in sorted(os.listdir(base)) if os.path.isdir(base) else ():
        level = (_read(os.path.join(base, idx, "level")) or "").strip()
        if level in ("2", "3"):
            caches[f"L{level}"] = (_read(os.path.join(base, idx, "size")) or "").strip()
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "FLATGP_THREADS": os.environ.get("FLATGP_THREADS"),
        "pool_size": cli._threads(),
        "numba": accel.using_numba(),
        "python": platform.python_version(),
        "flatgp": flatgp.__version__,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "cache": caches,
        "git_commit": _git_commit(),
    }


def repetitions(warm, quantum):
    """Calls of each command per round: about ``quantum`` seconds, at least one."""
    return {c: max(1, min(MAX_REPS, round(quantum / max(t, 1e-9)))) for c, t in warm.items()}


def round_order(lines, reps):
    """The calls of one round, as (command, argv) in a fixed order.

    Call ``j`` of command ``c`` sits at ``(j + 1/2) / reps[c]`` of the round,
    so the calls of each command are spread evenly over it; ties keep pass
    order.  With one call per command the round is a pass.
    """
    slots = sorted(((j + 0.5) / reps[c], i, j) for i, (c, _) in enumerate(lines)
                   for j in range(reps[c]))
    return [lines[i] for _, i, _ in slots]


def measure(w, seed, seconds, trace, workdir, log):
    """Warm up, then run and check rounds for ``seconds``; return the raw record."""
    inputs = make_inputs(w, seed, workdir)
    checker = Checker(w, inputs, seed)
    outdir = os.path.join(workdir, "out")
    os.makedirs(outdir, exist_ok=True)
    lines = command_lines(w, inputs, seed, outdir)
    # one untimed pass: imports, lazy set-up and the heap's growth to full
    # size happen before timing, so every timed call is warm
    _, warm, _ = run_pass(lines)
    # traced and untraced passes alternate, so a traced round is one pass
    reps = {c: 1 for c in COMMANDS} if trace else repetitions(warm, QUANTUM_S)
    order = round_order(lines, reps)

    tracer = Tracer() if trace else None
    rec = {"times": {c: [] for c in COMMANDS}, "batch": [], "traced_batch": [],
           "layers": [], "attempted": 0, "failed": 0, "messages": [], "reps": reps,
           "rounds": 0}
    start = time.perf_counter()
    done = False
    while not done:
        number = rec["rounds"]
        traced = trace and number % 2 == 0
        if traced:
            tracer.install()
            mark = len(tracer.spans)
        calls = {c: [] for c in COMMANDS}
        try:
            for k, (command, argv) in enumerate(order):
                seconds_taken, code = timed_call(command, argv, tracer if traced else None, number)
                calls[command].append(seconds_taken)
                rec["attempted"] += 1
                problems = checker.check(command, os.path.join(outdir, command), code)
                if problems:
                    rec["failed"] += 1
                    for msg in problems:
                        if len(rec["messages"]) < MAX_MESSAGES:
                            rec["messages"].append(f"round {number} {command}: {msg}")
                            log(f"check failed: round {number} {command}: {msg}")
                # a call starts while time is left, so the last one may overrun;
                # a traced round always ends with its pass
                enough = rec["batch"] and (rec["traced_batch"] or not trace)
                at_end = k == len(order) - 1 or not trace
                if enough and at_end and time.perf_counter() - start >= seconds:
                    done = True
                    break
        finally:
            if traced:
                tracer.uninstall()
        if not traced:
            for c in COMMANDS:
                rec["times"][c].extend(calls[c])
        if done and k < len(order) - 1:
            break  # a partial round adds command samples, not a pass
        # one pass of the round: each command's mean call time, summed
        batch = sum(statistics.fmean(calls[c]) for c in COMMANDS)
        if traced:
            rec["traced_batch"].append(batch)
            rec["layers"].append(pass_metrics(tracer.spans[mark:], tracer.main_thread))
        else:
            rec["batch"].append(batch)
        rec["rounds"] += 1
    rec["tracer"] = tracer
    return rec


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True, help="path of the detailed result file")
    ap.add_argument("--setup-s", type=float, help="cold-start time measured by run.py")
    args = ap.parse_args(argv)

    def log(msg):
        print(msg, file=sys.stderr, flush=True)

    w = WORKLOADS[args.workload]
    env = environment()
    rec = measure(w, args.seed, args.seconds, args.trace, args.workdir, log)

    stats = {c: describe(rec["times"][c]) for c in COMMANDS}
    if args.trace:
        layers = median_metrics(rec["layers"])
        layers["trace.overhead_s"] = (
            statistics.median(rec["traced_batch"]) - statistics.median(rec["batch"])
        )
        specs = per_layer_specs()
        values = {name: layers[name] for name, _, _ in specs}
        spans_path = os.path.splitext(args.result)[0] + ".spans.jsonl.gz"
        rec["tracer"].write(spans_path)
        log(f"spans written to {os.path.relpath(spans_path, ROOT)}")
    else:
        stats["batch"] = describe(rec["batch"])
        specs = end_to_end_specs()
        values = {f"{c}_s": stats[c]["min"] for c in COMMANDS}
        # a round's pass time already averages many calls
        values["batch_s"] = stats["batch"]["median"]
        values["setup_s"] = args.setup_s
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values["ok_ratio"] = 1.0 - rec["failed"] / rec["attempted"]

    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in specs}
    print(f"workload {w.name}: {w.why}")
    print(f"seed {args.seed}, trace {args.trace}, {rec['rounds']} rounds, "
          f"{rec['attempted']} commands attempted, {rec['failed']} failed "
          f"(failed_ratio {rec['failed'] / rec['attempted']:g})")
    print("env " + json.dumps(env, sort_keys=True))
    for name, unit, _ in specs:
        line = f"  {name:40s} {values[name]:>14.6g} {unit}"
        key = name[:-2] if name.endswith("_s") else None
        if key in stats:
            s = stats[key]
            tail = f"p{s['tail'][0]:g} {s['tail'][1]:.6g} s" if s["tail"] else "no tail percentile"
            pick = "median of" if key == "batch" else "fastest of"
            line += (f"   ({pick} {s['n']}; median {s['median']:.6g} s, "
                     f"quartiles {s['q1']:.6g}-{s['q3']:.6g} s; {tail})")
        if name in COMPUTED_COUNTS:
            line += "   (computed count)"
        print(line)

    result = {
        "workload": w.name, "seed": args.seed, "trace": args.trace, "seconds": args.seconds,
        "rounds": rec["rounds"], "reps": rec["reps"], "environment": env, "stats": stats,
        "samples": {"times": rec["times"], "batch": rec["batch"],
                    "traced_batch": rec["traced_batch"]},
        "failures": rec["messages"], "metrics": metrics,
    }
    with open(args.result, "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    print(json.dumps({
        "correct": rec["failed"] == 0,
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
