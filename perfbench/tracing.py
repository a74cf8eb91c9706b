"""Spans around flatgp's public callables, installed from outside the package.

``Tracer.install()`` rebinds each traced callable at every place flatgp can
reach it: each module binding inside ``flatgp`` (including ``from ... import``
copies), the class attribute for methods, and the ``numpy.linalg`` entry point
for LAPACK calls.  ``uninstall()`` restores every original object.  Spans are
kept in memory as ``[name, start, end, parent, thread, context, count]`` and
written out once the run ends; the per-layer metrics are derived from them.

The flatgp source is not modified: the run without tracing executes the
package exactly as shipped.
"""

import functools
import gzip
import json
import os
import statistics
import sys
import threading
import time

import numpy as np

from workloads import COMMANDS

NAME, START, END, PARENT, THREAD, CONTEXT, COUNT = range(7)


def _factor_n3(args, kwargs, out):
    """Computed work of one factorization: rows * cols * min(rows, cols)."""
    a = np.asarray(args[0])
    rows, cols = a.shape[-2:]
    batch = int(np.prod(a.shape[:-2])) if a.ndim > 2 else 1
    return batch * rows * cols * min(rows, cols)


def _entries(args, kwargs, out):
    mat = getattr(out, "matrix", out)
    return int(np.size(mat))


def _queries(args, kwargs, out):
    q = args[1] if len(args) > 1 else kwargs["query_points"]
    return int(getattr(q, "n", None) or len(q))


def _bytes_written(args, kwargs, out):
    return os.path.getsize(args[0])


# (layer, module, attribute path, count, report self time)
BINDINGS = (
    ("linalg", "numpy.linalg", "eigh", _factor_n3, False),
    ("linalg", "numpy.linalg", "eigvalsh", _factor_n3, False),
    ("linalg", "numpy.linalg", "svd", _factor_n3, False),
    ("linalg", "numpy.linalg", "qr", _factor_n3, False),
    ("linalg", "numpy.linalg", "solve", None, False),
    ("accel", "flatgp.accel", "pairwise_sq_dists", None, False),
    ("accel", "flatgp.accel", "cross_sq_dists", None, False),
    ("accel", "flatgp.accel", "pairwise_dist_power", None, False),
    ("accel", "flatgp.accel", "cross_dist_power", None, False),
    ("kernels", "flatgp.kernels", "kernel_matrix", _entries, True),
    ("kernels", "flatgp.kernels", "kernel_cross", _entries, True),
    ("kernels", "flatgp.kernels", "kernel_diag", _entries, False),
    ("kernels", "flatgp.kernels", "distance_power_matrix", _entries, False),
    ("kernels", "flatgp.kernels", "wronskian", _entries, True),
    ("polybasis", "flatgp.polybasis", "vandermonde", None, False),
    ("polybasis", "flatgp.polybasis", "monomial_matrix", None, False),
    ("gp", "flatgp.gp", "GpSpectrum.from_kernel", None, True),
    ("gp", "flatgp.gp", "GpSpectrum.dof", None, False),
    ("gp", "flatgp.gp", "GpSpectrum.smoother", None, True),
    ("gp", "flatgp.gp", "GpSpectrum.solve", None, False),
    ("gp", "flatgp.gp", "gp_posterior", None, True),
    ("gp", "flatgp.gp", "loo_mse", None, False),
    ("gp", "flatgp.gp", "loo_nll", None, False),
    ("gp", "flatgp.gp", "sure", None, False),
    ("gp", "flatgp.gp", "nlml", None, False),
    ("spm", "flatgp.spm", "factorize", None, True),
    ("spm", "flatgp.spm", "fit_spm", None, True),
    ("spm", "flatgp.spm", "SpmFit.predict", None, False),
    ("spm", "flatgp.spm", "SpmFit.predict_var", _queries, True),
    ("spm", "flatgp.spm", "spm_smoother", None, True),
    ("spm", "flatgp.spm", "spm_filter_eigenvalues", None, True),
    ("doftools", "flatgp.doftools", "isofreedom_curve", None, True),
    ("doftools", "flatgp.doftools", "matched_approximation", None, True),
    ("flatlimit", "flatgp.flatlimit", "classify_limit", None, True),
    ("flatlimit", "flatgp.flatlimit", "limiting_smoother", None, True),
    ("flatlimit", "flatgp.flatlimit", "check_pred_equiv", None, True),
    ("flatlimit", "flatgp.flatlimit", "convergence_study", None, True),
    ("flatlimit", "flatgp.flatlimit", "prediction_curve", None, True),
    ("dataio", "flatgp.dataio", "parse_dataset", None, False),
    ("dataio", "flatgp.dataio", "write_csv", _bytes_written, False),
    ("dataio", "flatgp.dataio", "write_json", _bytes_written, False),
)

# per-layer totals computed from arguments and results, not timed;
# kernels.entries is derived separately (see pass_metrics)
COUNTED = {
    "linalg.factor.n3": ("count", ("linalg.eigh", "linalg.eigvalsh", "linalg.svd", "linalg.qr")),
    "spm.SpmFit.predict_var.queries": ("count", ("spm.SpmFit.predict_var",)),
    "dataio.bytes_written": ("bytes", ("dataio.write_csv", "dataio.write_json")),
}
# work counts derived from array shapes; they repeat exactly between runs
COMPUTED_COUNTS = ("linalg.factor.n3", "kernels.entries")
GRID_COMMANDS = ("dof-grid", "criteria-grid")


def per_layer_specs():
    """(name, unit, better) of every per-layer metric, in report order."""
    specs = []
    for layer, _, path, _, self_time in BINDINGS:
        base = f"{layer}.{path}"
        specs += [(base + ".calls", "count", "lower"), (base + ".s", "s", "lower")]
        if self_time:
            specs.append((base + ".self_s", "s", "lower"))
    specs += [(name, unit, "lower") for name, (unit, _) in COUNTED.items()]
    specs.append(("kernels.entries", "count", "lower"))
    specs += [(f"cli.{c}.self_s", "s", "lower") for c in COMMANDS]
    specs += [
        ("cli.pool.s", "s", "lower"),
        ("cli.pool.busy_ratio", "ratio", "higher"),
        ("trace.overhead_s", "s", "lower"),
    ]
    return specs


class Tracer:
    """In-memory span recorder plus the rebinding of traced callables."""

    def __init__(self):
        self.spans = []
        self.context = None          # (pass number, command) of the current call
        self.main_thread = threading.get_ident()
        self._local = threading.local()
        self._undo = []
        self.sites = {}              # span name -> number of rebound sites

    # -- spans ---------------------------------------------------------------

    def begin(self, name):
        stack = self._stack()
        rec = [name, time.perf_counter(), 0.0, stack[-1] if stack else None,
               threading.get_ident(), self.context, 0]
        stack.append(rec)
        return rec

    def end(self, rec):
        rec[END] = time.perf_counter()
        self._stack().pop()
        self.spans.append(rec)

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end(rec)
            if count is not None:
                rec[COUNT] = count(args, kwargs, out)
            return out

        traced.perfbench_span = name
        return traced

    # -- installation ------------------------------------------------------

    def install(self):
        import flatgp.cli  # noqa: F401  (loads every flatgp module)

        for layer, modname, path, count, _ in BINDINGS:
            name = f"{layer}.{path}"
            owner = sys.modules[modname]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part, None)
            if owner is None or attr not in vars(owner):
                print(f"trace: {modname}.{path} not found; its metrics stay 0", file=sys.stderr)
                self.sites[name] = 0
                continue
            if cls_path:
                self._rebind_method(name, owner, attr, count)
            else:
                self._rebind_function(name, owner, attr, count)
        self._rebind_pool()

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _rebind_function(self, name, module, attr, count):
        orig = getattr(module, attr)
        wrapper = self._wrap(name, orig, count)
        sites = [module] + [
            m for k, m in list(sys.modules.items())
            if (k == "flatgp" or k.startswith("flatgp.")) and m is not module
        ]
        n = 0
        for mod in sites:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    self._set(mod, key, wrapper)
                    n += 1
        self.sites[name] = n

    def _rebind_method(self, name, cls, attr, count):
        raw = vars(cls)[attr]
        if isinstance(raw, (classmethod, staticmethod)):
            self._set(cls, attr, type(raw)(self._wrap(name, raw.__func__, count)))
        else:
            self._set(cls, attr, self._wrap(name, raw, count))
        self.sites[name] = 1

    def _rebind_pool(self):
        """Span the life of each grid thread pool (start-up, map, join)."""
        cli = sys.modules["flatgp.cli"]
        base = vars(cli).get("ThreadPoolExecutor")
        if base is None:
            self.sites["cli.pool"] = 0
            return
        tracer = self

        class TracedPool(base):
            def __init__(self, max_workers=None, *args, **kwargs):
                super().__init__(max_workers, *args, **kwargs)
                self.span = None

            def __enter__(self):
                self.span = tracer.begin("cli.pool")
                self.span[COUNT] = self._max_workers
                return super().__enter__()

            def __exit__(self, *exc):
                try:
                    return super().__exit__(*exc)
                finally:
                    tracer.end(self.span)

        self._set(cli, "ThreadPoolExecutor", TracedPool)
        self.sites["cli.pool"] = 1

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- output --------------------------------------------------------------

    def write(self, path):
        """Write every span as one JSON line (gzip), parents as line indices."""
        index = {id(rec): i for i, rec in enumerate(self.spans)}
        with gzip.open(path, "wt") as fh:
            for rec in self.spans:
                ctx = rec[CONTEXT] or (None, None)
                fh.write(json.dumps({
                    "name": rec[NAME], "start": rec[START], "end": rec[END],
                    "parent": index.get(id(rec[PARENT])), "thread": rec[THREAD],
                    "pass": ctx[0], "command": ctx[1], "count": rec[COUNT],
                }) + "\n")


def pass_metrics(spans, main_thread):
    """Per-layer totals over the spans of one pass."""
    child = {}
    for rec in spans:
        if rec[PARENT] is not None:
            key = id(rec[PARENT])
            child[key] = child.get(key, 0.0) + rec[END] - rec[START]
    calls, incl, self_s, counts = {}, {}, {}, {}
    busy = grid_wall = pool_wall = 0.0
    for rec in spans:
        name = rec[NAME]
        dur = rec[END] - rec[START]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + dur - child.get(id(rec), 0.0)
        counts[name] = counts.get(name, 0) + rec[COUNT]
        # inclusive time counts the outermost span of a recursion once
        parent = rec[PARENT]
        while parent is not None and parent[NAME] != name:
            parent = parent[PARENT]
        if parent is None:
            incl[name] = incl.get(name, 0.0) + dur
        if rec[PARENT] is None and rec[THREAD] != main_thread:
            busy += dur
        if name in (f"cli.{c}" for c in GRID_COMMANDS):
            grid_wall += dur
        if name == "cli.pool":
            pool_wall += dur
    pool_size = max((r[COUNT] for r in spans if r[NAME] == "cli.pool"), default=0)

    out = {}
    for layer, _, path, _, self_time in BINDINGS:
        base = f"{layer}.{path}"
        out[base + ".calls"] = calls.get(base, 0)
        out[base + ".s"] = incl.get(base, 0.0)
        if self_time:
            out[base + ".self_s"] = self_s.get(base, 0.0)
    for metric, (_, names) in COUNTED.items():
        out[metric] = sum(counts.get(n, 0) for n in names)
    # entries of nested kernel calls (sum kernels) are already in the outer result
    out["kernels.entries"] = sum(
        r[COUNT] for r in spans
        if r[NAME].startswith("kernels.") and not _inside_layer(r, "kernels.")
    )
    for c in COMMANDS:
        out[f"cli.{c}.self_s"] = self_s.get(f"cli.{c}", 0.0)
    out["cli.pool.s"] = pool_wall
    out["cli.pool.busy_ratio"] = busy / (grid_wall * pool_size) if grid_wall and pool_size else 0.0
    return out


def _inside_layer(rec, prefix):
    parent = rec[PARENT]
    while parent is not None:
        if parent[NAME].startswith(prefix):
            return True
        parent = parent[PARENT]
    return False


def median_metrics(per_pass):
    """Median over passes of each per-layer total; counts stay whole numbers."""
    out = {}
    for k in per_pass[0]:
        values = [p[k] for p in per_pass]
        exact = all(isinstance(v, int) for v in values)
        out[k] = statistics.median_low(values) if exact else statistics.median(values)
    return out
