"""Command-line front end: grids, curves, convergence studies, plot data.

Every command writes a JSON summary (config echo, seed, metrics, errors) and,
where applicable, a long-format CSV next to it.  Exit code 0 on success, 1 on
usage errors, 2 when numerical failures left only partial output.

dof-grid, criteria-grid, isofreedom and converge factor their eps grids
concurrently through the library's one pool (``flatgp.pool.map_spectra``):
stacks of eps when only eigenvalues are read (dof-grid, isofreedom; the
stacking rule is stated in ``flatgp.pool``), one eps per task with
eigenvectors; a grid that fits in one such stack runs inline.  equiv-check
runs its trials on the same pool (``flatgp.pool.map_pooled``) from n = 250
up.  The pool has one worker per CPU of the process's CPU set, at most 8;
under ``taskset -c 0`` everything runs inline.  While the pool runs, numpy's
OpenBLAS runs one thread.  nugget-compare factors its one spectrum serially.
dof-grid, criteria-grid, nugget-compare and pred-curve filter each spectrum
at every gamma of their grid at once (``spec.dofs``, ``gp.criteria``,
``flatlimit.prediction_curve``, all through ``spec.filter_terms``), so a
cell is a row of one gain-major filter, not a spectrum moved to its gain.

``main`` builds its parser once per process and reuses it for every call;
``build_parser()`` returns a fresh one.  Before its first command it sets the
process's heap policy (``flatgp.pool.keep_heap``), so the n x n arrays a
command frees are reused by the next instead of mapped again.
"""

import argparse
import functools
import math
import os
import re
import sys

import numpy as np

from . import __version__
from .dataio import Dataset, format_float, parse_dataset, parse_points, write_csv, write_json
from .doftools import isofreedom_curve, matched_approximation
from .errors import FlatGpError
from .flatlimit import (
    ScaledKernelFamily,
    absorbed_kernel_model,
    check_pred_equiv,
    convergence_study,
    factorize_limit,
    prediction_curve,
    recombined_basis_model,
)
from .gp import GpSpectrum, criteria, smoother_criteria
from .kernels import Kernel
from .polybasis import Design
# threads: the pool size, which perfbench/worker.py records as cli._threads
from .pool import keep_heap, map_spectra, threads as _threads  # noqa: F401
from .spm import SemiParametricModel, check_nugget, factorize_model


def _numbers(text, option, sep=","):
    """The numbers of ``text`` split at ``sep``: the one reader of a grid
    spec's, a query list's and a point's numbers.  A part that is not a
    number, or is NaN or infinite, raises FlatGpError naming ``option``."""
    values = []
    for part in text.split(sep):
        try:
            value = float(part)
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise FlatGpError(f"{option}: {part!r} is not a finite number, in {text!r}")
        values.append(value)
    return values


def _parse_grid(spec, option, log=True, order=None):
    """Parse the ``option`` value 'a:b:k' into a k-point grid from a to b
    (log-spaced by default).

    ``order`` "ascending" or "descending" builds it from the smaller or the
    larger end instead, so that 'a:b:k' and 'b:a:k' give the same values.  A
    malformed spec, a non-finite endpoint or a k that is not a whole number
    raises FlatGpError naming ``option``.
    """
    if spec.count(":") != 2:
        raise FlatGpError(f"{option} must be a:b:k, got {spec!r}")
    a, b, k = _numbers(spec, option, sep=":")
    if not k.is_integer():
        raise FlatGpError(f"{option}: the point count k of a:b:k must be whole, got {spec!r}")
    k = int(k)
    if order is not None and (a > b) != (order == "descending"):
        a, b = b, a
    if k < 1:
        raise FlatGpError(f"{option} needs at least one point, got {spec!r}")
    if log:
        if a <= 0 or b <= 0:
            raise FlatGpError(f"{option} is a log grid and needs positive endpoints, got {spec!r}")
        return np.geomspace(a, b, k)
    return np.linspace(a, b, k)


def _finite_float(text):
    """The argparse type of every float option: a NaN or an infinity is a
    usage error, refused before any work or output."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _make_kernel(args):
    """``--kernel`` at the command's ``--eps`` and ``--gamma``, 1.0 if it has none."""
    eps, gamma = getattr(args, "eps", 1.0), getattr(args, "gamma", 1.0)
    name = args.kernel
    if name == "gaussian":
        return Kernel.gaussian(epsilon=eps, gamma=gamma)
    if name == "exponential":
        return Kernel.exponential(epsilon=eps, gamma=gamma)
    if name == "matern":
        if args.nu is None:
            raise FlatGpError("--nu is required for the matern kernel")
        return Kernel.matern(args.nu, epsilon=eps, gamma=gamma)
    return Kernel.zero()  # argparse's choices admit no other name


def _parse_point(text, option, d):
    """A point of R^d: d comma-separated finite numbers, or one for every
    coordinate; anything else raises FlatGpError naming ``option``."""
    vals = _numbers(text, option)
    if len(vals) not in (1, d):
        raise FlatGpError(f"{option} must be 1 or d={d} comma-separated numbers, got {text!r}")
    return np.full(d, vals[0]) if len(vals) == 1 else np.array(vals)


def _load_data(args):
    if args.data:
        return parse_dataset(args.data, target_col=args.y_col)
    n = 8 if args.n is None else args.n
    d = 1 if args.dim is None else args.dim
    rng = np.random.default_rng(args.seed)
    X = Design(rng.uniform(0.0, 1.0, size=(n, d)))
    y = rng.normal(size=n)
    names = tuple(f"x{i + 1}" for i in range(d))
    return Dataset(X=X, y=y, feature_names=names, target_name="y")


def _parse_query(spec, dataset):
    if spec is None:
        lo = dataset.X.points.min(axis=0)
        hi = dataset.X.points.max(axis=0)
        if dataset.d == 1:
            return np.linspace(lo[0], hi[0], 50)[:, None]
        rng = np.random.default_rng(0)
        return rng.uniform(lo, hi, size=(50, dataset.d))
    if os.path.exists(spec):
        return parse_points(spec, dataset.d)
    if ":" in spec:
        if dataset.d != 1:
            raise FlatGpError("query grids a:b:k are for d=1; pass a CSV for d>1")
        return _parse_grid(spec, "--query", log=False)[:, None]
    vals = _numbers(spec, "--query")
    if dataset.d == 1:
        return np.asarray(vals)[:, None]
    if len(vals) % dataset.d:
        raise FlatGpError("--query list length must be a multiple of d")
    return np.asarray(vals).reshape(-1, dataset.d)


def _emit(args, command, metrics, csv_header=None, csv_rows=None, errors=()):
    """Write the JSON summary and the table: a CSV, or the summary's ``table``
    with ``--format json``.  Rows hold raw numbers and text; every number is
    printed here, by ``format_float``."""
    out = args.out
    paths = {}
    summary = {
        "command": command,
        "version": __version__,
        "config": {
            k: v for k, v in sorted(vars(args).items()) if k != "func" and v is not None
        },
        "seed": args.seed,
        "metrics": metrics,
        "errors": list(errors),
        "outputs": paths,
    }
    if csv_header is not None:
        if isinstance(csv_rows, np.ndarray):
            csv_rows = csv_rows.tolist()  # Python floats print faster than numpy scalars
        rows = [[c if isinstance(c, str) else format_float(c) for c in r] for r in csv_rows]
        if args.format == "json":
            summary["table"] = {"header": list(csv_header), "rows": rows}
        else:
            paths["csv"] = out + ".csv"
            write_csv(paths["csv"], csv_header, rows)
    paths["json"] = out + ".json"
    write_json(paths["json"], summary)
    return 2 if errors else 0


# ---------------------------------------------------------------------------
# commands


def cmd_fit(args):
    ds = _load_data(args)
    spec = GpSpectrum.from_kernel(_make_kernel(args), ds.X).shifted(args.nugget)
    M = spec.smoother(args.sigma2)
    fitted = M.fitted(ds.y)
    metrics = {"dof": M.trace, "n": ds.n, "d": ds.d}
    # one leave-one-out pass gives the three criteria, each with its own error
    for name, value in smoother_criteria(M, ds.y, args.sigma2).items():
        metrics[name] = f"error: {value}" if isinstance(value, Exception) else value
    try:
        metrics["nlml"] = spec.nlml(ds.y, args.sigma2)
    except (FlatGpError, ValueError) as exc:
        metrics["nlml"] = f"error: {exc}"
    rows = np.column_stack([np.arange(ds.n), ds.X.points, ds.y, fitted])
    header = ["index"] + [f"x{j + 1}" for j in range(ds.d)] + ["y", "fitted"]
    return _emit(args, "fit", metrics, header, rows)


def cmd_predict(args):
    ds = _load_data(args)
    query = _parse_query(args.query, ds)
    kern = _make_kernel(args)
    if args.basis_degree is None and args.kernel != "zero":
        fac = GpSpectrum.from_kernel(kern, ds.X).shifted(args.nugget)
    else:
        if args.nugget:
            raise FlatGpError("--nugget is for the GP alone; a model with a basis takes none")
        degree = args.basis_degree if args.basis_degree is not None else 0
        fac = factorize_model(SemiParametricModel(kern, d=ds.d, basis_degree=degree), ds.X)
    mean, var = fac.fit(ds.y, args.sigma2).posterior(query)
    header = [f"x{j + 1}" for j in range(ds.d)] + ["mean", "variance"]
    rows = np.column_stack([query, mean, var])
    return _emit(args, "predict", {"n_query": len(query)}, header, rows)


def _grid_eval(args, ds, values_fn, vectors=True):
    """The eps grid and ``values_fn(spectrum)`` at each of its eps, the
    spectrum shifted by ``--nugget`` in the worker that factored it, in grid
    order (``pool.map_spectra``); ``vectors=False`` reads traces only."""
    eps_grid = _parse_grid(args.eps_grid, "--eps-grid")
    kern = _make_kernel(args)
    kernels = [kern.with_params(epsilon=eps) for eps in eps_grid]
    values = map_spectra(
        lambda spec: values_fn(spec.shifted(args.nugget)), kernels, ds.X, vectors=vectors
    )
    return eps_grid, values


def _dof_cells(spec, sigma2, gains):
    """The dof cells of dof-grid and nugget-compare at each gain factor, from
    one gain-major filter: the trace and "ok", or nan and the smallest
    eigenvalue of an ill-conditioned system."""
    traces, errors = spec.dofs(sigma2, gains)
    return [
        (t, f"ill-conditioned:{exc.smallest_eigenvalue:.3e}" if exc else "ok")
        for t, exc in zip(traces, errors)
    ]


def cmd_dof_grid(args):
    ds = _load_data(args)
    gamma_grid = _parse_grid(args.gamma_grid, "--gamma-grid")
    errors = []

    def values(spec):
        return _dof_cells(spec, args.sigma2, gamma_grid)

    eps_grid, results = _grid_eval(args, ds, values, vectors=False)
    rows = []
    for eps, cells in zip(eps_grid, results):
        for g, (val, status) in zip(gamma_grid, cells):
            rows.append([eps, g, val, status])
            if status != "ok":
                errors.append(f"eps={eps:g} gamma={g:g}: {status}")
    return _emit(args, "dof-grid", {"rows": len(rows)}, ["eps", "gamma", "dof", "status"], rows, errors)


def cmd_criteria_grid(args):
    ds = _load_data(args)
    gamma_grid = _parse_grid(args.gamma_grid, "--gamma-grid")
    errors = []

    def values(spec):
        out = []
        for cell, exc in criteria(spec, ds.y, args.sigma2, gamma_grid):
            if exc is not None and not isinstance(exc, FlatGpError):
                raise exc
            out.append((cell, f"error:{type(exc).__name__}" if exc else "ok"))
        return out

    eps_grid, results = _grid_eval(args, ds, values)
    rows = []
    for eps, cells in zip(eps_grid, results):
        for g, (cell, status) in zip(gamma_grid, cells):
            for crit in ("loo_mse", "loo_nll", "sure"):
                rows.append([eps, g, crit, cell.get(crit, math.nan), status])
                if status != "ok":
                    errors.append(f"eps={eps:g} gamma={g:g} {crit}: {status}")
    header = ["eps", "gamma", "criterion", "value", "status"]
    return _emit(args, "criteria-grid", {"rows": len(rows)}, header, rows, sorted(set(errors)))


def cmd_isofreedom(args):
    ds = _load_data(args)
    kern = _make_kernel(args)
    eps_grid = _parse_grid(args.eps_grid, "--eps-grid", order="descending")
    curve = isofreedom_curve(kern, ds.X, args.sigma2, args.dof, eps_grid)
    rows = [[p.epsilon, p.gamma, p.dof_achieved, p.residual] for p in curve.points]
    metrics = {"slope": curve.slope, "target_dof": curve.target}
    return _emit(args, "isofreedom", metrics, ["eps", "gamma", "dof", "residual"], rows)


def cmd_matched(args):
    ds = _load_data(args)
    query = _parse_query(args.query, ds)
    kern = _make_kernel(args)
    approx = matched_approximation(kern, args.sigma2, ds.X)
    mean_src, var_src = approx.source.fit(ds.y, args.sigma2).posterior(query)
    mean_tgt, var_tgt = approx.fit(ds.y).posterior(query)
    header = [f"x{j + 1}" for j in range(ds.d)] + [
        "gp_mean", "gp_variance", "matched_mean", "matched_variance",
    ]
    rows = np.column_stack([query, mean_src, var_src, mean_tgt, var_tgt])
    metrics = {
        "source_dof": approx.source_dof,
        "achieved_dof": approx.achieved_dof,
        "case": approx.case.value,
        # the target's smoothing parameter sigma2 / gain
        "penalty": approx.penalty,
        "max_mean_gap": float(np.max(np.abs(mean_src - mean_tgt))),
        "max_var_gap": float(np.max(np.abs(var_src - var_tgt))),
    }
    return _emit(args, "matched", metrics, header, rows)


def cmd_equiv_check(args):
    """Verify the two exact equivalence transformations on the classified limit."""
    if not args.tol > 0:
        # refused here too: a limit without a basis runs no check to refuse it
        raise ValueError(f"tol must be positive, got tol={args.tol}")
    ds = _load_data(args)
    family = ScaledKernelFamily(_make_kernel(args), p=args.p, gamma0=args.gamma0)
    # a saturated limit without its model is refused here, before any output
    case, fac = factorize_limit(family, ds.X)
    model, m = case.equivalent_model, fac.m
    results, errors = {}, []
    if m > 0:
        # both checks compare against the one factorization of the model
        for name, other in (
            ("basis_change", recombined_basis_model(model, ds.X, seed=args.seed)),
            ("kernel_absorption", absorbed_kernel_model(model, ds.X, coefficient=0.7)),
        ):
            rep = check_pred_equiv(
                fac, factorize_model(other, ds.X), tol=args.tol, seed=args.seed
            )
            # a NaN deviation fails the check, and strict JSON writes it as null
            dev = float(np.max([rep.max_mean_dev, rep.max_var_dev, rep.max_smoother_dev]))
            nan = math.isnan(dev)
            results[name] = {"equivalent": rep.equivalent, "max_dev": None if nan else dev}
            if nan:
                errors.append(f"{name}: max_dev is nan")
            elif not rep.equivalent:
                errors.append(f"{name}: max_dev {dev:.3g} > tol {args.tol:g}")
    metrics = {
        "case": case.kind.value, "basis_size": m, "checks": results, "all_equivalent": not errors
    }
    if m == 0:
        # both transformations act on the basis alone: no trial can run
        metrics["skipped"] = (
            "basis_size 0: basis recombination and kernel absorption are the identity"
        )
    return _emit(args, "equiv-check", metrics, errors=errors)


def cmd_converge(args):
    ds = _load_data(args)
    family = ScaledKernelFamily(_make_kernel(args), p=args.p, gamma0=args.gamma0)
    eps_grid = _parse_grid(args.eps_grid, "--eps-grid", order="descending")
    query = _parse_query(args.query, ds)
    report = convergence_study(
        family, ds.X, query, eps_grid, args.sigma2, seed=args.seed, tol=args.tol
    )
    rows = []
    for i, eps in enumerate(report.eps_values):
        var_dev = report.var_devs[i] if i < len(report.var_devs) else math.nan
        rows.append([eps, report.mean_devs[i], var_dev])
    metrics = {
        "case": report.case.kind.value,
        "slope": report.slope_mean,
        # an interpolating limit has no variance deviations to fit a slope to
        "slope_var": report.slope_var if report.var_devs else None,
        "final_dev": report.final_dev,
        "matched_gain": report.matched_gain,
        "pass": report.passed,
        "dropped_eps": list(report.dropped_eps),
    }
    errors = [f"dropped eps={e:g}" for e in report.dropped_eps]
    return _emit(args, "converge", metrics, ["eps", "mean_dev", "var_dev"], rows, errors)


def cmd_pred_curve(args):
    ds = _load_data(args)
    # the curve runs from small to large gains, whichever end is written first
    gamma_grid = _parse_grid(args.gamma_grid, "--gamma-grid", order="ascending")
    xa, xb = _parse_point(args.xa, "--xa", ds.d), _parse_point(args.xb, "--xb", ds.d)
    curve = prediction_curve(_make_kernel(args), ds.X, ds.y, args.sigma2, gamma_grid, xa, xb)
    rows = []
    errors = []
    for g, pt, status in zip(curve.gammas, curve.points, curve.statuses):
        if pt is None:
            pt = (math.nan, math.nan)
            errors.append(f"gamma={g:g}: {status}")
        rows.append([g, *pt, status])
    anchor_rows = [
        {"degree": deg, "pred_a": pa, "pred_b": pb} for deg, pa, pb in curve.anchors
    ]
    metrics = {"anchors": anchor_rows, "eps": args.eps}
    return _emit(args, "pred-curve", metrics, ["gamma", "pred_a", "pred_b", "status"], rows, errors)


def cmd_nugget_compare(args):
    ds = _load_data(args)
    gamma_grid = _parse_grid(args.gamma_grid, "--gamma-grid")
    plain = GpSpectrum.from_kernel(_make_kernel(args), ds.X, vectors=False)
    rows = []
    errors = []
    for variant, spec in (("nugget", plain.shifted(args.nugget)), ("plain", plain)):
        for g, (val, status) in zip(gamma_grid, _dof_cells(spec, args.sigma2, gamma_grid)):
            if status != "ok":
                errors.append(f"{variant} gamma={g:g}: {status}")
            rows.append([variant, g, val, status])
    header = ["variant", "gamma", "dof", "status"]
    return _emit(args, "nugget-compare", {"eps": args.eps}, header, rows, errors)


# ---------------------------------------------------------------------------


def _add_common(sp, query=False, grids=(), nugget=None):
    """The shared options; ``--nugget`` (default ``nugget``) only where given."""
    sp.add_argument("--data", help="CSV dataset (features then target column)")
    sp.add_argument("--y-col", help="name of the target column")
    sp.add_argument("--n", type=int, help="synthesize n points when --data absent")
    sp.add_argument("--dim", type=int, help="dimension of synthesized points")
    sp.add_argument("--kernel", default="gaussian", choices=["gaussian", "exponential", "matern", "zero"])
    sp.add_argument("--nu", type=_finite_float, help="matern smoothness (half-integer)")
    sp.add_argument("--sigma2", type=_finite_float, default=0.01)
    if nugget is not None:
        sp.add_argument("--nugget", type=_finite_float, default=nugget)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", required=True, help="output path prefix")
    sp.add_argument("--format", default="csv", choices=["csv", "json"], help="primary output format")
    if query:
        sp.add_argument("--query", help="a:b:k grid (d=1), comma list, or CSV path (header, d feature columns)")
    for g in grids:
        sp.add_argument(g, required=True)


class _Parser(argparse.ArgumentParser):
    """An argument parser that reads every token starting with ``-digit`` or
    ``-.digit`` as a value, as newer CPython does: ``--xa -1e-3`` and
    ``--query -1:1:5`` pass a number, not an unknown option.  No flatgp option
    name starts with a digit."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")


def build_parser():
    """A fresh parser of every command (``add_subparsers`` makes the
    subcommands' parsers ``_Parser``s too)."""
    ap = _Parser(prog="flatgp", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("fit", help="fit on the design and report criteria")
    _add_common(sp, nugget=0.0)
    sp.add_argument("--eps", type=_finite_float, default=1.0)
    sp.add_argument("--gamma", type=_finite_float, default=1.0)
    sp.set_defaults(func=cmd_fit)

    sp = sub.add_parser("predict", help="posterior mean/variance at query points")
    _add_common(sp, query=True, nugget=0.0)
    sp.add_argument("--eps", type=_finite_float, default=1.0)
    sp.add_argument("--gamma", type=_finite_float, default=1.0)
    sp.add_argument("--basis-degree", type=int, help="add unpenalized monomials up to this degree")
    sp.set_defaults(func=cmd_predict)

    sp = sub.add_parser("dof-grid", help="degrees of freedom over an (eps, gamma) grid")
    _add_common(sp, grids=("--eps-grid", "--gamma-grid"), nugget=0.0)
    sp.set_defaults(func=cmd_dof_grid)

    sp = sub.add_parser("criteria-grid", help="selection criteria over an (eps, gamma) grid")
    _add_common(sp, grids=("--eps-grid", "--gamma-grid"), nugget=0.0)
    sp.set_defaults(func=cmd_criteria_grid)

    sp = sub.add_parser("isofreedom", help="gamma(eps) at fixed degrees of freedom")
    _add_common(sp, grids=("--eps-grid",))
    sp.add_argument("--dof", type=_finite_float, required=True)
    sp.set_defaults(func=cmd_isofreedom)

    sp = sub.add_parser("matched", help="matched flat-limit approximation of a GP fit")
    _add_common(sp, query=True)
    sp.add_argument("--eps", type=_finite_float, required=True)
    sp.add_argument("--gamma", type=_finite_float, required=True)
    sp.set_defaults(func=cmd_matched)

    sp = sub.add_parser("equiv-check", help="prediction-equivalence checks for the classified limit")
    _add_common(sp)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--gamma0", type=_finite_float, default=1.0)
    sp.add_argument("--tol", type=_finite_float, default=1e-8)
    sp.set_defaults(func=cmd_equiv_check)

    sp = sub.add_parser("converge", help="convergence study against the classified flat limit")
    _add_common(sp, query=True, grids=("--eps-grid",))
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--gamma0", type=_finite_float, default=1.0)
    sp.add_argument("--tol", type=_finite_float, default=1e-2)
    sp.set_defaults(func=cmd_converge)

    sp = sub.add_parser("pred-curve", help="two-point prediction curve over a gamma grid")
    _add_common(sp, grids=("--gamma-grid",))
    sp.add_argument("--eps", type=_finite_float, required=True)
    sp.add_argument("--xa", required=True)
    sp.add_argument("--xb", required=True)
    sp.set_defaults(func=cmd_pred_curve)

    sp = sub.add_parser("nugget-compare", help="dof(gamma) with and without a nugget term")
    _add_common(sp, grids=("--gamma-grid",), nugget=1e-6)
    sp.add_argument("--eps", type=_finite_float, required=True)
    sp.set_defaults(func=cmd_nugget_compare)

    return ap


@functools.cache
def _parser():
    """The parser ``main`` reuses: parsing a command line leaves it unchanged."""
    return build_parser()


def main(argv=None):
    keep_heap()
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code else 0
    try:
        # a nugget is refused before the command computes any spectrum
        check_nugget(getattr(args, "nugget", 0.0))
        return args.func(args)
    except (FlatGpError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
