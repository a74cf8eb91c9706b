"""Command-line front end: grids, curves, convergence studies, plot data.

Every command writes a JSON summary (config echo, seed, metrics, errors) and,
where applicable, a long-format CSV next to it.  Exit code 0 on success, 1 on
usage errors, 2 when numerical failures left only partial output.

dof-grid, criteria-grid, isofreedom and converge factor their eps grids
concurrently through the library's one pool (``flatgp.pool.map_spectra``):
stacks of eps when only eigenvalues are read (dof-grid, isofreedom; the
stacking rule is stated in ``flatgp.pool``), one eps per task with
eigenvectors; a grid that fits in one such stack runs inline.  The pool has
one worker per CPU of the process's CPU set, at most 8: ``taskset -c 0``
caps it at one.  While the pool runs, numpy's OpenBLAS runs one thread.
nugget-compare stays serial.
"""

import argparse
import math
import os
import sys

import numpy as np

from . import __version__
from .dataio import Dataset, format_float, parse_dataset, parse_points, write_csv, write_json
from .doftools import isofreedom_curve, matched_approximation
from .errors import FlatGpError, IllConditioned
from .flatlimit import (
    ScaledKernelFamily,
    absorbed_kernel_model,
    check_pred_equiv,
    classify_limit,
    convergence_study,
    prediction_curve,
    recombined_basis_model,
)
from .gp import GpSpectrum, loo_mse, loo_nll, sure
from .kernels import Kernel
from .polybasis import Design
# threads: the pool size, which perfbench/worker.py records as cli._threads
from .pool import map_spectra, threads as _threads  # noqa: F401
from .spm import SemiParametricModel, factorize_model, fit_factored


def _parse_grid(spec, log=True, order=None):
    """Parse 'a:b:k' into a k-point grid from a to b (log-spaced by default).

    ``order`` "ascending" or "descending" builds it from the smaller or the
    larger end instead, so that 'a:b:k' and 'b:a:k' give the same values.  A
    malformed spec or a non-finite endpoint raises FlatGpError.
    """
    parts = spec.split(":")
    if len(parts) != 3:
        raise FlatGpError(f"grid must be a:b:k, got {spec!r}")
    a, b, k = float(parts[0]), float(parts[1]), int(parts[2])
    if not (np.isfinite(a) and np.isfinite(b)):
        raise FlatGpError(f"grid endpoints must be finite, got {spec!r}")
    if order is not None and (a > b) != (order == "descending"):
        a, b = b, a
    if k < 1:
        raise FlatGpError("grid needs at least one point")
    if log:
        if a <= 0 or b <= 0:
            raise FlatGpError("log grids need positive endpoints")
        return np.geomspace(a, b, k)
    return np.linspace(a, b, k)


def _finite_float(text):
    """The argparse type of every float option: a NaN or an infinity is a
    usage error, refused before any work or output."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _make_kernel(args, eps=None, gamma=None):
    eps = getattr(args, "eps", None) if eps is None else eps
    gamma = getattr(args, "gamma", None) if gamma is None else gamma
    eps = 1.0 if eps is None else float(eps)
    gamma = 1.0 if gamma is None else float(gamma)
    name = args.kernel
    if name == "gaussian":
        return Kernel.gaussian(epsilon=eps, gamma=gamma)
    if name == "exponential":
        return Kernel.exponential(epsilon=eps, gamma=gamma)
    if name == "matern":
        if args.nu is None:
            raise FlatGpError("--nu is required for the matern kernel")
        return Kernel.matern(args.nu, epsilon=eps, gamma=gamma)
    if name == "zero":
        return Kernel.zero()
    raise FlatGpError(f"unknown kernel {name!r}")


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
        return _parse_grid(spec, log=False)[:, None]
    vals = [float(v) for v in spec.split(",")]
    if dataset.d == 1:
        return np.asarray(vals)[:, None]
    if len(vals) % dataset.d:
        raise FlatGpError("query list length must be a multiple of d")
    return np.asarray(vals).reshape(-1, dataset.d)


def _emit(args, command, metrics, csv_header=None, csv_rows=None, errors=()):
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
        if args.format == "json":
            summary["table"] = {"header": list(csv_header), "rows": [list(r) for r in csv_rows]}
        else:
            paths["csv"] = out + ".csv"
            write_csv(paths["csv"], csv_header, csv_rows)
    paths["json"] = out + ".json"
    write_json(paths["json"], summary)
    return 2 if errors else 0


# ---------------------------------------------------------------------------
# commands


def cmd_fit(args):
    ds = _load_data(args)
    spec = GpSpectrum.from_kernel(_make_kernel(args), ds.X, nugget=args.nugget)
    M = spec.smoother(args.sigma2)
    fitted = M.fitted(ds.y)
    metrics = {"dof": M.trace, "n": ds.n, "d": ds.d}
    evaluations = {
        "loo_mse": lambda: loo_mse(M, ds.y),
        "loo_nll": lambda: loo_nll(M, ds.y, args.sigma2),
        "sure": lambda: sure(M, ds.y, args.sigma2),
        "nlml": lambda: spec.nlml(ds.y, args.sigma2),
    }
    for name, fn in evaluations.items():
        try:
            metrics[name] = fn()
        except (FlatGpError, ValueError) as exc:
            metrics[name] = f"error: {exc}"
    rows = [
        [str(i)]
        + [format_float(v) for v in ds.X.points[i]]
        + [format_float(ds.y[i]), format_float(fitted[i])]
        for i in range(ds.n)
    ]
    header = ["index"] + [f"x{j + 1}" for j in range(ds.d)] + ["y", "fitted"]
    return _emit(args, "fit", metrics, header, rows)


def cmd_predict(args):
    ds = _load_data(args)
    query = _parse_query(args.query, ds)
    kern = _make_kernel(args)
    if args.basis_degree is None and args.kernel != "zero":
        model = SemiParametricModel(kern, d=ds.d)
        fac = GpSpectrum.from_kernel(kern, ds.X, nugget=args.nugget)
    else:
        if args.nugget:
            raise FlatGpError("--nugget is for the GP alone; a model with a basis takes none")
        degree = args.basis_degree if args.basis_degree is not None else 0
        model = SemiParametricModel(kern, d=ds.d, basis_degree=degree)
        fac = factorize_model(model, ds.X)
    mean, var = fit_factored(model, ds.X, fac, ds.y, args.sigma2).posterior(query)
    header = [f"x{j + 1}" for j in range(ds.d)] + ["mean", "variance"]
    rows = [
        [format_float(v) for v in query[i]] + [format_float(mean[i]), format_float(var[i])]
        for i in range(len(query))
    ]
    return _emit(args, "predict", {"n_query": len(query)}, header, rows)


def _grid_eval(args, ds, values_fn, vectors=True):
    """The eps grid and ``values_fn(spectrum, kernel)`` at each of its eps, in
    grid order (``pool.map_spectra``); ``vectors=False`` reads traces only."""
    eps_grid = _parse_grid(args.eps_grid)
    kern = _make_kernel(args, eps=1.0, gamma=1.0)
    kernels = [kern.with_params(epsilon=eps) for eps in eps_grid]
    return eps_grid, map_spectra(values_fn, kernels, ds.X, args.nugget, vectors=vectors)


def _dof_cell(spec, sigma2):
    """A dof cell of dof-grid and nugget-compare: the formatted trace and
    "ok", or "nan" and the smallest eigenvalue of an ill-conditioned system."""
    try:
        return format_float(spec.dof(sigma2)), "ok"
    except IllConditioned as exc:
        return "nan", f"ill-conditioned:{exc.smallest_eigenvalue:.3e}"


def cmd_dof_grid(args):
    ds = _load_data(args)
    gamma_grid = _parse_grid(args.gamma_grid)
    errors = []

    def values(spec, _kernel):
        return [_dof_cell(spec.scaled(g), args.sigma2) for g in gamma_grid]

    eps_grid, results = _grid_eval(args, ds, values, vectors=False)
    rows = []
    for eps, cells in zip(eps_grid, results):
        for g, (val, status) in zip(gamma_grid, cells):
            rows.append([format_float(eps), format_float(g), val, status])
            if status != "ok":
                errors.append(f"eps={eps:g} gamma={g:g}: {status}")
    return _emit(args, "dof-grid", {"rows": len(rows)}, ["eps", "gamma", "dof", "status"], rows, errors)


def cmd_criteria_grid(args):
    ds = _load_data(args)
    gamma_grid = _parse_grid(args.gamma_grid)
    errors = []

    def values(spec, _kernel):
        out = []
        for g in gamma_grid:
            try:
                M = spec.scaled(g).smoother(args.sigma2)
                cell = {
                    "loo_mse": loo_mse(M, ds.y),
                    "loo_nll": loo_nll(M, ds.y, args.sigma2),
                    "sure": sure(M, ds.y, args.sigma2),
                }
                out.append((cell, "ok"))
            except FlatGpError as exc:
                out.append(({}, f"error:{type(exc).__name__}"))
        return out

    eps_grid, results = _grid_eval(args, ds, values)
    rows = []
    for eps, cells in zip(eps_grid, results):
        for g, (cell, status) in zip(gamma_grid, cells):
            for crit in ("loo_mse", "loo_nll", "sure"):
                val = format_float(cell[crit]) if crit in cell else "nan"
                rows.append([format_float(eps), format_float(g), crit, val, status])
                if status != "ok":
                    errors.append(f"eps={eps:g} gamma={g:g} {crit}: {status}")
    header = ["eps", "gamma", "criterion", "value", "status"]
    return _emit(args, "criteria-grid", {"rows": len(rows)}, header, rows, sorted(set(errors)))


def cmd_isofreedom(args):
    ds = _load_data(args)
    kern = _make_kernel(args, eps=1.0, gamma=1.0)
    eps_grid = _parse_grid(args.eps_grid, order="descending")
    curve = isofreedom_curve(kern, ds.X, args.sigma2, args.dof, eps_grid)
    rows = [
        [format_float(p.epsilon), format_float(p.gamma), format_float(p.dof_achieved), format_float(p.residual)]
        for p in curve.points
    ]
    metrics = {"slope": curve.slope, "target_dof": curve.target}
    return _emit(args, "isofreedom", metrics, ["eps", "gamma", "dof", "residual"], rows)


def cmd_matched(args):
    ds = _load_data(args)
    kern = _make_kernel(args)
    approx = matched_approximation(kern, args.sigma2, ds.X)
    query = _parse_query(args.query, ds)
    gp = fit_factored(SemiParametricModel(kern, d=ds.d), ds.X, approx.source, ds.y, args.sigma2)
    mean_src, var_src = gp.posterior(query)
    mean_tgt, var_tgt = approx.fit(ds.y).posterior(query)
    header = [f"x{j + 1}" for j in range(ds.d)] + [
        "gp_mean", "gp_variance", "matched_mean", "matched_variance",
    ]
    rows = [
        [format_float(v) for v in query[i]]
        + [format_float(mean_src[i]), format_float(var_src[i]),
           format_float(mean_tgt[i]), format_float(var_tgt[i])]
        for i in range(len(query))
    ]
    metrics = {
        "source_dof": approx.source_dof,
        "achieved_dof": approx.achieved_dof,
        "case": approx.case.value,
        "penalty": approx.penalty,
        "max_mean_gap": float(np.max(np.abs(mean_src - mean_tgt))),
    }
    return _emit(args, "matched", metrics, header, rows)


def cmd_equiv_check(args):
    """Verify the two exact equivalence transformations on the classified limit."""
    ds = _load_data(args)
    family = ScaledKernelFamily(_make_kernel(args, gamma=1.0), p=args.p, gamma0=args.gamma0)
    case = classify_limit(family, ds.X)
    model = case.equivalent_model
    m = model.basis_size()
    results, errors = {}, []
    if m > 0:
        # both checks compare against the same model on the same design
        fac = factorize_model(model, ds.X)
        for name, other in (
            ("basis_change", recombined_basis_model(model, seed=args.seed)),
            ("kernel_absorption", absorbed_kernel_model(model, coefficient=0.7)),
        ):
            ok, rep = check_pred_equiv(
                model, other, ds.X, tol=args.tol, seed=args.seed, factorization_a=fac
            )
            dev = max(rep.max_mean_dev, rep.max_var_dev, rep.max_smoother_dev)
            results[name] = {"equivalent": ok, "max_dev": dev}
            if not ok:
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
    family = ScaledKernelFamily(_make_kernel(args, gamma=1.0), p=args.p, gamma0=args.gamma0)
    eps_grid = _parse_grid(args.eps_grid, order="descending")
    query = _parse_query(args.query, ds)
    report = convergence_study(
        family, ds.X, query, eps_grid, args.sigma2, seed=args.seed, tol=args.tol
    )
    rows = []
    for i, eps in enumerate(report.eps_values):
        var_dev = report.var_devs[i] if i < len(report.var_devs) else float("nan")
        rows.append([format_float(eps), format_float(report.mean_devs[i]), format_float(var_dev)])
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
    kern = _make_kernel(args, gamma=1.0)
    # the curve runs from small to large gains, whichever end is written first
    gamma_grid = _parse_grid(args.gamma_grid, order="ascending")
    xa = np.full(ds.d, float(args.xa)) if "," not in args.xa else np.array([float(v) for v in args.xa.split(",")])
    xb = np.full(ds.d, float(args.xb)) if "," not in args.xb else np.array([float(v) for v in args.xb.split(",")])
    curve = prediction_curve(kern, ds.X, ds.y, args.sigma2, gamma_grid, xa, xb)
    rows = []
    errors = []
    for g, pt, status in zip(curve.gammas, curve.points, curve.statuses):
        if pt is None:
            rows.append([format_float(g), "nan", "nan", status])
            errors.append(f"gamma={g:g}: {status}")
        else:
            rows.append([format_float(g), format_float(pt[0]), format_float(pt[1]), status])
    anchor_rows = [
        {"degree": deg, "pred_a": pa, "pred_b": pb} for deg, pa, pb in curve.anchors
    ]
    metrics = {"anchors": anchor_rows, "eps": args.eps}
    return _emit(args, "pred-curve", metrics, ["gamma", "pred_a", "pred_b", "status"], rows, errors)


def cmd_nugget_compare(args):
    ds = _load_data(args)
    kern = _make_kernel(args, gamma=1.0)
    gamma_grid = _parse_grid(args.gamma_grid)
    rows = []
    errors = []
    for variant, nug in (("nugget", args.nugget), ("plain", 0.0)):
        spec = GpSpectrum.from_kernel(
            kern.with_params(epsilon=args.eps), ds.X, nugget=nug, vectors=False
        )
        for g in gamma_grid:
            val, status = _dof_cell(spec.scaled(g), args.sigma2)
            if status != "ok":
                errors.append(f"{variant} gamma={g:g}: {status}")
            rows.append([variant, format_float(g), val, status])
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


def build_parser():
    ap = argparse.ArgumentParser(prog="flatgp", description=__doc__)
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


def main(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code else 0
    try:
        return args.func(args)
    except (FlatGpError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
