"""Command-line front end: grids, curves, convergence studies, plot data.

Every command writes a JSON summary (config echo, seed, metrics, errors) and,
where applicable, a long-format CSV next to it.  Exit code 0 on success, 1 on
usage errors, 2 when numerical failures left only partial output.  Grid cells
are evaluated concurrently; FLATGP_THREADS caps the pool.
"""

import argparse
import os
import sys
from concurrent.futures import ThreadPoolExecutor

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
from .gp import GpSpectrum, gp_posterior, loo_mse, loo_nll, nlml, sure
from .kernels import Kernel
from .polybasis import Design
from .spm import SemiParametricModel, fit_spm


def _threads():
    raw = os.environ.get("FLATGP_THREADS", "").strip()
    if raw:
        return max(1, int(raw))
    return min(8, os.cpu_count() or 1)


def _parse_grid(spec, log=True):
    """Parse 'a:b:k' into a k-point grid from a to b (log-spaced by default)."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"grid must be a:b:k, got {spec!r}")
    a, b, k = float(parts[0]), float(parts[1]), int(parts[2])
    if k < 1:
        raise argparse.ArgumentTypeError("grid needs at least one point")
    if log:
        if a <= 0 or b <= 0:
            raise argparse.ArgumentTypeError("log grids need positive endpoints")
        return np.geomspace(a, b, k)
    return np.linspace(a, b, k)


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
        ds = parse_dataset(args.data, target_col=args.y_col)
        return ds
    n = args.n or 8
    d = args.dim or 1
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
    kern = _make_kernel(args)
    spec = GpSpectrum.from_kernel(kern, ds.X, nugget=args.nugget)
    M = spec.smoother(kern.gamma, args.sigma2)
    fitted = M.fitted(ds.y)
    metrics = {"dof": M.trace, "n": ds.n, "d": ds.d}
    evaluations = {
        "loo_mse": lambda: loo_mse(M, ds.y).value,
        "loo_nll": lambda: loo_nll(M, ds.y, args.sigma2).value,
        "sure": lambda: sure(M, ds.y, args.sigma2).value,
        "nlml": lambda: nlml(kern, ds.X, ds.y, args.sigma2, nugget=args.nugget).value,
    }
    for name, fn in evaluations.items():
        try:
            metrics[name] = fn()
        except FlatGpError as exc:
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
    if args.basis_degree is not None or args.kernel == "zero":
        degree = args.basis_degree if args.basis_degree is not None else 0
        model = SemiParametricModel(_make_kernel(args), d=ds.d, basis_degree=degree)
        fit = fit_spm(model, ds.X, ds.y, args.sigma2)
        mean = fit.predict(query)
        var = fit.predict_var(query)
    else:
        mean, var = gp_posterior(
            _make_kernel(args), ds.X, ds.y, args.sigma2, query, nugget=args.nugget
        )
    header = [f"x{j + 1}" for j in range(ds.d)] + ["mean", "variance"]
    rows = [
        [format_float(v) for v in query[i]] + [format_float(mean[i]), format_float(var[i])]
        for i in range(len(query))
    ]
    return _emit(args, "predict", {"n_query": len(query)}, header, rows)


def _grid_eval(args, ds, values_fn):
    """Evaluate values_fn(spectrum, eps) over the epsilon grid, in parallel."""
    eps_grid = _parse_grid(args.eps_grid)
    kern = _make_kernel(args, eps=1.0, gamma=1.0)

    def one(eps):
        spec = GpSpectrum.from_kernel(kern.with_params(epsilon=eps), ds.X, nugget=args.nugget)
        return values_fn(spec, eps)

    with ThreadPoolExecutor(max_workers=_threads()) as pool:
        results = list(pool.map(one, eps_grid))
    return eps_grid, results


def cmd_dof_grid(args):
    ds = _load_data(args)
    gamma_grid = _parse_grid(args.gamma_grid)
    errors = []

    def values(spec, eps):
        out = []
        for g in gamma_grid:
            try:
                out.append((format_float(spec.dof(gamma=g, sigma2=args.sigma2)), "ok"))
            except IllConditioned as exc:
                out.append(("nan", f"ill-conditioned:{exc.smallest_eigenvalue:.3e}"))
        return out

    eps_grid, results = _grid_eval(args, ds, values)
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

    def values(spec, eps):
        out = []
        for g in gamma_grid:
            try:
                M = spec.smoother(gamma=g, sigma2=args.sigma2)
                cell = {
                    "loo_mse": loo_mse(M, ds.y).value,
                    "loo_nll": loo_nll(M, ds.y, args.sigma2).value,
                    "sure": sure(M, ds.y, args.sigma2).value,
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
    eps_grid = _parse_grid(args.eps_grid)
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
    approx = matched_approximation(kern, args.eps, args.gamma, args.sigma2, ds.X)
    query = _parse_query(args.query, ds)
    mean_src, var_src = gp_posterior(kern, ds.X, ds.y, args.sigma2, query)
    mean_tgt = approx.predict(ds.y, query)
    var_tgt = approx.predict_var(ds.y, query)
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
    case = classify_limit(family.regularity, family.p, ds.d, n=ds.n, kernel=family.kernel_at(1.0))
    model = case.equivalent_model
    m = model.basis_size()
    results = {}
    if m > 0:
        ok, rep = check_pred_equiv(
            model, recombined_basis_model(model, seed=args.seed), ds.X,
            tol=args.tol, seed=args.seed,
        )
        results["basis_change"] = {
            "equivalent": ok,
            "max_dev": max(rep.max_mean_dev, rep.max_var_dev, rep.max_smoother_dev),
        }
        ok, rep = check_pred_equiv(
            model, absorbed_kernel_model(model, coefficient=0.7), ds.X,
            tol=args.tol, seed=args.seed,
        )
        results["kernel_absorption"] = {
            "equivalent": ok,
            "max_dev": max(rep.max_mean_dev, rep.max_var_dev, rep.max_smoother_dev),
        }
    status = all(v["equivalent"] for v in results.values())
    metrics = {"case": case.kind.value, "basis_size": m, "checks": results, "all_equivalent": status}
    code = _emit(args, "equiv-check", metrics)
    return code if status else 2


def cmd_converge(args):
    ds = _load_data(args)
    family = ScaledKernelFamily(_make_kernel(args, gamma=1.0), p=args.p, gamma0=args.gamma0)
    eps_grid = sorted(_parse_grid(args.eps_grid), reverse=True)
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
        "slope_var": report.slope_var,
        "final_dev": report.final_dev,
        "matched_gain": report.matched_gain,
        "pass": report.passed,
        "dropped_eps": list(report.dropped_eps),
    }
    errors = [f"dropped eps={e:g}" for e in report.dropped_eps]
    code = _emit(args, "converge", metrics, ["eps", "mean_dev", "var_dev"], rows, errors)
    return code


def cmd_pred_curve(args):
    ds = _load_data(args)
    kern = _make_kernel(args, gamma=1.0)
    gamma_grid = _parse_grid(args.gamma_grid)
    xa = np.full(ds.d, float(args.xa)) if "," not in args.xa else np.array([float(v) for v in args.xa.split(",")])
    xb = np.full(ds.d, float(args.xb)) if "," not in args.xb else np.array([float(v) for v in args.xb.split(",")])
    curve = prediction_curve(kern, ds.X, ds.y, args.sigma2, args.eps, gamma_grid, xa, xb)
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
    for variant, nug in (("nugget", args.nugget or 1e-6), ("plain", 0.0)):
        spec = GpSpectrum.from_kernel(kern.with_params(epsilon=args.eps), ds.X, nugget=nug)
        for g in gamma_grid:
            try:
                val, status = format_float(spec.dof(gamma=g, sigma2=args.sigma2)), "ok"
            except IllConditioned as exc:
                val, status = "nan", f"ill-conditioned:{exc.smallest_eigenvalue:.3e}"
                errors.append(f"{variant} gamma={g:g}: {status}")
            rows.append([variant, format_float(g), val, status])
    header = ["variant", "gamma", "dof", "status"]
    return _emit(args, "nugget-compare", {"eps": args.eps}, header, rows, errors)


# ---------------------------------------------------------------------------


def _add_common(sp, query=False, grids=()):
    sp.add_argument("--data", help="CSV dataset (features then target column)")
    sp.add_argument("--y-col", help="name of the target column")
    sp.add_argument("--n", type=int, help="synthesize n points when --data absent")
    sp.add_argument("--dim", type=int, help="dimension of synthesized points")
    sp.add_argument("--kernel", default="gaussian", choices=["gaussian", "exponential", "matern", "zero"])
    sp.add_argument("--nu", type=float, help="matern smoothness (half-integer)")
    sp.add_argument("--sigma2", type=float, default=0.01)
    sp.add_argument("--nugget", type=float, default=0.0)
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
    _add_common(sp)
    sp.add_argument("--eps", type=float, default=1.0)
    sp.add_argument("--gamma", type=float, default=1.0)
    sp.set_defaults(func=cmd_fit)

    sp = sub.add_parser("predict", help="posterior mean/variance at query points")
    _add_common(sp, query=True)
    sp.add_argument("--eps", type=float, default=1.0)
    sp.add_argument("--gamma", type=float, default=1.0)
    sp.add_argument("--basis-degree", type=int, help="add unpenalized monomials up to this degree")
    sp.set_defaults(func=cmd_predict)

    sp = sub.add_parser("dof-grid", help="degrees of freedom over an (eps, gamma) grid")
    _add_common(sp, grids=("--eps-grid", "--gamma-grid"))
    sp.set_defaults(func=cmd_dof_grid)

    sp = sub.add_parser("criteria-grid", help="selection criteria over an (eps, gamma) grid")
    _add_common(sp, grids=("--eps-grid", "--gamma-grid"))
    sp.set_defaults(func=cmd_criteria_grid)

    sp = sub.add_parser("isofreedom", help="gamma(eps) at fixed degrees of freedom")
    _add_common(sp, grids=("--eps-grid",))
    sp.add_argument("--dof", type=float, required=True)
    sp.set_defaults(func=cmd_isofreedom)

    sp = sub.add_parser("matched", help="matched flat-limit approximation of a GP fit")
    _add_common(sp, query=True)
    sp.add_argument("--eps", type=float, required=True)
    sp.add_argument("--gamma", type=float, required=True)
    sp.set_defaults(func=cmd_matched)

    sp = sub.add_parser("equiv-check", help="prediction-equivalence checks for the classified limit")
    _add_common(sp)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--gamma0", type=float, default=1.0)
    sp.add_argument("--tol", type=float, default=1e-8)
    sp.set_defaults(func=cmd_equiv_check)

    sp = sub.add_parser("converge", help="convergence study against the classified flat limit")
    _add_common(sp, query=True, grids=("--eps-grid",))
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--gamma0", type=float, default=1.0)
    sp.add_argument("--tol", type=float, default=1e-2)
    sp.set_defaults(func=cmd_converge)

    sp = sub.add_parser("pred-curve", help="two-point prediction curve over a gamma grid")
    _add_common(sp, grids=("--gamma-grid",))
    sp.add_argument("--eps", type=float, required=True)
    sp.add_argument("--xa", required=True)
    sp.add_argument("--xb", required=True)
    sp.set_defaults(func=cmd_pred_curve)

    sp = sub.add_parser("nugget-compare", help="dof(gamma) with and without a nugget term")
    _add_common(sp, grids=("--gamma-grid",))
    sp.add_argument("--eps", type=float, required=True)
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
    except FlatGpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
