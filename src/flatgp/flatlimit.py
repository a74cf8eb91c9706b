"""Flat-limit analysis: equivalent models, limiting smoothers, certification.

A scaled family k_eps with gain gamma0 * eps^(-p) has, as eps -> 0, a
semi-parametric limit whose form depends only on p and the kernel regularity
r: penalized polynomial regression (p even, p < 2r-1), unpenalized polynomial
regression (p odd, p < 2r-1), (polyharmonic) spline regression (p = 2r-1), or
interpolation (p > 2r-1, or a basis that already saturates the design).
"""

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    IllConditioned,
    InsufficientGrid,
    NotProportional,
    NotUnisolvent,
)
from .gp import GpSpectrum, gp_posteriors
from .kernels import (
    Family,
    Kernel,
    dataclass_replace,
    distance_power_matrix,
    kernel_cross,
    leading_odd_coefficient,
    regularity,
    wronskian,
    wronskian_schur,
)
from .polybasis import as_design, count_poly_dim, enumerate_monomials, vandermonde
from .smoothers import SmootherMatrix
from .spm import (
    SemiParametricModel,
    factorize_model,
    fit_factored,
    fit_spm,
    polyharmonic_spm,
    project_out_basis,
    require_comparable,
    spm_smoother,
)

_EIG_KEEP_TOL = 1e-12


@dataclass(frozen=True)
class ScaledKernelFamily:
    """The family eps -> gamma0 * eps^(-p) * psi(eps ||x - y||)."""

    base: Kernel
    p: int
    gamma0: float = 1.0

    def __post_init__(self):
        if self.p < 0 or self.p != int(self.p):
            raise ValueError("p must be a nonnegative integer")
        if self.gamma0 <= 0:
            raise ValueError("gamma0 must be positive")

    def kernel_at(self, eps: float) -> Kernel:
        return dataclass_replace(
            self.base, epsilon=float(eps), gamma=self.gamma0 * float(eps) ** (-self.p)
        )

    @property
    def regularity(self):
        return regularity(self.base)


class LimitCaseKind(enum.Enum):
    PENALIZED_POLYNOMIAL = "penalized-polynomial"
    UNPENALIZED_POLYNOMIAL = "unpenalized-polynomial"
    SPLINE_REGRESSION = "spline-regression"
    INTERPOLATION = "interpolation"


@dataclass(frozen=True)
class LimitCase:
    """Classified flat limit: the equivalent model and whether the equivalence
    only holds up to a global kernel rescaling."""

    kind: LimitCaseKind
    basis_degree: int
    m: int
    equivalent_model: SemiParametricModel
    scale_free: bool


def _monomial_block_kernel(kernel: Kernel, m: int, d: int) -> Kernel:
    """Finite-rank kernel sum_{|a|=|b|=m} Wbar_m(a, b) x^a y^b at unit scale."""
    unit = dataclass_replace(kernel, epsilon=1.0, gamma=1.0)
    W = wronskian(unit, m, d)
    Wbar = wronskian_schur(W, m)
    block = [mi for mi in enumerate_monomials(m, d) if mi.degree == m]
    return Kernel.monomial_block(block, Wbar)


def classify_limit(r, p: int, d: int, n: int = None, kernel: Kernel = None) -> LimitCase:
    """Case table of the flat-limit theorems for regularity r and exponent p.

    With ``n`` given, bases that saturate the design are classified as
    interpolation.  With ``kernel`` given, the penalized case materializes the
    exact Wronskian-Schur block kernel (no free constant); without it, and for
    the Gaussian family, the canonical polynomial kernel is returned with
    ``scale_free=True``.
    """
    if p < 0:
        raise ValueError("p must be nonnegative")
    finite_r = math.isfinite(r)
    l = (p + 1) // 2 if p % 2 else p // 2
    saturated = n is not None and count_poly_dim(l - 1, d) >= n
    gamma0 = kernel.gamma if kernel is not None else 1.0

    if (finite_r and p > 2 * r - 1) or saturated:
        if finite_r and p > 2 * r - 1:
            model = polyharmonic_spm(int(r), d)
        else:
            # largest complete graded basis the design can carry (exact for d=1)
            degree = 0
            while count_poly_dim(degree + 1, d) <= n:
                degree += 1
            model = SemiParametricModel(Kernel.zero(), d=d, basis_degree=degree)
        return LimitCase(
            kind=LimitCaseKind.INTERPOLATION,
            basis_degree=model.basis_degree,
            m=l,
            equivalent_model=model,
            scale_free=False,
        )
    if finite_r and p == 2 * r - 1:
        model = polyharmonic_spm(int(r), d)
        model = model.scaled(gamma0) if gamma0 != 1.0 else model
        return LimitCase(
            kind=LimitCaseKind.SPLINE_REGRESSION,
            basis_degree=int(r) - 1,
            m=int(r),
            equivalent_model=model,
            scale_free=True,
        )
    if p % 2:  # odd, p < 2r-1: unpenalized polynomial fit of degree l-1
        model = SemiParametricModel(Kernel.zero(), d=d, basis_degree=l - 1)
        return LimitCase(
            kind=LimitCaseKind.UNPENALIZED_POLYNOMIAL,
            basis_degree=l - 1,
            m=l,
            equivalent_model=model,
            scale_free=False,
        )
    # even, p = 2m < 2r-1: penalized polynomial with degree-m kernel block
    m = l
    if kernel is not None and kernel.family is not Family.GAUSSIAN:
        block_kernel = _monomial_block_kernel(kernel, m, d)
        block_kernel = dataclass_replace(block_kernel, gamma=gamma0)
        model = SemiParametricModel(block_kernel, d=d, basis_degree=m - 1)
        scale_free = False
    else:
        model = SemiParametricModel(Kernel.polynomial(m, gamma=gamma0), d=d, basis_degree=m - 1)
        scale_free = True
    return LimitCase(
        kind=LimitCaseKind.PENALIZED_POLYNOMIAL,
        basis_degree=m - 1,
        m=m,
        equivalent_model=model,
        scale_free=scale_free,
    )


def _require_prefix_rank(vblocks, upto_degree, d):
    have = sum(vblocks.block_ranks[: upto_degree + 1])
    need = count_poly_dim(upto_degree, d)
    if have < need:
        raise NotUnisolvent(
            f"design is not unisolvent for monomials of degree <= {upto_degree}"
        )


def limiting_smoother(family: ScaledKernelFamily, X, sigma2: float) -> SmootherMatrix:
    """The eps -> 0 limit of the family's smoother matrix on the design.

    Projection onto low-degree discrete polynomials, plus (in the penalized
    and spline cases) filtered eigenmodes of the degree-m Wronskian block or
    of the projected distance matrix f_{2r-1} Dtilde^(2r-1).
    """
    design = as_design(X)
    n, d = design.n, design.d
    r = family.regularity
    p = family.p
    gamma0 = family.gamma0
    finite_r = math.isfinite(r)
    l = (p + 1) // 2 if p % 2 else p // 2

    if count_poly_dim(l - 1, d) >= n or (finite_r and r < (p + 1) / 2):
        return SmootherMatrix(np.eye(n))

    if finite_r and p == 2 * r - 1:
        rr = int(r)
        vb = vandermonde(design, rr - 1)
        _require_prefix_rank(vb, rr - 1, d)
        Q = vb.q_prefix(rr - 1)
        f_odd = leading_odd_coefficient(family.base)
        D = distance_power_matrix(design, 2 * rr - 1)
        Dt = project_out_basis(f_odd * D, Q)
        lam, U = np.linalg.eigh(Dt)
        keep = lam > _EIG_KEEP_TOL * max(1.0, float(np.abs(lam).max()))
        lam, U = lam[keep], U[:, keep]
        filt = gamma0 * lam / (gamma0 * lam + sigma2)
        M = Q @ Q.T + (U * filt[None, :]) @ U.T
        return SmootherMatrix(0.5 * (M + M.T))

    if p % 2:  # odd: pure projector onto degree <= l-1
        vb = vandermonde(design, l - 1)
        _require_prefix_rank(vb, l - 1, d)
        Q = vb.q_prefix(l - 1)
        M = Q @ Q.T
        return SmootherMatrix(0.5 * (M + M.T))

    # even p = 2l: projector onto degree <= l-1 plus penalized degree-l block
    vb = vandermonde(design, l)
    if l > 0:
        _require_prefix_rank(vb, l - 1, d)
    A = vb.q_prefix(l - 1)
    Ql = vb.q_block(l)
    unit = dataclass_replace(family.base, epsilon=1.0, gamma=1.0)
    Wbar = wronskian_schur(wronskian(unit, l, d), l)
    Vl = vb.blocks[l]
    Pl = Ql @ Ql.T @ Vl @ Wbar @ Vl.T @ Ql @ Ql.T
    lam, U = np.linalg.eigh(0.5 * (Pl + Pl.T))
    keep = lam > _EIG_KEEP_TOL * max(1.0, float(np.abs(lam).max()))
    lam, U = lam[keep], U[:, keep]
    filt = gamma0 * lam / (gamma0 * lam + sigma2)
    M = A @ A.T + (U * filt[None, :]) @ U.T
    return SmootherMatrix(0.5 * (M + M.T))


# ---------------------------------------------------------------------------
# prediction-equivalence


def recombined_basis_model(model: SemiParametricModel, seed: int = 0) -> SemiParametricModel:
    """Same model with the monomial basis replaced by a random invertible mix.

    Prediction-equivalent to the original by construction: the recombination
    spans the same space.
    """
    if model.basis_functions is not None:
        raise ValueError("expected a monomial-basis model")
    m = model.basis_size()
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(m, m)) + 3.0 * np.eye(m)
    indices = enumerate_monomials(model.basis_degree, model.d)

    def make(j):
        def func(pts, j=j):
            from .polybasis import monomial_matrix

            return monomial_matrix(np.asarray(pts), indices) @ A[:, j]

        return func

    return SemiParametricModel(
        model.kernel, d=model.d, basis_functions=tuple(make(j) for j in range(m))
    )


def absorbed_kernel_model(model: SemiParametricModel, coefficient: float = 1.0) -> SemiParametricModel:
    """Add ``coefficient * sum_v v(x) v(y)`` over the basis into the kernel.

    Outer products of unpenalized basis functions are absorbed by the improper
    prior, so the result is prediction-equivalent to the original.
    """
    if model.basis_functions is not None:
        raise ValueError("expected a monomial-basis model")
    indices = enumerate_monomials(model.basis_degree, model.d)
    bump = Kernel.monomial_block(indices, coefficient * np.eye(len(indices)))
    if model.kernel.family is Family.ZERO:
        new_kernel = bump
    else:
        new_kernel = Kernel.sum_of(model.kernel, bump)
    return SemiParametricModel(new_kernel, d=model.d, basis_degree=model.basis_degree)


@dataclass(frozen=True)
class EquivalenceCheck:
    equivalent: bool
    max_mean_dev: float
    max_var_dev: float
    max_smoother_dev: float
    tol: float
    num_trials: int
    seed: int


def check_pred_equiv(
    model_a: SemiParametricModel,
    model_b: SemiParametricModel,
    X,
    num_trials: int = 8,
    tol: float = 1e-8,
    seed: int = 0,
) -> tuple:
    """Test prediction-equivalence on random data, noise levels, and queries.

    Also compares smoother matrices on X and on X augmented with each query
    point.  Returns (equivalent, EquivalenceCheck).

    Each model is factored once on X, and every trial's fits, variances and
    smoothers on X are solves against that factorization, since none of it
    depends on the drawn (y, sigma2).  Both models are still factored on each
    trial's augmented design.  The two models never share a factorization:
    that would compare a model with itself.
    """
    require_comparable(model_a, model_b)
    design = as_design(X)
    fac_a = factorize_model(model_a, design)
    fac_b = factorize_model(model_b, design)
    rng = np.random.default_rng(seed)
    lo = design.points.min(axis=0)
    hi = design.points.max(axis=0)
    dev_mean = dev_var = dev_smoother = 0.0
    for _ in range(num_trials):
        y = rng.normal(size=design.n)
        sigma2 = float(10.0 ** rng.uniform(-2, 0.5))
        x_new = rng.uniform(lo, hi)[None, :]
        fa = fit_factored(model_a, design, fac_a, y, sigma2)
        fb = fit_factored(model_b, design, fac_b, y, sigma2)
        dev_mean = max(dev_mean, float(np.abs(fa.predict(x_new) - fb.predict(x_new)).max()))
        dev_var = max(dev_var, float(np.abs(fa.predict_var(x_new) - fb.predict_var(x_new)).max()))
        Ma = fac_a.smoother(sigma2).matrix
        Mb = fac_b.smoother(sigma2).matrix
        dev_smoother = max(dev_smoother, float(np.abs(Ma - Mb).max()))
        X_aug = np.vstack([design.points, x_new])
        Ma = spm_smoother(model_a, X_aug, sigma2).matrix
        Mb = spm_smoother(model_b, X_aug, sigma2).matrix
        dev_smoother = max(dev_smoother, float(np.abs(Ma - Mb).max()))
    ok = dev_mean <= tol and dev_var <= tol and dev_smoother <= tol
    report = EquivalenceCheck(
        equivalent=ok,
        max_mean_dev=dev_mean,
        max_var_dev=dev_var,
        max_smoother_dev=dev_smoother,
        tol=tol,
        num_trials=num_trials,
        seed=seed,
    )
    return ok, report


def _match_gain_to_trace(target_trace, model_b, X, sigma2, lo=1e-12, hi=1e12):
    """Gain g with trace(smoother of model_b scaled to g) = target, by bisection.

    Works on the unit-gain filter eigenvalues so the curve stays exact at
    extreme gains.
    """
    from .spm import spm_filter_eigenvalues

    m, lam = spm_filter_eigenvalues(model_b, X)

    def trace_at(g):
        return m + float(np.sum(g * lam / (g * lam + sigma2)))

    for _ in range(200):
        if trace_at(hi) >= target_trace or hi > 1e30:
            break
        hi *= 10.0
    for _ in range(200):
        if trace_at(lo) <= target_trace or lo < 1e-30:
            break
        lo /= 10.0
    if trace_at(hi) < target_trace or trace_at(lo) > target_trace:
        raise NotProportional("trace matching failed: target outside reachable range")
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        if trace_at(mid) < target_trace:
            lo = mid
        else:
            hi = mid
    return math.sqrt(lo * hi)


def match_scale(
    model_a: SemiParametricModel,
    model_b: SemiParametricModel,
    X,
    sigma2: float,
    tol: float = 1e-6,
) -> float:
    """Scalar alpha with <l_a, V> ~ <alpha l_b, V'> on the design.

    Found by matching smoother traces (monotone in the gain), then verified by
    full smoother agreement; raises NotProportional when no scalar works.
    """
    require_comparable(model_a, model_b)
    design = as_design(X)
    Ma = spm_smoother(model_a, design, sigma2)
    g = _match_gain_to_trace(Ma.trace, model_b, design, sigma2)
    Mb = spm_smoother(model_b.scaled(g / model_b.kernel.gamma), design, sigma2)
    if float(np.abs(Ma.matrix - Mb.matrix).max()) > tol:
        raise NotProportional(
            "traces match but smoothers differ; models are not proportional"
        )
    # alpha multiplies model_b's kernel as given: <l_a, V> ~ <alpha l_b, V'>
    return g / model_b.kernel.gamma


# ---------------------------------------------------------------------------
# convergence studies


@dataclass(frozen=True)
class EquivalenceReport:
    """Per-epsilon deviations between a scaled family and its classified limit."""

    case: LimitCase
    eps_values: tuple
    mean_devs: tuple
    var_devs: tuple
    slope_mean: float
    slope_var: float
    matched_gain: float
    final_dev: float
    passed: bool
    dropped_eps: tuple
    seed: int
    tol: float


def _loglog_slope(eps, devs):
    eps = np.asarray(eps, dtype=float)
    devs = np.maximum(np.asarray(devs, dtype=float), 1e-300)
    return float(np.polyfit(np.log(eps), np.log(devs), 1)[0])


def _limit_model_for_study(family, case, X, sigma2):
    """The comparison SPM with its gain set (bisected when scale-free)."""
    model = case.equivalent_model
    if case.kind is LimitCaseKind.INTERPOLATION:
        return model, 1.0
    if model.kernel.family is Family.ZERO:
        return model, 1.0
    if not case.scale_free:
        return model, 1.0
    M0 = limiting_smoother(family, X, sigma2)
    g = _match_gain_to_trace(M0.trace, model, X, sigma2)
    Mb = spm_smoother(model.scaled(g / model.kernel.gamma), X, sigma2)
    if float(np.abs(M0.matrix - Mb.matrix).max()) > 1e-6:
        raise NotProportional("canonical limit model is not proportional to the limit")
    return model.scaled(g / model.kernel.gamma), g


def convergence_study(
    family: ScaledKernelFamily,
    X,
    query_points,
    eps_grid,
    sigma2: float,
    num_trials: int = 3,
    seed: int = 0,
    tol: float = 1e-2,
) -> EquivalenceReport:
    """Measure, per epsilon, how far the family's predictions sit from the limit.

    Random data vectors are drawn with the recorded seed; deviations are max
    absolute differences of predictive means and variances over the query
    points.  Pass requires a fitted log-log slope >= 0.8 and a final deviation
    below ``tol``.  Ill-conditioned epsilons are dropped (recorded); fewer
    than three usable ones raise InsufficientGrid.

    The limit model is factored once, and each epsilon's kernel matrix is
    eigendecomposed once; every trial vector is solved against those.
    """
    eps_grid = [float(e) for e in eps_grid]
    if any(b >= a for a, b in zip(eps_grid, eps_grid[1:])):
        raise ValueError("eps_grid must be strictly decreasing")
    design = as_design(X)
    case = classify_limit(
        family.regularity, family.p, design.d, n=design.n, kernel=family.kernel_at(1.0)
    )
    limit_model, matched_gain = _limit_model_for_study(family, case, design, sigma2)
    interpolation = case.kind is LimitCaseKind.INTERPOLATION
    limit_sigma2 = 0.0 if interpolation else sigma2

    rng = np.random.default_rng(seed)
    ys = rng.normal(size=(num_trials, design.n))
    limit_fac = factorize_model(limit_model, design)
    limit_fits = [fit_factored(limit_model, design, limit_fac, y, limit_sigma2) for y in ys]
    limit_means = [f.predict(query_points) for f in limit_fits]
    if not interpolation:
        limit_var = limit_fits[0].predict_var(query_points)

    used, dropped, mean_devs, var_devs = [], [], [], []
    for eps in eps_grid:
        try:
            means, var = gp_posteriors(family.kernel_at(eps), design, ys, sigma2, query_points)
        except IllConditioned:
            dropped.append(eps)
            continue
        used.append(eps)
        mean_devs.append(
            max((float(np.abs(m - lm).max()) for m, lm in zip(means, limit_means)), default=0.0)
        )
        if not interpolation:
            var_devs.append(float(np.abs(var - limit_var).max()))
    if len(used) < 3:
        raise InsufficientGrid(f"only {len(used)} usable epsilon values")

    slope_mean = _loglog_slope(used, mean_devs)
    slope_var = _loglog_slope(used, var_devs) if var_devs else float("nan")
    final_dev = mean_devs[-1]
    passed = slope_mean >= 0.8 and final_dev <= tol
    return EquivalenceReport(
        case=case,
        eps_values=tuple(used),
        mean_devs=tuple(mean_devs),
        var_devs=tuple(var_devs),
        slope_mean=slope_mean,
        slope_var=slope_var,
        matched_gain=matched_gain,
        final_dev=final_dev,
        passed=passed,
        dropped_eps=tuple(dropped),
        seed=seed,
        tol=tol,
    )


# ---------------------------------------------------------------------------
# prediction curves


@dataclass(frozen=True)
class PredictionCurve:
    """Parametric curve gamma -> (prediction at xa, prediction at xb)."""

    gammas: tuple
    points: tuple  # (pred_a, pred_b) per gamma; None where ill-conditioned
    anchors: tuple  # (degree, pred_a, pred_b) for unpenalized polynomial fits
    statuses: tuple


def prediction_curve(
    kernel: Kernel, X, y, sigma2: float, eps: float, gamma_grid, xa, xb
) -> PredictionCurve:
    """Data behind the two-point visualization of the flat-limit theorems."""
    design = as_design(X)
    y = np.asarray(y, dtype=float)
    gamma_grid = [float(g) for g in gamma_grid]
    if any(g <= 0 for g in gamma_grid) or any(
        b <= a for a, b in zip(gamma_grid, gamma_grid[1:])
    ):
        raise ValueError("gamma_grid must be positive and ascending")
    queries = np.vstack([np.atleast_1d(xa), np.atleast_1d(xb)]).astype(float)
    if queries.shape[1] != design.d:
        raise ValueError("xa and xb must be points of the design dimension")

    spec = GpSpectrum.from_kernel(kernel.with_params(epsilon=eps), design)
    points, statuses = [], []
    for g in gamma_grid:
        kq = kernel_cross(kernel.with_params(epsilon=eps, gamma=g), queries, design)
        try:
            sol = spec.solve(g, sigma2, y)
            pred = kq @ sol
            points.append((float(pred[0]), float(pred[1])))
            statuses.append("ok")
        except IllConditioned:
            points.append(None)
            statuses.append("ill-conditioned")

    anchors = []
    deg = 0
    while count_poly_dim(deg, design.d) <= design.n:
        model = SemiParametricModel(Kernel.zero(), d=design.d, basis_degree=deg)
        try:
            pred = fit_spm(model, design, y, 0.0).predict(queries)
        except NotUnisolvent:
            break
        anchors.append((deg, float(pred[0]), float(pred[1])))
        deg += 1
    return PredictionCurve(
        gammas=tuple(gamma_grid),
        points=tuple(points),
        anchors=tuple(anchors),
        statuses=tuple(statuses),
    )
