"""Flat-limit analysis: equivalent models, limiting smoothers, certification.

A scaled family k_eps with gain gamma0 * eps^(-p) has, as eps -> 0, a
semi-parametric limit whose form depends only on p and the kernel regularity
r: penalized polynomial regression (p even, p < 2r-1), unpenalized polynomial
regression (p odd, p < 2r-1), (polyharmonic) spline regression (p = 2r-1), or
interpolation (p > 2r-1, or a basis that already saturates the design).

That limit is one semi-parametric model (SPM).  ``classify_limit`` names it
from the family and the design alone, ``_limit_model`` fixes the constant
that the classification leaves free, and the limiting smoother, the
convergence studies and the matched gain all factor that one exact model
with the spectral core of ``spm``.
"""

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    IllConditioned,
    InsufficientGrid,
    NegativeVariance,
    NotProportional,
    NotUnisolvent,
    UnreachableDof,
)
from .gp import GpSpectrum
from .kernels import (
    Family,
    Kernel,
    kernel_cross,
    leading_odd_coefficient,
    regularity,
    wronskian,
    wronskian_schur,
)
from .polybasis import (
    as_design,
    count_poly_dim,
    enumerate_monomials,
    monomial_matrix,
)
from .pool import map_spectra
from .smoothers import SmootherMatrix, difference
from .spm import (
    SaddleFactorization,
    SemiParametricModel,
    factorize_model,
    fit_factored,
    fit_spm,
    polyharmonic_spm,
    require_comparable,
    solve_trace,
)

@dataclass(frozen=True)
class ScaledKernelFamily:
    """The family eps -> gamma0 * eps^(-p) * psi(eps ||x - y||)."""

    base: Kernel
    p: int
    gamma0: float = 1.0

    def __post_init__(self):
        if self.p < 0 or self.p != int(self.p):
            raise ValueError("p must be a nonnegative integer")
        if not 0 < self.gamma0 < math.inf:
            raise ValueError(f"gamma0 must be positive and finite, got gamma0={self.gamma0}")

    def kernel_at(self, eps: float) -> Kernel:
        return self.base.with_params(
            epsilon=float(eps), gamma=self.gamma0 * float(eps) ** (-self.p)
        )


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
    m: int
    equivalent_model: SemiParametricModel
    scale_free: bool

    @property
    def basis_degree(self) -> int:
        return self.equivalent_model.basis_degree


def _monomial_block_kernel(kernel: Kernel, m: int, d: int) -> Kernel:
    """Finite-rank kernel sum_{|a|=|b|=m} Wbar_m(a, b) x^a y^b at unit scale.

    Wbar_m is the Schur complement of the degree-m block of the unit-scale
    Wronskian; the kernel's ``coef`` holds it, rows in monomial order.
    """
    unit = kernel.with_params(epsilon=1.0, gamma=1.0)
    Wbar = wronskian_schur(wronskian(unit, m, d), m, d)
    block = [e for e in enumerate_monomials(m, d) if sum(e) == m]
    return Kernel.monomial_block(block, Wbar)


def classify_limit(family: ScaledKernelFamily, X) -> LimitCase:
    """Case table of the flat-limit theorems for ``family`` on the design X.

    The case follows from the base kernel's regularity r, the exponent p and
    the design's dimension d; a basis that saturates the design's n points is
    classified as interpolation.  The penalized case of a Gaussian base is
    the canonical polynomial kernel at gain gamma0 (``scale_free=True``);
    any other base gives its exact Wronskian-Schur block kernel at gamma0
    (no free constant).
    """
    design = as_design(X)
    r, p, d, gamma0 = regularity(family.base), family.p, design.d, family.gamma0
    finite_r = math.isfinite(r)
    l = (p + 1) // 2
    saturated = count_poly_dim(l - 1, d) >= design.n

    if (finite_r and p > 2 * r - 1) or saturated:
        if finite_r and p > 2 * r - 1:
            model = polyharmonic_spm(int(r), d)
        else:
            # largest complete graded basis the design can carry (exact for d=1)
            degree = 0
            while count_poly_dim(degree + 1, d) <= design.n:
                degree += 1
            model = SemiParametricModel(Kernel.zero(), d=d, basis_degree=degree)
        return LimitCase(
            kind=LimitCaseKind.INTERPOLATION,
            m=l,
            equivalent_model=model,
            scale_free=False,
        )
    if finite_r and p == 2 * r - 1:
        model = polyharmonic_spm(int(r), d)
        model = model.scaled(gamma0) if gamma0 != 1.0 else model
        return LimitCase(
            kind=LimitCaseKind.SPLINE_REGRESSION,
            m=int(r),
            equivalent_model=model,
            scale_free=True,
        )
    if p % 2:  # odd, p < 2r-1: unpenalized polynomial fit of degree l-1
        model = SemiParametricModel(Kernel.zero(), d=d, basis_degree=l - 1)
        return LimitCase(
            kind=LimitCaseKind.UNPENALIZED_POLYNOMIAL,
            m=l,
            equivalent_model=model,
            scale_free=False,
        )
    # even, p = 2m < 2r-1: penalized polynomial with degree-m kernel block
    m = l
    if family.base.family is not Family.GAUSSIAN:
        block_kernel = _monomial_block_kernel(family.base, m, d)
        block_kernel = block_kernel.with_params(gamma=gamma0)
        model = SemiParametricModel(block_kernel, d=d, basis_degree=m - 1)
        scale_free = False
    else:
        model = SemiParametricModel(Kernel.polynomial(m, gamma=gamma0), d=d, basis_degree=m - 1)
        scale_free = True
    return LimitCase(
        kind=LimitCaseKind.PENALIZED_POLYNOMIAL,
        m=m,
        equivalent_model=model,
        scale_free=scale_free,
    )


def _limit_model(family: ScaledKernelFamily, case: LimitCase) -> SemiParametricModel:
    """The exact limit SPM of ``family``: its classified model, with the
    constant fixed where the classification leaves it free (``scale_free``).

    The spline limit's kernel is f_{2r-1} ||x - y||^(2r-1), the polyharmonic
    kernel times |f_{2r-1}| (``leading_odd_coefficient``); the Gaussian's
    degree-m Wronskian-Schur block is (2^m / m!) (x^T y)^m, that constant
    times the canonical polynomial kernel.
    """
    model = case.equivalent_model
    if not case.scale_free:
        return model
    if case.kind is LimitCaseKind.SPLINE_REGRESSION:
        return model.scaled(abs(leading_odd_coefficient(family.base)))
    return model.scaled(2.0**case.m / math.factorial(case.m))


def limiting_smoother(family: ScaledKernelFamily, X, sigma2: float) -> SmootherMatrix:
    """The eps -> 0 limit of the family's smoother matrix on the design.

    It is the smoother of the exact limit SPM (``_limit_model``) at
    ``sigma2``, or the identity where the limit interpolates.  Designs that
    are not unisolvent for the limit's basis raise NotUnisolvent.  The
    identity is the smoother with no filtered modes whose basis is all of
    R^n: trace n, diagonal ones.
    """
    design = as_design(X)
    case = classify_limit(family, design)
    if case.kind is LimitCaseKind.INTERPOLATION:
        if not sigma2 >= 0:
            raise ValueError(f"sigma2 must be nonnegative, got sigma2={sigma2}")
        return SmootherMatrix(np.zeros((design.n, 0)), np.zeros(0), np.eye(design.n))
    return factorize_model(_limit_model(family, case), design).smoother(sigma2)


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


def _max_abs(A) -> float:
    """max |A| over all entries, with no temporary."""
    return max(float(A.max()), -float(A.min()))


def check_pred_equiv(
    model_a: SemiParametricModel,
    model_b: SemiParametricModel,
    X,
    num_trials: int = 8,
    tol: float = 1e-8,
    seed: int = 0,
    factorization_a: SaddleFactorization = None,
) -> tuple:
    """Test prediction-equivalence on random data, noise levels, and queries.

    Also compares smoother matrices on X and on X augmented with each query
    point.  Returns (equivalent, EquivalenceCheck).

    Each model is factored once on X (``factorization_a``, model_a's
    factorization on X, spares the first when the caller has it), and every
    trial's fits, variances and smoothers are solves against those, since
    none of it depends on the drawn (y, sigma2).  The two models never share
    a factorization: that would compare a model with itself.

    A trial forms one n x n matrix: the difference D = Sa - Sb of the two
    smoothers on X, from their spectral factors (``smoothers.difference``;
    Qa Qa^T - Qb Qb^T is formed once per check).  The smoother on X
    augmented with the query x* is a bordered update of the smoother on X
    (``augmented_smoother``): with (w, c) each model's bordered terms, which
    ``SpmFit.bordered`` takes from the same solve as the posterior at x*,

        M+ = [[M - c w w^T,  c w  ],
              [c w^T,        1 - c]]

    so after max |D| is read, D - ca wa wa^T + cb wb wb^T (in place),
    ca wa - cb wb and cb - ca are the blocks of Ma - Mb: no augmented design
    is factored and no smoother is formed.
    """
    require_comparable(model_a, model_b)
    design = as_design(X)
    fac_a = factorize_model(model_a, design) if factorization_a is None else factorization_a
    fac_b = factorize_model(model_b, design)
    basis = fac_a.Q @ fac_a.Q.T - fac_b.Q @ fac_b.Q.T if fac_a.m else None
    rng = np.random.default_rng(seed)
    lo = design.points.min(axis=0)
    hi = design.points.max(axis=0)
    dev_mean = dev_var = dev_smoother = 0.0
    for _ in range(num_trials):
        y = rng.normal(size=design.n)
        sigma2 = float(10.0 ** rng.uniform(-2, 0.5))
        x_new = rng.uniform(lo, hi)[None, :]
        mean_a, var_a, wa, ca = fit_factored(model_a, design, fac_a, y, sigma2).bordered(x_new)
        mean_b, var_b, wb, cb = fit_factored(model_b, design, fac_b, y, sigma2).bordered(x_new)
        dev_mean = max(dev_mean, float(np.abs(mean_a - mean_b).max()))
        dev_var = max(dev_var, float(np.abs(var_a - var_b).max()))
        D = difference(fac_a.smoother(sigma2), fac_b.smoother(sigma2), basis)
        dev_smoother = max(dev_smoother, _max_abs(D))
        W = np.stack([wa, wb], axis=1)
        D += (W * [-ca, cb]) @ W.T
        dev_smoother = max(
            dev_smoother, _max_abs(D), _max_abs(ca * wa - cb * wb), abs(float(cb - ca))
        )
    ok = bool(dev_mean <= tol and dev_var <= tol and dev_smoother <= tol)
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
    target = factorize_model(model_a, design).smoother(sigma2)
    fac = factorize_model(model_b, design)
    # the gain solves the trace equation on the unit-gain eigenvalues, so the
    # curve stays exact at extreme gains
    try:
        g, _ = solve_trace(fac.evals, fac.m, target.trace, sigma2)
    except UnreachableDof as exc:
        raise NotProportional(f"trace matching failed: {exc}") from exc
    # alpha multiplies model_b's kernel as given: <l_a, V> ~ <alpha l_b, V'>
    alpha = g / model_b.kernel.gamma
    if _max_abs(difference(target, fac.scaled(alpha).smoother(sigma2))) > tol:
        raise NotProportional("traces match but smoothers differ; models are not proportional")
    return alpha


# ---------------------------------------------------------------------------
# convergence studies


@dataclass(frozen=True)
class EquivalenceReport:
    """Per-epsilon deviations between a scaled family and its exact limit SPM."""

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
    """Least-squares slope of log(devs) against log(eps); values below 1e-300
    are read as 1e-300, so an exact zero stays finite."""
    eps = np.asarray(eps, dtype=float)
    devs = np.maximum(np.asarray(devs, dtype=float), 1e-300)
    return float(np.polyfit(np.log(eps), np.log(devs), 1)[0])


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
    below ``tol``.  Epsilons whose GP is ill-conditioned or has a predictive
    variance below round-off (NegativeVariance) are dropped (recorded); fewer
    than three usable ones raise InsufficientGrid.

    The limit is the exact limit SPM (``_limit_model``); ``matched_gain`` is
    its gain where the classified model leaves the constant free, and 1.0
    otherwise.  It is factored once, and each epsilon's kernel matrix is
    eigendecomposed once; the trial vectors are fitted at once, as the
    columns of one right-hand side, against those.  The epsilons are
    factored, fitted and compared concurrently (``pool.map_spectra``, one
    epsilon per task; a grid that fits in one eigenvalue stack runs inline),
    and the dropped ones keep their grid order.  An interpolating limit
    has no predictive variance to compare (at sigma2 = 0 it is zero up to
    round-off), so only means are compared there.
    """
    eps_grid = [float(e) for e in eps_grid]
    if any(b >= a for a, b in zip(eps_grid, eps_grid[1:])):
        raise ValueError("eps_grid must be strictly decreasing")
    design = as_design(X)
    case = classify_limit(family, design)
    limit_model = _limit_model(family, case)
    limit_fac = factorize_model(limit_model, design)
    matched_gain = limit_model.kernel.gamma if case.scale_free else 1.0
    interpolation = case.kind is LimitCaseKind.INTERPOLATION
    limit_sigma2 = 0.0 if interpolation else sigma2

    rng = np.random.default_rng(seed)
    # one trial vector per column
    ys = rng.normal(size=(num_trials, design.n)).T
    limit = fit_factored(limit_model, design, limit_fac, ys, limit_sigma2)
    if interpolation:
        limit_means = limit.predict(query_points)
    else:
        limit_means, limit_var = limit.posterior(query_points)

    def deviations(spec, kernel):
        """(mean deviation, variance deviation or None), or None to drop eps."""
        try:
            gp = fit_factored(SemiParametricModel(kernel, design.d), design, spec, ys, sigma2)
            means, var = gp.posterior(query_points)
        except (IllConditioned, NegativeVariance):
            return None
        mean_dev = float(np.abs(means - limit_means).max(initial=0.0))
        return mean_dev, None if interpolation else float(np.abs(var - limit_var).max())

    kernels = [family.kernel_at(eps) for eps in eps_grid]
    used, dropped, mean_devs, var_devs = [], [], [], []
    for eps, devs in zip(eps_grid, map_spectra(deviations, kernels, design, vectors=True)):
        if devs is None:
            dropped.append(eps)
            continue
        used.append(eps)
        mean_devs.append(devs[0])
        if not interpolation:
            var_devs.append(devs[1])
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


def prediction_curve(kernel: Kernel, X, y, sigma2: float, gamma_grid, xa, xb) -> PredictionCurve:
    """Data behind the two-point visualization of the flat-limit theorems, at
    the kernel's epsilon: each gamma of ``gamma_grid`` replaces its gain."""
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

    unit = kernel.with_params(gamma=1.0)
    spec = GpSpectrum.from_kernel(unit, design)
    # the cross kernel at gain g is g times the one at unit gain
    kq = kernel_cross(unit, queries, design)
    points, statuses = [], []
    for g in gamma_grid:
        try:
            pred = (g * kq) @ spec.scaled(g).solve(sigma2, y)[0]
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
