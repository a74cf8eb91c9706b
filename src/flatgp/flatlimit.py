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

Prediction-equivalence is a relation between factored models:
``check_pred_equiv`` and ``match_scale`` take two factorizations
(``spm.factorize_model``) and read the models, gains and design from them,
so they factor nothing and a factorization cannot stand beside another
model.
"""

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    IllConditioned,
    IncomparableModels,
    InsufficientGrid,
    NegativeVariance,
    NotProportional,
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
    framed_monomials,
    graded_basis,
)
from .pool import map_pooled, map_spectra
from .smoothers import SmootherMatrix, difference
from .spm import (
    SaddleFactorization,
    SemiParametricModel,
    check_sigma2,
    factorize_model,
    polyharmonic_spm,
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


def _monomial_block_kernel(kernel: Kernel, m: int, d: int, centre=None) -> Kernel:
    """Finite-rank kernel sum_{|a|=|b|=m} Wbar_m(a, b) (x - c)^a (y - c)^b at
    unit scale, with c the ``centre`` (default 0).

    Wbar_m is the Schur complement of the degree-m block of the unit-scale
    Wronskian; the kernel's ``coef`` holds it, rows in monomial order.
    """
    unit = kernel.with_params(epsilon=1.0, gamma=1.0)
    Wbar = wronskian_schur(wronskian(unit, m, d), m, d)
    block = [e for e in enumerate_monomials(m, d) if sum(e) == m]
    return Kernel.monomial_block(block, Wbar, centre=centre)


def classify_limit(family: ScaledKernelFamily, X) -> LimitCase:
    """Case table of the flat-limit theorems for ``family`` on the design X.

    The case follows from the base kernel's regularity r, the exponent p and
    the design's dimension d; a basis that saturates the design's n points is
    classified as interpolation.  The penalized case of a Gaussian base is
    the canonical polynomial kernel at gain gamma0 (``scale_free=True``);
    any other base gives its exact Wronskian-Schur block kernel at gamma0
    (no free constant).  Both are taken about the centre of the design's
    frame: for |a| = |b| = m, (x - c)^a (y - c)^b - x^a y^b has degree below
    m in x or in y, which the basis of degree m - 1 absorbs, so the model is
    the same while a design far from the origin keeps its digits.
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
    m, centre = l, design.frame[0]
    if family.base.family is not Family.GAUSSIAN:
        block_kernel = _monomial_block_kernel(family.base, m, d, centre)
        block_kernel = block_kernel.with_params(gamma=gamma0)
        model = SemiParametricModel(block_kernel, d=d, basis_degree=m - 1)
        scale_free = False
    else:
        kernel = Kernel.polynomial(m, gamma=gamma0, centre=centre)
        model = SemiParametricModel(kernel, d=d, basis_degree=m - 1)
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
    identity is the smoother of the unit vectors, each with filter 1: trace
    n, diagonal ones.
    """
    design = as_design(X)
    case = classify_limit(family, design)
    if case.kind is LimitCaseKind.INTERPOLATION:
        check_sigma2(sigma2)
        return SmootherMatrix(np.eye(design.n), np.ones(design.n))
    return factorize_model(_limit_model(family, case), design).smoother(sigma2)


# ---------------------------------------------------------------------------
# prediction-equivalence


def recombined_basis_model(
    model: SemiParametricModel, X, seed: int = 0
) -> SemiParametricModel:
    """Same model with the monomial basis replaced by a random invertible mix
    of the monomials in the frame of the design X (``framed_monomials``).

    Prediction-equivalent to the original by construction: the recombination
    spans the same space.  Mixed in the frame, the basis keeps its digits on
    a design far from the origin, where raw monomials of degree 2 and more
    are numerically dependent.
    """
    if model.basis_functions is not None:
        raise ValueError("expected a monomial-basis model")
    m = model.basis_size()
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(m, m)) + 3.0 * np.eye(m)
    indices = enumerate_monomials(model.basis_degree, model.d)
    design = as_design(X)

    def make(j):
        def func(pts, j=j):
            return framed_monomials(pts, indices, design) @ A[:, j]

        return func

    return SemiParametricModel(
        model.kernel, d=model.d, basis_functions=tuple(make(j) for j in range(m))
    )


def absorbed_kernel_model(
    model: SemiParametricModel, X, coefficient: float = 1.0
) -> SemiParametricModel:
    """Add ``coefficient * sum_v v(x) v(y)`` over the basis into the kernel,
    the monomials v taken about the centre of the design X's frame.

    Outer products of unpenalized basis functions are absorbed by the improper
    prior, so the result is prediction-equivalent to the original.  A zero
    kernel plus the bump has the bump's values.
    """
    if model.basis_functions is not None:
        raise ValueError("expected a monomial-basis model")
    indices = enumerate_monomials(model.basis_degree, model.d)
    bump = Kernel.monomial_block(
        indices, coefficient * np.eye(len(indices)), centre=as_design(X).frame[0]
    )
    return SemiParametricModel(
        Kernel.sum_of(model.kernel, bump), d=model.d, basis_degree=model.basis_degree
    )


# check_pred_equiv runs its trials on the pool (``pool.map_pooled``) from this
# design size up, and inline below it, where a trial is too short for the
# pool's start-up to pay.  Measured with one BLAS thread on a 2-vCPU VM, the
# fastest of 7 calls of 8 trials of a cubic spline limit against its absorbed
# kernel took 3.9 ms inline against 9.5 ms pooled at n = 50, 14.6 against
# 16.9 ms at n = 200, 30.2 against 23.1 ms at n = 300 and 44.2 against
# 29.5 ms at n = 400; between n = 225 and 275 the two were level within the
# host's noise.
_POOLED_TRIALS_SIZE = 250


@dataclass(frozen=True)
class EquivalenceCheck:
    equivalent: bool
    max_mean_dev: float
    max_var_dev: float
    max_smoother_dev: float


def _max_abs(A) -> float:
    """max |A| over all entries, with no temporary."""
    return max(float(A.max()), -float(A.min()))


def _require_comparable(fac_a: SaddleFactorization, fac_b: SaddleFactorization):
    """Raise IncomparableModels unless both are of one design and basis size."""
    if fac_a.m != fac_b.m:
        raise IncomparableModels(f"parametric dimensions differ: {fac_a.m} vs {fac_b.m}")
    if not np.array_equal(fac_a.design.points, fac_b.design.points):
        raise IncomparableModels("the factorizations are of different designs")


def check_pred_equiv(
    fac_a: SaddleFactorization,
    fac_b: SaddleFactorization,
    num_trials: int = 8,
    tol: float = 1e-8,
    seed: int = 0,
) -> EquivalenceCheck:
    """Test prediction-equivalence of two factored models (``factorize_model``)
    on random data, noise levels and queries, and compare their smoothers on
    the design and on the design augmented with each query point.

    Models, gains and design are read from the factorizations, and every
    trial's fits, variances and smoothers are solves against them: nothing
    is factored.  Factorizations of different designs or basis sizes raise
    IncomparableModels; ``num_trials`` < 1 or ``tol`` <= 0 raises ValueError.

    A trial forms one n x n matrix: the difference D = Sa - Sb of the two
    smoothers on X, from their eigenbases and filters
    (``smoothers.difference``); a basis is eigenvectors with filter 1 there,
    so no basis term is formed on its own.  The smoother on X
    augmented with the query x* is a bordered update of the smoother on X:
    with (w, c) each model's bordered terms, which ``SpmFit.bordered`` takes
    from the same solve as the posterior at x*,

        M+ = [[M - c w w^T,  c w  ],
              [c w^T,        1 - c]]

    so after max |D| is read, D - ca wa wa^T + cb wb wb^T (in place),
    ca wa - cb wb and cb - ca are the blocks of Ma - Mb: no augmented design
    is factored and no smoother is formed.

    The trials' data, noise levels and queries are drawn first, in trial
    order; the trials then run on the pool (``pool.map_pooled``) from
    ``_POOLED_TRIALS_SIZE`` design points up, and inline below.
    """
    if not num_trials >= 1:
        raise ValueError(f"num_trials must be at least 1, got num_trials={num_trials}")
    if not tol > 0:
        raise ValueError(f"tol must be positive, got tol={tol}")
    _require_comparable(fac_a, fac_b)
    design = fac_a.design
    rng = np.random.default_rng(seed)
    lo = design.points.min(axis=0)
    hi = design.points.max(axis=0)
    # every trial's data, noise level and query, drawn in trial order
    trials = [
        (rng.normal(size=design.n), float(10.0 ** rng.uniform(-2, 0.5)),
         rng.uniform(lo, hi)[None, :])
        for _ in range(num_trials)
    ]

    def deviations(trial):
        y, sigma2, x_new = trial
        mean_a, var_a, wa, ca = fac_a.fit(y, sigma2).bordered(x_new)
        mean_b, var_b, wb, cb = fac_b.fit(y, sigma2).bordered(x_new)
        D = difference(fac_a.smoother(sigma2), fac_b.smoother(sigma2))
        on_design = _max_abs(D)
        W = np.stack([wa, wb], axis=1)
        D += (W * [-ca, cb]) @ W.T
        return (
            float(np.abs(mean_a - mean_b).max()),
            float(np.abs(var_a - var_b).max()),
            float(np.max([on_design, _max_abs(D), _max_abs(ca * wa - cb * wb), abs(cb - ca)])),
        )

    if design.n >= _POOLED_TRIALS_SIZE:
        devs = map_pooled(deviations, trials)
    else:
        devs = [deviations(trial) for trial in trials]
    # numpy's max, unlike Python's, keeps a NaN wherever it stands
    dev_mean, dev_var, dev_smoother = np.max(devs, axis=0).tolist()
    return EquivalenceCheck(
        equivalent=bool(dev_mean <= tol and dev_var <= tol and dev_smoother <= tol),
        max_mean_dev=dev_mean,
        max_var_dev=dev_var,
        max_smoother_dev=dev_smoother,
    )


def match_scale(
    fac_a: SaddleFactorization,
    fac_b: SaddleFactorization,
    sigma2: float,
    tol: float = 1e-6,
) -> float:
    """Scalar alpha with <l_a, V> ~ <alpha l_b, V'> on the factorizations' design.

    Found by matching smoother traces (monotone in the gain), then verified by
    full smoother agreement; raises NotProportional when no scalar works, and
    IncomparableModels as ``check_pred_equiv`` does.
    """
    _require_comparable(fac_a, fac_b)
    target = fac_a.smoother(sigma2)
    # the gain solves the trace equation on the unit-gain eigenvalues, so the
    # curve stays exact at extreme gains
    try:
        g, _ = solve_trace(fac_b.evals, fac_b.m, target.trace, sigma2)
    except UnreachableDof as exc:
        raise NotProportional(f"trace matching failed: {exc}") from exc
    # alpha multiplies fac_b's gain: <l_a, V> ~ <alpha l_b, V'>
    alpha = g / fac_b.gain
    # a NaN difference is no agreement
    if not _max_abs(difference(target, fac_b.scaled(alpha).smoother(sigma2))) <= tol:
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


def loglog_slope(eps, devs):
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

    Random data vectors are drawn with ``seed``; deviations are max
    absolute differences of predictive means and variances over the query
    points.  Pass requires a fitted log-log slope >= 0.8 and a final deviation
    below ``tol``; ``tol`` <= 0 or ``num_trials`` < 1 raises ValueError.
    Epsilons whose GP is ill-conditioned or has a predictive variance below
    round-off (NegativeVariance) are dropped (recorded); fewer than three
    usable ones raise InsufficientGrid.

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
    if not num_trials >= 1:
        raise ValueError(f"num_trials must be at least 1, got num_trials={num_trials}")
    if not tol > 0:
        raise ValueError(f"tol must be positive, got tol={tol}")
    eps_grid = [float(e) for e in eps_grid]
    if any(b >= a for a, b in zip(eps_grid, eps_grid[1:])):
        raise ValueError("eps_grid must be strictly decreasing")
    design = as_design(X)
    case = classify_limit(family, design)
    limit_fac = factorize_model(_limit_model(family, case), design)
    matched_gain = limit_fac.gain if case.scale_free else 1.0
    interpolation = case.kind is LimitCaseKind.INTERPOLATION
    limit_sigma2 = 0.0 if interpolation else sigma2

    rng = np.random.default_rng(seed)
    # one trial vector per column
    ys = rng.normal(size=(num_trials, design.n)).T
    limit = limit_fac.fit(ys, limit_sigma2)
    if interpolation:
        limit_means = limit.predict(query_points)
    else:
        limit_means, limit_var = limit.posterior(query_points)

    def deviations(spec):
        """(mean deviation, variance deviation or None), or None to drop eps."""
        try:
            means, var = spec.fit(ys, sigma2).posterior(query_points)
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

    slope_mean = loglog_slope(used, mean_devs)
    slope_var = loglog_slope(used, var_devs) if var_devs else float("nan")
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
    the kernel's epsilon: each gamma of ``gamma_grid`` replaces its gain.

    The unit-gain spectrum is filtered at every gamma at once
    (``filter_terms``) and y is projected on its modes once, z; a gamma's
    prediction is (gamma kq) @ (modes @ (z / denom)), its solve, or None
    with status ``ill-conditioned`` where the filter refuses its row.  The
    anchors are the least-squares polynomial fits of degree 0, 1, ..., up to
    the highest the design separates, from one QR (``graded_basis``)."""
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
    _, denoms, errors = spec.filter_terms(sigma2, gamma_grid)
    z = spec.modes.T @ y
    # in solve's order, the coefficients and then the cross kernel, whose
    # terms cancel at large g: another order moves the digits
    points = [
        None if error else tuple(((g * kq) @ (spec.modes @ (z / denom))).tolist())
        for g, denom, error in zip(gamma_grid, denoms, errors)
    ]
    statuses = ["ill-conditioned" if error else "ok" for error in errors]

    Q, R, top = graded_basis(design, design.n - 1)
    z = Q.T @ y
    Vq = framed_monomials(queries, enumerate_monomials(top, design.d), design)
    sizes = [count_poly_dim(deg, design.d) for deg in range(top + 1)]
    fits = [Vq[:, :m] @ np.linalg.solve(R[:m, :m], z[:m]) for m in sizes]
    return PredictionCurve(
        gammas=tuple(gamma_grid),
        points=tuple(points),
        anchors=tuple((deg, float(pa), float(pb)) for deg, (pa, pb) in enumerate(fits)),
        statuses=tuple(statuses),
    )
