"""Isofreedom curves, their log-log slopes, and matched flat-limit approximations.

An isofreedom curve fixes the effective degrees of freedom m and traces the
gain gamma_m(eps) achieving it.  In log-log axes the curve straightens to an
integer slope as eps -> 0; following it all the way down lands on the matched
flat-limit model: a (penalized) polynomial or a spline with the same degrees
of freedom as the source GP.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import UnreachableDof
from .flatlimit import LimitCaseKind
from .gp import GpSpectrum
from .kernels import Kernel, dataclass_replace, regularity, wronskian, wronskian_schur
from .polybasis import as_design, count_poly_dim, enumerate_monomials
from .spm import SemiParametricModel, factorize_model, fit_factored, polyharmonic_spm

_RESIDUAL_TOL = 1e-10
_BRACKET_LIMIT = 1e30


@dataclass(frozen=True)
class IsofreedomPoint:
    epsilon: float
    gamma: float
    dof_achieved: float
    residual: float


@dataclass(frozen=True)
class IsofreedomCurve:
    points: tuple
    slope: float
    target: float


def _solve_dof_gamma(evals, sigma2, m):
    """Unique gamma with sum gamma*lam/(gamma*lam + sigma2) = m, by bisection."""
    lam = np.maximum(np.asarray(evals, dtype=float), 0.0)
    n = lam.size

    def dof_at(g):
        return float(np.sum(g * lam / (g * lam + sigma2)))

    lo, hi = 1e-12, 1e12
    while dof_at(hi) < m:
        hi *= 10.0
        if hi > _BRACKET_LIMIT:
            raise UnreachableDof(
                f"target dof {m} exceeds the effective rank at this epsilon"
            )
    while dof_at(lo) > m:
        lo /= 10.0
        if lo < 1.0 / _BRACKET_LIMIT:
            raise UnreachableDof(f"target dof {m} below the reachable range")
    for _ in range(400):
        mid = math.sqrt(lo * hi)
        if dof_at(mid) < m:
            lo = mid
        else:
            hi = mid
        if abs(dof_at(mid) - m) <= _RESIDUAL_TOL * n:
            return mid
    g = math.sqrt(lo * hi)
    if abs(dof_at(g) - m) > _RESIDUAL_TOL * n:
        raise UnreachableDof(f"bisection could not reach dof {m} to tolerance")
    return g


def isofreedom_gamma(kernel: Kernel, X, sigma2: float, eps: float, m: float) -> float:
    """The gain putting the smoother's trace at exactly ``m`` for this epsilon."""
    design = as_design(X)
    if not 0 < m < design.n:
        raise UnreachableDof(f"target dof must lie strictly inside (0, {design.n})")
    if sigma2 <= 0:
        raise ValueError("isofreedom solves need sigma2 > 0")
    spec = GpSpectrum.from_kernel(kernel.with_params(epsilon=eps, gamma=1.0), design)
    return _solve_dof_gamma(spec.evals, sigma2, m)


def isofreedom_curve(kernel: Kernel, X, sigma2: float, m: float, eps_grid) -> IsofreedomCurve:
    """Per-epsilon gains at fixed dof plus the asymptotic log-log slope.

    The slope is fitted on the smaller half of the (decreasing) epsilon grid
    only, where the Puiseux behaviour has set in.
    """
    eps_grid = [float(e) for e in eps_grid]
    if any(b >= a for a, b in zip(eps_grid, eps_grid[1:])):
        raise ValueError("eps_grid must be strictly decreasing")
    design = as_design(X)
    points = []
    for eps in eps_grid:
        spec = GpSpectrum.from_kernel(kernel.with_params(epsilon=eps, gamma=1.0), design)
        g = _solve_dof_gamma(spec.evals, sigma2, m)
        achieved = spec.dof(gamma=g, sigma2=sigma2)
        points.append(
            IsofreedomPoint(
                epsilon=eps, gamma=g, dof_achieved=achieved, residual=achieved - m
            )
        )
    half = math.ceil(len(points) / 2)
    tail = points[-half:]
    slope = float(
        np.polyfit(
            np.log([p.epsilon for p in tail]), np.log([p.gamma for p in tail]), 1
        )[0]
    )
    return IsofreedomCurve(points=tuple(points), slope=slope, target=m)


# ---------------------------------------------------------------------------
# matched approximation


@dataclass(frozen=True)
class MatchedApproximation:
    """A flat-limit model tuned to the source GP's degrees of freedom.

    Predictions from the target use ``penalty`` in place of the noise variance
    (for spline targets this is the tuned eta; for polynomial targets the
    source sigma2 with the gain folded into the kernel).
    """

    source_kernel: Kernel
    sigma2: float
    design: object
    case: LimitCaseKind
    target: SemiParametricModel
    penalty: float
    achieved_dof: float
    source_dof: float

    @cached_property
    def factorization(self):
        """The target's saddle-point factorization, shared by all predictions."""
        return factorize_model(self.target, self.design)

    def _fit(self, y):
        return fit_factored(self.target, self.design, self.factorization, y, self.penalty)

    def predict(self, y, query_points):
        return self._fit(y).predict(query_points)

    def predict_var(self, y, query_points):
        return self._fit(y).predict_var(query_points)


def _monomial_block_model(kernel, p, d):
    unit = dataclass_replace(kernel, epsilon=1.0, gamma=1.0)
    Wbar = wronskian_schur(wronskian(unit, p, d), p)
    block = [mi for mi in enumerate_monomials(p, d) if mi.degree == p]
    return SemiParametricModel(
        Kernel.monomial_block(block, Wbar), d=d, basis_degree=p - 1
    )


def _tune_gain(model, X, sigma2, m):
    """Absolute gain making the model smoother's trace equal m, plus that trace."""
    from .spm import spm_filter_eigenvalues

    mb, lam = spm_filter_eigenvalues(model, X)

    def trace_at(g):
        return mb + float(np.sum(g * lam / (g * lam + sigma2)))

    lo, hi = 1e-12, 1e12
    while trace_at(hi) < m:
        hi *= 10.0
        if hi > _BRACKET_LIMIT:
            raise UnreachableDof(f"gain tuning cannot reach dof {m}")
    while trace_at(lo) > m:
        lo /= 10.0
        if lo < 1.0 / _BRACKET_LIMIT:
            raise UnreachableDof(f"gain tuning cannot go down to dof {m}")
    for _ in range(400):
        mid = math.sqrt(lo * hi)
        if trace_at(mid) < m:
            lo = mid
        else:
            hi = mid
    g = math.sqrt(lo * hi)
    return g, trace_at(g)


def _tune_spline_eta(r, X, m):
    """Penalty eta with spline dof p + sum lam/(lam + eta) = m, plus that dof."""
    from .spm import spm_filter_eigenvalues

    design = as_design(X)
    model = polyharmonic_spm(r, design.d)
    mb, lam = spm_filter_eigenvalues(model, design)

    def trace_at(eta):
        return mb + float(np.sum(lam / (lam + eta)))

    lo, hi = 1e-14, 1e14
    # trace decreases in eta: bracket so trace(hi) <= m <= trace(lo)
    while trace_at(lo) < m:
        lo /= 10.0
        if lo < 1.0 / _BRACKET_LIMIT:
            raise UnreachableDof(f"spline tuning cannot reach dof {m}")
    while trace_at(hi) > m:
        hi *= 10.0
        if hi > _BRACKET_LIMIT:
            raise UnreachableDof(f"spline tuning cannot go down to dof {m}")
    for _ in range(400):
        mid = math.sqrt(lo * hi)
        if trace_at(mid) > m:
            lo = mid
        else:
            hi = mid
    eta = math.sqrt(lo * hi)
    return eta, trace_at(eta)


def matched_approximation(kernel: Kernel, eps: float, gamma: float, sigma2: float, X) -> MatchedApproximation:
    """Follow the isofreedom curve from (eps, gamma) down to its flat limit.

    For infinitely smooth kernels the target is a penalized polynomial model
    whose gain is tuned so the target smoother's trace equals the source dof;
    for finite regularity r the target is the order-r polyharmonic spline
    model with its penalty tuned through the spline dof formula, falling back
    to the polynomial cases when the dof sits below the spline's floor.
    """
    design = as_design(X)
    src = kernel.with_params(epsilon=eps, gamma=gamma)
    spec = GpSpectrum.from_kernel(src, design)
    m = spec.dof(gamma=gamma, sigma2=sigma2)
    if not 0 < m < design.n - 1e-9:
        raise UnreachableDof(f"source dof {m:.6g} outside (0, n)")

    r = regularity(kernel)
    d = design.d
    spline_floor = count_poly_dim(int(r) - 1, d) if math.isfinite(r) else None

    if math.isfinite(r) and m >= spline_floor:
        eta, achieved = _tune_spline_eta(int(r), design, m)
        target = polyharmonic_spm(int(r), d)
        return MatchedApproximation(
            source_kernel=src,
            sigma2=sigma2,
            design=design,
            case=LimitCaseKind.SPLINE_REGRESSION,
            target=target,
            penalty=eta,
            achieved_dof=achieved,
            source_dof=m,
        )

    # polynomial regime: largest complete graded block below m
    p = 0
    while count_poly_dim(p, d) <= m + 1e-9:
        p += 1
    # m sits in [P_{p-1,d}, P_{p,d}); the degree-p block carries the fraction
    if abs(m - count_poly_dim(p - 1, d)) <= 1e-9:
        target = SemiParametricModel(Kernel.zero(), d=d, basis_degree=p - 1)
        achieved = float(count_poly_dim(p - 1, d))
        return MatchedApproximation(
            source_kernel=src,
            sigma2=sigma2,
            design=design,
            case=LimitCaseKind.UNPENALIZED_POLYNOMIAL,
            target=target,
            penalty=sigma2,
            achieved_dof=achieved,
            source_dof=m,
        )
    base_model = _monomial_block_model(kernel, p, d)
    g, achieved = _tune_gain(base_model, design, sigma2, m)
    target = base_model.scaled(g / base_model.kernel.gamma)
    return MatchedApproximation(
        source_kernel=src,
        sigma2=sigma2,
        design=design,
        case=LimitCaseKind.PENALIZED_POLYNOMIAL,
        target=target,
        penalty=sigma2,
        achieved_dof=achieved,
        source_dof=m,
    )
