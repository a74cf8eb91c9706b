"""Isofreedom curves, their log-log slopes, and matched flat-limit approximations.

An isofreedom curve fixes the effective degrees of freedom m and traces the
gain gamma_m(eps) achieving it.  In log-log axes the curve straightens to an
integer slope as eps -> 0; following it all the way down lands on the matched
flat-limit model: a (penalized) polynomial or a spline with the same degrees
of freedom as the source GP.

Every gain and penalty here solves one equation, smoother trace
``m0 + sum g lam / (g lam + sigma2)`` = target dof, and ``spm.solve_trace`` is
the single solver of it.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InsufficientGrid, UnreachableDof
from .flatlimit import LimitCaseKind, _monomial_block_kernel
from .gp import GpSpectrum
from .kernels import Kernel, regularity
from .polybasis import as_design, count_poly_dim
from .spm import (
    SemiParametricModel,
    factorize_model,
    fit_factored,
    polyharmonic_spm,
    solve_trace,
    spm_filter_eigenvalues,
)


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


def isofreedom_gamma(kernel: Kernel, X, sigma2: float, eps: float, m: float) -> float:
    """The gain putting the smoother's trace at exactly ``m`` for this epsilon."""
    spec = GpSpectrum.from_kernel(kernel.with_params(epsilon=eps, gamma=1.0), X)
    return solve_trace(spec.evals, 0.0, m, sigma2)[0]


def isofreedom_curve(kernel: Kernel, X, sigma2: float, m: float, eps_grid) -> IsofreedomCurve:
    """Per-epsilon gains at fixed dof plus the asymptotic log-log slope.

    The slope is fitted on the smaller half of the (decreasing) epsilon grid
    only, where the Puiseux behaviour has set in; that half needs at least two
    points, so grids of fewer than three raise InsufficientGrid.
    """
    eps_grid = [float(e) for e in eps_grid]
    if any(b >= a for a, b in zip(eps_grid, eps_grid[1:])):
        raise ValueError("eps_grid must be strictly decreasing")
    if len(eps_grid) < 3:
        raise InsufficientGrid(
            f"an isofreedom slope needs at least 3 epsilon values, got {len(eps_grid)}"
        )
    design = as_design(X)
    points = []
    for eps in eps_grid:
        spec = GpSpectrum.from_kernel(kernel.with_params(epsilon=eps, gamma=1.0), design)
        g = solve_trace(spec.evals, 0.0, m, sigma2)[0]
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
        target = polyharmonic_spm(int(r), d)
        base, lam = spm_filter_eigenvalues(target, design)
        # the penalty eta = 1 / g: lam / (lam + eta) = g lam / (g lam + 1)
        g, achieved = solve_trace(lam, base, m, 1.0)
        return MatchedApproximation(
            source_kernel=src,
            sigma2=sigma2,
            design=design,
            case=LimitCaseKind.SPLINE_REGRESSION,
            target=target,
            penalty=1.0 / g,
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
    unit_target = SemiParametricModel(
        _monomial_block_kernel(kernel, p, d), d=d, basis_degree=p - 1
    )
    base, lam = spm_filter_eigenvalues(unit_target, design)
    g, achieved = solve_trace(lam, base, m, sigma2)
    target = unit_target.scaled(g)
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
