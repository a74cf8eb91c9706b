"""Isofreedom curves, their log-log slopes, and matched flat-limit approximations.

An isofreedom curve fixes the effective degrees of freedom m and traces the
gain gamma_m(eps) achieving it.  In log-log axes the curve straightens to an
integer slope as eps -> 0; following it all the way down lands on the matched
flat-limit model: a (penalized) polynomial or a spline with the same degrees
of freedom as the source GP.

Every gain and penalty here solves one equation, smoother trace
``m0 + sum g lam / (g lam + sigma2)`` = target dof, and ``spm.solve_trace`` is
the single solver of it: the gain at one kernel's epsilon is
``solve_trace(spec.evals, 0.0, m, sigma2)[0]`` on the kernel's unit-gain
spectrum ``spec``.  That equation reads eigenvalues only, so
``isofreedom_curve`` computes its spectra without eigenvectors
(``vectors=False``) through ``pool.map_spectra``: stacked ``eigvalsh`` calls
(``pool`` states the stacking rule), factored and solved concurrently, and a
grid that fits in one stack inline.  A kernel passed here carries its
epsilon and gain; a function replaces only those it sweeps or solves for.  A
matched approximation keeps the target's factorization, which records the
target model and the design and carries the tuned gain.
"""

import math
from dataclasses import dataclass

from .errors import InsufficientGrid, UnreachableDof
from .flatlimit import LimitCaseKind, ScaledKernelFamily, classify_limit, loglog_slope
from .gp import GpSpectrum
from .kernels import Kernel, regularity
from .polybasis import as_design, count_poly_dim
from .pool import map_spectra
from .spm import SaddleFactorization, SpmFit, factorize_model, solve_trace


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


def isofreedom_curve(kernel: Kernel, X, sigma2: float, m: float, eps_grid) -> IsofreedomCurve:
    """Per-epsilon gains at fixed dof plus the asymptotic log-log slope.

    The slope is fitted on the smaller half of the (decreasing) epsilon grid
    only, where the Puiseux behaviour has set in; that half needs at least two
    points, so grids of fewer than three raise InsufficientGrid.  Each
    epsilon's trace solve runs in the pool worker that factored its spectrum;
    the first epsilon whose solve fails, in grid order, raises.
    """
    eps_grid = [float(e) for e in eps_grid]
    if any(b >= a for a, b in zip(eps_grid, eps_grid[1:])):
        raise ValueError("eps_grid must be strictly decreasing")
    if len(eps_grid) < 3:
        raise InsufficientGrid(
            f"an isofreedom slope needs at least 3 epsilon values, got {len(eps_grid)}"
        )

    def point(spec):
        g = solve_trace(spec.evals, 0.0, m, sigma2)[0]
        achieved = spec.scaled(g).dof(sigma2)
        return IsofreedomPoint(
            epsilon=spec.model.kernel.epsilon, gamma=g, dof_achieved=achieved,
            residual=achieved - m,
        )

    kernels = [kernel.with_params(epsilon=eps, gamma=1.0) for eps in eps_grid]
    points = map_spectra(point, kernels, X, vectors=False)
    half = math.ceil(len(points) / 2)
    tail = points[-half:]
    slope = loglog_slope([p.epsilon for p in tail], [p.gamma for p in tail])
    return IsofreedomCurve(points=tuple(points), slope=slope, target=m)


# ---------------------------------------------------------------------------
# matched approximation


@dataclass(frozen=True)
class MatchedApproximation:
    """A flat-limit model tuned to the source GP's degrees of freedom.

    ``source`` is the source GP's spectrum, ``factorization`` the target's:
    the target model at unit gain is ``factorization.model``, its gain
    ``factorization.gain``, and both record the design.  Fits of the target
    (``fit``) use ``penalty`` in place of the noise variance (for spline
    targets this is the tuned eta; for polynomial targets the source sigma2,
    with the tuned gain in the factorization).
    """

    case: LimitCaseKind
    penalty: float
    achieved_dof: float
    source_dof: float
    source: SaddleFactorization
    factorization: SaddleFactorization

    def fit(self, y) -> SpmFit:
        """The target fitted to ``y`` against its stored factorization."""
        return self.factorization.fit(y, self.penalty)


def matched_approximation(kernel: Kernel, sigma2: float, X) -> MatchedApproximation:
    """Follow the isofreedom curve from the source GP ``kernel`` (its epsilon
    and gain) down to its flat limit.

    The target is the flat limit (``classify_limit``) at the exponent p the
    source dof m selects.  With P_j the dimension of polynomials of degree
    <= j: for finite regularity r and m >= P_{r-1}, p = 2r - 1, the order-r
    spline, its penalty tuned through the spline dof formula; otherwise, with
    P_{k-1} <= m < P_k, p = 2k - 1 (unpenalized, degree k - 1) where
    m = P_{k-1} and p = 2k (penalized by the degree-k block, its gain tuned
    to trace m) elsewhere.
    """
    design = as_design(X)
    source = GpSpectrum.from_kernel(kernel, design)
    m = source.dof(sigma2)
    if not 0 < m < design.n - 1e-9:
        raise UnreachableDof(f"source dof {m:.6g} outside (0, n)")

    r = regularity(kernel)
    d = design.d
    if math.isfinite(r) and m >= count_poly_dim(int(r) - 1, d):
        p_flat = 2 * int(r) - 1
    else:
        k = 0
        while count_poly_dim(k, d) <= m + 1e-9:
            k += 1
        p_flat = 2 * k - 1 if abs(m - count_poly_dim(k - 1, d)) <= 1e-9 else 2 * k
    case = classify_limit(ScaledKernelFamily(kernel, p_flat), design)
    fac = factorize_model(case.equivalent_model, design)
    penalty = sigma2
    if case.kind is LimitCaseKind.UNPENALIZED_POLYNOMIAL:
        achieved = float(fac.m)
    elif case.kind is LimitCaseKind.SPLINE_REGRESSION:
        # the penalty eta = 1 / g: lam / (lam + eta) = g lam / (g lam + 1)
        g, achieved = solve_trace(fac.evals, fac.m, m, 1.0)
        penalty = 1.0 / g
    else:
        g, achieved = solve_trace(fac.evals, fac.m, m, sigma2)
        fac = fac.scaled(g)
    return MatchedApproximation(
        case=case.kind,
        penalty=penalty,
        achieved_dof=achieved,
        source_dof=m,
        source=source,
        factorization=fac,
    )
