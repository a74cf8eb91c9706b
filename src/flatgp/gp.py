"""Non-parametric GP regression, its smoother matrix, and selection criteria.

The smoother of a GP with gain gamma and noise sigma2 filters each eigenmode
of the unit-gain kernel matrix by lambda / (lambda + sigma2 / gamma).  All
smoother-dependent quantities here are computed from a single symmetric
eigendecomposition of that matrix, which is reused across gamma values when
sweeping grids.
"""

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateVariance,
    IllConditioned,
    InterpolatingSmoother,
)
from .kernels import Kernel, kernel_cross, kernel_diag, kernel_matrix
from .polybasis import as_design
from .smoothers import SmootherMatrix

_LOO_DIAG_TOL = 1e-10


@dataclass(frozen=True)
class GpHyperparameters:
    epsilon: float
    gamma: float
    sigma2: float
    nugget: float = 0.0

    def __post_init__(self):
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if self.sigma2 < 0 or self.nugget < 0:
            raise ValueError("sigma2 and nugget must be nonnegative")


class CriterionKind(enum.Enum):
    LOO_MSE = "loo-mse"
    LOO_NLL = "loo-nll"
    SURE = "sure"
    NLML = "nlml"


@dataclass(frozen=True)
class CriterionValue:
    kind: CriterionKind
    value: float


@dataclass(frozen=True)
class GpSpectrum:
    """Eigendecomposition of the unit-gain kernel matrix (plus optional nugget).

    Cheap to reuse across gamma: only the filter lambda/(lambda + sigma2/gamma)
    changes along a grid.
    """

    evals: np.ndarray
    evecs: np.ndarray
    gamma: float

    @classmethod
    def from_kernel(cls, kernel: Kernel, X, nugget: float = 0.0) -> "GpSpectrum":
        design = as_design(X)
        K = kernel_matrix(kernel.with_params(gamma=1.0), design)
        if nugget:
            K = K + nugget * np.eye(design.n)
        evals, evecs = np.linalg.eigh(K)
        # round-off negatives of a PSD matrix are numerically zero
        cut = 1e-13 * max(float(evals.max(initial=0.0)), 0.0)
        evals = np.where((evals < 0) & (evals >= -cut), 0.0, evals)
        return cls(evals=evals, evecs=evecs, gamma=kernel.gamma)

    def _check(self, gamma, sigma2):
        smallest = gamma * float(self.evals.min()) + sigma2
        if smallest <= 0:
            raise IllConditioned(
                f"K + sigma2 I has nonpositive smallest eigenvalue {smallest:.3e}",
                smallest_eigenvalue=smallest,
            )
        return smallest

    def dof(self, gamma=None, sigma2=0.0) -> float:
        gamma = self.gamma if gamma is None else gamma
        self._check(gamma, sigma2)
        lam = gamma * self.evals
        if sigma2 == 0:
            return float(np.sum(lam > 0))
        return float(np.sum(lam / (lam + sigma2)))

    def smoother(self, gamma=None, sigma2=0.0) -> SmootherMatrix:
        gamma = self.gamma if gamma is None else gamma
        self._check(gamma, sigma2)
        lam = gamma * self.evals
        filt = lam / (lam + sigma2) if sigma2 > 0 else np.ones_like(lam)
        M = (self.evecs * filt[None, :]) @ self.evecs.T
        return SmootherMatrix(0.5 * (M + M.T))

    def solve(self, gamma, sigma2, rhs):
        """(gamma K + sigma2 I)^{-1} rhs through the eigensystem."""
        self._check(gamma, sigma2)
        denom = gamma * self.evals + sigma2
        z = self.evecs.T @ rhs
        z = z / (denom[:, None] if z.ndim == 2 else denom)
        return self.evecs @ z


def gp_posterior(kernel: Kernel, X, y, sigma2: float, query_points, nugget: float = 0.0):
    """Posterior mean and variance at query points under Gaussian noise."""
    means, var = gp_posteriors(kernel, X, [y], sigma2, query_points, nugget=nugget)
    return means[0], var


def gp_posteriors(kernel: Kernel, X, ys, sigma2: float, query_points, nugget: float = 0.0):
    """Posterior means of each data vector in ``ys``, and the shared variance.

    One eigendecomposition serves every vector; each is solved on its own,
    so its mean is exactly what ``gp_posterior`` gives for it.
    """
    design = as_design(X)
    spec = GpSpectrum.from_kernel(kernel, design, nugget=nugget)
    kq = kernel_cross(kernel, query_points, design)
    means = [kq @ spec.solve(kernel.gamma, sigma2, np.asarray(y, dtype=float)) for y in ys]
    prior = kernel_diag(kernel, query_points)
    quad = np.einsum("ij,ji->i", kq, spec.solve(kernel.gamma, sigma2, kq.T))
    var = prior - quad
    return means, np.maximum(var, 0.0)


def gp_smoother(kernel: Kernel, X, sigma2: float, nugget: float = 0.0) -> SmootherMatrix:
    """M = K (K + (sigma2 / gamma) I)^{-1} via the symmetric eigendecomposition."""
    spec = GpSpectrum.from_kernel(kernel, X, nugget=nugget)
    return spec.smoother(kernel.gamma, sigma2)


def dof(M: SmootherMatrix) -> float:
    """Effective degrees of freedom: the trace of the smoother."""
    return M.trace


def loo_mse(M: SmootherMatrix, y) -> CriterionValue:
    """Fast leave-one-out squared error from the smoother matrix."""
    y = np.asarray(y, dtype=float)
    diag = M.diagonal()
    if np.any(diag >= 1.0 - _LOO_DIAG_TOL):
        raise InterpolatingSmoother(
            "a smoother diagonal entry is 1; leave-one-out is undefined at interpolation"
        )
    resid = (y - M.fitted(y)) / (1.0 - diag)
    return CriterionValue(CriterionKind.LOO_MSE, float(np.mean(resid**2)))


def loo_components(M: SmootherMatrix, y, sigma2: float):
    """Leave-one-out predictive means and variances of each held-out y_i."""
    y = np.asarray(y, dtype=float)
    diag = M.diagonal()
    if np.any(diag >= 1.0 - _LOO_DIAG_TOL):
        raise InterpolatingSmoother(
            "a smoother diagonal entry is 1; leave-one-out is undefined at interpolation"
        )
    resid = (y - M.fitted(y)) / (1.0 - diag)
    mean = y - resid
    var = sigma2 / (1.0 - diag)
    return mean, var


def loo_nll(M: SmootherMatrix, y, sigma2: float) -> CriterionValue:
    """Fast leave-one-out negative log-likelihood from the smoother matrix."""
    mean, var = loo_components(M, y, sigma2)
    if np.any(var <= 0):
        raise DegenerateVariance("nonpositive leave-one-out predictive variance")
    y = np.asarray(y, dtype=float)
    val = np.mean(0.5 * np.log(2.0 * math.pi * var) + 0.5 * (y - mean) ** 2 / var)
    return CriterionValue(CriterionKind.LOO_NLL, float(val))


def sure(M: SmootherMatrix, y, sigma2: float) -> CriterionValue:
    """Stein's unbiased risk estimate; assumes sigma2 known."""
    if sigma2 <= 0:
        raise ValueError("sure requires sigma2 > 0")
    y = np.asarray(y, dtype=float)
    resid = y - M.fitted(y)
    n = len(y)
    val = -sigma2 + float(np.mean(resid**2)) + 2.0 * sigma2 * M.trace / n
    return CriterionValue(CriterionKind.SURE, float(val))


def nlml(kernel: Kernel, X, y, sigma2: float, nugget: float = 0.0) -> CriterionValue:
    """Negative log marginal likelihood of the observations.

    Divergent along flat-limit gain paths (the prior becomes improper); kept
    for completeness and never used by the flat-limit tooling.
    """
    design = as_design(X)
    y = np.asarray(y, dtype=float)
    spec = GpSpectrum.from_kernel(kernel, design, nugget=nugget)
    w = kernel.gamma * spec.evals + sigma2
    smallest = float(w.min())
    if smallest <= 0:
        raise IllConditioned(
            f"K + sigma2 I not positive definite, smallest eigenvalue {smallest:.3e}",
            smallest_eigenvalue=smallest,
        )
    z = spec.evecs.T @ y
    val = 0.5 * float(np.sum(np.log(2.0 * math.pi * w))) + 0.5 * float(np.sum(z**2 / w))
    return CriterionValue(CriterionKind.NLML, val)
