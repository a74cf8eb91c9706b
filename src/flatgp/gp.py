"""Non-parametric GP regression, its smoother matrix, and selection criteria.

The smoother of a GP with gain gamma and noise sigma2 filters each eigenmode
of the unit-gain kernel matrix by lambda / (lambda + sigma2 / gamma).  That
eigendecomposition is the spectral core of ``spm`` with an empty basis
(``GpSpectrum``, the same type as ``spm.SaddleFactorization``): posteriors,
smoothers and the marginal likelihood here are solves and filters against
it, and one spectrum serves every gamma of a grid.  This module adds the
selection criteria, which read the smoother matrix only.
"""

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateVariance, InterpolatingSmoother
from .kernels import Kernel, kernel_cross, kernel_diag
from .polybasis import as_design
from .smoothers import SmootherMatrix
from .spm import SaddleFactorization

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


# The GP spectrum is the saddle-point factorization of the model with an empty
# basis: ``GpSpectrum.from_kernel(kernel, X, nugget)``.
GpSpectrum = SaddleFactorization


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
    means = [kq @ spec.solve(sigma2, np.asarray(y, dtype=float))[0] for y in ys]
    prior = kernel_diag(kernel, query_points)
    quad = np.einsum("ij,ji->i", kq, spec.solve(sigma2, kq.T)[0])
    var = prior - quad
    return means, np.maximum(var, 0.0)


def gp_smoother(kernel: Kernel, X, sigma2: float, nugget: float = 0.0) -> SmootherMatrix:
    """M = K (K + (sigma2 / gamma) I)^{-1} via the symmetric eigendecomposition."""
    return GpSpectrum.from_kernel(kernel, X, nugget=nugget).smoother(sigma2)


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
    spec = GpSpectrum.from_kernel(kernel, X, nugget=nugget)
    return CriterionValue(CriterionKind.NLML, spec.nlml(y, sigma2))
