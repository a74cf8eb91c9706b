"""Non-parametric GP regression, its smoother matrix, and selection criteria.

A GP is the semi-parametric model of ``spm`` with an empty basis.  Its
spectrum, ``GpSpectrum`` (the same type as ``spm.SaddleFactorization``,
built by ``from_kernel``), is the eigendecomposition of the unit-gain kernel
matrix; the smoother with gain gamma and noise sigma2 filters each of its
modes by lambda / (lambda + sigma2 / gamma), and one spectrum serves every
gamma of a grid.  Posterior means and variances are those of the fitted
model, ``spm.SpmFit.posterior``, so a GP variance below round-off raises
NegativeVariance as any model's does.  This module adds the selection
criteria, which read the smoother's diagonal, fitted values and trace only.
A spectrum's smoother gives each of these in O(n^2) from its modes and
filter, so a criterion never forms the n x n matrix; it is formed only where
``.matrix`` is read.
"""

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateVariance, InterpolatingSmoother
from .kernels import Kernel
from .polybasis import as_design
from .smoothers import SmootherMatrix
from .spm import SaddleFactorization, SemiParametricModel, fit_factored

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
    design = as_design(X)
    spec = GpSpectrum.from_kernel(kernel, design, nugget=nugget)
    fit = fit_factored(SemiParametricModel(kernel, design.d), design, spec, y, sigma2)
    return fit.posterior(query_points)


def gp_smoother(kernel: Kernel, X, sigma2: float, nugget: float = 0.0) -> SmootherMatrix:
    """M = K (K + (sigma2 / gamma) I)^{-1} via the symmetric eigendecomposition."""
    return GpSpectrum.from_kernel(kernel, X, nugget=nugget).smoother(sigma2)


def dof(M: SmootherMatrix) -> float:
    """Effective degrees of freedom: the trace of the smoother."""
    return M.trace


def _loo_residuals(M: SmootherMatrix, y):
    """Leave-one-out residuals (y - M y) / (1 - diag M), and diag M."""
    diag = M.diagonal()
    if np.any(diag >= 1.0 - _LOO_DIAG_TOL):
        raise InterpolatingSmoother(
            "a smoother diagonal entry is 1; leave-one-out is undefined at interpolation"
        )
    return (y - M.fitted(y)) / (1.0 - diag), diag


def loo_mse(M: SmootherMatrix, y) -> CriterionValue:
    """Fast leave-one-out squared error from the smoother matrix."""
    resid, _ = _loo_residuals(M, np.asarray(y, dtype=float))
    return CriterionValue(CriterionKind.LOO_MSE, float(np.mean(resid**2)))


def loo_components(M: SmootherMatrix, y, sigma2: float):
    """Leave-one-out predictive means and variances of each held-out y_i."""
    y = np.asarray(y, dtype=float)
    resid, diag = _loo_residuals(M, y)
    return y - resid, sigma2 / (1.0 - diag)


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
