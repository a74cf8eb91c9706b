"""Non-parametric GP regression, its smoother matrix, and selection criteria.

A GP is the semi-parametric model of ``spm`` with an empty basis.  Its
spectrum, ``GpSpectrum`` (the same type as ``spm.SaddleFactorization``,
built by ``from_kernel``), is the eigendecomposition of the unit-gain kernel
matrix; the smoother with gain gamma and noise sigma2 filters each of its
modes by lambda / (lambda + sigma2 / gamma), and one spectrum serves every
gamma of a grid.  Its trace, the degrees of freedom, reads the eigenvalues
alone, so ``from_kernel(..., vectors=False)`` builds a spectrum for traces
only, by ``eigvalsh``; the isofreedom curve, the CLI's nugget-compare and its
dof-grid use it.  ``from_kernels`` factors several kernels on one design in
one stacked call.  numpy's gufuncs release the GIL only when a call's outer
size times its core size exceeds 500, and ``eigvalsh`` counts n per matrix,
so ``pool.map_spectra``, the evaluator behind the isofreedom curve, the
convergence study, dof-grid and criteria-grid, hands each worker
floor(500 / n) + 1 eps values at a time when it reads eigenvalues only: one
400 x 400 ``eigvalsh`` holds the GIL, a stack of two does not.
Posterior means and variances are those of the fitted model,
``spm.SpmFit.posterior``, so a GP variance below round-off raises
NegativeVariance as any model's does.  This module adds the selection
criteria, each a float, which read the smoother's diagonal, fitted values
and trace only.  A spectrum's smoother gives each of these in O(n^2) from
its modes and filter, so a criterion never forms the n x n matrix; it is
formed only where ``.matrix`` is read.
"""

import math

import numpy as np

from .errors import DegenerateVariance, InterpolatingSmoother
from .kernels import Kernel
from .polybasis import as_design
from .smoothers import SmootherMatrix
from .spm import SaddleFactorization, SemiParametricModel, fit_factored

_LOO_DIAG_TOL = 1e-10


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


def loo_mse(M: SmootherMatrix, y) -> float:
    """Fast leave-one-out squared error from the smoother matrix."""
    resid, _ = _loo_residuals(M, np.asarray(y, dtype=float))
    return float(np.mean(resid**2))


def loo_components(M: SmootherMatrix, y, sigma2: float):
    """Leave-one-out predictive means and variances of each held-out y_i."""
    y = np.asarray(y, dtype=float)
    resid, diag = _loo_residuals(M, y)
    return y - resid, sigma2 / (1.0 - diag)


def loo_nll(M: SmootherMatrix, y, sigma2: float) -> float:
    """Fast leave-one-out negative log-likelihood from the smoother matrix."""
    mean, var = loo_components(M, y, sigma2)
    if np.any(var <= 0):
        raise DegenerateVariance("nonpositive leave-one-out predictive variance")
    y = np.asarray(y, dtype=float)
    return float(np.mean(0.5 * np.log(2.0 * math.pi * var) + 0.5 * (y - mean) ** 2 / var))


def sure(M: SmootherMatrix, y, sigma2: float) -> float:
    """Stein's unbiased risk estimate; assumes sigma2 known."""
    if sigma2 <= 0:
        raise ValueError("sure requires sigma2 > 0")
    y = np.asarray(y, dtype=float)
    resid = y - M.fitted(y)
    n = len(y)
    return float(-sigma2 + np.mean(resid**2) + 2.0 * sigma2 * M.trace / n)


def nlml(kernel: Kernel, X, y, sigma2: float, nugget: float = 0.0) -> float:
    """Negative log marginal likelihood of the observations.

    Divergent along flat-limit gain paths (the prior becomes improper); kept
    for completeness and never used by the flat-limit tooling.
    """
    return GpSpectrum.from_kernel(kernel, X, nugget=nugget).nlml(y, sigma2)
