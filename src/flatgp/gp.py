"""Non-parametric GP regression, its smoother matrix, and selection criteria.

A GP is the semi-parametric model of ``spm`` with an empty basis.  Its
spectrum, ``GpSpectrum`` (the same type as ``spm.SaddleFactorization``,
built by ``from_kernel``), is the eigendecomposition of the unit-gain kernel
matrix; the smoother with gain gamma and noise sigma2 filters each of its
modes by lambda / (lambda + sigma2 / gamma), and one spectrum serves every
gamma of a grid: ``spec.filter_terms(sigma2, gains)`` forms the scaled
eigenvalues and denominators of all gains at once, gain-major (G, r), and
``spec.dofs`` and ``spec.smoothers`` read every trace and every smoother of
a gain grid from their ratios.  The trace,
the degrees of freedom, reads the eigenvalues alone, so
``from_kernel(..., vectors=False)`` builds a spectrum for traces only, by
``eigvalsh``; the isofreedom curve, the CLI's nugget-compare and its dof-grid
use it.  ``from_kernels`` factors several kernels on one design in one
stacked call, and ``pool.map_spectra``, the evaluator behind the isofreedom
curve, the convergence study, dof-grid and criteria-grid, hands its workers
such stacks (``pool`` states the stacking rule).  A spectrum records its
kernel's empty-basis model and the design, so ``spec.fit(y, sigma2)`` fits
the GP, and its posterior means and variances are those of any fitted model,
``spm.SpmFit.posterior``: a GP variance below round-off raises
NegativeVariance as any model's does.

This module adds the selection criteria, which read the smoother's diagonal,
fitted values and trace only, each in O(n^2) from its modes and filter, so a
criterion never forms the n x n matrix.  ``criteria(spec, y, sigma2, gains)``
evaluates loo_mse, loo_nll and sure at every gain of a grid from one
``smoothers.SmootherStack``, which squares the modes and projects y on them
once; the leave-one-out residuals are the classical shortcut
(y - M y) / (1 - diag M) (Golub, Heath and Wahba, 1979).  ``loo_mse``,
``loo_nll`` and ``sure``, each a float, are the same row formulas on a stack
of one, so no criterion is written twice.
"""

import math

import numpy as np

from .errors import DegenerateVariance, InterpolatingSmoother
from .smoothers import SmootherMatrix, SmootherStack
from .spm import SaddleFactorization

_LOO_DIAG_TOL = 1e-10


# The GP spectrum is the saddle-point factorization of the model with an empty
# basis: ``GpSpectrum.from_kernel(kernel, X)``, and with a nugget
# ``GpSpectrum.from_kernel(kernel, X).shifted(nugget)``.
GpSpectrum = SaddleFactorization


def _loo_rows(y, diag, fitted):
    """Leave-one-out residuals (y - M y) / (1 - diag M) of each smoother of a
    stack, rows (G, n), the divisors 1 - diag M, and per row None or
    InterpolatingSmoother (its row reads nan: no division by zero is made)."""
    interpolating = np.any(diag >= 1.0 - _LOO_DIAG_TOL, axis=1)
    off = 1.0 - diag
    off[interpolating] = np.nan
    errors = [
        InterpolatingSmoother(
            "a smoother diagonal entry is 1; leave-one-out is undefined at interpolation"
        ) if bad else None
        for bad in interpolating
    ]
    return (y - fitted) / off, off, errors


# The criteria of a stack of G smoothers, each from y and the stack's
# diagonals, fitted values and traces: a (G,) array of values (nan where a
# row raises) and a list of G errors (None where it does not).


def _loo_mse_rows(y, diag, fitted, trace, sigma2):
    resid, _, errors = _loo_rows(y, diag, fitted)
    return np.mean(resid**2, axis=1), errors


def _loo_components_rows(y, diag, fitted, trace, sigma2):
    resid, off, errors = _loo_rows(y, diag, fitted)
    return y - resid, sigma2 / off, errors


def _loo_nll_rows(y, diag, fitted, trace, sigma2):
    mean, var, errors = _loo_components_rows(y, diag, fitted, trace, sigma2)
    degenerate = np.any(var <= 0, axis=1)
    for i in np.flatnonzero(degenerate):
        errors[i] = errors[i] or DegenerateVariance("nonpositive leave-one-out predictive variance")
    var[degenerate] = np.nan
    return np.mean(0.5 * np.log(2.0 * math.pi * var) + 0.5 * (y - mean) ** 2 / var, axis=1), errors


def _sure_rows(y, diag, fitted, trace, sigma2):
    if sigma2 <= 0:
        return np.full(len(fitted), np.nan), [ValueError("sure requires sigma2 > 0")] * len(fitted)
    resid = y - fitted
    n = y.shape[0]
    return -sigma2 + np.mean(resid**2, axis=1) + 2.0 * sigma2 * trace / n, [None] * len(fitted)


# in the order a grid cell evaluates them
_CRITERIA = {"loo_mse": _loo_mse_rows, "loo_nll": _loo_nll_rows, "sure": _sure_rows}


def _read(stack: SmootherStack, y):
    """What every criterion reads of a stack: y, the diagonals, the fitted
    values of y and the traces."""
    y = np.asarray(y, dtype=float)
    return y, stack.diagonal(), stack.fitted(y), stack.trace


def criteria(spec: GpSpectrum, y, sigma2: float, gains) -> list:
    """loo_mse, loo_nll and sure of ``spec.scaled(g).smoother(sigma2)`` on
    ``y`` for each gain factor g of ``gains``, from one ``SmootherStack``
    that squares the modes and projects y on them once for all G.

    Returns per g a dict of the three values and None, or {} and the first
    error in the order a serial evaluation meets it: the smoother's
    IllConditioned, then the error of ``loo_mse``, ``loo_nll`` or ``sure``,
    each the one that function raises on that smoother alone.  A negative or
    NaN sigma2 raises ValueError.
    """
    stack, first = spec.smoothers(sigma2, gains)
    read = _read(stack, y)
    results = {name: rows(*read, sigma2) for name, rows in _CRITERIA.items()}
    for _, errors in results.values():
        first = [a or b for a, b in zip(first, errors)]
    return [
        ({} if error else {name: float(values[i]) for name, (values, _) in results.items()}, error)
        for i, error in enumerate(first)
    ]


def _one(rows, M: SmootherMatrix, y, sigma2=None):
    """``rows`` of one smoother, its stack of one: the value, or its error raised."""
    *value, (error,) = rows(*_read(M.stack, y), sigma2)
    if error is not None:
        raise error
    return [v[0] for v in value]


def loo_mse(M: SmootherMatrix, y) -> float:
    """Fast leave-one-out squared error from the smoother matrix."""
    return float(_one(_loo_mse_rows, M, y)[0])


def loo_nll(M: SmootherMatrix, y, sigma2: float) -> float:
    """Fast leave-one-out negative log-likelihood from the smoother matrix."""
    return float(_one(_loo_nll_rows, M, y, sigma2)[0])


def sure(M: SmootherMatrix, y, sigma2: float) -> float:
    """Stein's unbiased risk estimate; assumes sigma2 known."""
    return float(_one(_sure_rows, M, y, sigma2)[0])
