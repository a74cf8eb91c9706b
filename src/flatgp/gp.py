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
evaluates loo_mse, loo_nll and sure at every gain of a grid from one read
of a ``smoothers.SmootherStack``, which squares the modes and projects y on
them once, and one leave-one-out pass, ``_loo_rows``, the one place that
forms the classical shortcut's residuals (y - M y) / (1 - diag M) (Golub,
Heath and Wahba, 1979) and their divisors.  ``loo_mse``, ``loo_nll`` and
``sure``, each a float, read the same pass on a stack of one, so no
criterion is written twice.
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


def _criteria_rows(stack: SmootherStack, y, sigma2):
    """One read of a stack of G smoothers and one leave-one-out pass: by name,
    in the order a grid cell evaluates them, each criterion's (G,) values and
    G errors (None where a row does not raise, the only rows whose value is
    read), then the leave-one-out means and variances (G, n), the variances
    nan on a row with a nonpositive one."""
    y = np.asarray(y, dtype=float)
    fitted = stack.fitted(y)
    resid, off, errors = _loo_rows(y, stack.diagonal(), fitted)
    mean, var = y - resid, sigma2 / off
    degenerate = np.any(var <= 0, axis=1)
    var[degenerate] = np.nan
    nll = np.mean(0.5 * np.log(2.0 * math.pi * var) + 0.5 * (y - mean) ** 2 / var, axis=1)
    nll_errors = [
        error or (DegenerateVariance("nonpositive leave-one-out predictive variance") if bad else None)
        for error, bad in zip(errors, degenerate)
    ]
    sure = -sigma2 + np.mean((y - fitted) ** 2, axis=1) + 2.0 * sigma2 * stack.trace / y.shape[0]
    sure_error = ValueError("sure requires sigma2 > 0") if sigma2 <= 0 else None
    rows = {
        "loo_mse": (np.mean(resid**2, axis=1), errors),
        "loo_nll": (nll, nll_errors),
        "sure": (sure, [sure_error] * len(fitted)),
    }
    return rows, mean, var


def criteria(spec: GpSpectrum, y, sigma2: float, gains) -> list:
    """loo_mse, loo_nll and sure of ``spec.scaled(g).smoother(sigma2)`` on
    ``y`` for each gain factor g of ``gains``, from one ``SmootherStack``
    that squares the modes and projects y on them once for all G, and one
    leave-one-out pass.

    Returns per g a dict of the three values and None, or {} and the first
    error in the order a serial evaluation meets it: the smoother's
    IllConditioned, then the error of ``loo_mse``, ``loo_nll`` or ``sure``,
    each the one that function raises on that smoother alone.  A negative or
    NaN sigma2 raises ValueError.
    """
    stack, first = spec.smoothers(sigma2, gains)
    results = _criteria_rows(stack, y, sigma2)[0]
    for _, errors in results.values():
        first = [a or b for a, b in zip(first, errors)]
    return [
        ({} if error else {name: float(values[i]) for name, (values, _) in results.items()}, error)
        for i, error in enumerate(first)
    ]


def _one(name, M: SmootherMatrix, y, sigma2):
    """Criterion ``name`` of one smoother, its stack of one: the value, or its error raised."""
    (value,), (error,) = _criteria_rows(M.stack, y, sigma2)[0][name]
    if error is not None:
        raise error
    return float(value)


def loo_mse(M: SmootherMatrix, y) -> float:
    """Fast leave-one-out squared error from the smoother matrix."""
    # no sigma2 is given: the criteria that read it read nan, and are dropped
    return _one("loo_mse", M, y, math.nan)


def loo_nll(M: SmootherMatrix, y, sigma2: float) -> float:
    """Fast leave-one-out negative log-likelihood from the smoother matrix."""
    return _one("loo_nll", M, y, sigma2)


def sure(M: SmootherMatrix, y, sigma2: float) -> float:
    """Stein's unbiased risk estimate; assumes sigma2 known."""
    return _one("sure", M, y, sigma2)
