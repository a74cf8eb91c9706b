"""Smoothing splines in d = 1 by their classical banded forms: references
for the spline limits of ``polyharmonic_spm`` that share no code with it.

The kernel (-1)^r |x|^(2r-1) of ``polyharmonic_spm(r, 1)`` is 2 (2r-1)!
times the reproducing kernel of the penalty int (f^(r))^2, so the model at
noise eta is the smoothing spline of penalty lam int (f^(r))^2 with
lam = eta / (2 (2r-1)!): eta / 2 for the piecewise linear spline (r = 1) and
eta / 12 for the cubic spline (r = 2).  The smoother of either is built from
the knot gaps h alone, by a banded matrix and one dense solve; this module
imports numpy only.

``TOL`` bounds both the trace deviation and the largest entrywise deviation
of a smoother from its reference.  On 2000 random designs per order (n =
4..20, gaps >= 1e-3, log10 eta in [-6, 2]) the spectral core's smoothers
deviated by at most 1.0e-12 (r = 1) and 4.8e-11 (r = 2) in the trace and
2.5e-11 entrywise, while moving the model's gain by a factor 1 + 1e-3 moves
them by at least 5e-4 and 1e-4 at n = 12: the bound sits far from both.

Reinsch's form loses digits on near-coincident points, where
I - lam Q (...)^-1 Q^T cancels: with a gap of 1.7e-7 (n = 16, eta = 0.26)
its trace was 1.4e-6 from a 60-digit evaluation of the same form, while the
spectral core's was 4e-16 from it.  So the cubic reference is used on
designs whose gaps are at least 1e-3.
"""

import numpy as np

TOL = 1e-8


def linear_spline_smoother(h, eta):
    """S = (I + (eta/2) D^T diag(h) D)^-1, D the first divided differences:
    f^T D^T diag(h) D f = sum (f_{j+1} - f_j)^2 / h_j is int f'^2 of the
    piecewise linear interpolant."""
    n = len(h) + 1
    D = np.zeros((n - 1, n))
    j = np.arange(n - 1)
    D[j, j], D[j, j + 1] = -1.0 / h, 1.0 / h
    return np.linalg.inv(np.eye(n) + 0.5 * eta * (D.T * h) @ D)


def cubic_spline_smoother(h, eta):
    """Reinsch's form S = I - lam Q (R + lam Q^T Q)^-1 Q^T, lam = eta/12: Q
    (n x (n-2)) holds the second divided differences and R is tridiagonal,
    diagonal (h_j + h_{j+1}) / 3 and off-diagonal h_{j+1} / 6 (Reinsch, 1967;
    Green and Silverman, 1994, ch. 2)."""
    n = len(h) + 1
    j = np.arange(n - 2)
    Q = np.zeros((n, n - 2))
    Q[j, j], Q[j + 1, j], Q[j + 2, j] = 1.0 / h[:-1], -1.0 / h[:-1] - 1.0 / h[1:], 1.0 / h[1:]
    R = np.diag((h[:-1] + h[1:]) / 3.0) + np.diag(h[1:-1] / 6.0, 1) + np.diag(h[1:-1] / 6.0, -1)
    lam = eta / 12.0
    S = np.eye(n) - lam * Q @ np.linalg.solve(R + lam * Q.T @ Q, Q.T)
    return 0.5 * (S + S.T)


def spline_smoother(x, r, eta):
    """The n x n smoother of the order-r smoothing spline (r = 1 or 2) on the
    distinct points x, rows and columns in the order x gives them."""
    x = np.asarray(x, dtype=float).ravel()
    order = np.argsort(x)
    banded = {1: linear_spline_smoother, 2: cubic_spline_smoother}[r]
    S = np.empty((len(x), len(x)))
    S[np.ix_(order, order)] = banded(np.diff(x[order]), eta)
    return S


def spline_deviation(M, x, r, eta):
    """How far a smoother M (its ``trace`` and dense ``matrix``) is from the
    reference: the trace deviation and the largest entrywise one."""
    S = spline_smoother(x, r, eta)
    return abs(M.trace - np.trace(S)), float(np.abs(M.matrix - S).max())
