"""Pairwise assembly: squared distances between points.

Every radial kernel matrix is a profile of these distances, rebuilt for
every epsilon of a grid.  Assembly is a numpy broadcast: it costs about a
tenth of the eigendecomposition of the same matrix at n = 400 and less at
larger n, so a compiled path would not pay for itself.
"""

import numpy as np


def using_numba() -> bool:
    """Whether a compiled assembly path is active: never, assembly is numpy."""
    return False


def _as2d(X):
    X = np.ascontiguousarray(np.asarray(X, dtype=float))
    if X.ndim == 1:
        X = X[:, None]
    return X


def _sq_dists(A, B):
    diff = A[:, None, :] - B[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


def pairwise_sq_dists(X):
    """Matrix of squared Euclidean distances between rows of ``X`` (n, d)."""
    X = _as2d(X)
    out = _sq_dists(X, X)
    np.fill_diagonal(out, 0.0)
    return out


def cross_sq_dists(A, B):
    """Squared distances between rows of ``A`` (na, d) and ``B`` (nb, d)."""
    return _sq_dists(_as2d(A), _as2d(B))
