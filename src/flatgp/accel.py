"""Pairwise assembly: squared distances between points.

Every radial kernel matrix is a profile of these distances, rebuilt for
every epsilon of a grid.  Assembly is a numpy broadcast.  On a 2-vCPU VM with
one BLAS thread, a 400 x 400 Matern-3/2 matrix (d = 1) takes about 2.1 ms
to assemble, beside about 14.5 ms for its ``eigh`` and 7.5 ms for its
``eigvalsh``: about a seventh of the eigendecomposition and under a third
of the eigenvalues alone, and it grows as n^2 against their n^3, so a
compiled path would not pay for itself.
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
