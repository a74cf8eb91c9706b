"""Symmetric linear-smoother matrices and their degrees of freedom.

A smoother is kept as its eigendecomposition M = U diag(f) U^T, orthonormal
eigenvectors U and their filter f, so that its trace, diagonal and fitted
values cost O(n^2) and its n x n matrix is formed only where it is read.  An
unpenalized direction is an eigenvector with filter 1, so a model's basis is
columns of U like any other mode (the Demmler-Reinsch form).  The smoothers
of one spectrum at G gains share their eigenvectors and differ in their
filters alone: a ``SmootherStack`` holds all G filters as one gain-major
(G, r) array, squares the eigenvectors and projects y on them once, and
reads each smoother's diagonal and fitted values from those shared terms by
one matrix-vector product each.  A ``SmootherMatrix`` is the stack of one,
with its dense matrix besides.
"""

from functools import cached_property

import numpy as np


class SmootherStack:
    """G symmetric n-by-n smoothers that share their eigenvectors.

    ``SmootherStack(U, F)`` is M_g = U diag(F[g]) U^T for g = 0 .. G-1, for
    orthonormal columns U (n x r) and a gain-major filter F (G, r).  Its
    ``trace`` (G,) is the row sums of F; ``diagonal()`` (G, n) squares U once
    and ``fitted(y)`` (G, n) projects y on U once, and each smoother then
    reads its row by one matrix-vector product with its filter.  One product
    per row, rather than one matrix product for all G, makes each row bitwise
    the stack of one's: a matrix product's rows move with G at round-off, and
    leave-one-out's 1 / (1 - diag M) magnifies that near interpolation.  The
    diagonals, and the fitted values of the last y read, are kept, so the
    criteria of one fit read each once.
    """

    def __init__(self, U, F):
        self._factors = (U, F)
        self._last = None  # the last y smoothed and its fitted values

    @cached_property
    def trace(self) -> np.ndarray:
        return self._factors[1].sum(axis=1)

    @cached_property
    def _diagonal(self) -> np.ndarray:
        U, F = self._factors
        UU = np.square(U)
        out = np.stack([UU @ f for f in F])
        out.flags.writeable = False
        return out

    def diagonal(self) -> np.ndarray:
        return self._diagonal

    def fitted(self, y) -> np.ndarray:
        """M_g y for each g, (G, n); a y of shape (n, k) gives (G, n, k)."""
        y = np.asarray(y, dtype=float)
        last = self._last
        if last is not None and last[0].shape == y.shape and np.array_equal(last[0], y):
            return last[1]
        U, F = self._factors
        z = U.T @ y
        out = np.stack([U @ ((f if y.ndim == 1 else f[:, None]) * z) for f in F])
        out.flags.writeable = False
        self._last = (y.copy(), out)
        return out


class SmootherMatrix:
    """A symmetric n-by-n operator mapping observations to fitted values.

    ``SmootherMatrix(U, f)`` is M = U diag(f) U^T, for orthonormal columns
    U (n x r), kept as those factors: its trace, the effective degrees of
    freedom of the fit, is sum f, its eigenvalues are f (in [0, 1] up to
    round-off) and zeros, and its diagonal and fitted values, those of the
    ``SmootherStack`` of one (``stack``), cost O(n^2).  Its dense ``matrix``,
    an O(n^2 r) product, is formed once, when it is first read.
    ``difference(a, b)`` forms a - b from the factors of both, without
    forming either matrix.
    """

    def __init__(self, U, f):
        self._factors = (U, f)

    @cached_property
    def stack(self) -> SmootherStack:
        U, f = self._factors
        return SmootherStack(U, np.asarray(f)[None])

    @cached_property
    def matrix(self) -> np.ndarray:
        return _gram(*self._factors)

    @property
    def n(self) -> int:
        return self._factors[0].shape[0]

    @property
    def trace(self) -> float:
        return float(self.stack.trace[0])

    def fitted(self, y) -> np.ndarray:
        return self.stack.fitted(y)[0]

    def diagonal(self) -> np.ndarray:
        return self.stack.diagonal()[0]


def _gram(U, f) -> np.ndarray:
    """U diag(f) U^T as A A^T with A = U sqrt|f|, less the same product over
    the modes with f < 0 (indefinite models); numpy's matmul runs ``A @ A.T``
    as a symmetric rank-k update, half the flops of a general product, whose
    result is exactly symmetric."""
    A = U * np.sqrt(np.abs(f))
    neg = f < 0
    if not neg.any():
        return A @ A.T
    P, N = A[:, ~neg], A[:, neg]
    G = P @ P.T
    G -= N @ N.T
    return G


def difference(a: SmootherMatrix, b: SmootherMatrix) -> np.ndarray:
    """The dense n x n matrix a - b, Ua diag(fa) Ua^T - Ub diag(fb) Ub^T,
    formed from the factors of both; neither dense ``matrix`` is formed."""
    D = _gram(*a._factors)
    D -= _gram(*b._factors)
    return D
