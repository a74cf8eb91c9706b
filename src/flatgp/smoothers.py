"""Symmetric linear-smoother matrices and their degrees of freedom."""

from functools import cached_property

import numpy as np


class SmootherMatrix:
    """A symmetric n-by-n operator mapping observations to fitted values.

    ``SmootherMatrix(U, f, Q)`` is M = U diag(f) U^T + Q Q^T, for orthonormal
    columns U (n x r) and Q (n x m) with U^T Q = 0, kept as those factors:
    its trace, the effective degrees of freedom of the fit, is m + sum f, its
    eigenvalues are f and m ones (in [0, 1] up to round-off), and its
    diagonal and fitted values cost O(n^2).  Its dense ``matrix``, an O(n^3)
    product, is formed once, when it is first read.  ``difference(a, b)``
    forms a - b from the factors of both, without forming either matrix.
    """

    def __init__(self, U, f, Q):
        self._factors = (U, f, Q)

    @cached_property
    def matrix(self) -> np.ndarray:
        U, f, Q = self._factors
        M = (U * f) @ U.T
        if Q.shape[1]:
            M = M + Q @ Q.T
        return 0.5 * (M + M.T)

    @property
    def n(self) -> int:
        return self._factors[0].shape[0]

    @cached_property
    def trace(self) -> float:
        _, f, Q = self._factors
        return Q.shape[1] + float(np.sum(f))

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        _, f, Q = self._factors
        return np.sort(np.concatenate([f, np.ones(Q.shape[1])]))

    def fitted(self, y) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        U, f, Q = self._factors
        out = U @ ((f if y.ndim == 1 else f[:, None]) * (U.T @ y))
        if Q.shape[1]:
            out = out + Q @ (Q.T @ y)
        return out

    def diagonal(self) -> np.ndarray:
        U, f, Q = self._factors
        out = np.square(U) @ f
        if Q.shape[1]:
            out = out + np.einsum("ij,ij->i", Q, Q)
        return out


def _gram(U, f) -> np.ndarray:
    """U diag(f) U^T as A A^T with A = U sqrt|f|, less the same product over
    the modes with f < 0 (indefinite models); numpy's matmul runs ``A @ A.T``
    as a symmetric rank-k update, half the flops of a general product."""
    A = U * np.sqrt(np.abs(f))
    neg = f < 0
    if not neg.any():
        return A @ A.T
    P, N = A[:, ~neg], A[:, neg]
    G = P @ P.T
    G -= N @ N.T
    return G


def difference(a: SmootherMatrix, b: SmootherMatrix, basis=None) -> np.ndarray:
    """The dense n x n matrix a - b, formed from the factors of both.

    It is Ua diag(fa) Ua^T - Ub diag(fb) Ub^T plus Qa Qa^T - Qb Qb^T;
    ``basis`` is that last term, passed in by callers that compare smoothers
    of the same two bases at many noise levels.  Neither dense ``matrix`` is
    formed.
    """
    Ua, fa, Qa = a._factors
    Ub, fb, Qb = b._factors
    D = _gram(Ua, fa)
    D -= _gram(Ub, fb)
    if basis is None and (Qa.shape[1] or Qb.shape[1]):
        basis = Qa @ Qa.T - Qb @ Qb.T
    if basis is not None:
        D += basis
    return D
