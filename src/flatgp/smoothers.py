"""Symmetric linear-smoother matrices and their degrees of freedom.

A smoother is kept as its spectral factors, so that its trace, diagonal and
fitted values cost O(n^2) and its n x n matrix is formed only where it is
read.  The smoothers of one spectrum at G gains share their modes and differ
in their filters alone: a ``SmootherStack`` holds all G filters as one
gain-major (G, r) array, squares the modes and projects y on them once, and
reads each smoother's diagonal and fitted values from those shared terms by
one matrix-vector product each.  A ``SmootherMatrix`` is the stack of one,
with its dense matrix besides.
"""

from functools import cached_property

import numpy as np


class SmootherStack:
    """G symmetric n-by-n smoothers that share their modes.

    ``SmootherStack(U, F, Q)`` is M_g = U diag(F[g]) U^T + Q Q^T for
    g = 0 .. G-1, for orthonormal columns U (n x r) and Q (n x m) with
    U^T Q = 0 and a gain-major filter F (G, r).  Its ``trace`` (G,) is m plus
    the row sums of F; ``diagonal()`` (G, n) squares U once and ``fitted(y)``
    (G, n) projects y on U once, and each smoother then reads its row by one
    matrix-vector product with its filter.  One product per row, rather than
    one matrix product for all G, makes each row bitwise the stack of one's:
    a matrix product's rows move with G at round-off, and leave-one-out's
    1 / (1 - diag M) magnifies that near interpolation.  The diagonals, and
    the fitted values of the last y read, are kept, so the criteria of one
    fit read each once.
    """

    def __init__(self, U, F, Q):
        self._factors = (U, F, Q)
        self._last = None  # the last y smoothed and its fitted values

    @cached_property
    def trace(self) -> np.ndarray:
        _, F, Q = self._factors
        return Q.shape[1] + F.sum(axis=1)

    @cached_property
    def _diagonal(self) -> np.ndarray:
        U, F, Q = self._factors
        UU = np.square(U)
        out = np.stack([UU @ f for f in F])
        if Q.shape[1]:
            out += np.einsum("ij,ij->i", Q, Q)
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
        U, F, Q = self._factors
        z = U.T @ y
        out = np.stack([U @ ((f if y.ndim == 1 else f[:, None]) * z) for f in F])
        if Q.shape[1]:
            out += Q @ (Q.T @ y)
        out.flags.writeable = False
        self._last = (y.copy(), out)
        return out


class SmootherMatrix:
    """A symmetric n-by-n operator mapping observations to fitted values.

    ``SmootherMatrix(U, f, Q)`` is M = U diag(f) U^T + Q Q^T, for orthonormal
    columns U (n x r) and Q (n x m) with U^T Q = 0, kept as those factors:
    its trace, the effective degrees of freedom of the fit, is m + sum f, its
    eigenvalues are f and m ones (in [0, 1] up to round-off), and its
    diagonal and fitted values, those of the ``SmootherStack`` of one
    (``stack``), cost O(n^2).  Its dense ``matrix``, an O(n^3) product, is
    formed once, when it is first read.  ``difference(a, b)`` forms a - b
    from the factors of both, without forming either matrix.
    """

    def __init__(self, U, f, Q):
        self._factors = (U, f, Q)

    @cached_property
    def stack(self) -> SmootherStack:
        U, f, Q = self._factors
        return SmootherStack(U, np.asarray(f)[None], Q)

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
