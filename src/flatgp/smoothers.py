"""Symmetric linear-smoother matrices and their degrees of freedom."""

from functools import cached_property

import numpy as np


class SmootherMatrix:
    """A symmetric n-by-n operator mapping observations to fitted values.

    Eigenvalues live in [0, 1] up to round-off; the trace is the effective
    degrees of freedom of the fit.

    ``SmootherMatrix(M)`` wraps a dense array.  ``SmootherMatrix.filtered(U,
    f, Q)`` is M = U diag(f) U^T + Q Q^T, for orthonormal columns U (n x r)
    and Q (n x m) with U^T Q = 0, kept as those factors: its trace is
    m + sum f, its eigenvalues are f and m ones, and its diagonal and fitted
    values cost O(n^2).  Its dense ``matrix``, an O(n^3) product, is formed
    once, when it is first read.
    """

    def __init__(self, matrix):
        # an instance attribute shadows the ``matrix`` cached_property below
        self.matrix = np.asarray(matrix, dtype=float)
        self._factors = None

    @classmethod
    def filtered(cls, modes, f, Q) -> "SmootherMatrix":
        """M = modes diag(f) modes^T + Q Q^T, with the product left unformed."""
        smoother = cls.__new__(cls)
        smoother._factors = (modes, f, Q)
        return smoother

    @cached_property
    def matrix(self) -> np.ndarray:
        U, f, Q = self._factors
        M = (U * f) @ U.T
        if Q.shape[1]:
            M = M + Q @ Q.T
        return 0.5 * (M + M.T)

    @property
    def n(self) -> int:
        if self._factors is None:
            return self.matrix.shape[0]
        return self._factors[0].shape[0]

    @cached_property
    def trace(self) -> float:
        if self._factors is None:
            return float(np.trace(self.matrix))
        _, f, Q = self._factors
        return Q.shape[1] + float(np.sum(f))

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        if self._factors is None:
            return np.linalg.eigvalsh(0.5 * (self.matrix + self.matrix.T))
        _, f, Q = self._factors
        return np.sort(np.concatenate([f, np.ones(Q.shape[1])]))

    def fitted(self, y) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        if self._factors is None:
            return self.matrix @ y
        U, f, Q = self._factors
        out = U @ ((f if y.ndim == 1 else f[:, None]) * (U.T @ y))
        if Q.shape[1]:
            out = out + Q @ (Q.T @ y)
        return out

    def diagonal(self) -> np.ndarray:
        if self._factors is None:
            return np.diag(self.matrix)
        U, f, Q = self._factors
        out = np.square(U) @ f
        if Q.shape[1]:
            out = out + np.einsum("ij,ij->i", Q, Q)
        return out
