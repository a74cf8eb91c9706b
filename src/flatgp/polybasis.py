"""Multivariate monomials, graded Vandermonde matrices, and unisolvency.

A monomial is its exponent tuple: ``(2, 1)`` is ``x1^2 * x2``, of degree
``sum((2, 1)) = 3``.  Monomials are ordered graded-lexicographically:
ascending total degree, and within a degree block the first coordinate
carries the highest exponent first, so that for d=2 the degree-2 block reads
``(2, 0), (1, 1), (0, 2)``, that is ``x1^2, x1*x2, x2^2``.  Vandermonde
matrices inherit one column block per degree.  The package's projectors come
from one QR of the basis matrix (``spm.factorize``); the blocked
orthonormalization of ``vandermonde`` is a public reference that no module
of the package calls, and the tests check the flat-limit smoothers against
it.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import FlatGpError

#: Relative singular-value cutoff for numerical rank decisions.
DEFAULT_RANK_TOL = 1e-10


def count_monomials(k: int, d: int) -> int:
    """Number of monomials of exact degree ``k`` in dimension ``d``."""
    if k < 0 or d < 1:
        raise ValueError("need k >= 0 and d >= 1")
    return math.comb(k + d - 1, d - 1)


def count_poly_dim(k: int, d: int) -> int:
    """Dimension of the space of polynomials of degree <= ``k``; 0 for k=-1."""
    if k < -1 or d < 1:
        raise ValueError("need k >= -1 and d >= 1")
    if k == -1:
        return 0
    return math.comb(k + d, d)


def _exact_degree_exponents(k, d):
    out = []

    def rec(prefix, rem, dims):
        if dims == 1:
            out.append(prefix + (rem,))
            return
        for a in range(rem, -1, -1):
            rec(prefix + (a,), rem - a, dims - 1)

    rec((), k, d)
    return out


def enumerate_monomials(k: int, d: int) -> list:
    """The exponent tuples of all monomials of degree <= ``k``, in graded
    order, degree blocks contiguous."""
    if k < 0 or d < 1:
        raise ValueError("need k >= 0 and d >= 1")
    return [e for deg in range(k + 1) for e in _exact_degree_exponents(deg, d)]


@dataclass(frozen=True)
class Design:
    """A set of ``n`` measurement locations in ``R^d``."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2 or pts.shape[0] < 1 or pts.shape[1] < 1:
            raise FlatGpError("design must be a nonempty (n, d) array")
        if not np.all(np.isfinite(pts)):
            raise FlatGpError("design coordinates must be finite")
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]


def as_design(X) -> Design:
    return X if isinstance(X, Design) else Design(np.asarray(X))


def _rescaled(pts):
    """The points under the affine map of each coordinate onto [-1, 1];
    degenerate widths are left alone."""
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    halfwidth = 0.5 * (hi - lo)
    return (pts - 0.5 * (lo + hi)) / np.where(halfwidth > 0, halfwidth, 1.0)


def monomial_matrix(X, exponents) -> np.ndarray:
    """Evaluate raw monomials (columns, one per exponent tuple) at design rows."""
    pts = as_design(X).points
    cols = [np.prod(pts ** np.asarray(e)[None, :], axis=1) for e in exponents]
    return np.stack(cols, axis=1) if cols else np.zeros((pts.shape[0], 0))


@dataclass(frozen=True)
class VandermondeBlocks:
    """Degree-blocked Vandermonde matrix with blocked orthonormalization.

    ``blocks`` hold raw monomial values; the orthonormal blocks are computed
    after an internal affine rescale of the points onto [-1, 1]^d, which
    tames the conditioning without changing any degree-prefix column span.
    """

    design: Design
    degree: int
    blocks: tuple
    orthonormal_blocks: tuple
    block_ranks: tuple

    @cached_property
    def assembled(self) -> np.ndarray:
        return np.hstack(self.blocks)

    def q_prefix(self, j: int) -> np.ndarray:
        """Orthonormal columns spanning polynomials of degree <= ``j``."""
        if j < 0:
            return np.zeros((self.design.n, 0))
        return np.hstack(self.orthonormal_blocks[: j + 1])

    def q_block(self, j: int) -> np.ndarray:
        """Orthonormal columns for the degree-``j`` increment."""
        return self.orthonormal_blocks[j]


def vandermonde(X, k: int) -> VandermondeBlocks:
    """Build degree blocks V_0..V_k and their blocked Gram-Schmidt basis."""
    design = as_design(X)
    scaled = _rescaled(design.points)

    blocks, scaled_blocks = [], []
    for deg in range(k + 1):
        idx = _exact_degree_exponents(deg, design.d)
        blocks.append(monomial_matrix(design, idx))
        scaled_blocks.append(monomial_matrix(scaled, idx))

    q_blocks, ranks = [], []
    q_all = np.zeros((design.n, 0))
    for B in scaled_blocks:
        resid = B - q_all @ (q_all.T @ B)
        resid = resid - q_all @ (q_all.T @ resid)
        if resid.size == 0 or min(resid.shape) == 0:
            q_blocks.append(np.zeros((design.n, 0)))
            ranks.append(0)
            continue
        U, s, _ = np.linalg.svd(resid, full_matrices=False)
        cut = DEFAULT_RANK_TOL * max(s[0] if s.size else 0.0, 1e-300)
        r = min(int(np.sum(s > cut)), design.n - q_all.shape[1])
        q_blocks.append(U[:, :r])
        ranks.append(r)
        q_all = np.hstack([q_all, U[:, :r]])

    return VandermondeBlocks(
        design=design,
        degree=k,
        blocks=tuple(blocks),
        orthonormal_blocks=tuple(q_blocks),
        block_ranks=tuple(ranks),
    )


def unisolvency_rank(X, k: int, tol: float = DEFAULT_RANK_TOL):
    """Numerical rank of V_{<=k}(X) and whether it is full (unisolvent).

    Singular values below ``tol`` times the largest one count as zero.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    design = as_design(X)
    V = monomial_matrix(_rescaled(design.points), enumerate_monomials(k, design.d))
    s = np.linalg.svd(V, compute_uv=False)
    rank = int(np.sum(s > tol * s[0])) if s.size else 0
    return rank, rank == count_poly_dim(k, design.d)
