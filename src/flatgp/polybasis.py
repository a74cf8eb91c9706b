"""Multivariate monomials, graded Vandermonde matrices, and unisolvency.

A monomial is its exponent tuple: ``(2, 1)`` is ``x1^2 * x2``, of degree
``sum((2, 1)) = 3``.  Monomials are ordered graded-lexicographically:
ascending total degree, and within a degree block the first coordinate
carries the highest exponent first, so that for d=2 the degree-2 block reads
``(2, 0), (1, 1), (0, 2)``, that is ``x1^2, x1*x2, x2^2``.  Vandermonde
matrices inherit one column block per degree.  A monomial basis lives in
its design's frame (``framed_monomials``): each coordinate centred on the
middle of the design's range and divided by half its width, so a design on
[1990, 2020] is as well conditioned as one on [-1, 1], with the same spans.
One rule judges a basis's rank, ``full_rank_blocks``, and both
``graded_basis`` and ``spm.factorize`` read it.
"""

import itertools
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
    if d == 1:
        return [(k,)]
    return [(a,) + rest for a in range(k, -1, -1) for rest in _exact_degree_exponents(k - a, d - 1)]


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

    @cached_property
    def frame(self):
        """Centre and half-width of each coordinate's range (1 where it is 0)."""
        lo, hi = self.points.min(axis=0), self.points.max(axis=0)
        return 0.5 * (lo + hi), np.where(hi > lo, 0.5 * (hi - lo), 1.0)


def as_design(X) -> Design:
    return X if isinstance(X, Design) else Design(np.asarray(X))


def monomial_matrix(X, exponents) -> np.ndarray:
    """Evaluate raw monomials (columns, one per exponent tuple) at design rows,
    from powers by repeated products: pow() of a negative base is slow."""
    pts = as_design(X).points
    E = np.asarray(exponents, dtype=int).reshape(-1, pts.shape[1])
    powers = np.ones((E.max(initial=0) + 1,) + pts.shape)
    for k in range(1, len(powers)):
        powers[k] = powers[k - 1] * pts
    return powers[E, :, np.arange(pts.shape[1])].prod(axis=1).T


def framed_monomials(X, exponents, design=None) -> np.ndarray:
    """Monomials (columns, one per exponent tuple) at the points ``X``, in the
    ``frame`` of ``design`` (default ``X``): centred, and scaled to [-1, 1]."""
    pts = as_design(X)
    centre, half = (pts if design is None else as_design(design)).frame
    return monomial_matrix((pts.points - centre) / half, exponents)


def full_rank_blocks(R, sizes) -> int:
    """How many leading column blocks (of ``sizes``) of V = Q R are full rank,
    by the package's one rule: while R has rows enough and its leading square
    block's singular values, V's, all exceed ``DEFAULT_RANK_TOL`` times the largest."""
    for j, cols in enumerate(itertools.accumulate(sizes)):
        if cols > R.shape[0]:
            return j
        s = np.linalg.svd(R[:cols, :cols], compute_uv=False)
        if not s[-1] > DEFAULT_RANK_TOL * s[0]:
            return j
    return len(sizes)


def graded_basis(X, k: int):
    """``(Q, R, degree)``: the reduced QR of the design's framed monomials of
    degree <= ``degree``, the highest <= ``k`` whose blocks ``full_rank_blocks``
    all admits; degrees 0..15 first, then twice as many while all are admitted."""
    design = as_design(X)
    top = max(j for j in range(-1, k + 1) if count_poly_dim(j, design.d) <= design.n)
    degree = built = -1
    Q = R = np.zeros((design.n, 0))
    while degree == built < top:
        built = min(top, max(15, 2 * built + 1))
        Q, R = np.linalg.qr(framed_monomials(design, enumerate_monomials(built, design.d)))
        degree = full_rank_blocks(R, [count_monomials(j, design.d) for j in range(built + 1)]) - 1
    m = count_poly_dim(degree, design.d)
    return Q[:, :m].copy(), R[:m, :m].copy(), degree
