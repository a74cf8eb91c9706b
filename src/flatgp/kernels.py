"""Kernel families, regularity, radial expansions, and Wronskian matrices.

A radial kernel is ``gamma * psi(epsilon * ||x - y||)`` for a profile ``psi``.
The profile's behaviour at 0 drives everything downstream: its regularity
parameter ``r`` (the kernel is (r-1)-times differentiable at coincident
points, but not r-times) fixes the eigenvalue valuations of kernel matrices,
and its Taylor coefficients assemble the Wronskian matrices whose Schur
complements define the penalized part of flat limits (``block_kernel``).

One private dispatch, ``_pairs``, evaluates every family: ``kernel_matrix``,
``kernel_cross``, ``kernel_diag`` and ``eval_kernel`` only choose its rows,
and every Wronskian, the Gaussian's included, is built from ``radial_series``.
"""

import enum
import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import accel
from .errors import (
    SeriesTruncation,
    SingularWronskianBlock,
    UnknownRegularity,
)
from .polybasis import (
    as_design,
    count_poly_dim,
    enumerate_monomials,
    monomial_matrix,
)

INF_REGULARITY = math.inf

_MATERN_NUS = (0.5, 1.5, 2.5, 3.5)


class Family(enum.Enum):
    GAUSSIAN = "gaussian"
    MATERN = "matern"
    POLYHARMONIC = "polyharmonic"
    POLYNOMIAL = "polynomial"
    MONOMIAL = "monomial"
    ZERO = "zero"
    CUSTOM = "custom"
    SUM = "sum"


@dataclass(frozen=True)
class Kernel:
    """A covariance family with inverse length-scale ``epsilon`` and gain ``gamma``.

    Use the classmethod constructors; ``order`` is the Matern half-integer's
    integer part proxy (polyharmonic r or polynomial degree m), ``coef`` the
    coefficient matrix of a finite-rank monomial-block kernel.  A polynomial
    or monomial-block kernel with a ``centre`` c is evaluated at x - c and
    y - c; none keeps raw coordinates.
    """

    family: Family
    epsilon: float = 1.0
    gamma: float = 1.0
    nu: float = None
    order: int = None
    exponents: tuple = None
    coef: tuple = None
    profile_fn: object = None
    profile_series: tuple = None
    profile_regularity: float = None
    components: tuple = None
    centre: tuple = None

    def __post_init__(self):
        if not (math.isfinite(self.epsilon) and math.isfinite(self.gamma)):
            raise ValueError(f"epsilon and gamma must be finite, got {self.epsilon}, {self.gamma}")
        if self.gamma <= 0 and self.family is not Family.ZERO:
            raise ValueError("gamma must be positive")
        if self.epsilon <= 0 and self.family in (
            Family.GAUSSIAN,
            Family.MATERN,
            Family.CUSTOM,
        ):
            raise ValueError("epsilon must be positive")
        if self.family is Family.MATERN and self.nu not in _MATERN_NUS:
            raise ValueError(f"matern nu must be one of {_MATERN_NUS}")

    # -- constructors -------------------------------------------------------
    @classmethod
    def gaussian(cls, epsilon=1.0, gamma=1.0):
        return cls(Family.GAUSSIAN, epsilon=epsilon, gamma=gamma)

    @classmethod
    def exponential(cls, epsilon=1.0, gamma=1.0):
        """exp(-epsilon ||x - y||): the Matern kernel with nu = 1/2."""
        return cls.matern(0.5, epsilon=epsilon, gamma=gamma)

    @classmethod
    def matern(cls, nu, epsilon=1.0, gamma=1.0):
        return cls(Family.MATERN, epsilon=epsilon, gamma=gamma, nu=float(nu))

    @classmethod
    def polyharmonic(cls, r, gamma=1.0):
        if r < 1:
            raise ValueError("polyharmonic order must be >= 1")
        return cls(Family.POLYHARMONIC, gamma=gamma, order=int(r))

    @classmethod
    def polynomial(cls, m, gamma=1.0, centre=None):
        """``((x - c) . (y - c))^m``, with c the ``centre`` (default 0)."""
        if m < 0:
            raise ValueError("polynomial degree must be >= 0")
        return cls(Family.POLYNOMIAL, gamma=gamma, order=int(m), centre=_point(centre))

    @classmethod
    def monomial_block(cls, exponents, coef, gamma=1.0, centre=None):
        """Finite-rank kernel ``sum_{a,b} C[a,b] (x - c)^a (y - c)^b`` over
        listed exponents, with c the ``centre`` (default 0)."""
        exps = tuple(tuple(e) for e in exponents)
        C = np.asarray(coef, dtype=float)
        if C.shape != (len(exps), len(exps)):
            raise ValueError("coef must be square over the exponent list")
        return cls(
            Family.MONOMIAL,
            gamma=gamma,
            exponents=exps,
            coef=tuple(map(tuple, C)),
            centre=_point(centre),
        )

    @classmethod
    def zero(cls):
        return cls(Family.ZERO, gamma=1.0)

    @classmethod
    def sum_of(cls, *kernels, gamma=1.0):
        """Pointwise sum of kernels, optionally rescaled as a whole."""
        if not kernels:
            raise ValueError("need at least one component")
        return cls(Family.SUM, gamma=gamma, components=tuple(kernels))

    @classmethod
    def custom(cls, profile, epsilon=1.0, gamma=1.0, regularity=None, series=None):
        """Radial kernel from a profile ``psi(t)``; declare regularity if known."""
        return cls(
            Family.CUSTOM,
            epsilon=epsilon,
            gamma=gamma,
            profile_fn=profile,
            profile_series=tuple(series) if series is not None else None,
            profile_regularity=regularity,
        )

    def with_params(self, epsilon=None, gamma=None):
        changes = {}
        if epsilon is not None:
            changes["epsilon"] = float(epsilon)
        if gamma is not None:
            changes["gamma"] = float(gamma)
        return replace(self, **changes)

    @cached_property
    def _coef_array(self):
        return np.asarray(self.coef, dtype=float) if self.coef is not None else None


def _point(centre):
    return None if centre is None else tuple(float(c) for c in np.ravel(centre))


# ---------------------------------------------------------------------------
# profiles and evaluation


def _matern_poly_coeffs(nu):
    """Coefficients of P(u) with psi(u) = exp(-sqrt(2 nu) u) P(u)."""
    k = int(nu - 0.5)
    a = math.sqrt(2.0 * nu)
    lead = math.factorial(k) / math.factorial(2 * k)
    return [
        lead
        * (math.factorial(2 * k - m) / (math.factorial(k - m) * math.factorial(m)))
        * (2.0 * a) ** m
        for m in range(k + 1)
    ], a


def profile(kernel: Kernel):
    """Vectorized radial profile ``psi(t)``, t >= 0, of a radial kernel; ``_pairs``
    evaluates the zero, sum, polynomial and monomial kernels without one."""
    fam = kernel.family
    if fam is Family.GAUSSIAN:
        return lambda t: np.exp(-np.square(t))
    if fam is Family.MATERN:
        coeffs, a = _matern_poly_coeffs(kernel.nu)

        def psi(t, coeffs=coeffs, a=a):
            # in place: two buffers the size of t, the exponential and the
            # Horner sum, and no temporaries
            t = np.asarray(t, dtype=float)
            e = np.multiply(t, -a)
            np.exp(e, out=e)
            p = np.full_like(t, coeffs[-1])
            for c in reversed(coeffs[:-1]):
                p *= t
                p += c
            p *= e
            return p

        return psi
    if fam is Family.POLYHARMONIC:
        r = kernel.order
        sign = (-1.0) ** r
        return lambda t: sign * np.asarray(t, dtype=float) ** (2 * r - 1)
    return kernel.profile_fn


def regularity(kernel: Kernel):
    """Regularity parameter r: (r-1)-times differentiable at 0 but not r-times."""
    fam = kernel.family
    if fam in (Family.GAUSSIAN, Family.POLYNOMIAL, Family.MONOMIAL, Family.ZERO):
        return INF_REGULARITY
    if fam is Family.MATERN:
        return int(kernel.nu + 0.5)
    if fam is Family.POLYHARMONIC:
        return kernel.order
    if fam is Family.SUM:
        return min(regularity(k) for k in kernel.components)
    if fam is Family.CUSTOM:
        if kernel.profile_regularity is None:
            raise UnknownRegularity("custom kernel has no declared regularity")
        return kernel.profile_regularity
    raise UnknownRegularity(f"no regularity rule for {fam}")


def _pairs(kernel: Kernel, A, B, paired) -> np.ndarray:
    """k(a_i, b_j) over all pairs of rows, or the diagonal k(a_i, a_i) when ``paired``.

    ``paired`` reads A alone. ``B is A`` marks the symmetric case: radial
    squared distances come from ``pairwise_sq_dists`` (exact zero diagonal),
    and a monomial block forms its features once and is symmetrized.
    """
    fam = kernel.family
    if fam is Family.ZERO:
        return np.zeros(A.shape[0] if paired else (A.shape[0], B.shape[0]))
    if fam is Family.SUM:
        return kernel.gamma * sum(_pairs(k, A, B, paired) for k in kernel.components)
    if kernel.centre is not None:
        # the polynomial and monomial kernels of the centred points
        shifted = A - kernel.centre
        A, B = shifted, shifted if B is A else B - kernel.centre
    if fam is Family.POLYNOMIAL:
        # A @ A.T runs as a symmetric rank-k update, so it is exactly symmetric
        G = np.einsum("ij,ij->i", A, A) if paired else A @ B.T
        # the power by repeated products: pow() of a negative base, which
        # centred points give, is about 18 times slower at degree 3
        P = np.ones_like(G)
        for _ in range(kernel.order):
            P *= G
        return kernel.gamma * P
    if fam is Family.MONOMIAL:
        phi_a = monomial_matrix(A, kernel.exponents)
        C = kernel._coef_array
        if paired:
            return kernel.gamma * np.einsum("ij,jk,ik->i", phi_a, C, phi_a)
        phi_b = phi_a if B is A else monomial_matrix(B, kernel.exponents)
        G = phi_a @ C @ phi_b.T
        return kernel.gamma * (0.5 * (G + G.T) if B is A else G)
    if paired:
        sq = np.zeros(A.shape[0])
    elif B is A:
        sq = accel.pairwise_sq_dists(A)
    else:
        sq = accel.cross_sq_dists(A, B)
    # t = epsilon * distance, in place: no second n x n buffer while psi runs
    t = np.sqrt(sq, out=sq)
    t *= kernel.epsilon
    return kernel.gamma * profile(kernel)(t)


def eval_kernel(kernel: Kernel, x, y) -> float:
    """Evaluate k(x, y) at two points of R^d: the 1 x 1 ``kernel_cross``."""
    x = np.atleast_1d(np.asarray(x, dtype=float))[None, :]
    y = np.atleast_1d(np.asarray(y, dtype=float))[None, :]
    return float(_pairs(kernel, x, y, paired=False)[0, 0])


def kernel_matrix(kernel: Kernel, X) -> np.ndarray:
    """Symmetric matrix K[i, j] = k(x_i, x_j) over the design."""
    pts = as_design(X).points
    return _pairs(kernel, pts, pts, paired=False)


def kernel_cross(kernel: Kernel, A, B) -> np.ndarray:
    """Rectangular matrix k(a_i, b_j) between two point sets."""
    return _pairs(kernel, as_design(A).points, as_design(B).points, paired=False)


def kernel_diag(kernel: Kernel, X) -> np.ndarray:
    """Vector of prior variances k(x_i, x_i)."""
    pts = as_design(X).points
    return _pairs(kernel, pts, pts, paired=True)


# ---------------------------------------------------------------------------
# radial series


@dataclass(frozen=True)
class RadialSeries:
    """Taylor data of a profile at 0: even coefficients plus the leading odd term.

    ``even_coeffs[j]`` is the coefficient of t^(2j); ``odd_coeff`` the
    coefficient of |t|^(2r-1) for finite regularity r, None otherwise.
    """

    even_coeffs: tuple
    odd_coeff: float
    odd_power: int


def _taylor_exp_poly(poly_coeffs, a, order):
    # coefficients of exp(-a t) * P(t) in powers of t, up to `order`
    out = []
    for j in range(order + 1):
        c = 0.0
        for m, pm in enumerate(poly_coeffs):
            if m > j:
                break
            c += pm * (-a) ** (j - m) / math.factorial(j - m)
        out.append(c)
    return out


def radial_series(kernel: Kernel, order: int) -> RadialSeries:
    """Expand the profile at 0 up to ``order`` powers of |t|.

    For finite regularity r the expansion is even through t^(2(r-1)) plus the
    odd term |t|^(2r-1); asking beyond that raises SeriesTruncation.
    """
    fam = kernel.family
    if fam in (Family.POLYNOMIAL, Family.MONOMIAL, Family.SUM):
        raise SeriesTruncation(f"{fam.value} kernel is not radial")
    r = regularity(kernel)
    if math.isfinite(r) and order > 2 * r - 1:
        raise SeriesTruncation(
            f"order {order} exceeds the smoothness 2r-1={2 * int(r) - 1}"
        )

    if fam is Family.ZERO:
        evens = tuple(0.0 for _ in range(order // 2 + 1))
        return RadialSeries(evens, None, -1)
    if fam is Family.GAUSSIAN:
        evens = tuple((-1.0) ** j / math.factorial(j) for j in range(order // 2 + 1))
        return RadialSeries(evens, None, -1)
    if fam is Family.POLYHARMONIC:
        rr = kernel.order
        evens = tuple(0.0 for _ in range(order // 2 + 1))
        odd = (-1.0) ** rr if order >= 2 * rr - 1 else None
        return RadialSeries(evens, odd, 2 * rr - 1 if odd is not None else -1)
    if fam is Family.MATERN:
        poly, a = _matern_poly_coeffs(kernel.nu)
        coeffs = _taylor_exp_poly(poly, a, order)
    elif fam is Family.CUSTOM:
        if kernel.profile_series is None:
            raise SeriesTruncation("custom kernel has no declared series")
        coeffs = list(kernel.profile_series[: order + 1])
        coeffs += [0.0] * (order + 1 - len(coeffs))
    else:  # pragma: no cover
        raise SeriesTruncation(f"no series rule for {fam}")

    evens = tuple(coeffs[2 * j] for j in range(order // 2 + 1))
    odd = None
    odd_power = -1
    if math.isfinite(r) and order >= 2 * r - 1:
        odd_power = 2 * int(r) - 1
        odd = coeffs[odd_power]
    return RadialSeries(evens, odd, odd_power)


def leading_odd_coefficient(kernel: Kernel) -> float:
    """Coefficient f_{2r-1} of the non-analytic term, for finite regularity."""
    r = regularity(kernel)
    if not math.isfinite(r):
        raise SeriesTruncation("infinitely smooth kernel has no odd term")
    return radial_series(kernel, 2 * int(r) - 1).odd_coeff


# ---------------------------------------------------------------------------
# Wronskian matrices


def _series_wronskian_entry(alpha, beta, evens):
    s = [a + b for a, b in zip(alpha, beta)]
    if any(si % 2 for si in s):
        return 0.0
    j = sum(s) // 2
    f = evens[j]
    if f == 0.0:
        return 0.0
    ks = [si // 2 for si in s]
    multinom = math.factorial(j)
    for kk in ks:
        multinom //= math.factorial(kk)
    prod = 1
    for a, si in zip(alpha, s):
        prod *= math.comb(si, a)
    return f * multinom * prod * (-1.0) ** sum(beta)


def wronskian(kernel: Kernel, k: int, d: int) -> np.ndarray:
    """Wronskian W[a, b] = k^(a,b)(0, 0) / (a! b!) up to degree ``k`` blocks,
    rows and columns in the graded order of ``enumerate_monomials(k, d)``.

    Every family goes through its radial series: the entry of a coordinate
    sum s = a + b with all s_i even is f_j * j!/prod(k_i!) * prod C(s_i, a_i)
    * (-1)^|b|, with j = |s|/2 and k_i = s_i/2, and 0 otherwise.  The
    combinatorial factors are exact integers.
    """
    r = regularity(kernel)
    if math.isfinite(r) and r <= k:
        raise SeriesTruncation(f"wronskian of order {k} needs regularity > {k}")
    idx = enumerate_monomials(k, d)
    P = len(idx)
    W = np.zeros((P, P))
    evens = radial_series(kernel, 2 * k).even_coeffs
    eps, gam = kernel.epsilon, kernel.gamma
    for i, alpha in enumerate(idx):
        for j in range(i, P):
            beta = idx[j]
            v = _series_wronskian_entry(alpha, beta, evens)
            if v != 0.0:
                v *= gam * eps ** (sum(alpha) + sum(beta))
            W[i, j] = v
            W[j, i] = v
    return W


def wronskian_schur(W: np.ndarray, l: int, d: int) -> np.ndarray:
    """Schur complement of the degree-l block of the dimension-``d`` Wronskian
    ``W`` onto the lower-degree blocks.

    For l = 0 this is just the leading block; the leading sub-Wronskian must
    be invertible (condition number below 1e12).
    """
    if l < 0 or count_poly_dim(l, d) > len(W):
        raise ValueError("block degree out of range")
    nl, nh = count_poly_dim(l - 1, d), count_poly_dim(l, d)
    M = W[:nh, :nh]
    if l == 0:
        return M.copy()
    A = M[:nl, :nl]
    B = M[:nl, nl:]
    C = M[nl:, :nl]
    D = M[nl:, nl:]
    if not np.linalg.cond(A) <= 1e12:
        raise SingularWronskianBlock(
            f"leading Wronskian block of size {nl} is numerically singular"
        )
    return D - C @ np.linalg.solve(A, B)


def block_kernel(kernel: Kernel, m: int, d: int, centre=None) -> Kernel:
    """Finite-rank kernel sum_{|a|=|b|=m} Wbar_m(a, b) (x - c)^a (y - c)^b of
    the radial ``kernel`` at unit scale, with c the ``centre`` (default 0):
    the kernel of its penalized flat limit of degree m in dimension d.

    Wbar_m is the Schur complement of the degree-m block of the unit-scale
    Wronskian; the kernel's ``coef`` holds it, rows in monomial order.  The
    Gaussian's is 2^m / a! on the diagonal, which is (2^m / m!) ((x - c) .
    (y - c))^m: it is returned in that closed form, which stays exact at
    degrees whose Wronskian block is numerically singular.
    """
    if kernel.family is Family.GAUSSIAN:
        # int / int is the correctly rounded quotient: from m = 171, m! as a
        # float (2.0**m / m!) would overflow
        return Kernel.polynomial(m, gamma=2**m / math.factorial(m), centre=centre)
    unit = kernel.with_params(epsilon=1.0, gamma=1.0)
    Wbar = wronskian_schur(wronskian(unit, m, d), m, d)
    block = [e for e in enumerate_monomials(m, d) if sum(e) == m]
    return Kernel.monomial_block(block, Wbar, centre=centre)
