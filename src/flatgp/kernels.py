"""Kernel families, regularity, radial expansions, and Wronskian matrices.

A radial kernel is ``gamma * psi(epsilon * ||x - y||)`` for a profile ``psi``.
The profile's behaviour at 0 drives everything downstream: its regularity
parameter ``r`` (the kernel is (r-1)-times differentiable at coincident
points, but not r-times) fixes the eigenvalue valuations of kernel matrices,
and its Taylor coefficients assemble the Wronskian matrices whose Schur
complements define the penalized part of flat limits.
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
    MultiIndex,
    as_design,
    count_poly_dim,
    enumerate_monomials,
    monomial_matrix,
)

INF_REGULARITY = math.inf

_MATERN_NUS = (0.5, 1.5, 2.5, 3.5)


class Family(enum.Enum):
    GAUSSIAN = "gaussian"
    EXPONENTIAL = "exponential"
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
    coefficient matrix of a finite-rank monomial-block kernel.
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

    def __post_init__(self):
        if self.gamma <= 0 and self.family is not Family.ZERO:
            raise ValueError("gamma must be positive")
        if self.epsilon <= 0 and self.family in (
            Family.GAUSSIAN,
            Family.EXPONENTIAL,
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
        return cls(Family.EXPONENTIAL, epsilon=epsilon, gamma=gamma)

    @classmethod
    def matern(cls, nu, epsilon=1.0, gamma=1.0):
        return cls(Family.MATERN, epsilon=epsilon, gamma=gamma, nu=float(nu))

    @classmethod
    def polyharmonic(cls, r, gamma=1.0):
        if r < 1:
            raise ValueError("polyharmonic order must be >= 1")
        return cls(Family.POLYHARMONIC, gamma=gamma, order=int(r))

    @classmethod
    def polynomial(cls, m, gamma=1.0):
        if m < 0:
            raise ValueError("polynomial degree must be >= 0")
        return cls(Family.POLYNOMIAL, gamma=gamma, order=int(m))

    @classmethod
    def monomial_block(cls, exponents, coef, gamma=1.0):
        """Finite-rank kernel ``sum_{a,b} C[a,b] x^a y^b`` over listed exponents."""
        exps = tuple(
            tuple(e.exponents) if isinstance(e, MultiIndex) else tuple(e)
            for e in exponents
        )
        C = np.asarray(coef, dtype=float)
        if C.shape != (len(exps), len(exps)):
            raise ValueError("coef must be square over the exponent list")
        return cls(
            Family.MONOMIAL,
            gamma=gamma,
            exponents=exps,
            coef=tuple(map(tuple, C)),
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

    @cached_property
    def _exponent_indices(self):
        if self.exponents is None:
            return None
        return [MultiIndex(e) for e in self.exponents]


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
    """Vectorized radial profile ``psi(t)``, t >= 0; None for non-radial kernels."""
    fam = kernel.family
    if fam is Family.GAUSSIAN:
        return lambda t: np.exp(-np.square(t))
    if fam is Family.EXPONENTIAL:
        return lambda t: np.exp(-t)
    if fam is Family.MATERN:
        coeffs, a = _matern_poly_coeffs(kernel.nu)

        def psi(t, coeffs=coeffs, a=a):
            t = np.asarray(t, dtype=float)
            p = np.zeros_like(t)
            for c in reversed(coeffs):
                p = p * t + c
            return p * np.exp(-a * t)

        return psi
    if fam is Family.POLYHARMONIC:
        r = kernel.order
        sign = (-1.0) ** r
        return lambda t: sign * np.asarray(t, dtype=float) ** (2 * r - 1)
    if fam is Family.ZERO:
        return lambda t: np.zeros_like(np.asarray(t, dtype=float))
    if fam is Family.CUSTOM:
        return kernel.profile_fn
    return None


def regularity(kernel: Kernel):
    """Regularity parameter r: (r-1)-times differentiable at 0 but not r-times."""
    fam = kernel.family
    if fam in (Family.GAUSSIAN, Family.POLYNOMIAL, Family.MONOMIAL, Family.ZERO):
        return INF_REGULARITY
    if fam is Family.EXPONENTIAL:
        return 1
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


def eval_kernel(kernel: Kernel, x, y) -> float:
    """Evaluate k(x, y) at two points of R^d."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    fam = kernel.family
    if fam is Family.ZERO:
        return 0.0
    if fam is Family.SUM:
        return kernel.gamma * sum(eval_kernel(k, x, y) for k in kernel.components)
    if fam is Family.POLYNOMIAL:
        return kernel.gamma * float(x @ y) ** kernel.order
    if fam is Family.MONOMIAL:
        phi_x = monomial_matrix(x[None, :], kernel._exponent_indices)[0]
        phi_y = monomial_matrix(y[None, :], kernel._exponent_indices)[0]
        return kernel.gamma * float(phi_x @ kernel._coef_array @ phi_y)
    t = kernel.epsilon * float(np.linalg.norm(x - y))
    return kernel.gamma * float(profile(kernel)(t))


def kernel_matrix(kernel: Kernel, X) -> np.ndarray:
    """Symmetric matrix K[i, j] = k(x_i, x_j) over the design."""
    design = as_design(X)
    pts = design.points
    fam = kernel.family
    if fam is Family.ZERO:
        return np.zeros((design.n, design.n))
    if fam is Family.SUM:
        return kernel.gamma * sum(kernel_matrix(k, design) for k in kernel.components)
    if fam is Family.POLYNOMIAL:
        G = pts @ pts.T
        G = 0.5 * (G + G.T)
        return kernel.gamma * G**kernel.order
    if fam is Family.MONOMIAL:
        phi = monomial_matrix(design, kernel._exponent_indices)
        G = phi @ kernel._coef_array @ phi.T
        return kernel.gamma * 0.5 * (G + G.T)
    t = kernel.epsilon * np.sqrt(accel.pairwise_sq_dists(pts))
    return kernel.gamma * profile(kernel)(t)


def kernel_cross(kernel: Kernel, A, B) -> np.ndarray:
    """Rectangular matrix k(a_i, b_j) between two point sets."""
    A = as_design(A).points
    B = as_design(B).points
    fam = kernel.family
    if fam is Family.ZERO:
        return np.zeros((A.shape[0], B.shape[0]))
    if fam is Family.SUM:
        return kernel.gamma * sum(kernel_cross(k, A, B) for k in kernel.components)
    if fam is Family.POLYNOMIAL:
        return kernel.gamma * (A @ B.T) ** kernel.order
    if fam is Family.MONOMIAL:
        pa = monomial_matrix(A, kernel._exponent_indices)
        pb = monomial_matrix(B, kernel._exponent_indices)
        return kernel.gamma * pa @ kernel._coef_array @ pb.T
    t = kernel.epsilon * np.sqrt(accel.cross_sq_dists(A, B))
    return kernel.gamma * profile(kernel)(t)


def kernel_diag(kernel: Kernel, X) -> np.ndarray:
    """Vector of prior variances k(x_i, x_i)."""
    pts = as_design(X).points
    fam = kernel.family
    if fam is Family.ZERO:
        return np.zeros(pts.shape[0])
    if fam is Family.SUM:
        return kernel.gamma * sum(kernel_diag(k, pts) for k in kernel.components)
    if fam is Family.POLYNOMIAL:
        return kernel.gamma * np.einsum("ij,ij->i", pts, pts) ** kernel.order
    if fam is Family.MONOMIAL:
        phi = monomial_matrix(pts, kernel._exponent_indices)
        return kernel.gamma * np.einsum("ij,jk,ik->i", phi, kernel._coef_array, phi)
    return np.full(pts.shape[0], kernel.gamma * float(profile(kernel)(0.0)))


def distance_power_matrix(X, q: float) -> np.ndarray:
    """Matrix ||x_i - x_j||^q with exact zero diagonal; requires q > 0."""
    if q <= 0:
        raise ValueError("q must be positive")
    return accel.pairwise_dist_power(as_design(X).points, q)


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
    truncation_order: int

    def even(self, two_j: int) -> float:
        return self.even_coeffs[two_j // 2]


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
        return RadialSeries(evens, None, -1, order)
    if fam is Family.GAUSSIAN:
        evens = tuple((-1.0) ** j / math.factorial(j) for j in range(order // 2 + 1))
        return RadialSeries(evens, None, -1, order)
    if fam is Family.POLYHARMONIC:
        rr = kernel.order
        evens = tuple(0.0 for _ in range(order // 2 + 1))
        odd = (-1.0) ** rr if order >= 2 * rr - 1 else None
        return RadialSeries(evens, odd, 2 * rr - 1 if odd is not None else -1, order)
    if fam is Family.EXPONENTIAL:
        coeffs = _taylor_exp_poly([1.0], 1.0, order)
    elif fam is Family.MATERN:
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
    return RadialSeries(evens, odd, odd_power, order)


def leading_odd_coefficient(kernel: Kernel) -> float:
    """Coefficient f_{2r-1} of the non-analytic term, for finite regularity."""
    r = regularity(kernel)
    if not math.isfinite(r):
        raise SeriesTruncation("infinitely smooth kernel has no odd term")
    return radial_series(kernel, 2 * int(r) - 1).odd_coeff


# ---------------------------------------------------------------------------
# Wronskian matrices


@dataclass(frozen=True)
class WronskianMatrix:
    """Scaled kernel derivatives at 0 indexed by the graded monomial ordering."""

    order: int
    d: int
    matrix: np.ndarray

    @property
    def indices(self) -> list:
        return enumerate_monomials(self.order, self.d)

    def block_boundary(self, l: int) -> int:
        return count_poly_dim(l - 1, self.d)


def _double_factorial(n: int) -> int:
    if n <= 0:
        return 1
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def _gaussian_wronskian_entry(alpha, beta):
    s = [a + b for a, b in zip(alpha, beta)]
    if any(si % 2 for si in s):
        return 0.0
    j = sum(s) // 2
    num = 1
    for si in s:
        num *= _double_factorial(si - 1)
    denom = 1
    for a in alpha:
        denom *= math.factorial(a)
    for b in beta:
        denom *= math.factorial(b)
    return num * (-2.0) ** j * (-1.0) ** sum(beta) / denom


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


def wronskian(kernel: Kernel, k: int, d: int) -> WronskianMatrix:
    """Wronskian W[a, b] = k^(a,b)(0, 0) / (a! b!) up to degree ``k`` blocks.

    Computed in closed form from Gaussian moments for the Gaussian family and
    from the radial series plus a multinomial expansion otherwise; either way
    the combinatorial factors are exact integers.
    """
    r = regularity(kernel)
    if math.isfinite(r) and r <= k:
        raise SeriesTruncation(f"wronskian of order {k} needs regularity > {k}")
    idx = [mi.exponents for mi in enumerate_monomials(k, d)]
    P = len(idx)
    W = np.zeros((P, P))
    if kernel.family is Family.GAUSSIAN:
        entry = _gaussian_wronskian_entry
    else:
        evens = radial_series(kernel, 2 * k).even_coeffs

        def entry(alpha, beta, evens=evens):
            return _series_wronskian_entry(alpha, beta, evens)

    eps, gam = kernel.epsilon, kernel.gamma
    for i, alpha in enumerate(idx):
        for j in range(i, P):
            beta = idx[j]
            v = entry(alpha, beta)
            if v != 0.0:
                v *= gam * eps ** (sum(alpha) + sum(beta))
            W[i, j] = v
            W[j, i] = v
    return WronskianMatrix(order=k, d=d, matrix=W)


def wronskian_schur(W: WronskianMatrix, l: int) -> np.ndarray:
    """Schur complement of the degree-l block onto the lower-degree blocks.

    For l = 0 this is just the leading block; the leading sub-Wronskian must
    be invertible (condition number below 1e12).
    """
    if l < 0 or l > W.order:
        raise ValueError("block degree out of range")
    nl = W.block_boundary(l)
    nh = count_poly_dim(l, W.d)
    M = W.matrix[:nh, :nh]
    if l == 0:
        return M.copy()
    A = M[:nl, :nl]
    B = M[:nl, nl:]
    C = M[nl:, :nl]
    D = M[nl:, nl:]
    s = np.linalg.svd(A, compute_uv=False)
    if s[-1] <= 0 or s[0] / s[-1] > 1e12:
        raise SingularWronskianBlock(
            f"leading Wronskian block of size {nl} is numerically singular"
        )
    return D - C @ np.linalg.solve(A, B)
