"""Semi-parametric models: a kernel plus unpenalized basis functions.

Inference never forms the inverse of the possibly indefinite kernel matrix.
Every solve is block elimination on the bordered (saddle-point) system: the
basis matrix is orthonormalized, the kernel is restricted to the orthogonal
complement of its span, and a symmetric eigendecomposition of that restriction
is reused for means, variances, smoothers, and the Laurent coefficient B0.

A factorization depends on the model and the design only, never on the data
``y`` or the noise level ``sigma2``.  ``factorize_model`` builds it once per
(model, design); fits at any ``(y, sigma2)``, smoothers at any ``sigma2`` and
the predictive variances of a whole query batch are then solves against it.
The complement basis comes from one complete QR of the n x m orthonormal
basis, and an identically zero kernel skips the eigensolver.  The smoother on
the design plus one point follows from the factorization and the smoother on
the design by a bordered update (``augmented_smoother``), in O(n^2) and with
no new factorization.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DegenerateDesign,
    IncomparableModels,
    NegativeVariance,
    NotUnisolvent,
    UnreachableDof,
)
from .kernels import (
    Family,
    Kernel,
    kernel_cross,
    kernel_diag,
    kernel_matrix,
)
from .polybasis import (
    as_design,
    count_poly_dim,
    enumerate_monomials,
    monomial_matrix,
)
from .smoothers import SmootherMatrix

_RANK_TOL = 1e-10
_PINV_TOL = 1e-12
_VARIANCE_ERROR_TOL = 1e-8
# trace solves: gain search range, Newton step size (in log g) that ends the
# iteration, iteration cap, and the residual (per design point) still accepted
_GAIN_MIN, _GAIN_MAX = 1e-30, 1e30
_TRACE_STEP_TOL = 1e-13
_TRACE_MAX_ITER = 100
_TRACE_RESIDUAL_TOL = 1e-10


@dataclass(frozen=True)
class SemiParametricModel:
    """Kernel (possibly zero or only conditionally positive-definite) plus basis.

    The parametric part is either all monomials of degree <= ``basis_degree``
    (-1 for an empty basis) or an explicit tuple of callables mapping an
    (n, d) array to n basis values.
    """

    kernel: Kernel
    d: int
    basis_degree: int = -1
    basis_functions: tuple = None

    def basis_size(self) -> int:
        if self.basis_functions is not None:
            return len(self.basis_functions)
        return count_poly_dim(self.basis_degree, self.d)

    def basis_matrix(self, X) -> np.ndarray:
        design = as_design(X)
        if design.d != self.d:
            raise ValueError(f"design dimension {design.d} != model dimension {self.d}")
        if self.basis_functions is not None:
            cols = [np.asarray(f(design.points), dtype=float) for f in self.basis_functions]
            return np.stack(cols, axis=1) if cols else np.zeros((design.n, 0))
        if self.basis_degree < 0:
            return np.zeros((design.n, 0))
        return monomial_matrix(design, enumerate_monomials(self.basis_degree, self.d))

    def scaled(self, factor: float) -> "SemiParametricModel":
        k = self.kernel
        newk = k if k.family is Family.ZERO else k.with_params(gamma=k.gamma * factor)
        return SemiParametricModel(newk, self.d, self.basis_degree, self.basis_functions)


def polyharmonic_spm(r: int, d: int) -> SemiParametricModel:
    """Polyharmonic splines of order r: kernel (-1)^r ||x-y||^(2r-1), basis deg < r."""
    if r < 1:
        raise ValueError("order must be >= 1")
    return SemiParametricModel(Kernel.polyharmonic(r), d=d, basis_degree=r - 1)


# ---------------------------------------------------------------------------
# saddle-point factorization


def _orthonormal_basis(V, n):
    """QR of the basis matrix; raises NotUnisolvent on rank deficiency."""
    m = V.shape[1]
    if m == 0:
        return np.zeros((n, 0)), np.zeros((0, 0))
    s = np.linalg.svd(V, compute_uv=False)
    if s[-1] <= _RANK_TOL * s[0]:
        raise NotUnisolvent(
            f"basis matrix has numerical rank below {m} on this design"
        )
    Q, R = np.linalg.qr(V)
    return Q, R


def _complement_basis(Q, n):
    """Orthonormal basis of the complement of span(Q), by complete QR of Q."""
    m = Q.shape[1]
    if m == 0:
        return np.eye(n)
    return np.linalg.qr(Q, mode="complete")[0][:, m:]


@dataclass(frozen=True)
class SaddleFactorization:
    """Shared pieces of the bordered solve: the kernel matrix L, Q/R of the
    basis matrix V, and the eigensystem of L restricted to the complement of
    span(V).  Independent of the data and the noise level."""

    L: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    C: np.ndarray
    evals: np.ndarray
    evecs: np.ndarray

    @property
    def m(self) -> int:
        return self.Q.shape[1]

    @cached_property
    def modes(self) -> np.ndarray:
        """Complement eigenvectors lifted back to R^n (n x (n-m))."""
        return self.C @ self.evecs

    def _pinv_kept(self) -> np.ndarray:
        """Modes kept by the noiseless (sigma2 = 0) pseudo-inverse."""
        cut = _PINV_TOL * max(1.0, float(np.abs(self.evals).max(initial=0.0)))
        return np.abs(self.evals) > cut

    def solve(self, sigma2, g, h):
        """Solve [[L + sigma2 I, V], [V^T, 0]] (a; b) = (g; h) by elimination.

        ``g`` (n,) and ``h`` (m,) may also be (n, k) and (m, k): k right-hand
        sides solved at once.
        """
        g = np.asarray(g, dtype=float)
        if self.m:
            a_basis = self.Q @ np.linalg.solve(self.R.T, h)
        else:
            a_basis = np.zeros_like(g)
        rhs = self.modes.T @ (g - self.L @ a_basis)
        col = (slice(None),) + (None,) * (rhs.ndim - 1)  # per-mode factors over columns
        if sigma2 > 0:
            w = rhs / (self.evals + sigma2)[col]
        else:
            keep = self._pinv_kept()
            safe = np.where(keep, self.evals, 1.0)
            w = np.where(keep[col], rhs / safe[col], 0.0)
        a = a_basis + self.modes @ w
        if self.m:
            b = np.linalg.solve(self.R, self.Q.T @ (g - self.L @ a - sigma2 * a))
        else:
            b = np.zeros((0,) + g.shape[1:])
        return a, b

    def fit(self, y, sigma2):
        """Coefficients (alpha, beta) of the fit to data y at noise sigma2."""
        return self.solve(sigma2, y, np.zeros(self.m))

    def smoother(self, sigma2) -> SmootherMatrix:
        """M = QQ^T + Ltilde (Ltilde + sigma2 I)^{-1} on the complement of span(V)."""
        lam = self.evals
        filt = lam / (lam + sigma2) if sigma2 > 0 else self._pinv_kept().astype(float)
        modes = self.modes
        M = modes @ (filt[:, None] * modes.T)
        if self.m:
            M = M + self.Q @ self.Q.T
        return SmootherMatrix(0.5 * (M + M.T))


def augmented_smoother(
    fac: SaddleFactorization, smoother: SmootherMatrix, k, kappa: float, v, sigma2: float
) -> SmootherMatrix:
    """Smoother on the design plus one point x*, by a bordered update in O(n^2).

    ``fac`` and ``smoother`` are the factorization on the design and its
    smoother at ``sigma2``; ``k`` (n,), ``kappa`` and ``v`` (m,) are x*'s
    kernel column k(X, x*), prior variance k(x*, x*) and basis row v(x*).
    Since M = I - sigma2 H, with H the top-left block of the inverse saddle
    matrix, the Schur complement of x* in the bordered system gives

        (w, b) = fac.solve(sigma2, k, v)
        s      = kappa - k^T w - v^T b + sigma2   (predictive variance + sigma2)
        M+     = [[M - sigma2 w w^T / s,  sigma2 w / s],
                  [sigma2 w^T / s,        1 - sigma2 / s]]

    which equals ``spm_smoother(model, vstack(X, x*), sigma2)`` without
    factoring the augmented design.
    """
    if not sigma2 > 0:
        raise ValueError(f"augmented smoothers need sigma2 > 0, got sigma2={sigma2}")
    k = np.asarray(k, dtype=float)
    v = np.asarray(v, dtype=float)
    w, b = fac.solve(sigma2, k, v)
    c = sigma2 / (float(kappa) - k @ w - v @ b + sigma2)
    n = smoother.n
    M = np.empty((n + 1, n + 1))
    M[:n, :n] = smoother.matrix - c * np.outer(w, w)
    M[:n, n] = M[n, :n] = c * w
    M[n, n] = 1.0 - c
    return SmootherMatrix(M)


def factorize(L: np.ndarray, V: np.ndarray) -> SaddleFactorization:
    n = L.shape[0]
    Q, R = _orthonormal_basis(V, n)
    C = _complement_basis(Q, n)
    if L.any():
        A = C.T @ L @ C
        evals, evecs = np.linalg.eigh(0.5 * (A + A.T))
    else:
        # a zero kernel restricts to zero: eigenvalues 0, eigenvectors the identity
        k = C.shape[1]
        evals, evecs = np.zeros(k), np.eye(k)
    return SaddleFactorization(L=L, Q=Q, R=R, C=C, evals=evals, evecs=evecs)


def factorize_model(model: SemiParametricModel, X) -> SaddleFactorization:
    """The saddle-point factorization of ``model`` on the design ``X``."""
    design = as_design(X)
    return factorize(kernel_matrix(model.kernel, design), model.basis_matrix(design))


def project_out_basis(L: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """(I - QQ^T) L (I - QQ^T), symmetrized."""
    n = L.shape[0]
    P = np.eye(n) - Q @ Q.T
    out = P @ L @ P
    return 0.5 * (out + out.T)


def cpd_check(model: SemiParametricModel, X, tol: float = 1e-10) -> bool:
    """Is the kernel positive semi-definite on the complement of the basis span?"""
    w = factorize_model(model, X).evals
    if w.size == 0:
        return True
    scale = float(np.abs(w).max())
    return bool(w.min() >= -tol * max(scale, 1.0))


# ---------------------------------------------------------------------------
# fitting and prediction


@dataclass(frozen=True)
class SpmFit:
    """An SPM fitted to data; prediction reuses the stored factorization."""

    model: SemiParametricModel
    design: object
    y: np.ndarray
    sigma2: float
    alpha: np.ndarray
    beta: np.ndarray
    factorization: SaddleFactorization

    def predict(self, query_points) -> np.ndarray:
        Xq = as_design(query_points)
        Lq = kernel_cross(self.model.kernel, Xq, self.design)
        out = Lq @ self.alpha
        if self.factorization.m:
            out = out + self.model.basis_matrix(Xq) @ self.beta
        return out

    def predict_var(self, query_points) -> np.ndarray:
        """Predictive variances prior - Lq a - Vq b at the query points.

        The bordered systems of all queries are solved at once, as columns of
        one right-hand side, against the stored factorization: nothing is
        refactored and the kernel matrix of the design is not rebuilt.
        """
        Xq = as_design(query_points)
        Lq = kernel_cross(self.model.kernel, Xq, self.design)
        Vq = self.model.basis_matrix(Xq)
        prior = kernel_diag(self.model.kernel, Xq)
        a, b = self.factorization.solve(self.sigma2, Lq.T, Vq.T)
        out = prior - np.einsum("ij,ji->i", Lq, a) - np.einsum("ij,ji->i", Vq, b)
        scale = max(1.0, float(np.abs(prior).max(initial=0.0)))
        if np.any(out < -_VARIANCE_ERROR_TOL * scale):
            raise NegativeVariance(
                f"predictive variance {out.min():.3e} below round-off; "
                "check conditional positive-definiteness"
            )
        return np.maximum(out, 0.0)


def fit_factored(
    model: SemiParametricModel, design, factorization: SaddleFactorization, y, sigma2: float
) -> SpmFit:
    """Fit ``model`` to ``y`` by solving against its factorization on ``design``."""
    if sigma2 < 0:
        raise ValueError("sigma2 must be nonnegative")
    design = as_design(design)
    y = np.asarray(y, dtype=float)
    if y.shape != (design.n,):
        raise ValueError("y must have one entry per design point")
    alpha, beta = factorization.fit(y, sigma2)
    return SpmFit(
        model=model,
        design=design,
        y=y,
        sigma2=float(sigma2),
        alpha=alpha,
        beta=beta,
        factorization=factorization,
    )


def fit_spm(model: SemiParametricModel, X, y, sigma2: float) -> SpmFit:
    """Solve the bordered system [[L + sigma2 I, V], [V^T, 0]] (alpha; beta) = (y; 0)."""
    design = as_design(X)
    return fit_factored(model, design, factorize_model(model, design), y, sigma2)


def spm_posterior_mean(model, X, y, sigma2, query_points) -> np.ndarray:
    return fit_spm(model, X, y, sigma2).predict(query_points)


def spm_posterior_var(model, X, sigma2, query_points) -> np.ndarray:
    design = as_design(X)
    fit = fit_spm(model, design, np.zeros(design.n), sigma2)
    return fit.predict_var(query_points)


def spm_smoother(model: SemiParametricModel, X, sigma2: float) -> SmootherMatrix:
    """M = QQ^T + Ltilde (Ltilde + sigma2 I)^{-1} on the complement of span(V)."""
    return factorize_model(model, X).smoother(sigma2)


def laurent_b0(L: np.ndarray, V: np.ndarray, sigma2: float) -> np.ndarray:
    """Leading Laurent coefficient of (VV^T + eps (L + sigma2 I))^{-1}.

    The pseudo-inverse of L + sigma2 I restricted to the complement of
    span(V); satisfies V^T B0 = 0 by construction.
    """
    L = np.asarray(L, dtype=float)
    fac = factorize(L, np.asarray(V, dtype=float))
    denom = fac.evals + sigma2
    cut = _PINV_TOL * max(1.0, float(np.abs(denom).max(initial=0.0)))
    keep = np.abs(denom) > cut
    inv = np.where(keep, 1.0 / np.where(keep, denom, 1.0), 0.0)
    modes = fac.modes
    B0 = modes @ (inv[:, None] * modes.T)
    return 0.5 * (B0 + B0.T)


def smoothing_spline_fit(X, y, p: int, eta: float) -> SpmFit:
    """Univariate smoothing spline of order p with penalty eta.

    Solves [[(-1)^p D^(2p-1) + eta I, V_{<p}], [V_{<p}^T, 0]] (alpha; beta) =
    (y; 0); eta = 0 is the polyharmonic interpolation system.
    """
    design = as_design(X)
    if design.d != 1:
        raise ValueError("smoothing splines are univariate; use polyharmonic_spm for d > 1")
    if eta < 0:
        raise ValueError("eta must be nonnegative")
    if design.n <= p:
        raise DegenerateDesign(f"need more than p={p} points")
    dists = np.abs(design.points[:, 0][:, None] - design.points[:, 0][None, :])
    if np.any(dists[~np.eye(design.n, dtype=bool)] == 0.0):
        raise DegenerateDesign("design points must be distinct")
    model = polyharmonic_spm(p, 1)
    return fit_spm(model, design, y, eta)


# ---------------------------------------------------------------------------
# structural checks used by equivalence machinery


def require_comparable(a: SemiParametricModel, b: SemiParametricModel):
    if a.basis_size() != b.basis_size():
        raise IncomparableModels(
            f"parametric dimensions differ: {a.basis_size()} vs {b.basis_size()}"
        )


def spm_filter_eigenvalues(model: SemiParametricModel, X):
    """Basis size and unit-gain eigenvalues driving the smoother's filter.

    The trace of the smoother of ``model`` rescaled to absolute gain g at
    noise sigma2 is ``m + sum g lam / (g lam + sigma2)``; evaluating that
    curve is stable at any gain, unlike re-projecting a rescaled kernel.
    ``solve_trace(lam, m, target, sigma2)`` is the one solver of that curve.
    """
    fac = factorize_model(model.scaled(1.0 / model.kernel.gamma), X)
    lam = np.maximum(fac.evals, 0.0)
    return fac.m, lam


def solve_trace(lam, base: float, target: float, sigma2: float):
    """Gain g with ``base + sum g lam / (g lam + sigma2) = target``, and that trace.

    The trace rises monotonically from ``base`` (g -> 0) to
    ``base + #{lam > 0}`` (g -> inf); negative ``lam`` count as zero.  Gains
    are searched in [1e-30, 1e30]: a target that is not strictly between
    those limits, or not between the traces at the ends of the range, raises
    UnreachableDof.

    The iteration is Newton's method in t = log g on ``log(S / U)``, with
    ``S = sum r``, ``U = sum (1 - r)`` and ``r = g lam / (g lam + sigma2)``;
    its slope is ``sum r (1 - r) * (1/S + 1/U)`` in closed form.  At both ends
    of the curve ``log(S / U)`` is close to linear in t, where Newton on the
    trace itself would creep by one e-fold per step.  Every step shrinks a
    bracket around the root, and a step that would leave it is replaced by
    bisection.
    """
    if not sigma2 > 0:
        raise ValueError(f"trace solves need sigma2 > 0, got sigma2={sigma2}")
    lam = np.asarray(lam, dtype=float)
    lam = lam[lam > 0]
    n = lam.size

    def filter_sums(t):
        gl = math.exp(t) * lam
        r = gl / (gl + sigma2)
        q = sigma2 / (gl + sigma2)  # 1 - r, without cancellation near r = 1
        return float(np.sum(r)), float(np.sum(q)), float(np.sum(r * q))

    lo, hi = math.log(_GAIN_MIN), math.log(_GAIN_MAX)
    if not (
        base < target < base + n
        and base + filter_sums(lo)[0] <= target <= base + filter_sums(hi)[0]
    ):
        raise UnreachableDof(
            f"trace {target:.6g} is not reachable: the gains in "
            f"[{_GAIN_MIN:g}, {_GAIN_MAX:g}] span ({base:.6g}, {base + n:.6g}) at most"
        )
    goal = math.log((target - base) / (base + n - target))
    # start where the mode ranked ceil(target - base) from the top is half filtered
    k = n - math.ceil(target - base)
    t = min(max(math.log(sigma2 / np.partition(lam, k)[k]), lo), hi)
    for _ in range(_TRACE_MAX_ITER):
        s, u, p = filter_sums(t)
        # p = 0 only where round-off turned every mode fully off (s = 0) or on (u = 0)
        miss = math.log(s / u) - goal if p > 0 else s - u
        if miss == 0:
            break
        if miss < 0:
            lo = t
        else:
            hi = t
        step = -miss / (p * (1.0 / s + 1.0 / u)) if p > 0 else math.inf
        # a step at round-off size ends the iteration even if rounding put it
        # just outside the bracket
        if not (lo < t + step < hi or abs(step) <= _TRACE_STEP_TOL):
            step = 0.5 * (lo + hi) - t
        t += step
        if abs(step) <= _TRACE_STEP_TOL:
            break
    trace = base + filter_sums(t)[0]
    if abs(trace - target) > _TRACE_RESIDUAL_TOL * max(1, n):
        raise UnreachableDof(f"trace solve stopped {trace - target:.3e} away from {target:.6g}")
    return math.exp(t), trace


def spline_dof(X, r: int, eta: float) -> float:
    """Degrees of freedom p + sum lam_i / (lam_i + eta) of a spline smoother."""
    design = as_design(X)
    m, lam = spm_filter_eigenvalues(polyharmonic_spm(r, design.d), design)
    if eta == 0:
        return float(m + np.sum(lam > 0))
    return float(m + np.sum(lam / (lam + eta)))
