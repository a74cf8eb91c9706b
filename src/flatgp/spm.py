"""Semi-parametric models: a kernel plus unpenalized basis functions.

Inference never forms the inverse of the possibly indefinite kernel matrix.
Every solve is block elimination on the bordered (saddle-point) system: the
basis matrix is orthonormalized, the kernel is restricted to the orthogonal
complement of its span, and a symmetric eigendecomposition of that restriction
is reused for means, variances, smoothers, traces, and the Laurent coefficient
B0.

That eigendecomposition, ``SaddleFactorization``, is the package's one
spectral core.  It is taken of the kernel matrix at unit gain and carries the
gain as a scalar, so it depends on the kernel's shape, the basis and the
design only, never on the data ``y``, the noise level ``sigma2`` or the gain:
``factorize_model`` builds it once per (model, design), ``scaled(g)`` moves it
to another gain without refactoring, and fits at any ``(y, sigma2)``,
smoothers at any ``sigma2`` and the predictive variances of a whole query
batch are solves against it.  A smoother is kept as the modes, their filter
and Q: its trace, diagonal and fitted values cost O(n^2), and the n x n
matrix is formed only where it is read; two smoothers are compared through
their difference (``smoothers.difference``), formed from the factors of
both.  A GP is the model with an empty basis; its spectrum (``from_kernel``,
exported as ``gp.GpSpectrum``) skips the complement and keeps no kernel
matrix; ``from_kernels`` gives the spectra of several kernels on one design
from one stacked eigensolver call, and ``pool.map_spectra`` factors a grid of
kernels in such stacks concurrently.  A caller that reads traces alone asks for
the eigenvalues only (``vectors=False``, ``eigvalsh``): ``dof``, ``scaled``
and ``solve_trace`` need nothing else, and ``smoother``, ``solve`` and
``nlml`` then raise ValueError.  Q, R and the complement basis come from
one complete QR of the n x m basis matrix V, a solve reads the kernel matrix
only through L Q, and an identically zero kernel skips the eigensolver.  The
smoother on the design plus one point follows from the factorization and the
smoother on the design by a bordered update (``augmented_smoother``, an
(n+1) x (n+1) array), in O(n^2) beyond the smoother's matrix and with no new
factorization; its terms (w, c) are x*'s bordered solve and sigma2 / s, so the
difference of two models' augmented smoothers is a rank-two update of the
difference on the design.

A fit against a factorization (``fit_factored``, of one data vector or of k
as columns) is an ``SpmFit``, and ``SpmFit.posterior`` is the package's one
posterior path: a GP's means and variances are those of its empty-basis fit,
with the same round-off guard (NegativeVariance).  ``SpmFit.bordered`` reads
the posterior at x* and the terms (w, c) from that one solve.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateDesign,
    IllConditioned,
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
    DEFAULT_RANK_TOL,
    as_design,
    count_poly_dim,
    enumerate_monomials,
    monomial_matrix,
)
from .smoothers import SmootherMatrix

_PINV_TOL = 1e-12
_CLIP_TOL = 1e-13
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


def _basis_factors(V):
    """Q, R (V = Q R, Q orthonormal) and an orthonormal basis C of the
    complement of span(V), from one complete QR of the basis matrix V; no
    basis gives C = None.  Raises NotUnisolvent on rank deficiency."""
    n, m = V.shape
    if m == 0:
        return np.zeros((n, 0)), np.zeros((0, 0)), None
    s = np.linalg.svd(V, compute_uv=False)
    # fewer points than basis functions leave fewer than m singular values
    if len(s) < m or s[-1] <= DEFAULT_RANK_TOL * s[0]:
        raise NotUnisolvent(
            f"basis matrix has numerical rank below {m} on this design"
        )
    full, R = np.linalg.qr(V, mode="complete")
    # copies, so that the factorization does not keep the n x n array alive
    return full[:, :m].copy(), R[:m].copy(), full[:, m:]


def _eigensystems(A, vectors):
    """Eigenvalues of the symmetric matrix ``A``, or of each matrix of a stack
    (..., n, n), and the eigenvectors with ``vectors`` (else None).  Round-off
    negatives of a PSD matrix, down to ``_CLIP_TOL`` times its largest
    eigenvalue, are set to zero matrix by matrix."""
    if vectors:
        evals, evecs = np.linalg.eigh(A)
    else:
        evals, evecs = np.linalg.eigvalsh(A), None
    cut = _CLIP_TOL * evals.max(axis=-1, initial=0.0, keepdims=True)
    return np.where((evals < 0) & (evals >= -cut), 0.0, evals), evecs


@dataclass(frozen=True)
class SaddleFactorization:
    """The spectral core: eigenpairs of a unit-gain kernel matrix restricted to
    the complement of a basis span, with the gain carried as a scalar.

    ``evals`` are the eigenvalues of C^T L C, where L is the kernel matrix at
    unit gain and the columns of C span the complement of the basis matrix V
    (no basis: C is the identity), and ``modes`` are its eigenvectors lifted
    back to R^n by C: orthonormal, and orthogonal to V.  Neither C nor the
    eigenvectors in the complement's coordinates are kept, since nothing
    reads them once ``modes`` is formed.  With Q R = V, every solve, smoother
    and trace at noise sigma2 filters the modes by
    ``gain lam / (gain lam + sigma2)``, and a solve reads L only through
    ``LQ = L Q``, the kernel's coupling to the basis (None without a basis),
    so no n x n array but ``modes`` is kept.  ``scaled(g)`` multiplies the
    gain and shares every array, so a model is factored once whatever its
    gains.

    Two constructors fix what a singular ``gain L + sigma2 I`` means:
    ``factorize``/``factorize_model`` (the saddle path) solve by the
    pseudo-inverse; ``from_kernels`` (the GP spectra of kernels sharing a
    design, m = 0, one stacked eigensolver call) and its one-kernel case
    ``from_kernel`` raise IllConditioned.  A negative or NaN sigma2 raises
    ValueError either way.  ``vectors=False`` keeps the eigenvalues alone
    (``modes = None``): traces only.
    """

    evals: np.ndarray
    modes: np.ndarray
    gain: float
    pseudo_inverse: bool
    Q: np.ndarray
    R: np.ndarray
    LQ: np.ndarray = None  # L Q, the kernel's coupling to the basis; None without one

    @classmethod
    def from_kernels(
        cls, kernels, X, nugget: float = 0.0, *, vectors: bool = True
    ) -> list:
        """The GP spectra of ``kernels`` on one design, from one stacked
        eigensolver call: for each kernel, no basis, its unit-gain kernel matrix
        plus ``nugget`` I, and gain ``kernel.gamma``.  A negative or NaN nugget
        raises ValueError.

        Each spectrum is bitwise the one ``from_kernel`` gives that kernel
        alone: numpy solves a stack matrix by matrix.  A stack is one call, so
        it counts as one problem against numpy's threshold for releasing the
        GIL; ``pool.map_spectra``, which factors the eps grids of the
        isofreedom curve, the convergence study, dof-grid and criteria-grid,
        builds its tasks from such stacks.  ``vectors=False`` computes the
        eigenvalues alone (``eigvalsh``): such a spectrum gives ``dof`` and
        ``scaled`` and feeds ``solve_trace``, while ``smoother``, ``solve``
        and ``nlml`` raise ValueError.
        """
        if not nugget >= 0:
            raise ValueError(f"nugget must be nonnegative, got nugget={nugget}")
        design = as_design(X)
        mats = [kernel_matrix(k.with_params(gamma=1.0), design) for k in kernels]
        # one kernel is solved as a plain (n, n) matrix, not a stack of one;
        # a stack is a copy, so its parts are freed before the solve
        K = mats[0] if len(mats) == 1 else np.stack(mats)
        del mats
        if nugget:
            K = K + nugget * np.eye(design.n)
        evals, evecs = _eigensystems(K, vectors)
        evals = evals.reshape(len(kernels), design.n)
        if evecs is not None:
            evecs = evecs.reshape(len(kernels), design.n, design.n)
        Q, R = np.zeros((design.n, 0)), np.zeros((0, 0))
        return [
            cls(evals=evals[i], modes=None if evecs is None else evecs[i],
                gain=k.gamma, pseudo_inverse=False, Q=Q, R=R)
            for i, k in enumerate(kernels)
        ]

    @classmethod
    def from_kernel(
        cls, kernel: Kernel, X, nugget: float = 0.0, *, vectors: bool = True
    ) -> "SaddleFactorization":
        """The GP spectrum of one kernel: ``from_kernels([kernel], ...)``."""
        return cls.from_kernels([kernel], X, nugget, vectors=vectors)[0]

    @property
    def m(self) -> int:
        return self.Q.shape[1]

    def scaled(self, factor: float) -> "SaddleFactorization":
        """The same factorization at gain ``gain * factor``; no array is copied."""
        # shares every field but the gain; skipping __init__ keeps this at
        # about a microsecond, since the grids move the gain once per cell
        moved = object.__new__(type(self))
        moved.__dict__.update(vars(self), gain=self.gain * factor)
        return moved

    def _require_vectors(self):
        if self.modes is None:
            raise ValueError(
                "this spectrum has no eigenvectors (from_kernel(..., vectors=False)); "
                "it gives traces only"
            )

    def _filter_terms(self, sigma2):
        """Scaled eigenvalues lam and solve denominators lam + sigma2.  At
        sigma2 = 0 the pseudo-inverse drops the modes with |lam| at round-off
        level by an infinite denominator."""
        if not sigma2 >= 0:
            raise ValueError(f"sigma2 must be nonnegative, got sigma2={sigma2}")
        lam = self.gain * self.evals
        if self.pseudo_inverse:
            denom = lam + sigma2
            if sigma2 == 0:
                cut = _PINV_TOL * max(1.0, float(np.abs(lam).max(initial=0.0)))
                denom[np.abs(lam) <= cut] = np.inf
            return lam, denom
        smallest = float(lam.min()) + sigma2
        if smallest <= 0:
            raise IllConditioned(
                f"K + sigma2 I has nonpositive smallest eigenvalue {smallest:.3e}",
                smallest_eigenvalue=smallest,
            )
        return lam, lam + sigma2

    def dof(self, sigma2=0.0) -> float:
        """Trace of the smoother: m + sum lam / (lam + sigma2)."""
        lam, denom = self._filter_terms(sigma2)
        return self.m + float(np.sum(lam / denom))

    def smoother(self, sigma2=0.0) -> SmootherMatrix:
        """M = QQ^T + Ltilde (Ltilde + sigma2 I)^{-1} on the complement of span(V).

        The smoother is kept as the modes, their filter lam / (lam + sigma2)
        and Q, so its trace, diagonal and fitted values cost O(n^2) and the
        n x n matrix is formed only where ``.matrix`` is read.
        """
        self._require_vectors()
        lam, denom = self._filter_terms(sigma2)
        return SmootherMatrix(self.modes, lam / denom, self.Q)

    def solve(self, sigma2, g, h=None):
        """Solve [[gain L + sigma2 I, V], [V^T, 0]] (a; b) = (g; h) by elimination.

        ``g`` (n,) and ``h`` (m,) may also be (n, k) and (m, k): k right-hand
        sides solved at once.  ``h`` defaults to zero.
        """
        self._require_vectors()
        denom = self._filter_terms(sigma2)[1]
        g = np.asarray(g, dtype=float)
        if g.ndim == 2:
            denom = denom[:, None]  # per-mode factors over columns
        if not self.m:
            return self.modes @ ((self.modes.T @ g) / denom), np.zeros((0,) + g.shape[1:])
        # Q^T a = t = R^-T h fixes a in span(V); the modes, orthogonal to V,
        # solve the complement; the rows along Q then give b
        t = np.zeros((self.m,) + g.shape[1:]) if h is None else np.linalg.solve(self.R.T, h)
        rhs = self.modes.T @ (g - self.gain * (self.LQ @ t))
        a = self.Q @ t + self.modes @ (rhs / denom)
        return a, np.linalg.solve(self.R, self.Q.T @ g - self.gain * (self.LQ.T @ a) - sigma2 * t)

    def nlml(self, y, sigma2) -> float:
        """Negative log likelihood of ``y`` under N(0, gain K + sigma2 I); the
        GP spectrum (``from_kernel``) only."""
        if self.pseudo_inverse:
            raise ValueError("nlml needs the GP spectrum of from_kernel")
        self._require_vectors()
        denom = self._filter_terms(sigma2)[1]
        z = self.modes.T @ np.asarray(y, dtype=float)
        return 0.5 * float(np.sum(np.log(2.0 * math.pi * denom))) + 0.5 * float(
            np.sum(z**2 / denom)
        )


def augmented_smoother(
    fac: SaddleFactorization, smoother: SmootherMatrix, k, kappa: float, v, sigma2: float
) -> np.ndarray:
    """The (n+1) x (n+1) smoother matrix on the design plus one point x*, by a
    bordered update of ``smoother.matrix``.

    ``fac`` and ``smoother`` are the factorization on the design and its
    smoother at ``sigma2``; ``k`` (n,), ``kappa`` and ``v`` (m,) are x*'s
    kernel column k(X, x*), prior variance k(x*, x*) and basis row v(x*).
    Since M = I - sigma2 H, with H the top-left block of the inverse saddle
    matrix, the Schur complement of x* in the bordered system gives

        (w, b) = fac.solve(sigma2, k, v)
        s      = kappa - k^T w - v^T b + sigma2   (predictive variance + sigma2)
        c      = sigma2 / s
        M+     = [[M - c w w^T,  c w  ],
                  [c w^T,        1 - c]]

    which equals the smoother of the augmented design's factorization,
    ``factorize_model(model, vstack(X, x*)).smoother(sigma2)``, but factors
    nothing.  ``SpmFit.bordered`` gives (w, c) from the solve of x*'s
    posterior.
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
    return M


def factorize(L: np.ndarray, V: np.ndarray) -> SaddleFactorization:
    """The saddle-point factorization of kernel matrix ``L`` (taken as unit
    gain) and basis matrix ``V``."""
    n, m = V.shape
    Q, R, C = _basis_factors(V)
    parts = dict(gain=1.0, pseudo_inverse=True, Q=Q, R=R, LQ=L @ Q if m else None)
    if L.any():
        A = L if C is None else C.T @ L @ C
        evals, evecs = _eigensystems(0.5 * (A + A.T), vectors=True)
        # the eigenvectors are lifted to R^n by C once, here
        return SaddleFactorization(evals, evecs if C is None else C @ evecs, **parts)
    # a zero kernel restricts to zero: eigenvalues 0, eigenvectors the identity,
    # so the modes are C itself and no eigensolver runs
    return SaddleFactorization(np.zeros(n - m), np.eye(n) if C is None else C, **parts)


def factorize_model(model: SemiParametricModel, X) -> SaddleFactorization:
    """The saddle-point factorization of ``model`` on the design ``X``: its
    kernel matrix at unit gain, with the gain carried as a scalar."""
    design = as_design(X)
    kernel = model.kernel
    L = kernel_matrix(kernel.with_params(gamma=1.0), design)
    return factorize(L, model.basis_matrix(design)).scaled(kernel.gamma)


def project_out_basis(L: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """(I - QQ^T) L (I - QQ^T), symmetrized."""
    n = L.shape[0]
    P = np.eye(n) - Q @ Q.T
    out = P @ L @ P
    return 0.5 * (out + out.T)


def cpd_check(model: SemiParametricModel, X, tol: float = 1e-10) -> bool:
    """Is the kernel positive semi-definite on the complement of the basis span?"""
    fac = factorize_model(model, X)
    w = fac.gain * fac.evals
    if w.size == 0:
        return True
    scale = float(np.abs(w).max())
    return bool(w.min() >= -tol * max(scale, 1.0))


# ---------------------------------------------------------------------------
# fitting and prediction


@dataclass(frozen=True)
class SpmFit:
    """An SPM fitted to data; prediction reuses the stored factorization.

    ``y`` is one data vector (n,) or k of them as columns (n, k); the
    coefficients and predictive means then carry the same trailing axis,
    while the predictive variance, which does not depend on ``y``, is one
    vector for all columns.
    """

    model: SemiParametricModel
    design: object
    y: np.ndarray
    sigma2: float
    alpha: np.ndarray
    beta: np.ndarray
    factorization: SaddleFactorization

    def _mean(self, Lq, Vq) -> np.ndarray:
        out = Lq @ self.alpha
        if self.factorization.m:
            out = out + Vq @ self.beta
        return out

    def predict(self, query_points) -> np.ndarray:
        Xq = as_design(query_points)
        Lq = kernel_cross(self.model.kernel, Xq, self.design)
        return self._mean(Lq, self.model.basis_matrix(Xq))

    def _solved(self, query_points):
        """Means, unclamped variances (prior - Lq a - Vq b) and the solves a
        of the queries' bordered systems, from one cross kernel Lq and one
        solve.  A variance below round-off raises NegativeVariance."""
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
        return self._mean(Lq, Vq), out, a

    def posterior(self, query_points):
        """Predictive means and variances (prior - Lq a - Vq b) at the query
        points, from one cross kernel Lq.

        The bordered systems of all queries are solved at once, as columns of
        one right-hand side, against the stored factorization: nothing is
        refactored and the kernel matrix of the design is not rebuilt.  A
        variance below round-off raises NegativeVariance; the round-off
        negatives above it are clamped to zero.
        """
        mean, var, _ = self._solved(query_points)
        return mean, np.maximum(var, 0.0)

    def bordered(self, x_new):
        """``posterior`` at one point x*, with the bordered terms (w, c) of
        ``augmented_smoother``, from the same solve: w is the solve a, and
        c = sigma2 / s with s = (unclamped variance) + sigma2."""
        if not self.sigma2 > 0:
            raise ValueError(f"augmented smoothers need sigma2 > 0, got sigma2={self.sigma2}")
        mean, var, a = self._solved(x_new)
        c = self.sigma2 / (float(var[0]) + self.sigma2)
        return mean, np.maximum(var, 0.0), a[:, 0], c


def fit_factored(
    model: SemiParametricModel, design, factorization: SaddleFactorization, y, sigma2: float
) -> SpmFit:
    """Fit ``model`` to ``y`` by solving against its factorization on ``design``.

    ``y`` is (n,), or (n, k) for k data vectors fitted at once.
    """
    if sigma2 < 0:
        raise ValueError("sigma2 must be nonnegative")
    design = as_design(design)
    y = np.asarray(y, dtype=float)
    if y.ndim not in (1, 2) or y.shape[0] != design.n:
        raise ValueError("y must have one entry (or row) per design point")
    alpha, beta = factorization.solve(sigma2, y)
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


def laurent_b0(L: np.ndarray, V: np.ndarray, sigma2: float) -> np.ndarray:
    """Leading Laurent coefficient of (VV^T + eps (L + sigma2 I))^{-1}.

    The pseudo-inverse of L + sigma2 I restricted to the complement of
    span(V); satisfies V^T B0 = 0 by construction.
    """
    fac = factorize(np.asarray(L, dtype=float), np.asarray(V, dtype=float))
    B0 = (fac.modes * (1.0 / fac._filter_terms(sigma2)[1])) @ fac.modes.T
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
    # a repeated point has a zero gap to a neighbour once the points are sorted
    if np.any(np.diff(np.sort(design.points[:, 0])) == 0.0):
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
    return factorize_model(polyharmonic_spm(r, design.d), design).dof(eta)
