"""Semi-parametric models: a kernel plus unpenalized basis functions.

Inference never forms the inverse of the possibly indefinite kernel matrix.
Every solve is block elimination on the bordered (saddle-point) system: the
basis matrix V is orthonormalized, the kernel is restricted to the orthogonal
complement of its span, and a symmetric eigendecomposition of that
restriction, ``SaddleFactorization``, the package's one spectral core, is
reused for means, variances, smoothers and traces; its solve against the
identity, ``fac.solve(sigma2, np.eye(n))[0]``, is the Laurent coefficient B0
of (V V^T + eps (L + sigma2 I))^-1.  It is taken at unit gain and carries
the gain as a scalar, so it depends on the kernel's shape, the basis and the
design only: ``factorize_model`` builds it once per (model, design).
``filter_terms(sigma2, gains)`` filters it at a vector of gains at once, one
gain-major row per gain, and is the one path from the spectrum to its
filters: the traces (``dofs``), smoothers (``smoothers``) and predictions of
a whole gain grid read those rows, a read at this gain alone is the grid of
the one gain factor 1, and ``scaled(g)`` moves it to one other gain.  A GP
is the model with an empty basis (``from_kernel``, exported as
``gp.GpSpectrum``).

Q, R and the restriction to the complement come from one QR of V, whose
rank the package's one rule judges (``polybasis.full_rank_blocks``): its m
Householder reflectors, in compact WY form, restrict the kernel and lift the
eigenvectors in O(n^2 m).  Q and the lifted eigenvectors are the columns of
one orthogonal n x n basis W, and a smoother is W diag(1_m, filter) W^T, the
Demmler-Reinsch form: the basis directions are modes with filter 1.  A
monomial basis is taken on the design's centred, scaled coordinates
(``polybasis.framed_monomials``), and so are the query points: ``SpmFit.beta``
holds the coefficients of those monomials, while the means and variances are
those of the raw ones.  A factorization records the model it factored and the
design, so ``fac.fit(y, sigma2)`` is an ``SpmFit`` that reads the kernel,
basis, design and gain from it, and ``SpmFit.posterior`` is the package's one
posterior path.  The same record serves the equivalence layer:
``SpmFit.bordered`` reads x*'s kernel column, prior variance and basis row
from the factorization, and ``flatlimit``'s checks compare two
factorizations, not a model beside one.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    IllConditioned,
    NegativeVariance,
    NotUnisolvent,
    UnreachableDof,
)
from .kernels import Kernel, kernel_cross, kernel_diag, kernel_matrix
from .polybasis import as_design, count_poly_dim, enumerate_monomials, framed_monomials, full_rank_blocks
from .smoothers import SmootherMatrix, SmootherStack

_PINV_TOL = 1e-12
_CLIP_TOL = 1e-13
_EPS = float(np.finfo(float).eps)
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

    def __post_init__(self):
        if self.basis_degree < -1:
            raise ValueError(f"basis_degree must be >= -1, got {self.basis_degree}")

    def basis_size(self) -> int:
        if self.basis_functions is not None:
            return len(self.basis_functions)
        return count_poly_dim(self.basis_degree, self.d)

    def basis_matrix(self, X, design=None) -> np.ndarray:
        """The basis at ``X``; monomials in the frame of ``design`` (default ``X``)."""
        pts = as_design(X)
        if pts.d != self.d:
            raise ValueError(f"design dimension {pts.d} != model dimension {self.d}")
        if self.basis_functions is not None:
            cols = [np.asarray(f(pts.points), dtype=float) for f in self.basis_functions]
            return np.stack(cols, axis=1) if cols else np.zeros((pts.n, 0))
        if self.basis_degree < 0:
            return np.zeros((pts.n, 0))
        return framed_monomials(pts, enumerate_monomials(self.basis_degree, self.d), design)

    def scaled(self, factor: float) -> "SemiParametricModel":
        newk = self.kernel.with_params(gamma=self.kernel.gamma * factor)
        return SemiParametricModel(newk, self.d, self.basis_degree, self.basis_functions)


def polyharmonic_spm(r: int, d: int) -> SemiParametricModel:
    """Polyharmonic splines of order r: kernel (-1)^r ||x-y||^(2r-1), basis deg < r."""
    if r < 1:
        raise ValueError("order must be >= 1")
    return SemiParametricModel(Kernel.polyharmonic(r), d=d, basis_degree=r - 1)


# ---------------------------------------------------------------------------
# saddle-point factorization


def _basis_factors(V):
    """Q, R (V = Q R, Q orthonormal) and the compact WY pair (Y, T) of the
    basis matrix V, from one QR of V's own shape (``mode="raw"``): its m
    Householder reflectors multiply to H = I - Y T Y^T (Schreiber and Van
    Loan, 1989), whose first m columns are Q and whose last n - m are an
    orthonormal basis of the complement of span(V).  H is never formed:
    ``factorize`` applies it through Y and T.  Raises NotUnisolvent on rank
    deficiency."""
    n, m = V.shape
    h, tau = np.linalg.qr(V, mode="raw")
    # h holds R on and above the diagonal of h^T, the reflectors (with unit
    # diagonals left implicit) below it
    R = np.triu(h.T[:m])
    if not full_rank_blocks(R, [m]):
        raise NotUnisolvent(f"basis matrix has numerical rank below {m} on this design")
    Y = np.tril(h.T, -1) + np.eye(n, m)
    # T column by column (LAPACK's dlarft): H_1 ... H_j = I - Y_j T_j Y_j^T
    G = Y.T @ Y
    T = np.zeros((m, m))
    for j in range(m):
        T[:j, j] = -tau[j] * (T[:j, :j] @ G[:j, j])
        T[j, j] = tau[j]
    return np.eye(n, m) - Y @ (T @ Y[:m].T), R, Y, T


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


def check_sigma2(sigma2: float):
    """Raise ValueError unless ``sigma2`` is nonnegative, NaN included: the
    one rule for a noise variance, which ``SaddleFactorization.filter_terms``
    applies and ``flatlimit.limiting_smoother`` checks where no spectrum is
    filtered."""
    if not sigma2 >= 0:
        raise ValueError(f"sigma2 must be nonnegative, got sigma2={sigma2}")


def check_nugget(nugget: float):
    """Raise ValueError unless ``nugget`` is nonnegative, NaN included: the
    one rule for a nugget, which ``SaddleFactorization.shifted`` applies and
    the CLI checks before it computes any spectrum."""
    if not nugget >= 0:
        raise ValueError(f"nugget must be nonnegative, got nugget={nugget}")


@dataclass(frozen=True)
class SaddleFactorization:
    """The spectral core: eigenpairs of a unit-gain kernel matrix restricted to
    the complement of a basis span, with the gain carried as a scalar.

    ``evals`` are the eigenvalues of L restricted to the complement of the
    span of the basis matrix V, where L is the kernel matrix at unit gain:
    with H = I - Y T Y^T the product of the Householder reflectors of V's QR,
    they are those of (H^T L H)[m:, m:] (no basis: of L, or of L + nugget I
    after ``shifted(nugget)``).  ``eigvecs`` is one orthogonal n x n basis
    W = H diag(I_m, E), E the eigenvectors of that restriction: its first m
    columns are ``Q`` (Q R = V) and its last n - m, ``modes``, the
    eigenvectors lifted back to R^n, orthogonal to V; both are views of W.
    For a GP (m = 0) W is the kernel matrix's eigenvectors.  Every solve,
    smoother and trace at noise sigma2 filters the modes by
    ``gain lam / (gain lam + sigma2)`` and passes Q with filter 1, so the
    smoother is W diag(1_m, filter) W^T.  A solve reads L only through
    ``LQ = L Q``, the kernel's coupling to the basis (None without a basis),
    so W is the one n x n array kept.  ``scaled(g)`` multiplies the gain and
    shares every array, so a model is factored once whatever its gains.
    Every factorization records what it factored, ``model`` (at unit gain)
    and ``design``, which ``fit`` and the queries read.

    The eigenpairs come by one route per kind of matrix: ``from_kernels``
    (the GP spectra of kernels sharing a design, m = 0, one stacked
    eigensolver call) for a kernel matrix, and ``factorize`` for its
    restriction to the complement of a basis of m >= 1 columns.
    ``factorize_model`` takes a model with a basis by the second and one
    without by the first.  The constructor fixes what a singular
    ``gain L + sigma2 I`` means: ``factorize_model`` solves by the
    pseudo-inverse, while ``from_kernels`` and its one-kernel case
    ``from_kernel`` raise IllConditioned.  A negative or NaN sigma2 raises
    ValueError either way.  ``vectors=False`` keeps the eigenvalues alone
    (``eigvecs``, ``Q`` and ``modes`` are None): traces only.
    """

    evals: np.ndarray
    eigvecs: np.ndarray  # W = [Q | modes], n x n; None for eigenvalues alone
    gain: float
    pseudo_inverse: bool
    R: np.ndarray
    LQ: np.ndarray  # L Q, the kernel's coupling to the basis; None without one
    model: SemiParametricModel  # the factored model at unit gain
    design: object

    @classmethod
    def from_kernels(cls, kernels, X, *, vectors: bool = True) -> list:
        """The GP spectra of ``kernels`` on one design, from one stacked
        eigensolver call: for each kernel, no basis, its unit-gain kernel
        matrix, and gain ``kernel.gamma``; each records the kernel's
        empty-basis model at unit gain.  A nugget is ``shifted`` on a
        spectrum, after the solve.

        Each spectrum is bitwise the one ``from_kernel`` gives that kernel
        alone: numpy solves a stack matrix by matrix.  A stack is one call, so
        it counts as one problem against numpy's threshold for releasing the
        GIL; ``pool.map_spectra``, which factors the eps grids of the
        isofreedom curve, the convergence study, dof-grid and criteria-grid,
        builds its tasks from such stacks.  ``vectors=False`` computes the
        eigenvalues alone (``eigvalsh``): such a spectrum gives ``dof``,
        ``dofs`` and ``scaled`` and feeds ``solve_trace``, while ``smoother``,
        ``smoothers``, ``solve`` and ``nlml`` raise ValueError.
        """
        design = as_design(X)
        units = [k.with_params(gamma=1.0) for k in kernels]
        mats = [kernel_matrix(unit, design) for unit in units]
        # one kernel is solved as a plain (n, n) matrix, not a stack of one;
        # a stack is a copy, so its parts are freed before the solve
        K = mats[0] if len(mats) == 1 else np.stack(mats)
        del mats
        evals, evecs = _eigensystems(K, vectors)
        evals = evals.reshape(len(kernels), design.n)
        if evecs is not None:
            evecs = evecs.reshape(len(kernels), design.n, design.n)
        R = np.zeros((0, 0))
        return [
            cls(evals=evals[i], eigvecs=None if evecs is None else evecs[i],
                gain=k.gamma, pseudo_inverse=False, R=R, LQ=None,
                model=SemiParametricModel(units[i], design.d), design=design)
            for i, k in enumerate(kernels)
        ]

    @classmethod
    def from_kernel(cls, kernel: Kernel, X, *, vectors: bool = True) -> "SaddleFactorization":
        """The GP spectrum of one kernel: ``from_kernels([kernel], ...)``."""
        return cls.from_kernels([kernel], X, vectors=vectors)[0]

    @property
    def m(self) -> int:
        return self.R.shape[0]

    @property
    def Q(self):  # W's first m columns, an orthonormal basis of span(V)
        return None if self.eigvecs is None else self.eigvecs[:, : self.m]

    @property
    def modes(self):  # W's last n - m columns, the eigenvectors on the complement
        return None if self.eigvecs is None else self.eigvecs[:, self.m :]

    def scaled(self, factor: float) -> "SaddleFactorization":
        """The same factorization at gain ``gain * factor``; no array is copied."""
        return replace(self, gain=self.gain * factor)

    def shifted(self, nugget: float) -> "SaddleFactorization":
        """The spectrum of the unit-gain kernel matrix plus ``nugget`` I: the
        eigenvalues plus ``nugget``, the eigenvectors shared (``shifted(0)``
        is this spectrum itself).  A negative or NaN nugget raises ValueError,
        and so does a basis (m >= 1), whose ``LQ`` would need the same shift."""
        check_nugget(nugget)
        if self.m:
            raise ValueError("a nugget shifts a GP spectrum; a model with a basis takes none")
        return replace(self, evals=self.evals + nugget) if nugget else self

    def _require_vectors(self):
        if self.eigvecs is None:
            raise ValueError(
                "this spectrum has no eigenvectors (from_kernel(..., vectors=False)); "
                "it gives traces only"
            )

    def filter_terms(self, sigma2, gains=(1.0,)):
        """The filter terms of ``scaled(g)`` for each gain factor g of ``gains``,
        gain-major, one row per g (no ``gains``: the grid of one, g = 1, whose
        row is bitwise this gain's, since gain * 1.0 is the gain): scaled
        eigenvalues lam (G, r), solve denominators lam + sigma2, and per row
        None or the IllConditioned that ``scaled(g)`` raises.  Row g's filter
        is lam / (lam + sigma2) and its solve divides the modes' coefficients
        by the denominators, so one spectrum and one vector of gains give every
        smoother, trace and prediction of a gain grid.  At sigma2 = 0 the
        pseudo-inverse drops the modes with |lam| <= ``_PINV_TOL`` |lam|_max,
        and the GP spectrum raises from n u lam_max down.  Dropped modes and
        the rows that raise have infinite denominators, so their filter reads 0
        without a warning."""
        check_sigma2(sigma2)
        factors = self.gain * np.asarray(gains, dtype=float)
        # each row is bitwise scaled(g)'s: its gain is the product gain * g
        lam = np.multiply.outer(factors, self.evals)
        factors = factors.tolist()
        denom = lam + sigma2
        errors = [None] * len(lam)
        if self.pseudo_inverse:
            if sigma2 == 0:
                top = np.abs(lam).max(axis=1, initial=0.0, keepdims=True)
                denom[np.abs(lam) <= _PINV_TOL * top] = np.inf
            return lam, denom, errors
        # rounding is monotone, so a row's extremes are its gain times those of
        # the eigenvalues, bitwise: no row is reduced
        lo = float(self.evals.min())
        hi = 0.0 if sigma2 else float(self.evals.max())
        for i, c in enumerate(factors):
            low, high = (c * lo, c * hi) if c >= 0 else (c * hi, c * lo)
            smallest = low + sigma2
            floor = 0.0 if sigma2 else lam.shape[1] * _EPS * high
            if smallest <= floor:
                errors[i] = IllConditioned(
                    f"K + sigma2 I is singular: its smallest eigenvalue {smallest:.3e} is at or "
                    f"below {floor:.3e}" + ("" if sigma2 else ", n u lam_max at sigma2 = 0"),
                    smallest_eigenvalue=smallest,
                )
                denom[i] = np.inf
        return lam, denom, errors

    def _filter_terms(self, sigma2):
        """Scaled eigenvalues lam and solve denominators lam + sigma2 at this
        gain: the one row of ``filter_terms``, whose error it raises."""
        lam, denom, (error,) = self.filter_terms(sigma2)
        if error is not None:
            raise error
        return lam[0], denom[0]

    def dofs(self, sigma2, gains=(1.0,)):
        """The traces m + sum lam / (lam + sigma2) of ``scaled(g)`` for each g
        of ``gains`` (nan where a row raises) and ``filter_terms``' errors.
        Each is the row sum of the smoother's filters [1_m, lam / denom], so
        it is bitwise ``scaled(g).dof(sigma2)`` and the smoother's trace."""
        lam, denom, errors = self.filter_terms(sigma2, gains)
        traces = self._filters(lam, denom).sum(axis=1)
        traces[[error is not None for error in errors]] = np.nan
        return traces, errors

    def dof(self, sigma2=0.0) -> float:
        """Trace of the smoother: m + sum lam / (lam + sigma2); ``dofs`` at
        this gain alone."""
        (trace,), (error,) = self.dofs(sigma2)
        if error is not None:
            raise error
        return float(trace)

    def _filters(self, lam, denom):
        """W's filters [1_m, lam / denom] along the last axis: Q passes unfiltered."""
        return np.concatenate([np.ones(lam.shape[:-1] + (self.m,)), lam / denom], axis=-1)

    def smoothers(self, sigma2, gains):
        """The smoothers of ``scaled(g)`` for each g of ``gains``, as one
        ``SmootherStack`` over W, and ``filter_terms``' errors."""
        self._require_vectors()
        lam, denom, errors = self.filter_terms(sigma2, gains)
        return SmootherStack(self.eigvecs, self._filters(lam, denom)), errors

    def smoother(self, sigma2=0.0) -> SmootherMatrix:
        """M = W diag(1_m, lam / (lam + sigma2)) W^T, kept as W and its
        filter, so its trace, diagonal and fitted values cost O(n^2) and the
        n x n matrix is formed only where ``.matrix`` is read."""
        self._require_vectors()
        lam, denom = self._filter_terms(sigma2)
        return SmootherMatrix(self.eigvecs, self._filters(lam, denom))

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
        # m = 0 apart: an n x 0 LQ makes g - 0 a C-order copy, which BLAS sums in another order
        if not self.m:
            return self.modes @ ((self.modes.T @ g) / denom), np.zeros((0,) + g.shape[1:])
        # Q^T a = t = R^-T h fixes a in span(V); the modes, orthogonal to V,
        # solve the complement; the rows along Q then give b
        t = np.zeros((self.m,) + g.shape[1:]) if h is None else np.linalg.solve(self.R.T, h)
        rhs = self.modes.T @ (g - self.gain * (self.LQ @ t))
        a = self.Q @ t + self.modes @ (rhs / denom)
        return a, np.linalg.solve(self.R, self.Q.T @ g - self.gain * (self.LQ.T @ a) - sigma2 * t)

    def _queried(self, query_points):
        """The queries, their cross kernel Lq (gain times the unit-gain one)
        and basis rows Vq, in the design's frame."""
        Xq = as_design(query_points)
        Lq = self.gain * kernel_cross(self.model.kernel, Xq, self.design)
        return Xq, Lq, self.model.basis_matrix(Xq, self.design)

    def fit(self, y, sigma2: float) -> "SpmFit":
        """The factored model at this gain fitted to ``y``, (n,) or (n, k) for
        k data vectors at once, by one solve."""
        y = np.asarray(y, dtype=float)
        if y.ndim not in (1, 2) or y.shape[0] != self.design.n:
            raise ValueError("y must have one entry (or row) per design point")
        alpha, beta = self.solve(sigma2, y)
        return SpmFit(self, float(sigma2), alpha, beta)

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


def factorize(L: np.ndarray, V: np.ndarray):
    """The restriction of kernel matrix ``L`` (taken as unit gain) to the
    complement of the span of basis matrix ``V`` (m >= 1 columns): the
    arrays ``evals``, ``eigvecs`` (W), ``R`` and ``LQ`` of its
    ``SaddleFactorization``, which ``factorize_model`` builds."""
    n, m = V.shape
    Q, R, Y, T = _basis_factors(V)
    LQ = L @ Q
    if not L.any():
        # a zero kernel restricts to zero: eigenvalues 0 and eigenvectors the
        # identity, so no eigensolver runs
        evals, evecs = np.zeros(n - m), np.eye(n - m)
    else:
        # (H^T L H)[m:, m:], one side at a time: rows m: of H^T L, then
        # columns m: of that times H, in O(n^2 m)
        B = L[m:] - Y[m:] @ (T.T @ (Y.T @ L))
        A = B[:, m:] - (B @ Y) @ (T @ Y[m:].T)
        del B
        evals, evecs = _eigensystems(0.5 * (A + A.T), vectors=True)
    # W = H diag(I_m, E), in place: Q, then the eigenvectors lifted to R^n,
    # H [0; E]
    W = np.empty((n, n))
    W[:, :m] = Q
    np.matmul(Y, -(T @ (Y[m:].T @ evecs)), out=W[:, m:])
    W[m:, m:] += evecs
    return evals, W, R, LQ


def factorize_model(model: SemiParametricModel, X) -> SaddleFactorization:
    """The saddle-point factorization of ``model`` on the design ``X``: its
    kernel matrix at unit gain, with the gain carried as a scalar, solved by
    the pseudo-inverse.  It records ``model`` at unit gain and the design.
    A model without a basis is a GP: its factorization is ``from_kernel``'s
    spectrum with the pseudo-inverse rule, the model's gain and the model."""
    design = as_design(X)
    unit = model.kernel.with_params(gamma=1.0)
    gain, model = float(model.kernel.gamma), replace(model, kernel=unit)
    V = model.basis_matrix(design)
    if not V.shape[1]:
        gp = SaddleFactorization.from_kernel(unit, design)
        return replace(gp, gain=gain, pseudo_inverse=True, model=model)
    evals, W, R, LQ = factorize(kernel_matrix(unit, design), V)
    return SaddleFactorization(evals, W, gain, True, R, LQ, model, design)


# ---------------------------------------------------------------------------
# fitting and prediction


@dataclass(frozen=True)
class SpmFit:
    """An SPM fitted to data by ``SaddleFactorization.fit``; the kernel,
    basis, design and gain are the factorization's.

    The data were one vector (n,) or k of them as columns (n, k); the
    coefficients and predictive means carry the same trailing axis, while the
    predictive variance, which does not depend on the data, is one vector.
    """

    factorization: SaddleFactorization
    sigma2: float
    alpha: np.ndarray
    beta: np.ndarray

    def _mean(self, Lq, Vq) -> np.ndarray:
        return Lq @ self.alpha + Vq @ self.beta

    def predict(self, query_points) -> np.ndarray:
        _, Lq, Vq = self.factorization._queried(query_points)
        return self._mean(Lq, Vq)

    def _solved(self, query_points):
        """Means, unclamped variances (prior - Lq a - Vq b) and the solves a
        of the queries' bordered systems, from one cross kernel Lq and one
        solve.  A variance below round-off raises NegativeVariance."""
        fac = self.factorization
        Xq, Lq, Vq = fac._queried(query_points)
        prior = fac.gain * kernel_diag(fac.model.kernel, Xq)
        a, b = fac.solve(self.sigma2, Lq.T, Vq.T)
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
        """``posterior`` at one point x*, with the bordered terms (w, c) of the
        smoother on the design augmented with x*, from the same solve: w is
        the solve a, and c = sigma2 / s with s = (unclamped variance) + sigma2.

        Since M = I - sigma2 H, with H the top-left block of the inverse
        saddle matrix, the Schur complement of x* in the bordered system
        makes the augmented smoother

            M+ = [[M - c w w^T,  c w  ],
                  [c w^T,        1 - c]]

        which is that of the augmented design's factorization, with nothing
        factored.  A sigma2 <= 0 raises ValueError."""
        if not self.sigma2 > 0:
            raise ValueError(f"augmented smoothers need sigma2 > 0, got sigma2={self.sigma2}")
        mean, var, a = self._solved(x_new)
        c = self.sigma2 / (float(var[0]) + self.sigma2)
        return mean, np.maximum(var, 0.0), a[:, 0], c


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
