"""Dense references for the spectral core, sharing none of its code paths.

Each reference states one object of the package by its textbook formula and
computes it with numpy (and scipy's ``brentq``) on matrices it builds itself.
Kernels and bases are evaluated through ``kernel_matrix`` and a model's
``basis_matrix``; nothing here reaches ``SaddleFactorization``,
``factorize_model``, ``spm.factorize``, ``solve_trace``, ``graded_basis``,
``full_rank_blocks`` or ``framed_monomials``, so a test that compares the
package with a reference compares two computations, not one with itself.

- ``laurent_b0``: the leading Laurent coefficient of
  (V V^T + eps (L + sigma2 I))^-1, P (P (L + sigma2 I) P)^+ P with P the
  projector onto the complement of span(V).  The package's is its solve
  against the identity, ``fac.solve(sigma2, np.eye(n))[0]``.
- ``augmented_smoother``: the smoother on X plus one point x*, I - sigma2 H
  with H the top-left block of the inverse of the dense bordered system on
  the augmented design.  The package's is ``SpmFit.bordered``'s update.
- ``isofreedom_gain``: the gain whose smoother has trace m, by a scalar root
  find in log g on ``eigvalsh`` eigenvalues.  The package's is
  ``solve_trace``'s Newton iteration.
- ``vandermonde``: raw degree blocks and their blocked Gram-Schmidt basis,
  with its own monomial evaluation, frame and SVD rank cut: the independent
  rank rule that ``graded_basis`` is compared against.

``TOL`` bounds the largest entrywise deviation of a B0 or an augmented
smoother from its reference, and the relative deviation of a gain.  On
random designs for the tests' models (20 to 40 per model, 3000 for the
augmented smoothers, some with a query 1e-9 from a design point) the package
deviated by at most 4e-13 (B0), 7e-13 (augmented smoothers) and 3e-12
(gains), while moving a model's gain, sigma2 or a target dof by a factor
1 + 1e-3 moved them by at least 2e-4, 4e-8 and 1e-3: the bound sits far
from both.  Two gains differ by the eigensolvers' rounding of the
eigenvalues, so they are compared on spectra resolved well above round-off.
"""

import numpy as np
from scipy.optimize import brentq

from flatgp.dataio import format_float, write_csv
from flatgp.kernels import kernel_matrix
from flatgp.polybasis import Design, enumerate_monomials

TOL = 1e-10
#: relative singular-value cut of the blocked Gram-Schmidt rank rule
RANK_TOL = 1e-10


def project_out_basis(L, Q):
    """(I - Q Q^T) L (I - Q Q^T), symmetrized, for orthonormal columns Q."""
    P = np.eye(L.shape[0]) - Q @ Q.T
    out = P @ L @ P
    return 0.5 * (out + out.T)


def laurent_b0(model, X, sigma2):
    """B0 = P (P (L + sigma2 I) P)^+ P, L the model's kernel matrix at its
    gain and P = I - Q Q^T with Q from ``np.linalg.qr`` of its basis matrix V
    on ``X``: eps (V V^T + eps (L + sigma2 I))^-1 tends to B0 as eps -> 0."""
    L, V = kernel_matrix(model.kernel, X), model.basis_matrix(X)
    Q = np.linalg.qr(V)[0]
    P = np.eye(len(L)) - Q @ Q.T
    B0 = P @ np.linalg.pinv(project_out_basis(L + sigma2 * np.eye(len(L)), Q)) @ P
    return 0.5 * (B0 + B0.T)


def augmented_smoother(model, X, x_new, sigma2):
    """The (n+1) x (n+1) smoother of ``model`` on the points ``X`` followed by
    the one point ``x_new``: I - sigma2 H, H the top-left block of the inverse
    of [[L + sigma2 I, V], [V^T, 0]] on that design, by one dense solve."""
    X = Design(X).points
    X = np.vstack([X, np.reshape(x_new, (1, X.shape[1]))])
    L, V = kernel_matrix(model.kernel, X), model.basis_matrix(X)
    n, m = V.shape
    S = np.block([[L + sigma2 * np.eye(n), V], [V.T, np.zeros((m, m))]])
    H = np.linalg.solve(S, np.vstack([np.eye(n), np.zeros((m, n))]))[:n]
    M = np.eye(n) - sigma2 * H
    return 0.5 * (M + M.T)


def isofreedom_gain(kernel, X, sigma2, m):
    """The gain g at which the GP smoother of ``kernel`` (its epsilon, the
    gain replaced) on ``X`` has trace ``m``: the root in log g of
    sum g lam / (g lam + sigma2) - m over the positive eigenvalues lam of the
    unit-gain kernel matrix, bracketed in [1e-30, 1e30]."""
    lam = np.linalg.eigvalsh(kernel_matrix(kernel.with_params(gamma=1.0), X))
    lam = lam[lam > 0]

    def excess(t):
        gl = np.exp(t) * lam
        return float(np.sum(gl / (gl + sigma2))) - m

    return float(np.exp(brentq(excess, np.log(1e-30), np.log(1e30), xtol=1e-14)))


class VandermondeBlocks:
    """Degree blocks V_0..V_k of raw monomials at a design and a blocked
    Gram-Schmidt basis of them, computed on the design's own frame (each
    coordinate centred on the middle of its range and divided by half its
    width), which changes no degree-prefix span.  A block's rank is the
    number of singular values of its residual against the lower blocks above
    ``RANK_TOL`` times the largest."""

    def __init__(self, X, k):
        pts = Design(X).points
        n, d = pts.shape
        lo, hi = pts.min(axis=0), pts.max(axis=0)
        framed = (pts - 0.5 * (lo + hi)) / np.where(hi > lo, 0.5 * (hi - lo), 1.0)
        self.blocks, self.orthonormal_blocks, ranks = [], [], []
        q_all = np.zeros((n, 0))
        for deg in range(k + 1):
            E = np.array([e for e in enumerate_monomials(deg, d) if sum(e) == deg])
            self.blocks.append(np.prod(pts[:, None, :] ** E[None], axis=2))
            B = np.prod(framed[:, None, :] ** E[None], axis=2)
            resid = B - q_all @ (q_all.T @ B)
            resid = resid - q_all @ (q_all.T @ resid)
            U, s, _ = np.linalg.svd(resid, full_matrices=False)
            r = min(int(np.sum(s > RANK_TOL * max(s[0], 1e-300))), n - q_all.shape[1])
            self.orthonormal_blocks.append(U[:, :r])
            ranks.append(r)
            q_all = np.hstack([q_all, U[:, :r]])
        self.block_ranks = tuple(ranks)

    @property
    def assembled(self):
        return np.hstack(self.blocks)

    def q_prefix(self, j):
        """Orthonormal columns spanning the polynomials of degree <= ``j``."""
        return np.hstack([np.zeros((len(self.blocks[0]), 0))] + self.orthonormal_blocks[: j + 1])

    def q_block(self, j):
        """Orthonormal columns of the degree-``j`` increment."""
        return self.orthonormal_blocks[j]


def vandermonde(X, k):
    """The degree blocks of ``X`` up to degree ``k`` (``VandermondeBlocks``)."""
    return VandermondeBlocks(X, k)


def write_dataset(path, dataset):
    """Write ``dataset`` as a headed CSV (features, then the target) that
    ``parse_dataset`` reads back bit-exactly."""
    header = list(dataset.feature_names) + [dataset.target_name]
    table = np.column_stack([dataset.X.points, dataset.y])
    rows = [[format_float(v) for v in row] for row in table]
    write_csv(path, header, rows)
