import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from flatgp import (
    Family,
    GpSpectrum,
    Kernel,
    SemiParametricModel,
    cpd_check,
    fit_spm,
    kernel_cross,
    kernel_diag,
    kernel_matrix,
    laurent_b0,
    polyharmonic_spm,
    project_out_basis,
    smoothing_spline_fit,
    spline_dof,
)
from flatgp.errors import (
    DegenerateDesign,
    IllConditioned,
    NegativeVariance,
    NotUnisolvent,
    UnreachableDof,
)
import flatgp.spm as spm_module
from flatgp.flatlimit import absorbed_kernel_model
from flatgp.smoothers import difference
from flatgp.spm import (
    augmented_smoother,
    factorize_model,
    fit_factored,
    solve_trace,
)


def saddle_matrix(L, V, sigma2):
    """The bordered system [[L + sigma2 I, V], [V^T, 0]]."""
    n, m = L.shape[0], V.shape[1]
    S = np.zeros((n + m, n + m))
    S[:n, :n] = L + sigma2 * np.eye(n)
    S[:n, n:] = V
    S[n:, :n] = V.T
    return S


def dense_saddle_solve(L, V, sigma2, y, h=None):
    """Independent oracle: assemble and invert the full bordered system with
    right-hand side (y; h), h zero by default; y and h may hold k columns."""
    n, m = V.shape
    h = np.zeros((m,) + np.shape(y)[1:]) if h is None else h
    sol = np.linalg.solve(saddle_matrix(L, V, sigma2), np.concatenate([y, h]))
    return sol[:n], sol[n:]


def linear_spline_model():
    return polyharmonic_spm(1, 1)


class TestProjectOutBasis:
    def test_two_point_example(self):
        L = np.array([[0.0, -1.0], [-1.0, 0.0]])
        Q = np.array([[1.0], [1.0]]) / np.sqrt(2)
        np.testing.assert_allclose(
            project_out_basis(L, Q), [[0.5, -0.5], [-0.5, 0.5]], atol=1e-15
        )

    def test_already_orthogonal_unchanged(self, rng):
        n = 6
        Q, _ = np.linalg.qr(rng.normal(size=(n, 2)))
        C = np.eye(n) - Q @ Q.T
        L = C @ rng.normal(size=(n, n)) @ C
        L = 0.5 * (L + L.T)
        np.testing.assert_allclose(project_out_basis(L, Q), L, atol=1e-12)

    def test_result_orthogonal_to_basis(self, rng):
        n = 8
        L = rng.normal(size=(n, n))
        L = 0.5 * (L + L.T)
        Q, _ = np.linalg.qr(rng.normal(size=(n, 3)))
        Lt = project_out_basis(L, Q)
        assert np.abs(Q.T @ Lt).max() <= 1e-10 * np.abs(L).max()


class TestCpdCheck:
    def test_negative_distance_with_constant_basis(self, rng):
        X = np.sort(rng.uniform(-1, 1, 7))
        assert cpd_check(linear_spline_model(), X)

    def test_negative_distance_without_basis_fails(self):
        model = SemiParametricModel(Kernel.polyharmonic(1), d=1, basis_degree=-1)
        assert not cpd_check(model, np.array([0.0, 1.0]))

    def test_tolerance_reads_the_scaled_eigenvalues(self):
        # below unit scale the tolerance is absolute, so a tiny gain passes
        model = SemiParametricModel(Kernel.polyharmonic(1), d=1, basis_degree=-1)
        X = np.array([0.0, 1.0])
        assert cpd_check(model.scaled(1e-12), X)
        assert not cpd_check(model.scaled(1e3), X)

    def test_positive_definite_kernel_empty_basis(self, rng):
        model = SemiParametricModel(Kernel.gaussian(), d=1, basis_degree=-1)
        assert cpd_check(model, rng.uniform(0, 1, 5))

    def test_non_unisolvent_design_raises(self, rng):
        t = rng.uniform(0, 1, 8)
        X = np.column_stack([t, t])
        model = SemiParametricModel(Kernel.polyharmonic(2), d=2, basis_degree=2)
        with pytest.raises(NotUnisolvent):
            cpd_check(model, X)

    @pytest.mark.parametrize("r", [1, 2, 3])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_polyharmonic_is_cpd_on_random_designs(self, r, d):
        rng = np.random.default_rng(10 * r + d)
        X = rng.uniform(0, 1, size=(14, d))
        assert cpd_check(polyharmonic_spm(r, d), X, tol=1e-9)


class TestPosteriorMean:
    def test_noiseless_fit_interpolates(self, rng):
        X = np.sort(rng.uniform(0, 1, 8))
        y = rng.normal(size=8)
        mean = fit_spm(linear_spline_model(), X, y, 0.0).predict(X)
        np.testing.assert_allclose(mean, y, atol=1e-9)

    def test_zero_kernel_is_least_squares(self, rng):
        X = rng.uniform(0, 1, size=(12, 2))
        y = rng.normal(size=12)
        model = SemiParametricModel(Kernel.zero(), d=2, basis_degree=2)
        mean = fit_spm(model, X, y, 0.3).predict(X)
        V = model.basis_matrix(X)
        coef, *_ = np.linalg.lstsq(V, y, rcond=None)
        np.testing.assert_allclose(mean, V @ coef, atol=1e-8)

    def test_matches_dense_saddle_solve(self, rng):
        X = np.sort(rng.uniform(0, 1, 9))
        y = rng.normal(size=9)
        sigma2 = 0.2
        fit = fit_spm(linear_spline_model(), X, y, sigma2)
        L = kernel_matrix(Kernel.polyharmonic(1), X)
        a, b = dense_saddle_solve(L, np.ones((9, 1)), sigma2, y)
        np.testing.assert_allclose(fit.alpha, a, atol=1e-9)
        np.testing.assert_allclose(fit.beta, b, atol=1e-9)

    def test_orthogonality_constraint(self, rng):
        X = np.sort(rng.uniform(0, 1, 10))
        y = rng.normal(size=10)
        fit = fit_spm(polyharmonic_spm(2, 1), X, y, 0.05)
        V = fit.model.basis_matrix(X)
        assert np.abs(V.T @ fit.alpha).max() <= 1e-8 * np.linalg.norm(fit.alpha)


class TestPosteriorVar:
    def test_zero_at_design_when_noiseless(self, rng):
        X = np.sort(rng.uniform(0, 1, 7))
        var = fit_spm(linear_spline_model(), X, np.zeros(len(X)), 0.0).posterior(X)[1]
        np.testing.assert_allclose(var, 0.0, atol=1e-9)

    def test_parametric_variance_formula(self, rng):
        X = rng.uniform(0, 1, size=(10, 1))
        sigma2 = 0.4
        model = SemiParametricModel(Kernel.zero(), d=1, basis_degree=2)
        xq = np.linspace(0, 1, 9)[:, None]
        var = fit_spm(model, X, np.zeros(len(X)), sigma2).posterior(xq)[1]
        V = model.basis_matrix(X)
        Vq = model.basis_matrix(xq)
        expect = sigma2 * np.einsum(
            "ij,ji->i", Vq, np.linalg.solve(V.T @ V, Vq.T)
        )
        np.testing.assert_allclose(var, expect, atol=1e-10)

    def test_improper_prior_limit_oracle(self, rng):
        # k_eps = l + eps^{-1} sum_v v v^T reproduces the SPM at small eps
        X = np.sort(rng.uniform(0, 1, 8))
        y = rng.normal(size=8)
        sigma2 = 0.3
        model = linear_spline_model()
        xq = np.linspace(0.1, 0.9, 5)[:, None]
        mean, var = fit_spm(model, X, y, sigma2).posterior(xq)
        eps = 1e-6
        bump = Kernel.monomial_block([(0,)], [[1.0 / eps]])
        kern = Kernel.sum_of(Kernel.polyharmonic(1), bump)
        K = kernel_matrix(kern, X)
        kq = kernel_cross(kern, xq, X)
        sol = np.linalg.solve(K + sigma2 * np.eye(8), y)
        np.testing.assert_allclose(kq @ sol, mean, atol=1e-4)
        quad = np.einsum(
            "ij,ji->i", kq, np.linalg.solve(K + sigma2 * np.eye(8), kq.T)
        )
        var_eps = kernel_diag(kern, xq) - quad
        np.testing.assert_allclose(var_eps, var, atol=1e-4)


class TestSmoother:
    def test_zero_kernel_trace_counts_basis(self, rng):
        X = rng.uniform(0, 1, size=(11, 2))
        model = SemiParametricModel(Kernel.zero(), d=2, basis_degree=1)
        M = factorize_model(model, X).smoother(0.7)
        assert M.trace == pytest.approx(3.0, abs=1e-10)

    def test_vanishing_noise_reaches_full_dof(self, rng):
        X = np.sort(rng.uniform(0, 1, 9))
        M = factorize_model(linear_spline_model(), X).smoother(1e-12)
        assert M.trace == pytest.approx(9.0, abs=1e-6)

    def test_rows_reproduce_design_predictions(self, rng):
        X = np.sort(rng.uniform(0, 1, 8))
        y = rng.normal(size=8)
        sigma2 = 0.15
        model = polyharmonic_spm(2, 1)
        M = factorize_model(model, X).smoother(sigma2)
        mean = fit_spm(model, X, y, sigma2).predict(X)
        np.testing.assert_allclose(M.fitted(y), mean, atol=1e-8)

    def test_eigenvalues_in_unit_interval(self, rng):
        X = rng.uniform(0, 1, size=(10, 2))
        M = factorize_model(polyharmonic_spm(2, 2), X).smoother(0.3)
        w = M.eigenvalues
        assert w.min() >= -1e-9 and w.max() <= 1 + 1e-9
        assert M.trace == pytest.approx(w.sum(), abs=1e-8)

    def test_trace_matches_spline_dof_formula(self, rng):
        X = np.sort(rng.uniform(0, 1, 12))
        eta = 0.05
        M = factorize_model(polyharmonic_spm(2, 1), X).smoother(eta)
        assert M.trace == pytest.approx(spline_dof(X, 2, eta), abs=1e-8)


class TestLaurentB0:
    def test_annihilates_basis(self, rng):
        n = 9
        X = np.sort(rng.uniform(0, 1, n))
        L = kernel_matrix(Kernel.polyharmonic(1), X)
        V = np.ones((n, 1))
        B0 = laurent_b0(L, V, 0.4)
        assert np.abs(V.T @ B0).max() <= 1e-10 * np.abs(B0).max()

    def test_finite_eps_inverse_converges_linearly(self, rng):
        n = 8
        X = np.sort(rng.uniform(0, 1, n))
        L = kernel_matrix(Kernel.polyharmonic(1), X)
        V = np.ones((n, 1))
        sigma2 = 0.3
        B0 = laurent_b0(L, V, sigma2)
        errs = []
        for eps in (1e-2, 1e-3, 1e-4):
            inv = np.linalg.inv(V @ V.T + eps * (L + sigma2 * np.eye(n)))
            errs.append(np.abs(eps * inv - B0).max())
        ratios = [errs[i] / errs[i + 1] for i in range(2)]
        assert all(5 <= r <= 20 for r in ratios), ratios

    def test_zero_kernel_ones_basis_hand_case(self):
        n = 5
        B0 = laurent_b0(np.zeros((n, n)), np.ones((n, 1)), 1.0)
        np.testing.assert_allclose(B0, np.eye(n) - np.ones((n, n)) / n, atol=1e-12)

    def test_rank_deficient_basis_raises(self, rng):
        V = np.ones((6, 2))  # duplicated column
        with pytest.raises(NotUnisolvent):
            laurent_b0(np.eye(6), V, 0.1)


class TestSmoothingSpline:
    def test_zero_penalty_interpolates(self, rng):
        x = np.sort(rng.uniform(0, 1, 8))
        y = rng.normal(size=8)
        fit = smoothing_spline_fit(x, y, 2, 0.0)
        np.testing.assert_allclose(fit.predict(x), y, atol=1e-8)

    def test_huge_penalty_recovers_polynomial_regression(self, rng):
        x = np.sort(rng.uniform(0, 1, 10))
        y = rng.normal(size=10)
        fit = smoothing_spline_fit(x, y, 2, 1e8)
        V = np.column_stack([np.ones(10), x])
        coef, *_ = np.linalg.lstsq(V, y, rcond=None)
        assert np.abs(fit.predict(x) - V @ coef).max() <= 1e-3 * np.linalg.norm(y)

    def test_coefficient_constraint(self, rng):
        x = np.sort(rng.uniform(0, 1, 9))
        y = rng.normal(size=9)
        fit = smoothing_spline_fit(x, y, 3, 0.01)
        V = fit.model.basis_matrix(x[:, None])
        assert np.abs(V.T @ fit.alpha).max() <= 1e-8 * np.linalg.norm(fit.alpha)

    def test_duplicate_points_rejected(self):
        # sorted, unsorted, and -0.0 against 0.0
        for x in ([0.0, 0.5, 0.5, 1.0], [0.5, 0.0, 1.0, 0.5], [-0.0, 0.5, 0.0, 1.0]):
            with pytest.raises(DegenerateDesign):
                smoothing_spline_fit(np.array(x), np.zeros(4), 1, 0.1)

    def test_needs_more_points_than_order(self):
        with pytest.raises(DegenerateDesign):
            smoothing_spline_fit(np.array([0.0, 1.0]), np.zeros(2), 2, 0.1)


class TestPolyharmonicConstructor:
    def test_linear_case(self):
        model = polyharmonic_spm(1, 1)
        assert model.kernel.family is Family.POLYHARMONIC
        assert model.kernel.order == 1 and model.basis_degree == 0
        K = kernel_matrix(model.kernel, np.array([0.0, 2.0]))
        assert K[0, 1] == pytest.approx(-2.0)

    def test_cubic_case_sign(self):
        model = polyharmonic_spm(2, 1)
        K = kernel_matrix(model.kernel, np.array([0.0, 2.0]))
        assert K[0, 1] == pytest.approx(8.0)  # (-1)^2 |x-y|^3
        assert model.basis_degree == 1


def random_model(degree, d, zero_kernel):
    """Zero kernel, or one positive-definite on the complement of the basis."""
    if zero_kernel:
        kernel = Kernel.zero()
    elif degree >= 0:
        kernel = Kernel.polyharmonic(degree + 1)
    else:
        kernel = Kernel.gaussian(epsilon=3.0)
    return SemiParametricModel(kernel, d=d, basis_degree=degree)


design_cases = given(
    seed=st.integers(0, 2**32 - 1),
    d=st.sampled_from([1, 2]),
    degree=st.integers(-1, 2),
    zero_kernel=st.booleans(),
    extra=st.integers(1, 12),
)


def random_factorization(seed, d, degree, zero_kernel, extra):
    model = random_model(degree, d, zero_kernel)
    rng = np.random.default_rng(seed)
    X = rng.uniform(0, 1, size=(model.basis_size() + extra, d))
    try:
        return model, X, factorize_model(model, X)
    except NotUnisolvent:
        assume(False)


def assert_modes_span_complement(fac, V):
    """The n - m modes are orthonormal and orthogonal to the basis matrix V."""
    n, m = V.shape
    assert fac.modes.shape == (n, n - m)
    np.testing.assert_allclose(fac.modes.T @ fac.modes, np.eye(n - m), rtol=0, atol=1e-12)
    assert np.abs(V.T @ fac.modes).max(initial=0.0) <= 1e-12


class TestFactorization:
    @design_cases
    @settings(max_examples=60, deadline=None)
    def test_complement_orthonormal_and_orthogonal_to_basis(self, seed, d, degree, zero_kernel, extra):
        model, X, fac = random_factorization(seed, d, degree, zero_kernel, extra)
        assert_modes_span_complement(fac, model.basis_matrix(X))

    @design_cases
    @settings(max_examples=60, deadline=None)
    def test_reused_fits_match_dense_saddle_solve(self, seed, d, degree, zero_kernel, extra):
        model, X, fac = random_factorization(seed, d, degree, zero_kernel, extra)
        # two orders above what its basis annihilates the kernel is indefinite
        # on the complement
        indefinite = SemiParametricModel(Kernel.polyharmonic(degree + 3), d=d, basis_degree=degree)
        V = model.basis_matrix(X)
        rng = np.random.default_rng(seed + 1)
        y = rng.normal(size=len(X))
        # k = 3 right-hand sides (g; h) with a nonzero h
        G, H = rng.normal(size=(len(X), 3)), rng.normal(size=(V.shape[1], 3))
        for mdl, f in ((model, fac), (indefinite, factorize_model(indefinite, X))):
            L = kernel_matrix(mdl.kernel, X)
            for sigma2 in (1e-2, 0.3, 3.0):
                tol = 1e-10
                if mdl is indefinite:
                    # a forward error bound: this kernel of high order makes
                    # the bordered system ill-conditioned on a few designs
                    tol = max(tol, 1e-14 * np.linalg.cond(saddle_matrix(L, V, sigma2)))
                for got, want in (
                    (f.solve(sigma2, y), dense_saddle_solve(L, V, sigma2, y)),
                    (f.solve(sigma2, G, H), dense_saddle_solve(L, V, sigma2, G, H)),
                ):
                    got, want = np.concatenate(got), np.concatenate(want)
                    assert got.shape == want.shape
                    assert np.linalg.norm(got - want) <= tol * np.linalg.norm(want)

    def test_one_qr_of_the_basis_and_no_kernel_matrix_kept(self, rng, count_linalg):
        qr, svd = count_linalg("qr"), count_linalg("svd")
        n = 15
        X = rng.uniform(0, 1, size=(n, 2))
        fac = factorize_model(polyharmonic_spm(2, 2), X)
        # the rank check's singular values, then Q, R and the complement at once
        assert svd == [(n, 3)] and qr == [(n, 3)]
        assert fac.LQ.shape == (n, 3)
        for name, arr in vars(fac).items():
            if isinstance(arr, np.ndarray) and name != "modes":
                # neither an n x n array nor a view of one
                assert arr.size < n * n and (arr.base is None or arr.base.size < n * n), name

    def test_zero_kernel_skips_eigensolver(self, rng, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("eigh called for a zero kernel")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        model = SemiParametricModel(Kernel.zero(), d=1, basis_degree=1)
        X = rng.uniform(0, 1, 9)
        fac = factorize_model(model, X)
        np.testing.assert_array_equal(fac.evals, np.zeros(7))
        assert_modes_span_complement(fac, model.basis_matrix(X))

    def test_more_basis_functions_than_points_raises(self):
        # two points cannot fix a cubic: the basis matrix is 2 x 4
        model = SemiParametricModel(Kernel.gaussian(), d=1, basis_degree=3)
        with pytest.raises(NotUnisolvent, match="rank below 4"):
            fit_spm(model, np.array([0.1, 0.7]), np.zeros(2), 0.1)


def assert_spectral_smoother_matches_dense(M, seed):
    """Trace, diagonal, fitted values and eigenvalues of a smoother kept as
    spectral factors, against its dense matrix formed afterwards."""
    rng = np.random.default_rng(seed)
    n = M.n
    y, Y = rng.normal(size=n), rng.normal(size=(n, 3))
    trace, diag, eigenvalues = M.trace, M.diagonal(), M.eigenvalues
    fitted, fitted_columns = M.fitted(y), M.fitted(Y)
    assert "matrix" not in vars(M)  # none of the above formed it
    dense = M.matrix
    assert dense.shape == (n, n)
    assert trace == pytest.approx(np.trace(dense), rel=1e-12, abs=1e-12)
    np.testing.assert_allclose(diag, np.diag(dense), rtol=0, atol=1e-12)
    np.testing.assert_allclose(fitted, dense @ y, rtol=0, atol=1e-11 * np.linalg.norm(y))
    assert fitted_columns.shape == (n, 3)
    np.testing.assert_allclose(
        fitted_columns, dense @ Y, rtol=0, atol=1e-11 * np.linalg.norm(Y)
    )
    np.testing.assert_allclose(eigenvalues, np.linalg.eigvalsh(dense), rtol=0, atol=1e-10)


class TestSpectralSmoother:
    @design_cases
    @settings(max_examples=60, deadline=None)
    def test_saddle_smoother_matches_its_dense_matrix(self, seed, d, degree, zero_kernel, extra):
        # sigma2 = 0 takes the pseudo-inverse
        _, _, fac = random_factorization(seed, d, degree, zero_kernel, extra)
        for sigma2 in (0.0, 0.05, 2.0):
            assert_spectral_smoother_matches_dense(fac.smoother(sigma2), seed)

    @pytest.mark.parametrize("gain", [0.1, 1.0, 30.0])
    def test_gp_spectrum_smoother_matches_its_dense_matrix(self, gain, rng):
        X = rng.uniform(0, 1, size=(20, 2))
        spec = GpSpectrum.from_kernel(Kernel.matern(1.5, epsilon=2.0, gamma=gain), X)
        for sigma2 in (1e-3, 0.1):
            assert_spectral_smoother_matches_dense(spec.smoother(sigma2), 7)

    @design_cases
    @settings(max_examples=60, deadline=None)
    def test_difference_matches_dense_matrices(self, seed, d, degree, zero_kernel, extra):
        _, X, fac = random_factorization(seed, d, degree, zero_kernel, extra)
        # two orders above what its basis annihilates the kernel is indefinite
        # on the complement, so filters of either sign occur
        indefinite = SemiParametricModel(Kernel.polyharmonic(degree + 3), d=d, basis_degree=degree)
        others = (fac.scaled(2.5), factorize_model(indefinite, X))
        for other, sigma2 in itertools.product(others, (0.05, 2.0)):
            a, b = fac.smoother(sigma2), other.smoother(sigma2)
            got = difference(a, b)
            assert "matrix" not in vars(a) and "matrix" not in vars(b)
            want = a.matrix - b.matrix
            scale = max(1.0, float(np.abs(b.matrix).max()))
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * scale)

    def test_dense_matrix_is_formed_once_as_before(self, rng):
        X = rng.uniform(0, 1, size=(12, 1))
        fac = factorize_model(polyharmonic_spm(2, 1), X)
        M = fac.smoother(0.3)
        f = fac.gain * fac.evals / (fac.gain * fac.evals + 0.3)
        want = (fac.modes * f) @ fac.modes.T + fac.Q @ fac.Q.T
        assert M.matrix is M.matrix
        np.testing.assert_array_equal(M.matrix, 0.5 * (want + want.T))


class TestBatchedVariance:
    @pytest.mark.parametrize(
        "model",
        [polyharmonic_spm(2, 1), SemiParametricModel(Kernel.zero(), d=1, basis_degree=2)],
        ids=["cpd-polyharmonic", "zero-kernel"],
    )
    def test_matches_per_query_formula(self, model, rng):
        X = rng.uniform(0, 1, size=(15, 1))
        sigma2 = 0.2
        fit = fit_spm(model, X, rng.normal(size=15), sigma2)
        xq = np.linspace(-0.2, 1.2, 23)[:, None]
        Lq = kernel_cross(model.kernel, xq, X)
        Vq = model.basis_matrix(xq)
        prior = kernel_diag(model.kernel, xq)
        expect = np.empty(len(xq))
        for i in range(len(xq)):
            a, b = fit.factorization.solve(sigma2, Lq[i], Vq[i])
            expect[i] = prior[i] - Lq[i] @ a - Vq[i] @ b
        assert expect.min() >= 0
        np.testing.assert_allclose(fit.posterior(xq)[1], expect, rtol=0, atol=1e-12)

    def test_negative_variance_raises(self):
        # +|x-y|^3 without its linear basis is indefinite: the quadratic form
        # exceeds the zero prior at the midpoint
        model = SemiParametricModel(Kernel.polyharmonic(2), d=1, basis_degree=-1)
        fit = fit_spm(model, np.array([0.0, 1.0]), np.zeros(2), 0.5)
        with pytest.raises(NegativeVariance):
            fit.posterior(np.array([[0.5]]))


def posterior_fits(rng, k=None):
    """Fits on one design, with (y of shape (15, k)) or without a trailing axis:
    the GP spectrum (m = 0), a CPD model and a zero kernel with a basis."""
    X = rng.uniform(0, 1, size=(15, 1))
    y = rng.normal(size=15 if k is None else (15, k))
    gauss = Kernel.gaussian(epsilon=3.0, gamma=0.7)
    gp = SemiParametricModel(gauss, d=1)
    return {
        "gp-spectrum": fit_factored(gp, X, GpSpectrum.from_kernel(gauss, X), y, 0.2),
        "polyharmonic": fit_spm(polyharmonic_spm(2, 1), X, y, 0.2),
        "zero-kernel": fit_spm(SemiParametricModel(Kernel.zero(), d=1, basis_degree=2), X, y, 0.2),
    }


class TestPosteriorPath:
    @pytest.mark.parametrize("case", ["gp-spectrum", "polyharmonic", "zero-kernel"])
    def test_posterior_is_predict_and_predict_var(self, case, rng, monkeypatch):
        fit = posterior_fits(rng)[case]
        xq = np.linspace(-0.2, 1.2, 23)[:, None]
        mean, var = fit.predict(xq), fit.posterior(xq)[1]
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return kernel_cross(*args, **kwargs)

        monkeypatch.setattr(spm_module, "kernel_cross", counted)
        got_mean, got_var = fit.posterior(xq)
        assert len(calls) == 1
        np.testing.assert_array_equal(got_mean, mean)
        np.testing.assert_array_equal(got_var, var)

    @pytest.mark.parametrize("case", ["gp-spectrum", "polyharmonic", "zero-kernel"])
    def test_columns_fit_as_single_vectors(self, case, rng):
        k = 4
        fit = posterior_fits(rng, k)[case]
        xq = np.linspace(-0.2, 1.2, 23)[:, None]
        mean, var = fit.posterior(xq)
        assert mean.shape == (len(xq), k) and var.shape == (len(xq),)
        for j in range(k):
            one = fit_factored(fit.model, fit.design, fit.factorization, fit.y[:, j], fit.sigma2)
            np.testing.assert_allclose(fit.alpha[:, j], one.alpha, rtol=0, atol=1e-10)
            np.testing.assert_allclose(fit.beta[:, j], one.beta, rtol=0, atol=1e-10)
            one_mean, one_var = one.posterior(xq)
            np.testing.assert_allclose(mean[:, j], one_mean, rtol=0, atol=1e-10)
            np.testing.assert_array_equal(var, one_var)

    @pytest.mark.parametrize("shape", [(14,), (16, 2), (15, 2, 1)])
    def test_y_of_other_shapes_rejected(self, shape, rng):
        fit = posterior_fits(rng)["polyharmonic"]
        with pytest.raises(ValueError, match="design point"):
            fit_factored(fit.model, fit.design, fit.factorization, np.zeros(shape), 0.2)


def augmented_cases():
    """Models for the bordered update, each with the dimension it lives in."""
    gauss = Kernel.gaussian(epsilon=3.0)
    return {
        "gaussian-pd": lambda d: SemiParametricModel(gauss, d=d),
        "gaussian-linear-d2": lambda d: SemiParametricModel(gauss, d=2, basis_degree=1),
        "polyharmonic-r1": lambda d: polyharmonic_spm(1, d),
        "polyharmonic-r2": lambda d: polyharmonic_spm(2, d),
        "zero-kernel": lambda d: SemiParametricModel(Kernel.zero(), d=d, basis_degree=1),
    }


class TestAugmentedSmoother:
    @given(
        case=st.sampled_from(sorted(augmented_cases())),
        seed=st.integers(0, 2**32 - 1),
        d=st.sampled_from([1, 2]),
        extra=st.integers(1, 12),
        log_sigma2=st.floats(-3, 1),
        near_point=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_smoother_on_augmented_design(
        self, case, seed, d, extra, log_sigma2, near_point
    ):
        model = augmented_cases()[case](d)
        rng = np.random.default_rng(seed)
        X = rng.uniform(0, 1, size=(model.basis_size() + extra, model.d))
        if near_point:
            direction = rng.normal(size=model.d)
            x_new = X[rng.integers(len(X))] + 1e-9 * direction / np.linalg.norm(direction)
        else:
            x_new = rng.uniform(0, 1, size=model.d)
        X_aug = np.vstack([X, x_new])
        sigma2 = 10.0**log_sigma2
        try:
            fac = factorize_model(model, X)
        except NotUnisolvent:
            assume(False)
        got = augmented_smoother(
            fac,
            fac.smoother(sigma2),
            kernel_cross(model.kernel, x_new[None, :], X)[0],
            kernel_diag(model.kernel, x_new[None, :])[0],
            model.basis_matrix(x_new[None, :])[0],
            sigma2,
        )
        want = factorize_model(model, X_aug).smoother(sigma2).matrix
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("case", sorted(augmented_cases()))
    def test_fit_gives_posterior_and_bordered_terms_from_one_solve(
        self, case, rng, monkeypatch
    ):
        model = augmented_cases()[case](2)
        X = rng.uniform(0, 1, size=(model.basis_size() + 9, model.d))
        x_new = rng.uniform(0, 1, size=(1, model.d))
        sigma2 = 0.07
        fac = factorize_model(model, X)
        fit = fit_factored(model, X, fac, rng.normal(size=len(X)), sigma2)
        # the last column of the augmented smoother is (c w, 1 - c)
        border = augmented_smoother(
            fac,
            fac.smoother(sigma2),
            kernel_cross(model.kernel, x_new, X)[0],
            kernel_diag(model.kernel, x_new)[0],
            model.basis_matrix(x_new)[0],
            sigma2,
        )[:, -1]
        c_want = 1.0 - border[-1]
        want_mean, want_var = fit.posterior(x_new)
        solves = []
        solve = spm_module.SaddleFactorization.solve

        def counted(self, *args, **kwargs):
            solves.append(1)
            return solve(self, *args, **kwargs)

        monkeypatch.setattr(spm_module.SaddleFactorization, "solve", counted)
        mean, var, w, c = fit.bordered(x_new)
        assert len(solves) == 1
        np.testing.assert_array_equal(mean, want_mean)
        np.testing.assert_array_equal(var, want_var)
        assert c == pytest.approx(c_want, rel=1e-12, abs=1e-15)
        np.testing.assert_allclose(c * w, border[:-1], rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("sigma2", [0.0, -1.0, float("nan")])
    def test_nonpositive_sigma2_rejected(self, sigma2, rng):
        model = polyharmonic_spm(2, 1)
        X = rng.uniform(0, 1, size=(6, 1))
        fac = factorize_model(model, X)
        x_new = np.array([[0.5]])
        with pytest.raises(ValueError, match="sigma2"):
            augmented_smoother(
                fac,
                fac.smoother(0.1),
                kernel_cross(model.kernel, x_new, X)[0],
                kernel_diag(model.kernel, x_new)[0],
                model.basis_matrix(x_new)[0],
                sigma2,
            )
        with pytest.raises(ValueError, match="sigma2"):
            fit_factored(model, X, fac, np.zeros(6), sigma2).bordered(x_new)


# filter eigenvalues: exact zeros and positive values spanning 1e-16 to 1e4
eigenvalue_lists = st.lists(
    st.one_of(st.just(0.0), st.floats(-16, 4).map(lambda u: 10.0**u)), min_size=1, max_size=40
)


def trace_at(lam, base, g, sigma2):
    lam = np.asarray(lam)
    return base + float(np.sum(g * lam / (g * lam + sigma2)))


class TestSolveTrace:
    @given(
        lam=eigenvalue_lists,
        base=st.integers(0, 6),
        log_sigma2=st.floats(-4, 2),
        fraction=st.floats(1e-9, 1 - 1e-9),
    )
    @settings(max_examples=200, deadline=None)
    def test_reachable_targets_are_hit(self, lam, base, log_sigma2, fraction):
        sigma2 = 10.0**log_sigma2
        count = sum(v > 0 for v in lam)
        assume(count > 0)
        target = base + fraction * count
        g, trace = solve_trace(np.array(lam), base, target, sigma2)
        tol = 1e-10 * max(1, len(lam))
        assert 1e-30 <= g <= 1e30
        assert abs(trace_at(lam, base, g, sigma2) - target) <= tol
        assert abs(trace - target) <= tol

    @given(
        lam=eigenvalue_lists,
        base=st.integers(0, 6),
        log_sigma2=st.floats(-4, 2),
        beyond=st.floats(0, 10),
        above=st.booleans(),
    )
    @settings(max_examples=100, deadline=None)
    def test_targets_at_or_beyond_the_limits_raise(self, lam, base, log_sigma2, beyond, above):
        count = sum(v > 0 for v in lam)
        target = base + count + beyond if above else base - beyond
        with pytest.raises(UnreachableDof):
            solve_trace(np.array(lam), base, target, 10.0**log_sigma2)

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(4, 20),
        r=st.sampled_from([1, 2]),
        log_eta=st.floats(-6, 2),
    )
    @settings(max_examples=40, deadline=None)
    def test_spline_penalty_route_reproduces_spline_dof(self, seed, n, r, log_eta):
        X = np.random.default_rng(seed).uniform(0, 1, n)
        target = spline_dof(X, r, 10.0**log_eta)
        fac = factorize_model(polyharmonic_spm(r, 1), X)
        base, lam = fac.m, fac.evals
        g, trace = solve_trace(lam, base, target, 1.0)
        # lam / (lam + eta) = g lam / (g lam + 1) with eta = 1 / g
        assert spline_dof(X, r, 1.0 / g) == pytest.approx(target, abs=1e-10 * n)
        assert trace == pytest.approx(target, abs=1e-10 * n)

    @pytest.mark.parametrize("sigma2", [0.0, -0.5, float("nan")])
    def test_nonpositive_sigma2_rejected(self, sigma2):
        with pytest.raises(ValueError, match="sigma2"):
            solve_trace(np.array([1.0, 0.5]), 0.0, 1.0, sigma2)


def rescaled_pairs():
    """Per case, ``pair(X, g)``: a factorization moved to gain factor g by
    ``scaled``, and the same model rescaled by g and factored afresh."""
    gauss = Kernel.gaussian(epsilon=3.0, gamma=1.7)

    def gp(nugget):
        return lambda X, g: (
            GpSpectrum.from_kernel(gauss, X, nugget=nugget).scaled(g),
            GpSpectrum.from_kernel(gauss.with_params(gamma=gauss.gamma * g), X, nugget=nugget),
        )

    def spm(make):
        def pair(X, g):
            model = make(X.shape[1])
            return factorize_model(model, X).scaled(g), factorize_model(model.scaled(g), X)

        return pair

    return {
        "gp": gp(0.0),
        "gp-nugget": gp(1e-3),
        "spm-empty-basis": spm(lambda d: SemiParametricModel(gauss, d=d)),
        "polyharmonic-r1": spm(lambda d: polyharmonic_spm(1, d).scaled(0.6)),
        "polyharmonic-r2": spm(lambda d: polyharmonic_spm(2, d)),
        "absorbed-sum": spm(lambda d: absorbed_kernel_model(polyharmonic_spm(2, d), 0.7)),
        "zero-kernel": spm(lambda d: SemiParametricModel(Kernel.zero(), d=d, basis_degree=1)),
    }


def outcome(fn):
    """What ``fn()`` returns, or the type of the error it raises."""
    try:
        return fn()
    except Exception as exc:  # both sides must fail alike
        return type(exc)


def assert_same(a, b):
    if isinstance(a, type) or isinstance(b, type):
        assert a is b
    elif isinstance(a, tuple):
        assert len(a) == len(b)
        for u, v in zip(a, b):
            assert_same(u, v)
    else:
        assert np.array_equal(np.asarray(a), np.asarray(b))


class TestSpectralCore:
    @given(
        case=st.sampled_from(sorted(rescaled_pairs())),
        seed=st.integers(0, 2**32 - 1),
        d=st.sampled_from([1, 2]),
        extra=st.integers(1, 10),
        log_g=st.floats(-6, 6),
        log_sigma2=st.floats(-4, 1),
    )
    @settings(max_examples=120, deadline=None)
    def test_scaled_equals_factoring_the_rescaled_model(
        self, case, seed, d, extra, log_g, log_sigma2
    ):
        rng = np.random.default_rng(seed)
        X = rng.uniform(0, 1, size=(3 + extra, d))
        try:
            moved, fresh = rescaled_pairs()[case](X, 10.0**log_g)
        except NotUnisolvent:
            assume(False)
        n, m = len(X), fresh.m
        y, g, h = rng.normal(size=n), rng.normal(size=(n, 2)), rng.normal(size=(m, 2))
        for sigma2 in (0.0, 10.0**log_sigma2):
            for fac_call in (
                lambda f: f.dof(sigma2),
                lambda f: f.smoother(sigma2).matrix,
                lambda f: f.solve(sigma2, g, h),
                lambda f: f.solve(sigma2, y),
            ):
                assert_same(outcome(lambda: fac_call(moved)), outcome(lambda: fac_call(fresh)))

    def test_scaled_shares_every_array(self, rng):
        X = rng.uniform(0, 1, size=(12, 1))
        for fac in (
            factorize_model(polyharmonic_spm(2, 1), X),
            GpSpectrum.from_kernel(Kernel.matern(1.5, epsilon=2.0), X),
        ):
            moved = fac.scaled(3.0)
            assert moved.gain == 3.0 * fac.gain
            for name, value in vars(fac).items():
                if isinstance(value, np.ndarray):
                    assert getattr(moved, name) is value, name

    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.sampled_from([1, 2]),
        n=st.integers(3, 15),
        log_sigma2=st.floats(-3, 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_empty_basis_factorization_is_the_gp_spectrum(self, seed, d, n, log_sigma2):
        rng = np.random.default_rng(seed)
        X = rng.uniform(0, 1, size=(n, d))
        kernel = Kernel.matern(1.5, epsilon=2.0, gamma=1.7)
        saddle = factorize_model(SemiParametricModel(kernel, d=d), X)
        spectrum = GpSpectrum.from_kernel(kernel, X)
        sigma2 = 10.0**log_sigma2
        assert saddle.m == spectrum.m == 0
        assert saddle.dof(sigma2) == pytest.approx(spectrum.dof(sigma2), abs=1e-12 * n)
        np.testing.assert_allclose(
            saddle.smoother(sigma2).matrix, spectrum.smoother(sigma2).matrix, rtol=0, atol=1e-12
        )
        y = rng.normal(size=n)
        want = spectrum.solve(sigma2, y)[0]
        np.testing.assert_allclose(
            saddle.solve(sigma2, y)[0], want, rtol=0, atol=1e-12 * np.abs(want).max()
        )

    def test_sigma2_contracts(self, rng):
        # the GP spectrum refuses a singular K + sigma2 I; the saddle path
        # takes the pseudo-inverse
        X = np.repeat(rng.uniform(0, 1, size=(4, 1)), 3, axis=0)  # each point thrice
        kernel = Kernel.matern(1.5, epsilon=2.0)
        with pytest.raises(IllConditioned):
            GpSpectrum.from_kernel(kernel, X).dof(0.0)
        assert factorize_model(SemiParametricModel(kernel, d=1), X).dof(0.0) == pytest.approx(4.0)

    @pytest.mark.parametrize("sigma2", [-0.01, float("nan")])
    @pytest.mark.parametrize("empty_basis", [True, False], ids=["gp", "saddle"])
    def test_negative_sigma2_rejected(self, sigma2, empty_basis, rng):
        X = rng.uniform(0, 1, size=(8, 1))
        if empty_basis:
            fac = GpSpectrum.from_kernel(Kernel.exponential(epsilon=50.0), X)
        else:
            fac = factorize_model(polyharmonic_spm(2, 1), X)
        for call in (fac.dof, fac.smoother, lambda s: fac.solve(s, np.ones(8))):
            with pytest.raises(ValueError, match="sigma2"):
                call(sigma2)

    def test_nlml_needs_the_gp_spectrum(self, rng):
        X = rng.uniform(0, 1, size=(8, 1))
        with pytest.raises(ValueError, match="GP spectrum"):
            factorize_model(polyharmonic_spm(2, 1), X).nlml(np.ones(8), 0.1)
