import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from flatgp import (
    Family,
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
    spm_posterior_mean,
    spm_posterior_var,
    spm_smoother,
)
from flatgp.errors import DegenerateDesign, NegativeVariance, NotUnisolvent
from flatgp.spm import factorize_model


def dense_saddle_solve(L, V, sigma2, y):
    """Independent oracle: assemble and invert the full bordered system."""
    n, m = L.shape[0], V.shape[1]
    S = np.zeros((n + m, n + m))
    S[:n, :n] = L + sigma2 * np.eye(n)
    S[:n, n:] = V
    S[n:, :n] = V.T
    sol = np.linalg.solve(S, np.concatenate([y, np.zeros(m)]))
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
        mean = spm_posterior_mean(linear_spline_model(), X, y, 0.0, X)
        np.testing.assert_allclose(mean, y, atol=1e-9)

    def test_zero_kernel_is_least_squares(self, rng):
        X = rng.uniform(0, 1, size=(12, 2))
        y = rng.normal(size=12)
        model = SemiParametricModel(Kernel.zero(), d=2, basis_degree=2)
        mean = spm_posterior_mean(model, X, y, 0.3, X)
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
        var = spm_posterior_var(linear_spline_model(), X, 0.0, X)
        np.testing.assert_allclose(var, 0.0, atol=1e-9)

    def test_parametric_variance_formula(self, rng):
        X = rng.uniform(0, 1, size=(10, 1))
        sigma2 = 0.4
        model = SemiParametricModel(Kernel.zero(), d=1, basis_degree=2)
        xq = np.linspace(0, 1, 9)[:, None]
        var = spm_posterior_var(model, X, sigma2, xq)
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
        mean = spm_posterior_mean(model, X, y, sigma2, xq)
        var = spm_posterior_var(model, X, sigma2, xq)
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
        M = spm_smoother(model, X, 0.7)
        assert M.trace == pytest.approx(3.0, abs=1e-10)

    def test_vanishing_noise_reaches_full_dof(self, rng):
        X = np.sort(rng.uniform(0, 1, 9))
        M = spm_smoother(linear_spline_model(), X, 1e-12)
        assert M.trace == pytest.approx(9.0, abs=1e-6)

    def test_rows_reproduce_design_predictions(self, rng):
        X = np.sort(rng.uniform(0, 1, 8))
        y = rng.normal(size=8)
        sigma2 = 0.15
        model = polyharmonic_spm(2, 1)
        M = spm_smoother(model, X, sigma2)
        mean = spm_posterior_mean(model, X, y, sigma2, X)
        np.testing.assert_allclose(M.fitted(y), mean, atol=1e-8)

    def test_eigenvalues_in_unit_interval(self, rng):
        X = rng.uniform(0, 1, size=(10, 2))
        M = spm_smoother(polyharmonic_spm(2, 2), X, 0.3)
        w = M.eigenvalues
        assert w.min() >= -1e-9 and w.max() <= 1 + 1e-9
        assert M.trace == pytest.approx(w.sum(), abs=1e-8)

    def test_trace_matches_spline_dof_formula(self, rng):
        X = np.sort(rng.uniform(0, 1, 12))
        eta = 0.05
        M = spm_smoother(polyharmonic_spm(2, 1), X, eta)
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
        with pytest.raises(DegenerateDesign):
            smoothing_spline_fit(np.array([0.0, 0.5, 0.5, 1.0]), np.zeros(4), 1, 0.1)

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


class TestFactorization:
    @design_cases
    @settings(max_examples=60, deadline=None)
    def test_complement_orthonormal_and_orthogonal_to_basis(self, seed, d, degree, zero_kernel, extra):
        model, X, fac = random_factorization(seed, d, degree, zero_kernel, extra)
        V = model.basis_matrix(X)
        n, m = V.shape
        assert fac.C.shape == (n, n - m)
        np.testing.assert_allclose(fac.C.T @ fac.C, np.eye(n - m), rtol=0, atol=1e-12)
        assert np.abs(V.T @ fac.C).max(initial=0.0) <= 1e-12

    @design_cases
    @settings(max_examples=60, deadline=None)
    def test_reused_fits_match_dense_saddle_solve(self, seed, d, degree, zero_kernel, extra):
        model, X, fac = random_factorization(seed, d, degree, zero_kernel, extra)
        L = kernel_matrix(model.kernel, X)
        V = model.basis_matrix(X)
        y = np.random.default_rng(seed + 1).normal(size=len(X))
        for sigma2 in (1e-2, 0.3, 3.0):
            got = np.concatenate(fac.fit(y, sigma2))
            want = np.concatenate(dense_saddle_solve(L, V, sigma2, y))
            assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)

    def test_zero_kernel_skips_eigensolver(self, rng, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("eigh called for a zero kernel")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        model = SemiParametricModel(Kernel.zero(), d=1, basis_degree=1)
        fac = factorize_model(model, rng.uniform(0, 1, 9))
        np.testing.assert_array_equal(fac.evals, np.zeros(7))
        np.testing.assert_array_equal(fac.evecs, np.eye(7))


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
        np.testing.assert_allclose(fit.predict_var(xq), expect, rtol=0, atol=1e-12)

    def test_negative_variance_raises(self):
        # +|x-y|^3 without its linear basis is indefinite: the quadratic form
        # exceeds the zero prior at the midpoint
        model = SemiParametricModel(Kernel.polyharmonic(2), d=1, basis_degree=-1)
        fit = fit_spm(model, np.array([0.0, 1.0]), np.zeros(2), 0.5)
        with pytest.raises(NegativeVariance):
            fit.predict_var(np.array([[0.5]]))
