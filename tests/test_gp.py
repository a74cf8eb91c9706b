import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatgp import (
    GpHyperparameters,
    GpSpectrum,
    Kernel,
    SemiParametricModel,
    dof,
    gp_posterior,
    gp_smoother,
    loo_mse,
    loo_nll,
    nlml,
    polyharmonic_spm,
    spline_dof,
    spm_posterior_mean,
    spm_posterior_var,
    spm_smoother,
    sure,
)
from flatgp.errors import IllConditioned, InterpolatingSmoother, NegativeVariance
from flatgp.flatlimit import absorbed_kernel_model
from flatgp.gp import loo_components
from flatgp.smoothers import SmootherMatrix
from flatgp.spm import factorize_model, fit_factored


@pytest.fixture
def setup(rng):
    X = np.sort(rng.uniform(0, 1, 10))
    y = rng.normal(size=10)
    return X, y


class TestHyperparameters:
    def test_validation(self):
        theta = GpHyperparameters(epsilon=0.5, gamma=2.0, sigma2=0.01)
        assert theta.nugget == 0.0
        with pytest.raises(ValueError):
            GpHyperparameters(epsilon=0.5, gamma=0.0, sigma2=0.01)
        with pytest.raises(ValueError):
            GpHyperparameters(epsilon=0.5, gamma=1.0, sigma2=-1.0)


class TestPosterior:
    def test_prior_dominates_under_huge_noise(self, setup):
        X, y = setup
        kern = Kernel.gaussian(epsilon=2.0, gamma=1.5)
        xq = np.linspace(0, 1, 5)
        mean, var = gp_posterior(kern, X, y, 1e12, xq)
        np.testing.assert_allclose(mean, 0.0, atol=1e-9)
        np.testing.assert_allclose(var, 1.5, atol=1e-9)

    def test_far_query_returns_prior_variance(self, setup):
        X, y = setup
        kern = Kernel.gaussian(epsilon=25.0, gamma=2.0)
        mean, var = gp_posterior(kern, X, y, 0.01, np.array([50.0]))
        assert var[0] == pytest.approx(2.0, abs=1e-8)
        assert mean[0] == pytest.approx(0.0, abs=1e-8)

    def test_agrees_with_empty_basis_spm(self, setup):
        X, y = setup
        kern = Kernel.gaussian(epsilon=3.0, gamma=0.7)
        model = SemiParametricModel(kern, d=1, basis_degree=-1)
        xq = np.linspace(0, 1, 7)
        mean, var = gp_posterior(kern, X, y, 0.2, xq)
        np.testing.assert_allclose(
            mean, spm_posterior_mean(model, X, y, 0.2, xq), atol=1e-10
        )
        np.testing.assert_allclose(
            var, spm_posterior_var(model, X, 0.2, xq), atol=1e-10
        )

    def test_illconditioned_carries_eigenvalue(self, setup):
        X, y = setup
        kern = Kernel.gaussian(epsilon=1e-4)
        with pytest.raises(IllConditioned) as exc:
            gp_posterior(kern, X, y, 0.0, X)
        assert exc.value.smallest_eigenvalue is not None

    def test_variance_below_roundoff_raises(self):
        # +|x-y|^3 is indefinite; at sigma2 = 1.5 > 1 = -lambda_min the GP
        # solve is defined, but the quadratic form exceeds the zero prior at
        # the midpoint: the variance is reported, not clamped to zero
        with pytest.raises(NegativeVariance):
            gp_posterior(Kernel.polyharmonic(2), np.array([0.0, 1.0]), np.zeros(2), 1.5, [0.5])


class TestSpectrum:
    def test_one_eigh_and_no_kernel_matrix_kept(self, setup, count_linalg):
        X, _ = setup
        eigh, qr, svd = count_linalg("eigh"), count_linalg("qr"), count_linalg("svd")
        spec = GpSpectrum.from_kernel(Kernel.gaussian(epsilon=3.0), X, nugget=1e-6)
        assert len(eigh) == 1 and not qr and not svd
        assert spec.m == 0 and spec.L is None and spec.complement is None
        assert spec.modes is spec.evecs

    def test_gain_is_a_scalar(self, setup):
        X, _ = setup
        kern = Kernel.matern(1.5, epsilon=2.0)
        spec = GpSpectrum.from_kernel(kern, X)
        for g in (1e-3, 0.7, 40.0):
            rescaled = GpSpectrum.from_kernel(kern.with_params(gamma=g), X)
            assert spec.scaled(g).dof(0.1) == rescaled.dof(0.1)

    def test_gain_is_keyword_only(self, setup):
        X, _ = setup
        spec = GpSpectrum.from_kernel(Kernel.gaussian(epsilon=3.0), X)
        with pytest.raises(TypeError):
            spec.dof(2.0, 0.1)
        with pytest.raises(TypeError):
            spec.smoother(2.0, 0.1)

    @pytest.mark.parametrize("nugget", [-0.5, -1e-300, float("nan")])
    def test_negative_or_nan_nugget_rejected(self, setup, nugget):
        X, _ = setup
        with pytest.raises(ValueError, match="nugget"):
            GpSpectrum.from_kernel(Kernel.gaussian(epsilon=3.0), X, nugget=nugget)


class TestSmoother:
    def test_tiny_noise_gives_identity(self):
        X = np.linspace(0, 1, 6)
        M = gp_smoother(Kernel.gaussian(epsilon=3.0), X, 1e-14)
        assert M.trace == pytest.approx(6.0, abs=1e-6)

    def test_huge_noise_gives_zero(self, setup):
        X, _ = setup
        M = gp_smoother(Kernel.gaussian(epsilon=2.0), X, 1e14)
        assert np.abs(M.matrix).max() <= 1e-10

    def test_trace_is_eigenvalue_filter_sum(self, setup):
        X, _ = setup
        kern = Kernel.gaussian(epsilon=1.5, gamma=2.0)
        sigma2 = 0.3
        M = gp_smoother(kern, X, sigma2)
        lam = np.linalg.eigvalsh(
            2.0 * np.exp(-1.5**2 * (X[:, None] - X[None, :]) ** 2)
        )
        assert M.trace == pytest.approx(np.sum(lam / (lam + sigma2)), abs=1e-8)

    def test_eigenvalues_in_unit_interval(self, setup):
        X, _ = setup
        M = gp_smoother(Kernel.matern(1.5, epsilon=2.0), X, 0.05)
        w = M.eigenvalues
        assert w.min() >= -1e-9 and w.max() <= 1 + 1e-9

    def test_dof_monotone_in_gamma(self, setup):
        X, _ = setup
        spec = GpSpectrum.from_kernel(Kernel.gaussian(epsilon=1.0), X)
        gammas = np.geomspace(1e-3, 1e3, 13)
        dofs = [spec.scaled(g).dof(0.1) for g in gammas]
        assert all(b >= a - 1e-12 for a, b in zip(dofs, dofs[1:]))


class TestDof:
    def test_polynomial_regression_has_p_plus_one(self, rng):
        X = np.sort(rng.uniform(0, 1, 9))
        for p in range(4):
            model = SemiParametricModel(Kernel.zero(), d=1, basis_degree=p)
            assert spm_smoother(model, X, 0.2).trace == pytest.approx(p + 1, abs=1e-10)

    def test_identity_smoother(self):
        assert dof(SmootherMatrix(np.eye(7))) == pytest.approx(7.0)

    def test_spline_smoother_matches_eigen_sum(self, rng):
        X = np.sort(rng.uniform(0, 1, 11))
        eta = 0.02
        M = spm_smoother(polyharmonic_spm(3, 1), X, eta)
        assert dof(M) == pytest.approx(spline_dof(X, 3, eta), abs=1e-8)


def literal_loo(kernel, X, y, sigma2):
    """n refits, leaving one point out at a time."""
    n = len(y)
    mus, variances = [], []
    for i in range(n):
        keep = [j for j in range(n) if j != i]
        mean, var = gp_posterior(kernel, X[keep], y[keep], sigma2, X[i : i + 1])
        mus.append(mean[0])
        variances.append(var[0] + sigma2)
    return np.array(mus), np.array(variances)


class TestLooMse:
    def test_zero_smoother_gives_mean_square(self, rng):
        y = rng.normal(size=9)
        M = SmootherMatrix(np.zeros((9, 9)))
        assert loo_mse(M, y).value == pytest.approx(np.mean(y**2))

    def test_matches_literal_refits(self, rng):
        for trial in range(4):
            X = np.sort(rng.uniform(0, 1, 10))
            y = rng.normal(size=10)
            sigma2 = 10.0 ** rng.uniform(-2, 0)
            kern = Kernel.gaussian(epsilon=2.0, gamma=1.4)
            M = gp_smoother(kern, X, sigma2)
            mus, _ = literal_loo(kern, X, y, sigma2)
            fast = loo_mse(M, y).value
            literal = np.mean((y - mus) ** 2)
            assert fast == pytest.approx(literal, rel=1e-8)

    def test_interpolating_smoother_rejected(self, rng):
        y = rng.normal(size=4)
        with pytest.raises(InterpolatingSmoother):
            loo_mse(SmootherMatrix(np.eye(4)), y)

    def test_invariant_under_equivalent_model_swap(self, rng):
        X = np.sort(rng.uniform(0, 1, 9))
        y = rng.normal(size=9)
        model = polyharmonic_spm(1, 1)
        other = absorbed_kernel_model(model, coefficient=2.5)
        for sigma2 in (0.05, 0.5):
            a = loo_mse(spm_smoother(model, X, sigma2), y).value
            b = loo_mse(spm_smoother(other, X, sigma2), y).value
            assert a == pytest.approx(b, rel=1e-8)


def loo_model(case):
    return {
        "gp-matern": SemiParametricModel(Kernel.matern(1.5, epsilon=2.0, gamma=1.3), d=1),
        "gp-gaussian": SemiParametricModel(Kernel.gaussian(epsilon=2.0, gamma=0.8), d=1),
        "polyharmonic-r1": polyharmonic_spm(1, 1),
        "polyharmonic-r2": polyharmonic_spm(2, 1),
        "gaussian-linear": SemiParametricModel(
            Kernel.gaussian(epsilon=2.0, gamma=0.8), d=1, basis_degree=1
        ),
    }[case]


def loo_factorization(model, X):
    """The GP spectrum without a basis, the saddle factorization with one."""
    if model.basis_size():
        return factorize_model(model, X)
    return GpSpectrum.from_kernel(model.kernel, X)


class TestLooAgainstRefits:
    @given(
        case=st.sampled_from(
            ["gp-matern", "gp-gaussian", "polyharmonic-r1", "polyharmonic-r2", "gaussian-linear"]
        ),
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(6, 12),
        log_sigma2=st.floats(-2.0, 0.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_closed_form_equals_brute_force_refits(self, case, seed, n, log_sigma2):
        model, sigma2 = loo_model(case), 10.0**log_sigma2
        rng = np.random.default_rng(seed)
        # one point per cell of a regular partition keeps the design well spread
        X = ((np.arange(n) + rng.uniform(0.1, 0.9, n)) / n)[:, None]
        y = rng.normal(size=n) + np.sin(3.0 * X[:, 0])
        mus, variances = [], []
        for i in range(n):
            keep = np.arange(n) != i
            fac = loo_factorization(model, X[keep])
            fit = fit_factored(model, X[keep], fac, y[keep], sigma2)
            mean, var = fit.posterior(X[i : i + 1])
            mus.append(mean[0])
            variances.append(var[0] + sigma2)
        M = loo_factorization(model, X).smoother(sigma2)
        mean, var = loo_components(M, y, sigma2)
        np.testing.assert_allclose(mean, mus, rtol=1e-8, atol=1e-10)
        np.testing.assert_allclose(var, variances, rtol=1e-8, atol=0)
        literal = np.mean((y - np.array(mus)) ** 2)
        assert loo_mse(M, y).value == pytest.approx(literal, rel=1e-8)


class TestLooNll:
    def test_matches_literal_refits(self, rng):
        X = np.sort(rng.uniform(0, 1, 10))
        y = rng.normal(size=10)
        sigma2 = 0.2
        kern = Kernel.matern(1.5, epsilon=1.5, gamma=0.8)
        M = gp_smoother(kern, X, sigma2)
        mus, variances = literal_loo(kern, X, y, sigma2)
        literal = np.mean(
            0.5 * np.log(2 * np.pi * variances) + 0.5 * (y - mus) ** 2 / variances
        )
        assert loo_nll(M, y, sigma2).value == pytest.approx(literal, rel=1e-8)

    def test_equal_for_equivalent_spms_on_gamma_grid(self, rng):
        X = np.sort(rng.uniform(0, 1, 8))
        y = rng.normal(size=8)
        model = polyharmonic_spm(1, 1)
        other = absorbed_kernel_model(model, coefficient=-0.8)
        for gamma in np.geomspace(0.1, 10, 5):
            a = loo_nll(spm_smoother(model.scaled(gamma), X, 0.1), y, 0.1).value
            b = loo_nll(spm_smoother(other.scaled(gamma), X, 0.1), y, 0.1).value
            assert a == pytest.approx(b, rel=1e-8)

    def test_scaling_shifts_by_half_log_c(self, rng):
        X = np.sort(rng.uniform(0, 1, 9))
        y = rng.normal(size=9)
        sigma2, c = 0.3, 4.0
        M = gp_smoother(Kernel.gaussian(epsilon=2.0, gamma=2.0 / 1.0), X, sigma2)
        # scaling sigma2 by c and y by sqrt(c) leaves the smoother unchanged
        Mc = gp_smoother(Kernel.gaussian(epsilon=2.0, gamma=2.0 * c), X, c * sigma2)
        np.testing.assert_allclose(M.matrix, Mc.matrix, atol=1e-12)
        base = loo_nll(M, y, sigma2).value
        scaled = loo_nll(Mc, math.sqrt(c) * y, c * sigma2).value
        assert scaled == pytest.approx(base + 0.5 * math.log(c), abs=1e-10)


class TestSure:
    def test_zero_smoother(self, rng):
        y = rng.normal(size=8)
        M = SmootherMatrix(np.zeros((8, 8)))
        assert sure(M, y, 0.3).value == pytest.approx(-0.3 + np.mean(y**2))

    def test_identity_smoother(self, rng):
        y = rng.normal(size=8)
        assert sure(SmootherMatrix(np.eye(8)), y, 0.25).value == pytest.approx(0.25)

    def test_depends_only_on_smoother(self, rng):
        X = np.sort(rng.uniform(0, 1, 8))
        y = rng.normal(size=8)
        model = polyharmonic_spm(1, 1)
        other = absorbed_kernel_model(model, coefficient=1.3)
        a = sure(spm_smoother(model, X, 0.2), y, 0.2).value
        b = sure(spm_smoother(other, X, 0.2), y, 0.2).value
        assert a == pytest.approx(b, rel=1e-10)


class TestNlml:
    def test_scalar_case_by_hand(self):
        y = np.array([0.7])
        gamma, sigma2 = 1.3, 0.2
        val = nlml(Kernel.gaussian(gamma=gamma), np.array([0.5]), y, sigma2).value
        expect = 0.5 * math.log(2 * math.pi * (gamma + sigma2)) + y[0] ** 2 / (
            2 * (gamma + sigma2)
        )
        assert val == pytest.approx(expect, rel=1e-12)

    def test_permutation_invariant(self, rng):
        X = rng.uniform(0, 1, size=(8, 2))
        y = rng.normal(size=8)
        perm = rng.permutation(8)
        kern = Kernel.gaussian(epsilon=1.2, gamma=0.9)
        a = nlml(kern, X, y, 0.1).value
        b = nlml(kern, X[perm], y[perm], 0.1).value
        assert a == pytest.approx(b, rel=1e-10)

    def test_diverges_along_flat_limit_path(self, rng):
        # gamma = eps^-p blows the marginal likelihood up as eps -> 0
        X = np.sort(rng.uniform(0, 1, 8))
        y = rng.normal(size=8)
        vals = []
        for eps in (0.4, 0.2, 0.1, 0.05):
            kern = Kernel.gaussian(epsilon=eps, gamma=eps**-3)
            vals.append(nlml(kern, X, y, 0.01).value)
        assert all(b > a for a, b in zip(vals, vals[1:])), vals
