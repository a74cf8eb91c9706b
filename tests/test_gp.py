import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatgp import (
    GpSpectrum,
    Kernel,
    SemiParametricModel,
    kernel_matrix,
    loo_mse,
    loo_nll,
    polyharmonic_spm,
    sure,
)
from flatgp.errors import (
    DegenerateVariance,
    FlatGpError,
    IllConditioned,
    InterpolatingSmoother,
    NegativeVariance,
)
from flatgp.flatlimit import absorbed_kernel_model
import flatgp.gp as gp_module
from flatgp.gp import _criteria_rows, criteria
from flatgp.smoothers import SmootherMatrix
from flatgp.spm import factorize_model
from spline_references import TOL as SPLINE_TOL, spline_deviation


def basis_smoother(n, m):
    """The smoother of the first m unit vectors, each with filter 1: the zero
    matrix at m = 0, the identity at m = n."""
    return SmootherMatrix(np.eye(n)[:, :m], np.ones(m))


@pytest.fixture
def setup(rng):
    X = np.sort(rng.uniform(0, 1, 10))
    y = rng.normal(size=10)
    return X, y


class TestPosterior:
    def test_prior_dominates_under_huge_noise(self, setup):
        X, y = setup
        kern = Kernel.gaussian(epsilon=2.0, gamma=1.5)
        xq = np.linspace(0, 1, 5)
        mean, var = GpSpectrum.from_kernel(kern, X).fit(y, 1e12).posterior(xq)
        np.testing.assert_allclose(mean, 0.0, atol=1e-9)
        np.testing.assert_allclose(var, 1.5, atol=1e-9)

    def test_far_query_returns_prior_variance(self, setup):
        X, y = setup
        kern = Kernel.gaussian(epsilon=25.0, gamma=2.0)
        mean, var = GpSpectrum.from_kernel(kern, X).fit(y, 0.01).posterior(np.array([50.0]))
        assert var[0] == pytest.approx(2.0, abs=1e-8)
        assert mean[0] == pytest.approx(0.0, abs=1e-8)

    def test_agrees_with_empty_basis_spm(self, setup):
        X, y = setup
        kern = Kernel.gaussian(epsilon=3.0, gamma=0.7)
        model = SemiParametricModel(kern, d=1, basis_degree=-1)
        xq = np.linspace(0, 1, 7)
        mean, var = GpSpectrum.from_kernel(kern, X).fit(y, 0.2).posterior(xq)
        np.testing.assert_allclose(
            mean, factorize_model(model, X).fit(y, 0.2).predict(xq), atol=1e-10
        )
        np.testing.assert_allclose(
            var, factorize_model(model, X).fit(y, 0.2).posterior(xq)[1], atol=1e-10
        )

    def test_illconditioned_carries_eigenvalue(self, setup):
        X, y = setup
        kern = Kernel.gaussian(epsilon=1e-4)
        with pytest.raises(IllConditioned) as exc:
            GpSpectrum.from_kernel(kern, X).fit(y, 0.0).posterior(X)
        assert exc.value.smallest_eigenvalue is not None

    def test_variance_below_roundoff_raises(self):
        # +|x-y|^3 is indefinite; at sigma2 = 1.5 > 1 = -lambda_min the GP
        # solve is defined, but the quadratic form exceeds the zero prior at
        # the midpoint: the variance is reported, not clamped to zero
        spec = GpSpectrum.from_kernel(Kernel.polyharmonic(2), np.array([0.0, 1.0]))
        with pytest.raises(NegativeVariance):
            spec.fit(np.zeros(2), 1.5).posterior([0.5])


class TestSpectrum:
    def test_one_eigh_and_no_kernel_matrix_kept(self, setup, count_linalg):
        X, _ = setup
        eigh, qr, svd = count_linalg("eigh"), count_linalg("qr"), count_linalg("svd")
        kern = Kernel.gaussian(epsilon=3.0)
        spec = GpSpectrum.from_kernel(kern, X).shifted(1e-6)
        assert len(eigh) == 1 and not qr and not svd
        assert spec.m == 0 and spec.LQ is None and spec.Q.shape == (len(X), 0)
        # without a basis the modes are the eigenvectors of K + nugget I themselves
        assert np.shares_memory(spec.modes, spec.eigvecs)
        K = kernel_matrix(kern, X) + 1e-6 * np.eye(len(X))
        np.testing.assert_allclose(spec.modes.T @ spec.modes, np.eye(len(X)), atol=1e-12)
        np.testing.assert_allclose(K @ spec.modes, spec.modes * spec.evals, atol=1e-12)

    @pytest.mark.parametrize("vectors", [True, False])
    def test_a_nugget_shifts_the_eigenvalues(self, vectors, setup):
        # the nugget is added after the eigensolver, to the eigenvalues alone
        X, _ = setup
        kern = Kernel.matern(1.5, epsilon=2.0, gamma=3.0)
        plain = GpSpectrum.from_kernel(kern, X, vectors=vectors)
        assert plain.shifted(0.0) is plain
        for nugget in (1e-6, 0.5):
            spec = plain.shifted(nugget)
            np.testing.assert_array_equal(spec.evals, plain.evals + nugget)
            assert spec.eigvecs is plain.eigvecs
            assert (spec.gain, spec.model, spec.design) == (plain.gain, plain.model, plain.design)
            if not vectors:
                assert spec.eigvecs is None

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
        spec = GpSpectrum.from_kernel(Kernel.gaussian(epsilon=3.0), X)
        with pytest.raises(ValueError, match="nugget must be nonnegative, got nugget="):
            spec.shifted(nugget)

    @pytest.mark.parametrize("nugget", [0.0, 1e-6])
    def test_a_basis_takes_no_nugget(self, setup, nugget):
        # a shift of the restricted spectrum alone would leave LQ unshifted
        X, _ = setup
        fac = factorize_model(polyharmonic_spm(2, 1), X)
        with pytest.raises(ValueError, match="a model with a basis takes none"):
            fac.shifted(nugget)


class TestValuesOnlySpectrum:
    @given(
        kernel=st.sampled_from(
            [Kernel.matern(1.5), Kernel.matern(2.5), Kernel.exponential(), Kernel.gaussian()]
        ),
        d=st.sampled_from([1, 2]),
        n=st.integers(2, 16),
        seed=st.integers(0, 2**32 - 1),
        log_eps=st.floats(-0.5, 1.0),
        nugget=st.sampled_from([0.0, 1e-8, 1e-4]),
        log_gain=st.floats(-2.0, 1.0),
        log_sigma2=st.floats(-2.0, 0.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_dof_matches_the_eigh_spectrum(
        self, kernel, d, n, seed, log_eps, nugget, log_gain, log_sigma2
    ):
        rng = np.random.default_rng(seed)
        # one point per cell of a regular partition keeps the design well spread
        X = (np.arange(n)[:, None] + rng.uniform(0.1, 0.9, size=(n, d))) / n
        kern = kernel.with_params(epsilon=10.0**log_eps)
        full = GpSpectrum.from_kernel(kern, X).shifted(nugget)
        values = GpSpectrum.from_kernel(kern, X, vectors=False).shifted(nugget)
        assert values.modes is None
        g, sigma2 = 10.0**log_gain, 10.0**log_sigma2
        got = values.scaled(g).dof(sigma2)
        assert got == pytest.approx(full.scaled(g).dof(sigma2), rel=0, abs=1e-10 * n)

    @pytest.mark.parametrize("d", [1, 2])
    def test_singular_kernel_raises_either_way(self, rng, d):
        # at eps = 1e-4 the Gaussian kernel matrix is all ones to round-off;
        # a repeated point makes two rows equal, and the smallest eigenvalue
        # lands at round-off, which may be above zero
        X = rng.uniform(0, 1, size=(10, d))
        repeated = np.vstack([X, X[3]])
        for kern, design in (
            (Kernel.gaussian(epsilon=1e-4), X),
            (Kernel.matern(1.5), repeated),
        ):
            for vectors in (True, False):
                spec = GpSpectrum.from_kernel(kern, design, vectors=vectors)
                with pytest.raises(IllConditioned):
                    spec.dof(0.0)

    def test_values_only_spectrum_refuses_solves(self, setup, count_linalg):
        X, y = setup
        eigh, eigvalsh = count_linalg("eigh"), count_linalg("eigvalsh")
        spec = GpSpectrum.from_kernel(Kernel.matern(1.5, epsilon=2.0), X, vectors=False)
        assert len(eigh) == 0 and len(eigvalsh) == 1
        for call in (
            lambda: spec.smoother(0.1),
            lambda: spec.solve(0.1, y),
            lambda: spec.nlml(y, 0.1),
            lambda: spec.scaled(2.0).smoother(0.1),
        ):
            with pytest.raises(ValueError, match="no eigenvectors"):
                call()


class TestStackedSpectra:
    @given(
        families=st.lists(
            st.tuples(
                st.sampled_from(
                    [Kernel.matern(1.5), Kernel.matern(2.5), Kernel.exponential(),
                     Kernel.gaussian()]
                ),
                st.floats(-1.0, 1.0),
                st.floats(-2.0, 2.0),
            ),
            min_size=1,
            max_size=4,
        ),
        d=st.sampled_from([1, 2]),
        n=st.integers(1, 40),
        seed=st.integers(0, 2**32 - 1),
        nugget=st.sampled_from([0.0, 1e-6]),
    )
    @settings(max_examples=60, deadline=None)
    def test_each_spectrum_is_bitwise_its_own(self, families, d, n, seed, nugget):
        X = np.random.default_rng(seed).uniform(0, 1, size=(n, d))
        kernels = [
            kernel.with_params(epsilon=10.0**log_eps, gamma=10.0**log_gain)
            for kernel, log_eps, log_gain in families
        ]
        y = np.ones(n)
        for vectors in (True, False):
            stacked = [
                spec.shifted(nugget)
                for spec in GpSpectrum.from_kernels(kernels, X, vectors=vectors)
            ]
            assert len(stacked) == len(kernels)
            for kernel, spec in zip(kernels, stacked):
                alone = GpSpectrum.from_kernel(kernel, X, vectors=vectors).shifted(nugget)
                assert spec.gain == alone.gain == kernel.gamma
                assert spec.evals.shape == (n,)
                np.testing.assert_array_equal(spec.evals, alone.evals)
                if vectors:
                    np.testing.assert_array_equal(spec.modes, alone.modes)
                    continue
                assert spec.modes is None
                for call in (
                    lambda: spec.smoother(0.1),
                    lambda: spec.solve(0.1, y),
                    lambda: spec.nlml(y, 0.1),
                ):
                    with pytest.raises(ValueError, match="no eigenvectors"):
                        call()
        for spec in GpSpectrum.from_kernels(kernels, X, vectors=False):
            for bad in (-1e-6, float("nan")):
                with pytest.raises(ValueError, match="nugget"):
                    spec.shifted(bad)

    def test_one_stacked_call(self, setup, count_linalg):
        X, _ = setup
        eigh, eigvalsh = count_linalg("eigh"), count_linalg("eigvalsh")
        kernels = [Kernel.matern(1.5, epsilon=e) for e in (0.5, 1.0, 2.0)]
        GpSpectrum.from_kernels(kernels, X, vectors=False)
        GpSpectrum.from_kernels(kernels[:1], X)
        n = len(X)
        # one kernel is a plain matrix, not a stack of one
        assert eigvalsh == [(3, n, n)] and eigh == [(n, n)]


class TestSmoother:
    def test_tiny_noise_gives_identity(self):
        X = np.linspace(0, 1, 6)
        M = GpSpectrum.from_kernel(Kernel.gaussian(epsilon=3.0), X).smoother(1e-14)
        assert M.trace == pytest.approx(6.0, abs=1e-6)

    def test_huge_noise_gives_zero(self, setup):
        X, _ = setup
        M = GpSpectrum.from_kernel(Kernel.gaussian(epsilon=2.0), X).smoother(1e14)
        assert np.abs(M.matrix).max() <= 1e-10

    def test_trace_is_eigenvalue_filter_sum(self, setup):
        X, _ = setup
        kern = Kernel.gaussian(epsilon=1.5, gamma=2.0)
        sigma2 = 0.3
        M = GpSpectrum.from_kernel(kern, X).smoother(sigma2)
        lam = np.linalg.eigvalsh(
            2.0 * np.exp(-1.5**2 * (X[:, None] - X[None, :]) ** 2)
        )
        assert M.trace == pytest.approx(np.sum(lam / (lam + sigma2)), abs=1e-8)

    def test_eigenvalues_in_unit_interval(self, setup):
        X, _ = setup
        M = GpSpectrum.from_kernel(Kernel.matern(1.5, epsilon=2.0), X).smoother(0.05)
        w = np.linalg.eigvalsh(M.matrix)
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
            assert factorize_model(model, X).smoother(0.2).trace == pytest.approx(p + 1, abs=1e-10)

    def test_identity_smoother(self):
        assert basis_smoother(7, 7).trace == pytest.approx(7.0)

    def test_spline_smoother_matches_eigen_sum(self, rng):
        # the piecewise linear smoothing spline, (I + (eta/2) D^T diag(h) D)^-1
        X = np.sort(rng.uniform(0, 1, 11))
        eta = 0.02
        M = factorize_model(polyharmonic_spm(1, 1), X).smoother(eta)
        assert max(spline_deviation(M, X, 1, eta)) <= SPLINE_TOL


def literal_loo(kernel, X, y, sigma2):
    """n refits, leaving one point out at a time."""
    n = len(y)
    mus, variances = [], []
    for i in range(n):
        keep = [j for j in range(n) if j != i]
        fit = GpSpectrum.from_kernel(kernel, X[keep]).fit(y[keep], sigma2)
        mean, var = fit.posterior(X[i : i + 1])
        mus.append(mean[0])
        variances.append(var[0] + sigma2)
    return np.array(mus), np.array(variances)


class TestLooMse:
    def test_zero_smoother_gives_mean_square(self, rng):
        y = rng.normal(size=9)
        M = basis_smoother(9, 0)
        assert loo_mse(M, y) == pytest.approx(np.mean(y**2))

    def test_matches_literal_refits(self, rng):
        for trial in range(4):
            X = np.sort(rng.uniform(0, 1, 10))
            y = rng.normal(size=10)
            sigma2 = 10.0 ** rng.uniform(-2, 0)
            kern = Kernel.gaussian(epsilon=2.0, gamma=1.4)
            M = GpSpectrum.from_kernel(kern, X).smoother(sigma2)
            mus, _ = literal_loo(kern, X, y, sigma2)
            fast = loo_mse(M, y)
            literal = np.mean((y - mus) ** 2)
            assert fast == pytest.approx(literal, rel=1e-8)

    def test_interpolating_smoother_rejected(self, rng):
        y = rng.normal(size=4)
        with pytest.raises(InterpolatingSmoother):
            loo_mse(basis_smoother(4, 4), y)

    def test_invariant_under_equivalent_model_swap(self, rng):
        X = np.sort(rng.uniform(0, 1, 9))
        y = rng.normal(size=9)
        model = polyharmonic_spm(1, 1)
        other = absorbed_kernel_model(model, X, coefficient=2.5)
        for sigma2 in (0.05, 0.5):
            a = loo_mse(factorize_model(model, X).smoother(sigma2), y)
            b = loo_mse(factorize_model(other, X).smoother(sigma2), y)
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
            fit = loo_factorization(model, X[keep]).fit(y[keep], sigma2)
            mean, var = fit.posterior(X[i : i + 1])
            mus.append(mean[0])
            variances.append(var[0] + sigma2)
        M = loo_factorization(model, X).smoother(sigma2)
        _, (mean,), (var,) = _criteria_rows(M.stack, y, sigma2)
        np.testing.assert_allclose(mean, mus, rtol=1e-8, atol=1e-10)
        np.testing.assert_allclose(var, variances, rtol=1e-8, atol=0)
        literal = np.mean((y - np.array(mus)) ** 2)
        assert loo_mse(M, y) == pytest.approx(literal, rel=1e-8)


class TestLooNll:
    def test_matches_literal_refits(self, rng):
        X = np.sort(rng.uniform(0, 1, 10))
        y = rng.normal(size=10)
        sigma2 = 0.2
        kern = Kernel.matern(1.5, epsilon=1.5, gamma=0.8)
        M = GpSpectrum.from_kernel(kern, X).smoother(sigma2)
        mus, variances = literal_loo(kern, X, y, sigma2)
        literal = np.mean(
            0.5 * np.log(2 * np.pi * variances) + 0.5 * (y - mus) ** 2 / variances
        )
        assert loo_nll(M, y, sigma2) == pytest.approx(literal, rel=1e-8)

    def test_equal_for_equivalent_spms_on_gamma_grid(self, rng):
        X = np.sort(rng.uniform(0, 1, 8))
        y = rng.normal(size=8)
        model = polyharmonic_spm(1, 1)
        other = absorbed_kernel_model(model, X, coefficient=-0.8)
        for gamma in np.geomspace(0.1, 10, 5):
            a = loo_nll(factorize_model(model.scaled(gamma), X).smoother(0.1), y, 0.1)
            b = loo_nll(factorize_model(other.scaled(gamma), X).smoother(0.1), y, 0.1)
            assert a == pytest.approx(b, rel=1e-8)

    def test_scaling_shifts_by_half_log_c(self, rng):
        X = np.sort(rng.uniform(0, 1, 9))
        y = rng.normal(size=9)
        sigma2, c = 0.3, 4.0
        M = GpSpectrum.from_kernel(Kernel.gaussian(epsilon=2.0, gamma=2.0 / 1.0), X).smoother(
            sigma2
        )
        # scaling sigma2 by c and y by sqrt(c) leaves the smoother unchanged
        Mc = GpSpectrum.from_kernel(Kernel.gaussian(epsilon=2.0, gamma=2.0 * c), X).smoother(
            c * sigma2
        )
        np.testing.assert_allclose(M.matrix, Mc.matrix, atol=1e-12)
        base = loo_nll(M, y, sigma2)
        scaled = loo_nll(Mc, math.sqrt(c) * y, c * sigma2)
        assert scaled == pytest.approx(base + 0.5 * math.log(c), abs=1e-10)


class TestSure:
    def test_zero_smoother(self, rng):
        y = rng.normal(size=8)
        M = basis_smoother(8, 0)
        assert sure(M, y, 0.3) == pytest.approx(-0.3 + np.mean(y**2))

    def test_identity_smoother(self, rng):
        y = rng.normal(size=8)
        assert sure(basis_smoother(8, 8), y, 0.25) == pytest.approx(0.25)

    def test_depends_only_on_smoother(self, rng):
        X = np.sort(rng.uniform(0, 1, 8))
        y = rng.normal(size=8)
        model = polyharmonic_spm(1, 1)
        other = absorbed_kernel_model(model, X, coefficient=1.3)
        a = sure(factorize_model(model, X).smoother(0.2), y, 0.2)
        b = sure(factorize_model(other, X).smoother(0.2), y, 0.2)
        assert a == pytest.approx(b, rel=1e-10)


class TestNlml:
    def test_scalar_case_by_hand(self):
        y = np.array([0.7])
        gamma, sigma2 = 1.3, 0.2
        val = GpSpectrum.from_kernel(Kernel.gaussian(gamma=gamma), np.array([0.5])).nlml(y, sigma2)
        expect = 0.5 * math.log(2 * math.pi * (gamma + sigma2)) + y[0] ** 2 / (
            2 * (gamma + sigma2)
        )
        assert val == pytest.approx(expect, rel=1e-12)

    def test_permutation_invariant(self, rng):
        X = rng.uniform(0, 1, size=(8, 2))
        y = rng.normal(size=8)
        perm = rng.permutation(8)
        kern = Kernel.gaussian(epsilon=1.2, gamma=0.9)
        a = GpSpectrum.from_kernel(kern, X).nlml(y, 0.1)
        b = GpSpectrum.from_kernel(kern, X[perm]).nlml(y[perm], 0.1)
        assert a == pytest.approx(b, rel=1e-10)

    def test_diverges_along_flat_limit_path(self, rng):
        # gamma = eps^-p blows the marginal likelihood up as eps -> 0
        X = np.sort(rng.uniform(0, 1, 8))
        y = rng.normal(size=8)
        vals = []
        for eps in (0.4, 0.2, 0.1, 0.05):
            kern = Kernel.gaussian(epsilon=eps, gamma=eps**-3)
            vals.append(GpSpectrum.from_kernel(kern, X).nlml(y, 0.01))
        assert all(b > a for a, b in zip(vals, vals[1:])), vals


def test_criteria_are_python_floats(rng):
    X = np.sort(rng.uniform(0, 1, 9))
    y = rng.normal(size=9)
    kern = Kernel.matern(1.5, epsilon=2.0, gamma=1.1)
    spec = GpSpectrum.from_kernel(kern, X)
    M = spec.smoother(0.1)
    for value in (loo_mse(M, y), loo_nll(M, y, 0.1), sure(M, y, 0.1), spec.nlml(y, 0.1)):
        assert type(value) is float and math.isfinite(value)


def serial_cell(spec, y, sigma2, g):
    """A criteria-grid cell evaluated one smoother at a time: the three
    criteria, or {} and the first error the serial order raises."""
    try:
        M = spec.scaled(g).smoother(sigma2)
        return {
            "loo_mse": loo_mse(M, y), "loo_nll": loo_nll(M, y, sigma2), "sure": sure(M, y, sigma2)
        }, None
    except (FlatGpError, ValueError) as exc:
        return {}, exc


def serial_dof(spec, sigma2, g):
    try:
        return spec.scaled(g).dof(sigma2), None
    except IllConditioned as exc:
        return math.nan, exc


def same_error(a, b):
    return type(a) is type(b) and str(a) == str(b) and (
        getattr(a, "smallest_eigenvalue", None) == getattr(b, "smallest_eigenvalue", None)
    )


class TestGainAxis:
    """One spectrum filtered at G gains at once, against one smoother per gain."""

    @given(
        kernel=st.sampled_from(["gaussian", "matern0.5", "matern1.5", "matern2.5"]),
        d=st.sampled_from([1, 2]),
        n=st.integers(2, 40),
        seed=st.integers(0, 2**32 - 1),
        log_eps=st.floats(-1.5, 1.5),
        log_gains=st.lists(st.floats(-8.0, 12.0), min_size=1, max_size=8),
        sigma2=st.sampled_from([0.0, 1e-4, 1e-2]),
    )
    @settings(max_examples=150, deadline=None)
    def test_batched_gains_match_one_smoother_per_gain(
        self, kernel, d, n, seed, log_eps, log_gains, sigma2
    ):
        rng = np.random.default_rng(seed)
        X, y = rng.uniform(0, 1, size=(n, d)), rng.normal(size=n)
        eps = 10.0**log_eps
        kern = Kernel.gaussian(eps) if kernel == "gaussian" else Kernel.matern(float(kernel[6:]), eps)
        spec = GpSpectrum.from_kernel(kern, X)
        gains = 10.0 ** np.array(log_gains)
        traces, dof_errors = spec.dofs(sigma2, gains)
        for g, trace, error, cell in zip(gains, traces, dof_errors, criteria(spec, y, sigma2, gains)):
            want, want_error = serial_dof(spec, sigma2, g)
            # the trace bitwise, or the same IllConditioned with the same smallest eigenvalue
            assert np.array_equal(trace, want, equal_nan=True)
            assert same_error(error, want_error) if want_error else error is None
            # both as the plain expressions of the scaled eigenvalues give them
            lam = spec.scaled(g).gain * spec.evals
            if want_error:
                assert want_error.smallest_eigenvalue == float(lam.min()) + sigma2
            else:
                assert want == float(np.sum(lam / (lam + sigma2)))
            values, cell_error = cell
            want_values, want_cell_error = serial_cell(spec, y, sigma2, g)
            assert same_error(cell_error, want_cell_error) if want_cell_error else cell_error is None
            assert values.keys() == want_values.keys()
            for name, value in values.items():
                assert value == pytest.approx(want_values[name], rel=1e-12, abs=0), name

    @pytest.mark.parametrize(
        "case, sigma2, kinds",
        [
            # singular at every gain: at sigma2 = 0 the test n u lam_max scales with the gain
            ("flat gaussian", 0.0, {IllConditioned}),
            # large gains pass every mode and interpolate
            ("exponential", 1e-2, {type(None), InterpolatingSmoother}),
            # a basis alone: diag M < 1, but a zero leave-one-out variance
            ("zero kernel, linear basis", 0.0, {DegenerateVariance}),
        ],
    )
    def test_statuses_follow_the_serial_order(self, case, sigma2, kinds, rng):
        X, y = rng.uniform(0, 1, 12), rng.normal(size=12)
        spec = {
            "flat gaussian": lambda: GpSpectrum.from_kernel(Kernel.gaussian(0.5), X),
            "exponential": lambda: GpSpectrum.from_kernel(Kernel.exponential(2.0), X),
            "zero kernel, linear basis": lambda: factorize_model(
                SemiParametricModel(Kernel.zero(), d=1, basis_degree=1), X
            ),
        }[case]()
        gains = np.geomspace(1e-8, 1e12, 21)
        cells = criteria(spec, y, sigma2, gains)
        assert {type(error) for _, error in cells} == kinds
        for g, (values, error) in zip(gains, cells):
            want_values, want_error = serial_cell(spec, y, sigma2, g)
            assert same_error(error, want_error) if want_error else error is None
            assert values == want_values

    def test_negative_or_nan_sigma2_raises(self, rng):
        spec = GpSpectrum.from_kernel(Kernel.gaussian(2.0), rng.uniform(0, 1, 6))
        for sigma2 in (-1e-3, math.nan):
            with pytest.raises(ValueError, match="sigma2"):
                spec.dofs(sigma2, [1.0, 2.0])
            with pytest.raises(ValueError, match="sigma2"):
                criteria(spec, np.zeros(6), sigma2, [1.0, 2.0])

    def test_criteria_make_one_leave_one_out_pass(self, rng, monkeypatch):
        X, y = rng.uniform(0, 1, 9), rng.normal(size=9)
        spec = GpSpectrum.from_kernel(Kernel.matern(1.5, 2.0), X)
        calls, loo_rows = [], gp_module._loo_rows

        def counted(*args):
            calls.append(1)
            return loo_rows(*args)

        monkeypatch.setattr(gp_module, "_loo_rows", counted)
        criteria(spec, y, 0.1, [0.5, 1.0, 2.0])
        assert len(calls) == 1

    def test_one_smoother_reads_its_diagonal_and_fitted_values_once(self, rng):
        X, y = rng.uniform(0, 1, 9), rng.normal(size=9)
        M = GpSpectrum.from_kernel(Kernel.matern(1.5, 2.0), X).smoother(0.1)
        assert M.diagonal().base is M.diagonal().base
        fitted = M.fitted(y)
        assert M.fitted(y.copy()).base is fitted.base
        # another y is smoothed anew
        assert not np.array_equal(M.fitted(y + 1.0), fitted)
        with pytest.raises(ValueError):
            fitted[0] = 0.0  # the kept values are read-only
