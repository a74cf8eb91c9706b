import math

import numpy as np
import pytest

from flatgp import (
    Family,
    Kernel,
    LimitCaseKind,
    ScaledKernelFamily,
    SemiParametricModel,
    absorbed_kernel_model,
    check_pred_equiv,
    classify_limit,
    convergence_study,
    gp_smoother,
    limiting_smoother,
    match_scale,
    polyharmonic_spm,
    prediction_curve,
    recombined_basis_model,
    spm_smoother,
    vandermonde,
)
from flatgp.errors import IncomparableModels, InsufficientGrid, NotProportional


class TestClassify:
    def test_exponential_p1_is_linear_spline(self):
        case = classify_limit(1, 1, 1)
        assert case.kind is LimitCaseKind.SPLINE_REGRESSION
        model = case.equivalent_model
        assert model.kernel.family is Family.POLYHARMONIC
        assert model.kernel.order == 1 and model.basis_degree == 0

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_spline_case_at_p_equals_2r_minus_1(self, r):
        case = classify_limit(r, 2 * r - 1, 2)
        assert case.kind is LimitCaseKind.SPLINE_REGRESSION
        assert case.equivalent_model.basis_degree == r - 1
        assert case.equivalent_model.kernel.order == r

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("m", [1, 2])
    def test_gaussian_even_case_is_polynomial_kernel(self, d, m):
        case = classify_limit(math.inf, 2 * m, d, kernel=Kernel.gaussian())
        assert case.kind is LimitCaseKind.PENALIZED_POLYNOMIAL
        assert case.equivalent_model.kernel.family is Family.POLYNOMIAL
        assert case.equivalent_model.kernel.order == m
        assert case.equivalent_model.basis_degree == m - 1
        assert case.scale_free

    def test_odd_case_basis_dimension(self):
        # p = 2m+1: dimension (p+1)/2, i.e. degree (p-1)/2
        for p in (1, 3, 5, 7):
            case = classify_limit(math.inf, p, 1)
            assert case.kind is LimitCaseKind.UNPENALIZED_POLYNOMIAL
            assert case.basis_degree == (p - 1) // 2

    def test_interpolation_beyond_2r_minus_1(self):
        case = classify_limit(2, 5, 1)
        assert case.kind is LimitCaseKind.INTERPOLATION
        assert case.equivalent_model.kernel.family is Family.POLYHARMONIC

    def test_saturated_basis_is_interpolation(self):
        case = classify_limit(math.inf, 2 * 8 - 1, 1, n=8)
        assert case.kind is LimitCaseKind.INTERPOLATION
        assert case.equivalent_model.basis_degree == 7

    def test_non_gaussian_even_case_materializes_wronskian_kernel(self):
        case = classify_limit(2, 2, 1, kernel=Kernel.matern(1.5))
        assert case.kind is LimitCaseKind.PENALIZED_POLYNOMIAL
        assert case.equivalent_model.kernel.family is Family.MONOMIAL
        assert not case.scale_free

    def test_case_table_exhaustive(self):
        kinds = set()
        for r in (1, 2, 3, math.inf):
            for p in range(8):
                for d in (1, 2):
                    kernel = (
                        Kernel.gaussian() if r == math.inf else Kernel.matern(r - 0.5)
                    )
                    case = classify_limit(r, p, d, n=20, kernel=kernel)
                    assert case.kind in LimitCaseKind
                    assert case.equivalent_model.basis_degree >= -1
                    kinds.add(case.kind)
        assert kinds == set(LimitCaseKind)


class TestLimitingSmoother:
    def test_odd_case_is_projector_with_trace_l(self, rng):
        X = np.sort(rng.uniform(0, 1, 8))
        for p in (1, 3, 5):
            family = ScaledKernelFamily(Kernel.gaussian(), p=p)
            M = limiting_smoother(family, X, 0.01)
            l = (p + 1) // 2
            assert M.trace == pytest.approx(l, abs=1e-9)
            assert np.abs(M.matrix @ M.matrix - M.matrix).max() <= 1e-9

    def test_saturated_case_is_identity(self, rng):
        X = np.sort(rng.uniform(0, 1, 8))
        family = ScaledKernelFamily(Kernel.gaussian(), p=15)
        np.testing.assert_allclose(
            limiting_smoother(family, X, 0.01).matrix, np.eye(8), atol=1e-12
        )

    def test_rough_kernel_high_p_is_identity(self, rng):
        X = np.sort(rng.uniform(0, 1, 8))
        family = ScaledKernelFamily(Kernel.exponential(), p=2)
        np.testing.assert_allclose(
            limiting_smoother(family, X, 0.01).matrix, np.eye(8), atol=1e-12
        )

    @pytest.mark.parametrize(
        "kernel,p",
        [
            (Kernel.gaussian(), 3),
            (Kernel.exponential(), 1),
            (Kernel.matern(1.5), 3),
        ],
    )
    def test_finite_eps_smoother_converges_linearly(self, kernel, p, rng):
        X = np.sort(rng.uniform(0, 1, 8))
        sigma2 = 0.01
        family = ScaledKernelFamily(kernel, p=p)
        M0 = limiting_smoother(family, X, sigma2).matrix
        devs = []
        for eps in (0.1, 0.05, 0.025):
            M = gp_smoother(family.kernel_at(eps), X, sigma2).matrix
            devs.append(np.abs(M - M0).max())
        ratios = [devs[i] / devs[i + 1] for i in range(2)]
        assert all(1.3 <= r <= 3.0 for r in ratios), (devs, ratios)

    @pytest.mark.parametrize("p", [0, 2, 4])
    def test_even_case_finite_eps_converges(self, p, rng):
        # even-p deviations shrink at least linearly (quadratically in fact:
        # the Gaussian expansion has only even powers, giving ratios near 4)
        X = np.sort(rng.uniform(0, 1, 8))
        sigma2 = 0.01
        family = ScaledKernelFamily(Kernel.gaussian(), p=p)
        M0 = limiting_smoother(family, X, sigma2).matrix
        devs = []
        for eps in (0.1, 0.05, 0.025):
            M = gp_smoother(family.kernel_at(eps), X, sigma2).matrix
            devs.append(np.abs(M - M0).max())
        ratios = [devs[i] / devs[i + 1] for i in range(2)]
        assert all(1.3 <= r <= 4.5 for r in ratios), (devs, ratios)

    def test_even_case_structure(self, rng):
        # M0 = A + B Gamma B^T with A the low-degree projector and B^T A = 0
        X = rng.uniform(0, 1, size=(12, 2))
        sigma2 = 0.05
        family = ScaledKernelFamily(Kernel.gaussian(), p=2, gamma0=0.7)
        M0 = limiting_smoother(family, X, sigma2).matrix
        A = vandermonde(X, 0).q_prefix(0)
        A = A @ A.T
        assert np.abs(A @ A - A).max() <= 1e-9
        rest = M0 - A
        assert np.abs(rest @ A).max() <= 1e-9
        w = np.linalg.eigvalsh(M0)
        assert w.min() >= -1e-9 and w.max() <= 1 + 1e-9

    def test_spline_case_matches_spm_smoother_scaled(self, rng):
        # exact correspondence: gain gamma0 |f_{2r-1}| on the polyharmonic SPM
        X = np.sort(rng.uniform(0, 1, 9))
        sigma2 = 0.04
        gamma0 = 1.7
        family = ScaledKernelFamily(Kernel.matern(1.5), p=3, gamma0=gamma0)
        M0 = limiting_smoother(family, X, sigma2)
        f3 = math.sqrt(3)  # leading odd coefficient of the nu=3/2 profile
        M_spm = spm_smoother(polyharmonic_spm(2, 1).scaled(gamma0 * f3), X, sigma2)
        np.testing.assert_allclose(M0.matrix, M_spm.matrix, atol=1e-10)

    def test_eigenvalue_valuations(self, rng):
        # sorted eigenvalues scale as eps^{2(i-1)} for i <= r, eps^{2r-1} after
        X = np.sort(rng.uniform(0, 1, 8))
        for kernel, r in ((Kernel.exponential(), 1), (Kernel.matern(1.5), 2)):
            predicted = [2 * i if i < r else 2 * r - 1 for i in range(8)]
            lams = []
            for eps in (0.1, 0.05, 0.025):
                from flatgp import kernel_matrix

                K = kernel_matrix(kernel.with_params(epsilon=eps), X)
                lams.append(np.sort(np.abs(np.linalg.eigvalsh(K)))[::-1])
            slopes = np.polyfit(
                np.log([0.1, 0.05, 0.025]), np.log(np.asarray(lams)), 1
            )[0]
            assert np.abs(slopes - predicted).max() <= 0.3


class TestPredEquiv:
    def test_kernel_absorption(self, rng):
        X = np.sort(rng.uniform(0, 1, 8))
        model = polyharmonic_spm(1, 1)
        ok, rep = check_pred_equiv(model, absorbed_kernel_model(model, 2.0), X, seed=3)
        assert ok, rep

    def test_basis_recombination(self, rng):
        X = rng.uniform(0, 1, size=(10, 2))
        model = SemiParametricModel(Kernel.gaussian(epsilon=2.0), d=2, basis_degree=1)
        ok, rep = check_pred_equiv(model, recombined_basis_model(model, seed=7), X, seed=4)
        assert ok, rep

    def test_scaled_kernel_not_equivalent(self, rng):
        X = np.sort(rng.uniform(0, 1, 8))
        model = polyharmonic_spm(1, 1)
        ok, rep = check_pred_equiv(model, model.scaled(2.0), X, seed=5)
        assert not ok
        assert rep.max_mean_dev > 1e-4

    def test_basis_size_mismatch_raises(self, rng):
        X = np.sort(rng.uniform(0, 1, 8))
        with pytest.raises(IncomparableModels):
            check_pred_equiv(polyharmonic_spm(1, 1), polyharmonic_spm(2, 1), X)

    def test_transitivity_spot_check(self, rng):
        X = np.sort(rng.uniform(0, 1, 8))
        model = polyharmonic_spm(1, 1)
        b = absorbed_kernel_model(model, 1.5)
        c = recombined_basis_model(model, seed=11)
        ok_ab, _ = check_pred_equiv(model, b, X, seed=6)
        ok_ac, _ = check_pred_equiv(model, c, X, seed=6)
        ok_bc, _ = check_pred_equiv(b, c, X, seed=6)
        assert ok_ab and ok_ac and ok_bc


class TestMatchScale:
    def test_recovers_inverse_of_scaling(self, rng):
        X = np.sort(rng.uniform(0, 1, 9))
        model = polyharmonic_spm(1, 1)
        alpha = match_scale(model, model.scaled(4.0), X, 0.1)
        assert alpha == pytest.approx(0.25, rel=1e-6)

    @pytest.mark.parametrize("m,d", [(1, 1), (1, 2), (2, 2)])
    def test_gaussian_wronskian_block_vs_polynomial_kernel(self, m, d, rng):
        # Schur diagonal 2^m/alpha! against (x^T y)^m with coefficients m!/alpha!
        X = rng.uniform(0, 1, size=(12, d))
        case = classify_limit(math.inf, 2 * m, d, kernel=Kernel.gaussian())
        from flatgp.flatlimit import _monomial_block_kernel

        wmodel = SemiParametricModel(
            _monomial_block_kernel(Kernel.gaussian(), m, d), d=d, basis_degree=m - 1
        )
        alpha = match_scale(wmodel, case.equivalent_model, X, 0.05)
        assert alpha == pytest.approx(2.0**m / math.factorial(m), rel=1e-6)

    def test_unrelated_kernels_not_proportional(self, rng):
        X = np.sort(rng.uniform(0, 1, 10))
        a = SemiParametricModel(Kernel.polynomial(1), d=1, basis_degree=0)
        b = SemiParametricModel(Kernel.polynomial(2), d=1, basis_degree=0)
        with pytest.raises(NotProportional):
            match_scale(a, b, X, 0.05)


class TestConvergenceStudy:
    def test_gaussian_odd_case(self, rng):
        X = np.sort(rng.uniform(0, 1, 8))
        xq = np.linspace(0, 1, 25)[:, None]
        family = ScaledKernelFamily(Kernel.gaussian(), p=3)
        report = convergence_study(
            family, X, xq, [0.2, 0.1, 0.05, 0.025], 0.01, tol=0.5
        )
        # arbiter for the odd case: the basis has dimension (p+1)/2 = 2
        assert report.case.kind is LimitCaseKind.UNPENALIZED_POLYNOMIAL
        assert report.case.basis_degree == 1
        assert report.slope_mean >= 0.8
        assert report.passed

    def test_exponential_spline_case(self, rng):
        X = np.sort(rng.uniform(0, 1, 8))
        xq = np.linspace(0, 1, 25)[:, None]
        family = ScaledKernelFamily(Kernel.exponential(), p=1)
        report = convergence_study(
            family, X, xq, [0.2, 0.1, 0.05, 0.025], 0.01, tol=0.05
        )
        assert report.case.kind is LimitCaseKind.SPLINE_REGRESSION
        assert report.slope_mean >= 0.8 and report.passed
        assert report.slope_var >= 0.8

    def test_constant_gamma_gives_penalized_constant(self, rng):
        # p = 0: the GP mean tends to a penalized constant fit
        X = np.sort(rng.uniform(0, 1, 8))
        xq = np.linspace(0, 1, 10)[:, None]
        family = ScaledKernelFamily(Kernel.gaussian(), p=0, gamma0=0.5)
        report = convergence_study(
            family, X, xq, [0.1, 0.05, 0.025, 0.0125], 0.01, tol=0.05
        )
        assert report.case.kind is LimitCaseKind.PENALIZED_POLYNOMIAL
        assert report.case.m == 0 and report.case.equivalent_model.basis_size() == 0
        assert report.slope_mean >= 0.8

    def test_too_few_epsilons(self, rng):
        X = np.sort(rng.uniform(0, 1, 8))
        family = ScaledKernelFamily(Kernel.gaussian(), p=1)
        with pytest.raises(InsufficientGrid):
            convergence_study(family, X, X[:, None], [0.2, 0.1], 0.01)


class TestWorkCounts:
    """Call counts, not timings: reuse of factorizations must not regress."""

    @pytest.mark.parametrize("num_trials", [1, 5])
    def test_check_pred_equiv_factors_each_model_once(self, count_linalg, rng, num_trials):
        X = np.sort(rng.uniform(0, 1, 20))
        model = polyharmonic_spm(2, 1)
        eigh = count_linalg("eigh")
        svd = count_linalg("svd")
        ok, _ = check_pred_equiv(
            model, recombined_basis_model(model, seed=1), X, num_trials=num_trials
        )
        assert ok
        # each model on X once; augmented designs are bordered updates, never factored
        assert len(eigh) == 2
        # eigh sees the kernel restricted to the complement of the basis: on X
        # that is n - m rows, on an augmented design it would be n + 1 - m
        n, m = len(X), model.basis_size()
        assert all(shape == (n - m, n - m) for shape in eigh)
        # the only SVDs are rank checks of the n x m basis matrices on X
        assert svd and all(shape == (n, m) for shape in svd)

    def test_convergence_study_one_eigh_per_eps(self, count_linalg, rng):
        X = np.sort(rng.uniform(0, 1, 12))
        xq = np.linspace(0, 1, 7)[:, None]
        family = ScaledKernelFamily(Kernel.exponential(), p=1)
        eigh = count_linalg("eigh")

        def count(eps_grid, num_trials):
            eigh.clear()
            convergence_study(family, X, xq, eps_grid, 0.01, num_trials=num_trials)
            return len(eigh)

        # exponential p=1 is scale-free: one eigh for the limiting smoother, one
        # for the limit model (reused at its matched gain), then one per epsilon
        assert count([0.2, 0.1, 0.05], 1) == 2 + 3
        assert count([0.2, 0.1, 0.05, 0.025, 0.0125], 1) == 2 + 5
        assert count([0.2, 0.1, 0.05], 6) == 2 + 3


class TestPredictionCurve:
    def test_endpoints_and_anchors(self, rng):
        X = np.sort(rng.uniform(0, 1, 8))
        y = rng.normal(size=8) + X
        curve = prediction_curve(
            Kernel.gaussian(), X, y, 0.01, 1.5,
            np.geomspace(1e-8, 1e14, 220), X[2], X[5],
        )
        first, last = curve.points[0], curve.points[-1]
        assert abs(first[0]) <= 1e-4 and abs(first[1]) <= 1e-4
        assert last[0] == pytest.approx(y[2], abs=1e-3)
        assert last[1] == pytest.approx(y[5], abs=1e-3)
        assert curve.anchors[0][0] == 0
        assert len(curve.anchors) == 8

    def test_curve_approaches_anchors_as_eps_shrinks(self, rng):
        X = np.sort(rng.uniform(0, 1, 8))
        y = rng.normal(size=8) + 1.5 * X
        grid = np.geomspace(1e-4, 1e10, 400)
        dists = {deg: [] for deg in (0, 1, 2)}
        for eps in (0.4, 0.2, 0.1):
            curve = prediction_curve(Kernel.gaussian(), X, y, 0.01, eps, grid, 0.2, 0.8)
            pts = np.array([p for p in curve.points if p is not None])
            for deg, pa, pb in curve.anchors[:3]:
                dists[deg].append(float(np.hypot(pts[:, 0] - pa, pts[:, 1] - pb).min()))
        for deg, seq in dists.items():
            assert seq[0] > seq[2], (deg, seq)
            assert seq[2] <= 0.05 * max(1.0, np.abs(y).max())


class TestReportBookkeeping:
    def test_seed_recorded_and_reproducible(self, rng):
        X = np.sort(rng.uniform(0, 1, 8))
        xq = np.linspace(0, 1, 10)[:, None]
        family = ScaledKernelFamily(Kernel.exponential(), p=1)
        r1 = convergence_study(family, X, xq, [0.2, 0.1, 0.05], 0.01, seed=42)
        r2 = convergence_study(family, X, xq, [0.2, 0.1, 0.05], 0.01, seed=42)
        assert r1.mean_devs == r2.mean_devs
        assert r1.seed == 42
