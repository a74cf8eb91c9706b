import numpy as np
import pytest

from flatgp import (
    GpSpectrum,
    Kernel,
    LimitCaseKind,
    ScaledKernelFamily,
    SemiParametricModel,
    classify_limit,
    isofreedom_curve,
    kernel_matrix,
    loo_mse,
    loo_nll,
    matched_approximation,
    sure,
    wronskian,
    wronskian_schur,
)
from flatgp.errors import InsufficientGrid, UnreachableDof
from flatgp.polybasis import enumerate_monomials
from flatgp.spm import factorize_model, solve_trace
from references import TOL as REF_TOL, isofreedom_gain


def core_gain(kernel, X, sigma2, m):
    """The gain at dof ``m`` at the kernel's epsilon by the package's trace
    solve, on the eigenvalues of the kernel's unit-gain spectrum."""
    return solve_trace(GpSpectrum.from_kernel(kernel, X).evals, 0.0, m, sigma2)[0]


def gamma_at_first_eps(kernel, X, sigma2, m, eps_grid):
    return core_gain(kernel.with_params(epsilon=eps_grid[0]), X, sigma2, m)


# both isofreedom entry points, called as isofreedom_curve is
ISOFREEDOM_ENTRY_POINTS = [gamma_at_first_eps, isofreedom_curve]


class TestIsofreedomGamma:
    def test_single_point_closed_form(self):
        # one point: gamma lam / (gamma lam + s2) = m  =>  gamma = s2 m / (lam (1 - m))
        X = np.array([0.4])
        kern = Kernel.gaussian(epsilon=1.0, gamma=1.0)
        sigma2, m = 0.3, 0.6
        lam = 1.0  # K is the 1x1 matrix [psi(0)] = [1]
        expect = sigma2 * m / (lam * (1 - m))
        for solve in (core_gain, isofreedom_gain):
            assert solve(kern, X, sigma2, m) == pytest.approx(expect, rel=1e-10)

    def test_residual_within_tolerance(self, rng):
        X = np.sort(rng.uniform(0, 1, 9))
        kern = Kernel.gaussian(epsilon=0.4)
        for m in (1.3, 4.5, 7.2):
            g = core_gain(kern, X, 0.05, m)
            spec = GpSpectrum.from_kernel(kern, X)
            assert abs(spec.scaled(g).dof(0.05) - m) <= 1e-10 * 9

    def test_target_at_n_unreachable(self, rng):
        X = np.sort(rng.uniform(0, 1, 6))
        with pytest.raises(UnreachableDof):
            core_gain(Kernel.gaussian(epsilon=0.5), X, 0.1, 6.0)

    def test_near_n_expands_bracket(self, rng):
        X = np.linspace(0, 1, 6)
        g = core_gain(Kernel.gaussian(), X, 0.1, 5.999)
        assert g > 1e3
        assert g == pytest.approx(isofreedom_gain(Kernel.gaussian(), X, 0.1, 5.999), rel=REF_TOL)

    # spectra resolved well above round-off: the two gains differ by the
    # eigensolvers' rounding of the eigenvalues, which at epsilon = 0.4 is
    # most of the Gaussian's smallest ones
    @pytest.mark.parametrize(
        "kernel",
        [Kernel.gaussian(epsilon=8.0), Kernel.exponential(), Kernel.matern(1.5, epsilon=2.0)],
    )
    @pytest.mark.parametrize("m", [1.3, 4.5, 7.2])
    def test_matches_the_reference(self, kernel, m, rng):
        X = np.sort(rng.uniform(0, 1, 9))
        got, want = core_gain(kernel, X, 0.05, m), isofreedom_gain(kernel, X, 0.05, m)
        assert abs(got - want) <= REF_TOL * want

    def test_reference_rejects_a_moved_target(self, rng):
        # negative control: a target dof moved by 1e-3 moves the gain by far
        # more than the bound
        X = np.sort(rng.uniform(0, 1, 9))
        kern = Kernel.matern(1.5, epsilon=2.0)
        for m in (1.3, 4.5, 7.2):
            got, want = core_gain(kern, X, 0.05, m * (1 + 1e-3)), isofreedom_gain(kern, X, 0.05, m)
            assert abs(got - want) > REF_TOL * want


class TestIsofreedomCurve:
    def test_points_achieve_target(self, rng):
        X = np.sort(rng.uniform(0, 1, 8))
        curve = isofreedom_curve(
            Kernel.gaussian(), X, 0.01, 2.5, np.geomspace(0.3, 0.03, 8)
        )
        for pt in curve.points:
            assert pt.dof_achieved == pytest.approx(2.5, abs=1e-8)

    @pytest.mark.parametrize("kernel", [Kernel.gaussian(), Kernel.exponential()])
    def test_slope_near_integer(self, kernel, rng):
        X = np.sort(rng.uniform(0, 1, 8))
        curve = isofreedom_curve(kernel, X, 0.01, 2.5, np.geomspace(0.3, 0.03, 10))
        assert abs(curve.slope - round(curve.slope)) <= 0.15

    def test_gaussian_slope_is_minus_2l(self, rng):
        # m in (l, l+1) forces gamma ~ eps^{-2l} for the Gaussian
        X = np.sort(rng.uniform(0, 1, 8))
        for m, expected in ((1.5, -2.0), (2.5, -4.0), (3.5, -6.0)):
            curve = isofreedom_curve(
                Kernel.gaussian(), X, 0.01, m, np.geomspace(0.3, 0.03, 10)
            )
            assert curve.slope == pytest.approx(expected, abs=0.15)

    def test_criteria_stabilize_along_curve(self, rng):
        # LOO-MSE, LOO-NLL, SURE settle as eps -> 0 at fixed dof
        X = np.sort(rng.uniform(0, 1, 8))
        y = rng.normal(size=8)
        sigma2 = 0.01
        kern = Kernel.gaussian()
        curve = isofreedom_curve(kern, X, sigma2, 2.5, np.geomspace(0.2, 0.025, 7))
        vals = {"mse": [], "nll": [], "sure": []}
        for pt in curve.points[-2:]:
            M = GpSpectrum.from_kernel(
                kern.with_params(epsilon=pt.epsilon, gamma=pt.gamma), X
            ).smoother(sigma2)
            vals["mse"].append(loo_mse(M, y))
            vals["nll"].append(loo_nll(M, y, sigma2))
            vals["sure"].append(sure(M, y, sigma2))
        for name, (a, b) in vals.items():
            assert abs(b - a) <= 0.05 * max(abs(a), abs(b), 1e-3), (name, a, b)

    @pytest.mark.parametrize("size", [1, 2])
    def test_slope_needs_three_epsilons(self, size, rng):
        X = np.sort(rng.uniform(0, 1, 8))
        with pytest.raises(InsufficientGrid):
            isofreedom_curve(Kernel.gaussian(), X, 0.01, 2.5, np.geomspace(0.3, 0.1, size))


@pytest.mark.parametrize("solve", ISOFREEDOM_ENTRY_POINTS, ids=["gamma", "curve"])
class TestIsofreedomInputChecks:
    def test_nonpositive_sigma2_rejected(self, solve, rng):
        X = np.sort(rng.uniform(0, 1, 6))
        with pytest.raises(ValueError, match="sigma2"):
            solve(Kernel.gaussian(), X, 0.0, 2.5, np.geomspace(0.3, 0.03, 5))

    @pytest.mark.parametrize("m", [0.0, -1.0, 6.0, 7.5])
    def test_dof_outside_range_unreachable(self, solve, m, rng):
        X = np.sort(rng.uniform(0, 1, 6))
        with pytest.raises(UnreachableDof):
            solve(Kernel.gaussian(), X, 0.1, m, np.geomspace(1.0, 0.5, 5))


class TestMatchedApproximation:
    def test_integer_dof_gives_unpenalized_polynomial(self, rng):
        # source tuned to exactly 5 dof -> degree-4 polynomial model
        X = np.sort(rng.uniform(0, 1, 9))
        sigma2 = 0.01
        kern = Kernel.gaussian(epsilon=0.5)
        g5 = core_gain(kern, X, sigma2, 5.0)
        approx = matched_approximation(kern.with_params(gamma=g5), sigma2, X)
        assert approx.case is LimitCaseKind.UNPENALIZED_POLYNOMIAL
        assert approx.factorization.model.basis_degree == 4
        assert approx.achieved_dof == pytest.approx(5.0, abs=1e-6)

    def test_gaussian_fractional_dof_penalized(self, rng):
        X = np.sort(rng.uniform(0, 1, 9))
        approx = matched_approximation(Kernel.gaussian(gamma=30.0), 0.01, X)
        assert approx.case is LimitCaseKind.PENALIZED_POLYNOMIAL
        assert approx.achieved_dof == pytest.approx(approx.source_dof, abs=1e-6)

    def test_matern_spline_target_matches_dof(self, rng):
        X = np.sort(rng.uniform(0, 1, 10))
        approx = matched_approximation(Kernel.matern(1.5, epsilon=2.0, gamma=5.0), 0.01, X)
        assert approx.case is LimitCaseKind.SPLINE_REGRESSION
        assert approx.factorization.model.kernel.order == 2
        assert approx.achieved_dof == pytest.approx(approx.source_dof, abs=1e-6)

    def test_matern_low_dof_falls_back_to_polynomial(self, rng):
        X = np.sort(rng.uniform(0, 1, 10))
        kern = Kernel.matern(1.5, epsilon=0.8)
        g = core_gain(kern, X, 0.05, 1.5)
        approx = matched_approximation(kern.with_params(gamma=g), 0.05, X)
        assert approx.case is LimitCaseKind.PENALIZED_POLYNOMIAL
        assert approx.achieved_dof == pytest.approx(1.5, abs=1e-6)

    def test_dof_at_n_rejected(self, rng):
        X = np.sort(rng.uniform(0, 1, 6))
        with pytest.raises(UnreachableDof):
            matched_approximation(Kernel.gaussian(epsilon=5.0, gamma=1e12), 1e-12, X)

    def test_approximation_sharpens_along_isofreedom_curve(self, rng):
        # following the curve to eps -> 0, source and target predictions merge
        X = np.sort(rng.uniform(0, 1, 8))
        y = rng.normal(size=8)
        sigma2, m = 0.01, 2.5
        kern = Kernel.gaussian()
        xq = np.linspace(0, 1, 20)
        devs = []
        for eps in (0.4, 0.2, 0.1, 0.05):
            g = core_gain(kern.with_params(epsilon=eps), X, sigma2, m)
            source = kern.with_params(epsilon=eps, gamma=g)
            approx = matched_approximation(source, sigma2, X)
            mean_src, _ = GpSpectrum.from_kernel(source, X).fit(y, sigma2).posterior(xq)
            mean_tgt = approx.fit(y).predict(xq)
            devs.append(np.abs(mean_src - mean_tgt).max())
        slope = np.polyfit(np.log([0.4, 0.2, 0.1, 0.05]), np.log(devs), 1)[0]
        assert slope >= 0.8, (devs, slope)
        assert devs[-1] < devs[0]


def matched_cases():
    """(source kernel, sigma2, X, expected case, flat-limit exponent p) for
    each case a matched target can take.  With P_j the dimension of
    polynomials of degree <= j and P_{k-1} <= dof < P_k, p is 2r - 1 for a
    spline, 2k - 1 for an unpenalized and 2k for a penalized polynomial."""
    rng = np.random.default_rng(7)
    x9 = np.sort(rng.uniform(0, 1, 9))
    x10 = np.sort(rng.uniform(0, 1, 10))
    x2d = rng.uniform(0, 1, size=(30, 2))
    gauss, matern = Kernel.gaussian(epsilon=0.5), Kernel.matern(1.5, epsilon=0.8)

    def at_dof(kernel, X, sigma2, m):
        return kernel.with_params(gamma=core_gain(kernel, X, sigma2, m))

    return {
        # dof in [P_1, n): the order-2 spline
        "spline": (
            Kernel.matern(1.5, epsilon=2.0, gamma=5.0), 0.01, x10,
            LimitCaseKind.SPLINE_REGRESSION, 3,
        ),
        # dof exactly P_4 = 5: degree-4 least squares
        "unpenalized": (
            at_dof(gauss, x9, 0.01, 5.0), 0.01, x9, LimitCaseKind.UNPENALIZED_POLYNOMIAL, 9,
        ),
        # dof 1.5 in (P_0, P_1), below the spline floor P_1: the degree-1 block
        "penalized-matern": (
            at_dof(matern, x10, 0.05, 1.5), 0.05, x10, LimitCaseKind.PENALIZED_POLYNOMIAL, 2,
        ),
        # d = 2, dof 4.5 in (P_1, P_2) = (3, 6): the degree-2 block
        "penalized-gaussian": (
            at_dof(gauss, x2d, 0.01, 4.5), 0.01, x2d, LimitCaseKind.PENALIZED_POLYNOMIAL, 4,
        ),
    }


class TestMatchedTarget:
    @pytest.mark.parametrize("name", sorted(matched_cases()))
    def test_target_is_the_classified_limit(self, name):
        kern, sigma2, X, kind, p = matched_cases()[name]
        approx = matched_approximation(kern, sigma2, X)
        model = classify_limit(ScaledKernelFamily(kern, p=p), X).equivalent_model
        assert approx.case is kind
        target, fac = approx.factorization.model, approx.factorization
        assert target.basis_degree == model.basis_degree
        assert target.kernel.family is model.kernel.family
        # the target is the classified model at the tuned gain
        gain = fac.gain / model.kernel.gamma
        np.testing.assert_allclose(
            fac.gain * kernel_matrix(target.kernel, X),
            gain * kernel_matrix(model.kernel, X),
            rtol=1e-12, atol=0,
        )
        assert approx.achieved_dof == pytest.approx(approx.source_dof, abs=1e-6)

    def test_gaussian_target_predicts_as_the_wronskian_schur_block(self, rng):
        # the classified Gaussian model is (2^2 / 2!) (x^T y)^2 in closed
        # form; the degree-2 Wronskian-Schur block, built from the Wronskian
        # alone, predicts as it does at the tuned gain
        kern, sigma2, X, _, _ = matched_cases()["penalized-gaussian"]
        approx = matched_approximation(kern, sigma2, X)
        unit = kern.with_params(epsilon=1.0, gamma=1.0)
        Wbar = wronskian_schur(wronskian(unit, 2, 2), 2, 2)
        exponents = [e for e in enumerate_monomials(2, 2) if sum(e) == 2]
        block = SemiParametricModel(Kernel.monomial_block(exponents, Wbar), d=2, basis_degree=1)
        fac = factorize_model(block, X)
        g, _ = solve_trace(fac.evals, fac.m, approx.source_dof, sigma2)
        y = rng.normal(size=len(X))
        xq = rng.uniform(0, 1, size=(40, 2))
        want = fac.scaled(g).fit(y, sigma2).posterior(xq)
        got = approx.fit(y).posterior(xq)
        for a, b in zip(got, want):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-9)

    def test_spline_target_predicts_as_the_classified_spline(self, rng):
        # the classified order-2 spline at its tuned gain, fitted at the
        # source sigma2: mean and variance
        kern, sigma2, X, _, p = matched_cases()["spline"]
        approx = matched_approximation(kern, sigma2, X)
        model = classify_limit(ScaledKernelFamily(kern, p=p), X).equivalent_model
        fac = factorize_model(model, X)
        g, _ = solve_trace(fac.evals, fac.m, approx.source_dof, sigma2)
        y = rng.normal(size=len(X))
        xq = np.linspace(0, 1, 40)
        # g is the gain itself: it replaces the classified model's gain
        want = fac.scaled(g / fac.gain).fit(y, sigma2).posterior(xq)
        got = approx.fit(y).posterior(xq)
        for a, b in zip(got, want):
            np.testing.assert_allclose(a, b, rtol=1e-9, atol=1e-12)
        assert approx.penalty == pytest.approx(sigma2 / g, rel=1e-12)

    def test_spline_variance_is_on_the_gp_scale(self):
        # matched and GP variances agree where their means do; a target
        # fitted at another noise variance scales its variance by the ratio
        rng = np.random.default_rng(101)
        X = rng.uniform(0, 1, 400)
        y = np.sin(3 * X) + 0.1 * rng.normal(size=400)
        xq = np.linspace(0, 1, 200)
        kern, sigma2 = Kernel.matern(1.5, epsilon=2.0, gamma=5.0), 0.01
        approx = matched_approximation(kern, sigma2, X)
        assert approx.case is LimitCaseKind.SPLINE_REGRESSION
        _, var_src = approx.source.fit(y, sigma2).posterior(xq)
        _, var_tgt = approx.fit(y).posterior(xq)
        assert 0.98 <= np.median(var_tgt / var_src) <= 1.02

    def test_keeps_the_source_spectrum(self, rng):
        X = np.sort(rng.uniform(0, 1, 10))
        kern = Kernel.matern(1.5, epsilon=2.0, gamma=5.0)
        approx = matched_approximation(kern, 0.01, X)
        spec = GpSpectrum.from_kernel(kern, X)
        np.testing.assert_array_equal(approx.source.evals, spec.evals)
        assert approx.source.gain == 5.0
        assert approx.source.dof(0.01) == approx.source_dof
