import numpy as np
import pytest

from flatgp import (
    GpSpectrum,
    Kernel,
    LimitCaseKind,
    gp_posterior,
    gp_smoother,
    isofreedom_curve,
    isofreedom_gamma,
    loo_mse,
    loo_nll,
    matched_approximation,
    sure,
)
from flatgp.errors import InsufficientGrid, UnreachableDof


def gamma_at_first_eps(kernel, X, sigma2, m, eps_grid):
    return isofreedom_gamma(kernel, X, sigma2, eps_grid[0], m)


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
        got = isofreedom_gamma(kern, X, sigma2, 1.0, m)
        assert got == pytest.approx(expect, rel=1e-10)

    def test_residual_within_tolerance(self, rng):
        X = np.sort(rng.uniform(0, 1, 9))
        kern = Kernel.gaussian()
        for m in (1.3, 4.5, 7.2):
            g = isofreedom_gamma(kern, X, 0.05, 0.4, m)
            spec = GpSpectrum.from_kernel(kern.with_params(epsilon=0.4), X)
            assert abs(spec.scaled(g).dof(0.05) - m) <= 1e-10 * 9

    def test_target_at_n_unreachable(self, rng):
        X = np.sort(rng.uniform(0, 1, 6))
        with pytest.raises(UnreachableDof):
            isofreedom_gamma(Kernel.gaussian(), X, 0.1, 0.5, 6.0)

    def test_near_n_expands_bracket(self, rng):
        X = np.linspace(0, 1, 6)
        g = isofreedom_gamma(Kernel.gaussian(), X, 0.1, 1.0, 5.999)
        assert g > 1e3


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
            M = gp_smoother(
                kern.with_params(epsilon=pt.epsilon, gamma=pt.gamma), X, sigma2
            )
            vals["mse"].append(loo_mse(M, y).value)
            vals["nll"].append(loo_nll(M, y, sigma2).value)
            vals["sure"].append(sure(M, y, sigma2).value)
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
        kern = Kernel.gaussian()
        g5 = isofreedom_gamma(kern, X, sigma2, 0.5, 5.0)
        approx = matched_approximation(kern, 0.5, g5, sigma2, X)
        assert approx.case is LimitCaseKind.UNPENALIZED_POLYNOMIAL
        assert approx.target.basis_degree == 4
        assert approx.achieved_dof == pytest.approx(5.0, abs=1e-6)

    def test_gaussian_fractional_dof_penalized(self, rng):
        X = np.sort(rng.uniform(0, 1, 9))
        approx = matched_approximation(Kernel.gaussian(), 1.0, 30.0, 0.01, X)
        assert approx.case is LimitCaseKind.PENALIZED_POLYNOMIAL
        assert approx.achieved_dof == pytest.approx(approx.source_dof, abs=1e-6)

    def test_matern_spline_target_matches_dof(self, rng):
        X = np.sort(rng.uniform(0, 1, 10))
        approx = matched_approximation(Kernel.matern(1.5), 2.0, 5.0, 0.01, X)
        assert approx.case is LimitCaseKind.SPLINE_REGRESSION
        assert approx.target.kernel.order == 2
        assert approx.achieved_dof == pytest.approx(approx.source_dof, abs=1e-6)

    def test_matern_low_dof_falls_back_to_polynomial(self, rng):
        X = np.sort(rng.uniform(0, 1, 10))
        kern = Kernel.matern(1.5)
        g = isofreedom_gamma(kern, X, 0.05, 0.8, 1.5)
        approx = matched_approximation(kern, 0.8, g, 0.05, X)
        assert approx.case is LimitCaseKind.PENALIZED_POLYNOMIAL
        assert approx.achieved_dof == pytest.approx(1.5, abs=1e-6)

    def test_dof_at_n_rejected(self, rng):
        X = np.sort(rng.uniform(0, 1, 6))
        with pytest.raises(UnreachableDof):
            matched_approximation(Kernel.gaussian(epsilon=5.0), 5.0, 1e12, 1e-12, X)

    def test_approximation_sharpens_along_isofreedom_curve(self, rng):
        # following the curve to eps -> 0, source and target predictions merge
        X = np.sort(rng.uniform(0, 1, 8))
        y = rng.normal(size=8)
        sigma2, m = 0.01, 2.5
        kern = Kernel.gaussian()
        xq = np.linspace(0, 1, 20)
        devs = []
        for eps in (0.4, 0.2, 0.1, 0.05):
            g = isofreedom_gamma(kern, X, sigma2, eps, m)
            approx = matched_approximation(kern, eps, g, sigma2, X)
            mean_src, _ = gp_posterior(
                kern.with_params(epsilon=eps, gamma=g), X, y, sigma2, xq
            )
            mean_tgt = approx.predict(y, xq)
            devs.append(np.abs(mean_src - mean_tgt).max())
        slope = np.polyfit(np.log([0.4, 0.2, 0.1, 0.05]), np.log(devs), 1)[0]
        assert slope >= 0.8, (devs, slope)
        assert devs[-1] < devs[0]
