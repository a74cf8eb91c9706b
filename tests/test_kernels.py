import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gamma as gamma_fn
from scipy.spatial.distance import cdist
from scipy.special import kv

from flatgp import (
    INF_REGULARITY,
    Kernel,
    count_poly_dim,
    enumerate_monomials,
    eval_kernel,
    kernel_cross,
    kernel_diag,
    kernel_matrix,
    leading_odd_coefficient,
    radial_series,
    regularity,
    wronskian,
    wronskian_schur,
)
from flatgp.errors import SeriesTruncation, SingularWronskianBlock, UnknownRegularity
from flatgp.kernels import Family, _matern_poly_coeffs, profile


def bessel_matern(nu, eps, gamma, x, y):
    u = eps * np.linalg.norm(np.atleast_1d(x) - np.atleast_1d(y))
    if u == 0:
        return gamma
    s = math.sqrt(2 * nu) * u
    return gamma * (2 ** (1 - nu) / gamma_fn(nu)) * s**nu * kv(nu, s)


class TestEval:
    def test_gaussian_at_coincident_points_returns_gain(self):
        k = Kernel.gaussian(epsilon=3.0, gamma=2.5)
        assert eval_kernel(k, [0.3, 0.4], [0.3, 0.4]) == 2.5

    def test_matern_half_is_exponential(self, rng):
        k_m = Kernel.matern(0.5, epsilon=1.7, gamma=0.8)
        k_e = Kernel.exponential(epsilon=1.7, gamma=0.8)
        for _ in range(5):
            x, y = rng.normal(size=2), rng.normal(size=2)
            assert eval_kernel(k_m, x, y) == pytest.approx(eval_kernel(k_e, x, y), rel=1e-14)

    @pytest.mark.parametrize("nu", [0.5, 1.5, 2.5, 3.5])
    def test_matern_closed_forms_match_bessel(self, nu, rng):
        k = Kernel.matern(nu, epsilon=1.3, gamma=1.9)
        for _ in range(8):
            x, y = rng.normal(size=3), rng.normal(size=3)
            assert eval_kernel(k, x, y) == pytest.approx(
                bessel_matern(nu, 1.3, 1.9, x, y), rel=1e-10
            )

    def test_matern_three_half_closed_form(self):
        k = Kernel.matern(1.5)
        t = 0.7
        expect = (1 + math.sqrt(3) * t) * math.exp(-math.sqrt(3) * t)
        assert eval_kernel(k, [0.0], [t]) == pytest.approx(expect, rel=1e-14)

    def test_polynomial_kernel(self):
        k = Kernel.polynomial(2, gamma=3.0)
        assert eval_kernel(k, [1.0, 2.0], [3.0, 1.0]) == pytest.approx(3.0 * 25.0)

    def test_centred_polynomial_and_monomial_kernels(self):
        c = np.array([1.0, -2.0])
        x, y = np.array([2.0, 0.5]), np.array([4.0, -1.0])
        u, v = x - c, y - c
        k = Kernel.polynomial(2, gamma=3.0, centre=c)
        assert k.centre == (1.0, -2.0)
        assert eval_kernel(k, x, y) == pytest.approx(3.0 * (u @ v) ** 2, rel=1e-14)
        C = np.array([[1.0, 2.0], [2.0, -1.0]])
        block = Kernel.monomial_block([(1, 0), (0, 1)], C, centre=c)
        assert eval_kernel(block, x, y) == pytest.approx(u @ C @ v, rel=1e-14)
        # no centre keeps raw coordinates
        assert Kernel.polynomial(2).centre is None
        assert eval_kernel(Kernel.polynomial(2, centre=[0.0, 0.0]), x, y) == (x @ y) ** 2

    def test_sum_kernel(self):
        k = Kernel.sum_of(Kernel.gaussian(), Kernel.polynomial(1), gamma=2.0)
        x, y = np.array([0.5]), np.array([0.2])
        expect = 2.0 * (math.exp(-0.09) + 0.1)
        assert eval_kernel(k, x, y) == pytest.approx(expect, rel=1e-14)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_parameters_rejected(self, bad):
        for make in (
            lambda: Kernel.gaussian(epsilon=bad),
            lambda: Kernel.gaussian(gamma=bad),
            lambda: Kernel.polyharmonic(2, gamma=bad),
            lambda: Kernel.matern(1.5).with_params(epsilon=bad),
        ):
            with pytest.raises(ValueError, match="finite"):
                make()


class TestRegularity:
    def test_exponential_is_one(self):
        assert regularity(Kernel.exponential()) == 1

    def test_gaussian_is_infinite(self):
        assert regularity(Kernel.gaussian()) == INF_REGULARITY

    def test_once_differentiable_profile_declared_two(self):
        k = Kernel.custom(lambda t: (1 + np.abs(t)) * np.exp(-np.abs(t)), regularity=2)
        assert regularity(k) == 2
        assert regularity(Kernel.matern(1.5)) == 2

    def test_undeclared_custom_raises(self):
        with pytest.raises(UnknownRegularity):
            regularity(Kernel.custom(lambda t: np.exp(-t)))

    def test_sum_takes_the_roughest_part(self):
        k = Kernel.sum_of(Kernel.gaussian(), Kernel.exponential())
        assert regularity(k) == 1


def fd_profile_coeff(psi, order, h=1e-2):
    """Taylor coefficient of an even profile by Richardson-extrapolated differences."""

    def deriv(h):
        if order == 2:
            return (psi(h) - 2 * psi(0.0) + psi(-h)) / h**2
        if order == 4:
            return (psi(2 * h) - 4 * psi(h) + 6 * psi(0.0) - 4 * psi(-h) + psi(-2 * h)) / h**4
        raise ValueError

    val = (4 * deriv(h / 2) - deriv(h)) / 3
    return val / math.factorial(order)


class TestRadialSeries:
    def test_gaussian_coefficients(self):
        s = radial_series(Kernel.gaussian(), 4)
        assert s.even_coeffs == pytest.approx((1.0, -1.0, 0.5))
        psi = lambda t: np.exp(-(t**2))
        assert fd_profile_coeff(psi, 2) == pytest.approx(-1.0, abs=1e-8)
        assert fd_profile_coeff(psi, 4) == pytest.approx(0.5, abs=1e-5)

    def test_exponential_coefficients(self):
        s = radial_series(Kernel.exponential(), 1)
        assert s.even_coeffs[0] == pytest.approx(1.0)
        assert s.odd_coeff == pytest.approx(-1.0)
        assert s.odd_power == 1

    @pytest.mark.parametrize(
        "kernel", [Kernel.gaussian(), Kernel.exponential(), Kernel.matern(1.5), Kernel.matern(2.5)]
    )
    def test_f0_is_profile_at_zero(self, kernel):
        assert radial_series(kernel, 0).even_coeffs[0] == pytest.approx(1.0)

    def test_matern32_series(self):
        # (1 + a t) exp(-a t) = 1 - a^2 t^2 / 2 + a^3 |t|^3 / 3 - ...
        s = radial_series(Kernel.matern(1.5), 3)
        a = math.sqrt(3)
        assert s.even_coeffs == pytest.approx((1.0, -(a**2) / 2))
        assert s.odd_coeff == pytest.approx(a**3 / 3)

    def test_matern52_leading_odd(self):
        a = math.sqrt(5)
        assert leading_odd_coefficient(Kernel.matern(2.5)) == pytest.approx(-(a**5) / 45)

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_polyharmonic_series_is_its_one_odd_term(self, r):
        # (-1)^r |t|^(2r-1): no even part, and the odd term only from order 2r - 1
        s = radial_series(Kernel.polyharmonic(r), 2 * r - 1)
        assert s.even_coeffs == (0.0,) * r
        assert (s.odd_coeff, s.odd_power) == ((-1.0) ** r, 2 * r - 1)
        below = radial_series(Kernel.polyharmonic(r), 2 * r - 2)
        assert (below.odd_coeff, below.odd_power) == (None, -1)
        assert leading_odd_coefficient(Kernel.polyharmonic(r)) == (-1.0) ** r

    def test_smooth_kernel_has_no_leading_odd_coefficient(self):
        with pytest.raises(SeriesTruncation, match="no odd term"):
            leading_odd_coefficient(Kernel.gaussian())

    def test_truncation_error_beyond_smoothness(self):
        with pytest.raises(SeriesTruncation):
            radial_series(Kernel.matern(1.5), 4)

    def test_lower_odd_terms_vanish(self):
        s = radial_series(Kernel.matern(2.5), 5)
        # the |t| and |t|^3 coefficients of a regularity-3 kernel are zero
        psi_poly, a = [1, math.sqrt(5), 5 / 3.0], math.sqrt(5)
        from flatgp.kernels import _taylor_exp_poly

        coeffs = _taylor_exp_poly(psi_poly, a, 5)
        assert abs(coeffs[1]) < 1e-12 and abs(coeffs[3]) < 1e-12


class TestKernelMatrix:
    def test_negative_distance_kernel_eigenvalues(self):
        K = kernel_matrix(Kernel.polyharmonic(1), np.array([0.0, 1.0]))
        np.testing.assert_allclose(K, [[0, -1], [-1, 0]])
        np.testing.assert_allclose(np.linalg.eigvalsh(K), [-1, 1])

    def test_zero_kernel(self):
        assert not kernel_matrix(Kernel.zero(), np.zeros((4, 2))).any()

    def test_gaussian_large_eps_approaches_identity(self, rng):
        X = rng.uniform(0, 1, size=(6, 1)) + np.arange(6)[:, None]  # spaced >= gaps
        K = kernel_matrix(Kernel.gaussian(epsilon=30.0, gamma=2.0), X)
        np.testing.assert_allclose(K, 2.0 * np.eye(6), atol=1e-8)

    def test_expansion_remainder_is_order_six(self, rng):
        # Gaussian d=1: || K(eps) - sum_{j<=4} f_j eps^j D^j ||_max = O(eps^6)
        x = np.sort(rng.uniform(0, 1, 7))
        D2 = cdist(x[:, None], x[:, None]) ** 2.0
        D4 = cdist(x[:, None], x[:, None]) ** 4.0
        rem = []
        for eps in (0.1, 0.05, 0.025):
            K = kernel_matrix(Kernel.gaussian(epsilon=eps), x)
            approx = np.ones((7, 7)) - eps**2 * D2 + 0.5 * eps**4 * D4
            rem.append(np.abs(K - approx).max())
        ratios = [rem[i] / rem[i + 1] for i in range(2)]
        assert all(30 <= r <= 100 for r in ratios), ratios

    @pytest.mark.parametrize("nu", [0.5, 1.5, 2.5, 3.5])
    def test_matern_profile_is_bitwise_the_plain_expression(self, nu, rng):
        # the in-place profile against exp(-a t) P(t) by Horner's rule in fresh arrays
        coeffs, a = _matern_poly_coeffs(nu)
        t = np.concatenate([[0.0], rng.uniform(0, 1, 199), rng.uniform(0, 800, 200)]).reshape(20, 20)
        p = np.zeros_like(t)
        for c in reversed(coeffs):
            p = p * t + c
        assert np.array_equal(profile(Kernel.matern(nu))(t), p * np.exp(-a * t))

    def test_matern_matrix_holds_three_buffers_at_most(self, rng):
        X = rng.uniform(0, 1, 400)
        k = Kernel.matern(1.5, epsilon=2.0, gamma=3.0)
        kernel_matrix(k, X)  # imports and caches outside the measurement
        tracemalloc.start()
        try:
            K = kernel_matrix(k, X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # distances (then t), the exponential and the Horner sum, then the
        # gain times that sum; the plain expression held four (+5.12 MB)
        assert peak <= 3 * K.nbytes + 65536


RADIAL_FAMILIES = [
    "gaussian", "exponential", "matern0.5", "matern1.5", "matern2.5", "matern3.5",
    "polyharmonic1", "polyharmonic2", "polyharmonic3", "custom",
]
ALL_FAMILIES = RADIAL_FAMILIES + [
    "polynomial0", "polynomial1", "polynomial2", "monomial", "sum", "zero",
]


def any_kernel(name, eps, gam, d, rng):
    """One kernel of every family the evaluator dispatches on."""
    if name == "gaussian":
        return Kernel.gaussian(eps, gam)
    if name == "exponential":
        return Kernel.exponential(eps, gam)
    if name.startswith("matern"):
        return Kernel.matern(float(name[len("matern"):]), eps, gam)
    if name.startswith("polyharmonic"):
        return Kernel.polyharmonic(int(name[-1]), gam)
    if name == "custom":
        profile_fn = lambda t: 1.0 / (1.0 + np.square(t))
        return Kernel.custom(profile_fn, epsilon=eps, gamma=gam, regularity=INF_REGULARITY)
    if name.startswith("polynomial"):
        return Kernel.polynomial(int(name[-1]), gamma=gam, centre=rng.uniform(-1, 1, d))
    if name == "monomial":
        exps = enumerate_monomials(2, d)
        A = rng.normal(size=(len(exps), len(exps)))
        return Kernel.monomial_block(exps, A + A.T, gamma=gam, centre=rng.uniform(-1, 1, d))
    if name == "sum":
        return Kernel.sum_of(Kernel.matern(1.5, eps), Kernel.polynomial(1), gamma=gam)
    assert name == "zero"
    return Kernel.zero()


def term_magnitude(k, X):
    """Largest sum of absolute terms behind kernel_diag(k, X), its round-off scale."""
    if k.family is Family.SUM:
        return k.gamma * sum(term_magnitude(c, X) for c in k.components)
    if k.family is Family.MONOMIAL:
        # |x^a| = |x|^a, so |C| at |X - c| sums the absolute values of the terms
        X = np.abs(X - np.asarray(k.centre or 0.0))
        k = Kernel.monomial_block(k.exponents, np.abs(k._coef_array), gamma=k.gamma)
    return np.abs(kernel_diag(k, X)).max()


class TestOneEvaluator:
    """kernel_matrix, kernel_cross, kernel_diag and eval_kernel agree on every family."""

    @given(
        st.sampled_from(ALL_FAMILIES),
        st.integers(1, 12),
        st.integers(1, 3),
        st.floats(0.1, 5.0),
        st.floats(0.1, 5.0),
        st.integers(0, 2**31),
    )
    @settings(max_examples=150, deadline=None)
    def test_all_routes_agree(self, name, n, d, eps, gam, seed):
        rng = np.random.default_rng(seed)
        k = any_kernel(name, eps, gam, d, rng)
        X = rng.uniform(-1.0, 1.0, size=(n, d))
        Xq = rng.uniform(-1.0, 1.0, size=(max(1, n // 2), d))

        K = kernel_matrix(k, X)
        assert K.shape == (n, n)
        assert np.array_equal(K, K.T)
        if name in RADIAL_FAMILIES:
            # zero distance on the diagonal, exactly: k(x, x) = gamma psi(0)
            assert np.array_equal(np.diag(K), np.full(n, gam * profile(k)(np.zeros(1))[0]))
        scale = max(np.abs(K).max(), 1e-300)
        np.testing.assert_allclose(kernel_cross(k, X, X), K, rtol=0, atol=1e-15 * scale)

        # the diagonal is summed in another order than the matrix products,
        # so the two agree to a few round-offs of the summed terms' magnitude
        np.testing.assert_allclose(
            kernel_diag(k, Xq),
            np.diag(kernel_cross(k, Xq, Xq)),
            rtol=0,
            atol=1e-14 * term_magnitude(k, Xq),
        )
        x, y = X[0], Xq[0]
        expect = kernel_cross(k, x[None, :], y[None, :])[0, 0]
        assert eval_kernel(k, x, y) == pytest.approx(expect, rel=1e-15, abs=1e-300)


def fd_wronskian_1d(psi, a, b, h=1e-2):
    """Richardson-extrapolated central differences of psi(|x-y|) at (0, 0)."""
    stencils = {
        0: {0: 1.0},
        1: {-1: -0.5, 1: 0.5},
        2: {-1: 1.0, 0: -2.0, 1: 1.0},
    }

    def mixed(h):
        out = 0.0
        for ox, wx in stencils[a].items():
            for oy, wy in stencils[b].items():
                out += wx * wy * psi(abs(ox * h - oy * h))
        return out / h ** (a + b)

    val = (4 * mixed(h / 2) - mixed(h)) / 3
    return val / (math.factorial(a) * math.factorial(b))


class TestWronskian:
    def test_gaussian_constant_entry(self):
        W = wronskian(Kernel.gaussian(), 2, 2)
        assert W[0, 0] == pytest.approx(1.0)

    def test_odd_coordinate_sums_vanish(self):
        W = wronskian(Kernel.gaussian(), 3, 2)
        idx = enumerate_monomials(3, 2)
        for i, a in enumerate(idx):
            for j, b in enumerate(idx):
                if any((ai + bi) % 2 for ai, bi in zip(a, b)):
                    assert W[i, j] == 0.0

    def test_gaussian_univariate_against_finite_differences(self):
        W = wronskian(Kernel.gaussian(), 2, 1)
        psi = lambda t: math.exp(-(t**2))
        for a in range(3):
            for b in range(3):
                fd = fd_wronskian_1d(psi, a, b)
                assert W[a, b] == pytest.approx(fd, abs=5e-6), (a, b)

    def test_series_route_matches_gaussian_closed_form(self):
        # independent oracle: Gaussian moments give prod (s_i - 1)!! (-2)^j
        # (-1)^|b| / (a! b!) for s = a + b all even, j = |s|/2, and 0 otherwise
        eps, gam = 1.3, 0.7

        def double_factorial(m):
            return math.prod(range(m, 0, -2))

        for k in range(6):
            for d in (1, 2, 3):
                idx = enumerate_monomials(k, d)
                closed = np.zeros((len(idx), len(idx)))
                for i, a in enumerate(idx):
                    for j, b in enumerate(idx):
                        s = [ai + bi for ai, bi in zip(a, b)]
                        if any(si % 2 for si in s):
                            continue
                        num = math.prod(double_factorial(si - 1) for si in s)
                        den = math.prod(math.factorial(e) for e in a + b)
                        sign = (-2.0) ** (sum(s) // 2) * (-1.0) ** sum(b)
                        closed[i, j] = gam * eps ** sum(s) * num * sign / den
                W = wronskian(Kernel.gaussian(epsilon=eps, gamma=gam), k, d)
                assert np.array_equal(W == 0.0, closed == 0.0), (k, d)
                np.testing.assert_allclose(W, closed, rtol=4.4e-16, atol=0, err_msg=f"k={k} d={d}")
                # the same profile through a custom kernel's declared series
                declared = Kernel.custom(
                    lambda t: np.exp(-(t**2)),
                    epsilon=eps,
                    gamma=gam,
                    regularity=INF_REGULARITY,
                    series=[(-1.0) ** (j // 2) / math.factorial(j // 2) if j % 2 == 0 else 0.0 for j in range(2 * k + 1)],
                )
                viaseries = wronskian(declared, k, d)
                np.testing.assert_allclose(viaseries, closed, rtol=1e-12, atol=1e-12, err_msg=f"k={k} d={d}")

    def test_scaling_in_epsilon_and_gamma(self):
        W1 = wronskian(Kernel.gaussian(), 2, 1)
        W2 = wronskian(Kernel.gaussian(epsilon=2.0, gamma=3.0), 2, 1)
        idx = [sum(m) for m in enumerate_monomials(2, 1)]
        for i, di in enumerate(idx):
            for j, dj in enumerate(idx):
                assert W2[i, j] == pytest.approx(3.0 * 2.0 ** (di + dj) * W1[i, j])

    def test_insufficient_regularity_raises(self):
        with pytest.raises(SeriesTruncation):
            wronskian(Kernel.matern(1.5), 2, 1)

    @pytest.mark.parametrize("kernel,k", [(Kernel.gaussian(), 3), (Kernel.matern(3.5), 3), (Kernel.matern(2.5), 2)])
    def test_positive_semidefinite(self, kernel, k):
        W = wronskian(kernel, k, 2)
        w = np.linalg.eigvalsh(W)
        assert w.min() >= -1e-10 * w.max()

    def test_gaussian_univariate_ldl_positive(self):
        W = wronskian(Kernel.gaussian(), 3, 1)
        L = np.linalg.cholesky(W)  # succeeds iff W > 0
        assert (np.diag(L) > 0).all()


def product_measure_wronskian(seed):
    """Wronskian of a random separable analytic kernel from 1-D moment data."""
    rng = np.random.default_rng(seed)

    def one_dim():
        om = rng.uniform(0.3, 2.0, size=4)
        w = rng.uniform(0.2, 1.0, size=4)
        moments = [2 * float(np.sum(w * om**p)) if p % 2 == 0 else 0.0 for p in range(9)]
        W1 = np.zeros((5, 5))
        for a in range(5):
            for b in range(5):
                if (a + b) % 2 == 0:
                    p = (a + b) // 2
                    W1[a, b] = (
                        (-1.0) ** (p + b)
                        * moments[a + b]
                        / (math.factorial(a) * math.factorial(b))
                    )
        return W1

    Wx, Wy = one_dim(), one_dim()
    idx = enumerate_monomials(2, 2)
    P = len(idx)
    W = np.zeros((P, P))
    for i, a in enumerate(idx):
        for j, b in enumerate(idx):
            W[i, j] = Wx[a[0], b[0]] * Wy[a[1], b[1]]
    return W


class TestWronskianSchur:
    def test_order_zero_is_leading_entry(self):
        W = wronskian(Kernel.gaussian(), 2, 2)
        np.testing.assert_allclose(wronskian_schur(W, 0, 2), [[1.0]])

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("l", [1, 2, 3])
    def test_gaussian_schur_diagonal_constant(self, d, l):
        W = wronskian(Kernel.gaussian(), l, d)
        S = wronskian_schur(W, l, d)
        block = [m for m in enumerate_monomials(l, d) if sum(m) == l]
        diag_scaled = [
            S[i, i] * np.prod([math.factorial(a) for a in alpha])
            for i, alpha in enumerate(block)
        ]
        # corollary: Wbar(alpha, alpha) = 2^|alpha| / alpha!
        np.testing.assert_allclose(diag_scaled, 2.0**l, rtol=1e-9)
        off = S - np.diag(np.diag(S))
        assert np.abs(off).max() <= 1e-9 * np.abs(np.diag(S)).max()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_separable_kernel_schur_is_diagonal(self, seed):
        W = product_measure_wronskian(seed)
        S = wronskian_schur(W, 2, 2)
        off = S - np.diag(np.diag(S))
        assert np.abs(off).max() <= 1e-9 * np.abs(np.diag(S)).max()
        # dual route: Schur complement = inverse of the trailing block of W^{-1}
        nl = count_poly_dim(1, 2)
        Winv = np.linalg.inv(W)
        dense = np.linalg.inv(Winv[nl:, nl:])
        np.testing.assert_allclose(S, dense, rtol=1e-8, atol=1e-10 * np.abs(S).max())

    def test_singular_leading_block_raises(self):
        with pytest.raises(SingularWronskianBlock):
            wronskian_schur(np.zeros((2, 2)), 1, 1)
