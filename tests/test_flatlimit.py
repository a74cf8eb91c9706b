import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from flatgp import (
    Family,
    GpSpectrum,
    Kernel,
    LimitCaseKind,
    ScaledKernelFamily,
    SemiParametricModel,
    SpmFit,
    absorbed_kernel_model,
    check_pred_equiv,
    classify_limit,
    convergence_study,
    kernel_cross,
    kernel_diag,
    leading_odd_coefficient,
    limiting_smoother,
    match_scale,
    polyharmonic_spm,
    prediction_curve,
    project_out_basis,
    recombined_basis_model,
    regularity,
    vandermonde,
    wronskian,
    wronskian_schur,
)
from flatgp.errors import (
    IncomparableModels,
    InsufficientGrid,
    NegativeVariance,
    NotProportional,
    NotUnisolvent,
)
import flatgp.flatlimit as flatlimit_module
import flatgp.smoothers as smoothers_module
import flatgp.spm as spm_module
from flatgp.flatlimit import _limit_model, _monomial_block_kernel
from flatgp.polybasis import as_design, count_poly_dim
from flatgp.spm import augmented_smoother, factorize_model, fit_factored


def _classify(kernel, p, d, n=20, gamma0=1.0):
    X = np.random.default_rng(0).uniform(0, 1, size=(n, d))
    return classify_limit(ScaledKernelFamily(kernel, p=p, gamma0=gamma0), X)


class TestClassify:
    def test_exponential_p1_is_linear_spline(self):
        case = _classify(Kernel.exponential(), 1, 1)
        assert case.kind is LimitCaseKind.SPLINE_REGRESSION
        model = case.equivalent_model
        assert model.kernel.family is Family.POLYHARMONIC
        assert model.kernel.order == 1 and model.basis_degree == 0

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_spline_case_at_p_equals_2r_minus_1(self, r):
        case = _classify(Kernel.matern(r - 0.5), 2 * r - 1, 2)
        assert case.kind is LimitCaseKind.SPLINE_REGRESSION
        assert case.equivalent_model.basis_degree == r - 1
        assert case.equivalent_model.kernel.order == r

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("m", [1, 2])
    def test_gaussian_even_case_is_polynomial_kernel(self, d, m):
        case = _classify(Kernel.gaussian(), 2 * m, d)
        assert case.kind is LimitCaseKind.PENALIZED_POLYNOMIAL
        assert case.equivalent_model.kernel.family is Family.POLYNOMIAL
        assert case.equivalent_model.kernel.order == m
        assert case.equivalent_model.basis_degree == m - 1
        assert case.scale_free

    def test_odd_case_basis_dimension(self):
        # p = 2m+1: dimension (p+1)/2, i.e. degree (p-1)/2
        for p in (1, 3, 5, 7):
            case = _classify(Kernel.gaussian(), p, 1)
            assert case.kind is LimitCaseKind.UNPENALIZED_POLYNOMIAL
            assert case.basis_degree == (p - 1) // 2

    def test_interpolation_beyond_2r_minus_1(self):
        case = _classify(Kernel.matern(1.5), 5, 1)
        assert case.kind is LimitCaseKind.INTERPOLATION
        assert case.equivalent_model.kernel.family is Family.POLYHARMONIC

    def test_saturated_basis_is_interpolation(self):
        case = _classify(Kernel.gaussian(), 2 * 8 - 1, 1, n=8)
        assert case.kind is LimitCaseKind.INTERPOLATION
        assert case.equivalent_model.basis_degree == 7

    def test_non_gaussian_even_case_materializes_wronskian_kernel(self):
        # at m = 2, d = 2 the canonical (x.y)^2 is not proportional to the
        # Matern-7/2 block: only the exact block, at gain gamma0, is the limit
        for kernel, p, d in ((Kernel.matern(1.5), 2, 1), (Kernel.matern(3.5), 4, 2)):
            case = _classify(kernel, p, d, gamma0=1.7)
            assert case.kind is LimitCaseKind.PENALIZED_POLYNOMIAL
            assert case.equivalent_model.kernel.family is Family.MONOMIAL
            assert case.equivalent_model.kernel.gamma == 1.7
            assert not case.scale_free

    def test_case_table_exhaustive(self):
        kinds = set()
        for r in (1, 2, 3, math.inf):
            for p in range(8):
                for d in (1, 2):
                    kernel = (
                        Kernel.gaussian() if r == math.inf else Kernel.matern(r - 0.5)
                    )
                    case = _classify(kernel, p, d)
                    assert case.kind in LimitCaseKind
                    assert case.equivalent_model.basis_degree >= -1
                    kinds.add(case.kind)
        assert kinds == set(LimitCaseKind)


@pytest.mark.parametrize("gamma0", [0.0, -1.0, math.nan, math.inf])
def test_family_gain_must_be_positive_and_finite(gamma0):
    with pytest.raises(ValueError, match="gamma0"):
        ScaledKernelFamily(Kernel.gaussian(), p=2, gamma0=gamma0)


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
        M = limiting_smoother(family, X, 0.01)
        # the interpolating limit is the smoother of the full basis, exactly
        assert M.n == 8 and M.trace == 8.0
        np.testing.assert_array_equal(M.diagonal(), np.ones(8))
        np.testing.assert_array_equal(M.eigenvalues, np.ones(8))
        np.testing.assert_array_equal(M.matrix, np.eye(8))

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
            M = GpSpectrum.from_kernel(family.kernel_at(eps), X).smoother(sigma2).matrix
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
            M = GpSpectrum.from_kernel(family.kernel_at(eps), X).smoother(sigma2).matrix
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
        M_spm = factorize_model(polyharmonic_spm(2, 1).scaled(gamma0 * f3), X).smoother(sigma2)
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


def _dense_limit_smoother(family, X, sigma2):
    """The flat-limit smoother from Vandermonde blocks, independently of the SPM
    code: the projector A A^T onto degrees < l plus the filtered eigenmodes of
    the projected distance matrix f_{2r-1} P D^(2r-1) P (p = 2r - 1), or of the
    degree-l Wronskian-Schur block on the degree-l increment (even p)."""
    X = np.asarray(X, dtype=float)
    n, d = X.shape
    r, p, gamma0 = regularity(family.base), family.p, family.gamma0
    l = (p + 1) // 2

    def filtered(A, B):
        lam, U = np.linalg.eigh(0.5 * (B + B.T))
        keep = lam > 1e-12 * max(1.0, np.abs(lam).max())
        lam, U = lam[keep], U[:, keep]
        return A @ A.T + (U * (gamma0 * lam / (gamma0 * lam + sigma2))) @ U.T

    if math.isfinite(r) and p > 2 * r - 1:
        return np.eye(n)
    if p == 2 * r - 1:
        Q = vandermonde(X, r - 1).q_prefix(r - 1)
        D = leading_odd_coefficient(family.base) * cdist(X, X) ** p
        return filtered(Q, project_out_basis(D, Q))
    if p % 2:
        Q = vandermonde(X, l - 1).q_prefix(l - 1)
        return Q @ Q.T
    vb = vandermonde(X, l)
    Ql, Vl = vb.q_block(l), vb.blocks[l]
    unit = family.base.with_params(epsilon=1.0, gamma=1.0)
    Wbar = wronskian_schur(wronskian(unit, l, d), l, d)
    B = Ql @ Ql.T @ Vl @ Wbar @ Vl.T @ Ql @ Ql.T
    return filtered(vb.q_prefix(l - 1), B)


class TestExactLimit:
    @pytest.mark.parametrize(
        "kernel,p,d,n",
        [
            (Kernel.exponential(), 1, 1, 20),  # spline
            (Kernel.matern(1.5), 3, 1, 20),  # spline
            (Kernel.matern(1.5), 3, 2, 25),  # spline, d=2
            (Kernel.gaussian(), 0, 2, 20),  # Gaussian penalized constant
            (Kernel.gaussian(), 2, 1, 20),  # Gaussian penalized
            (Kernel.gaussian(), 4, 2, 30),  # Gaussian penalized
            (Kernel.matern(2.5), 2, 1, 20),  # Matern penalized
            (Kernel.matern(2.5), 2, 2, 25),  # Matern penalized
            (Kernel.gaussian(), 3, 2, 20),  # odd
            (Kernel.matern(2.5), 3, 1, 20),  # odd
            (Kernel.gaussian(), 15, 1, 8),  # saturated
            (Kernel.exponential(), 2, 1, 12),  # p > 2r-1
            (Kernel.matern(3.5), 4, 2, 30),  # Matern penalized, not (x.y)^2
        ],
    )
    @pytest.mark.parametrize("gamma0,sigma2", [(1.0, 0.01), (2.0, 0.3)])
    def test_limiting_smoother_matches_dense_reference(self, kernel, p, d, n, gamma0, sigma2, rng):
        X = rng.uniform(0, 1, size=(n, d))
        family = ScaledKernelFamily(kernel, p=p, gamma0=gamma0)
        M = limiting_smoother(family, X, sigma2).matrix
        np.testing.assert_allclose(M, _dense_limit_smoother(family, X, sigma2), rtol=0, atol=1e-10)

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("m", [1, 2])
    def test_gaussian_even_constant_is_the_wronskian_block(self, d, m, rng):
        # the exact Gaussian limit is (2^m / m!) (x^T y)^m: the degree-m
        # Wronskian-Schur block kernel, at gain gamma0
        X = rng.uniform(0, 1, size=(24, d))
        gamma0, sigma2 = 1.3, 0.05
        family = ScaledKernelFamily(Kernel.gaussian(), p=2 * m, gamma0=gamma0)
        case = classify_limit(family, X)
        assert case.scale_free
        block = _monomial_block_kernel(Kernel.gaussian(), m, d).with_params(gamma=gamma0)
        wmodel = SemiParametricModel(block, d=d, basis_degree=m - 1)
        np.testing.assert_allclose(
            factorize_model(_limit_model(family, case), X).smoother(sigma2).matrix,
            factorize_model(wmodel, X).smoother(sigma2).matrix,
            rtol=0,
            atol=1e-10,
        )

    def test_matched_gain_is_the_exact_gaussian_constant(self, rng):
        X = rng.uniform(0, 1, size=(20, 2))
        xq = rng.uniform(0, 1, size=(5, 2))
        gamma0 = 0.7
        family = ScaledKernelFamily(Kernel.gaussian(), p=2, gamma0=gamma0)
        report = convergence_study(family, X, xq, [0.2, 0.1, 0.05], 0.01, num_trials=1)
        assert report.matched_gain == pytest.approx(2.0 * gamma0, rel=1e-12)

    @pytest.mark.parametrize("kernel", [Kernel.gaussian(), Kernel.matern(1.5)])
    def test_collinear_design_is_not_unisolvent(self, kernel):
        # p=3 needs the linear monomials, which points on a line do not separate
        t = np.linspace(0, 1, 12)
        X = np.column_stack([t, 0.5 - 2.0 * t])
        family = ScaledKernelFamily(kernel, p=3)
        with pytest.raises(NotUnisolvent):
            limiting_smoother(family, X, 0.01)
        with pytest.raises(NotUnisolvent):
            convergence_study(family, X, X[:3], [0.2, 0.1, 0.05], 0.01)

    @pytest.mark.parametrize(
        "kernel,p",
        [
            (Kernel.matern(1.5), 3),  # spline
            (Kernel.gaussian(), 2),  # penalized
            (Kernel.gaussian(), 3),  # odd
            (Kernel.exponential(), 2),  # interpolation
        ],
    )
    @pytest.mark.parametrize("sigma2", [-0.01, math.nan])
    def test_limiting_smoother_rejects_bad_sigma2(self, kernel, p, sigma2, rng):
        X = np.sort(rng.uniform(0, 1, 10))
        with pytest.raises(ValueError, match="sigma2"):
            limiting_smoother(ScaledKernelFamily(kernel, p=p), X, sigma2)


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


def dense_pred_equiv(model_a, model_b, X, num_trials=8, seed=0):
    """Reference for ``check_pred_equiv``'s deviations: the same trials, with
    both smoothers on X and both augmented smoothers formed as dense matrices
    and compared entrywise."""
    design = as_design(X)
    fac_a = factorize_model(model_a, design)
    fac_b = factorize_model(model_b, design)
    rng = np.random.default_rng(seed)
    lo = design.points.min(axis=0)
    hi = design.points.max(axis=0)
    dev_mean = dev_var = dev_smoother = 0.0
    for _ in range(num_trials):
        y = rng.normal(size=design.n)
        sigma2 = float(10.0 ** rng.uniform(-2, 0.5))
        x_new = rng.uniform(lo, hi)[None, :]
        mean_a, var_a = fit_factored(model_a, design, fac_a, y, sigma2).posterior(x_new)
        mean_b, var_b = fit_factored(model_b, design, fac_b, y, sigma2).posterior(x_new)
        dev_mean = max(dev_mean, float(np.abs(mean_a - mean_b).max()))
        dev_var = max(dev_var, float(np.abs(var_a - var_b).max()))
        Sa = fac_a.smoother(sigma2)
        Sb = fac_b.smoother(sigma2)
        dev_smoother = max(dev_smoother, float(np.abs(Sa.matrix - Sb.matrix).max()))
        Ma, Mb = (
            augmented_smoother(
                fac,
                S,
                kernel_cross(model.kernel, x_new, design)[0],
                kernel_diag(model.kernel, x_new)[0],
                model.basis_matrix(x_new)[0],
                sigma2,
            )
            for model, fac, S in ((model_a, fac_a, Sa), (model_b, fac_b, Sb))
        )
        dev_smoother = max(dev_smoother, float(np.abs(Ma - Mb).max()))
    return dev_mean, dev_var, dev_smoother


def oracle_design(d):
    return np.random.default_rng(21).uniform(0, 1, size=(14, d))


def oracle_pairs():
    """Model pairs for the reference comparison: (model_a, model_b, d)."""
    spline = polyharmonic_spm(2, 1)
    gauss = SemiParametricModel(Kernel.gaussian(epsilon=2.0), d=2, basis_degree=1)
    linear = polyharmonic_spm(1, 1)
    # |x - y|^3 without its linear basis has two negative eigenvalues; where
    # sigma2 lies between their magnitudes the filter of the smaller is negative
    indefinite = SemiParametricModel(Kernel.polyharmonic(2), d=1)
    zero = SemiParametricModel(Kernel.zero(), d=1, basis_degree=1)
    constant = SemiParametricModel(Kernel.zero(), d=1, basis_degree=0)
    on_design = oracle_design(1)[:, 0]

    def off_design(g):
        return lambda p: np.where(np.isin(p[:, 0], on_design), 1.0, g)

    return {
        "recombined": (spline, recombined_basis_model(spline, seed=3), 1),
        "absorbed": (gauss, absorbed_kernel_model(gauss, 0.7), 2),
        "scaled": (linear, linear.scaled(1.5), 1),
        "indefinite": (indefinite, indefinite.scaled(1.5), 1),
        "empty-basis": (
            SemiParametricModel(Kernel.gaussian(epsilon=3.0), d=2),
            SemiParametricModel(Kernel.matern(1.5, epsilon=2.0), d=2),
            2,
        ),
        "zero-kernel": (zero, absorbed_kernel_model(zero, 0.7), 1),
        # bases of one size whose spans differ: Qa Qa^T - Qb Qb^T is not zero
        "other-basis": (
            SemiParametricModel(Kernel.gaussian(epsilon=2.0), d=1, basis_degree=0),
            SemiParametricModel(
                Kernel.gaussian(epsilon=2.0), d=1, basis_functions=(lambda p: p[:, 0],)
            ),
            1,
        ),
        # a constant basis against one that is 1 on the design and g elsewhere:
        # the smoothers on X agree and only the bordered terms differ, the
        # corner most for g = 2 and the border alone for g = -1
        **{
            f"off-design-{g:g}": (
                constant,
                SemiParametricModel(Kernel.zero(), d=1, basis_functions=(off_design(g),)),
                1,
            )
            for g in (2.0, -1.0)
        },
    }


class TestPredEquivAgainstDenseLoop:
    @pytest.mark.parametrize("case", sorted(oracle_pairs()))
    @pytest.mark.parametrize("reuse", [False, True], ids=["own", "given"])
    def test_same_deviations_as_dense_smoothers(self, case, reuse, monkeypatch):
        model_a, model_b, d = oracle_pairs()[case]
        X = oracle_design(d)
        negative_filter = []
        gram = smoothers_module._gram

        def recorded(U, f):
            negative_filter.append(bool((f < 0).any()))
            return gram(U, f)

        monkeypatch.setattr(smoothers_module, "_gram", recorded)
        given_fac = factorize_model(model_a, X) if reuse else None
        _, rep = check_pred_equiv(model_a, model_b, X, seed=1, factorization_a=given_fac)
        want = dense_pred_equiv(model_a, model_b, X, seed=1)
        got = (rep.max_mean_dev, rep.max_var_dev, rep.max_smoother_dev)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        # round-off eigenvalues of the zero kernel's transform filter to about -1e-17
        if case == "indefinite":
            assert any(negative_filter)


@st.composite
def equivalence_cases(draw):
    """A model with a basis and a random design of the dimension it lives in:
    polyharmonic splines, a classified Matern spline limit, or the Gaussian's
    canonical polynomial kernel, at a random gain."""
    d = draw(st.sampled_from([1, 2]))
    gain = 10.0 ** draw(st.floats(-1, 1))
    kind = draw(st.sampled_from(["polyharmonic", "matern-spline", "gaussian-polynomial"]))
    extra = draw(st.integers(2, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "polyharmonic":
        model = polyharmonic_spm(draw(st.sampled_from([1, 2])), d).scaled(gain)
        return model, rng.uniform(0, 1, size=(model.basis_size() + extra, d))
    if kind == "matern-spline":
        nu = draw(st.sampled_from([1.5, 2.5]))
        # p = 2r - 1 with r = nu + 1/2
        family = ScaledKernelFamily(Kernel.matern(nu), p=int(2 * nu), gamma0=gain)
    else:
        m = draw(st.sampled_from([1, 2]))
        family = ScaledKernelFamily(Kernel.gaussian(), p=2 * m, gamma0=gain)
    # both limits have the basis of degree < (p+1)/2
    n = count_poly_dim((family.p + 1) // 2 - 1, d) + extra
    X = rng.uniform(0, 1, size=(n, d))
    model = classify_limit(family, X).equivalent_model
    return model, X


def certify(model, other, X, seed):
    try:
        return check_pred_equiv(model, other, X, seed=seed)
    except NotUnisolvent:
        assume(False)


class TestEquivalenceIdentities:
    """The two exact transforms are certified on random designs and data; a
    kernel rescaled by 1e-3 is not."""

    @given(case=equivalence_cases(), mix=st.integers(0, 2**32 - 1), seed=st.integers(0, 999))
    @settings(max_examples=60, deadline=None)
    def test_basis_recombination_is_certified(self, case, mix, seed):
        model, X = case
        ok, rep = certify(model, recombined_basis_model(model, seed=mix), X, seed)
        assert ok, rep

    @given(case=equivalence_cases(), log_coef=st.floats(-1, 1), seed=st.integers(0, 999))
    @settings(max_examples=60, deadline=None)
    def test_kernel_absorption_is_certified(self, case, log_coef, seed):
        model, X = case
        ok, rep = certify(model, absorbed_kernel_model(model, 10.0**log_coef), X, seed)
        assert ok, rep

    @given(case=equivalence_cases(), seed=st.integers(0, 999))
    @settings(max_examples=60, deadline=None)
    def test_rescaled_kernel_is_not_certified(self, case, seed):
        model, X = case
        ok, rep = certify(model, model.scaled(1 + 1e-3), X, seed)
        assert not ok, rep


class TestMatchScale:
    def test_recovers_inverse_of_scaling(self, rng, dense_smoothers):
        X = np.sort(rng.uniform(0, 1, 9))
        model = polyharmonic_spm(1, 1)
        alpha = match_scale(model, model.scaled(4.0), X, 0.1)
        assert alpha == pytest.approx(0.25, rel=1e-6)
        # the smoothers are compared through their difference, never formed
        assert dense_smoothers == []

    @pytest.mark.parametrize("m,d", [(1, 1), (1, 2), (2, 2)])
    def test_gaussian_wronskian_block_vs_polynomial_kernel(self, m, d, rng):
        # Schur diagonal 2^m/alpha! against (x^T y)^m with coefficients m!/alpha!
        X = rng.uniform(0, 1, size=(12, d))
        case = classify_limit(ScaledKernelFamily(Kernel.gaussian(), p=2 * m), X)
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

    def test_gp_variance_below_roundoff_drops_the_eps(self, rng, monkeypatch):
        X = np.sort(rng.uniform(0, 1, 8))
        xq = np.linspace(0, 1, 10)[:, None]
        family = ScaledKernelFamily(Kernel.exponential(), p=1)
        grid = [0.2, 0.1, 0.05, 0.025]
        posterior = SpmFit.posterior

        def guarded(fit, query_points):
            if fit.model.kernel.epsilon == 0.1:
                raise NegativeVariance("predictive variance below round-off")
            return posterior(fit, query_points)

        monkeypatch.setattr(SpmFit, "posterior", guarded)
        report = convergence_study(family, X, xq, grid, 0.01, tol=0.05)
        assert report.dropped_eps == (0.1,)
        assert report.eps_values == (0.2, 0.05, 0.025)
        assert len(report.mean_devs) == len(report.var_devs) == 3

    def test_interpolating_limit_computes_no_limit_variance(self, rng, monkeypatch):
        # at sigma2 = 0 the limit's variance is zero up to round-off, which the
        # NegativeVariance guard would report; only the GP variances are formed
        X = np.sort(rng.uniform(0, 1, 12))
        xq = np.linspace(0, 1, 9)[:, None]
        family = ScaledKernelFamily(Kernel.exponential(), p=3)
        noise = []
        posterior = SpmFit.posterior

        def recorded(fit, *args):
            noise.append(fit.sigma2)
            return posterior(fit, *args)

        monkeypatch.setattr(SpmFit, "posterior", recorded)
        report = convergence_study(family, X, xq, [0.2, 0.1, 0.05], 0.01)
        assert report.case.kind is LimitCaseKind.INTERPOLATION
        assert report.var_devs == ()
        assert noise == [0.01] * 3


class TestWorkCounts:
    """Call counts, not timings: reuse of factorizations must not regress."""

    @pytest.mark.parametrize("num_trials", [1, 5])
    def test_check_pred_equiv_factors_each_model_once(
        self, count_linalg, dense_smoothers, rng, num_trials
    ):
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
        # smoothers are compared through their differences, never formed
        assert dense_smoothers == []

    @pytest.mark.parametrize("num_trials", [1, 8])
    def test_check_pred_equiv_one_bordered_solve_per_model_and_trial(
        self, rng, monkeypatch, num_trials
    ):
        X = np.sort(rng.uniform(0, 1, 20))
        model = polyharmonic_spm(2, 1)
        crosses, solves = [], []
        solve = spm_module.SaddleFactorization.solve

        def counted_cross(*args, **kwargs):
            crosses.append(1)
            return kernel_cross(*args, **kwargs)

        def counted_solve(self, *args, **kwargs):
            solves.append(1)
            return solve(self, *args, **kwargs)

        monkeypatch.setattr(flatlimit_module, "kernel_cross", counted_cross)
        monkeypatch.setattr(spm_module, "kernel_cross", counted_cross)
        monkeypatch.setattr(spm_module.SaddleFactorization, "solve", counted_solve)
        ok, _ = check_pred_equiv(
            model, recombined_basis_model(model, seed=1), X, num_trials=num_trials
        )
        assert ok
        # per model and trial: one cross kernel for x*, one solve for the fit
        # and one for x*'s bordered system (mean, variance and (w, c))
        assert len(crosses) == 2 * num_trials
        assert len(solves) == 4 * num_trials

    def test_check_pred_equiv_reuses_a_given_factorization(self, count_linalg, rng):
        X = np.sort(rng.uniform(0, 1, 20))
        model = polyharmonic_spm(2, 1)
        other = absorbed_kernel_model(model, 0.7)
        fac = factorize_model(model, X)
        eigh = count_linalg("eigh")
        _, given_rep = check_pred_equiv(model, other, X, factorization_a=fac)
        # only the other model is factored
        assert len(eigh) == 1
        _, own_rep = check_pred_equiv(model, other, X)
        assert given_rep == own_rep

    def test_convergence_study_one_eigh_per_eps(self, count_linalg, rng):
        X = np.sort(rng.uniform(0, 1, 12))
        xq = np.linspace(0, 1, 7)[:, None]
        family = ScaledKernelFamily(Kernel.exponential(), p=1)
        eigh = count_linalg("eigh")

        def count(eps_grid, num_trials):
            eigh.clear()
            convergence_study(family, X, xq, eps_grid, 0.01, num_trials=num_trials)
            return len(eigh)

        # exponential p=1 is scale-free: one eigh for the exact limit model, then
        # one per epsilon
        assert count([0.2, 0.1, 0.05], 1) == 1 + 3
        assert count([0.2, 0.1, 0.05, 0.025, 0.0125], 1) == 1 + 5
        assert count([0.2, 0.1, 0.05], 6) == 1 + 3

    def test_convergence_study_one_eigh_per_eps_gaussian_d2(self, count_linalg, rng):
        X = rng.uniform(0, 1, size=(15, 2))
        xq = rng.uniform(0, 1, size=(6, 2))
        family = ScaledKernelFamily(Kernel.gaussian(), p=2)
        eigh = count_linalg("eigh")

        def count(eps_grid, num_trials):
            eigh.clear()
            convergence_study(family, X, xq, eps_grid, 0.01, num_trials=num_trials)
            return len(eigh)

        # the Gaussian penalized limit is scale-free too: its constant is exact
        assert count([0.2, 0.1, 0.05], 1) == 1 + 3
        assert count([0.2, 0.1, 0.05, 0.025], 4) == 1 + 4

    @pytest.mark.parametrize(
        "kernel,p,d",
        [(Kernel.matern(1.5), 3, 1), (Kernel.gaussian(), 2, 2), (Kernel.matern(2.5), 2, 2)],
    )
    def test_limiting_smoother_one_eigh(self, count_linalg, rng, kernel, p, d):
        X = rng.uniform(0, 1, size=(15, d))
        eigh = count_linalg("eigh")
        limiting_smoother(ScaledKernelFamily(kernel, p=p), X, 0.01)
        assert len(eigh) == 1


class TestPredictionCurve:
    def test_endpoints_and_anchors(self, rng):
        X = np.sort(rng.uniform(0, 1, 8))
        y = rng.normal(size=8) + X
        curve = prediction_curve(
            Kernel.gaussian(epsilon=1.5), X, y, 0.01,
            np.geomspace(1e-8, 1e14, 220), X[2], X[5],
        )
        first, last = curve.points[0], curve.points[-1]
        assert abs(first[0]) <= 1e-4 and abs(first[1]) <= 1e-4
        assert last[0] == pytest.approx(y[2], abs=1e-3)
        assert last[1] == pytest.approx(y[5], abs=1e-3)
        assert curve.anchors[0][0] == 0
        assert len(curve.anchors) == 8

    def test_one_cross_kernel_per_curve(self, rng, monkeypatch):
        X = np.sort(rng.uniform(0, 1, 9))
        y = rng.normal(size=9) + X
        kernel, sigma2, eps = Kernel.matern(1.5), 0.01, 0.7
        grid = np.geomspace(1e-6, 1e8, 30)
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return kernel_cross(*args, **kwargs)

        monkeypatch.setattr(flatlimit_module, "kernel_cross", counted)
        monkeypatch.setattr(spm_module, "kernel_cross", counted)
        curve = prediction_curve(kernel.with_params(epsilon=eps), X, y, sigma2, grid, 0.2, 0.8)
        # the gamma loop reads one cross kernel; each anchor fit predicts once
        assert len(calls) == 1 + len(curve.anchors)
        # the same predictions as a cross kernel built at each gain
        spec = GpSpectrum.from_kernel(kernel.with_params(epsilon=eps), X)
        queries = np.array([[0.2], [0.8]])
        for g, point in zip(grid, curve.points):
            kq = kernel_cross(kernel.with_params(epsilon=eps, gamma=g), queries, X)
            want = kq @ spec.scaled(g).solve(sigma2, y)[0]
            assert point == (want[0], want[1])

    def test_curve_approaches_anchors_as_eps_shrinks(self, rng):
        X = np.sort(rng.uniform(0, 1, 8))
        y = rng.normal(size=8) + 1.5 * X
        grid = np.geomspace(1e-4, 1e10, 400)
        dists = {deg: [] for deg in (0, 1, 2)}
        for eps in (0.4, 0.2, 0.1):
            curve = prediction_curve(Kernel.gaussian(epsilon=eps), X, y, 0.01, grid, 0.2, 0.8)
            pts = np.array([p for p in curve.points if p is not None])
            for deg, pa, pb in curve.anchors[:3]:
                dists[deg].append(float(np.hypot(pts[:, 0] - pa, pts[:, 1] - pb).min()))
        for deg, seq in dists.items():
            assert seq[0] > seq[2], (deg, seq)
            assert seq[2] <= 0.05 * max(1.0, np.abs(y).max())

    @pytest.mark.parametrize(
        "grid", [[1e2, 1.0, 1e-2], [1.0, 1.0, 10.0], [-1.0, 1.0], [0.0, 1.0]]
    )
    def test_grid_not_positive_and_increasing_rejected(self, rng, grid):
        X = np.sort(rng.uniform(0, 1, 8))
        with pytest.raises(ValueError, match="positive and ascending"):
            prediction_curve(Kernel.gaussian(epsilon=0.5), X, X, 0.01, grid, 0.2, 0.8)


class TestReportBookkeeping:
    def test_seed_recorded_and_reproducible(self, rng):
        X = np.sort(rng.uniform(0, 1, 8))
        xq = np.linspace(0, 1, 10)[:, None]
        family = ScaledKernelFamily(Kernel.exponential(), p=1)
        r1 = convergence_study(family, X, xq, [0.2, 0.1, 0.05], 0.01, seed=42)
        r2 = convergence_study(family, X, xq, [0.2, 0.1, 0.05], 0.01, seed=42)
        assert r1.mean_devs == r2.mean_devs
        assert r1.seed == 42
