"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  Criterion 1 exercises the odd flat-limit case against
the degree-2 least-squares fit at p=5, the exponent the library's own
convergence oracle (and the spline/even cases' bookkeeping) pins to that
degree; see the README for the one-line rationale.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from flatgp import (
    GpSpectrum,
    Kernel,
    LimitCaseKind,
    ScaledKernelFamily,
    SemiParametricModel,
    absorbed_kernel_model,
    classify_limit,
    convergence_study,
    enumerate_monomials,
    gp_posterior,
    isofreedom_curve,
    isofreedom_gamma,
    kernel_matrix,
    laurent_b0,
    limiting_smoother,
    loo_mse,
    loo_nll,
    polyharmonic_spm,
    spline_dof,
    sure,
    wronskian,
    wronskian_schur,
)
from flatgp.spm import factorize_model, solve_trace


RESULTS = []


def _report(line):
    RESULTS.append(line)
    print(line, flush=True)


@contextmanager
def criterion(cid, description, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        _report(f"[ACCEPTANCE] {cid} {description}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    if elapsed >= budget_seconds:
        _report(f"[ACCEPTANCE] {cid} {description}: FAIL (runtime {elapsed:.2f}s)")
        raise AssertionError(f"{cid} exceeded runtime budget: {elapsed:.2f}s >= {budget_seconds}s")
    _report(f"[ACCEPTANCE] {cid} {description}: PASS ({elapsed:.2f}s)")


def design_and_data(n=8, seed=0):
    X = np.linspace(0.0, 1.0, n)
    y = np.random.default_rng(seed).normal(size=n)
    return X, y


def test_c1_theorem1_odd_case_degree2():
    with criterion("C1", "odd flat limit reaches the degree-2 least-squares fit", 1.0):
        X, y = design_and_data()
        sigma2 = 0.01
        xq = np.linspace(0, 1, 50)
        # the degree-2 fit is the odd case with basis dimension (p+1)/2 = 3
        case = classify_limit(ScaledKernelFamily(Kernel.gaussian(), p=5), X)
        assert case.kind is LimitCaseKind.UNPENALIZED_POLYNOMIAL
        assert case.basis_degree == 2
        V = np.vander(X, 3, increasing=True)
        coef, *_ = np.linalg.lstsq(V, y, rcond=None)
        fit = np.vander(xq, 3, increasing=True) @ coef
        devs = []
        for eps in (0.2, 0.1, 0.05):
            kern = Kernel.gaussian(epsilon=eps, gamma=eps**-5)
            mean, _ = gp_posterior(kern, X, y, sigma2, xq)
            devs.append(float(np.abs(mean - fit).max()))
        assert devs[0] > devs[1] > devs[2], devs
        ratios = [devs[i] / devs[i + 1] for i in range(2)]
        assert all(1.3 <= r <= 3.0 for r in ratios), ratios
        assert devs[-1] <= 0.05 * y.std(), (devs[-1], 0.05 * y.std())


def test_c2_theorem1_spline_cases():
    X, y = design_and_data()
    sigma2 = 0.01
    xq = np.linspace(0, 1, 50)
    with criterion("C2a", "exponential p=1 converges to the linear smoothing spline", 2.0):
        family = ScaledKernelFamily(Kernel.exponential(), p=1)
        report = convergence_study(
            family, X, xq, [0.2, 0.1, 0.05], sigma2, num_trials=1, seed=0, tol=1.0
        )
        assert report.case.kind is LimitCaseKind.SPLINE_REGRESSION
        for devs in (report.mean_devs, report.var_devs):
            assert devs[0] > devs[1] > devs[2], devs
            ratios = [devs[i] / devs[i + 1] for i in range(2)]
            assert all(1.3 <= r <= 3.0 for r in ratios), ratios
        assert report.mean_devs[-1] <= 0.05 * y.std()
    with criterion("C2b", "matern 3/2 p=3 converges to the cubic spline after match_scale", 2.0):
        family = ScaledKernelFamily(Kernel.matern(1.5), p=3)
        report = convergence_study(
            family, X, xq, [0.2, 0.1, 0.05], sigma2, num_trials=1, seed=0, tol=1.0
        )
        assert report.case.kind is LimitCaseKind.SPLINE_REGRESSION
        assert report.case.equivalent_model.basis_degree == 1  # basis {1, x}
        # matched gain is the leading odd profile coefficient f_3 = sqrt(3)
        assert report.matched_gain == pytest.approx(math.sqrt(3.0), rel=1e-5)
        for devs in (report.mean_devs, report.var_devs):
            assert devs[0] > devs[1] > devs[2], devs
            ratios = [devs[i] / devs[i + 1] for i in range(2)]
            assert all(1.3 <= r <= 3.0 for r in ratios), ratios


def test_c3_gaussian_corollary_2d():
    with criterion("C3", "d=2 Gaussian even case matches <x.y, {1}> up to a constant", 2.0):
        rng = np.random.default_rng(7)
        X = rng.uniform(0, 1, size=(12, 2))
        sigma2 = 0.01
        family = ScaledKernelFamily(Kernel.gaussian(), p=2)
        model_b = SemiParametricModel(Kernel.polynomial(1), d=2, basis_degree=0)
        M0 = limiting_smoother(family, X, sigma2)
        fac = factorize_model(model_b, X)
        base, lam = fac.m, fac.evals
        gain, _ = solve_trace(lam, base, M0.trace, sigma2)
        assert gain == pytest.approx(2.0, rel=1e-6)  # Schur diagonal 2^1/1!
        M_target = factorize_model(model_b.scaled(gain), X).smoother(sigma2).matrix
        devs = []
        for eps in (0.2, 0.1, 0.05):
            M = GpSpectrum.from_kernel(family.kernel_at(eps), X).smoother(sigma2).matrix
            devs.append(float(np.abs(M - M_target).max()))
        assert devs[0] > devs[1] > devs[2], devs
        slope = np.polyfit(np.log([0.2, 0.1, 0.05]), np.log(devs), 1)[0]
        assert slope >= 0.8, (devs, slope)


def test_c4_wronskian_structure():
    with criterion("C4", "Gaussian Wronskian Schur blocks are diagonal with 2^l/a!", 1.0):
        for d in (1, 2, 3):
            for l in (1, 2, 3):
                S = wronskian_schur(wronskian(Kernel.gaussian(), l, d), l, d)
                off = S - np.diag(np.diag(S))
                assert np.abs(off).max() <= 1e-9 * np.abs(np.diag(S)).max(), (d, l)
                block = [m for m in enumerate_monomials(l, d) if sum(m) == l]
                scaled = [
                    S[i, i] * np.prod([math.factorial(a) for a in m])
                    for i, m in enumerate(block)
                ]
                np.testing.assert_allclose(scaled, 2.0**l, rtol=1e-9)


def test_c5_loo_fast_formulas():
    with criterion("C5", "fast LOO formulas equal literal n-refit evaluation", 5.0):
        rng = np.random.default_rng(2024)
        for _ in range(20):
            n = 10
            X = np.sort(rng.uniform(0, 1, n))
            y = rng.normal(size=n)
            sigma2 = 10.0 ** rng.uniform(-2, -0.5)
            kern = Kernel.gaussian(
                epsilon=10.0 ** rng.uniform(-0.3, 0.7), gamma=10.0 ** rng.uniform(-0.5, 0.5)
            )
            M = GpSpectrum.from_kernel(kern, X).smoother(sigma2)
            mus, variances = [], []
            for i in range(n):
                keep = [j for j in range(n) if j != i]
                mean, var = gp_posterior(kern, X[keep], y[keep], sigma2, X[i : i + 1])
                mus.append(mean[0])
                variances.append(var[0] + sigma2)
            mus, variances = np.array(mus), np.array(variances)
            literal_mse = float(np.mean((y - mus) ** 2))
            literal_nll = float(
                np.mean(0.5 * np.log(2 * np.pi * variances) + 0.5 * (y - mus) ** 2 / variances)
            )
            assert loo_mse(M, y) == pytest.approx(literal_mse, rel=1e-8)
            assert loo_nll(M, y, sigma2) == pytest.approx(literal_nll, rel=1e-8)


def test_c6_laurent_master_equation():
    with criterion("C6", "Laurent coefficient B0 solves the master equation", 1.0):
        rng = np.random.default_rng(3)
        n = 10
        X = np.sort(rng.uniform(0, 1, n))
        L = kernel_matrix(Kernel.polyharmonic(1), X)
        V = np.ones((n, 1))
        sigma2 = 0.3
        B0 = laurent_b0(L, V, sigma2)
        assert np.abs(V.T @ B0).max() <= 1e-10 * np.abs(B0).max()
        errs = []
        for eps in (1e-2, 1e-3, 1e-4):
            inv = np.linalg.inv(V @ V.T + eps * (L + sigma2 * np.eye(n)))
            errs.append(float(np.abs(eps * inv - B0).max()))
        ratios = [errs[i] / errs[i + 1] for i in range(2)]
        assert all(5.0 <= r <= 20.0 for r in ratios), ratios


def test_c7_dof_formulas():
    with criterion("C7", "dof formulas: projector, spline trace, isofreedom solves", 5.0):
        rng = np.random.default_rng(11)
        X = np.sort(rng.uniform(0, 1, 9))
        for p in range(4):
            model = SemiParametricModel(Kernel.zero(), d=1, basis_degree=p)
            assert abs(factorize_model(model, X).smoother(0.3).trace - (p + 1)) <= 1e-10
        eta = 0.03
        M = factorize_model(polyharmonic_spm(2, 1), X).smoother(eta)
        assert M.trace == pytest.approx(spline_dof(X, 2, eta), abs=1e-8)

        X8, _ = design_and_data()
        sigma2 = 0.01
        for m in (1.5, 2.5, 3.5):
            g = isofreedom_gamma(Kernel.gaussian(epsilon=0.1), X8, sigma2, m)
            spec = GpSpectrum.from_kernel(Kernel.gaussian(epsilon=0.1), X8)
            assert abs(spec.scaled(g).dof(sigma2) - m) <= 1e-10 * 8
            curve = isofreedom_curve(
                Kernel.gaussian(), X8, sigma2, m, np.geomspace(0.3, 0.03, 10)
            )
            assert abs(curve.slope - round(curve.slope)) <= 0.15, (m, curve.slope)


def test_c8_post_selection_equivalence():
    with criterion("C8", "equivalent models share all three criteria on a gamma grid", 2.0):
        rng = np.random.default_rng(5)
        X = np.sort(rng.uniform(0, 1, 9))
        y = rng.normal(size=9)
        sigma2 = 0.05
        model = polyharmonic_spm(1, 1)
        other = absorbed_kernel_model(model, coefficient=1.7)
        for gamma in np.geomspace(1e-2, 1e2, 10):
            Ma = factorize_model(model.scaled(gamma), X).smoother(sigma2)
            Mb = factorize_model(other.scaled(gamma), X).smoother(sigma2)
            assert loo_mse(Ma, y) == pytest.approx(loo_mse(Mb, y), rel=1e-8)
            assert loo_nll(Ma, y, sigma2) == pytest.approx(
                loo_nll(Mb, y, sigma2), rel=1e-8
            )
            assert sure(Ma, y, sigma2) == pytest.approx(
                sure(Mb, y, sigma2), rel=1e-8
            )


def test_c9_eigenvalue_valuations():
    with criterion("C9", "kernel-matrix eigenvalues decay at the predicted rates", 1.0):
        X, _ = design_and_data()
        for kern, r in ((Kernel.exponential(), 1), (Kernel.matern(1.5), 2)):
            predicted = [2 * i if i < r else 2 * r - 1 for i in range(8)]
            rows = []
            for eps in (0.1, 0.05, 0.025):
                K = kernel_matrix(kern.with_params(epsilon=eps), X)
                rows.append(np.sort(np.abs(np.linalg.eigvalsh(K)))[::-1])
            slopes = np.polyfit(np.log([0.1, 0.05, 0.025]), np.log(np.asarray(rows)), 1)[0]
            assert np.abs(slopes - predicted).max() <= 0.3, (slopes, predicted)


def test_c10_nugget_plateau():
    with criterion("C10", "a nugget plateaus dof(gamma) where the plain run keeps drifting", 2.0):
        X, _ = design_and_data()
        sigma2 = 0.01
        kern = Kernel.gaussian(epsilon=0.05)
        spec_nugget = GpSpectrum.from_kernel(kern, X, nugget=1e-6)
        spec_plain = GpSpectrum.from_kernel(kern, X)
        gammas = np.geomspace(1e8, 1e12, 5)  # well past the nugget scale s2/nu = 1e4
        dof_nugget = [spec_nugget.scaled(g).dof(sigma2) for g in gammas]
        dof_plain = [spec_plain.scaled(g).dof(sigma2) for g in gammas]
        nugget_steps = [abs(b - a) for a, b in zip(dof_nugget, dof_nugget[1:])]
        plain_steps = [abs(b - a) for a, b in zip(dof_plain, dof_plain[1:])]
        assert max(nugget_steps) < 1e-3, nugget_steps
        assert max(plain_steps) > 1e-3, plain_steps
