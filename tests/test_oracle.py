"""The limiting smoothers against an 80-digit oracle.

For a scaled family k_eps = gamma0 eps^(-p) psi(eps ||x - y||), the smoother
K_eps (K_eps + sigma2 I)^(-1) is built in mpmath at 80 significant digits from
the profile formulas written out here, not from ``flatgp.kernels``.  As eps
falls its distance to ``limiting_smoother(...).matrix``, the smoother of the
flat-limit model that ``flatgp`` factors in double precision, falls at the
rate of the flat-limit theorems: eps for the spline and unpenalized limits,
eps^2 for the penalized ones of p = 0 and of the Gaussian and Matern-5/2 at
p = 2, and eps for Matern-3/2's at p = 2, which needs eps down to 1e-6 for
the moved-gain control below to separate.  Matern-3/2 at p = 4 interpolates:
its smoother tends to the identity at rate eps too, but slowly (5e-3 off at
eps = 1e-6), so its row runs from 1e-6 to 1e-12.  At eps = 1e-4 the kernel entries
agree with psi(0) to within about eps (eps^2 for the Gaussian) while the gain
eps^(-p) is up to 1e20, so double precision keeps few of the digits the
smoother depends on: only a high-precision oracle follows it that far.

A family whose gain is moved by 1e-3 has another limit wherever the limit
depends on the gain (spline and penalized limits), and must fail the bound;
an unpenalized polynomial limit does not depend on the gain, and the moved
family still meets it.  Nor does the identity: the interpolation row's
control is the p = 3 spline limit, which the same oracles must miss.
"""

import mpmath
import numpy as np
import pytest

from flatgp import Kernel
from flatgp.flatlimit import ScaledKernelFamily, limiting_smoother

DIGITS = 80
N, SIGMA2 = 10, 0.1
EPS = (1e-2, 1e-3, 1e-4)
EPS_SLOW = EPS + (1e-5, 1e-6)
EPS_INTERPOLATION = (1e-6, 1e-8, 1e-10, 1e-12)
MOVE = 1e-3  # the negative control's relative move of the gain

SQRT3, SQRT5 = mpmath.sqrt(3), mpmath.sqrt(5)
PROFILES = {
    "matern32": lambda t: (1 + SQRT3 * t) * mpmath.exp(-SQRT3 * t),
    "matern52": lambda t: (1 + SQRT5 * t + 5 * t * t / 3) * mpmath.exp(-SQRT5 * t),
    "exponential": lambda t: mpmath.exp(-t),
    "gaussian": lambda t: mpmath.exp(-t * t),
}
BASES = {
    "matern32": Kernel.matern(1.5),
    "matern52": Kernel.matern(2.5),
    "exponential": Kernel.exponential(),
    "gaussian": Kernel.gaussian(),
}

# (profile, p, d, rate, bound on the deviation at the smallest eps,
# gain-free limit, eps grid); the bounds are about twice the deviations
# measured on these designs, which fell at the stated rate from eps = 1e-2 on
ROWS = {
    "matern32-p3-spline": ("matern32", 3, 1, 1.0, 3e-5, False, EPS),
    "matern32-p1-unpenalized": ("matern32", 1, 1, 1.0, 2e-3, True, EPS),
    "gaussian-p2-d2-penalized": ("gaussian", 2, 2, 2.0, 2e-8, False, EPS),
    "gaussian-p3-unpenalized": ("gaussian", 3, 1, 1.0, 1e-4, True, EPS),
    "exponential-p1-spline": ("exponential", 1, 1, 1.0, 8e-6, False, EPS),
    # no basis: the limit model is factored as a GP
    "matern32-p0-penalized": ("matern32", 0, 1, 2.0, 2e-7, False, EPS),
    "matern32-p3-d2-spline": ("matern32", 3, 2, 1.0, 3e-5, False, EPS),
    # r = 3, beyond the banded spline references
    "matern52-p5-spline": ("matern52", 5, 1, 1.0, 4e-5, False, EPS),
    "matern52-p2-penalized": ("matern52", 2, 1, 2.0, 3e-8, False, EPS),
    "matern32-p2-penalized": ("matern32", 2, 1, 1.0, 4e-6, False, EPS_SLOW),
    # p > 2r - 1: the identity, 5.4e-9 off at eps = 1e-12
    "matern32-p4-interpolation": ("matern32", 4, 1, 1.0, 1e-8, True, EPS_INTERPOLATION),
}


def design(d):
    return np.random.default_rng(20).uniform(0, 1, size=(N, d))


def oracle_smoothers(name, p, X, eps_grid):
    """K (K + sigma2 I)^(-1) = I - sigma2 (K + sigma2 I)^(-1) of the family at
    unit gamma0, at each eps of ``eps_grid``, in mpmath."""
    profile, out = PROFILES[name], []
    with mpmath.workdps(DIGITS):
        pts = [[mpmath.mpf(float(v)) for v in row] for row in X]
        dists = [[mpmath.sqrt(sum((a - b) ** 2 for a, b in zip(u, v))) for v in pts] for u in pts]
        for eps in eps_grid:
            gain, eps = mpmath.mpf(eps ** (-p)), mpmath.mpf(eps)
            A = mpmath.matrix([[gain * profile(eps * r) for r in row] for row in dists])
            A += SIGMA2 * mpmath.eye(N)
            out.append(mpmath.eye(N) - SIGMA2 * mpmath.inverse(A))
    return out


def deviations(oracles, name, p, X, gamma0):
    """max |oracle smoother - limiting smoother of the family at ``gamma0``|
    at each eps of the oracles' grid."""
    family = ScaledKernelFamily(BASES[name], p, gamma0=gamma0)
    limit = limiting_smoother(family, X, SIGMA2).matrix
    with mpmath.workdps(DIGITS):
        return np.array([
            float(max(abs(S[i, j] - limit[i, j]) for i in range(N) for j in range(N)))
            for S in oracles
        ])


def assert_converges(devs, eps_grid, rate, bound):
    """The deviations fall at ``rate`` (a least-squares slope in log-log
    within 0.1 of it) and end at or below ``bound``."""
    slope = np.polyfit(np.log(eps_grid), np.log(devs), 1)[0]
    assert abs(slope - rate) <= 0.1, (slope, devs)
    assert devs[-1] <= bound, devs


@pytest.mark.parametrize("row", ROWS)
def test_limiting_smoother_converges_to_the_oracle(row):
    name, p, d, rate, bound, gain_free, eps_grid = ROWS[row]
    X = design(d)
    oracles = oracle_smoothers(name, p, X, eps_grid)
    assert_converges(deviations(oracles, name, p, X, 1.0), eps_grid, rate, bound)
    # negative control: the same oracles against the limit of the family
    # whose gain moved by 1e-3
    moved = deviations(oracles, name, p, X, 1.0 + MOVE)
    if gain_free:
        assert_converges(moved, eps_grid, rate, bound)
    else:
        assert moved[-1] > bound
        with pytest.raises(AssertionError):
            assert_converges(moved, eps_grid, rate, bound)


def test_interpolation_is_not_the_spline_limit():
    # the interpolation row's negative control: its limit ignores the gain,
    # so the same oracles are held against the p = 3 spline limit instead
    name, p, d, rate, bound, _, eps_grid = ROWS["matern32-p4-interpolation"]
    X = design(d)
    spline = deviations(oracle_smoothers(name, p, X, eps_grid), name, 3, X, 1.0)
    assert spline.min() > bound
    with pytest.raises(AssertionError):
        assert_converges(spline, eps_grid, rate, bound)
