"""The limiting smoothers against an 80-digit oracle.

For a scaled family k_eps = gamma0 eps^(-p) psi(eps ||x - y||), the smoother
K_eps (K_eps + sigma2 I)^(-1) is built in mpmath at 80 significant digits from
the profile formulas written out here, not from ``flatgp.kernels``.  As eps
falls its distance to ``limiting_smoother(...).matrix``, the smoother of the
flat-limit model that ``flatgp`` factors in double precision, falls at the
rate of the flat-limit theorems: eps for the spline and unpenalized limits,
eps^2 for the Gaussian's penalized one in d = 2.  At eps = 1e-4 the kernel
entries agree with psi(0) to within about eps (eps^2 for the Gaussian) while
the gain eps^(-p) is up to 1e12, so double precision keeps few of the digits
the smoother depends on: only a high-precision oracle follows it that far.

A family whose gain is moved by 1e-3 has another limit wherever the limit
depends on the gain (spline and penalized limits), and must fail the bound;
an unpenalized polynomial limit does not depend on the gain, and the moved
family still meets it.
"""

import mpmath
import numpy as np
import pytest

from flatgp import Kernel
from flatgp.flatlimit import ScaledKernelFamily, limiting_smoother

DIGITS = 80
N, SIGMA2 = 10, 0.1
EPS = (1e-2, 1e-3, 1e-4)
MOVE = 1e-3  # the negative control's relative move of the gain

SQRT3 = mpmath.sqrt(3)
PROFILES = {
    "matern32": lambda t: (1 + SQRT3 * t) * mpmath.exp(-SQRT3 * t),
    "exponential": lambda t: mpmath.exp(-t),
    "gaussian": lambda t: mpmath.exp(-t * t),
}
BASES = {
    "matern32": Kernel.matern(1.5),
    "exponential": Kernel.exponential(),
    "gaussian": Kernel.gaussian(),
}

# (profile, p, d, rate, bound on the deviation at eps = 1e-4, gain-free
# limit); the bounds are about twice the deviations measured on these
# designs, which fell at the stated rate from eps = 1e-2 on
ROWS = {
    "matern32-p3-spline": ("matern32", 3, 1, 1.0, 3e-5, False),
    "matern32-p1-unpenalized": ("matern32", 1, 1, 1.0, 2e-3, True),
    "gaussian-p2-d2-penalized": ("gaussian", 2, 2, 2.0, 2e-8, False),
    "gaussian-p3-unpenalized": ("gaussian", 3, 1, 1.0, 1e-4, True),
    "exponential-p1-spline": ("exponential", 1, 1, 1.0, 8e-6, False),
}


def design(d):
    return np.random.default_rng(20).uniform(0, 1, size=(N, d))


def oracle_smoothers(name, p, X):
    """K (K + sigma2 I)^(-1) = I - sigma2 (K + sigma2 I)^(-1) of the family at
    unit gamma0, at each eps of ``EPS``, in mpmath."""
    profile, out = PROFILES[name], []
    with mpmath.workdps(DIGITS):
        pts = [[mpmath.mpf(float(v)) for v in row] for row in X]
        dists = [[mpmath.sqrt(sum((a - b) ** 2 for a, b in zip(u, v))) for v in pts] for u in pts]
        for eps in EPS:
            gain, eps = mpmath.mpf(eps ** (-p)), mpmath.mpf(eps)
            A = mpmath.matrix([[gain * profile(eps * r) for r in row] for row in dists])
            A += SIGMA2 * mpmath.eye(N)
            out.append(mpmath.eye(N) - SIGMA2 * mpmath.inverse(A))
    return out


def deviations(oracles, name, p, X, gamma0):
    """max |oracle smoother - limiting smoother of the family at ``gamma0``|
    at each eps of ``EPS``."""
    family = ScaledKernelFamily(BASES[name], p, gamma0=gamma0)
    limit = limiting_smoother(family, X, SIGMA2).matrix
    with mpmath.workdps(DIGITS):
        return np.array([
            float(max(abs(S[i, j] - limit[i, j]) for i in range(N) for j in range(N)))
            for S in oracles
        ])


def assert_converges(devs, rate, bound):
    """The deviations fall at ``rate`` (a least-squares slope in log-log
    within 0.1 of it) and end at or below ``bound``."""
    slope = np.polyfit(np.log(EPS), np.log(devs), 1)[0]
    assert abs(slope - rate) <= 0.1, (slope, devs)
    assert devs[-1] <= bound, devs


@pytest.mark.parametrize("row", ROWS)
def test_limiting_smoother_converges_to_the_oracle(row):
    name, p, d, rate, bound, gain_free = ROWS[row]
    X = design(d)
    oracles = oracle_smoothers(name, p, X)
    assert_converges(deviations(oracles, name, p, X, 1.0), rate, bound)
    # negative control: the same oracles against the limit of the family
    # whose gain moved by 1e-3
    moved = deviations(oracles, name, p, X, 1.0 + MOVE)
    if gain_free:
        assert_converges(moved, rate, bound)
    else:
        assert moved[-1] > bound
        with pytest.raises(AssertionError):
            assert_converges(moved, rate, bound)
