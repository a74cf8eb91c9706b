import numpy as np
from scipy.spatial.distance import cdist

from flatgp import accel


class TestPaths:
    def test_pairwise_matches_reference(self, rng):
        X = rng.normal(size=(20, 3))
        got = accel.pairwise_sq_dists(X)
        ref = cdist(X, X, "sqeuclidean")
        np.testing.assert_allclose(got, ref, rtol=1e-13, atol=1e-15)
        assert np.array_equal(got, got.T)
        assert not np.diag(got).any()

    def test_cross_matches_reference(self, rng):
        A, B = rng.normal(size=(7, 2)), rng.normal(size=(11, 2))
        np.testing.assert_allclose(
            accel.cross_sq_dists(A, B), cdist(A, B, "sqeuclidean"), rtol=1e-13
        )

    def test_dist_power_matches_reference(self, rng):
        X = rng.normal(size=(15, 2))
        np.testing.assert_allclose(
            accel.pairwise_sq_dists(X) ** 1.5,
            cdist(X, X) ** 3.0,
            rtol=1e-12,
        )

    def test_one_dim_input_promoted(self):
        D = np.sqrt(accel.pairwise_sq_dists(np.array([0.0, 1.0, 3.0])))
        np.testing.assert_allclose(D, [[0, 1, 3], [1, 0, 2], [3, 2, 0]])
