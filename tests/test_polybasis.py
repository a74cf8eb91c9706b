import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatgp import (
    Design,
    count_monomials,
    count_poly_dim,
    enumerate_monomials,
)
from flatgp.errors import FlatGpError
from flatgp.polybasis import framed_monomials, graded_basis
from references import vandermonde


def brute_count(k, d):
    return sum(1 for e in itertools.product(range(k + 1), repeat=d) if sum(e) == k)


class TestCounts:
    def test_three_monomials_of_degree_two_in_dim_two(self):
        assert count_monomials(2, 2) == 3

    def test_only_the_constant_at_degree_zero(self):
        assert count_monomials(0, 7) == 1

    def test_degree_three_dim_two_by_enumeration(self):
        assert count_monomials(3, 2) == brute_count(3, 2) == 4

    def test_linear_space_dimension(self):
        for d in range(1, 6):
            assert count_poly_dim(1, d) == d + 1

    def test_degree_minus_one_is_zero(self):
        assert count_poly_dim(-1, 3) == 0

    def test_quadratics_in_dim_two(self):
        assert count_poly_dim(2, 2) == 1 + 2 + 3 == 6

    def test_partial_sums_identity(self):
        for k in range(9):
            for d in range(1, 9):
                assert count_poly_dim(k, d) == sum(
                    count_monomials(i, d) for i in range(k + 1)
                )


class TestEnumeration:
    def test_linear_dim_two(self):
        assert enumerate_monomials(1, 2) == [(0, 0), (1, 0), (0, 1)]

    def test_degree_zero(self):
        for d in (1, 3, 6):
            assert enumerate_monomials(0, d) == [(0,) * d]

    def test_degree_two_block_order(self):
        block = [m for m in enumerate_monomials(2, 2) if sum(m) == 2]
        assert block == [(2, 0), (1, 1), (0, 2)]

    @given(st.integers(0, 5), st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_graded_sorted_and_complete(self, k, d):
        mis = enumerate_monomials(k, d)
        assert len(mis) == count_poly_dim(k, d)
        degrees = [sum(m) for m in mis]
        assert degrees == sorted(degrees)
        assert len(set(mis)) == len(mis)


class TestVandermonde:
    def test_matches_papers_two_dim_example(self):
        pts = np.array([[1.5, -2.0], [0.25, 3.0], [-1.0, 0.5]])
        vb = vandermonde(pts, 2)
        y, z = pts[:, 0], pts[:, 1]
        expect = np.column_stack([np.ones(3), y, z, y**2, y * z, z**2])
        np.testing.assert_allclose(vb.assembled, expect)
        assert [b.shape[1] for b in vb.blocks] == [1, 2, 3]

    def test_degree_zero_is_column_of_ones(self):
        vb = vandermonde(np.random.default_rng(0).normal(size=(6, 3)), 0)
        np.testing.assert_array_equal(vb.assembled, np.ones((6, 1)))

    def test_univariate_direct_evaluation(self):
        vb = vandermonde(np.array([0.0, 1.0, 2.0]), 2)
        np.testing.assert_allclose(
            vb.assembled, [[1, 0, 0], [1, 1, 1], [1, 2, 4]], atol=0
        )

    def test_orthonormal_columns(self, rng):
        vb = vandermonde(rng.uniform(0, 1, size=(12, 2)), 2)
        Q = vb.q_prefix(2)
        assert np.abs(Q.T @ Q - np.eye(Q.shape[1])).max() <= 1e-10

    def test_projector_property(self, rng):
        vb = vandermonde(rng.uniform(0, 1, size=(15, 2)), 3)
        Q = vb.q_prefix(3)
        P = Q @ Q.T
        assert np.abs(P @ P - P).max() <= 1e-9

    def test_prefix_spans_match_raw_monomials(self, rng):
        # span(Q_{<=j}) must equal span(V_{<=j}) for every prefix degree j
        vb = vandermonde(rng.uniform(-2, 2, size=(14, 2)), 3)
        for j in range(4):
            Q = vb.q_prefix(j)
            V = np.hstack(vb.blocks[: j + 1])
            resid = V - Q @ (Q.T @ V)
            assert np.abs(resid).max() <= 1e-9 * max(1.0, np.abs(V).max())

    def test_assembled_is_block_concatenation(self, rng):
        vb = vandermonde(rng.normal(size=(7, 2)), 2)
        np.testing.assert_array_equal(vb.assembled, np.hstack(vb.blocks))


class TestUnisolvency:
    def test_collinear_points_fail_for_quadratics(self, rng):
        t = rng.uniform(0, 1, 10)
        pts = np.column_stack([t, t])  # x1 == x2
        _, _, degree = graded_basis(pts, 2)
        assert degree < 2

    def test_any_point_set_unisolvent_for_constants(self, rng):
        for n in (1, 2, 5):
            assert graded_basis(rng.normal(size=(n, 1)), 0)[2] == 0

    def test_distinct_univariate_points_full_vandermonde(self, rng):
        x = np.sort(rng.uniform(0, 1, 6))
        _, R, degree = graded_basis(x, 5)
        assert degree == 5 and R.shape == (6, 6)


class TestGradedBasis:
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.sampled_from([1, 2]),
        k=st.integers(0, 3),
        extra=st.integers(-3, 8),
        collinear=st.booleans(),
        log_shift=st.floats(0, 4),
    )
    @settings(max_examples=80, deadline=None)
    def test_degree_is_where_the_reference_block_ranks_fall_short(
        self, seed, d, k, extra, collinear, log_shift
    ):
        # random designs, some with too few points and, in d = 2, some on a line
        rng = np.random.default_rng(seed)
        n = max(1, count_poly_dim(k, d) + extra)
        X = rng.uniform(0, 1, size=(n, d))
        if collinear and d == 2:
            X[:, 1] = X[:, 0]
        X = X + 10.0**log_shift
        Q, R, degree = graded_basis(X, k)
        full = [
            rank == count_monomials(j, d) for j, rank in enumerate(vandermonde(X, k).block_ranks)
        ]
        assert degree == (full.index(False) if False in full else k + 1) - 1
        m = count_poly_dim(degree, d)
        assert Q.shape == (n, m) and R.shape == (m, m)
        V = framed_monomials(X, enumerate_monomials(degree, d))
        np.testing.assert_allclose(Q @ R, V, rtol=0, atol=1e-12)

    def test_reference_ranks_fall_short_on_a_collinear_design(self, rng):
        # negative control: on a line in d = 2 every block past the constant
        # has rank 1, and the rank rule admits degree 0 alone
        t = rng.uniform(0, 1, 12)
        generic = np.column_stack([t, rng.uniform(0, 1, 12)])
        assert vandermonde(generic, 2).block_ranks == (1, 2, 3)
        assert graded_basis(generic, 2)[2] == 2
        collinear = np.column_stack([t, 2.0 * t + 1.0])
        assert vandermonde(collinear, 2).block_ranks == (1, 1, 1)
        assert graded_basis(collinear, 2)[2] == 0

    def test_stops_where_the_rank_rule_does(self):
        # monomials of high degree on 400 points of [-1, 1] lose rank near
        # degree 27; the basis is built in doubling batches only that far
        x = np.linspace(-1, 1, 400)
        degree = graded_basis(x, 399)[2]
        assert 15 < degree < 31
        assert graded_basis(x, degree)[2] == degree
        assert graded_basis(x, degree + 1)[2] == degree

    def test_queries_take_the_design_frame(self):
        X = np.array([[1990.0, -5.0], [2000.0, 5.0], [2020.0, 0.0]])
        q = np.array([[2005.0, 2.5]])
        # centre (2005, 0), half-widths (15, 5): q sits at (0, 0.5)
        linear = enumerate_monomials(1, 2)
        np.testing.assert_array_equal(framed_monomials(q, linear, X), [[1.0, 0.0, 0.5]])
        np.testing.assert_array_equal(framed_monomials(X, linear)[:, 1], [-1.0, -1 / 3, 1.0])


class TestDesign:
    def test_rejects_nonfinite(self):
        with pytest.raises(FlatGpError):
            Design(np.array([[0.0], [np.inf]]))

    def test_one_dim_array_promoted(self):
        d = Design(np.array([1.0, 2.0]))
        assert d.points.shape == (2, 1) and d.n == 2 and d.d == 1
