import math
import warnings

import numpy as np
import pytest

from matchbench import (
    AffinityDecomposition,
    MatchedSample,
    RankRejectionError,
    mutual_indices,
    normalize_weights,
    rank1_weights,
    svd_decompose,
    verify_surplus_identity,
)


def random_unit(rng, d):
    v = rng.normal(size=d)
    return normalize_weights(v)


class TestSvdDecompose:
    def test_identity_matrix(self):
        d = svd_decompose(np.eye(2))
        np.testing.assert_allclose(d.lambdas, [1.0, 1.0])
        np.testing.assert_allclose(d.shares, [0.5, 0.5])
        assert d.numerical_rank == 2

    def test_rank_one_construction(self):
        alpha = np.array([1.0, 2.0]) / math.sqrt(5.0)
        beta = np.array([3.0, 1.0]) / math.sqrt(10.0)
        d = svd_decompose(np.outer(alpha, beta))
        np.testing.assert_allclose(d.lambdas, [1.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(d.U[0], alpha, atol=1e-12)
        np.testing.assert_allclose(d.V[0], beta, atol=1e-12)
        assert d.numerical_rank == 1

    def test_diagonal_shares(self):
        d = svd_decompose(np.diag([3.0, 1.0]))
        np.testing.assert_allclose(d.shares, [0.75, 0.25])

    def test_shares_survive_an_overflowing_sum(self):
        # the two singular values are about 1.41e308 each, so their sum is inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            d = svd_decompose([[1e308, 1e308], [1e308, -1e308]])
        assert np.all(np.isfinite(d.lambdas)) and d.numerical_rank == 2
        np.testing.assert_allclose(d.shares, [0.5, 0.5], rtol=1e-15)
        assert abs(d.shares.sum() - 1.0) < 1e-15

    def test_zero_matrix(self):
        d = svd_decompose(np.zeros((2, 3)))
        assert d.numerical_rank == 0
        assert not d.shares.any()

    def test_invariants_on_random_matrices(self, rng):
        for _ in range(1000):
            dx = int(rng.integers(1, 11))
            dy = int(rng.integers(1, 11))
            a = rng.normal(size=(dx, dy))
            d = svd_decompose(a)
            # A = U' diag(lambdas) V, with the diagonal padded to dx x dy
            lam = np.zeros((dx, dy))
            lam[np.arange(d.lambdas.size), np.arange(d.lambdas.size)] = d.lambdas
            scale = max(1.0, float(np.linalg.norm(a)))
            assert np.linalg.norm(d.U.T @ lam @ d.V - a) / scale < 1e-10
            assert np.max(np.abs(d.U @ d.U.T - np.eye(dx))) < 1e-10
            assert np.max(np.abs(d.V @ d.V.T - np.eye(dy))) < 1e-10
            assert np.all(np.diff(d.lambdas) <= 0)
            assert np.all(d.lambdas >= 0)
            if d.lambdas.sum() > 0:
                assert abs(d.shares.sum() - 1.0) < 1e-12

    def test_planted_rank_detected(self, rng):
        for r in (1, 2, 3):
            u = np.linalg.qr(rng.normal(size=(5, r)))[0]
            v = np.linalg.qr(rng.normal(size=(4, r)))[0]
            a = u @ np.diag(np.linspace(2.0, 1.0, r)) @ v.T
            for tol in (1e-10, 1e-8, 1e-6):
                assert svd_decompose(a, rank_tol=tol).numerical_rank == r

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            svd_decompose(np.array([[1.0, np.nan]]))

    def test_rejects_an_overflowing_singular_value(self):
        # each entry is finite, but the one singular value is 1.7e308 * sqrt(2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="affinity matrix"):
                svd_decompose([[1.7e308], [1.7e308]])


class TestMutualIndices:
    def test_identity_loadings(self, rng):
        s = MatchedSample(xs=rng.normal(size=(50, 2)), ys=rng.normal(size=(50, 2)))
        d = svd_decompose(np.eye(2))
        xt, yt = mutual_indices(d, s)
        np.testing.assert_allclose(xt, s.xs)

    def test_permutation_loadings_reorder(self, rng):
        s = MatchedSample(xs=rng.normal(size=(20, 2)), ys=rng.normal(size=(20, 2)))
        perm = np.array([[0.0, 1.0], [1.0, 0.0]])
        d = AffinityDecomposition(U=perm, V=np.eye(2), lambdas=np.ones(2),
                                  shares=np.full(2, 0.5), numerical_rank=2)
        xt, _ = mutual_indices(d, s)
        np.testing.assert_allclose(xt, s.xs[:, ::-1])

    def test_dimension_mismatch(self, rng):
        s = MatchedSample(xs=rng.normal(size=(10, 3)), ys=rng.normal(size=(10, 2)))
        with pytest.raises(ValueError):
            mutual_indices(svd_decompose(np.eye(2)), s)


class TestSurplusIdentity:
    def test_random_affinities(self, rng):
        s = MatchedSample(xs=rng.normal(size=(100, 3)), ys=rng.normal(size=(100, 4)))
        for _ in range(20):
            a = rng.normal(size=(3, 4))
            assert verify_surplus_identity(a, svd_decompose(a), s) <= 1e-10

    def test_zero_affinity(self, rng):
        s = MatchedSample(xs=rng.normal(size=(10, 2)), ys=rng.normal(size=(10, 2)))
        a = np.zeros((2, 2))
        assert verify_surplus_identity(a, svd_decompose(a), s) == 0.0

    def test_rank_one_reduces_to_index_product(self, rng):
        alpha = random_unit(rng, 3)
        beta = random_unit(rng, 2)
        a = np.outer(alpha, beta)
        s = MatchedSample(xs=rng.normal(size=(50, 3)), ys=rng.normal(size=(50, 2)))
        d = svd_decompose(a)
        xt, yt = mutual_indices(d, s)
        recovered = d.lambdas[0] * xt[:, 0] * yt[:, 0]
        expected = (s.xs @ alpha) * (s.ys @ beta)
        np.testing.assert_allclose(recovered, expected, atol=1e-10)


class TestRank1Weights:
    def test_exact_recovery(self, rng):
        for _ in range(100):
            alpha = random_unit(rng, int(rng.integers(1, 6)))
            beta = random_unit(rng, int(rng.integers(1, 6)))
            d = svd_decompose(np.outer(alpha, beta))
            got_alpha, got_beta = rank1_weights(d)
            np.testing.assert_allclose(got_alpha, alpha, atol=1e-10)
            np.testing.assert_allclose(got_beta, beta, atol=1e-10)

    def test_rejection_carries_profile(self):
        with pytest.raises(RankRejectionError) as err:
            rank1_weights(svd_decompose(np.diag([3.0, 1.0])))
        assert err.value.numerical_rank == 2
        np.testing.assert_allclose(err.value.lambdas, [3.0, 1.0])

    def test_noise_below_threshold_accepted(self, rng):
        alpha = random_unit(rng, 3)
        beta = random_unit(rng, 3)
        a = np.outer(alpha, beta) + 1e-12 * rng.normal(size=(3, 3))
        d = svd_decompose(a, rank_tol=1e-8)
        got_alpha, got_beta = rank1_weights(d)
        np.testing.assert_allclose(got_alpha, alpha, atol=1e-6)
        np.testing.assert_allclose(got_beta, beta, atol=1e-6)
