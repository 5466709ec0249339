import numpy as np
import pytest

from mlmmsb import (
    DimensionError,
    MembershipMatrix,
    MultiLayerNetwork,
    UnsupportedInputError,
    build_asum,
    build_sos,
    build_ssum_debiased,
    expected_adjacency,
    generate_connectivity,
    generate_membership,
    top_k_eigen,
)
from mlmmsb.aggregate import DENSE_EIG_LIMIT, AggregateMatrix

PATH_3 = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float)


def net_of(*layers):
    return MultiLayerNetwork(layers=np.array(layers, dtype=float))


class TestBuilders:
    def test_asum_single_layer(self):
        assert np.array_equal(build_asum(net_of(PATH_3)).matrix, PATH_3)

    def test_asum_linearity(self):
        assert np.array_equal(build_asum(net_of(PATH_3, PATH_3)).matrix, 2 * PATH_3)

    def test_asum_hand_addition(self):
        edge_13 = np.zeros((3, 3))
        edge_13[0, 2] = edge_13[2, 0] = 1
        expected = np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]], dtype=float)
        assert np.array_equal(build_asum(net_of(PATH_3, edge_13)).matrix, expected)

    def test_debiased_zero_layer(self):
        assert np.all(build_ssum_debiased(net_of(np.zeros((3, 3)))).matrix == 0)

    def test_debiased_hand_square(self):
        # path 1-2-3: A^2 = [[1,0,1],[0,2,0],[1,0,1]], degrees (1,2,1)
        expected = np.array([[0, 0, 1], [0, 0, 0], [1, 0, 0]], dtype=float)
        assert np.array_equal(build_ssum_debiased(net_of(PATH_3)).matrix, expected)

    def test_debiased_diagonal_exactly_zero(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            a = np.triu((rng.random((8, 8)) < 0.4).astype(float), k=1)
            a = a + a.T
            diag = np.diagonal(build_ssum_debiased(net_of(a)).matrix)
            assert np.all(diag == 0)

    def test_debiased_rejects_weighted(self):
        with pytest.raises(UnsupportedInputError):
            build_ssum_debiased(net_of(0.5 * PATH_3))

    def test_sos_single_path(self):
        expected = np.array([[1, 0, 1], [0, 2, 0], [1, 0, 1]], dtype=float)
        assert np.array_equal(build_sos(net_of(PATH_3)).matrix, expected)

    def test_sos_equals_debiased_plus_degrees(self):
        rng = np.random.default_rng(1)
        layers = []
        for _ in range(4):
            a = np.triu((rng.random((10, 10)) < 0.3).astype(float), k=1)
            layers.append(a + a.T)
        net = net_of(*layers)
        diff = build_sos(net).matrix - build_ssum_debiased(net).matrix
        degrees = sum(a.sum(axis=1) for a in layers)
        assert np.allclose(diff, np.diag(degrees))


class TestTopKEigen:
    def test_diagonal_case(self):
        emb = top_k_eigen(AggregateMatrix(np.diag([3.0, -2.0, 1.0]), "SUM"), 2)
        assert np.allclose(emb.eigenvalues, [3, -2])
        assert np.allclose(np.abs(emb.vectors), np.eye(3)[:, :2])
        # sign convention: dominant entry positive
        assert emb.vectors[0, 0] > 0 and emb.vectors[1, 1] > 0

    def test_rank_one_case(self):
        x = np.array([1.0, 2.0, 2.0])
        emb = top_k_eigen(AggregateMatrix(np.outer(x, x), "SUM"), 1)
        assert np.allclose(emb.eigenvalues, [9.0])
        assert np.allclose(emb.vectors[:, 0], x / 3)

    def test_matches_full_dense_oracle(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((6, 6))
        m = m + m.T
        emb = top_k_eigen(AggregateMatrix(m, "SUM"), 3)
        values, vectors = np.linalg.eigh(m)
        order = np.argsort(-np.abs(values))[:3]
        assert np.allclose(np.abs(emb.eigenvalues), np.abs(values[order]), atol=1e-8)
        for k, col in enumerate(order):
            dot = abs(float(emb.vectors[:, k] @ vectors[:, col]))
            assert abs(dot - 1) < 1e-8

    def test_residuals_small(self):
        rng = np.random.default_rng(4)
        m = rng.standard_normal((20, 20))
        m = m + m.T
        emb = top_k_eigen(AggregateMatrix(m, "SUM"), 5)
        for k in range(5):
            res = np.linalg.norm(m @ emb.vectors[:, k] - emb.eigenvalues[k] * emb.vectors[:, k])
            assert res <= 1e-8 * max(1, abs(emb.eigenvalues[0]))

    def test_reconstruction_bound(self):
        rng = np.random.default_rng(5)
        m = rng.standard_normal((12, 12))
        m = m + m.T
        K = 4
        emb = top_k_eigen(AggregateMatrix(m, "SUM"), K)
        approx = emb.vectors @ np.diag(emb.eigenvalues) @ emb.vectors.T
        values = np.sort(np.abs(np.linalg.eigvalsh(m)))[::-1]
        bound = values[K] + 1e-6 * values[0]
        assert np.linalg.norm(m - approx, 2) <= bound + 1e-9

    def test_k_out_of_range(self):
        with pytest.raises(DimensionError):
            top_k_eigen(AggregateMatrix(np.eye(3), "SUM"), 4)

    def test_degeneracy_warning_on_boundary_tie(self):
        emb = top_k_eigen(AggregateMatrix(np.diag([2.0, -2.0, 1.0]), "SUM"), 1)
        assert emb.warnings

    def test_lanczos_path_repeatable(self):
        rng = np.random.default_rng(12)
        n = DENSE_EIG_LIMIT + 52
        x = rng.standard_normal((n, 3))
        noise = rng.standard_normal((n, n))
        agg = AggregateMatrix(x @ np.diag([40.0, -30.0, 20.0]) @ x.T + noise + noise.T, "SUM")
        first = top_k_eigen(agg, 3)
        second = top_k_eigen(agg, 3)
        assert np.array_equal(first.vectors, second.vectors)
        assert np.array_equal(first.eigenvalues, second.eigenvalues)

    def test_orthonormal_columns(self):
        rng = np.random.default_rng(6)
        m = rng.standard_normal((15, 15))
        m = m + m.T
        emb = top_k_eigen(AggregateMatrix(m, "SUM"), 4)
        gram = emb.vectors.T @ emb.vectors
        assert np.max(np.abs(gram - np.eye(4))) < 1e-8


class TestIdealSimplex:
    def test_population_sum_embedding_lies_on_simplex(self):
        pi = generate_membership(60, 3, 10, seed=7)
        conn = generate_connectivity(3, 8, seed=8, rho=0.6)
        omega = expected_adjacency(pi, conn)
        emb = top_k_eigen(build_asum(omega), 3)
        pure = np.asarray(pi.pure_index_hint)
        recon = pi.rows @ emb.vectors[pure, :]
        assert np.max(np.abs(emb.vectors - recon)) < 1e-8

    def test_population_sos_embedding_lies_on_simplex(self):
        pi = generate_membership(60, 3, 10, seed=9)
        conn = generate_connectivity(3, 8, seed=10, rho=0.6)
        omega = expected_adjacency(pi, conn)
        emb = top_k_eigen(build_sos(omega), 3)
        pure = np.asarray(pi.pure_index_hint)
        recon = pi.rows @ emb.vectors[pure, :]
        assert np.max(np.abs(emb.vectors - recon)) < 1e-8
