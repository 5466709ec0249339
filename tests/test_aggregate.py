import numpy as np
import pytest
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from mlmmsb import (
    DimensionError,
    MembershipMatrix,
    MultiLayerNetwork,
    UnsupportedInputError,
    UnusableDataError,
    build_asum,
    build_sos,
    build_ssum_debiased,
    expected_adjacency,
    generate_connectivity,
    generate_membership,
    sample_mlmmsb,
    top_k_eigen,
)
from mlmmsb.aggregate import (
    DENSE_EIG_LIMIT,
    AggregateMatrix,
    _order_by_magnitude,
    embedding_source,
)

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


def float64_square_sum(layers):
    """Sum of A_l @ A_l in float64, one layer at a time: the reference for
    the squared builders."""
    out = np.zeros(layers.shape[1:])
    for a in layers:
        a = a.astype(np.float64)
        out += a @ a
    return out


class TestSquaresAgainstFloat64:
    @pytest.mark.parametrize("self_loops", [False, True])
    @pytest.mark.parametrize("n", [61, 600, DENSE_EIG_LIMIT + 52])
    @pytest.mark.parametrize("K", [2, 3, 5])
    def test_binary_builds_equal_float64_loop(self, K, n, self_loops):
        pi = generate_membership(n, K, n // (2 * K), seed=n + K)
        conn = generate_connectivity(K, 2, seed=K, rho=0.3)
        net = sample_mlmmsb(pi, conn, seed=n, allow_self_loops=self_loops)
        assert net.binary
        reference = float64_square_sum(net.layers)
        assert np.array_equal(build_sos(net).matrix, reference)
        reference[np.diag_indices(n)] -= net.layers.sum(axis=(0, 2), dtype=float)
        assert np.array_equal(build_ssum_debiased(net).matrix, reference)

    def test_weighted_sos_equals_float64_loop(self):
        rng = np.random.default_rng(2)
        values = np.array([0.0, 0.1, 1 / 3, 1.0, 2.5])
        upper = np.triu(rng.choice(values, size=(4, 61, 61)))
        net = MultiLayerNetwork(layers=upper + np.triu(upper, k=1).transpose(0, 2, 1))
        assert not net.binary
        assert np.array_equal(build_sos(net).matrix, float64_square_sum(net.layers))

    def test_expectation_sos_equals_float64_loop(self):
        pi = generate_membership(61, 3, 10, seed=3)
        omega = expected_adjacency(pi, generate_connectivity(3, 4, seed=4, rho=0.3))
        assert np.array_equal(build_sos(omega).matrix, float64_square_sum(omega.layers))


class TestTopKEigen:
    def test_diagonal_case(self):
        emb = top_k_eigen(AggregateMatrix(np.diag([3.0, -2.0, 1.0])), 2)
        assert np.allclose(emb.eigenvalues, [3, -2])
        assert np.allclose(np.abs(emb.vectors), np.eye(3)[:, :2])
        # sign convention: dominant entry positive
        assert emb.vectors[0, 0] > 0 and emb.vectors[1, 1] > 0

    def test_rank_one_case(self):
        x = np.array([1.0, 2.0, 2.0])
        emb = top_k_eigen(AggregateMatrix(np.outer(x, x)), 1)
        assert np.allclose(emb.eigenvalues, [9.0])
        assert np.allclose(emb.vectors[:, 0], x / 3)

    def test_matches_full_dense_oracle(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((6, 6))
        m = m + m.T
        emb = top_k_eigen(AggregateMatrix(m), 3)
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
        emb = top_k_eigen(AggregateMatrix(m), 5)
        for k in range(5):
            res = np.linalg.norm(m @ emb.vectors[:, k] - emb.eigenvalues[k] * emb.vectors[:, k])
            assert res <= 1e-8 * max(1, abs(emb.eigenvalues[0]))

    def test_reconstruction_bound(self):
        rng = np.random.default_rng(5)
        m = rng.standard_normal((12, 12))
        m = m + m.T
        K = 4
        emb = top_k_eigen(AggregateMatrix(m), K)
        approx = emb.vectors @ np.diag(emb.eigenvalues) @ emb.vectors.T
        values = np.sort(np.abs(np.linalg.eigvalsh(m)))[::-1]
        bound = values[K] + 1e-6 * values[0]
        assert np.linalg.norm(m - approx, 2) <= bound + 1e-9

    def test_k_out_of_range(self):
        with pytest.raises(DimensionError):
            top_k_eigen(AggregateMatrix(np.eye(3)), 4)

    def test_degeneracy_warning_on_boundary_tie(self):
        emb = top_k_eigen(AggregateMatrix(np.diag([2.0, -2.0, 1.0])), 1)
        assert emb.warnings

    def test_lanczos_path_repeatable(self):
        rng = np.random.default_rng(12)
        n = DENSE_EIG_LIMIT + 52
        x = rng.standard_normal((n, 3))
        noise = rng.standard_normal((n, n))
        agg = AggregateMatrix(x @ np.diag([40.0, -30.0, 20.0]) @ x.T + noise + noise.T)
        first = top_k_eigen(agg, 3)
        second = top_k_eigen(agg, 3)
        assert np.array_equal(first.vectors, second.vectors)
        assert np.array_equal(first.eigenvalues, second.eigenvalues)

    def test_lanczos_no_convergence_is_typed(self, monkeypatch):
        def no_convergence(*args, **kwargs):
            raise scipy.sparse.linalg.ArpackNoConvergence("no luck", np.array([]), None)

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", no_convergence)
        agg = AggregateMatrix(np.eye(DENSE_EIG_LIMIT + 1))
        with pytest.raises(UnusableDataError) as info:
            top_k_eigen(agg, 3)
        assert isinstance(info.value.__cause__, scipy.sparse.linalg.ArpackNoConvergence)

    def test_orthonormal_columns(self):
        rng = np.random.default_rng(6)
        m = rng.standard_normal((15, 15))
        m = m + m.T
        emb = top_k_eigen(AggregateMatrix(m), 4)
        gram = emb.vectors.T @ emb.vectors
        assert np.max(np.abs(gram - np.eye(4))) < 1e-8


def key_sort_order(values):
    """Magnitude order by a Python key sort, as the package computed it
    before it used np.lexsort: the reference for _order_by_magnitude."""
    return np.array(
        sorted(range(len(values)), key=lambda i: (-abs(values[i]), -values[i], i)),
        dtype=np.intp,
    )


class TestOrderByMagnitude:
    @settings(max_examples=300, deadline=None)
    @given(
        values=st.lists(
            st.one_of(
                st.sampled_from([-3.0, -1.0, -0.0, 0.0, 1.0, 3.0]),
                st.floats(allow_nan=False, allow_infinity=False),
            ),
            min_size=1,
            max_size=40,
        )
    )
    def test_equals_key_sort(self, values):
        values = np.array(values)
        assert np.array_equal(_order_by_magnitude(values), key_sort_order(values))

    def test_ties_by_signed_value_then_index(self):
        values = np.array([-2.0, 0.0, 2.0, -0.0, 1.0, -2.0])
        assert list(_order_by_magnitude(values)) == [2, 0, 5, 4, 1, 3]


def sampled_dsos(n, K=3, L=4):
    pi = generate_membership(n, K, n // (2 * K), seed=n)
    net = sample_mlmmsb(pi, generate_connectivity(K, L, seed=K, rho=0.3), seed=n + 1)
    return build_ssum_debiased(net)


def assert_same_embedding(got, want):
    assert np.array_equal(got.vectors, want.vectors)
    assert np.array_equal(got.eigenvalues, want.eigenvalues)
    assert got.warnings == want.warnings


class TestSharedDecomposition:
    @pytest.mark.parametrize("n", [61, 600])
    def test_each_k_equals_its_own_decomposition(self, n):
        agg = sampled_dsos(n)
        embedding_at = embedding_source(agg, 6)
        for K in range(1, 7):
            assert_same_embedding(embedding_at(K), top_k_eigen(agg, K))

    @pytest.mark.parametrize("k_max", [1, 2, 3, 4])
    def test_tie_notes_match(self, k_max):
        # |3| = |-3| ties across K = 1 and |1| = |-1| across K = 3
        agg = AggregateMatrix(np.diag([3.0, -3.0, 1.0, -1.0, 0.5]))
        embedding_at = embedding_source(agg, k_max)
        for K in range(1, k_max + 1):
            want = top_k_eigen(agg, K)
            assert bool(want.warnings) == (K in (1, 3))
            assert_same_embedding(embedding_at(K), want)

    def test_one_dense_eigh(self, monkeypatch):
        eigh = np.linalg.eigh
        calls = []

        def counting(matrix):
            calls.append(matrix.shape)
            return eigh(matrix)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        embedding_at = embedding_source(sampled_dsos(61), 5)
        for K in range(1, 6):
            embedding_at(K)
        assert calls == [(61, 61)]

    def test_shared_error_raised_at_every_k(self, monkeypatch):
        def failing(matrix):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", failing)
        embedding_at = embedding_source(sampled_dsos(61), 4)
        for K in range(1, 5):
            with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
                embedding_at(K)

    def test_leading_out_of_range(self):
        emb = top_k_eigen(AggregateMatrix(np.diag([3.0, 2.0, 1.0])), 2)
        for K in (0, 3):
            with pytest.raises(DimensionError):
                emb.leading(K)


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
