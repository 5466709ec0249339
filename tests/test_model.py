import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlmmsb import (
    ConfigError,
    ConnectivityStack,
    DegeneracyWarning,
    DimensionError,
    MembershipMatrix,
    MultiLayerNetwork,
    expected_adjacency,
    generate_connectivity,
    generate_membership,
    sample_mlmmsb,
)


def stack(mats, rho=1.0):
    return ConnectivityStack(matrices=np.array(mats, dtype=float), rho=rho)


class TestTypes:
    def test_membership_rejects_bad_row_sums(self):
        with pytest.raises(ConfigError):
            MembershipMatrix(rows=np.array([[0.5, 0.4]]))

    def test_membership_rejects_out_of_range(self):
        with pytest.raises(ConfigError):
            MembershipMatrix(rows=np.array([[1.5, -0.5]]))

    def test_pure_hint_must_point_at_basis_rows(self):
        rows = np.array([[0.5, 0.5], [0.0, 1.0]])
        with pytest.raises(ConfigError):
            MembershipMatrix(rows=rows, pure_index_hint=(0, 1))
        MembershipMatrix(rows=np.eye(2), pure_index_hint=(0, 1))

    def test_connectivity_requires_symmetry(self):
        with pytest.raises(ConfigError):
            stack([[[0.1, 0.2], [0.3, 0.1]]])

    def test_connectivity_rho_range(self):
        with pytest.raises(ConfigError):
            stack([np.eye(2)], rho=1.5)

    def test_network_requires_symmetry(self):
        bad = np.zeros((1, 2, 2))
        bad[0, 0, 1] = 1
        with pytest.raises(ConfigError):
            MultiLayerNetwork(layers=bad)

    @pytest.mark.parametrize(
        "entry, value",
        [((0, 1), 0.0), ((0, 0), -1.0), ((1, 1), np.nan), ((0, 1), np.inf)],
    )
    def test_network_checks_every_layer(self, entry, value):
        # only the last layer is bad (asymmetric, negative or non-finite)
        layers = np.zeros((3, 2, 2))
        layers[:, 0, 1] = layers[:, 1, 0] = 1.0
        layers[-1][entry] = value
        with pytest.raises(ConfigError):
            MultiLayerNetwork(layers=layers)

    def test_network_rejects_symmetric_nan(self):
        layers = np.zeros((2, 3, 3))
        layers[1, 0, 2] = layers[1, 2, 0] = np.nan
        with pytest.raises(ConfigError, match="finite"):
            MultiLayerNetwork(layers=layers)

    def test_binary_flag_reads_every_layer(self):
        layers = np.ones((3, 2, 2))
        assert MultiLayerNetwork(layers=layers).binary
        layers[-1, 0, 1] = layers[-1, 1, 0] = 0.5
        assert not MultiLayerNetwork(layers=layers).binary

    def test_network_binary_flag(self):
        ones = np.ones((1, 2, 2))
        assert MultiLayerNetwork(layers=ones).binary
        assert not MultiLayerNetwork(layers=0.5 * ones).binary

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_membership_rejects_non_finite(self, value):
        with pytest.raises(ConfigError, match="finite"):
            MembershipMatrix(rows=[[value, value], [1.0, 0.0]])

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_connectivity_rejects_non_finite(self, value):
        with pytest.raises(ConfigError, match="finite"):
            ConnectivityStack(matrices=np.full((2, 2, 2), value), rho=0.5)


@st.composite
def symmetric_layers(draw):
    """A symmetric (L, n, n) array of bool, uint8 or float64 entries, binary
    or not."""
    dtype = draw(st.sampled_from([np.bool_, np.uint8, np.float64]))
    values = {
        np.bool_: st.booleans(),
        np.uint8: st.sampled_from([0, 1, 1, 2, 255]),
        np.float64: st.sampled_from([0.0, -0.0, 1.0, 1.0, 0.5, 2.0, 1e300]),
    }[dtype]
    if draw(st.booleans()):
        values = st.sampled_from([dtype(0), dtype(1)])
    L, n = draw(st.integers(1, 3)), draw(st.integers(1, 5))
    cells = draw(st.lists(values, min_size=L * n * n, max_size=L * n * n))
    upper = np.triu(np.array(cells, dtype=dtype).reshape(L, n, n))
    return upper + np.triu(upper, k=1).transpose(0, 2, 1)


class TestLayerDtype:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int64, np.bool_, np.uint8])
    def test_binary_input_is_stored_as_uint8(self, dtype):
        layers = np.array([[[0, 1], [1, 1]], [[0, 0], [0, 0]]], dtype=dtype)
        net = MultiLayerNetwork(layers=layers)
        assert net.layers.dtype == np.uint8
        assert net.binary
        assert np.array_equal(net.layers, layers)

    def test_uint8_count_above_one_is_weighted(self):
        layers = np.array([[[0, 2], [2, 1]]], dtype=np.uint8)
        net = MultiLayerNetwork(layers=layers)
        assert net.layers.dtype == np.float64
        assert not net.binary
        assert np.array_equal(net.layers, layers)

    def test_uint8_must_be_symmetric(self):
        layers = np.zeros((2, 2, 2), dtype=np.uint8)
        layers[1, 0, 1] = 1
        with pytest.raises(ConfigError, match="symmetric"):
            MultiLayerNetwork(layers=layers)

    @settings(max_examples=300, deadline=None)
    @given(layers=symmetric_layers())
    def test_stored_values_equal_input(self, layers):
        net = MultiLayerNetwork(layers=layers)
        assert np.array_equal(net.layers, layers)
        binary = bool(np.isin(layers, (0, 1)).all())
        assert net.layers.dtype == (np.uint8 if binary else np.float64)
        assert net.binary == binary

    def test_sampler_returns_uint8(self):
        pi = generate_membership(30, 3, 6, seed=2)
        net = sample_mlmmsb(pi, generate_connectivity(3, 4, seed=7, rho=0.5), seed=1)
        assert net.layers.dtype == np.uint8


class TestExpectedAdjacency:
    def test_identity_case(self):
        pi = MembershipMatrix(rows=np.eye(2))
        omega = expected_adjacency(pi, stack([np.eye(2)]))
        assert np.allclose(omega.layers[0], np.eye(2))

    def test_zero_rho_gives_zero_layers(self):
        pi = MembershipMatrix(rows=np.eye(2))
        omega = expected_adjacency(pi, stack([np.ones((2, 2))], rho=0.0))
        assert np.all(omega.layers == 0)

    def test_mixed_row_hand_product(self):
        pi = MembershipMatrix(rows=np.array([[1, 0], [0, 1], [0.5, 0.5]]))
        omega = expected_adjacency(pi, stack([np.eye(2)]))
        assert np.allclose(omega.layers[0][2], [0.5, 0.5, 0.5])

    def test_dimension_mismatch(self):
        pi = MembershipMatrix(rows=np.eye(3))
        with pytest.raises(DimensionError):
            expected_adjacency(pi, stack([np.eye(2)]))

    def test_entries_bounded_by_rho(self):
        pi = generate_membership(30, 3, 5, seed=0)
        conn = generate_connectivity(3, 4, seed=1, rho=0.3)
        omega = expected_adjacency(pi, conn)
        assert omega.layers.min() >= 0
        assert omega.layers.max() <= 0.3 + 1e-12


def einsum_expectation(pi, conn):
    """Reference expectation stack from one three-operand einsum."""
    omega = conn.rho * np.einsum("ik,lkm,jm->lij", pi.rows, conn.matrices, pi.rows)
    return 0.5 * (omega + omega.transpose(0, 2, 1))


def einsum_sample(pi, conn, seed, allow_self_loops):
    """Reference sampler: draws the triu_indices entries of the einsum stack."""
    omega = einsum_expectation(pi, conn)
    n = pi.n
    iu = np.triu_indices(n, k=0 if allow_self_loops else 1)
    layers = np.zeros((conn.L, n, n))
    for l in range(conn.L):
        ss = np.random.SeedSequence(entropy=seed, spawn_key=(l,))
        draws = np.random.default_rng(ss).random(iu[0].size)
        layers[l][iu] = (draws < omega[l][iu]).astype(float)
        layers[l] = np.maximum(layers[l], layers[l].T)
    return layers


class TestAgainstEinsum:
    @pytest.mark.parametrize("K", [2, 3, 5])
    @pytest.mark.parametrize("allow_self_loops", [True, False])
    @pytest.mark.parametrize("n", [61, 127])
    def test_sampler_matches_reference(self, K, allow_self_loops, n):
        pi = generate_membership(n, K, n // (2 * K), seed=n + K)
        conn = generate_connectivity(K, 6, seed=K, rho=0.4)
        net = sample_mlmmsb(pi, conn, seed=31 * n + K, allow_self_loops=allow_self_loops)
        expected = einsum_sample(pi, conn, 31 * n + K, allow_self_loops)
        assert np.array_equal(net.layers, expected)

    @pytest.mark.parametrize("K", [2, 3, 5])
    def test_expectation_symmetric_and_close(self, K):
        pi = generate_membership(83, K, 7, seed=K)
        conn = generate_connectivity(K, 5, seed=K + 1, rho=0.7)
        omega = expected_adjacency(pi, conn).layers
        assert np.array_equal(omega, omega.transpose(0, 2, 1))
        assert np.max(np.abs(omega - einsum_expectation(pi, conn))) <= 1e-15


class TestSampler:
    # an all-ones connectivity matrix has rank 1 < K = 2: the sampler warns
    def test_zero_rho_samples_empty(self):
        pi = MembershipMatrix(rows=np.eye(2))
        with pytest.warns(DegeneracyWarning):
            net = sample_mlmmsb(pi, stack([np.ones((2, 2))], rho=0.0), seed=5)
        assert np.all(net.layers == 0)

    def test_probability_one_gives_all_ones(self):
        pi = MembershipMatrix(rows=np.eye(2))
        with pytest.warns(DegeneracyWarning):
            net = sample_mlmmsb(pi, stack([np.ones((2, 2))]), seed=5)
        assert np.all(net.layers == 1)  # includes the diagonal

    def test_self_loop_flag_zeroes_diagonal(self):
        pi = MembershipMatrix(rows=np.eye(2))
        with pytest.warns(DegeneracyWarning):
            net = sample_mlmmsb(
                pi, stack([np.ones((2, 2))]), seed=5, allow_self_loops=False
            )
        assert np.all(np.diagonal(net.layers, axis1=1, axis2=2) == 0)
        assert net.layers[0, 0, 1] == 1

    def test_deterministic_per_seed(self):
        pi = generate_membership(40, 3, 8, seed=3)
        conn = generate_connectivity(3, 5, seed=4, rho=0.4)
        a = sample_mlmmsb(pi, conn, seed=9)
        b = sample_mlmmsb(pi, conn, seed=9)
        c = sample_mlmmsb(pi, conn, seed=10)
        assert np.array_equal(a.layers, b.layers)
        assert not np.array_equal(a.layers, c.layers)

    def test_symmetric_binary(self):
        pi = generate_membership(30, 3, 6, seed=2)
        conn = generate_connectivity(3, 4, seed=7, rho=0.5)
        net = sample_mlmmsb(pi, conn, seed=1)
        assert net.binary
        assert np.array_equal(net.layers, net.layers.transpose(0, 2, 1))

    def test_within_block_edge_frequency(self):
        # K=2, half the nodes pure per block, B=I: within-block probability is rho
        n, L, rho = 200, 50, 0.3
        rows = np.zeros((n, 2))
        rows[: n // 2, 0] = 1
        rows[n // 2 :, 1] = 1
        pi = MembershipMatrix(rows=rows)
        conn = stack([np.eye(2)] * L, rho=rho)
        net = sample_mlmmsb(pi, conn, seed=11)
        block = net.layers[:, : n // 2, : n // 2]
        iu = np.triu_indices(n // 2, k=1)
        draws = np.concatenate([layer[iu] for layer in block])
        freq = draws.mean()
        tol = 4 * np.sqrt(rho * (1 - rho) / draws.size)
        assert abs(freq - rho) < tol

    def test_empirical_mean_matches_expectation(self):
        # per-entry Monte Carlo: mean over R draws within 4 binomial sd for 95%+
        pi = generate_membership(6, 2, 2, seed=0)
        conn = generate_connectivity(2, 1, seed=1, rho=0.8)
        omega = expected_adjacency(pi, conn)
        R = 600
        acc = np.zeros((6, 6))
        for r in range(R):
            acc += sample_mlmmsb(pi, conn, seed=10_000 + r).layers[0]
        mean = acc / R
        p = omega.layers[0]
        sd = np.sqrt(np.maximum(p * (1 - p), 1e-12) / R)
        ok = np.abs(mean - p) <= 4 * sd
        assert ok.mean() >= 0.95


class TestGenerators:
    def test_all_pure_is_identity(self):
        pi = generate_membership(3, 3, 1, seed=0)
        assert np.array_equal(pi.rows, np.eye(3))

    def test_pure_blocks_then_mixed(self):
        pi = generate_membership(20, 3, 4, seed=1)
        assert np.array_equal(pi.rows[:12], np.repeat(np.eye(3), 4, axis=0))
        mixed = pi.rows[12:]
        # recipe shape: first two weights are half a uniform draw
        assert np.all(mixed[:, 0] <= 0.5)
        assert np.all(mixed[:, 1] <= 0.5)
        assert np.allclose(mixed[:, 2], 1 - mixed[:, 0] - mixed[:, 1])

    def test_recipe_boundaries(self):
        # r1 = r2 = 0 -> (0, 0, 1); r1 = r2 = 1 -> (0.5, 0.5, 0)
        def recipe(r1, r2):
            return (r1 / 2, r2 / 2, 1 - r1 / 2 - r2 / 2)

        assert recipe(0, 0) == (0, 0, 1)
        assert recipe(1, 1) == (0.5, 0.5, 0)

    def test_dirichlet_fallback_for_other_k(self):
        pi = generate_membership(30, 4, 2, seed=5)
        assert pi.K == 4
        assert np.allclose(pi.rows.sum(axis=1), 1, atol=1e-12)

    def test_too_many_pure_nodes(self):
        with pytest.raises(ConfigError):
            generate_membership(5, 3, 2, seed=0)

    def test_connectivity_scalar_case(self):
        conn = generate_connectivity(1, 3, seed=2)
        assert conn.matrices.shape == (3, 1, 1)
        assert np.all((conn.matrices >= 0) & (conn.matrices <= 1))

    def test_connectivity_deterministic(self):
        a = generate_connectivity(3, 5, seed=9)
        b = generate_connectivity(3, 5, seed=9)
        assert np.array_equal(a.matrices, b.matrices)

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(6, 40),
        K=st.integers(2, 5),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_membership_always_row_stochastic(self, n, K, seed, data):
        n0 = data.draw(st.integers(1, n // K))
        pi = generate_membership(n, K, n0, seed)
        assert np.max(np.abs(pi.rows.sum(axis=1) - 1)) <= 1e-12
        assert pi.rows.min() >= 0
