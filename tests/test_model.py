import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlmmsb import (
    ConfigError,
    ConnectivityStack,
    DegeneracyWarning,
    DimensionError,
    ExpectationStack,
    MembershipMatrix,
    MultiLayerNetwork,
    expected_adjacency,
    generate_connectivity,
    generate_membership,
    sample_mlmmsb,
)
from mlmmsb.model import _SLAB_ROWS, _is_symmetric

from conftest import einsum_expectation, population_sums, relative_error


def stack(mats, rho=1.0):
    return ConnectivityStack(matrices=np.array(mats, dtype=float), rho=rho)


class TestTypes:
    def test_membership_rejects_bad_row_sums(self):
        with pytest.raises(ConfigError):
            MembershipMatrix(rows=np.array([[0.5, 0.4]]))

    def test_membership_rejects_out_of_range(self):
        with pytest.raises(ConfigError):
            MembershipMatrix(rows=np.array([[1.5, -0.5]]))

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

    @pytest.mark.parametrize(
        "layers", [np.zeros((0, 5, 5)), np.zeros((2, 0, 0)), ()], ids=["L=0", "n=0", "no-layers"]
    )
    def test_network_needs_a_layer_and_a_node(self, layers):
        with pytest.raises(DimensionError, match="shape"):
            MultiLayerNetwork(layers=layers)

    @pytest.mark.parametrize("shape", [(0, 3, 3), (2, 0, 0)], ids=["L=0", "K=0"])
    def test_connectivity_needs_a_layer_and_a_community(self, shape):
        with pytest.raises(ConfigError, match="at least 1"):
            ConnectivityStack(matrices=np.zeros(shape), rho=0.1)

    def test_membership_needs_a_row(self):
        with pytest.raises(DimensionError, match="at least one row"):
            MembershipMatrix(rows=np.zeros((0, 3)))

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


def symmetric_layer(n, dtype, seed=0):
    """A symmetric n x n layer: 0/1 entries as ``uint8``, weights in [0, 1)
    as float64."""
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.random((n, n)) < 0.3 if dtype == np.uint8 else rng.random((n, n)))
    return (upper + np.triu(upper, k=1).T).astype(dtype)


def slab_region_cells(n):
    """One cell above the diagonal in each slab region that an n-node layer
    has: the first slab's diagonal block, the first slab's last row just
    past its block, a block off the diagonal, and the last slab when it is
    partial and holds more than its diagonal; plus the last row, which only
    the column reads of earlier slabs reach."""
    first = min(n, _SLAB_ROWS)
    last = (n - 1) // _SLAB_ROWS * _SLAB_ROWS  # first row of the last slab
    cells = []
    if first > 1:
        cells.append((0, first - 1))
    if n > _SLAB_ROWS:
        cells += [(first - 1, first), (1, n - 1)]
    if n % _SLAB_ROWS and last < n - 1:
        cells.append((last, n - 1))
    if n > 1:
        cells.append((n - 2, n - 1))
    return cells


class TestSlabSymmetryCheck:
    @pytest.mark.parametrize("n", [1, 2, 127, 128, 129, 200, 257])
    @pytest.mark.parametrize("dtype", [np.uint8, np.float64])
    def test_one_flip_in_any_region_raises(self, n, dtype):
        layers = np.stack([symmetric_layer(n, dtype, seed) for seed in range(2)])
        net = MultiLayerNetwork(layers=layers)
        assert net.layers.dtype == dtype
        assert np.array_equal(net.layers, layers)
        for i, j in slab_region_cells(n):
            # above the diagonal, then below it, in the second layer only
            for cell in ((i, j), (j, i)):
                bad = layers.copy()
                bad[(1,) + cell] = 1 - bad[(1,) + cell] if dtype == np.uint8 else 2.0
                with pytest.raises(ConfigError, match="symmetric"):
                    MultiLayerNetwork(layers=bad)

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.one_of(st.integers(1, 300), st.sampled_from([127, 128, 129, 255, 256, 257])),
        dtype=st.sampled_from([np.uint8, np.float64]),
        seed=st.integers(0, 2**32 - 1),
        flips=st.integers(0, 3),
    )
    def test_agrees_with_whole_comparison(self, n, dtype, seed, flips):
        a = symmetric_layer(n, dtype, seed)
        rng = np.random.default_rng(seed)
        # a flip may land on the diagonal or undo another: still symmetric
        for i, j in rng.integers(0, n, (flips, 2)):
            a[i, j] = 1 - a[i, j] if dtype == np.uint8 else rng.random()
        assert _is_symmetric(a) == np.array_equal(a, a.T)


class TestExpectedAdjacency:
    def test_identity_case(self):
        pi = MembershipMatrix(rows=np.eye(2))
        omega = expected_adjacency(pi, stack([np.eye(2)]))
        assert np.allclose(omega.asum(), np.eye(2))
        assert np.allclose(omega.sos(), np.eye(2))

    def test_zero_rho_gives_zero_layers(self):
        pi = MembershipMatrix(rows=np.eye(2))
        omega = expected_adjacency(pi, stack([np.ones((2, 2))], rho=0.0))
        assert np.all(omega.asum() == 0)
        assert np.all(omega.sos() == 0)

    def test_mixed_row_hand_product(self):
        pi = MembershipMatrix(rows=np.array([[1, 0], [0, 1], [0.5, 0.5]]))
        omega = expected_adjacency(pi, stack([np.eye(2)]))
        assert np.allclose(omega.asum()[2], [0.5, 0.5, 0.5])
        # row 2 of Omega is all 0.5, so row 2 of its square is half its column sums
        assert np.allclose(omega.sos()[2], [0.75, 0.75, 0.75])

    def test_dimension_mismatch(self):
        pi = MembershipMatrix(rows=np.eye(3))
        with pytest.raises(DimensionError):
            expected_adjacency(pi, stack([np.eye(2)]))

    def test_entries_bounded_by_rho(self):
        pi = generate_membership(30, 3, 5, seed=0)
        conn = generate_connectivity(3, 4, seed=1, rho=0.3)
        omega = expected_adjacency(pi, conn)
        assert omega.asum().min() >= 0
        assert omega.asum().max() <= conn.L * 0.3 + 1e-12
        assert (omega.L, omega.n, omega.rho) == (4, 30, 0.3)


class TestExpectationSums:
    """The two population sums come from the factors, never the stack."""

    @pytest.mark.parametrize("rho", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("K", [2, 3, 5])
    def test_sums_match_reference_stack(self, K, rho):
        pi = generate_membership(97, K, 6, seed=K)
        conn = generate_connectivity(K, 7, seed=K + 2, rho=rho)
        omega = ExpectationStack(pi, conn)
        want_sum, want_sos = population_sums(pi, conn)
        for got, want in ((omega.asum(), want_sum), (omega.sos(), want_sos)):
            assert got.shape == (97, 97)
            assert np.array_equal(got, got.T)
            assert relative_error(got, want) <= 1e-13

    def test_direct_construction_checks_k(self):
        pi = generate_membership(20, 3, 2, seed=0)
        with pytest.raises(DimensionError):
            ExpectationStack(pi, generate_connectivity(2, 3, seed=1))


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


# sizes on both sides of the sampler's 128-row slabs, with every K <= n
SLAB_SIZES = [(n, K) for n in (2, 61, 127, 128, 129, 257) for K in (2, 3, 5) if K <= n]


class TestAgainstEinsum:
    @pytest.mark.parametrize("allow_self_loops", [True, False])
    @pytest.mark.parametrize("n, K", SLAB_SIZES)
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
        omega = expected_adjacency(pi, conn)
        for got, want in zip((omega.asum(), omega.sos()), population_sums(pi, conn)):
            assert np.array_equal(got, got.T)
            assert relative_error(got, want) <= 1e-14

    @pytest.mark.parametrize("n, K", SLAB_SIZES)
    def test_expectation_equals_whole_matrix_symmetrisation(self, n, K):
        pi = generate_membership(n, K, n // (2 * K), seed=n)
        conn = generate_connectivity(K, 3, seed=K, rho=0.6)
        omega = expected_adjacency(pi, conn)
        for got, want in zip((omega.asum(), omega.sos()), population_sums(pi, conn)):
            assert relative_error(got, want) <= 1e-12


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
        p = einsum_expectation(pi, conn)[0]
        R = 600
        acc = np.zeros((6, 6))
        for r in range(R):
            acc += sample_mlmmsb(pi, conn, seed=10_000 + r).layers[0]
        mean = acc / R
        sd = np.sqrt(np.maximum(p * (1 - p), 1e-12) / R)
        ok = np.abs(mean - p) <= 4 * sd
        assert ok.mean() >= 0.95

    def test_memory_is_the_stack_one_matrix_and_slabs(self):
        # whole-layer probabilities held three n x n float64 arrays at once
        # (W, W + W.T and its half): a traced peak of 25.8 MiB here, where
        # slabs take 11.6 MiB
        n = 1000
        pi = generate_membership(n, 3, 250, seed=1)
        conn = generate_connectivity(3, 2, seed=1, rho=0.1)
        tracemalloc.start()
        try:
            layers = sample_mlmmsb(pi, conn, seed=0).layers
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        slab = 8 * _SLAB_ROWS * n  # one slab of float64 probabilities
        assert peak < layers.nbytes + 8 * n * n + 3 * slab


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
