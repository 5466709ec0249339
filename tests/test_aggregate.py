import ast
import pathlib
import tracemalloc

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from mlmmsb import (
    ConnectivityStack,
    DimensionError,
    MembershipMatrix,
    MultiLayerNetwork,
    UnusableDataError,
    build_asum,
    build_sos,
    build_ssum_debiased,
    estimate_k,
    expected_adjacency,
    generate_connectivity,
    generate_membership,
    q_fmean,
    sample_mlmmsb,
    top_k_eigen,
)
from mlmmsb import aggregate
from mlmmsb.aggregate import (
    DENSE_EIG_LIMIT,
    AggregateMatrix,
    Embedding,
    _order_by_magnitude,
    _square_sum,
    _tie_notes,
)
from mlmmsb.estimators import (
    build_aggregate,
    build_aggregates,
    estimate,
    estimate_from_embedding,
)

from conftest import einsum_expectation, population_sums, relative_error

PATH_3 = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float)


def net_of(*layers):
    return MultiLayerNetwork(layers=np.array(layers, dtype=float))


def csr_above_patched_limit(monkeypatch, *layers):
    """The layers held as CSR arrays, with the dense limit patched below n."""
    monkeypatch.setattr(aggregate, "DENSE_EIG_LIMIT", len(layers[0]) - 1)
    return MultiLayerNetwork(layers=[scipy.sparse.csr_array(a) for a in layers])


class TestBuilders:
    def test_asum_single_layer(self):
        assert np.array_equal(build_asum(net_of(PATH_3)).matrix, PATH_3)

    def test_asum_linearity(self):
        assert np.array_equal(build_asum(net_of(PATH_3, PATH_3)).matrix, 2 * PATH_3)

    @pytest.mark.parametrize(
        "stack",
        [
            lambda monkeypatch: net_of(1e308 * PATH_3, 1e308 * PATH_3),
            lambda monkeypatch: csr_above_patched_limit(monkeypatch, *[1e308 * PATH_3] * 2),
        ],
        ids=["weighted", "weighted-csr"],
    )
    def test_asum_overflow_raises(self, monkeypatch, stack):
        with pytest.raises(UnusableDataError, match="sum of layers overflows"):
            build_asum(stack(monkeypatch))

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

    def test_debiased_weighted_zeroes_diagonal(self):
        # (A/2)^2 = A^2 / 4 with its diagonal zeroed, as for binary layers
        expected = np.array([[0, 0, 0.25], [0, 0, 0], [0.25, 0, 0]])
        assert np.array_equal(build_ssum_debiased(net_of(0.5 * PATH_3)).matrix, expected)

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
        if n > DENSE_EIG_LIMIT:
            # the builders apply the square matrix-free there (TestSquaresOperator);
            # the formed square is still exact
            assert np.array_equal(_square_sum(net), reference)
            return
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
        # the reference expectation stack, as a weighted network
        pi = generate_membership(61, 3, 10, seed=3)
        omega = einsum_expectation(pi, generate_connectivity(3, 4, seed=4, rho=0.3))
        net = MultiLayerNetwork(layers=omega)
        assert np.array_equal(build_sos(net).matrix, float64_square_sum(omega))

    # binary layers are always squared in float32; the parameter keeps that in the test id
    @pytest.mark.parametrize("squares", ["float32"])
    @pytest.mark.parametrize("n", [61, 600])
    def test_float64_accumulator_equals_float64_loop(self, monkeypatch, n, squares):
        # a bound in (n, L*n] sums the float32 squares in float64
        monkeypatch.setattr(aggregate, "FLOAT32_EXACT", n + 1)
        net = sampled_binary(n, L=3)
        reference = float64_square_sum(net.layers)
        assert np.array_equal(build_sos(net).matrix, reference)
        reference[np.diag_indices(n)] -= net.layers.sum(axis=(0, 2), dtype=float)
        assert np.array_equal(build_ssum_debiased(net).matrix, reference)


def sampled_binary(n, L, K=3):
    pi = generate_membership(n, K, n // (2 * K), seed=n)
    return sample_mlmmsb(pi, generate_connectivity(K, L, seed=K, rho=0.3), seed=n + 1)


def traced_peak(build, net):
    tracemalloc.start()
    try:
        build(net)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestSquareSumMemory:
    """float32 cast, product and sum take 12 n^2 bytes; the float64 result is
    copied once they are gone. Summing in float64 takes 16 n^2."""

    n = 800

    def test_binary_debiased_peaks_below_13_n2(self):
        net = sampled_binary(self.n, L=2)
        assert traced_peak(build_ssum_debiased, net) < 13 * self.n**2

    def test_float64_accumulator_past_the_bound(self, monkeypatch):
        net = sampled_binary(self.n, L=2)
        want = build_ssum_debiased(net).matrix
        monkeypatch.setattr(aggregate, "FLOAT32_EXACT", 2 * self.n)
        assert traced_peak(build_ssum_debiased, net) >= 15 * self.n**2
        assert np.array_equal(build_ssum_debiased(net).matrix, want)


N_ABOVE = DENSE_EIG_LIMIT + 52


def binary_above(self_loops=True):
    pi = generate_membership(N_ABOVE, 3, N_ABOVE // 6, seed=N_ABOVE)
    conn = generate_connectivity(3, 2, seed=3, rho=0.3)
    return sample_mlmmsb(pi, conn, seed=N_ABOVE + 1, allow_self_loops=self_loops)


@pytest.fixture(scope="module")
def above():
    """A binary network just above the dense limit, with its float64 square sum."""
    net = binary_above()
    return net, float64_square_sum(net.layers)


def debiased_of(square, net):
    out = square.copy()
    out[np.diag_indices_from(out)] -= net.layers.sum(axis=(0, 2), dtype=float)
    return out


def assert_applies(agg, formed):
    """agg holds an operator that applies formed to a random block, to 1e-12."""
    assert not isinstance(agg.matrix, np.ndarray)
    assert agg.n == formed.shape[0]
    block = np.random.default_rng(7).standard_normal((formed.shape[0], 4))
    want = formed @ block
    assert np.max(np.abs(agg.matrix @ block - want)) <= 1e-12 * np.max(np.abs(want))


class TestSquaresOperator:
    """Above DENSE_EIG_LIMIT the squared builders of a MultiLayerNetwork apply
    the aggregate matrix-free."""

    @pytest.mark.parametrize("self_loops", [False, True])
    def test_binary_matches_float64_loop(self, self_loops):
        net = binary_above(self_loops)
        square = float64_square_sum(net.layers)
        assert_applies(build_sos(net), square)
        assert_applies(build_ssum_debiased(net), debiased_of(square, net))

    @pytest.mark.parametrize("self_loops", [False, True])
    def test_int32_layers_apply_bit_for_bit(self, self_loops):
        net = binary_above(self_loops)
        layers = aggregate._product_layers(net)
        assert all(a.indices.dtype == a.indptr.dtype == np.int32 for a in layers)
        # scipy's own CSR of each float layer, summed in the operator's order
        reference = [scipy.sparse.csr_array(a.astype(float)) for a in net.layers]
        x = np.random.default_rng(8).standard_normal(net.n)
        sos = np.zeros(net.n)
        debiased = -net.layers.sum(axis=(0, 2), dtype=float) * x
        for a in reference:
            sos += a @ (a @ x)
            debiased += a @ (a @ x)
        assert np.array_equal(build_sos(net).matrix @ x, sos)
        assert np.array_equal(build_ssum_debiased(net).matrix @ x, debiased)

    def test_int64_indices_apply_bit_for_bit(self, monkeypatch, above):
        net, _ = above
        x = np.random.default_rng(8).standard_normal(net.n)
        builds = (build_sos, build_ssum_debiased)
        want = [build(net).matrix @ x for build in builds]
        # n * n reaches the bound: the int64 fallback
        monkeypatch.setattr(aggregate, "CSR_INT32_BOUND", net.n**2)
        layers = aggregate._product_layers(net)
        assert all(a.indices.dtype == a.indptr.dtype == np.int64 for a in layers)
        for build, product in zip(builds, want):
            assert np.array_equal(build(net).matrix @ x, product)

    def test_binary_layers_share_one_buffer_of_ones(self, above):
        net, _ = above
        layers = aggregate._product_layers(net)
        largest = max(layers, key=lambda a: a.nnz)
        ones = largest.data.base
        assert ones is not None and ones.shape == (largest.nnz,)
        assert np.all(ones == 1.0)
        assert all(np.shares_memory(a.data, ones) for a in layers)
        assert all(a.data.size == a.nnz for a in layers)

    def test_binary_operator_build_peak(self, above):
        """The build holds 4 bytes per stored entry (its int32 column index)
        and, beside them, either one layer's scan (its int64 flat indices) or
        the one buffer of ones: 8 bytes per entry of the largest layer. The
        stack is made before the trace starts. Separate float64 ones took 12
        bytes per stored entry, and the last scan outlived the loop."""
        net, _ = above
        counts = [np.count_nonzero(a) for a in net.layers]
        rows = 16 * (net.L + 2) * (net.n + 1)  # row pointers, their starts, degrees
        bound = 4 * sum(counts) + 8 * max(counts) + rows
        assert traced_peak(build_ssum_debiased, net) < bound

    def test_weighted_matches_float64_loop(self, above):
        net, _ = above
        n = net.n
        weights = np.array([0.1, 1 / 3, 2.5])[np.add.outer(np.arange(n), np.arange(n)) % 3]
        weighted = MultiLayerNetwork(layers=net.layers * weights)
        assert not weighted.binary
        square = float64_square_sum(weighted.layers)
        assert_applies(build_sos(weighted), square)
        np.fill_diagonal(square, 0.0)
        assert_applies(build_ssum_debiased(weighted), square)

    def test_build_aggregates_gives_each_method_its_operator(self, above):
        # above DENSE_EIG_LIMIT the two methods share the CSR layers, and
        # each gets its own operator: SPDSoS's with the shift -d, SPSoS's
        # with none
        net, square = above
        aggs = list(build_aggregates(net, ("spdsos", "spsos")))
        assert len(aggs) == 2
        assert_applies(aggs[0], debiased_of(square, net))
        assert_applies(aggs[1], square)

    @pytest.mark.parametrize("order", [("spdsos", "spsos"), ("spsos", "spdsos")])
    @pytest.mark.parametrize("weighted", [False, True], ids=["binary", "weighted"])
    def test_build_aggregates_scans_once(self, monkeypatch, above, order, weighted):
        net, _ = above
        if weighted:
            net = MultiLayerNetwork(layers=net.layers * np.array([0.5, 3.0])[:, None, None])
        block = np.random.default_rng(9).standard_normal((net.n, 3))
        want = {
            "spdsos": build_ssum_debiased(net).matrix @ block,
            "spsos": build_sos(net).matrix @ block,
        }
        scans = []
        scan = aggregate._product_layers

        def counted(net):
            scans.append(net)
            return scan(net)

        monkeypatch.setattr(aggregate, "_product_layers", counted)
        for method, agg in zip(order, build_aggregates(net, order)):
            assert (agg.matrix @ block).tobytes() == want[method].tobytes(), method
        assert len(scans) == 1

    def test_expectation_stack_stays_formed(self):
        pi = generate_membership(N_ABOVE, 3, 100, seed=5)
        conn = generate_connectivity(3, 1, seed=6, rho=0.3)
        sos = expected_adjacency(pi, conn).sos()
        assert isinstance(sos, np.ndarray)
        assert relative_error(sos, population_sums(pi, conn)[1]) <= 1e-12

    @pytest.mark.parametrize("method", ["spdsos", "spsos"])
    def test_estimate_matches_formed_matrix(self, above, method):
        net, square = above
        formed = debiased_of(square, net) if method == "spdsos" else square
        got = estimate(build_aggregate(net, method), 3, method)
        want = estimate(AggregateMatrix(formed), 3, method)
        assert got.vertices.indices == want.vertices.indices
        assert np.max(np.abs(got.pi_hat.rows - want.pi_hat.rows)) < 1e-8
        assert np.allclose(got.eigenvalues, want.eigenvalues, rtol=1e-8, atol=0)
        assert got.diagnostics == want.diagnostics

    @pytest.mark.parametrize("method", ["spdsos", "spsos"])
    def test_estimate_k_matches_formed_matrix(self, above, method):
        net, square = above
        formed = debiased_of(square, net) if method == "spdsos" else square
        shared = top_k_eigen(AggregateMatrix(formed), 4)
        want = {}
        for k in (2, 3, 4):
            first = Embedding(shared.vectors[:, :k].copy(), shared.eigenvalues[:k].copy())
            want[k] = q_fmean(net, estimate_from_embedding(first, method).pi_hat)
        selection = estimate_k(net, method, (2, 3, 4), "fmean")
        assert selection.scores == pytest.approx(want, rel=0, abs=1e-8)

    @pytest.mark.parametrize("build", [build_ssum_debiased, build_sos])
    def test_no_formed_square(self, above, build):
        net, _ = above
        peak = traced_peak(lambda net: top_k_eigen(build(net), 3), net)
        assert peak < 8 * net.n**2

    def test_overflowing_product_is_typed(self):
        ring = np.roll(np.eye(N_ABOVE), 1, axis=1)
        net = MultiLayerNetwork(layers=1e200 * (ring + ring.T)[None])
        with pytest.raises(UnusableDataError, match="overflows float64"):
            top_k_eigen(build_sos(net), 2)


class TestLanczosTieNote:
    """Above the limit eigenvalue K+1 comes from the solve for the K pairs,
    which runs on until the K/K+1 tie is settled."""

    def run(self, top):
        rest = np.random.default_rng(9).uniform(-1.0, 1.0, N_ABOVE - len(top))
        diagonal = scipy.sparse.diags_array(np.concatenate([top, rest]))
        return top_k_eigen(AggregateMatrix(scipy.sparse.linalg.aslinearoperator(diagonal)), 3)

    def test_tie_gives_the_note(self):
        assert self.run([10.0, 8.0, 6.0, -6.0]).warnings

    def test_near_tie_resolved(self):
        assert not self.run([10.0, 8.0, 6.0, -6.0 * (1 - 1e-6)]).warnings

    def test_bulk_gap_resolved(self):
        assert not self.run([10.0, 8.0, 6.0, -6.0 * (1 - 1e-3)]).warnings

    def test_clear_gap_gives_none(self):
        emb = self.run([10.0, 8.0, 6.0, 3.0])
        assert not emb.warnings
        assert np.allclose(emb.eigenvalues, [10.0, 8.0, 6.0], rtol=1e-10, atol=0)


def subspace_gap(got, want):
    """1 - cos of the largest principal angle between the column spans of
    two orthonormal n x K blocks: 0 when they span the same subspace."""
    return 1.0 - np.linalg.svd(got.T @ want, compute_uv=False).min()


def assert_matches_eigh(agg, formed, Ks):
    values, vectors = np.linalg.eigh(formed)
    order = _order_by_magnitude(values)
    for K in Ks:
        emb = top_k_eigen(agg, K)
        assert subspace_gap(emb.vectors, vectors[:, order[:K]]) <= 1e-8, K
        assert np.allclose(emb.eigenvalues, values[order[:K]], rtol=1e-10, atol=0), K
        assert emb.warnings == _tie_notes(values[order[: K + 1]], K), K


class TestLanczosAgainstEigh:
    """Above the limit the Lanczos solve agrees with the dense ``eigh`` of
    the same matrix, formed here on purpose."""

    @pytest.mark.parametrize("method", ["spsum", "spdsos", "spsos"])
    def test_sampled_aggregates_at_k_3_and_6(self, above, method):
        net, square = above
        formed = {
            "spsum": lambda: build_asum(net).matrix.toarray(),
            "spdsos": lambda: debiased_of(square, net),
            "spsos": lambda: square,
        }[method]()
        assert_matches_eigh(build_aggregate(net, method), formed, (3, 6))

    def test_spsum_near_tie(self):
        # |lambda_3| / |lambda_4| = 1 + 6.2e-6, which no tie note covers
        pi = generate_membership(N_ABOVE, 3, N_ABOVE // 6, seed=3)
        net = sample_mlmmsb(pi, generate_connectivity(3, 4, seed=4, rho=0.1), seed=5)
        agg = build_asum(net)
        assert_matches_eigh(agg, agg.matrix.toarray(), (3,))
        emb = top_k_eigen(agg, 4)
        assert 1 < abs(emb.eigenvalues[2] / emb.eigenvalues[3]) < 1 + 1e-5

    def test_rank_two_at_k_three(self):
        # the Krylov space is spent after three steps; the solve goes on from a
        # fresh vector, and lambda_3 = lambda_4 = 0 gives the tie note
        x = np.linalg.qr(np.random.default_rng(14).standard_normal((N_ABOVE, 2)))[0]
        agg = AggregateMatrix(
            scipy.sparse.linalg.LinearOperator(
                (N_ABOVE, N_ABOVE), matvec=lambda v: x @ ([5.0, -3.0] * (x.T @ v)), dtype=float
            )
        )
        emb = top_k_eigen(agg, 3)
        assert np.abs(emb.vectors.T @ emb.vectors - np.eye(3)).max() < 1e-12
        assert np.allclose(emb.eigenvalues, [5.0, -3.0, 0.0], rtol=0, atol=1e-12)
        assert subspace_gap(emb.vectors[:, :2], x) <= 1e-12
        assert emb.warnings

    @pytest.mark.parametrize("method", ["spsum", "spdsos"])
    def test_three_equal_cliques_at_k_three(self, method):
        # lambda_1 = lambda_2 = lambda_3: each start vector's Krylov space is
        # spent after one copy, so the solve needs four start vectors
        block = np.kron(np.eye(3), np.ones((N_ABOVE // 3,) * 2)) - np.eye(N_ABOVE)
        net = MultiLayerNetwork(layers=np.stack([block, block]).astype(np.uint8))
        formed = {
            "spsum": lambda: 2 * block,
            "spdsos": lambda: debiased_of(float64_square_sum(net.layers), net),
        }[method]()
        assert_matches_eigh(build_aggregate(net, method), formed, (3,))

    @pytest.mark.parametrize("which", ["asum", "sos"])
    def test_balanced_oracle_at_k_three(self, which):
        # pure, equal communities and summed B = c * I: a rank-3 aggregate
        # whose one nonzero eigenvalue is repeated three times
        pi = generate_membership(N_ABOVE, 3, N_ABOVE // 3, seed=1)
        conn = ConnectivityStack(matrices=np.stack([0.3 * np.eye(3)] * 2), rho=0.5)
        formed = getattr(expected_adjacency(pi, conn), which)()
        assert_matches_eigh(AggregateMatrix(formed), formed, (3,))


def imported_modules(tree):
    """Dotted names of every module an ast imports, or reaches by attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module
            yield from (f"{node.module}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Attribute):
            yield ast.unparse(node)


class TestBlasThroughNumpy:
    """BLAS is reached only through numpy. ``scipy.linalg.blas`` and
    ``scipy.linalg.lapack`` link scipy's own bundled OpenBLAS, a second
    thread pool next to numpy's: squaring with ``scipy.linalg.blas.ssyrk``
    on 2 cores slowed the select-k benchmark's ``wall_s`` from 0.31 to
    0.50 s and the sweep's from 0.58 to 1.70 s, where numpy's ``A @ A.T``
    reaches ``ssyrk`` in numpy's own pool. scipy's sparse eigensolvers run
    on that bundled OpenBLAS too (ARPACK behind ``eigsh``, ``eigs`` and
    ``svds``), and so does ``lobpcg``'s dense algebra. The package needs
    nothing else from ``scipy.sparse.linalg``, whose import alone took
    about 0.14-0.15 s, so no form of it is imported."""

    FORBIDDEN = ("scipy.linalg.blas", "scipy.linalg.lapack", "scipy.sparse.linalg")

    def test_no_scipy_blas_or_lapack(self):
        package = pathlib.Path(aggregate.__file__).parent
        found = []
        for path in sorted(package.rglob("*.py")):
            for name in imported_modules(ast.parse(path.read_text())):
                if name.startswith(self.FORBIDDEN):
                    found.append(f"{path.name}: {name}")
        assert not found

    @pytest.mark.parametrize(
        "source",
        [
            "import scipy.linalg.blas",
            "from scipy.linalg import lapack",
            "from scipy.linalg.blas import ssyrk",
            "import scipy.linalg\nscipy.linalg.blas.ssyrk(1.0, a)",
            "from scipy.sparse.linalg import eigsh",
            "import scipy.sparse.linalg\nscipy.sparse.linalg.eigs(a, 3)",
            "from scipy.sparse.linalg import svds as truncated",
            "import scipy.sparse.linalg\nscipy.sparse.linalg.lobpcg(a, x)",
            "import scipy.sparse.linalg",
            "from scipy.sparse import linalg",
            "from scipy.sparse.linalg import LinearOperator",
            "import scipy.sparse\nscipy.sparse.linalg.aslinearoperator(a)",
        ],
    )
    def test_scan_sees_each_form(self, source):
        names = imported_modules(ast.parse(source))
        assert any(name.startswith(self.FORBIDDEN) for name in names)


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

    def test_lanczos_needs_k_below_n(self):
        # the solver returns K + 1 Ritz pairs, and an n x n matrix has only n
        n = DENSE_EIG_LIMIT + 1
        with pytest.raises(DimensionError, match="Lanczos"):
            top_k_eigen(AggregateMatrix(np.eye(n)), n)

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
        noise = np.random.default_rng(13).standard_normal((DENSE_EIG_LIMIT + 1,) * 2)
        monkeypatch.setattr(aggregate, "LANCZOS_STEPS", 10)
        with pytest.raises(UnusableDataError, match="did not converge .* in 10 steps"):
            top_k_eigen(AggregateMatrix(noise + noise.T), 3)

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
    return build_ssum_debiased(sampled_binary(n, L, K))


class TestSharedDecomposition:
    @pytest.mark.parametrize("n", [61, 600])
    def test_each_k_equals_its_own_decomposition(self, n):
        agg = sampled_dsos(n)
        shared = top_k_eigen(agg, 6)
        for K in range(1, 7):
            own = top_k_eigen(agg, K)
            assert shared.vectors[:, :K].tobytes() == own.vectors.tobytes()
            assert shared.eigenvalues[:K].tobytes() == own.eigenvalues.tobytes()

    @pytest.mark.parametrize("K", [1, 2, 3, 4])
    def test_tie_notes_match(self, K):
        # |3| = |-3| ties across K = 1 and |1| = |-1| across K = 3
        agg = AggregateMatrix(np.diag([3.0, -3.0, 1.0, -1.0, 0.5]))
        assert bool(top_k_eigen(agg, K).warnings) == (K in (1, 3))


class TestIdealSimplex:
    def test_population_sum_embedding_lies_on_simplex(self):
        pi = generate_membership(60, 3, 10, seed=7)
        conn = generate_connectivity(3, 8, seed=8, rho=0.6)
        emb = top_k_eigen(AggregateMatrix(population_sums(pi, conn)[0]), 3)
        pure = np.arange(3) * 10
        recon = pi.rows @ emb.vectors[pure, :]
        assert np.max(np.abs(emb.vectors - recon)) < 1e-8

    def test_population_sos_embedding_lies_on_simplex(self):
        pi = generate_membership(60, 3, 10, seed=9)
        conn = generate_connectivity(3, 8, seed=10, rho=0.6)
        emb = top_k_eigen(AggregateMatrix(population_sums(pi, conn)[1]), 3)
        pure = np.arange(3) * 10
        recon = pi.rows @ emb.vectors[pure, :]
        assert np.max(np.abs(emb.vectors - recon)) < 1e-8
