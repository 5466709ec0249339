"""Networks held as CSR layers, as ``read_multiplex_edges`` gives them above
``DENSE_EIG_LIMIT`` nodes.

The tests patch ``aggregate.DENSE_EIG_LIMIT`` down to ``LIMIT``, so that a
small file reads into CSR layers, and compare those layers, and what every
public function gives on them, with the dense stack that the same file reads
into at the real limit. A dense stack above the patched limit reaches every
layer-wise product (SPSum's sum, the squares' operator and the per-layer
modularities) through ``_product_layers``'s scan, so both representations
run the same CSR arithmetic. At or below the real limit a CSR-held network
is taken too, and ``_product_layers`` densifies its layers one at a time.
"""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse

from mlmmsb import (
    ConfigError,
    DimensionError,
    MembershipMatrix,
    MultiLayerNetwork,
    aggregate,
    build_asum,
    build_ssum_debiased,
    cli_main,
    compute_diagnostics,
    estimate_k,
    expected_adjacency,
    generate_connectivity,
    generate_membership,
    io_cli,
    q_fmean,
    q_fsum,
    read_multiplex_edges,
    sample_mlmmsb,
    spdsos,
    spsos,
    spsum,
)
from mlmmsb.estimators import build_aggregate, estimate
from mlmmsb.io_cli import MultiplexData, write_multiplex_edges

LIMIT = 20
N, L = 60, 3


def sampled_lines(seed=3):
    """The edge lines of a sampled n=60, L=3 network, self-loops included."""
    pi = generate_membership(N, 3, 15, seed=seed)
    net = sample_mlmmsb(pi, generate_connectivity(3, L, seed=seed + 1, rho=0.3), seed + 2)
    cells = np.argwhere(np.triu(net.layers))
    return [f"{l + 1} {i + 1} {j + 1}" for l, i, j in cells.tolist()]


def loops_and_repeats(lines):
    """lines with a self-loop on every fifth node and every seventh line repeated."""
    loops = [f"{1 + v % L} {v} {v}" for v in range(1, N + 1, 5)]
    return lines + loops + lines[::7] + loops[::2]


def write(tmp_path, lines, name="net.edges"):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return path


def read_both(path, monkeypatch, **options):
    """The dense read at the real limit and the CSR read at ``LIMIT``; the
    limit stays patched for the rest of the test."""
    dense = read_multiplex_edges(path, **options)
    monkeypatch.setattr(aggregate, "DENSE_EIG_LIMIT", LIMIT)
    csr = read_multiplex_edges(path, **options)
    assert csr.network.csr and not dense.network.csr
    assert csr.node_ids == dense.node_ids
    assert csr.network.binary == dense.network.binary
    assert (csr.network.n, csr.network.L) == (dense.network.n, dense.network.L)
    return dense, csr


def assert_same_csr(got, want):
    """Every CSR array equal, dtype and bits included."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        for name in ("indptr", "indices", "data"):
            x, y = getattr(a, name), getattr(b, name)
            assert x.dtype == y.dtype, name
            assert x.tobytes() == y.tobytes(), name


def assert_reads_as_csr_layers(path, monkeypatch, **options):
    dense, csr = read_both(path, monkeypatch, **options)
    assert_same_csr(csr.network.layers, aggregate._product_layers(dense.network))
    return dense, csr


class TestReader:
    """The CSR read equals ``_product_layers`` of the stack read at the real limit."""

    @pytest.mark.parametrize("drop_self_loops", [True, False])
    def test_repeats_and_self_loops(self, tmp_path, monkeypatch, drop_self_loops):
        path = write(tmp_path, loops_and_repeats(sampled_lines()))
        dense, csr = assert_reads_as_csr_layers(
            path, monkeypatch, drop_self_loops=drop_self_loops
        )
        diagonal = sum(int(a.diagonal().sum()) for a in csr.network.layers)
        assert (diagonal == 0) == drop_self_loops
        layers = csr.network.layers
        assert all(a.indices.dtype == a.indptr.dtype == np.int32 for a in layers)
        ones = max(layers, key=lambda a: a.nnz).data.base
        assert not ones.flags.writeable
        assert all(np.shares_memory(a.data, ones) for a in layers)

    @pytest.mark.parametrize("drop_self_loops", [True, False])
    def test_int64_cells_give_the_same_layers(self, tmp_path, monkeypatch, drop_self_loops):
        path = write(tmp_path, loops_and_repeats(sampled_lines()))
        want = assert_reads_as_csr_layers(path, monkeypatch, drop_self_loops=drop_self_loops)[1]
        # L * n * n reaches the bound: the int64 fallback
        monkeypatch.setattr(io_cli, "CELL_INT32_BOUND", L * N * N)
        got = read_multiplex_edges(path, drop_self_loops=drop_self_loops)
        assert_same_csr(got.network.layers, want.network.layers)

    def test_weighted_sums_keep_file_order(self, tmp_path, monkeypatch):
        # (0.1 + 0.2) + 0.3 and (0.3 + 0.2) + 0.1 differ in their last bit
        ring = [f"1 {v} {v % 30 + 1} 1" for v in range(1, 31)]
        repeats = [f"1 1 5 {w}" for w in (0.1, 0.2, 0.3)]
        repeats += [f"1 {u} {v} {w}" for (u, v), w in zip([(9, 2), (2, 9), (9, 2)], (0.3, 0.2, 0.1))]
        path = write(tmp_path, ring + repeats)
        _, csr = assert_reads_as_csr_layers(
            path, monkeypatch, binarize=False, drop_self_loops=False
        )
        a = csr.network.layers[0]
        assert a[0, 4] == a[4, 0] == (0.1 + 0.2) + 0.3
        assert a[1, 8] == a[8, 1] == (0.3 + 0.2) + 0.1
        assert (0.1 + 0.2) + 0.3 != (0.3 + 0.2) + 0.1
        assert not csr.network.binary

    @pytest.mark.parametrize("binarize", [True, False])
    def test_zero_and_negative_weights(self, tmp_path, monkeypatch, binarize):
        lines = sampled_lines()
        weights = (-1, 0, 0.5, 2) if binarize else (0, 0, 0.5, 2)
        signed = [f"{line} {weights[k % 4]:g}" for k, line in enumerate(lines)]
        signed += [f"1 1 2 {w}" for w in (1, -1)]  # a cell whose sum is zero
        path = write(tmp_path, signed)
        _, csr = assert_reads_as_csr_layers(path, monkeypatch, binarize=binarize)
        assert csr.network.binary == binarize
        # no stored zeros: a cell whose weights sum to at most zero is no edge
        assert all(a.data.all() for a in csr.network.layers)
        assert csr.network.layers[0][0, 1] == 0

    def test_gapped_ids(self, tmp_path, monkeypatch):
        lines = []
        for line in loops_and_repeats(sampled_lines()):
            l, u, v = map(int, line.split())
            lines.append(f"{l * 10**9} {3 * u + 10**12} {3 * v + 10**12}")
        _, csr = assert_reads_as_csr_layers(write(tmp_path, lines), monkeypatch)
        assert csr.node_ids[:2] == (3 + 10**12, 6 + 10**12)

    @pytest.mark.parametrize("method", ["spsum", "spdsos", "spsos"])
    def test_estimate_agrees(self, tmp_path, monkeypatch, method):
        path = write(tmp_path, loops_and_repeats(sampled_lines()))
        dense, csr = read_both(path, monkeypatch)
        want = estimate(build_aggregate(dense.network, method), 3, method)
        got = estimate(build_aggregate(csr.network, method), 3, method)
        assert got.pi_hat.rows.tobytes() == want.pi_hat.rows.tobytes()
        assert got.eigenvalues.tobytes() == want.eigenvalues.tobytes()
        assert got.diagnostics == want.diagnostics

    @pytest.mark.parametrize("criterion", ["fsum", "fmean"])
    @pytest.mark.parametrize("binarize", [True, False])
    def test_estimate_k_agrees(self, tmp_path, monkeypatch, criterion, binarize):
        lines = [f"{line} {(k * 37 % 11 + 1) / 4:g}" for k, line in enumerate(sampled_lines())]
        path = write(tmp_path, lines)
        dense, csr = read_both(path, monkeypatch, binarize=binarize)
        want = estimate_k(dense.network, "spdsos", range(2, 5), criterion)
        got = estimate_k(csr.network, "spdsos", range(2, 5), criterion)
        assert (got.best_k, got.scores, got.failures) == (want.best_k, want.scores, want.failures)


class TestConstructor:
    """``MultiLayerNetwork`` on CSR layers at any size: the dense stack's
    checks and messages."""

    @pytest.fixture
    def limit(self, monkeypatch):
        """Products take these 4-node CSR layers as they are."""
        monkeypatch.setattr(aggregate, "DENSE_EIG_LIMIT", 3)

    @staticmethod
    def csr(rows):
        return scipy.sparse.csr_array(np.array(rows, dtype=float))

    PATH = [[0, 1, 0, 0], [1, 0, 1, 0], [0, 1, 0, 1], [0, 0, 1, 0]]

    @pytest.mark.usefixtures("limit")
    def test_binary_and_weighted(self):
        a = self.csr(self.PATH)
        net = MultiLayerNetwork(layers=[a, a])
        assert net.csr and net.binary and (net.n, net.L) == (4, 2)
        assert all(b is a for b in net.layers)
        assert aggregate._product_layers(net) is net.layers
        weighted = MultiLayerNetwork(layers=(a, self.csr(np.multiply(self.PATH, 0.5))))
        assert weighted.csr and not weighted.binary

    @pytest.mark.usefixtures("limit")
    @pytest.mark.parametrize("dtype", [np.uint8, np.int64, np.float32, np.bool_])
    def test_values_held_as_float64(self, dtype):
        # a uint8 layer's squared weights wrapped past 255 in the SPDSoS
        # shift, and q_fmean refused any layer that was not float64
        weight = 1 if dtype is np.bool_ else 20
        rows = np.multiply(self.PATH, weight) + np.diag([weight, 0, 0, weight])
        want = MultiLayerNetwork(layers=[self.csr(rows), self.csr(self.PATH)])
        net = MultiLayerNetwork(
            layers=[scipy.sparse.csr_array(rows.astype(dtype)), self.csr(self.PATH)]
        )
        assert all(a.dtype == np.float64 for a in net.layers)
        assert net.binary == want.binary == (dtype is np.bool_)
        block = np.random.default_rng(5).standard_normal((4, 2))
        product = build_ssum_debiased(net).matrix @ block
        assert product.tobytes() == (build_ssum_debiased(want).matrix @ block).tobytes()
        pi = MembershipMatrix(rows=[[1, 0], [0.5, 0.5], [0.25, 0.75], [0, 1]])
        assert q_fmean(net, pi) == q_fmean(want, pi)

    @pytest.mark.parametrize(
        "edit, message, dense",
        [
            (lambda a: a.indices.__setitem__(0, 3), "must be symmetric", True),
            (lambda a: a.data.__setitem__(slice(None), -1.0), "must be nonnegative", True),
            (lambda a: a.data.__setitem__(0, np.nan), "must be finite", True),
            (lambda a: a.data.__setitem__(slice(0, 2), 0.0), "no stored zeros", False),
            (lambda a: a.indices.__setitem__(slice(1, 3), a.indices[1:3][::-1]),
             "sorted, distinct column indices", False),
        ],
        ids=["asymmetric", "negative", "nan", "stored-zero", "unsorted"],
    )
    def test_checks(self, edit, message, dense):
        a = self.csr(self.PATH)
        edit(a)
        with pytest.raises(ConfigError, match=message) as raised:
            MultiLayerNetwork(layers=[self.csr(self.PATH), a])
        if dense:
            # a rule on values raises the same error from the dense stack
            with pytest.raises(ConfigError) as dense_raised:
                MultiLayerNetwork(layers=[self.PATH, a.toarray()])
            assert type(dense_raised.value) is type(raised.value)
            assert str(dense_raised.value) == str(raised.value)

    @pytest.mark.parametrize("weight", [1.0, 0.5], ids=["binary", "weighted"])
    def test_one_transpose_alive_at_a_time(self, weight):
        # four layers of 400 nodes: the symmetry check peaked at 1.11
        # transposed layers, where keeping each transpose until the next
        # one was built took 2.03
        rng = np.random.default_rng(0)
        layers = []
        for _ in range(4):
            upper = np.triu(rng.random((400, 400)) < 0.05, 1)
            layers.append(scipy.sparse.csr_array(weight * (upper | upper.T)))
        t = max(layers, key=lambda a: a.nnz).T.tocsr()
        transpose = t.data.nbytes + t.indices.nbytes + t.indptr.nbytes
        del t
        tracemalloc.start()
        try:
            MultiLayerNetwork(layers=layers)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * transpose

    def test_every_layer_csr_and_square(self):
        a = self.csr(self.PATH)
        with pytest.raises(ConfigError, match="csr_array"):
            MultiLayerNetwork(layers=[a, np.array(self.PATH)])
        with pytest.raises(ConfigError, match="csr_array"):
            MultiLayerNetwork(layers=[scipy.sparse.coo_array(a)])
        with pytest.raises(DimensionError):
            MultiLayerNetwork(layers=[a, scipy.sparse.csr_array((4, 5))])


@pytest.fixture
def weighted(tmp_path, monkeypatch):
    """A weighted file whose cells repeat across layers with weights 0.1,
    0.2 and 0.3, read both ways."""
    lines = sampled_lines()
    lines = [f"{line} {(0.1, 0.2, 0.3)[k % 3]}" for k, line in enumerate(lines)]
    lines += [f"{l} 1 2 {w}" for l, w in ((1, 0.1), (2, 0.2), (3, 0.3))]
    return read_both(write(tmp_path, lines), monkeypatch, binarize=False)


@pytest.fixture
def binary(tmp_path, monkeypatch):
    return read_both(write(tmp_path, loops_and_repeats(sampled_lines())), monkeypatch)


class TestPublicFunctions:
    """Every public function that takes a network gives the dense stack's
    result, bit for bit, on its CSR layers."""

    @pytest.mark.parametrize("which", ["binary", "weighted"])
    def test_build_asum(self, request, which):
        dense, csr = request.getfixturevalue(which)
        want = build_asum(dense.network).matrix
        assert build_asum(csr.network).matrix.toarray().tobytes() == want.toarray().tobytes()

    def test_q_fsum(self, weighted):
        dense, csr = weighted
        pi = estimate(build_aggregate(dense.network, "spsum"), 3, "spsum").pi_hat
        assert q_fsum(csr.network, pi) == q_fsum(dense.network, pi)

    @pytest.mark.parametrize("which", ["binary", "weighted"])
    def test_q_fmean(self, request, which):
        dense, csr = request.getfixturevalue(which)
        pi = estimate(build_aggregate(dense.network, "spsum"), 3, "spsum").pi_hat
        assert q_fmean(csr.network, pi) == q_fmean(dense.network, pi)

    @pytest.mark.parametrize("method, criterion", [("spsos", "fmean"), ("spsum", "fsum")])
    def test_estimate_k(self, weighted, method, criterion):
        # SPSum's fsum scores every K against its own CSR aggregate
        dense, csr = weighted
        want = estimate_k(dense.network, method, [2, 3], criterion)
        assert estimate_k(csr.network, method, [2, 3], criterion) == want

    @pytest.mark.parametrize("which", ["binary", "weighted"])
    def test_write_multiplex_edges(self, request, tmp_path, which):
        dense, csr = request.getfixturevalue(which)
        write_multiplex_edges(dense, tmp_path / "dense.edges")
        write_multiplex_edges(csr, tmp_path / "csr.edges")
        assert (tmp_path / "csr.edges").read_bytes() == (tmp_path / "dense.edges").read_bytes()

    def test_compute_diagnostics(self, binary):
        dense, csr = binary
        pi = generate_membership(N, 3, 15, seed=3)
        omega = expected_adjacency(pi, generate_connectivity(3, L, seed=4, rho=0.3))
        assert compute_diagnostics(csr.network, omega) == compute_diagnostics(dense.network, omega)


@pytest.fixture(scope="module", params=["binary", "weighted"])
def below(request):
    """A sampled network with self-loops at or below the real limit, held as
    a dense stack and as a CSR copy, with its expectation."""
    n = 300 if request.param == "binary" else 61
    pi = generate_membership(n, 3, n // 5, seed=7)
    conn = generate_connectivity(3, L, seed=8, rho=0.3)
    dense = sample_mlmmsb(pi, conn, 9)
    if request.param == "weighted":
        weights = np.array([0.1, 1 / 3, 2.5])[np.add.outer(np.arange(n), np.arange(n)) % 3]
        dense = MultiLayerNetwork(layers=dense.layers * weights)
    csr = MultiLayerNetwork(layers=[scipy.sparse.csr_array(a.astype(float)) for a in dense.layers])
    assert n <= aggregate.DENSE_EIG_LIMIT and csr.csr and not dense.csr
    assert csr.binary == dense.binary == (request.param == "binary")
    assert all(a.diagonal().any() for a in dense.layers)
    return dense, csr, expected_adjacency(pi, conn)


class TestHeldAsCsrBelowTheLimit:
    """CSR layers at or below the limit: products take each layer densified,
    so every public function gives the dense-held network's result, bit for
    bit."""

    def test_product_layers_densify(self, below):
        # each drawn layer is valid until the next is drawn, so it is copied
        dense, csr, _ = below
        drawn = [layer.copy() for layer in aggregate._product_layers(csr)]
        assert len(drawn) == dense.L
        for l, layer in enumerate(drawn):
            assert np.array_equal(layer, dense.layers[l])

    @pytest.mark.parametrize("estimator", [spsum, spdsos, spsos])
    def test_estimates(self, below, estimator):
        dense, csr, _ = below
        got, want = estimator(csr, 3), estimator(dense, 3)
        assert np.array_equal(got.pi_hat.rows, want.pi_hat.rows)
        assert np.array_equal(got.eigenvalues, want.eigenvalues)
        assert got.diagnostics == want.diagnostics

    def test_q_fsum_and_q_fmean(self, below):
        dense, csr, _ = below
        pi = spsum(dense, 3).pi_hat
        assert q_fsum(csr, pi) == q_fsum(dense, pi)
        assert q_fmean(csr, pi) == q_fmean(dense, pi)

    @pytest.mark.parametrize("method", ["spsum", "spdsos", "spsos"])
    @pytest.mark.parametrize("criterion", ["fsum", "fmean"])
    def test_estimate_k(self, below, method, criterion):
        dense, csr, _ = below
        want = estimate_k(dense, method, range(2, 5), criterion)
        assert estimate_k(csr, method, range(2, 5), criterion) == want

    def test_write_multiplex_edges(self, below, tmp_path):
        dense, csr, _ = below
        ids = tuple(range(1, dense.n + 1))
        write_multiplex_edges(MultiplexData(dense, ids), tmp_path / "dense.edges")
        write_multiplex_edges(MultiplexData(csr, ids), tmp_path / "csr.edges")
        assert (tmp_path / "csr.edges").read_text() == (tmp_path / "dense.edges").read_text()

    def test_compute_diagnostics(self, below):
        dense, csr, omega = below
        assert compute_diagnostics(csr, omega) == compute_diagnostics(dense, omega)


@pytest.mark.parametrize("criterion", ["fsum", "fmean"])
def test_estimate_k_scans_a_dense_stack_once(monkeypatch, criterion):
    """Above the limit ``estimate_k`` scans a dense-held network into CSR
    layers once, for the build and every score: SPDSoS ``fmean`` over
    K = 2..6 scanned it 6 times, once for the build and once per K."""
    pi = generate_membership(N, 3, 15, seed=3)
    net = sample_mlmmsb(pi, generate_connectivity(3, L, seed=4, rho=0.3), 5)
    monkeypatch.setattr(aggregate, "DENSE_EIG_LIMIT", LIMIT)
    scans = []
    parts = aggregate._csr_parts

    def counted(*args):
        scans.append(args)  # one call per layer of a scan
        return parts(*args)

    monkeypatch.setattr(aggregate, "_csr_parts", counted)
    selection = estimate_k(net, "spdsos", range(2, 7), criterion)
    assert not selection.failures and len(selection.scores) == 5
    assert len(scans) == L


def traced_peak(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestNoDenseArray:
    """Above the real limit SPSum's sum and the per-layer modularities hold
    no n x n array: a scatter into a formed sum, or one float64 buffer for
    the layers, takes n^2 * 8 bytes (35 MB here)."""

    def test_build_asum_and_q_fmean_peaks(self):
        n = aggregate.DENSE_EIG_LIMIT + 52
        rng = np.random.default_rng(11)
        layers = []
        for _ in range(3):
            cells = rng.integers(0, n, (2, 1000))
            upper = scipy.sparse.coo_array((rng.uniform(0.5, 2, 1000), cells), shape=(n, n))
            layers.append((upper + upper.T).tocsr())
        net = MultiLayerNetwork(layers=layers)
        assert net.csr and not net.binary and sum(a.nnz for a in layers) < 10_000
        pi = generate_membership(n, 3, 300, seed=1)
        assert traced_peak(lambda: build_asum(net)) < n * n
        assert traced_peak(lambda: q_fmean(net, pi)) < n * n


class TestOneDenseLayerBelowTheLimit:
    """At or below the real limit products draw a CSR-held network's layers
    densified one at a time into one n x n float64 buffer (8 n^2 bytes, 8 MB
    here), so no (L, n, n) stack is made: ``build_asum`` holds that buffer
    and the float64 sum, and ``q_fmean`` the buffer alone. A densified
    stack of these 16 layers took 3 * 8 n^2 in each."""

    def test_build_asum_and_q_fmean_peaks(self):
        n, layer_count = 1000, 16
        rng = np.random.default_rng(12)
        layers = []
        for _ in range(layer_count):
            cells = rng.integers(0, n, (2, 5 * n))
            upper = scipy.sparse.coo_array((np.ones(5 * n), cells), shape=(n, n))
            layer = (upper + upper.T).tocsr()
            layer.data[:] = 1.0  # a repeated or diagonal cell sums past 1
            layers.append(layer)
        net = MultiLayerNetwork(layers=layers)
        assert net.csr and net.binary and n <= aggregate.DENSE_EIG_LIMIT
        pi = generate_membership(n, 3, 200, seed=1)
        assert traced_peak(lambda: build_asum(net)) < 2.5 * 8 * n * n
        assert traced_peak(lambda: q_fmean(net, pi)) < 1.5 * 8 * n * n


class TestCli:
    """The command line on files that read into CSR layers."""

    def test_signed_keep_weights_exit_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(aggregate, "DENSE_EIG_LIMIT", LIMIT)
        lines = [f"{line} {(-1, 0.5, 2)[k % 3]}" for k, line in enumerate(sampled_lines())]
        path = write(tmp_path, lines)
        code = cli_main(["estimate", "--data", str(path), "--k", "3", "--keep-weights",
                         "--out-dir", str(tmp_path / "out")])
        assert code == 2
        assert "ConfigError: adjacency entries must be nonnegative" in capsys.readouterr().err

    def test_only_self_loops_exit_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(aggregate, "DENSE_EIG_LIMIT", LIMIT)
        path = write(tmp_path, [f"1 {v} {v}" for v in range(1, N + 1)])
        code = cli_main(["select-k", "--data", str(path)])
        assert code == 2
        assert "EmptyNetworkError" in capsys.readouterr().err
