import csv
import io
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
import xml.etree.ElementTree as ET
from unittest import mock

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import mlmmsb
from mlmmsb import aggregate, io_cli
from mlmmsb import (
    ConfigError,
    EmptyNetworkError,
    ParseError,
    UnusableDataError,
    cli_main,
    read_multiplex_edges,
    render_line_chart,
    write_results_csv,
)
from mlmmsb.experiments import ExperimentConfig, run_experiment
from mlmmsb.errors import IoError
from mlmmsb.io_cli import (
    MultiplexData,
    _read_columns,
    _scan_edges,
    read_membership_csv,
    write_membership_csv,
    write_multiplex_edges,
)
from mlmmsb.aggregate import DENSE_EIG_LIMIT
from mlmmsb.model import MembershipMatrix, MultiLayerNetwork


def write_random_edges(path, n, L, records, weighted, seed=1):
    """An edge list of uniform random records in which every node id appears."""
    rng = np.random.default_rng(seed)
    layer = rng.integers(1, L + 1, records)
    u, v = rng.integers(1, n + 1, (2, records))
    u[:n] = np.arange(1, n + 1)
    columns, fmt = [layer, u, v], ["%d"] * 3
    if weighted:
        columns.append(rng.uniform(0.5, 2.0, records))
        fmt.append("%.3f")
    np.savetxt(path, np.column_stack(columns), fmt=fmt)


class TestEdgeListParsing:
    def test_minimal_file(self, tmp_path):
        path = tmp_path / "net.edges"
        path.write_text("1 1 2\n")
        data = read_multiplex_edges(path)
        assert data.network.n == 2
        assert data.network.L == 1
        assert data.network.layers[0, 0, 1] == 1
        assert data.network.layers[0, 1, 0] == 1

    def test_symmetry_dedup(self, tmp_path):
        path = tmp_path / "net.edges"
        path.write_text("1 2 1\n1 1 2\n")
        data = read_multiplex_edges(path)
        assert data.network.layers[0].sum() == 2  # one undirected edge

    def test_comments_and_sparse_ids(self, tmp_path):
        path = tmp_path / "net.edges"
        path.write_text("# header\n1 10 30\n2 30 50\n")
        data = read_multiplex_edges(path)
        assert data.network.n == 3
        assert data.node_ids == (10, 30, 50)
        assert data.network.L == 2

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "net.edges"
        path.write_text("1 1 2\n1 2\n")
        with pytest.raises(ParseError) as info:
            read_multiplex_edges(path)
        assert info.value.line_number == 2

    @pytest.mark.parametrize("weight", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("binarize", [True, False])
    def test_non_finite_weight_reports_number(self, tmp_path, weight, binarize):
        path = tmp_path / "net.edges"
        path.write_text(f"1 1 2\n1 2 3 {weight}\n")
        with pytest.raises(ParseError) as info:
            read_multiplex_edges(path, binarize=binarize)
        assert info.value.line_number == 2

    def test_empty_file_errors(self, tmp_path):
        path = tmp_path / "net.edges"
        path.write_text("# nothing\n")
        with pytest.raises(EmptyNetworkError):
            read_multiplex_edges(path)

    def test_layer_dtype_follows_binarize(self, tmp_path):
        path = tmp_path / "net.edges"
        path.write_text("1 1 2 3.5\n1 2 3\n")
        assert read_multiplex_edges(path).network.layers.dtype == np.uint8
        weighted = read_multiplex_edges(path, binarize=False).network
        assert weighted.layers.dtype == np.float64
        assert not weighted.binary

    def test_binarize_never_holds_a_float_stack(self, tmp_path):
        n, L = 800, 2
        path = tmp_path / "net.edges"
        path.write_text("".join(f"{l} {i} {i % n + 1}\n" for l in (1, 2) for i in range(1, n + 1)))
        tracemalloc.start()
        try:
            layers = read_multiplex_edges(path).network.layers
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert layers.shape == (L, n, n)
        # a float64 stack alone would take 8 * L * n * n bytes
        assert peak < 8 * L * n * n / 2

    def test_per_record_memory(self, tmp_path):
        # 100,000 records on 50 nodes: the loadtxt records take 24 bytes each
        # and the stack is 5 kB, so the id lookup and the fill set the peak;
        # np.unique's inverse over both id columns took about 138 bytes a record
        records = 100_000
        rng = np.random.default_rng(0)
        layer = rng.integers(1, 3, records)
        u, v = rng.integers(1, 51, (2, records))
        path = tmp_path / "net.edges"
        np.savetxt(path, np.column_stack([layer, u, v]), fmt="%d")
        tracemalloc.start()
        try:
            read_multiplex_edges(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100 * records

    @pytest.mark.parametrize(
        "n, L, records, weighted, allowance",
        [
            # estimate-file's size, above DENSE_EIG_LIMIT: CSR layers and no
            # stack. The peak is the loadtxt records (24 bytes each) beside
            # the int32 layer and node indices (4 bytes each): this read 36.2
            # bytes a record, where the uint8 stack beside int64 columns took
            # 46.5; the layers keep 11.8 (int32 column indices and one
            # buffer of ones)
            (2100, 4, 400_000, False, 38),
            # the largest stack, held to its stored cells: int32 while
            # L * n * n < 2**31, at most 8 bytes a record, which numpy casts
            # to intp in small chunks as it fills the stack; this read 8.0
            # bytes a record above the stack, int64 cells 16.0
            (DENSE_EIG_LIMIT, 4, 400_000, False, 9),
            # the float64 stack is allocated with only the stored cells and
            # their sums left, at most 24 bytes a record: this read 23.6,
            # where holding everything took 123 bytes a record
            (1000, 2, 100_000, True, 40),
            # a stack small enough that the phase before it sets the peak:
            # the weights are copied out of the records, so the records go
            # with the id columns, and the cells are grouped in place by one
            # argsort: this read 20.5 bytes a record above the stack
            (500, 2, 100_000, True, 39),
            # weighted CSR layers: the peak is the stored cells and sums cut
            # out beside the cells' groups, the weights, and every distinct
            # cell and sum: this read 64.9 bytes a record, where np.unique's
            # inverse over int64 cells took 129.6
            (2100, 4, 400_000, True, 70),
        ],
    )
    def test_records_freed_before_the_stack(self, tmp_path, n, L, records, weighted, allowance):
        path = tmp_path / "net.edges"
        write_random_edges(path, n, L, records, weighted)
        tracemalloc.start()
        try:
            layers = read_multiplex_edges(path, binarize=not weighted).network.layers
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        if n > DENSE_EIG_LIMIT:
            assert isinstance(layers, tuple) and len(layers) == L
            assert all(isinstance(a, scipy.sparse.csr_array) for a in layers)
            assert all(a.shape == (n, n) for a in layers)
            assert all(a.indices.dtype == a.indptr.dtype == np.int32 for a in layers)
            assert peak < allowance * records
            return
        assert layers.shape == (L, n, n)
        assert layers.dtype == (np.float64 if weighted else np.uint8)
        assert peak < layers.nbytes + allowance * records

    @pytest.mark.parametrize(
        "weighted, drop_self_loops",
        [(False, True), (False, False), (True, True), (True, False)],
        ids=["True", "False", "weighted-True", "weighted-False"],
    )
    def test_int64_cells_fill_the_same_stack(
        self, tmp_path, monkeypatch, weighted, drop_self_loops
    ):
        n, L, records = 300, 3, 20_000
        path = tmp_path / "net.edges"
        write_random_edges(path, n, L, records, weighted)
        w = " 0.7" if weighted else ""
        with path.open("a") as handle:  # self-loops and a repeated line
            handle.write("".join(f"{1 + v % L} {v} {v}{w}\n" for v in range(1, n + 1, 7)))
            handle.write(f"1 1 2{w}\n1 2 1{w}\n1 1 2{w}\n")
        options = {"binarize": not weighted, "drop_self_loops": drop_self_loops}
        want = read_multiplex_edges(path, **options).network.layers
        # L * n * n reaches the bound: the int64 fallback
        monkeypatch.setattr(io_cli, "CELL_INT32_BOUND", L * n * n)
        got = read_multiplex_edges(path, **options).network.layers
        assert got.dtype == want.dtype == (np.float64 if weighted else np.uint8)
        assert got.tobytes() == want.tobytes()
        assert want.sum() > 0

    def test_binarize_collapses_weights(self, tmp_path):
        path = tmp_path / "net.edges"
        path.write_text("1 1 2 5.0\n1 1 2 2.0\n")
        data = read_multiplex_edges(path, binarize=True)
        assert data.network.layers[0, 0, 1] == 1
        weighted = read_multiplex_edges(path, binarize=False)
        assert weighted.network.layers[0, 0, 1] == 7.0

    def test_weighted_listing_in_both_directions_is_symmetric(self, tmp_path):
        path = tmp_path / "net.edges"
        path.write_text("1 1 2 5.0\n1 2 1 2.0\n1 2 3 0.5\n")
        layer = read_multiplex_edges(path, binarize=False).network.layers[0]
        assert layer[0, 1] == layer[1, 0] == 7.0
        assert layer[1, 2] == layer[2, 1] == 0.5

    def test_self_loop_handling(self, tmp_path):
        path = tmp_path / "net.edges"
        path.write_text("1 1 1\n1 1 2\n")
        dropped = read_multiplex_edges(path, drop_self_loops=True)
        assert dropped.network.layers[0, 0, 0] == 0
        kept = read_multiplex_edges(path, drop_self_loops=False)
        assert kept.network.layers[0, 0, 0] == 1

    def test_huge_layer_id_is_one_layer(self, tmp_path):
        path = tmp_path / "net.edges"
        path.write_text("10000000000 1 2\n")
        data = read_multiplex_edges(path)
        assert data.network.L == 1
        assert data.network.n == 2

    def test_round_trip_idempotent(self, tmp_path):
        path = tmp_path / "net.edges"
        path.write_text("1 1 2\n1 2 3\n2 1 3\n")
        data = read_multiplex_edges(path)
        back = tmp_path / "back.edges"
        write_multiplex_edges(data, back)
        again = read_multiplex_edges(back)
        assert np.array_equal(data.network.layers, again.network.layers)
        assert data.node_ids == again.node_ids


class TestEdgeListFormatRules:
    def test_trailing_comment_parses(self, tmp_path):
        path = tmp_path / "net.edges"
        path.write_text("1 1 2 # first edge\n1 2 3#second\n")
        data = read_multiplex_edges(path)
        assert data.node_ids == (1, 2, 3)
        assert data.network.layers[0].sum() == 4

    def test_only_comments_and_blank_lines_warn_nothing(self, tmp_path):
        path = tmp_path / "net.edges"
        path.write_text("# header\n\n   \n\t\n# 1 2 3\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EmptyNetworkError):
                read_multiplex_edges(path)

    def test_mixed_widths_parse(self, tmp_path):
        path = tmp_path / "net.edges"
        path.write_text("1 1 2\n1 2 3 2.5\n2 1 3\n1 1 2 -0.5\n")
        weighted = read_multiplex_edges(path, binarize=False).network.layers
        assert weighted[0, 0, 1] == weighted[0, 1, 0] == 0.5
        assert weighted[0, 1, 2] == weighted[0, 2, 1] == 2.5
        assert weighted[1, 0, 2] == weighted[1, 2, 0] == 1.0
        assert weighted.sum() == 8.0
        path.write_text(path.read_text() + "1 3 3 4\n")
        for binarize in (True, False):
            for drop in (True, False):
                got = read_multiplex_edges(path, binarize, drop)
                want = line_loop_reader(path, binarize, drop)
                assert got.node_ids == want.node_ids
                assert np.array_equal(got.network.layers, want.network.layers)

    def test_weighted_sums_keep_file_order(self, tmp_path):
        # (1e16 + 1) - 1e16 == 0 but (1e16 - 1e16) + 1 == 1: the cell must add
        # its weights in file order, whichever direction each line lists
        path = tmp_path / "net.edges"
        path.write_text("1 1 2 1e16\n1 2 1 1\n1 1 2 -1e16\n")
        layer = read_multiplex_edges(path, binarize=False).network.layers[0]
        assert layer[0, 1] == layer[1, 0] == 0.0

    def test_overflowing_weighted_sum_raises(self, tmp_path):
        path = tmp_path / "net.edges"
        path.write_text("1 1 2 1e308\n1 1 2 1e308\n1 3 4 1\n")
        with pytest.raises(UnusableDataError, match="summed weight overflows"):
            read_multiplex_edges(path, binarize=False)

    def test_overflowing_sum_is_an_edge_when_binarized(self, tmp_path):
        path = tmp_path / "net.edges"
        # the -1 sends this file past the all-positive fast path
        path.write_text("1 1 2 1e308\n1 1 2 1e308\n1 3 4 -1\n1 3 4 2\n")
        layer = read_multiplex_edges(path).network.layers[0]
        assert layer[0, 1] == layer[1, 0] == 1
        assert layer[2, 3] == layer[3, 2] == 1

    def test_underscored_ids_parse(self, tmp_path):
        path = tmp_path / "net.edges"
        path.write_text("1 1_000 2\n")
        assert read_multiplex_edges(path).node_ids == (2, 1000)

    @pytest.mark.parametrize(
        "line", [f"1 {2**63} 3", "1 12345678901234567890 3", "99999999999999999999 1 2"]
    )
    def test_id_above_int64_reports_number(self, tmp_path, line):
        path = tmp_path / "net.edges"
        path.write_text(f"1 1 2\n1 2 3\n{line}\n")
        with pytest.raises(ParseError) as info:
            read_multiplex_edges(path)
        assert info.value.line_number == 3

    def test_largest_int64_id_parses(self, tmp_path):
        path = tmp_path / "net.edges"
        path.write_text(f"1 1 {2**63 - 1}\n")
        assert read_multiplex_edges(path).node_ids == (1, 2**63 - 1)

    def test_huge_id_exit_2(self, tmp_path, capsys):
        path = tmp_path / "net.edges"
        path.write_text("1 1 2\n1 2 3\n1 12345678901234567890 3\n")
        code = cli_main(
            ["estimate", "--data", str(path), "--k", "2", "--out-dir", str(tmp_path)]
        )
        assert code == 2
        assert "line 3" in capsys.readouterr().err
        assert not (tmp_path / "membership.csv").exists()

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_reads_from_a_pipe(self):
        read_end, write_end = os.pipe()
        os.write(write_end, b"# header\n1 1 2\n1 2 3 extra\n")
        os.close(write_end)
        try:
            with pytest.raises(ParseError) as info:
                read_multiplex_edges(f"/dev/fd/{read_end}")
        finally:
            os.close(read_end)
        assert info.value.line_number == 3

    def test_missing_file_is_io_error(self, tmp_path):
        with pytest.raises(IoError):
            read_multiplex_edges(tmp_path / "absent.edges")


LATE_LINE = 49_000


def uniform_edge_file(path, width, bad):
    """50k lines of one width, all valid except ``bad`` as line LATE_LINE."""
    rng = np.random.default_rng(width)
    rows = rng.integers(1, 300, size=(50_000, 3))
    rows[:, 0] = rows[:, 0] % 4 + 1
    weights = rng.uniform(-1.0, 3.0, size=len(rows))
    lines = [
        f"{l} {u} {v}" + (f" {w!r}" if width == 4 else "")
        for (l, u, v), w in zip(rows.tolist(), weights.tolist())
    ]
    lines[LATE_LINE - 1] = bad
    path.write_text("\n".join(lines) + "\n")


class TestLateErrors:
    @pytest.mark.parametrize(
        "width, bad",
        [
            (3, "2 0 7"),
            (4, "2 0 7 1.5"),
            (4, "2 5 7 nan"),
            (3, "2 5 7 1.0 9"),
            (4, "2 5 7 1.0 9"),
            (3, "2 five 7"),
            (4, "2 5 7 x"),
        ],
    )
    def test_line_number_of_late_error(self, tmp_path, width, bad):
        path = tmp_path / "big.edges"
        uniform_edge_file(path, width, bad)
        with pytest.raises(ParseError) as info:
            read_multiplex_edges(path)
        assert info.value.line_number == LATE_LINE


def line_loop_reader(path, binarize=True, drop_self_loops=True):
    """The line-by-line reader that preceded the vectorised one, kept as the
    reference for files both accept (no trailing comments, ids below 2**63).
    Layer ids map to layers in sorted order, as node ids do."""
    records = []
    node_ids = set()
    layer_ids = set()
    with open(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            parts = text.split()
            if len(parts) not in (3, 4):
                raise ParseError("field count", line_number=lineno)
            try:
                layer = int(parts[0])
                u = int(parts[1])
                v = int(parts[2])
                weight = float(parts[3]) if len(parts) == 4 else 1.0
            except ValueError as exc:
                raise ParseError("non-numeric", line_number=lineno) from exc
            if not math.isfinite(weight):
                raise ParseError("non-finite", line_number=lineno)
            if layer < 1 or u < 1 or v < 1:
                raise ParseError("ids", line_number=lineno)
            records.append((layer, u, v, weight))
            node_ids.update((u, v))
            layer_ids.add(layer)
    if not node_ids:
        raise EmptyNetworkError("empty")
    ordered = tuple(sorted(node_ids))
    index = {node: i for i, node in enumerate(ordered)}
    layer_index = {layer: k for k, layer in enumerate(sorted(layer_ids))}
    n = len(ordered)
    layers = np.zeros((len(layer_ids), n, n))
    for layer, u, v, weight in records:
        i, j = index[u], index[v]
        if i == j and drop_self_loops:
            continue
        layers[layer_index[layer], i, j] += weight
        if i != j:
            layers[layer_index[layer], j, i] += weight
    if binarize:
        np.copyto(layers, layers > 0)
    return MultiplexData(network=MultiLayerNetwork(layers=layers), node_ids=ordered)


INVALID_LINES = ("1 0 2", "0 1 2", "1 -3 2", "1 2 nan", "1 2 3 inf", "1 2 3 -inf",
                 "1 2", "1 2 3 4 5", "1 x 2", "1 2 3 w", "1.0 2 3", "1 2 3 1,5")


@st.composite
def edge_list_text(draw):
    """An edge-list file: duplicates, both directions, self-loops, negative and
    full-precision weights, blank and comment lines, tabs, CRLF, mixed widths
    and sometimes one malformed line."""
    widths = draw(st.sampled_from(["3", "4", "mixed"]))
    # few ids and layers, so lines often repeat a cell
    pool = draw(st.lists(st.integers(1, 2**63 - 1), max_size=2)) + [1, 2, 3]
    # weighted layers must stay nonnegative, so most files have no negative weight
    low = draw(st.sampled_from([0, 0, -1]))
    weight = st.one_of(
        st.floats(low * 1e6, 1e6, allow_subnormal=False).map(repr),
        st.integers(low * 10**6, 10**6).map(lambda k: repr(k / 7)),
        st.floats(low * 10, 10).map(lambda w: f"{w:.17g}"),
        st.integers(low * 5, 5).map(str),
    )
    sep = st.sampled_from([" ", "\t", "  ", " \t"])
    lines = []
    for _ in range(draw(st.integers(0, 40))):
        kind = draw(st.integers(0, 9))
        if kind == 0:
            lines.append("")
        elif kind == 1:
            lines.append(draw(st.sampled_from(["# header", "#", "  # indented", "\t"])))
        else:
            fields = [str(draw(st.sampled_from([1, 2, 10**10])))]
            fields += [str(draw(st.sampled_from(pool))) for _ in range(2)]
            if widths == "4" or (widths == "mixed" and draw(st.booleans())):
                fields.append(draw(weight))
            lead = draw(st.sampled_from(["", " ", "\t"]))
            lines.append(lead + draw(sep).join(fields) + draw(st.sampled_from(["", " "])))
    if draw(st.integers(0, 3)) == 0:
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(INVALID_LINES)))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + draw(st.sampled_from(["", end]))


def outcome(read, path, binarize, drop):
    try:
        data = read(path, binarize, drop)
    except ParseError as exc:
        return ("ParseError", exc.line_number)
    except Exception as exc:  # noqa: BLE001 - compared by type
        return (type(exc).__name__, None)
    return data


class TestAgainstLineLoop:
    @settings(max_examples=300, deadline=None)
    @given(text=edge_list_text())
    def test_same_layers_or_same_error(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("edges") / "net.edges"
        path.write_bytes(text.encode())
        for binarize in (True, False):
            for drop in (True, False):
                got = outcome(read_multiplex_edges, path, binarize, drop)
                want = outcome(line_loop_reader, path, binarize, drop)
                if isinstance(want, tuple):
                    assert got == want
                else:
                    assert got.node_ids == want.node_ids
                    assert got.network.layers.dtype == want.network.layers.dtype
                    assert np.array_equal(got.network.layers, want.network.layers)

    @pytest.mark.parametrize(
        "weights",
        [["0"], ["-1"], ["1", "-1"], ["1e16", "1", "-1e16"]],
        ids=["zero", "negative", "sum-zero", "sum-zero-in-file-order"],
    )
    def test_non_positive_sum_is_no_edge(self, tmp_path, weights):
        # (2, 3) is listed in both directions, once per weight
        lines = ["1 1 2"]
        lines += [f"1 {u} {v} {w}" for (u, v), w in zip([(2, 3), (3, 2)] * 2, weights)]
        path = tmp_path / "net.edges"
        path.write_text("\n".join(lines) + "\n")
        layers = read_multiplex_edges(path).network.layers
        assert layers.dtype == np.uint8
        assert layers[0, 0, 1] == 1
        assert layers[0, 1, 2] == layers[0, 2, 1] == 0
        for binarize in (True, False):
            for drop in (True, False):
                got = outcome(read_multiplex_edges, path, binarize, drop)
                want = outcome(line_loop_reader, path, binarize, drop)
                if isinstance(want, tuple):  # a negative weighted cell
                    assert got == want
                else:
                    assert got.node_ids == want.node_ids
                    assert got.network.layers.dtype == want.network.layers.dtype
                    assert np.array_equal(got.network.layers, want.network.layers)

    @settings(max_examples=150, deadline=None)
    @given(text=edge_list_text())
    def test_csr_read_matches_csr_of_the_stack(self, tmp_path_factory, text):
        """With the limit patched to 0 every file reads into CSR layers: those
        that ``_csr_layers`` makes of the stack it reads into at the real
        limit, arrays and dtypes alike, or the same error."""
        path = tmp_path_factory.mktemp("edges") / "net.edges"
        path.write_bytes(text.encode())
        for binarize in (True, False):
            for drop in (True, False):
                want = outcome(read_multiplex_edges, path, binarize, drop)
                with mock.patch.object(aggregate, "DENSE_EIG_LIMIT", 0):
                    got = outcome(read_multiplex_edges, path, binarize, drop)
                    if isinstance(want, tuple):
                        assert got == want
                        continue
                    reference = aggregate._csr_layers(want.network)
                assert got.node_ids == want.node_ids
                assert got.network.binary == want.network.binary
                for a, b in zip(got.network.layers, reference, strict=True):
                    for x, y in ((a.indptr, b.indptr), (a.indices, b.indices), (a.data, b.data)):
                        assert x.dtype == y.dtype
                        assert x.tobytes() == y.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(text=edge_list_text())
    def test_reader_matches_scanner(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("edges") / "net.edges"
        path.write_bytes(text.encode())
        with open(path) as handle:
            try:
                slow = _scan_edges(handle)
            except ParseError:
                return
            handle.seek(0)
            fast = _read_columns(handle)
        for a, b in zip(fast, slow):
            assert a.dtype == b.dtype
            assert np.array_equal(a, b)


def renumbered_edge_file(path, node_of, layer_of, width=4, seed=0):
    """300 edge lines on 40 nodes and 3 layers, with self-loops, duplicates
    and weights, whose node v and layer l are written as ``node_of(v)`` and
    ``layer_of(l)``."""
    rng = np.random.default_rng(seed)
    layer = rng.integers(0, 3, 300)
    u, v = rng.integers(0, 40, (2, 300))
    weights = rng.uniform(-0.5, 2.0, 300)
    lines = [
        f"{layer_of(l)} {node_of(a)} {node_of(b)}" + (f" {w!r}" if width == 4 else "")
        for l, a, b, w in zip(layer.tolist(), u.tolist(), v.tolist(), weights.tolist())
    ]
    path.write_text("\n".join(lines) + "\n")


class TestIdMapping:
    """Contiguous ids map by offset and any other ids by search; both give
    the line loop's layers."""

    @pytest.mark.parametrize(
        "node_of",
        [lambda v: v + 1, lambda v: v + 1000, lambda v: 3 * v + 10**12,
         lambda v: (1, 2**63 - 1)[v % 2]],
        ids=["one-based", "offset", "gapped", "extremes"],
    )
    @pytest.mark.parametrize(
        "layer_of", [lambda l: l + 1, lambda l: l + 7, lambda l: (3, 10**9, 10**9 + 1)[l]],
        ids=["one-based", "offset", "gapped"],
    )
    @pytest.mark.parametrize("width", [3, 4])
    def test_matches_line_loop(self, tmp_path, node_of, layer_of, width):
        path = tmp_path / "net.edges"
        renumbered_edge_file(path, node_of, layer_of, width)
        for binarize in (True, False):
            for drop in (True, False):
                got = outcome(read_multiplex_edges, path, binarize, drop)
                want = outcome(line_loop_reader, path, binarize, drop)
                if isinstance(want, tuple):  # a negative weighted cell
                    assert got == want
                    continue
                assert got.node_ids == want.node_ids
                assert got.network.layers.dtype == want.network.layers.dtype
                assert np.array_equal(got.network.layers, want.network.layers)

    def test_index_matches_searchsorted(self, monkeypatch):
        for block in (io_cli._SEARCH_BLOCK, 3):  # ids that are searched, by blocks
            monkeypatch.setattr(io_cli, "_SEARCH_BLOCK", block)
            for ids in ([5], [1, 2, 3], [10**12, 10**12 + 1], [1, 3], [1, 2**63 - 1],
                        [2**63 - 2, 2**63 - 1], [2, 3, 5, 7, 11]):
                ids = np.array(ids, dtype=np.int64)
                values = np.repeat(ids, 2)[::-1]
                got = io_cli._index_in(ids, values)
                assert got.dtype == np.int32
                assert np.array_equal(got, np.searchsorted(ids, values))


class TestLoadtxtSource:
    """numpy reads a path in blocks but any other object line by line, so a
    file on disk must reach np.loadtxt by its path."""

    @pytest.fixture
    def sources(self, monkeypatch):
        seen = []
        loadtxt = np.loadtxt

        def spy(source, *args, **kwargs):
            seen.append(source)
            return loadtxt(source, *args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", spy)
        return seen

    def test_file_is_read_by_path(self, tmp_path, monkeypatch, sources):
        (tmp_path / "net.edges").write_text("1 1 2\n1 2 3\n")
        monkeypatch.chdir(tmp_path)
        data = read_multiplex_edges("net.edges")
        assert len(sources) == 1 and isinstance(sources[0], str)
        assert os.path.isabs(sources[0])
        assert os.path.samefile(sources[0], tmp_path / "net.edges")
        assert data.node_ids == (1, 2, 3)

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_pipe_is_read_from_its_copy(self, sources):
        read_end, write_end = os.pipe()
        os.write(write_end, b"1 1 2\n1 2 3\n")
        os.close(write_end)
        try:
            data = read_multiplex_edges(f"/dev/fd/{read_end}")
        finally:
            os.close(read_end)
        assert len(sources) == 1 and isinstance(sources[0], io.StringIO)
        assert data.node_ids == (1, 2, 3)

    def test_compressed_suffix_is_read_from_the_handle(self, tmp_path, sources):
        # numpy would decompress a path with this suffix; the file is text
        path = tmp_path / "net.edges.gz"
        path.write_text("1 1 2\n1 2 3\n")
        data = read_multiplex_edges(path)
        assert len(sources) == 1 and not isinstance(sources[0], str)
        assert data.node_ids == (1, 2, 3)


@st.composite
def writable_multiplex(draw):
    """Binary symmetric layers without self-loops that the edge-list format
    keeps as they are: every node and every layer has an edge."""
    n = draw(st.integers(2, 8))
    L = draw(st.integers(1, 4))
    ids = sorted(draw(st.sets(st.integers(1, 10**6), min_size=n, max_size=n)))
    bits = draw(st.lists(st.booleans(), min_size=L * n * n, max_size=L * n * n))
    upper = np.triu(np.array(bits, dtype=float).reshape(L, n, n), k=1)
    layers = upper + upper.transpose(0, 2, 1)
    # the reader drops isolated nodes and layers without edges
    for i in np.flatnonzero(layers.sum(axis=(0, 2)) == 0):
        j = (i + 1) % n
        layers[-1, i, j] = layers[-1, j, i] = 1
    for layer in layers:
        if not layer.any():
            layer[0, 1] = layer[1, 0] = 1
    return MultiplexData(network=MultiLayerNetwork(layers=layers), node_ids=tuple(ids))


def loop_writer_text(data):
    """The per-edge loop that preceded the vectorised writer: the reference
    for its text."""
    lines = []
    net = data.network
    for l in range(net.L):
        layer = net.layers[l]
        rows, cols = np.nonzero(np.triu(layer))
        for i, j in zip(rows, cols):
            u, v = data.node_ids[i], data.node_ids[j]
            if net.binary:
                lines.append(f"{l + 1} {u} {v}")
            else:
                lines.append(f"{l + 1} {u} {v} {layer[i, j]:.10g}")
    return "\n".join(lines) + ("\n" if lines else "")


@st.composite
def any_multiplex(draw):
    """Binary or weighted symmetric layers, self-loops and empty layers
    allowed, with node ids of any kind."""
    n = draw(st.integers(1, 6))
    L = draw(st.integers(1, 3))
    if draw(st.booleans()):
        value = st.sampled_from([0.0, 1.0])
    else:
        value = st.one_of(
            st.sampled_from([0.0, 0.0, 0.1, 1 / 3, 1.0]),
            st.floats(0, 1e300),
            st.integers(1, 10**6).map(lambda k: k / 7),
        )
    cells = draw(st.lists(value, min_size=L * n * n, max_size=L * n * n))
    upper = np.triu(np.array(cells, dtype=float).reshape(L, n, n))
    layers = upper + np.triu(upper, k=1).transpose(0, 2, 1)
    node_id = st.one_of(st.integers(-(2**70), 2**70), st.text("ab_-é7", max_size=3))
    ids = draw(st.lists(node_id, min_size=n, max_size=n))
    return MultiplexData(network=MultiLayerNetwork(layers=layers), node_ids=tuple(ids))


class TestEdgeListWriter:
    @settings(max_examples=200, deadline=None)
    @given(data=any_multiplex())
    def test_text_equals_loop_writer(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("writer") / "net.edges"
        write_multiplex_edges(data, path)
        assert path.read_bytes() == loop_writer_text(data).encode()


class TestEdgeListRoundTrip:
    @settings(max_examples=50, deadline=None)
    @given(data=writable_multiplex())
    def test_write_then_read(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("roundtrip") / "net.edges"
        write_multiplex_edges(data, path)
        back = read_multiplex_edges(path)
        assert back.node_ids == data.node_ids
        assert np.array_equal(back.network.layers, data.network.layers)


class TestResultsCsv:
    def make_result(self, reps=2):
        cfg = ExperimentConfig(
            sweep="rho",
            sweep_values=(0.3, 0.6),
            n=40,
            L=4,
            n0=8,
            repetitions=reps,
            methods=("SPSUM", "SPDSOS"),
        )
        return run_experiment(cfg)

    def test_header_and_shape(self, tmp_path):
        result = self.make_result()
        path = tmp_path / "out.csv"
        write_results_csv(result, path)
        lines = path.read_text().split("\n")
        assert lines[0] == (
            "method,sweep_param,sweep_value,repetitions,"
            "hamming_mean,hamming_se,relative_mean,relative_se"
        )
        assert len([l for l in lines if l]) == 1 + 2 * 2  # 2 methods x 2 values

    def test_round_trip_means(self, tmp_path):
        result = self.make_result()
        path = tmp_path / "out.csv"
        write_results_csv(result, path)
        with open(path) as handle:
            rows = list(csv.DictReader(handle))
        for row in rows:
            value = float(row["sweep_value"])
            mean = result.mean(row["method"], value, "hamming")
            assert abs(float(row["hamming_mean"]) - mean) < 1e-9
            assert int(row["repetitions"]) == 2

    def test_byte_stable(self, tmp_path):
        result = self.make_result()
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_results_csv(result, a)
        write_results_csv(result, b)
        assert a.read_bytes() == b.read_bytes()
        assert b"\r" not in a.read_bytes()


class TestAtomicWrite:
    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"])
    def test_mode_follows_umask(self, tmp_path, umask, mode):
        path = tmp_path / "out.txt"
        old = os.umask(umask)
        try:
            io_cli._atomic_write(path, "x\n")
        finally:
            os.umask(old)
        assert os.stat(path).st_mode & 0o777 == mode

    def test_failed_rename_leaves_no_temp_file(self, tmp_path, monkeypatch):
        def failing(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(os, "replace", failing)
        with pytest.raises(IoError, match="rename refused"):
            io_cli._atomic_write(tmp_path / "out.txt", "x\n")
        assert list(tmp_path.iterdir()) == []


class TestMembershipCsv:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        pi = MembershipMatrix(rows=rng.dirichlet(np.ones(3), size=10))
        path = tmp_path / "pi.csv"
        write_membership_csv(pi, path)
        header = path.read_text().split("\n")[0]
        assert header == "node,pi_1,pi_2,pi_3,home,label"
        back = read_membership_csv(path)
        assert np.max(np.abs(back.rows - pi.rows)) < 1e-9

    @pytest.mark.parametrize("row", ["0,0", "0,-0", "1,-1", "nan,1", "inf,1"])
    def test_row_without_positive_finite_sum_reports_number(self, tmp_path, row):
        path = tmp_path / "pi.csv"
        path.write_text(f"node,pi_1,pi_2\n1,1,0\n2,{row}\n")
        with pytest.raises(ParseError) as info:
            read_membership_csv(path)
        assert info.value.line_number == 3


class TestLineChart:
    def test_single_point(self, tmp_path):
        path = tmp_path / "chart.svg"
        render_line_chart([("a", [1.0], [2.0])], path)
        root = ET.parse(path).getroot()
        assert root.tag.endswith("svg")
        assert any(child.tag.endswith("circle") for child in root.iter())

    def test_two_series_two_polylines(self, tmp_path):
        path = tmp_path / "chart.svg"
        render_line_chart(
            [("a", [1, 2], [3, 4]), ("b", [1, 2], [5, 6])], path
        )
        root = ET.parse(path).getroot()
        polylines = [c for c in root.iter() if c.tag.endswith("polyline")]
        texts = [c.text for c in root.iter() if c.tag.endswith("text")]
        assert len(polylines) == 2
        assert "a" in texts and "b" in texts

    def test_empty_series_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            render_line_chart([], tmp_path / "chart.svg")


def write_two_blocks(path):
    """Two layers of two 10-node cliques joined by one edge."""
    edges = [
        f"{layer} {i} {j}"
        for layer in (1, 2)
        for block in (0, 10)
        for i in range(1 + block, 11 + block)
        for j in range(i + 1, 11 + block)
    ]
    path.write_text("\n".join(edges + ["1 1 11"]) + "\n")


class TestCli:
    def test_unknown_subcommand_exit_1(self, capsys):
        assert cli_main(["frobnicate"]) == 1
        assert "error" in capsys.readouterr().err

    def test_simulate_then_estimate(self, tmp_path, capsys):
        out = tmp_path / "sim.edges"
        code = cli_main(
            ["simulate", "--n", "60", "--n0", "15", "--layers", "8",
             "--rho", "0.6", "--seed", "3", "--out", str(out)]
        )
        assert code == 0
        assert out.exists()
        code = cli_main(
            ["estimate", "--data", str(out), "--method", "spdsos", "--k", "3",
             "--out-dir", str(tmp_path / "est")]
        )
        assert code == 0
        assert (tmp_path / "est" / "membership.csv").exists()
        assert (tmp_path / "est" / "nodes.csv").exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--n0", "-1"], "n0 must be nonnegative, got -1"),
            (["--k", "0"], "n and K must be at least 1, got n=200, K=0"),
            (["--k", "-2"], "n and K must be at least 1, got n=200, K=-2"),
            (["--n", "0", "--n0", "0"], "n and K must be at least 1, got n=0, K=3"),
        ],
    )
    def test_simulate_bad_sizes_exit_2(self, tmp_path, capsys, flags, message):
        out = tmp_path / "sim.edges"
        assert cli_main(["simulate", *flags, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: ConfigError: {message}\n"
        assert not out.exists()

    def test_huge_layer_id_estimates_as_layer_one(self, tmp_path, capsys):
        for name, line in (("small", "1 1 2"), ("huge", "10000000000 1 2")):
            path = tmp_path / f"{name}.edges"
            path.write_text(line + "\n")
            code = cli_main(
                ["estimate", "--data", str(path), "--method", "spsum", "--k", "1",
                 "--out-dir", str(tmp_path / name)]
            )
            assert code == 0
        assert "Traceback" not in capsys.readouterr().err
        for output in ("membership.csv", "nodes.csv"):
            small = (tmp_path / "small" / output).read_bytes()
            assert (tmp_path / "huge" / output).read_bytes() == small

    def test_estimate_k_too_large_exit_2(self, tmp_path, capsys):
        out = tmp_path / "sim.edges"
        cli_main(["simulate", "--n", "20", "--n0", "5", "--seed", "1",
                  "--out", str(out)])
        code = cli_main(
            ["estimate", "--data", str(out), "--k", "999", "--out-dir", str(tmp_path)]
        )
        assert code == 2
        assert "DimensionError" in capsys.readouterr().err

    @pytest.mark.parametrize("weight", ["nan", "inf"])
    def test_non_finite_weight_exit_2(self, tmp_path, capsys, weight):
        path = tmp_path / "w.edges"
        path.write_text(f"1 1 2\n1 2 3\n1 1 3 {weight}\n")
        code = cli_main(
            ["estimate", "--data", str(path), "--k", "2", "--out-dir", str(tmp_path)]
        )
        assert code == 2
        assert "ParseError" in capsys.readouterr().err
        assert not (tmp_path / "membership.csv").exists()

    def test_lanczos_no_convergence_exit_2(self, tmp_path, capsys, monkeypatch):
        def no_convergence(*args, **kwargs):
            raise scipy.sparse.linalg.ArpackNoConvergence("no luck", np.array([]), None)

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", no_convergence)
        path = tmp_path / "path.edges"
        n = DENSE_EIG_LIMIT + 52
        path.write_text("".join(f"1 {i} {i + 1}\n" for i in range(1, n)))
        code = cli_main(
            ["estimate", "--data", str(path), "--k", "2", "--out-dir", str(tmp_path)]
        )
        assert code == 2
        assert "UnusableDataError" in capsys.readouterr().err
        assert not (tmp_path / "membership.csv").exists()

    def test_lanczos_weighted_overflow_exit_2(self, tmp_path, capsys):
        # a ring of weight 1e200: every product with its square overflows
        path = tmp_path / "ring.edges"
        n = DENSE_EIG_LIMIT + 52
        path.write_text("".join(f"1 {i} {i % n + 1} 1e200\n" for i in range(1, n + 1)))
        # SPDSoS's shift, the row sums of the squared weights, overflows too
        for method in ("spsos", "spdsos"):
            code = cli_main(
                ["estimate", "--data", str(path), "--method", method, "--keep-weights",
                 "--k", "2", "--out-dir", str(tmp_path)]
            )
            assert code == 2, method
            assert "error: UnusableDataError: " in capsys.readouterr().err, method
            assert not (tmp_path / "membership.csv").exists(), method

    def test_estimate_out_dir_is_a_file_exit_2(self, tmp_path, capsys):
        path = tmp_path / "tiny.edges"
        path.write_text("1 1 2\n")
        code = cli_main(
            ["estimate", "--data", str(path), "--k", "1", "--out-dir", str(path)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: IoError: cannot create output directory {path}: ")
        assert path.read_text() == "1 1 2\n"

    def test_experiment_out_dir_is_a_file_exits_before_the_sweep(
        self, tmp_path, capsys, monkeypatch
    ):
        def no_sweep(cfg):
            raise AssertionError("the sweep ran before the output directory was made")

        monkeypatch.setattr(io_cli, "run_experiment", no_sweep)
        path = tmp_path / "taken"
        path.write_text("")
        code = cli_main(
            ["experiment", "--preset", "exp1-scaled", "--reps", "1", "--out-dir", str(path)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: IoError: cannot create output directory {path}: ")

    def test_missing_dataset_exit_2(self, tmp_path, capsys):
        code = cli_main(
            ["estimate", "--data", "lazega", "--data-dir", str(tmp_path),
             "--k", "3", "--out-dir", str(tmp_path)]
        )
        assert code == 2

    def test_experiment_preset_deterministic(self, tmp_path):
        for sub in ("a", "b"):
            code = cli_main(
                ["experiment", "--preset", "exp1-scaled", "--seed", "7",
                 "--reps", "1", "--out-dir", str(tmp_path / sub)]
            )
            assert code == 0
        csv_a = (tmp_path / "a" / "exp1-scaled_results.csv").read_bytes()
        csv_b = (tmp_path / "b" / "exp1-scaled_results.csv").read_bytes()
        assert csv_a == csv_b
        assert (tmp_path / "a" / "exp1-scaled_hamming.svg").exists()

    def test_experiment_config_file(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(
            "sweep=rho\nsweep_values=0.3,0.6\nn=40\nL=4\nn0=8\n"
            "repetitions=1\nbase_seed=5\nmethods=SPDSOS\n"
        )
        code = cli_main(
            ["experiment", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]
        )
        assert code == 0
        assert (tmp_path / "out" / "sweep_results.csv").exists()

    def test_experiment_config_unknown_key_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "typo.cfg"
        cfg.write_text("sweep=rho\nsweep_values=0.3\nn=40\nL=4\nn0=8\nreps=1\n")
        code = cli_main(
            ["experiment", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ConfigError: unknown config key 'reps'")
        assert "repetitions" in err
        assert not (tmp_path / "out").exists()

    def test_experiment_config_methods_with_spaces(self, tmp_path, capsys):
        cfg = tmp_path / "spaced.cfg"
        cfg.write_text(
            "sweep=rho\nsweep_values=0.3, 0.6\nn=40\nL=4\nn0=8\n"
            "repetitions=1\nbase_seed=5\nmethods=spsum, spdsos\n"
        )
        code = cli_main(
            ["experiment", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]
        )
        assert code == 0, capsys.readouterr().err
        rows = (tmp_path / "out" / "spaced_results.csv").read_text().splitlines()[1:]
        assert sorted({row.split(",")[0] for row in rows}) == ["SPDSOS", "SPSUM"]

    def test_select_k_on_planted_network(self, tmp_path, capsys):
        # two strong blocks: modularity peaks at K=2
        path = tmp_path / "planted.edges"
        write_two_blocks(path)
        code = cli_main(
            ["select-k", "--data", str(path), "--method", "spsum",
             "--range", "2..4", "--criterion", "fsum"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.strip().endswith(")")
        assert "(2," in out

    def test_classify_subcommand(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        pi = MembershipMatrix(rows=rng.dirichlet(np.ones(3), size=12))
        path = tmp_path / "pi.csv"
        write_membership_csv(pi, path)
        assert cli_main(["classify", "--pi", str(path)]) == 0
        out = capsys.readouterr().out
        assert "sigma_mixed=" in out and "upsilon=" in out

    def test_classify_zero_row_exit_2(self, tmp_path, capsys):
        path = tmp_path / "pi.csv"
        path.write_text("node,pi_1,pi_2\n1,0,0\n2,1,0\n")
        assert cli_main(["classify", "--pi", str(path)]) == 2
        captured = capsys.readouterr()
        assert "ParseError" in captured.err
        assert "nan" not in captured.out

    def test_python_dash_m_runs_quietly(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(mlmmsb.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        proc = subprocess.run(
            [sys.executable, "-m", "mlmmsb", "--help"],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert "simulate" in proc.stdout

    @pytest.mark.parametrize("n", [300, DENSE_EIG_LIMIT + 52], ids=["dense", "lanczos"])
    def test_keep_weights_spdsos_writes_binary_memberships(self, tmp_path, n):
        binary = tmp_path / "binary.edges"
        code = cli_main(
            ["simulate", "--n", str(n), "--n0", str(n // 6), "--layers", "2",
             "--rho", "0.1", "--seed", "5", "--out", str(binary)]
        )
        assert code == 0
        lines = binary.read_text().splitlines()

        def membership(path, *flags):
            out = tmp_path / path.stem
            code = cli_main(
                ["estimate", "--data", str(path), "--method", "spdsos", "--k", "3",
                 "--out-dir", str(out), *flags]
            )
            assert code == 0
            return (out / "membership.csv").read_bytes()

        want = membership(binary)
        # weight 1 loads as a binary stack, 2 and 1/8 as float64 stacks
        for weight in ("1", "2", "0.125"):
            path = tmp_path / f"weight-{weight}.edges"
            path.write_text("".join(f"{line} {weight}\n" for line in lines))
            assert membership(path, "--keep-weights") == want, weight

    @pytest.mark.parametrize("weight", ["1e-300", "1e300"])
    def test_select_k_weighted_modularity_is_scale_invariant(self, tmp_path, capsys, weight):
        # weight 1 scores K=1 at 0 and the two-edge split at 0.5
        path = tmp_path / "w.edges"
        path.write_text(f"1 1 2 {weight}\n1 3 4 {weight}\n")
        code = cli_main(
            ["select-k", "--data", str(path), "--method", "spsum", "--criterion", "fsum",
             "--keep-weights", "--range", "1..2"]
        )
        captured = capsys.readouterr()
        assert code == 0, captured.err
        assert captured.out == "K=1: 0.0000\nK=2: 0.5000\n(2, 0.5000)\n"
        assert captured.err == ""

    def test_spsos_weighted_square_overflow_exit_2(self, tmp_path, capsys):
        path = tmp_path / "w.edges"
        cycle = [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 1), (1, 4)]
        path.write_text("".join(f"1 {u} {v} 1e200\n" for u, v in cycle))
        # both squared methods form the same sum before SPDSoS zeroes its diagonal
        for method in ("spsos", "spdsos"):
            code = cli_main(
                ["estimate", "--data", str(path), "--method", method, "--k", "2",
                 "--keep-weights", "--out-dir", str(tmp_path)]
            )
            assert code == 2, method
            assert capsys.readouterr().err.startswith("error: UnusableDataError: "), method
            assert not (tmp_path / "membership.csv").exists(), method

    def test_select_k_overflowing_layer_sum_exit_2(self, tmp_path, capsys):
        path = tmp_path / "w.edges"
        path.write_text("1 1 2 1e308\n2 1 2 1e308\n1 3 4 1\n2 3 4 1\n")
        code = cli_main(
            ["select-k", "--data", str(path), "--method", "spsum", "--criterion", "fsum",
             "--keep-weights", "--range", "1..2"]
        )
        assert code == 2
        assert capsys.readouterr().err == (
            "error: UnusableDataError: the sum of layers overflows float64\n"
        )

    def test_experiment_seed_and_reps_override_config_file(self, tmp_path):
        body = "sweep=rho\nsweep_values=0.3,0.6\nn=40\nL=4\nn0=8\nmethods=SPSUM\n"
        (tmp_path / "given.cfg").write_text(body + "repetitions=2\nbase_seed=9\n")
        (tmp_path / "over.cfg").write_text(body + "repetitions=1\nbase_seed=5\n")
        for stem, flags in (("given", []), ("over", ["--seed", "9", "--reps", "2"])):
            code = cli_main(
                ["experiment", "--config", str(tmp_path / f"{stem}.cfg"),
                 "--out-dir", str(tmp_path)] + flags
            )
            assert code == 0
        results = [(tmp_path / f"{s}_results.csv").read_bytes() for s in ("given", "over")]
        assert results[0] == results[1]


class TestCliInputErrors:
    @pytest.mark.parametrize(
        "text, read",
        [
            ("1 1 2 0\n1 2 3 -1\n1 3 4 0\n", []),
            ("1 1 1\n1 2 2\n2 3 3\n", []),
            # a weighted read whose every cell is a dropped self-loop
            ("1 1 1 2.5\n1 2 2 1\n", ["--keep-weights"]),
        ],
        ids=["non-positive-sums", "self-loops-only", "weighted-self-loops-only"],
    )
    @pytest.mark.parametrize(
        "command",
        [["estimate", "--k", "2"], ["select-k", "--range", "1..2"]],
        ids=["estimate", "select-k"],
    )
    def test_network_without_edges_exit_2(self, tmp_path, capsys, text, read, command):
        path = tmp_path / "empty.edges"
        path.write_text(text)
        out_dir = tmp_path / "out"
        flags = ["--out-dir", str(out_dir)] if command[0] == "estimate" else []
        code = cli_main(command + ["--data", str(path)] + read + flags)
        assert code == 2
        assert capsys.readouterr().err == f"error: EmptyNetworkError: {path} has no edges\n"
        assert not (out_dir / "membership.csv").exists()

    @pytest.mark.parametrize("text", ["2..x", "x", "2..", "..3", "2.5"])
    def test_select_k_malformed_range_exit_2(self, tmp_path, capsys, text):
        path = tmp_path / "blocks.edges"
        write_two_blocks(path)
        code = cli_main(["select-k", "--data", str(path), "--range", text])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: ConfigError: --range must be K or LO..HI in integers, got {text!r}\n"
        )

    @pytest.mark.parametrize(
        "line, message",
        [
            ("repetitions=2.5", "config key 'repetitions': '2.5' is not a valid int"),
            ("sweep_values=0.1,abc", "config key 'sweep_values': 'abc' is not a valid int"),
            ("sweep_values=0.1,1e", "config key 'sweep_values': '1e' is not a valid float"),
            ("rho=", "config key 'rho': '' is not a valid float"),
            ("n=forty", "config key 'n': 'forty' is not a valid int"),
            # the config's own checks pass through unwrapped
            ("sweep_values=0.6,0.3", "sweep_values must be strictly increasing"),
        ],
    )
    def test_experiment_config_malformed_value_exit_2(self, tmp_path, capsys, line, message):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"sweep=rho\nsweep_values=0.3\nn=40\nL=4\nn0=8\n{line}\n")
        code = cli_main(
            ["experiment", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]
        )
        assert code == 2
        assert capsys.readouterr().err == f"error: ConfigError: {message}\n"
        assert not (tmp_path / "out").exists()


    @pytest.mark.parametrize(
        "body, message",
        [
            ("sweep=L\nsweep_values=4\nn0=8\nrho=nan", "rho must lie in [0, 1]"),
            ("sweep=L\nsweep_values=4\nn0=8\nK=0", "n and K must be at least 1, got n=40, K=0"),
            ("sweep=rho\nsweep_values=0.3,0.6\nn0=8\nL=0", "K and L must be at least 1"),
            ("sweep=rho\nsweep_values=0.5,1.5\nn0=8", "rho must lie in [0, 1]"),
            ("sweep=n0\nsweep_values=5,20", "K*n0 = 60 exceeds n = 40"),
            ("sweep=L\nsweep_values=4\nn0=-1", "n0 must be nonnegative, got -1"),
            ("sweep=n\nsweep_values=2,60", "need at least K nodes"),  # n0 = 2 // 4 = 0
            ("sweep=L\nsweep_values=4.2,4.7\nn0=8", "L sweep values must be integers, got 4.2"),
            ("sweep=n0\nsweep_values=5,7.5", "n0 sweep values must be integers, got 7.5"),
            (
                "sweep=n\nsweep_values=60,90\nn0=10",
                "config key 'n0' has no effect under sweep=n: each point takes n0 = n // 4",
            ),
            ("sweep=L\nsweep_values=4\nn0=8\nmethods=spsum, SPSUM", "method 'SPSUM' is listed twice"),
        ],
    )
    def test_experiment_config_bad_point_exit_2_before_out_dir(
        self, tmp_path, capsys, body, message
    ):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"n=40\nL=4\nrepetitions=1\n{body}\n")
        code = cli_main(
            ["experiment", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]
        )
        assert code == 2
        assert capsys.readouterr().err == f"error: ConfigError: {message}\n"
        assert not (tmp_path / "out").exists()


class TestCliPaths:
    def test_dataset_name_found_in_data_dir(self, tmp_path, capsys):
        # the PDF sorts first, so the name alone would pick it
        (tmp_path / "Lazega-Law-Firm_README.pdf").write_bytes(b"%PDF-1.4\n")
        write_two_blocks(tmp_path / "Lazega-Law-Firm_multiplex.edges")
        found = io_cli._resolve_dataset("lazega", str(tmp_path))
        assert found == str(tmp_path / "Lazega-Law-Firm_multiplex.edges")
        out_dir = tmp_path / "out"
        code = cli_main(
            ["estimate", "--data", "Lazega", "--data-dir", str(tmp_path), "--k", "2",
             "--out-dir", str(out_dir)]
        )
        assert code == 0, capsys.readouterr().err
        assert (out_dir / "membership.csv").exists()

    def test_cs_aarhus_matches_aucs(self, tmp_path):
        (tmp_path / "aucs_edgelist.txt").write_text("1 1 2\n")
        found = io_cli._resolve_dataset("cs-aarhus", str(tmp_path))
        assert found == str(tmp_path / "aucs_edgelist.txt")

    def test_select_k_single_k_range(self, tmp_path, capsys):
        path = tmp_path / "blocks.edges"
        write_two_blocks(path)
        code = cli_main(["select-k", "--data", str(path), "--range", "3"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("K=3: ")
        assert lines[1].startswith("(3, ")

    def test_config_comments_and_blank_lines_are_skipped(self, tmp_path):
        plain = tmp_path / "plain.cfg"
        plain.write_text("sweep=rho\nsweep_values=0.3,0.6\nrepetitions=2\n")
        noted = tmp_path / "noted.cfg"
        noted.write_text(
            "# a rho sweep\n\nsweep=rho\n   # indented comment\n"
            "sweep_values=0.3,0.6\n\nrepetitions=2\n"
        )
        cfg = io_cli._parse_config_file(str(noted))
        assert cfg == io_cli._parse_config_file(str(plain))
        assert cfg.sweep_values == (0.3, 0.6)

    def test_config_line_without_equals_reports_number(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("# comment\nsweep=rho\nsweep_values 0.3\n")
        with pytest.raises(ParseError) as info:
            io_cli._parse_config_file(str(cfg))
        assert info.value.line_number == 3
        code = cli_main(["experiment", "--config", str(cfg), "--out-dir", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err == "error: ParseError: line 3: expected key=value\n"

    @pytest.mark.parametrize("missing", ["sweep", "sweep_values"])
    def test_config_missing_required_key_exit_2(self, tmp_path, capsys, missing):
        cfg = tmp_path / "short.cfg"
        body = {"sweep": "rho", "sweep_values": "0.3"}
        del body[missing]
        cfg.write_text("".join(f"{k}={v}\n" for k, v in body.items()))
        code = cli_main(["experiment", "--config", str(cfg), "--out-dir", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: ConfigError: config file missing required key {missing!r}\n"
        )

    @pytest.mark.parametrize(
        "text, line_number, message",
        [
            ("", None, "is not a membership CSV"),
            ("node,weight\n1,1\n", None, "is not a membership CSV"),
            ("node,pi_1,pi_2\n1,1\n", 2, "line 2: too few columns"),
            ("node,pi_1,pi_2\n1,1,0\n2,x,1\n", 3, "line 3: non-numeric membership weight"),
        ],
    )
    def test_read_membership_csv_rejects_malformed_files(
        self, tmp_path, text, line_number, message
    ):
        path = tmp_path / "pi.csv"
        path.write_text(text)
        with pytest.raises(ParseError, match=message) as info:
            read_membership_csv(path)
        assert info.value.line_number == line_number

    def test_experiment_zero_threads_exit_2(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        code = cli_main(
            ["experiment", "--preset", "exp1-scaled", "--threads", "0",
             "--out-dir", str(out_dir)]
        )
        assert code == 2
        assert capsys.readouterr().err == "error: ConfigError: --threads must be at least 1\n"
        assert not out_dir.exists()
