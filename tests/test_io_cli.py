import csv
import os
import subprocess
import sys
import xml.etree.ElementTree as ET

import numpy as np
import pytest
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import mlmmsb
from mlmmsb import (
    ConfigError,
    EmptyNetworkError,
    ParseError,
    cli_main,
    read_multiplex_edges,
    render_line_chart,
    write_results_csv,
)
from mlmmsb.experiments import ExperimentConfig, run_experiment
from mlmmsb.io_cli import (
    MultiplexData,
    read_membership_csv,
    write_membership_csv,
    write_multiplex_edges,
)
from mlmmsb.aggregate import DENSE_EIG_LIMIT
from mlmmsb.model import MembershipMatrix, MultiLayerNetwork


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

    def test_round_trip_idempotent(self, tmp_path):
        path = tmp_path / "net.edges"
        path.write_text("1 1 2\n1 2 3\n2 1 3\n")
        data = read_multiplex_edges(path)
        back = tmp_path / "back.edges"
        write_multiplex_edges(data, back)
        again = read_multiplex_edges(back)
        assert np.array_equal(data.network.layers, again.network.layers)
        assert data.node_ids == again.node_ids


@st.composite
def writable_multiplex(draw):
    """Binary symmetric layers without self-loops that the edge-list format
    keeps as they are: every node has an edge and the last layer is not empty."""
    n = draw(st.integers(2, 8))
    L = draw(st.integers(1, 4))
    ids = sorted(draw(st.sets(st.integers(1, 10**6), min_size=n, max_size=n)))
    bits = draw(st.lists(st.booleans(), min_size=L * n * n, max_size=L * n * n))
    upper = np.triu(np.array(bits, dtype=float).reshape(L, n, n), k=1)
    layers = upper + upper.transpose(0, 2, 1)
    # the reader drops isolated nodes and trailing empty layers
    for i in np.flatnonzero(layers.sum(axis=(0, 2)) == 0):
        j = (i + 1) % n
        layers[-1, i, j] = layers[-1, j, i] = 1
    if not layers[-1].any():
        layers[-1, 0, 1] = layers[-1, 1, 0] = 1
    return MultiplexData(network=MultiLayerNetwork(layers=layers), node_ids=tuple(ids))


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

    def test_select_k_on_planted_network(self, tmp_path, capsys):
        # two strong blocks: modularity peaks at K=2
        edges = []
        n_half = 10
        for layer in (1, 2):
            for block in (0, 1):
                nodes = range(1 + block * n_half, 1 + (block + 1) * n_half)
                for i in nodes:
                    for j in nodes:
                        if i < j:
                            edges.append(f"{layer} {i} {j}")
        edges.append("1 1 11")  # single cross edge
        path = tmp_path / "planted.edges"
        path.write_text("\n".join(edges) + "\n")
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

    def test_keep_weights_refuses_spdsos(self, tmp_path, capsys):
        path = tmp_path / "w.edges"
        path.write_text("1 1 2 2.5\n1 2 3 1.0\n")
        code = cli_main(
            ["estimate", "--data", str(path), "--method", "spdsos", "--k", "2",
             "--keep-weights", "--out-dir", str(tmp_path)]
        )
        assert code == 2
        assert "binary" in capsys.readouterr().err
