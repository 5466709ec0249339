import tracemalloc

import numpy as np
import pytest

from mlmmsb import (
    ConfigError,
    ExperimentConfig,
    UnusableDataError,
    compute_diagnostics,
    expected_adjacency,
    generate_connectivity,
    generate_membership,
    preset,
    rate_slope_check,
    run_experiment,
    sample_mlmmsb,
)
from mlmmsb import MultiLayerNetwork, build_sos, build_ssum_debiased, estimators, experiments
from mlmmsb.errors import DimensionError
from mlmmsb.experiments import ExperimentResult, MethodCell

from conftest import einsum_expectation, population_sums


def tiny_config(**overrides):
    defaults = dict(
        sweep="rho",
        sweep_values=(0.2, 0.5),
        n=60,
        L=5,
        n0=12,
        repetitions=2,
        base_seed=0,
        methods=("SPDSOS",),
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


class TestConfig:
    def test_rejects_empty_sweep(self):
        with pytest.raises(ConfigError):
            tiny_config(sweep_values=())

    def test_rejects_non_increasing_sweep(self):
        with pytest.raises(ConfigError):
            tiny_config(sweep_values=(0.5, 0.2))

    def test_rejects_zero_repetitions(self):
        with pytest.raises(ConfigError):
            tiny_config(repetitions=0)

    def test_rejects_unknown_method(self):
        with pytest.raises(ConfigError):
            tiny_config(methods=("kmeans",))

    def test_rejects_empty_methods(self):
        with pytest.raises(ConfigError, match="methods must be nonempty"):
            tiny_config(methods=())

    @pytest.mark.parametrize(
        "methods", [("spsum", "SPSUM"), ("SPDSOS", "spsos", "spsum", "spsos")]
    )
    def test_rejects_repeated_method(self, methods):
        # each row of the results would be written twice
        repeated = methods[-1].upper()
        with pytest.raises(ConfigError, match=f"method '{repeated}' is listed twice"):
            tiny_config(methods=methods)

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(sweep="L", sweep_values=(4,), rho=float("nan")),
            dict(K=0),
            dict(n=0),
            dict(L=0),
            dict(n0=-1),
            dict(n0=21),  # K * n0 = 63 > n = 60
            dict(sweep="rho", sweep_values=(0.5, 1.5)),
            dict(sweep="L", sweep_values=(0, 4)),
            dict(sweep="n", sweep_values=(40, 60), K=5),  # n0 = n // 4 at each point
            dict(sweep="L", sweep_values=(4.2, 4.7)),  # L, n and n0 take whole numbers
            dict(sweep="n", sweep_values=(float("inf"),)),
            dict(sweep="n0", sweep_values=(float("nan"),)),
        ],
    )
    def test_rejects_every_bad_point(self, overrides):
        with pytest.raises(ConfigError):
            tiny_config(**overrides)

    def test_accepts_integral_floats_on_integer_axis(self):
        cfg = tiny_config(sweep="L", sweep_values=(4, 8.0, 1e1))
        assert [cfg.point(v)[1] for v in cfg.sweep_values] == [4, 8, 10]

    def test_rejects_fewer_nodes_than_communities(self):
        # n0 = 0 passes the membership sizes; sampling would need n >= K
        with pytest.raises(ConfigError, match="need at least K nodes"):
            ExperimentConfig(sweep="L", sweep_values=(4,), n=2, K=3, n0=0, repetitions=1)

    def test_point_resolution(self):
        cfg = tiny_config(sweep="n", sweep_values=(100, 200))
        n, L, rho, n0 = cfg.point(200)
        assert (n, n0) == (200, 50)  # pure nodes scale as n/4 on the n sweep

    def test_presets_exist(self):
        for name in ("exp1", "exp2", "exp3", "exp4",
                     "exp1-scaled", "exp2-scaled", "exp3-scaled", "exp4-scaled"):
            cfg = preset(name)
            assert cfg.sweep_values
        with pytest.raises(ConfigError):
            preset("exp9")


class TestRunExperiment:
    def test_minimal_run_shapes(self):
        cfg = tiny_config(sweep_values=(0.5,), repetitions=1)
        result = run_experiment(cfg)
        cell = result.cells[("SPDSOS", 0.5)]
        assert cell.hamming.size == 1
        assert cell.relative.size == 1
        assert len(cell.seeds) == 1

    def test_deterministic_rerun(self):
        cfg = tiny_config()
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        for key in a.cells:
            assert np.array_equal(a.cells[key].hamming, b.cells[key].hamming)
            assert np.array_equal(a.cells[key].relative, b.cells[key].relative)

    def test_means_average_raw_values(self):
        cfg = tiny_config(repetitions=3)
        result = run_experiment(cfg)
        for key, cell in result.cells.items():
            mean, _ = cell.mean_se("hamming")
            assert mean == pytest.approx(cell.hamming.mean(), abs=1e-12)

    def test_each_network_squared_once(self, monkeypatch):
        sample, square, run = (
            experiments.sample_mlmmsb, estimators.build_sos, experiments.estimate
        )
        nets, sos_calls, debiased_calls = [], [], []
        aggregates = {"SPDSOS": [], "SPSOS": []}

        def sampling(*args, **kwargs):
            nets.append(sample(*args, **kwargs))
            return nets[-1]

        def squaring(net):
            sos_calls.append(net)
            return square(net)

        def estimating(agg, K, method):
            if method in aggregates:
                aggregates[method].append(agg)
            return run(agg, K, method)

        monkeypatch.setattr(experiments, "sample_mlmmsb", sampling)
        monkeypatch.setattr(estimators, "build_sos", squaring)
        monkeypatch.setattr(
            estimators, "build_ssum_debiased", lambda net: debiased_calls.append(net)
        )
        monkeypatch.setattr(experiments, "estimate", estimating)
        run_experiment(tiny_config(methods=("SPSUM", "SPDSOS", "SPSOS")))
        monkeypatch.undo()
        assert len(nets) == 4
        assert [id(net) for net in sos_calls] == [id(net) for net in nets]
        assert debiased_calls == []
        for net, debiased, sos in zip(
            nets, aggregates["SPDSOS"], aggregates["SPSOS"], strict=True
        ):
            assert np.array_equal(debiased.matrix, build_ssum_debiased(net).matrix)
            assert np.array_equal(sos.matrix, build_sos(net).matrix)

    def test_error_decreases_with_density(self):
        cfg = tiny_config(
            sweep_values=(0.05, 0.4), n=150, L=20, n0=35, repetitions=3
        )
        result = run_experiment(cfg)
        assert result.mean("SPDSOS", 0.4) < result.mean("SPDSOS", 0.05)


class TestDiagnostics:
    def test_oracle_network_has_zero_tau(self):
        # feed the reference Omega stack as the "network": both deviations
        # vanish, up to the round-off between the stack and the factors
        pi = generate_membership(20, 3, 4, seed=0)
        conn = generate_connectivity(3, 3, seed=1, rho=0.5)
        omega = expected_adjacency(pi, conn)
        fake_net = MultiLayerNetwork(layers=einsum_expectation(pi, conn))
        diag = compute_diagnostics(fake_net, omega)
        want_sum, want_sos = population_sums(pi, conn)
        assert diag.tau <= 1e-12 * np.abs(want_sum).max()
        assert diag.tau_tilde <= 1e-12 * np.abs(want_sos).max()
        assert diag.assumption1_holds and diag.assumption3_holds

    def test_matches_brute_force_enumeration(self):
        pi = generate_membership(15, 3, 3, seed=3)
        conn = generate_connectivity(3, 4, seed=4, rho=0.6)
        omega = einsum_expectation(pi, conn)
        net = sample_mlmmsb(pi, conn, seed=5)
        diag = compute_diagnostics(net, expected_adjacency(pi, conn))
        n, L = 15, 4
        tau = 0.0
        tau_tilde = 0.0
        for i in range(n):
            for j in range(n):
                d1 = sum(net.layers[l, i, j] - omega[l, i, j] for l in range(L))
                d2 = sum(
                    net.layers[l, i, m] * net.layers[l, m, j]
                    - omega[l, i, m] * omega[l, m, j]
                    for l in range(L)
                    for m in range(n)
                )
                tau = max(tau, abs(d1))
                tau_tilde = max(tau_tilde, abs(d2))
        assert diag.tau == pytest.approx(tau, abs=1e-9)
        assert diag.tau_tilde == pytest.approx(tau_tilde, abs=1e-9)

    def test_tau_tilde_equals_float64_reference(self):
        pi = generate_membership(200, 3, 40, seed=9)
        conn = generate_connectivity(3, 10, seed=10, rho=0.3)
        omega = expected_adjacency(pi, conn)
        binary = sample_mlmmsb(pi, conn, seed=11)
        weights = np.random.default_rng(12).choice([0.1, 1 / 3, 2.5], binary.layers.shape)
        upper = np.triu(binary.layers * weights)
        weighted = MultiLayerNetwork(layers=upper + np.triu(upper, k=1).transpose(0, 2, 1))
        assert binary.binary and not weighted.binary
        for net in (binary, weighted):
            dev2 = np.zeros((200, 200))
            for a, o in zip(net.layers.astype(np.float64), einsum_expectation(pi, conn)):
                dev2 += a @ a - o @ o
            want = float(np.abs(dev2).max())
            assert compute_diagnostics(net, omega).tau_tilde == pytest.approx(want, rel=1e-12)

    def test_memory_stays_per_layer(self):
        pi = generate_membership(200, 3, 40, seed=6)
        conn = generate_connectivity(3, 40, seed=7, rho=0.3)
        omega = expected_adjacency(pi, conn)
        net = sample_mlmmsb(pi, conn, seed=8)
        tracemalloc.start()
        try:
            compute_diagnostics(net, omega)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # no temporary the size of the (L, n, n) stack
        assert peak < 8 * conn.L * pi.n**2 / 4

    def test_dimension_mismatch(self):
        pi = generate_membership(10, 3, 2, seed=0)
        conn = generate_connectivity(3, 2, seed=1, rho=0.5)
        omega = expected_adjacency(pi, conn)
        net = sample_mlmmsb(generate_membership(12, 3, 2, seed=2), conn, seed=3)
        with pytest.raises(DimensionError):
            compute_diagnostics(net, omega)


def synthetic_result(sweep, values, means, method="SPDSOS"):
    cfg = ExperimentConfig(
        sweep=sweep, sweep_values=tuple(values), repetitions=1, methods=(method,)
    )
    cells = {
        (method, v): MethodCell(
            hamming=np.array([m]), relative=np.array([m]), seeds=(0,)
        )
        for v, m in zip(values, means)
    }
    return ExperimentResult(config=cfg, cells=cells)


class TestRateSlope:
    def test_planted_power_law(self):
        values = [8, 16, 32, 64]
        means = [3.0 * v**-0.5 for v in values]
        result = synthetic_result("L", values, means)
        assert rate_slope_check(result, "L", "SPDSOS") == pytest.approx(-0.5, abs=1e-9)

    def test_constant_curve(self):
        result = synthetic_result("L", [8, 16, 32, 64], [0.3] * 4)
        assert rate_slope_check(result, "L", "SPDSOS") == pytest.approx(0, abs=1e-12)

    def test_rejects_nonpositive_means(self):
        result = synthetic_result("L", [8, 16, 32, 64], [0.3, 0.2, 0.0, 0.1])
        with pytest.raises(UnusableDataError):
            rate_slope_check(result, "L", "SPDSOS")

    def test_rejects_nonpositive_axis_values(self):
        # an n0 sweep may start at 0, which has no logarithm
        result = synthetic_result("n0", [0, 5, 10, 15], [0.4, 0.3, 0.2, 0.1])
        with pytest.raises(UnusableDataError, match="sweep values must be positive"):
            rate_slope_check(result, "n0", "SPDSOS")

    def test_needs_four_points(self):
        result = synthetic_result("L", [8, 16, 32], [0.3, 0.2, 0.1])
        with pytest.raises(ConfigError):
            rate_slope_check(result, "L", "SPDSOS")
