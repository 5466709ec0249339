"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest -s tests/test_acceptance.py`` to see them)."""

import itertools
import os
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import spearmanr

from mlmmsb import (
    MembershipMatrix,
    MultiLayerNetwork,
    cli_main,
    classify_nodes,
    estimate_k,
    expected_adjacency,
    generate_connectivity,
    generate_membership,
    membership_errors,
    rate_slope_check,
    run_experiment,
    sample_mlmmsb,
    spdsos_oracle,
    spsum_oracle,
    successive_projection,
)
from mlmmsb.aggregate import build_sos, build_ssum_debiased
from mlmmsb.experiments import preset
from mlmmsb.io_cli import DATASET_PATTERNS, read_multiplex_edges

DATA_DIR = os.path.join(os.path.dirname(__file__), "..", "data")


def report(num, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num}: {status} {detail}".rstrip())
    assert ok, f"criterion {num} failed: {detail}"


def find_dataset(name):
    patterns = DATASET_PATTERNS[name]
    if not os.path.isdir(DATA_DIR):
        return None
    for entry in sorted(os.listdir(DATA_DIR)):
        lowered = entry.lower()
        if lowered.endswith((".edges", ".txt", ".csv")) and any(
            p in lowered for p in patterns
        ):
            return os.path.join(DATA_DIR, entry)
    return None


def test_criterion_1_oracle_exactness():
    rng = np.random.default_rng(1)
    t0 = time.perf_counter()
    worst = 0.0
    for trial in range(20):
        n = int(rng.integers(30, 101))
        n0 = int(rng.integers(3, n // 3 + 1))
        L = int(rng.integers(2, 12))
        rho = float(rng.uniform(0.2, 1.0))
        pi = generate_membership(n, 3, n0, seed=100 + trial)
        conn = generate_connectivity(3, L, seed=200 + trial, rho=rho)
        omega = expected_adjacency(pi, conn)
        for method in (spsum_oracle, spdsos_oracle):
            err = membership_errors(method(omega, 3).pi_hat, pi).hamming
            worst = max(worst, err)
    elapsed = time.perf_counter() - t0
    report(1, worst < 1e-8 and elapsed < 10,
           f"(worst hamming {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_2_debias_identity():
    rng = np.random.default_rng(2)
    t0 = time.perf_counter()
    ok = True
    for _ in range(50):
        n = int(rng.integers(5, 25))
        L = int(rng.integers(1, 6))
        layers = []
        for _ in range(L):
            a = np.triu((rng.random((n, n)) < rng.uniform(0.1, 0.7)).astype(float), 1)
            layers.append(a + a.T)
        net = MultiLayerNetwork(layers=np.array(layers))
        debiased = build_ssum_debiased(net).matrix
        sos = build_sos(net).matrix
        degrees = np.diag(sum(a.sum(axis=1) for a in layers))
        ok &= bool(np.all(np.diagonal(debiased) == 0))
        ok &= bool(np.array_equal(sos - debiased, degrees))
    elapsed = time.perf_counter() - t0
    report(2, ok and elapsed < 5, f"({elapsed:.1f}s)")


def test_criterion_3_sp_separable_recovery():
    rng = np.random.default_rng(3)
    t0 = time.perf_counter()
    ok = True
    for _ in range(100):
        K = int(rng.integers(2, 5))
        n = int(rng.integers(K + 2, 40))
        pure = rng.choice(n, size=K, replace=False)
        w = rng.dirichlet(np.ones(K), size=n)
        w[pure] = np.eye(K)
        h = rng.standard_normal((K, K)) + 2 * np.eye(K)
        while abs(np.linalg.det(h)) < 1e-6:
            h = rng.standard_normal((K, K)) + 2 * np.eye(K)
        result = successive_projection(w @ h, K)
        ok &= set(result.indices) == set(pure)
    elapsed = time.perf_counter() - t0
    report(3, ok and elapsed < 5, f"({elapsed:.1f}s)")


def exhaustive_minimizer(h, t):
    # independent implementation using explicit permutation matrices
    K = t.shape[1]
    best = np.inf
    for perm in itertools.permutations(range(K)):
        p_matrix = np.zeros((K, K))
        for src, dst in enumerate(perm):
            p_matrix[dst, src] = 1.0
        best = min(best, np.abs(h - t @ p_matrix).sum() / t.shape[0])
    return best


def test_criterion_4_permutation_search_oracle():
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(100):
        K = int(rng.integers(2, 5))
        n = int(rng.integers(3, 30))
        t = rng.dirichlet(np.ones(K), size=n)
        h = rng.dirichlet(np.ones(K), size=n)
        got = membership_errors(
            MembershipMatrix(rows=h), MembershipMatrix(rows=t)
        ).hamming
        expected = exhaustive_minimizer(h, t)
        worst = max(worst, abs(got - expected))
    report(4, worst < 1e-12, f"(max deviation {worst:.2e})")


def test_criterion_5_modularity_ground_truths():
    from mlmmsb import q_fmean, q_fsum

    a = np.zeros((6, 6))
    for i, j in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]:
        a[i, j] = a[j, i] = 1
    net = MultiLayerNetwork(layers=a[None, :, :])
    rows = np.zeros((6, 2))
    rows[:3, 0] = 1
    rows[3:, 1] = 1
    partition = MembershipMatrix(rows=rows)
    uniform = MembershipMatrix(rows=np.full((6, 3), 1 / 3))
    single = MembershipMatrix(rows=np.ones((6, 1)))
    ok = (
        abs(q_fsum(net, partition) - 0.5) <= 1e-12
        and abs(q_fmean(net, partition) - 0.5) <= 1e-12
        and q_fsum(net, uniform) == 0
        and q_fsum(net, single) == 0
    )
    report(5, ok)


@pytest.fixture(scope="module")
def exp1_scaled_result():
    return run_experiment(preset("exp1-scaled", base_seed=2026))


def test_criterion_6_scaled_experiment_1(exp1_scaled_result):
    t0 = time.perf_counter()
    res = exp1_scaled_result
    values = res.config.sweep_values
    ok = True
    detail = []
    for method in ("SPDSOS", "SPSOS"):
        means = [res.mean(method, v) for v in values]
        corr = spearmanr(values, means).statistic
        detail.append(f"{method} spearman {corr:.2f}")
        ok &= corr <= -0.8
        ok &= all(a > b for a, b in zip(means, means[1:]))  # strictly decreasing
    for v in values:
        ok &= res.mean("SPDSOS", v) <= res.mean("SPSOS", v) + res.se("SPSOS", v)
        ok &= res.mean("SPSOS", v) <= res.mean("SPSUM", v) + 2 * res.se("SPSUM", v)
    elapsed = time.perf_counter() - t0
    report(6, ok and elapsed < 300, f"({'; '.join(detail)})")


def test_criterion_7_rate_check_layers():
    t0 = time.perf_counter()
    cfg = replace(preset("exp2-scaled", base_seed=2026), methods=("SPDSOS",))
    result = run_experiment(cfg)
    slope = rate_slope_check(result, "L", "SPDSOS")
    elapsed = time.perf_counter() - t0
    report(7, -0.8 <= slope <= -0.2 and elapsed < 300,
           f"(slope {slope:.3f}, {elapsed:.1f}s)")


def test_criterion_8_csv_determinism(tmp_path):
    outputs = []
    for sub, threads in (("a", "1"), ("b", "4")):
        code = cli_main(
            ["experiment", "--preset", "exp1-scaled", "--seed", "7",
             "--reps", "2", "--threads", threads,
             "--out-dir", str(tmp_path / sub)]
        )
        assert code == 0
        outputs.append((tmp_path / sub / "exp1-scaled_results.csv").read_bytes())
    report(8, outputs[0] == outputs[1])


def test_criterion_9_lazega_reproduction():
    path = find_dataset("lazega")
    if path is None:
        print("\nACCEPTANCE 9: SKIPPED (Lazega Law Firm dataset not present)")
        pytest.skip("Lazega Law Firm dataset not present under data/")
    data = read_multiplex_edges(path)
    assert data.network.n == 71 and data.network.L == 3
    selection = estimate_k(data.network, "spsum", range(2, 7), "FSUM")
    ok = selection.best_k == 3 and abs(selection.best_score - 0.2025) <= 0.01
    from mlmmsb.estimators import spsum

    cls = classify_nodes(spsum(data.network, 3).pi_hat)
    ok &= abs(cls.sigma_mixed - 0.1408) <= 0.02
    ok &= abs(cls.sigma_pure - 0.4930) <= 0.02
    ok &= abs(cls.upsilon - 0.7276) <= 0.02
    report(9, ok,
           f"(K={selection.best_k}, Q={selection.best_score:.4f}, "
           f"mixed={cls.sigma_mixed:.4f}, pure={cls.sigma_pure:.4f}, "
           f"upsilon={cls.upsilon:.4f})")


# The narrowest point of exp4-scaled is n0 = 20. There, over base seeds 0-10
# and 2026, SPSum's mean Hamming error (0.768-0.789) exceeded SPDSoS's by
# 0.053-0.132 and SPSoS's by 0.048-0.153; every other point had gaps above
# 0.3. The margin is half the smallest gap.
RANKING_MARGIN = 0.024


def test_squared_methods_beat_spsum_on_exp4_scaled():
    result = run_experiment(preset("exp4-scaled", base_seed=2026))
    for v in result.config.sweep_values:
        spsum_error = result.mean("SPSUM", v)
        for method in ("SPDSOS", "SPSOS"):
            gap = spsum_error - result.mean(method, v)
            assert gap >= RANKING_MARGIN, f"n0={v}: SPSUM - {method} = {gap:.3f}"
