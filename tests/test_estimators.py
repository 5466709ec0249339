import itertools

import numpy as np
import pytest

from mlmmsb import (
    MultiLayerNetwork,
    UnsupportedInputError,
    expected_adjacency,
    generate_connectivity,
    generate_membership,
    membership_errors,
    sample_mlmmsb,
    spdsos,
    spdsos_oracle,
    spsos,
    spsos_oracle,
    spsum,
    spsum_oracle,
)
from mlmmsb.aggregate import build_ssum_debiased
from mlmmsb.estimators import build_aggregate, estimate


def instance(n=80, n0=15, L=10, rho=0.5, seed=0):
    pi = generate_membership(n, 3, n0, seed)
    conn = generate_connectivity(3, L, seed + 1, rho=rho)
    return pi, conn


class TestOracles:
    def test_spsum_oracle_exact(self):
        pi, conn = instance(seed=10)
        result = spsum_oracle(expected_adjacency(pi, conn), 3)
        assert membership_errors(result.pi_hat, pi).hamming < 1e-8

    def test_spdsos_oracle_exact(self):
        pi, conn = instance(seed=11)
        result = spdsos_oracle(expected_adjacency(pi, conn), 3)
        assert membership_errors(result.pi_hat, pi).hamming < 1e-8

    def test_spsos_oracle_has_error_floor(self):
        # the degree diagonal biases the aggregate: recovery is NOT exact
        pi, conn = instance(seed=12)
        result = spsos_oracle(expected_adjacency(pi, conn), 3)
        assert membership_errors(result.pi_hat, pi).hamming > 1e-6


class TestContracts:
    def test_output_shape_and_row_sums(self):
        pi, conn = instance(seed=1)
        net = sample_mlmmsb(pi, conn, seed=2)
        for method in (spsum, spdsos, spsos):
            result = method(net, 3)
            assert result.pi_hat.rows.shape == (pi.n, 3)
            assert np.max(np.abs(result.pi_hat.rows.sum(axis=1) - 1)) <= 1e-12

    def test_method_recorded(self):
        pi, conn = instance(seed=3)
        net = sample_mlmmsb(pi, conn, seed=4)
        assert spsum(net, 3).method == "SPSUM"
        assert spdsos(net, 3).method == "SPDSOS"
        assert spsos(net, 3).method == "SPSOS"
        assert estimate(build_aggregate(net, "spsos"), 3, "spsos").method == "SPSOS"

    def test_deterministic_given_network(self):
        pi, conn = instance(seed=5)
        net = sample_mlmmsb(pi, conn, seed=6)
        a = spdsos(net, 3)
        b = spdsos(net, 3)
        assert np.array_equal(a.pi_hat.rows, b.pi_hat.rows)
        assert a.vertices.indices == b.vertices.indices

    def test_spdsos_aggregate_diag_zero(self):
        pi, conn = instance(seed=7)
        net = sample_mlmmsb(pi, conn, seed=8)
        assert np.all(np.diagonal(build_ssum_debiased(net).matrix) == 0)

    def test_spdsos_rejects_weighted(self):
        layers = 0.5 * np.ones((1, 4, 4))
        with pytest.raises(UnsupportedInputError):
            spdsos(MultiLayerNetwork(layers=layers), 2)

    def test_permutation_equivariance(self):
        pi, conn = instance(n=40, n0=8, seed=9)
        net = sample_mlmmsb(pi, conn, seed=10)
        rng = np.random.default_rng(11)
        perm = rng.permutation(net.n)
        permuted = MultiLayerNetwork(layers=net.layers[:, perm][:, :, perm])
        for method in (spsum, spdsos, spsos):
            base = method(net, 3).pi_hat.rows
            moved = method(permuted, 3).pi_hat.rows
            # rows permuted by sigma, columns possibly reordered
            report_rows = base[perm]
            best = min(
                np.max(np.abs(moved[:, p] - report_rows))
                for p in itertools.permutations(range(3))
            )
            assert best < 1e-8


class TestStatisticalBehavior:
    def test_spsum_pilot_threshold(self):
        # rho=0.9, n=300, n0=75, L=20; threshold frozen from pilot runs over
        # these exact seeds (random uniform connectivity often leaves the
        # second and third eigenvalues of sum(B_l) small, capping accuracy)
        errs = []
        for s in range(10):
            pi = generate_membership(300, 3, 75, 1000 + s)
            conn = generate_connectivity(3, 20, 2000 + s, rho=0.9)
            net = sample_mlmmsb(pi, conn, 3000 + s)
            errs.append(membership_errors(spsum(net, 3).pi_hat, pi).hamming)
        assert np.mean(errs) < 0.7

    def test_paired_seed_dominance(self):
        # mean(SPDSoS) <= mean(SPSoS) <= mean(SPSum), each with 1 SE slack
        errs = {"spsum": [], "spdsos": [], "spsos": []}
        for s in range(12):
            pi = generate_membership(200, 3, 50, 500 + s)
            conn = generate_connectivity(3, 30, 600 + s, rho=0.1)
            net = sample_mlmmsb(pi, conn, 700 + s)
            for name, method in (("spsum", spsum), ("spdsos", spdsos), ("spsos", spsos)):
                errs[name].append(membership_errors(method(net, 3).pi_hat, pi).hamming)
        means = {k: np.mean(v) for k, v in errs.items()}
        ses = {k: np.std(v, ddof=1) / np.sqrt(len(v)) for k, v in errs.items()}
        assert means["spdsos"] <= means["spsos"] + ses["spsos"]
        assert means["spsos"] <= means["spsum"] + ses["spsum"]
