"""Every reader of ``MultiLayerNetwork.layers`` against a float64 reference.

Binary layers are stored as ``uint8``, whose own arithmetic wraps past 255.
The network here has degrees and two-step path counts above 255, so a sum or
product taken in ``uint8`` anywhere gives another answer than the reference,
which computes each formula on a float64 copy of the same layers.
"""

import itertools

import numpy as np
import pytest

from mlmmsb import (
    MembershipMatrix,
    MultiLayerNetwork,
    build_asum,
    build_sos,
    build_ssum_debiased,
    compute_diagnostics,
    expected_adjacency,
    generate_connectivity,
    generate_membership,
    q_fmean,
    q_fsum,
)
from mlmmsb import estimators
from mlmmsb.estimators import build_aggregates
from mlmmsb.io_cli import MultiplexData, write_multiplex_edges

from conftest import einsum_expectation

N = 300
DENSITIES = (0.95, 0.5, 0.03)


@pytest.fixture(params=[False, True], ids=["no-self-loops", "self-loops"])
def net(request):
    rng = np.random.default_rng(17)
    draws = rng.random((len(DENSITIES), N, N)) < np.array(DENSITIES)[:, None, None]
    upper = np.triu(draws, k=0 if request.param else 1)
    return MultiLayerNetwork(layers=upper | upper.transpose(0, 2, 1))


def float_layers(net):
    return net.layers.astype(np.float64)


def square_sum(layers):
    out = np.zeros(layers.shape[1:])
    for a in layers:
        out += a @ a
    return out


def modularity(a, rows):
    degrees = a.sum(axis=1)
    m = float(degrees.sum())
    gram = rows @ rows.T
    return (float(np.sum(a * gram)) - float(degrees @ gram @ degrees) / m) / m


def test_network_overflows_uint8(net):
    layers = float_layers(net)
    assert net.layers.dtype == np.uint8
    assert layers.sum(axis=2).max() > 255
    assert (layers[0] @ layers[0]).max() > 255


def test_asum(net):
    agg = build_asum(net).matrix
    assert agg.dtype == np.float64
    assert np.array_equal(agg, float_layers(net).sum(axis=0))


def test_sums_over_many_layers():
    # edge (0, 1) is in all 300 layers, edge (1, 2) in 100 of them
    layers = np.zeros((300, 3, 3), dtype=np.uint8)
    layers[:, 0, 1] = layers[:, 1, 0] = 1
    layers[:100, 1, 2] = layers[:100, 2, 1] = 1
    net = MultiLayerNetwork(layers=layers)
    asum = float_layers(net).sum(axis=0)
    assert asum.max() > 255
    assert np.array_equal(build_asum(net).matrix, asum)
    rows = np.array([[1.0, 0.0], [0.5, 0.5], [0.0, 1.0]])
    assert q_fsum(net, MembershipMatrix(rows=rows)) == modularity(asum, rows)


SQUARED_ORDERS = [
    *itertools.permutations(("spdsos", "spsos", "spsum")),
    ("spsos", "spdsos"),
]
BUILDERS = {"spdsos": build_ssum_debiased, "spsos": build_sos, "spsum": build_asum}


@pytest.mark.parametrize("order", SQUARED_ORDERS, ids="-".join)
def test_squared_builders(net, order):
    layers = float_layers(net)
    sos = square_sum(layers)
    debiased = sos - np.diag(layers.sum(axis=(0, 2)))
    assert np.array_equal(build_sos(net).matrix, sos)
    assert np.array_equal(build_ssum_debiased(net).matrix, debiased)
    want = {"spdsos": debiased, "spsos": sos, "spsum": layers.sum(axis=0)}
    built = [agg.matrix for agg in build_aggregates(net, order)]
    assert len(built) == len(order)
    for method, matrix in zip(order, built):
        assert np.array_equal(matrix, want[method]), method
        assert matrix.tobytes() == BUILDERS[method](net).matrix.tobytes(), method


def test_weighted_squares_are_shared(net, monkeypatch):
    weighted = MultiLayerNetwork(layers=net.layers * 1.5)
    sos = build_sos(weighted).matrix
    debiased = sos.copy()
    np.fill_diagonal(debiased, 0.0)
    assert build_ssum_debiased(weighted).matrix.tobytes() == debiased.tobytes()
    calls = []
    monkeypatch.setattr(estimators, "build_sos", lambda n: calls.append(n) or build_sos(n))
    built = [agg.matrix.tobytes() for agg in build_aggregates(weighted, ("spsos", "spdsos"))]
    assert built == [sos.tobytes(), debiased.tobytes()]
    assert calls == [weighted]


def test_modularity(net):
    layers = float_layers(net)
    rows = np.random.default_rng(3).dirichlet(np.ones(3), N)
    pi_hat = MembershipMatrix(rows=rows)
    # the package sums A Pi products, in another order than this Gram oracle
    want_sum = modularity(layers.sum(axis=0), rows)
    want_mean = float(np.mean([modularity(a, rows) for a in layers]))
    assert q_fsum(net, pi_hat) == pytest.approx(want_sum, rel=0, abs=1e-13)
    assert q_fmean(net, pi_hat) == pytest.approx(want_mean, rel=0, abs=1e-13)


def test_diagnostics(net):
    pi = generate_membership(N, 3, 50, seed=1)
    conn = generate_connectivity(3, len(DENSITIES), seed=2)
    dev = np.zeros((N, N))
    dev2 = np.zeros((N, N))
    for a, o in zip(float_layers(net), einsum_expectation(pi, conn)):
        dev += a - o
        dev2 += a @ a - o @ o
    diag = compute_diagnostics(net, expected_adjacency(pi, conn))
    assert diag.tau == pytest.approx(float(np.abs(dev).max()), rel=1e-12)
    assert diag.tau_tilde == pytest.approx(float(np.abs(dev2).max()), rel=1e-12)


def test_edge_list_writer(net, tmp_path):
    node_ids = tuple(range(1, N + 1))
    path = tmp_path / "net.edges"
    write_multiplex_edges(MultiplexData(network=net, node_ids=node_ids), path)
    want = []
    for l, a in enumerate(float_layers(net), start=1):
        rows, cols = np.nonzero(np.triu(a))
        want.extend(f"{l} {node_ids[i]} {node_ids[j]}" for i, j in zip(rows, cols))
    text = path.read_text()
    got = text.splitlines()
    # name the first differing line: a diff of the whole texts takes minutes
    first = next((k for k, pair in enumerate(zip(got, want)) if pair[0] != pair[1]), None)
    assert first is None, f"line {first + 1}: {got[first]!r} != {want[first]!r}"
    assert len(got) == len(want) and text.endswith("\n")
