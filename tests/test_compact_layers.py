"""Every reader of ``MultiLayerNetwork.layers`` against a float64 reference.

Binary layers are stored as ``uint8``, whose own arithmetic wraps past 255.
The network here has degrees and two-step path counts above 255, so a sum or
product taken in ``uint8`` anywhere gives another answer than the reference,
which computes each formula on a float64 copy of the same layers.
"""

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
from mlmmsb.estimators import build_aggregates
from mlmmsb.io_cli import MultiplexData, write_multiplex_edges

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


def test_squared_builders(net):
    layers = float_layers(net)
    sos = square_sum(layers)
    debiased = sos - np.diag(layers.sum(axis=(0, 2)))
    assert np.array_equal(build_sos(net).matrix, sos)
    assert np.array_equal(build_ssum_debiased(net).matrix, debiased)
    built = [agg.matrix for agg in build_aggregates(net, ("spdsos", "spsos", "spsum"))]
    assert np.array_equal(built[0], debiased)
    assert np.array_equal(built[1], sos)
    assert np.array_equal(built[2], layers.sum(axis=0))


def test_modularity(net):
    layers = float_layers(net)
    rows = np.random.default_rng(3).dirichlet(np.ones(3), N)
    pi_hat = MembershipMatrix(rows=rows)
    assert q_fsum(net, pi_hat) == modularity(layers.sum(axis=0), rows)
    assert q_fmean(net, pi_hat) == float(np.mean([modularity(a, rows) for a in layers]))


def test_diagnostics(net):
    pi = generate_membership(N, 3, 50, seed=1)
    omega = expected_adjacency(pi, generate_connectivity(3, len(DENSITIES), seed=2))
    dev = np.zeros((N, N))
    dev2 = np.zeros((N, N))
    for a, o in zip(float_layers(net), omega.layers):
        dev += a - o
        dev2 += a @ a - o @ o
    diag = compute_diagnostics(net, omega)
    assert diag.tau == float(np.abs(dev).max())
    assert diag.tau_tilde == float(np.abs(dev2).max())


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
