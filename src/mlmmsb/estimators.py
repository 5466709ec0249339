"""End-to-end mixed membership estimators for multi-layer networks.

All three pipelines share the same skeleton: build an aggregate matrix,
take its top-K eigenvectors, hunt the simplex vertices with successive
projection, and reconstruct memberships from the corner matrix. They differ
only in the aggregate: the sum of adjacency matrices (SPSum), the debiased
sum of squares (SPDSoS), or the plain sum of squares (SPSoS).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .aggregate import (
    AggregateMatrix,
    build_asum,
    build_sos,
    build_ssum_debiased,
    top_k_eigen,
)
from .errors import ZeroRowFallbackWarning
from .model import ExpectationStack, MembershipMatrix, MultiLayerNetwork
from .simplex import VertexSet, estimate_memberships, successive_projection

SPSUM = "SPSUM"
SPDSOS = "SPDSOS"
SPSOS = "SPSOS"

METHODS = (SPSUM, SPDSOS, SPSOS)


@dataclass(frozen=True)
class EstimationResult:
    pi_hat: MembershipMatrix
    vertices: VertexSet
    eigenvalues: np.ndarray
    method: str
    diagnostics: tuple[str, ...] = ()


def build_aggregate(net: MultiLayerNetwork, method: str) -> AggregateMatrix:
    """Build the aggregate matrix that the method id names."""
    # built on each call from the module globals, so a wrapper bound to one
    # of these names (a profiler's, a test's) sees every build
    builders = {SPSUM: build_asum, SPDSOS: build_ssum_debiased, SPSOS: build_sos}
    key = method.upper()
    if key not in builders:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    return builders[key](net)


def estimate(agg: AggregateMatrix, K: int, method: str) -> EstimationResult:
    """Top-K eigenvectors, successive projection and reconstruction on agg."""
    emb = top_k_eigen(agg, K)
    vertices = successive_projection(emb.vectors, K)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ZeroRowFallbackWarning)
        pi_hat = estimate_memberships(emb, vertices)
    notes = list(emb.warnings)
    notes.extend(str(w.message) for w in caught)
    return EstimationResult(
        pi_hat=pi_hat,
        vertices=vertices,
        eigenvalues=emb.eigenvalues,
        method=method.upper(),
        diagnostics=tuple(notes),
    )


def spsum(net: MultiLayerNetwork, K: int) -> EstimationResult:
    """Successive projection on the sum of adjacency matrices."""
    return estimate(build_asum(net), K, SPSUM)


def spdsos(net: MultiLayerNetwork, K: int) -> EstimationResult:
    """Successive projection on the debiased sum of squared adjacency matrices."""
    return estimate(build_ssum_debiased(net), K, SPDSOS)


def spsos(net: MultiLayerNetwork, K: int) -> EstimationResult:
    """Successive projection on the plain sum of squared adjacency matrices."""
    return estimate(build_sos(net), K, SPSOS)


# Oracle variants: run the same pipelines on population quantities instead of
# sampled networks, separating algorithmic error from statistical error.


def spsum_oracle(omega: ExpectationStack, K: int) -> EstimationResult:
    """SPSum fed the sum of expectation matrices (exact up to permutation)."""
    return estimate(build_asum(omega), K, SPSUM)


def spdsos_oracle(omega: ExpectationStack, K: int) -> EstimationResult:
    """SPDSoS fed the sum of squared expectation matrices (exact up to permutation)."""
    return estimate(build_sos(omega), K, SPDSOS)


def spsos_oracle(omega: ExpectationStack, K: int) -> EstimationResult:
    """SPSoS fed its population aggregate, squared expectations plus expected degrees.

    Unlike the other two oracles this one is biased: the diagonal degree term
    shifts the eigen-structure, so the recovered memberships carry a nonzero
    error floor even with no sampling noise.
    """
    agg = build_sos(omega).matrix.copy()
    for layer in omega.layers:
        agg[np.diag_indices_from(agg)] += layer.sum(axis=1)
    return estimate(AggregateMatrix(matrix=agg), K, SPSOS)
