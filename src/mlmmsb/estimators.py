"""End-to-end mixed membership estimators for multi-layer networks.

All three pipelines share the same skeleton: build an aggregate matrix,
take its top-K eigenvectors, hunt the simplex vertices with successive
projection, and reconstruct memberships from the corner matrix. They differ
only in the aggregate: the sum of adjacency matrices (SPSum), the debiased
sum of squares (SPDSoS), or the plain sum of squares (SPSoS).
"""

from __future__ import annotations

import warnings
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .aggregate import (
    AggregateMatrix,
    Embedding,
    _zero_diagonal,
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


def build_aggregates(
    net: MultiLayerNetwork, methods: Iterable[str]
) -> Iterator[AggregateMatrix]:
    """Yield the aggregate matrix of each method id in turn.

    When both run, SPDSoS and SPSoS share one square at any size, binary or
    weighted: SPSoS gets ``build_sos``'s sum of squares, and SPDSoS that sum
    with its diagonal zeroed, which is what ``build_ssum_debiased`` returns.
    A formed sum is zeroed in a copy; a matrix-free one lends its CSR layers
    to an operator with its own shift, so the layers are scanned once.
    Otherwise each method calls its own builder. Besides the aggregate last
    yielded, at most the sum of squares is kept.
    """
    keys = []
    for method in methods:
        if method.upper() not in METHODS:
            raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
        keys.append(method.upper())
    shared = {SPDSOS, SPSOS} <= set(keys)
    sos = None
    for key in keys:
        if key == SPSUM:
            yield build_asum(net)
        elif not shared:
            yield build_ssum_debiased(net) if key == SPDSOS else build_sos(net)
        else:
            if sos is None:
                sos = build_sos(net)
            if key == SPSOS:
                yield sos
            else:
                yield AggregateMatrix(matrix=_zero_diagonal(sos.matrix, net, copy=True))


def build_aggregate(net: MultiLayerNetwork, method: str) -> AggregateMatrix:
    """Build the aggregate matrix that the method id names."""
    return next(build_aggregates(net, (method,)))


def estimate(agg: AggregateMatrix, K: int, method: str) -> EstimationResult:
    """Top-K eigenvectors, successive projection and reconstruction on agg."""
    return estimate_from_embedding(top_k_eigen(agg, K), method)


def estimate_from_embedding(emb: Embedding, method: str) -> EstimationResult:
    """Successive projection and reconstruction on the top-K embedding of an
    aggregate built for the method id."""
    vertices = successive_projection(emb.vectors, emb.K)
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
    return estimate(AggregateMatrix(matrix=omega.asum()), K, SPSUM)


def spdsos_oracle(omega: ExpectationStack, K: int) -> EstimationResult:
    """SPDSoS fed the sum of squared expectation matrices (exact up to permutation)."""
    return estimate(AggregateMatrix(matrix=omega.sos()), K, SPDSOS)


def spsos_oracle(omega: ExpectationStack, K: int) -> EstimationResult:
    """SPSoS fed its population aggregate, squared expectations plus expected degrees.

    Unlike the other two oracles this one is biased: the diagonal degree term
    shifts the eigen-structure, so the recovered memberships carry a nonzero
    error floor even with no sampling noise.
    """
    agg = omega.sos()
    agg[np.diag_indices_from(agg)] += omega.asum().sum(axis=1)
    return estimate(AggregateMatrix(matrix=agg), K, SPSOS)
