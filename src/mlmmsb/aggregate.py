"""Aggregate matrices over layers and their leading eigen-structure."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse.linalg

from .errors import DimensionError, UnsupportedInputError
from .model import ExpectationStack, MultiLayerNetwork

SUM = "SUM"
DEBIASED_SOS = "DEBIASED_SOS"
SOS = "SOS"

DENSE_EIG_LIMIT = 2048


@dataclass(frozen=True)
class AggregateMatrix:
    """A symmetric n x n matrix aggregated across layers."""

    matrix: np.ndarray
    kind: str

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class Embedding:
    """Top-K eigenpairs of an aggregate matrix, ordered by decreasing |eigenvalue|."""

    vectors: np.ndarray  # n x K, orthonormal columns
    eigenvalues: np.ndarray  # K signed values
    warnings: tuple[str, ...] = field(default=())

    @property
    def n(self) -> int:
        return self.vectors.shape[0]

    @property
    def K(self) -> int:
        return self.vectors.shape[1]


def _square_sum(layers: np.ndarray) -> np.ndarray:
    out = np.zeros((layers.shape[1], layers.shape[1]))
    for a in layers:
        out += a @ a
    return out


def build_asum(net: MultiLayerNetwork | ExpectationStack) -> AggregateMatrix:
    """Entrywise sum of all layers."""
    return AggregateMatrix(matrix=net.layers.sum(axis=0), kind=SUM)


def build_ssum_debiased(net: MultiLayerNetwork) -> AggregateMatrix:
    """Sum over layers of A_l^2 - D_l, where D_l holds the layer-l degrees.

    For binary symmetric layers (A_l^2)(i,i) equals the degree of node i, so
    subtracting D_l zeroes the diagonal exactly and removes the degree-driven
    bias of the plain sum of squares.
    """
    if not net.binary:
        raise UnsupportedInputError(
            "debiased sum of squares requires binary layers"
        )
    # binary layers keep every sum an exact integer, so subtracting the summed
    # degrees once gives the same bits as subtracting them layer by layer
    out = _square_sum(net.layers)
    out[np.diag_indices_from(out)] -= net.layers.sum(axis=(0, 2))
    return AggregateMatrix(matrix=out, kind=DEBIASED_SOS)


def build_sos(net: MultiLayerNetwork | ExpectationStack) -> AggregateMatrix:
    """Plain sum of squared layers (no bias removal)."""
    return AggregateMatrix(matrix=_square_sum(net.layers), kind=SOS)


def _order_by_magnitude(values: np.ndarray) -> np.ndarray:
    # magnitude descending; ties by signed value descending, then column index
    return np.array(
        sorted(range(len(values)), key=lambda i: (-abs(values[i]), -values[i], i))
    )


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    out = vectors.copy()
    for k in range(out.shape[1]):
        j = int(np.argmax(np.abs(out[:, k])))  # argmax takes lowest index on ties
        if out[j, k] < 0:
            out[:, k] = -out[:, k]
    return out


def top_k_eigen(agg: AggregateMatrix, K: int) -> Embedding:
    """Eigenpairs with the K largest absolute eigenvalues.

    Uses a dense solver up to n=2048 and restarted Lanczos (magnitude mode)
    above. Eigenvectors carry a deterministic sign convention: the entry of
    largest absolute value in each column is positive.
    """
    n = agg.n
    if not (1 <= K <= n):
        raise DimensionError(f"K={K} out of range for n={n}")
    if n <= DENSE_EIG_LIMIT:
        values, vectors = np.linalg.eigh(agg.matrix)
    else:
        # a fixed start vector keeps ARPACK independent of earlier calls
        v0 = np.random.default_rng(0).uniform(-1.0, 1.0, n)
        values, vectors = scipy.sparse.linalg.eigsh(
            agg.matrix, k=min(K + 1, n - 1), which="LM", tol=1e-10, v0=v0
        )
    order = _order_by_magnitude(values)
    top_vals = values[order[:K]]
    top_vecs = vectors[:, order[:K]]
    notes: list[str] = []
    if len(values) > K:
        gap = abs(abs(values[order[K - 1]]) - abs(values[order[K]]))
        scale = max(abs(values[order[0]]), 1e-300)
        if gap <= 1e-10 * scale:
            notes.append(
                "eigenvalue magnitude tie across the K/K+1 boundary; "
                "embedding is not uniquely determined"
            )
    return Embedding(
        vectors=_fix_signs(top_vecs),
        eigenvalues=np.asarray(top_vals, dtype=float),
        warnings=tuple(notes),
    )
