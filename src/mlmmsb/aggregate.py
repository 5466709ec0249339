"""Aggregate matrices over layers and their leading eigen-structure."""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse.linalg

from .errors import DimensionError, UnsupportedInputError, UnusableDataError
from .model import ExpectationStack, MultiLayerNetwork

DENSE_EIG_LIMIT = 2048


@dataclass(frozen=True)
class AggregateMatrix:
    """A symmetric n x n matrix aggregated across layers."""

    matrix: np.ndarray

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

    def leading(self, K: int) -> Embedding:
        """The embedding of the first K pairs, with the tie note at K.

        On the dense path this is bit for bit ``top_k_eigen(agg, K)`` of the
        aggregate that gave this embedding: one decomposition orders every
        pair, and the sign of each column depends on that column alone.
        """
        if not (1 <= K <= self.K):
            raise DimensionError(f"K={K} out of range for an embedding of {self.K} pairs")
        if K == self.K:
            return self
        return Embedding(
            vectors=np.ascontiguousarray(self.vectors[:, :K]),
            eigenvalues=self.eigenvalues[:K].copy(),
            warnings=_tie_notes(self.eigenvalues, K),
        )


def layer_squares(net: MultiLayerNetwork | ExpectationStack) -> Iterator[np.ndarray]:
    """Yield A_l @ A_l for each layer in turn, in one buffer reused across layers.

    Read each square before asking for the next. Each layer is cast into a
    float buffer first, since a ``uint8`` product would wrap past 255. Binary
    layers are squared in float32: every entry of their square is an integer
    no larger than n, and below 2**24 nodes float32 holds every partial sum
    exactly, so the values are those of the float64 product. Weighted layers
    and expectation stacks are squared in float64.
    """
    n = net.n
    exact_in_float32 = net.layers.dtype == np.uint8 and n < 2**24
    dtype = np.float32 if exact_in_float32 else np.float64
    cast = np.empty((n, n), dtype)
    product = np.empty((n, n), dtype)
    for a in net.layers:
        np.copyto(cast, a)
        np.matmul(cast, cast, out=product)
        yield product


def _square_sum(net: MultiLayerNetwork | ExpectationStack) -> np.ndarray:
    out = np.zeros((net.n, net.n))
    for square in layer_squares(net):
        out += square
    return out


def build_asum(net: MultiLayerNetwork | ExpectationStack) -> AggregateMatrix:
    """Entrywise sum of all layers."""
    return AggregateMatrix(matrix=net.layers.sum(axis=0, dtype=float))


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
    out = _square_sum(net)
    out[np.diag_indices_from(out)] -= net.layers.sum(axis=(0, 2), dtype=float)
    return AggregateMatrix(matrix=out)


def build_sos(net: MultiLayerNetwork | ExpectationStack) -> AggregateMatrix:
    """Plain sum of squared layers (no bias removal)."""
    return AggregateMatrix(matrix=_square_sum(net))


def _order_by_magnitude(values: np.ndarray) -> np.ndarray:
    # magnitude descending; ties by signed value descending, then column index
    # (lexsort is stable and sorts by its last key first)
    return np.lexsort((-values, -np.abs(values)))


def _tie_notes(ordered: np.ndarray, K: int) -> tuple[str, ...]:
    """The K/K+1 tie note for eigenvalues ordered by decreasing magnitude."""
    if len(ordered) <= K:
        return ()
    gap = abs(abs(ordered[K - 1]) - abs(ordered[K]))
    scale = max(abs(ordered[0]), 1e-300)
    if gap > 1e-10 * scale:
        return ()
    return (
        "eigenvalue magnitude tie across the K/K+1 boundary; "
        "embedding is not uniquely determined",
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
    above; a Lanczos run that does not converge raises UnusableDataError.
    Eigenvectors carry a deterministic sign convention: the entry of
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
        try:
            values, vectors = scipy.sparse.linalg.eigsh(
                agg.matrix, k=min(K + 1, n - 1), which="LM", tol=1e-10, v0=v0
            )
        except scipy.sparse.linalg.ArpackNoConvergence as exc:
            raise UnusableDataError(
                f"Lanczos did not converge to the top {K} eigenpairs: {exc}"
            ) from exc
    order = _order_by_magnitude(values)
    return Embedding(
        vectors=_fix_signs(vectors[:, order[:K]]),
        eigenvalues=np.asarray(values[order[:K]], dtype=float),
        warnings=_tie_notes(values[order[: K + 1]], K),
    )


def embedding_source(agg: AggregateMatrix, k_max: int) -> Callable[[int], Embedding]:
    """A function giving ``top_k_eigen(agg, K)`` for each K in 1..k_max.

    On the dense path it slices one ``top_k_eigen(agg, k_max)``, which keeps
    k_max columns; if that decomposition raises, the function raises the
    same error at every K. On the Lanczos path it calls ``top_k_eigen`` at
    each K, because ARPACK run for k_max+1 pairs converges to other floats
    than a run for K+1.
    """
    if agg.n > DENSE_EIG_LIMIT:
        return lambda K: top_k_eigen(agg, K)
    try:
        shared = top_k_eigen(agg, k_max)
    except Exception as exc:  # noqa: BLE001 - each K raises what its own call would
        error = exc

        def fail(K: int) -> Embedding:
            raise error

        return fail
    return shared.leading
