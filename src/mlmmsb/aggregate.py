"""Aggregate matrices over layers and their leading eigen-structure."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import DimensionError, UnsupportedInputError, UnusableDataError
from .model import ExpectationStack, MultiLayerNetwork

if TYPE_CHECKING:
    import scipy.sparse.linalg

DENSE_EIG_LIMIT = 2048
# float32 holds every integer up to 2**24 exactly
FLOAT32_EXACT = 2**24


@dataclass(frozen=True)
class AggregateMatrix:
    """A symmetric n x n matrix aggregated across layers.

    ``matrix`` is a formed array, except for the squared aggregates of a
    MultiLayerNetwork above ``DENSE_EIG_LIMIT`` nodes: there it is a
    ``scipy.sparse.linalg.LinearOperator`` that applies the aggregate to a
    vector without forming it, which is all the Lanczos solver needs.
    """

    matrix: np.ndarray | scipy.sparse.linalg.LinearOperator

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

        On the dense path only, this is bit for bit ``top_k_eigen(agg, K)`` of
        the aggregate that gave this embedding: one decomposition orders every
        pair, and the sign of each column depends on that column alone. A
        Lanczos run for more pairs converges to slightly other floats. Below
        the embedding's own K, the tie note reads the next computed pair; at
        it, the note is the one ``top_k_eigen`` gave, from its deflated solve
        on the Lanczos path.
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


def _square_sum(net: MultiLayerNetwork | ExpectationStack) -> np.ndarray:
    """Sum of A_l @ A_l over layers, in float64.

    Each layer is cast into a float buffer first, since a ``uint8`` product
    would wrap past 255. Binary layers are squared in float32 as A_l @ A_l.T,
    which is A_l @ A_l for a symmetric layer and which numpy hands to BLAS
    ``syrk``; every entry of such a square is an integer no larger than n,
    held exactly. Their squares are added in float32 while
    L·n < ``FLOAT32_EXACT``: each partial sum is then an integer no larger
    than L·n, held exactly too. Weighted layers and expectation stacks are
    squared and added in float64 as A_l @ A_l, and a sum that overflows
    raises UnusableDataError. The float64 copy is made once the cast and
    product buffers are gone.
    """
    n = net.n
    binary = net.layers.dtype == np.uint8
    exact = binary and net.L * n < FLOAT32_EXACT
    total = np.zeros((n, n), np.float32 if exact else np.float64)
    cast = np.empty((n, n), np.float32 if binary else np.float64)
    product = np.empty_like(cast)
    with np.errstate(over="ignore"):
        for a in net.layers:
            np.copyto(cast, a)
            total += np.matmul(cast, cast.T if binary else cast, out=product)
    del cast, product
    if not binary and not np.isfinite(total).all():
        raise UnusableDataError("the sum of squared layers overflows float64")
    return total.astype(np.float64, copy=False)


def build_asum(net: MultiLayerNetwork | ExpectationStack) -> AggregateMatrix:
    """Entrywise sum of all layers; a weighted sum that overflows raises
    UnusableDataError."""
    with np.errstate(over="ignore"):
        total = net.layers.sum(axis=0, dtype=float)
    if net.layers.dtype != np.uint8 and not np.isfinite(total).all():
        raise UnusableDataError("the sum of layers overflows float64")
    return AggregateMatrix(matrix=total)


def _csr_layers(net: MultiLayerNetwork) -> list:
    """The layers as scipy CSR arrays, each from one scan of the layer.

    Row i starts at flat index i*n. Indices and row pointers are int32 while
    n*n < 2**31, which bounds every entry count, and int64 above: scipy keeps
    the int64 arrays it is handed, at 4 more bytes per stored entry. A
    binary layer's entries are ones, so they need no gather from the layer.
    """
    import scipy.sparse

    n = net.n
    index = np.int32 if n * n < 2**31 else np.int64
    starts = np.arange(n + 1) * n
    layers = []
    for a in net.layers:
        # a binary layer holds only 0 and 1, and numpy scans bool for
        # nonzeros about twice as fast as uint8
        idx = np.flatnonzero(a.view(bool) if net.binary else a)
        data = np.ones(idx.size) if net.binary else a.ravel()[idx]
        indptr = np.searchsorted(idx, starts).astype(index)
        cols = np.remainder(idx, n, out=idx).astype(index)
        layers.append(scipy.sparse.csr_array((data, cols, indptr), shape=(n, n)))
    return layers


def _squares_operator(
    net: MultiLayerNetwork, debiased: bool
) -> scipy.sparse.linalg.LinearOperator:
    """x -> sum over layers of A_l (A_l x), minus d * x when debiased, where d
    holds the summed degrees: the squared aggregate as a LinearOperator on
    the CSR layers of ``_csr_layers``, never formed.

    A binary layer's degree is its row's nonzero count. A product that is
    not finite (weighted layers whose squares overflow float64) raises
    UnusableDataError.
    """
    import scipy.sparse.linalg

    n = net.n
    layers = _csr_layers(net)
    shift = np.zeros(n)
    if debiased:
        for a in layers:
            shift -= np.diff(a.indptr)

    def matvec(x):
        x = np.ravel(x)
        # overflowing products add up to inf - inf; the check below reports them
        with np.errstate(all="ignore"):
            y = shift * x
            for a in layers:
                y += a @ (a @ x)
        if not np.isfinite(y).all():
            raise UnusableDataError("a product with the sum of squared layers overflows float64")
        return y

    return scipy.sparse.linalg.LinearOperator((n, n), matvec=matvec, dtype=np.float64)


def build_ssum_debiased(net: MultiLayerNetwork) -> AggregateMatrix:
    """Sum over layers of A_l^2 - D_l, where D_l holds the layer-l degrees.

    For binary symmetric layers (A_l^2)(i,i) equals the degree of node i,
    self-loops included, so subtracting D_l zeroes the diagonal exactly and
    removes the degree-driven bias of the plain sum of squares. The result is
    the sum of squares with its diagonal set to zero; above
    ``DENSE_EIG_LIMIT`` nodes it is applied matrix-free, as x -> sum of
    A_l (A_l x) - d * x.
    """
    if not net.binary:
        raise UnsupportedInputError(
            "debiased sum of squares requires binary layers"
        )
    if net.n > DENSE_EIG_LIMIT:
        return AggregateMatrix(matrix=_squares_operator(net, debiased=True))
    out = _square_sum(net)
    np.fill_diagonal(out, 0.0)
    return AggregateMatrix(matrix=out)


def build_sos(net: MultiLayerNetwork | ExpectationStack) -> AggregateMatrix:
    """Plain sum of squared layers (no bias removal).

    Above ``DENSE_EIG_LIMIT`` nodes a MultiLayerNetwork's sum is applied
    matrix-free, as x -> sum of A_l (A_l x). An expectation stack's is formed
    at every n, since ``spsos_oracle`` adds to its diagonal.
    """
    if isinstance(net, MultiLayerNetwork) and net.n > DENSE_EIG_LIMIT:
        return AggregateMatrix(matrix=_squares_operator(net, debiased=False))
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


def _lanczos(matrix, K: int, tie_note: bool):
    """The K largest-magnitude eigenpairs of a symmetric array or operator,
    and, when ``tie_note`` is set, an estimate of eigenvalue K+1 for the tie
    note (otherwise an empty tuple).

    ARPACK solves for K pairs only: asking it for K+1 spends most of its
    products on the (K+1)th, which lies at the edge of the noise bulk. That
    value comes instead from one more solve, for the largest-magnitude
    eigenvalue of the matrix deflated by the K pairs, to a relative
    accuracy tol of 1e-2. The solve is repeated at a tighter tol only while
    |lambda_K| - |lambda_K+1| is within 2 * tol * |lambda_K+1| plus the tie
    note's bound. A clear gap costs one loose solve. When lambda_K itself
    lies in the noise bulk, as for select-k's largest candidates, the gap
    is usually settled at 1e-5, which takes 55-65% of the products of a
    1e-10 solve.
    """
    # importing scipy.sparse.linalg takes longer than a dense run on a small
    # network, so only the Lanczos branch loads it; names are looked up
    # through the module at each call, where a patched eigsh is seen
    import scipy.sparse.linalg

    n = matrix.shape[0]
    if K >= n:
        raise DimensionError(f"K={K} out of range for the Lanczos solver at n={n}")
    # a fixed start vector keeps ARPACK independent of earlier calls
    v0 = np.random.default_rng(0).uniform(-1.0, 1.0, n)
    try:
        values, vectors = scipy.sparse.linalg.eigsh(
            matrix, k=K, which="LM", tol=1e-10, v0=v0
        )
        if not tie_note:
            return values, vectors, ()

        def deflated(x):
            x = np.ravel(x)
            return matrix @ x - vectors @ (values * (vectors.T @ x))

        operator = scipy.sparse.linalg.LinearOperator(
            (n, n), matvec=deflated, dtype=np.float64
        )
        magnitudes = np.abs(values)
        for tol in (1e-2, 1e-5, 1e-10):
            (following,) = scipy.sparse.linalg.eigsh(
                operator, k=1, which="LM", tol=tol, v0=v0, return_eigenvectors=False
            )
            margin = 2 * tol * abs(following) + 1e-10 * magnitudes.max()
            if magnitudes.min() - abs(following) > margin:
                break
    except scipy.sparse.linalg.ArpackNoConvergence as exc:
        raise UnusableDataError(
            f"Lanczos did not converge to the top {K} eigenpairs: {exc}"
        ) from exc
    return values, vectors, following


def top_k_eigen(agg: AggregateMatrix, K: int, *, _tie_note: bool = True) -> Embedding:
    """Eigenpairs with the K largest absolute eigenvalues.

    Uses a dense solver up to n=2048 and restarted Lanczos (magnitude mode)
    above, for K pairs of the formed array or the matrix-free operator that
    ``agg`` holds; eigenvalue K+1, which only the K/K+1 tie note reads,
    comes there from a second solve on the aggregate deflated by those
    pairs. A Lanczos run that does not converge raises UnusableDataError.
    Eigenvectors carry a deterministic sign convention: the entry of
    largest absolute value in each column is positive.

    ``estimate_k``, which drops every tie note, passes the private
    ``_tie_note=False``: the Lanczos path then skips the second solve and
    gives no note at K, with the same pairs, order and signs. It is a
    keyword rather than a helper so that perfbench's trace, which wraps
    ``top_k_eigen``, still times select-k's decomposition.
    """
    n = agg.n
    if not (1 <= K <= n):
        raise DimensionError(f"K={K} out of range for n={n}")
    if n <= DENSE_EIG_LIMIT:
        values, vectors = np.linalg.eigh(agg.matrix)
        following = ()
    else:
        values, vectors, following = _lanczos(agg.matrix, K, _tie_note)
    order = _order_by_magnitude(values)
    return Embedding(
        vectors=_fix_signs(vectors[:, order[:K]]),
        eigenvalues=np.asarray(values[order[:K]], dtype=float),
        warnings=_tie_notes(np.append(values[order[: K + 1]], following), K),
    )
