"""Aggregate matrices over layers and their leading eigen-structure."""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, UnusableDataError
from .model import MultiLayerNetwork

DENSE_EIG_LIMIT = 2048
# the Lanczos solver's step budget
LANCZOS_STEPS = 1000
# float32 holds every integer up to 2**24 exactly
FLOAT32_EXACT = 2**24
# CSR layers index their entries with int32 while n * n is below this
CSR_INT32_BOUND = 2**31


@dataclass(frozen=True)
class AggregateMatrix:
    """A symmetric n x n matrix aggregated across layers.

    ``matrix`` is a formed array up to ``DENSE_EIG_LIMIT`` nodes. Above it
    SPSum's sum is a scipy CSR array and the squares a ``_SquaresOperator``,
    each with a ``shape`` and an ``@`` that is all the Lanczos solver needs.
    """

    matrix: np.ndarray | _SquaresOperator  # or a scipy.sparse.csr_array

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


def _square_sum(net: MultiLayerNetwork) -> np.ndarray:
    """Sum of A_l @ A_l over layers, in float64.

    Each layer from ``_dense_layers`` is cast into a float buffer, as a
    ``uint8`` product would wrap past 255. Binary layers are squared in
    float32 as A_l @ A_l.T (BLAS ``syrk``; A_l is symmetric), whose entries
    are integers no larger than n, and added in float32 while
    L·n < ``FLOAT32_EXACT``, so every partial sum is exact. Weighted layers
    are squared and added in float64, and a sum that overflows raises
    UnusableDataError. The float64 copy is made once the buffers and the
    last drawn layer are gone.
    """
    n, binary = net.n, net.binary
    exact = binary and net.L * n < FLOAT32_EXACT
    total = np.zeros((n, n), np.float32 if exact else np.float64)
    cast = np.empty((n, n), np.float32 if binary else np.float64)
    product = np.empty_like(cast)
    with np.errstate(over="ignore"):
        for a in _dense_layers(net):
            np.copyto(cast, a)
            total += np.matmul(cast, cast.T if binary else cast, out=product)
    del cast, product, a
    if not binary and not np.isfinite(total).all():
        raise UnusableDataError("the sum of squared layers overflows float64")
    return total.astype(np.float64, copy=False)


def build_asum(net: MultiLayerNetwork) -> AggregateMatrix:
    """Entrywise sum of ``_product_layers``, added in layer order to a
    float64 copy of the first, so ``layers.sum(axis=0, dtype=float)`` bit for
    bit: formed up to ``DENSE_EIG_LIMIT`` nodes and a CSR array above it. A
    weighted sum that overflows, so that its nonnegative largest entry is
    not finite, raises UnusableDataError.
    """
    layers = iter(_product_layers(net))
    with np.errstate(over="ignore"):
        total = next(layers).astype(float)
        for a in layers:
            total += a
    if not net.binary and not np.isfinite(total.max()):
        raise UnusableDataError("the sum of layers overflows float64")
    return AggregateMatrix(matrix=total)


def _csr_parts(cells: np.ndarray, values, L: int, n: int) -> list:
    """The (data, indices, indptr) of each layer of an (L, n, n) stack, from
    the flat indices of its stored cells, sorted and distinct, and their
    values (None when binary).

    Row r of layer l starts at cell (l * n + r) * n, and a cell's column is
    its remainder by n, written over ``cells``. Indices and row pointers
    are int32 while n * n < ``CSR_INT32_BOUND``, which bounds every entry
    count, and int64 above.
    """
    starts = np.searchsorted(cells, np.arange(L * n + 1, dtype=cells.dtype) * n)
    index = np.int32 if n * n < CSR_INT32_BOUND else np.int64
    cols = np.remainder(cells, n, out=cells).astype(index, copy=False)
    parts = []
    for l in range(L):
        rows = starts[l * n : (l + 1) * n + 1]
        lo, hi = rows[0], rows[-1]
        data = None if values is None else values[lo:hi]
        parts.append((data, cols[lo:hi], (rows - lo).astype(index)))
    return parts


def _csr_arrays(parts, n: int) -> tuple:
    """scipy CSR arrays of shape (n, n) from ``_csr_parts``' triples.

    Every binary layer's ``data`` is a view of one read-only float64 buffer
    of ones, as long as the largest layer, so binary layers take 4 bytes per
    stored entry (int32 indices; int64 take 8) plus that buffer. scipy
    copies an index or data array that is a slice of less than half its
    base (``_prune_array``), so layers cut from one buffer of cells, and
    binary layers below half the largest, hold their own copies.
    """
    import scipy.sparse

    if parts and parts[0][0] is None:
        ones = np.ones(max(cols.size for _, cols, _ in parts))
        ones.flags.writeable = False
        parts = [(ones[: cols.size], cols, indptr) for _, cols, indptr in parts]
    return tuple(scipy.sparse.csr_array(part, shape=(n, n)) for part in parts)


def layers_from_cells(cells: np.ndarray, values, L: int, n: int) -> np.ndarray | tuple:
    """A read's L layers of n nodes from its stored cells, the sorted,
    distinct flat indices into an (L, n, n) stack, and their values (None
    when binary): up to ``DENSE_EIG_LIMIT`` nodes the zeroed stack with
    those cells set, and above it ``_csr_arrays``, the stack never made.
    """
    if n > DENSE_EIG_LIMIT:
        return _csr_arrays(_csr_parts(cells, values, L, n), n)
    layers = np.zeros((L, n, n), dtype=np.uint8 if values is None else float)
    # numpy casts an int32 index to intp in small buffered chunks
    layers.reshape(-1)[cells] = 1 if values is None else values
    return layers


def _dense_layers(net: MultiLayerNetwork) -> Iterator[np.ndarray]:
    """Each layer as an n x n array in layer order: a dense stack's own, or
    a CSR layer densified into one reused float64 buffer, valid until the
    next is drawn."""
    if not net.csr:
        yield from net.layers
        return
    buffer = np.empty((net.n, net.n))
    for a in net.layers:
        yield a.toarray(out=buffer)


def _product_layers(net: MultiLayerNetwork) -> np.ndarray | Iterator[np.ndarray] | tuple:
    """The layers as every layer-wise product draws them, in layer order: up
    to ``DENSE_EIG_LIMIT`` nodes the dense stack or ``_dense_layers``, and
    above it CSR arrays, a network's own or one scan of its dense stack."""
    if (net.n > DENSE_EIG_LIMIT) == net.csr:  # held as products take them
        return net.layers
    if net.csr:
        return _dense_layers(net)
    parts = []
    for a in net.layers:
        # a binary layer holds only 0 and 1, and numpy scans bool for
        # nonzeros about twice as fast as uint8
        idx = np.flatnonzero(a.view(bool) if net.binary else a)
        parts += _csr_parts(idx, None if net.binary else a.ravel()[idx], 1, net.n)
        del idx  # else the last layer's scan outlives the loop
    return _csr_arrays(parts, net.n)


@dataclass(frozen=True, eq=False)
class _SquaresOperator:
    """x -> shift * x + the sum over layers of A_l (A_l x), never formed, on
    ``_product_layers``' CSR arrays. ``@`` takes a vector or an n x k block
    and adds the layers' products in layer order; a product that is not
    finite (weighted squares overflow float64) raises UnusableDataError.
    """

    layers: tuple
    shift: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return (self.shift.size, self.shift.size)

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        # overflowing products add up to inf - inf; the check below reports them
        with np.errstate(all="ignore"):
            y = (self.shift * x.T).T  # row i of x times shift_i
            for a in self.layers:
                y += a @ (a @ x)
        if not np.isfinite(y).all():
            raise UnusableDataError("a product with the sum of squared layers overflows float64")
        return y


def _sum_of_squares(net: MultiLayerNetwork) -> np.ndarray | _SquaresOperator:
    """The sum over layers of A_l^2: formed by ``_square_sum`` up to
    ``DENSE_EIG_LIMIT`` nodes, and above it a ``_SquaresOperator`` on
    ``_product_layers``' CSR arrays with no shift."""
    if net.n <= DENSE_EIG_LIMIT:
        return _square_sum(net)
    return _SquaresOperator(_product_layers(net), np.zeros(net.n))


def _zero_diagonal(
    square: np.ndarray | _SquaresOperator, net: MultiLayerNetwork, copy: bool = False
) -> np.ndarray | _SquaresOperator:
    """``_sum_of_squares(net)`` with its diagonal set to zero.

    A formed square has its diagonal zeroed in place, or in a copy when
    ``copy`` is set. An operator keeps its layers and gets the shift -d,
    where d is the diagonal of the sum of squares: for symmetric layers d_i
    is the sum over layers and columns of a_ij^2. A binary layer's share is
    its row's nonzero count, read off the row pointers; a weighted layer's
    is the row sum of its squared entries.
    """
    if isinstance(square, np.ndarray):
        out = square.copy() if copy else square
        np.fill_diagonal(out, 0.0)
        return out
    shift = square.shift.copy()
    for a in square.layers:
        shift -= np.diff(a.indptr) if net.binary else a.multiply(a).sum(axis=1)
    return _SquaresOperator(square.layers, shift)


def build_ssum_debiased(net: MultiLayerNetwork) -> AggregateMatrix:
    """The sum over layers of A_l^2 with its diagonal set to zero, for binary
    and weighted layers alike.

    With independent entries only the diagonal of the sum of squares is
    biased, whatever the weights, and zeroing it is the bias adjustment of
    Lei & Lin (2023). For binary symmetric layers (A_l^2)(i,i) is the degree
    of node i, self-loops included, so this is also the sum of A_l^2 - D_l,
    with D_l the layer-l degrees. Above ``DENSE_EIG_LIMIT`` nodes it is
    applied matrix-free, as x -> sum of A_l (A_l x) - d * x, where d is the
    diagonal of the sum of squares (see ``_zero_diagonal``).
    """
    return AggregateMatrix(matrix=_zero_diagonal(_sum_of_squares(net), net))


def build_sos(net: MultiLayerNetwork) -> AggregateMatrix:
    """Plain sum of squared layers (no bias removal).

    Above ``DENSE_EIG_LIMIT`` nodes it is applied matrix-free, as
    x -> sum of A_l (A_l x).
    """
    return AggregateMatrix(matrix=_sum_of_squares(net))


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
    # negate each column whose entry of largest magnitude (the lowest index
    # on ties) is negative, in a C-ordered copy whatever the solver's order
    out = vectors.copy()
    peak = out[np.argmax(np.abs(out), axis=0), np.arange(out.shape[1])]
    return np.negative(out, out=out, where=peak < 0)


def _lanczos(matrix, K: int):
    """The K + 1 largest-magnitude Ritz pairs of a symmetric array or
    operator, ordered as ``top_k_eigen`` orders them, from one Lanczos solve
    with full reorthogonalisation (Golub & Van Loan, section 10.1).

    The basis grows by rows from ``default_rng(0).uniform(-1, 1, n)``, each
    orthogonalised twice against the others. Every 5 steps T is diagonalised;
    pair i's residual is beta * |s_i| (beta the last coupling, s_i the last
    entry of T's eigenvector i). The solve stops once the top K residuals are
    within 1e-10 * |theta_1| and pair K+1's is too, or the gap |theta_K| -
    |theta_K+1| less that residual exceeds the bound. A spent Krylov space goes
    on from a fresh vector of the same generator, and T splits into one block
    per start vector. A spent block holds, in exact arithmetic, each distinct
    eigenvalue on the space orthogonal to the blocks before it, so from then
    on the solve stops only at a spent block that lies within |theta_K+1| or
    fills the space. Past ``LANCZOS_STEPS`` steps (capped at n) it raises
    UnusableDataError.
    """
    n = matrix.shape[0]
    if K >= n:
        raise DimensionError(f"K={K} out of range for the Lanczos solver at n={n}")
    rng = np.random.default_rng(0)
    steps = min(LANCZOS_STEPS, n)
    alpha, beta = np.zeros(steps), np.zeros(steps)
    basis = np.empty((min(steps, 32), n))
    scale, spent = 0.0, True
    for j in range(steps):
        if spent:  # the start, or a fresh vector once the Krylov space is spent
            w, start = rng.uniform(-1.0, 1.0, n), j
            for _ in range(2):
                w -= (basis[:j] @ w) @ basis[:j]
        if j == len(basis):
            basis = np.concatenate([basis, np.empty((32, n))])
        basis[j] = w / np.linalg.norm(w)
        done = basis[: j + 1]
        w = matrix @ basis[j]
        scale = max(scale, np.linalg.norm(w))
        coeffs = done @ w
        alpha[j] = coeffs[j]
        w = w - coeffs @ done
        w -= (done @ w) @ done
        # a product the basis spans up to rounding has spent the Krylov
        # space (scale, the largest product norm so far, is at most |lambda_1|)
        spent = (norm := np.linalg.norm(w)) <= 1e-12 * scale
        beta[j] = 0.0 if spent else norm
        # mid-block, spent blocks' exact pairs would pass ahead of a missing copy
        if j >= K and (spent or (start == 0 and ((j + 1) % 5 == 0 or j + 1 == steps))):
            tri = np.diag(alpha[: j + 1]) + np.diag(beta[:j], 1) + np.diag(beta[:j], -1)
            theta, s = np.linalg.eigh(tri)
            top = _order_by_magnitude(theta)[: K + 1]
            residual = beta[j] * np.abs(s[j, top])  # 0 at a spent step
            bound = 1e-10 * abs(theta[top[0]])
            gap = abs(theta[top[K - 1]]) - abs(theta[top[K]])
            block = np.linalg.eigvalsh(tri[start:, start:]) if spent else 0.0
            if residual[:K].max() <= bound and (
                residual[K] <= bound or gap - residual[K] > bound
            ) and (j + 1 == n or np.abs(block).max() <= abs(theta[top[K]]) + bound):
                return theta[top], done.T @ s[:, top]
    raise UnusableDataError(f"Lanczos did not converge at K={K} in {steps} steps")


def top_k_eigen(agg: AggregateMatrix, K: int) -> Embedding:
    """Eigenpairs with the K largest absolute eigenvalues.

    Uses a dense solver up to n=2048 and, above, one Lanczos solve (see
    ``_lanczos``) of SPSum's CSR sum, the squares' operator or any array
    ``agg`` holds, for K + 1 Ritz pairs. Both paths order, slice and check
    the K/K+1 tie the same way, and a Lanczos run that does not converge
    raises UnusableDataError. Above the limit one start vector sees one copy
    of an exact repeat, unless the Krylov space is spent or rounding lifts
    another before the stop: a same-sign repeat across the K/K+1 boundary
    may then get no tie note, and one inside the top K may be missed.
    Eigenvectors carry a deterministic sign convention: the entry of
    largest absolute value in each column is positive. On the dense path one
    ``eigh`` orders every pair and each column's sign depends on that column
    alone, so the first K pairs of a decomposition for more pairs are bit for
    bit ``top_k_eigen(agg, K)``; a Lanczos solve for more pairs converges to
    slightly other floats.
    """
    n = agg.n
    if not (1 <= K <= n):
        raise DimensionError(f"K={K} out of range for n={n}")
    if n <= DENSE_EIG_LIMIT:
        values, vectors = np.linalg.eigh(agg.matrix)
    else:
        values, vectors = _lanczos(agg.matrix, K)
    order = _order_by_magnitude(values)
    return Embedding(
        vectors=_fix_signs(vectors[:, order[:K]]),
        eigenvalues=np.asarray(values[order[:K]], dtype=float),
        warnings=_tie_notes(values[order[: K + 1]], K),
    )
