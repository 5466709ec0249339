"""Model objects and samplers for multi-layer networks with mixed memberships.

Each layer l of a generated network is drawn independently with
E[A_l] = rho * Pi @ B_l @ Pi.T, where Pi is the shared n x K row-stochastic
membership matrix and B_l a symmetric K x K connectivity matrix.
"""

from __future__ import annotations

import sys
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DegeneracyWarning, DimensionError

ROW_SUM_TOL = 1e-12


@dataclass(frozen=True)
class MembershipMatrix:
    """Row-stochastic n x K matrix of community weights."""

    rows: np.ndarray

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=float)
        object.__setattr__(self, "rows", rows)
        if rows.ndim != 2:
            raise DimensionError("membership matrix must be 2-dimensional")
        if not len(rows):
            raise DimensionError("membership matrix must have at least one row")
        if not np.isfinite(rows).all():
            raise ConfigError("membership entries must be finite")
        if np.any(rows < -1e-15) or np.any(rows > 1 + 1e-15):
            raise ConfigError("membership entries must lie in [0, 1]")
        if np.max(np.abs(rows.sum(axis=1) - 1.0)) > ROW_SUM_TOL:
            raise ConfigError("membership rows must sum to 1 within 1e-12")

    @property
    def n(self) -> int:
        return self.rows.shape[0]

    @property
    def K(self) -> int:
        return self.rows.shape[1]


def check_membership_sizes(n: int, K: int, n0: int) -> None:
    """The sizes ``generate_membership`` accepts: n, K >= 1, n0 >= 0, K*n0 <= n."""
    if n < 1 or K < 1:
        raise ConfigError(f"n and K must be at least 1, got n={n}, K={K}")
    if n0 < 0:
        raise ConfigError(f"n0 must be nonnegative, got {n0}")
    if K * n0 > n:
        raise ConfigError(f"K*n0 = {K * n0} exceeds n = {n}")


def check_node_count(n: int, K: int) -> None:
    """The sizes ``sample_mlmmsb`` accepts: at least K nodes."""
    if n < K:
        raise ConfigError("need at least K nodes")


def check_connectivity_sizes(K: int, L: int) -> None:
    """The sizes ``generate_connectivity`` accepts: K, L >= 1."""
    if K < 1 or L < 1:
        raise ConfigError("K and L must be at least 1")


def check_rho(rho: float) -> None:
    """The sparsity scales a ConnectivityStack accepts: [0, 1], not NaN."""
    # rho = 0 is admitted so degenerate zero-probability cases stay expressible
    if not (0 <= rho <= 1):
        raise ConfigError("rho must lie in [0, 1]")


@dataclass(frozen=True)
class ConnectivityStack:
    """L symmetric K x K connectivity matrices plus the sparsity scale rho."""

    matrices: np.ndarray  # shape (L, K, K)
    rho: float

    def __post_init__(self):
        mats = np.asarray(self.matrices, dtype=float)
        object.__setattr__(self, "matrices", mats)
        if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
            raise DimensionError("connectivity stack must have shape (L, K, K)")
        check_connectivity_sizes(mats.shape[1], mats.shape[0])
        if not np.isfinite(mats).all():
            raise ConfigError("connectivity entries must be finite")
        if np.any(mats < 0) or np.any(mats > 1):
            raise ConfigError("connectivity entries must lie in [0, 1]")
        if np.max(np.abs(mats - mats.transpose(0, 2, 1))) > 0:
            raise ConfigError("every connectivity matrix must be symmetric")
        check_rho(self.rho)

    @property
    def K(self) -> int:
        return self.matrices.shape[1]

    @property
    def L(self) -> int:
        return self.matrices.shape[0]


# rows per slab when a layer is checked for symmetry, or its W symmetrised
# and drawn, so that each temporary is 128 x n rather than n x n
_SLAB_ROWS = 128


def _row_slabs(a: np.ndarray):
    """Yield (r0, a[r0:r1, r0:], a[r0:, r0:r1].T) for the 128-row slabs of a
    square array: each slab's rows from the diagonal on, and the columns
    that mirror them. Together the slabs cover every cell on and above the
    diagonal once.
    """
    n = a.shape[0]
    for r0 in range(0, n, _SLAB_ROWS):
        r1 = min(r0 + _SLAB_ROWS, n)
        yield r0, a[r0:r1, r0:], a[r0:, r0:r1].T


def _is_symmetric(a: np.ndarray) -> bool:
    """``np.array_equal(a, a.T)`` slab by slab, which compares each pair of
    mirrored cells once where the whole comparison reads all n x n twice."""
    return all(np.array_equal(rows, mirror) for _, rows, mirror in _row_slabs(a))


def _csr_is_symmetric(a) -> bool:
    """Whether a CSR array's arrays equal those of its transpose, which
    ``tocsr`` gives with sorted indices. The transpose is freed on return, so
    a caller that checks layer after layer holds one at a time."""
    t = a.T.tocsr()
    return (
        np.array_equal(a.indptr, t.indptr)
        and np.array_equal(a.indices, t.indices)
        and np.array_equal(a.data, t.data)
    )


@dataclass(frozen=True)
class MultiLayerNetwork:
    """L >= 1 symmetric, nonnegative n x n adjacency matrices, n >= 1.

    Binary layers (every entry 0 or 1) are stored as one ``uint8`` stack and
    weighted layers as one float64 stack; ``binary`` reads the dtype. The
    constructor takes either from any real or boolean array and keeps every
    value. A ``uint8`` stack is 8 times smaller (16.8 MiB against 134.6 MiB
    at n=2100, L=4), but its own arithmetic wraps past 255: cast to float
    before any sum or product that can exceed that.

    Above ``aggregate.DENSE_EIG_LIMIT`` nodes, where every layer-wise product
    runs on CSR layers, the layers may instead be a sequence of L
    ``scipy.sparse.csr_array``, as ``read_multiplex_edges`` gives there. They
    are kept in a tuple (``csr`` is then true), as given when their values
    are float64 and else cast to float64, and must have sorted, distinct
    column indices in each row and no stored zeros; ``binary`` is true when
    every stored value is 1. One loop checks either kind of layer for finite,
    symmetric and nonnegative entries, with the same messages.
    """

    layers: np.ndarray | tuple  # shape (L, n, n), uint8 if binary, else float64
    binary: bool = field(init=False, repr=False)

    def __post_init__(self):
        # a sparse array can only exist once its module has been imported
        sparse = sys.modules.get("scipy.sparse")
        csr = (
            sparse is not None
            and isinstance(self.layers, (list, tuple))
            and any(sparse.issparse(a) for a in self.layers)
        )
        if csr:
            layers = tuple(self.layers)
            if not all(isinstance(a, sparse.csr_array) for a in layers):
                raise ConfigError("sparse layers must all be scipy.sparse.csr_array")
            shapes = {a.shape for a in layers}
            shape = (len(layers), *shapes.pop()) if len(shapes) == 1 else ()
        else:
            layers = np.asarray(self.layers)
            if layers.dtype == np.bool_:
                layers = layers.astype(np.uint8)
            elif layers.dtype != np.uint8:
                layers = np.asarray(layers, dtype=float)
            shape = layers.shape
        if len(shape) != 3 or shape[1] != shape[2] or min(shape) < 1:
            raise DimensionError("network must have shape (L, n, n)")
        if csr:
            from . import aggregate  # read at call time, so that a patched limit holds

            if shape[1] <= aggregate.DENSE_EIG_LIMIT:
                raise ConfigError(
                    f"CSR layers are taken above {aggregate.DENSE_EIG_LIMIT} nodes only, "
                    f"got n={shape[1]}; pass a dense stack"
                )
            if not all(a.has_canonical_format and a.data.all() for a in layers):
                raise ConfigError(
                    "CSR layers need sorted, distinct column indices and no stored zeros"
                )
            # float64 values, as a weighted dense stack holds: a uint8 square
            # wraps past 255; float64 layers are kept as they are
            layers = tuple(a.astype(np.float64, copy=False) for a in layers)
        # uint8 entries are finite and nonnegative; a count above 1 is a weight
        compact = not csr and layers.dtype == np.uint8
        is_binary = not (compact and layers.max() > 1)
        is_symmetric = _csr_is_symmetric if csr else _is_symmetric
        # one layer at a time, so the temporaries stay n x n (or one transpose)
        for a in layers:
            values = a.data if csr else a
            if not compact and not np.isfinite(values).all():
                raise ConfigError("adjacency entries must be finite")
            if not is_symmetric(a):
                raise ConfigError("every layer must be symmetric")
            if not compact:
                if (values < 0).any():
                    raise ConfigError("adjacency entries must be nonnegative")
                # a CSR layer stores no zeros, so it is binary when every value is 1
                is_binary = is_binary and bool(
                    (values == 1 if csr else (values == 0) | (values == 1)).all()
                )
        if not csr:
            layers = layers.astype(np.uint8 if is_binary else float, copy=False)
        object.__setattr__(self, "layers", layers)
        object.__setattr__(self, "binary", is_binary)

    @property
    def csr(self) -> bool:
        """True when the layers are a tuple of CSR arrays."""
        return isinstance(self.layers, tuple)

    @property
    def n(self) -> int:
        return self.layers[0].shape[0]

    @property
    def L(self) -> int:
        return len(self.layers)


def _check_k(pi: MembershipMatrix, conn: ConnectivityStack) -> None:
    if pi.K != conn.K:
        raise DimensionError(
            f"membership has K={pi.K} but connectivity has K={conn.K}"
        )


@dataclass(frozen=True)
class ExpectationStack:
    """Edge-probability matrices Omega_l = rho * Pi @ B_l @ Pi.T, one per
    layer, held as their factors: no n x n layer is formed. The oracles and
    ``compute_diagnostics`` read only the two sums over layers, ``asum`` and
    ``sos``, which come from K x K products."""

    pi: MembershipMatrix
    conn: ConnectivityStack

    def __post_init__(self):
        _check_k(self.pi, self.conn)

    @property
    def rho(self) -> float:
        return self.conn.rho

    @property
    def n(self) -> int:
        return self.pi.n

    @property
    def L(self) -> int:
        return self.conn.L

    def _outer(self, core: np.ndarray) -> np.ndarray:
        """Pi @ core @ Pi.T for a K x K core, symmetrised exactly as 0.5 * (M + M.T)."""
        m = self.pi.rows @ core @ self.pi.rows.T
        return 0.5 * (m + m.T)

    def asum(self) -> np.ndarray:
        """sum_l Omega_l = rho * Pi (sum_l B_l) Pi.T, an n x n array."""
        return self._outer(self.rho * self.conn.matrices.sum(axis=0))

    def sos(self) -> np.ndarray:
        """sum_l Omega_l @ Omega_l = rho^2 * Pi (sum_l B_l G B_l) Pi.T, G = Pi.T @ Pi."""
        b = self.conn.matrices
        gram = self.pi.rows.T @ self.pi.rows
        return self._outer(self.rho**2 * (b @ gram @ b).sum(axis=0))


def expected_adjacency(pi: MembershipMatrix, conn: ConnectivityStack) -> ExpectationStack:
    """Edge-probability stack with layer l equal to rho * Pi @ B_l @ Pi.T,
    held as its factors; a K that differs between them raises DimensionError."""
    return ExpectationStack(pi, conn)


def _layer_seed(seed: int, layer: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=int(seed) & (2**64 - 1), spawn_key=(layer,))
    return np.random.default_rng(ss)


def sample_mlmmsb(
    pi: MembershipMatrix,
    conn: ConnectivityStack,
    seed: int,
    allow_self_loops: bool = True,
) -> MultiLayerNetwork:
    """Draw a multi-layer network with independent Bernoulli edges per layer.

    Upper-triangular entries (including the diagonal unless self-loops are
    disabled) are drawn independently in row-major order and mirrored.
    Deterministic given ``seed``; layer l uses its own derived stream so
    layers are independent.

    Edge probabilities are computed one layer at a time, into one n x n
    float64 buffer W reused across layers, and symmetrised and drawn in
    slabs of 128 rows, so the (L, n, n) expectation stack is never held.
    Besides the ``uint8`` stack it returns, the sampler holds W, a 128 x n
    boolean mask and one slab's temporaries, at most two 128 x n float64
    arrays at once: 11.6 MiB in all at n=1000, L=2, where the stack is
    1.9 MiB.
    """
    check_node_count(pi.n, pi.K)
    _check_k(pi, conn)
    n, L = pi.n, conn.L
    lam_k = np.linalg.eigvalsh(conn.matrices.sum(axis=0))
    lam_k = lam_k[np.argsort(np.abs(lam_k))[::-1]]
    if abs(lam_k[min(pi.K, len(lam_k)) - 1]) < 1e-8 * conn.L:
        warnings.warn(
            "sum of connectivity matrices is numerically rank deficient; "
            "spectral recovery may be unreliable",
            DegeneracyWarning,
        )
    # a boolean mask selects in the same row-major order as triu_indices;
    # the upper-triangle cells of the slab from r0 are mask[:r1 - r0, :n - r0]
    mask = np.triu(np.ones((min(_SLAB_ROWS, n), n), dtype=bool), k=0 if allow_self_loops else 1)
    layers = np.zeros((L, n, n), dtype=np.uint8)
    w = np.empty((n, n))
    for l, (layer, b) in enumerate(zip(layers, conn.matrices)):
        rng = _layer_seed(seed, l)
        np.matmul(pi.rows @ b, pi.rows.T, out=w)
        w *= conn.rho
        for r0, rows, mirror in _row_slabs(w):
            p = 0.5 * (rows + mirror)
            cells = mask[: len(p), : n - r0]
            p = p[cells]
            layer[r0 : r0 + len(cells), r0:][cells] = rng.random(p.size) < p
        np.maximum(layer, layer.T, out=layer)
    return MultiLayerNetwork(layers=layers)


def generate_membership(n: int, K: int, n0: int, seed: int) -> MembershipMatrix:
    """Membership matrix with n0 pure nodes per community followed by mixed rows.

    For K=3 the mixed rows follow the recipe (r1/2, r2/2, 1 - r1/2 - r2/2)
    with r1, r2 ~ Uniform[0,1]; for other K they are symmetric Dirichlet(1).
    """
    check_membership_sizes(n, K, n0)
    rng = np.random.default_rng(np.random.SeedSequence(int(seed) & (2**64 - 1)))
    rows = np.zeros((n, K))
    for k in range(K):
        rows[k * n0 : (k + 1) * n0, k] = 1.0
    n_mixed = n - K * n0
    if n_mixed > 0:
        if K == 3:
            r1 = rng.random(n_mixed)
            r2 = rng.random(n_mixed)
            rows[K * n0 :, 0] = r1 / 2
            rows[K * n0 :, 1] = r2 / 2
            rows[K * n0 :, 2] = 1.0 - r1 / 2 - r2 / 2
        else:
            rows[K * n0 :] = rng.dirichlet(np.ones(K), size=n_mixed)
    return MembershipMatrix(rows=rows)


def generate_connectivity(K: int, L: int, seed: int, rho: float = 1.0) -> ConnectivityStack:
    """L symmetric K x K matrices with i.i.d. Uniform[0,1] upper triangles."""
    check_connectivity_sizes(K, L)
    rng = np.random.default_rng(np.random.SeedSequence(int(seed) & (2**64 - 1)))
    mats = np.zeros((L, K, K))
    rows, cols = np.triu_indices(K)
    # one draw in layer order, as L draws of one triangle each would give
    mats[:, rows, cols] = rng.random((L, rows.size))
    return ConnectivityStack(matrices=np.maximum(mats, mats.transpose(0, 2, 1)), rho=rho)
