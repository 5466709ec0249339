"""Model objects and samplers for multi-layer networks with mixed memberships.

Each layer l of a generated network is drawn independently with
E[A_l] = rho * Pi @ B_l @ Pi.T, where Pi is the shared n x K row-stochastic
membership matrix and B_l a symmetric K x K connectivity matrix.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

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


@dataclass(frozen=True)
class MultiLayerNetwork:
    """L symmetric n x n adjacency matrices sharing one node set.

    Binary layers (every entry 0 or 1) are stored as one ``uint8`` stack and
    weighted layers as one float64 stack; ``binary`` reads the dtype. The
    constructor takes either from any real or boolean array and keeps every
    value. A ``uint8`` stack is 8 times smaller (16.8 MiB against 134.6 MiB
    at n=2100, L=4), but its own arithmetic wraps past 255: cast to float
    before any sum or product that can exceed that.
    """

    layers: np.ndarray  # shape (L, n, n), uint8 if binary, else float64

    def __post_init__(self):
        layers = np.asarray(self.layers)
        if layers.dtype == np.bool_:
            layers = layers.astype(np.uint8)
        elif layers.dtype != np.uint8:
            layers = np.asarray(layers, dtype=float)
        if layers.ndim != 3 or layers.shape[1] != layers.shape[2]:
            raise DimensionError("network must have shape (L, n, n)")
        # uint8 entries are finite and nonnegative; a count above 1 is a weight
        compact = layers.dtype == np.uint8
        is_binary = not (compact and layers.size and layers.max() > 1)
        # one layer at a time, so the temporaries stay n x n
        for a in layers:
            if not compact and not np.isfinite(a).all():
                raise ConfigError("adjacency entries must be finite")
            if not np.array_equal(a, a.T):
                raise ConfigError("every layer must be symmetric")
            if not compact:
                if (a < 0).any():
                    raise ConfigError("adjacency entries must be nonnegative")
                is_binary = is_binary and bool(((a == 0) | (a == 1)).all())
        layers = layers.astype(np.uint8 if is_binary else float, copy=False)
        object.__setattr__(self, "layers", layers)

    @property
    def binary(self) -> bool:
        return self.layers.dtype == np.uint8

    @property
    def n(self) -> int:
        return self.layers.shape[1]

    @property
    def L(self) -> int:
        return self.layers.shape[0]


@dataclass(frozen=True)
class ExpectationStack:
    """Edge-probability matrices rho * Pi @ B_l @ Pi.T, one per layer."""

    layers: np.ndarray  # shape (L, n, n)
    rho: float

    @property
    def n(self) -> int:
        return self.layers.shape[1]

    @property
    def L(self) -> int:
        return self.layers.shape[0]


def _check_k(pi: MembershipMatrix, conn: ConnectivityStack) -> None:
    if pi.K != conn.K:
        raise DimensionError(
            f"membership has K={pi.K} but connectivity has K={conn.K}"
        )


def _layer_expectation(pi: MembershipMatrix, b: np.ndarray, rho: float) -> np.ndarray:
    """rho * Pi @ B_l @ Pi.T for one layer, symmetrised exactly against round-off."""
    w = rho * (pi.rows @ b @ pi.rows.T)
    return 0.5 * (w + w.T)


def expected_adjacency(pi: MembershipMatrix, conn: ConnectivityStack) -> ExpectationStack:
    """Edge-probability stack with layer l equal to rho * Pi @ B_l @ Pi.T."""
    _check_k(pi, conn)
    omega = np.empty((conn.L, pi.n, pi.n))
    for l, b in enumerate(conn.matrices):
        omega[l] = _layer_expectation(pi, b, conn.rho)
    return ExpectationStack(layers=omega, rho=conn.rho)


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
    layers are independent. Edge probabilities are computed one layer at a
    time; the (L, n, n) expectation stack is never held.
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
    # a boolean mask selects in the same row-major order as triu_indices
    upper = np.triu(np.ones((n, n), dtype=bool), k=0 if allow_self_loops else 1)
    size = int(np.count_nonzero(upper))
    layers = np.zeros((L, n, n), dtype=np.uint8)
    for l, (layer, b) in enumerate(zip(layers, conn.matrices)):
        p = _layer_expectation(pi, b, conn.rho)
        layer[upper] = _layer_seed(seed, l).random(size) < p[upper]
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
    iu = np.triu_indices(K)
    for l in range(L):
        mats[l][iu] = rng.random(iu[0].size)
        mats[l] = np.maximum(mats[l], mats[l].T)
    return ConnectivityStack(matrices=mats, rho=rho)
