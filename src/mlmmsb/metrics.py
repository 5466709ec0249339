"""Evaluation metrics: permutation-matched errors, fuzzy modularities,
node-purity indices, and modularity-based community-count selection."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionError,
    EmptyLayerWarning,
    EmptyNetworkError,
    ModelSelectionError,
    UnusableDataError,
)
from .aggregate import build_asum, top_k_eigen
from .estimators import build_aggregate, estimate_from_embedding
from .model import MembershipMatrix, MultiLayerNetwork

HIGHLY_MIXED = "HIGHLY_MIXED"
NEUTRAL = "NEUTRAL"
HIGHLY_PURE = "HIGHLY_PURE"

MIXED_THRESHOLD = 0.6
PURE_THRESHOLD = 0.9


@dataclass(frozen=True)
class ErrorReport:
    """Permutation-minimized distances between two membership matrices.

    ``hamming`` is the entrywise l1 distance divided by n; ``relative`` is the
    Frobenius-norm ratio. Each is minimized over column permutations
    independently; ``best_permutation`` is the minimizer of the Hamming term.
    """

    hamming: float
    relative: float
    best_permutation: tuple[int, ...]


def _optimal_assignment(cost: np.ndarray) -> np.ndarray:
    """Permutation p minimizing sum_j cost[j, p[j]] for a square cost >= 0."""
    # imported here so that only callers of membership_errors load scipy
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import min_weight_full_bipartite_matching

    # the matcher reads zero entries as missing edges; a constant shift keeps
    # every pair an edge and moves every full matching's weight by the same K
    return min_weight_full_bipartite_matching(csr_array(cost + 1.0))[1]


def membership_errors(pi_hat: MembershipMatrix, pi_true: MembershipMatrix) -> ErrorReport:
    """Hamming and relative error, each minimized over all column permutations.

    Both costs split into a sum over matched column pairs, so each minimum is
    one optimal assignment on a K x K cost matrix. Among several optimal
    permutations, the one the assignment solver returns is reported.
    """
    if pi_hat.n != pi_true.n or pi_hat.K != pi_true.K:
        raise DimensionError("membership matrices must share n and K")
    n = pi_true.n
    h = pi_hat.rows
    t = pi_true.rows
    # pair[:, j, k] compares column j of pi_hat with column k of pi_true
    pair = h[:, :, None] - t[:, None, :]
    ham_perm = _optimal_assignment(np.abs(pair).sum(axis=0))
    rel_perm = _optimal_assignment((pair**2).sum(axis=0))
    return ErrorReport(
        hamming=float(np.abs(h - t[:, ham_perm]).sum()) / n,
        relative=float(np.linalg.norm(h - t[:, rel_perm])) / float(np.linalg.norm(t)),
        best_permutation=tuple(int(k) for k in ham_perm),
    )


def _fuzzy_modularity(adj: np.ndarray, rows: np.ndarray) -> float | None:
    """Fuzzy modularity of one adjacency matrix under memberships ``rows``,
    or None when the matrix has no edges.

    With P = A Pi, sum(A * Pi Pi^T) = <P, Pi>. The column sums of P are
    Pi^T d, so d^T Pi Pi^T d = |Pi^T d|^2, and since each row of Pi sums to
    1 their total is the edge weight m. No n x n product is formed.

    <P, Pi>, Pi^T d and m are scaled by the power of two that takes m into
    [0.5, 1), so |Pi^T d|^2 / m neither underflows nor overflows at any
    weight scale; the scaling is exact, so normal-range scores keep their bits.
    """
    with np.errstate(over="ignore"):
        p = adj @ rows
        pd = p.sum(axis=0)
        m = float(pd.sum())
    # entries are nonnegative, so m == 0 means no edges
    if m == 0:
        return None
    if not math.isfinite(m):
        raise UnusableDataError("the total edge weight overflows float64")
    e = math.frexp(m)[1]
    pd = np.ldexp(pd, -e)
    m = math.ldexp(m, -e)
    return (math.ldexp(float(np.vdot(p, rows)), -e) - float(pd @ pd) / m) / m


def q_fsum(net: MultiLayerNetwork, pi_hat: MembershipMatrix) -> float:
    """Fuzzy modularity of the summed adjacency matrix under soft memberships."""
    if pi_hat.n != net.n:
        raise DimensionError("membership and network disagree on n")
    q = _fuzzy_modularity(build_asum(net).matrix, pi_hat.rows)
    if q is None:
        raise EmptyNetworkError("network has no edges")
    return q


def q_fmean(net: MultiLayerNetwork, pi_hat: MembershipMatrix) -> float:
    """Average per-layer fuzzy modularity, skipping layers without edges.

    Binary layers are copied into one float64 n x n buffer in turn, so a
    product never casts the whole ``uint8`` stack at once.
    """
    if pi_hat.n != net.n:
        raise DimensionError("membership and network disagree on n")
    buf = np.empty((net.n, net.n)) if net.binary else None
    values = []
    for layer in net.layers:
        if buf is not None:
            np.copyto(buf, layer)
            layer = buf
        q = _fuzzy_modularity(layer, pi_hat.rows)
        if q is not None:
            values.append(q)
    if not values:
        raise EmptyNetworkError("all layers are empty")
    skipped = net.L - len(values)
    if skipped:
        warnings.warn(
            f"skipped {skipped} empty layers when averaging modularity",
            EmptyLayerWarning,
        )
    return float(np.mean(values))


@dataclass(frozen=True)
class NodeClassification:
    """Per-node purity labels and the aggregate mixing/balance indices."""

    home_community: np.ndarray  # argmax community per node
    label: tuple[str, ...]
    sigma_mixed: float
    sigma_pure: float
    upsilon: float


def classify_nodes(pi_hat: MembershipMatrix) -> NodeClassification:
    """Label nodes highly mixed (max weight <= 0.6), highly pure (>= 0.9),
    or neutral, and compute the mixing fractions and balance ratio."""
    rows = pi_hat.rows
    peak = rows.max(axis=1)
    home = rows.argmax(axis=1)  # lowest community index on ties
    labels = tuple(
        HIGHLY_MIXED if p <= MIXED_THRESHOLD else HIGHLY_PURE if p >= PURE_THRESHOLD else NEUTRAL
        for p in peak
    )
    col_mass = rows.sum(axis=0)
    return NodeClassification(
        home_community=home,
        label=labels,
        sigma_mixed=float(np.mean(peak <= MIXED_THRESHOLD)),
        sigma_pure=float(np.mean(peak >= PURE_THRESHOLD)),
        upsilon=float(col_mass.min() / col_mass.max()),
    )


FSUM = "FSUM"
FMEAN = "FMEAN"


@dataclass(frozen=True)
class SelectionResult:
    best_k: int
    best_score: float
    scores: dict[int, float] = field(default_factory=dict)
    failures: dict[int, str] = field(default_factory=dict)


def estimate_k(
    net: MultiLayerNetwork,
    method: str,
    k_range,
    criterion: str = FSUM,
) -> SelectionResult:
    """Pick the community count maximizing a fuzzy modularity criterion.

    Builds the method's aggregate, decomposes it once for the largest
    candidate and estimates each K from the leading K pairs (bit for bit
    ``top_k_eigen(agg, K)`` on the dense path only; on the Lanczos path,
    one solve for the largest candidate's pairs, without the deflated solve
    that only the dropped tie notes read), then scores the memberships;
    ties go to the smaller K.
    A failed build raises, a failed decomposition fails every K, and a K
    where the estimator fails is skipped and recorded.
    """
    k_values = sorted(set(int(k) for k in k_range))
    if not k_values:
        raise ModelSelectionError("empty candidate range")
    if k_values[0] < 1 or k_values[-1] > net.n:
        raise ModelSelectionError(f"candidates must lie in [1, {net.n}]")
    crit = criterion.upper()
    if crit not in (FSUM, FMEAN):
        raise ModelSelectionError(f"unknown criterion {criterion!r}")
    score_fn = q_fsum if crit == FSUM else q_fmean
    agg = build_aggregate(net, method)
    try:
        shared = top_k_eigen(agg, k_values[-1], _tie_note=False)
    except Exception as exc:  # noqa: BLE001 - every candidate fails with it
        failed = dict.fromkeys(k_values, f"{type(exc).__name__}: {exc}")
        raise ModelSelectionError(f"all candidate K failed: {failed}") from exc
    scores: dict[int, float] = {}
    failures: dict[int, str] = {}
    for k in k_values:
        try:
            result = estimate_from_embedding(shared.leading(k), method)
            scores[k] = score_fn(net, result.pi_hat)
        except Exception as exc:  # noqa: BLE001 - record and move on
            failures[k] = f"{type(exc).__name__}: {exc}"
    if not scores:
        raise ModelSelectionError(f"all candidate K failed: {failures}")
    best_k = min(scores, key=lambda k: (-scores[k], k))
    return SelectionResult(
        best_k=best_k, best_score=scores[best_k], scores=scores, failures=failures
    )
