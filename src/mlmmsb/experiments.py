"""Simulation harness: parameter sweeps, assumption diagnostics, rate checks.

Four preset sweeps vary the sparsity scale, the layer count, the node count,
and the pure-nodes-per-community count while holding the remaining parameters
fixed. Each (sweep value, repetition) cell draws a fresh membership matrix,
a fresh connectivity stack, and a fresh network from seeds derived by hashing
(base_seed, sweep index, repetition index), so results are independent of
execution order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .aggregate import _square_sum, build_asum
from .errors import ConfigError, DimensionError, UnusableDataError
from .estimators import METHODS, build_aggregates, estimate
from .metrics import membership_errors
from .model import (
    ExpectationStack,
    MultiLayerNetwork,
    check_connectivity_sizes,
    check_membership_sizes,
    check_node_count,
    check_rho,
    generate_connectivity,
    generate_membership,
    sample_mlmmsb,
)

SWEEP_RHO = "rho"
SWEEP_L = "L"
SWEEP_N = "n"
SWEEP_N0 = "n0"

SWEEP_AXES = (SWEEP_RHO, SWEEP_L, SWEEP_N, SWEEP_N0)

# sweeping n scales the pure nodes with the network: n0 = n // N_SWEEP_PURE_DIVISOR
N_SWEEP_PURE_DIVISOR = 4


@dataclass(frozen=True)
class ExperimentConfig:
    sweep: str
    sweep_values: tuple
    n: int = 500
    L: int = 100
    rho: float = 0.1
    n0: int = 100
    K: int = 3
    repetitions: int = 100
    base_seed: int = 0
    methods: tuple[str, ...] = METHODS

    def __post_init__(self):
        if self.sweep not in SWEEP_AXES:
            raise ConfigError(f"unknown sweep axis {self.sweep!r}")
        values = tuple(self.sweep_values)
        object.__setattr__(self, "sweep_values", values)
        if not values:
            raise ConfigError("sweep_values must be nonempty")
        if any(b <= a for a, b in zip(values, values[1:])):
            raise ConfigError("sweep_values must be strictly increasing")
        if self.repetitions < 1:
            raise ConfigError("repetitions must be at least 1")
        methods = tuple(m.upper() for m in self.methods)
        object.__setattr__(self, "methods", methods)
        if not methods:
            raise ConfigError("methods must be nonempty")
        for i, m in enumerate(methods):
            if m not in METHODS:
                raise ConfigError(f"unknown method {m!r}")
            if m in methods[:i]:
                raise ConfigError(f"method {m!r} is listed twice")
        # every cell's parameters, checked by the model's own rules before
        # any output is made
        for value in values:
            if self.sweep != SWEEP_RHO and not float(value).is_integer():
                raise ConfigError(f"{self.sweep} sweep values must be integers, got {value!r}")
            n, L, rho, n0 = self.point(value)
            check_membership_sizes(n, self.K, n0)
            check_node_count(n, self.K)
            check_connectivity_sizes(self.K, L)
            check_rho(rho)

    def point(self, value):
        """Fixed parameters with the swept axis replaced by ``value``."""
        n, L, rho, n0 = self.n, self.L, self.rho, self.n0
        if self.sweep == SWEEP_RHO:
            rho = float(value)
        elif self.sweep == SWEEP_L:
            L = int(value)
        elif self.sweep == SWEEP_N:
            n = int(value)
            n0 = n // N_SWEEP_PURE_DIVISOR
        else:
            n0 = int(value)
        return n, L, rho, n0


@dataclass(frozen=True)
class MethodCell:
    hamming: np.ndarray
    relative: np.ndarray
    seeds: tuple[int, ...]

    def mean_se(self, which: str) -> tuple[float, float]:
        raw = getattr(self, which)
        mean = float(raw.mean())
        se = float(raw.std(ddof=1) / math.sqrt(raw.size)) if raw.size > 1 else 0.0
        return mean, se


@dataclass(frozen=True)
class ExperimentResult:
    config: ExperimentConfig
    cells: dict = field(default_factory=dict)  # (method, sweep value) -> MethodCell

    def mean(self, method: str, value, which: str = "hamming") -> float:
        return self.cells[(method, value)].mean_se(which)[0]

    def se(self, method: str, value, which: str = "hamming") -> float:
        return self.cells[(method, value)].mean_se(which)[1]

    def curve(self, method: str, which: str = "hamming") -> np.ndarray:
        return np.array(
            [self.mean(method, v, which) for v in self.config.sweep_values]
        )


def _derive_seed(base_seed: int, sweep_index: int, repetition: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(
        entropy=int(base_seed) & (2**64 - 1), spawn_key=(sweep_index, repetition)
    )


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Run all (sweep value, repetition, method) cells and aggregate errors."""
    raw = {
        (m, v): {"hamming": [], "relative": [], "seeds": []}
        for m in cfg.methods
        for v in cfg.sweep_values
    }
    for si, value in enumerate(cfg.sweep_values):
        n, L, rho, n0 = cfg.point(value)
        for r in range(cfg.repetitions):
            s_pi, s_b, s_net = _derive_seed(cfg.base_seed, si, r).generate_state(
                3, dtype=np.uint64
            )
            pi = generate_membership(n, cfg.K, n0, int(s_pi))
            conn = generate_connectivity(cfg.K, L, int(s_b), rho=rho)
            net = sample_mlmmsb(pi, conn, int(s_net))
            for m, agg in zip(cfg.methods, build_aggregates(net, cfg.methods)):
                result = estimate(agg, cfg.K, m)
                report = membership_errors(result.pi_hat, pi)
                raw[(m, value)]["hamming"].append(report.hamming)
                raw[(m, value)]["relative"].append(report.relative)
                raw[(m, value)]["seeds"].append(int(s_net))
    cells = {
        key: MethodCell(
            hamming=np.array(data["hamming"]),
            relative=np.array(data["relative"]),
            seeds=tuple(data["seeds"]),
        )
        for key, data in raw.items()
    }
    return ExperimentResult(config=cfg, cells=cells)


@dataclass(frozen=True)
class AssumptionDiagnostics:
    """Empirical sparsity statistics and the two sparsity-condition flags."""

    tau: float
    tau_tilde: float
    assumption1_holds: bool
    assumption3_holds: bool


def compute_diagnostics(
    net: MultiLayerNetwork, omega: ExpectationStack
) -> AssumptionDiagnostics:
    """Maximum aggregate deviations between sampled and expected layers.

    tau bounds the first-order deviation sum over layers; tau_tilde bounds
    the second-order (squared-matrix) deviation. The flags evaluate
    rho*n*L >= tau^2 * log(n+L) and rho^2*n^2*L >= tau_tilde^2 * log(n+L),
    with rho taken from omega.

    The network's sums are formed as ``build_asum`` and ``build_sos`` form
    them, and omega's from its factors, so no (L, n, n) array is held; a
    weighted network whose sums overflow float64 raises UnusableDataError.
    """
    if (net.L, net.n) != (omega.L, omega.n):
        raise DimensionError("network and expectation stacks disagree on shape")
    rho, n, L = omega.rho, net.n, net.L
    dev = build_asum(net).matrix - omega.asum()
    dev2 = _square_sum(net) - omega.sos()
    tau = float(np.abs(dev).max())
    tau_tilde = float(np.abs(dev2).max())
    log_term = math.log(n + L)
    return AssumptionDiagnostics(
        tau=tau,
        tau_tilde=tau_tilde,
        assumption1_holds=rho * n * L >= tau**2 * log_term,
        assumption3_holds=rho**2 * n**2 * L >= tau_tilde**2 * log_term,
    )


def rate_slope_check(result: ExperimentResult, axis: str, method: str) -> float:
    """Least-squares slope of log(mean Hamming error) against log(axis value)."""
    if axis not in SWEEP_AXES:
        raise ConfigError(f"unknown axis {axis!r}")
    if axis != result.config.sweep:
        raise ConfigError(f"result sweeps {result.config.sweep!r}, not {axis!r}")
    x = np.array([float(v) for v in result.config.sweep_values])
    if x.size < 4:
        raise ConfigError("need at least 4 sweep points for a slope fit")
    if np.any(x <= 0):
        raise UnusableDataError("sweep values must be positive for a log-log fit")
    y = result.curve(method.upper(), "hamming")
    if np.any(y <= 0):
        raise UnusableDataError("mean errors must be positive for a log-log fit")
    slope, _ = np.polyfit(np.log(x), np.log(y), 1)
    return float(slope)


# ---------------------------------------------------------------------------
# Presets: paper-scale grids plus scaled-down versions for desk runs.

PRESETS = {
    "exp1": ExperimentConfig(
        sweep=SWEEP_RHO,
        sweep_values=tuple(np.round(np.arange(0.02, 0.201, 0.02), 10)),
        n=500, L=100, n0=100, repetitions=100,
    ),
    "exp2": ExperimentConfig(
        sweep=SWEEP_L,
        sweep_values=tuple(range(10, 101, 10)),
        n=500, rho=0.1, n0=100, repetitions=100,
    ),
    "exp3": ExperimentConfig(
        sweep=SWEEP_N,
        sweep_values=tuple(range(200, 2001, 200)),
        L=40, rho=0.1, repetitions=100,
    ),
    "exp4": ExperimentConfig(
        sweep=SWEEP_N0,
        sweep_values=tuple(range(20, 201, 20)),
        n=600, L=50, rho=0.1, repetitions=100,
    ),
    "exp1-scaled": ExperimentConfig(
        sweep=SWEEP_RHO,
        sweep_values=(0.02, 0.06, 0.10, 0.14, 0.18),
        n=200, L=30, n0=50, repetitions=20,
    ),
    "exp2-scaled": ExperimentConfig(
        sweep=SWEEP_L,
        sweep_values=(8, 16, 32, 64),
        n=300, rho=0.2, n0=75, repetitions=20,
    ),
    "exp3-scaled": ExperimentConfig(
        sweep=SWEEP_N,
        sweep_values=(200, 400, 600, 800),
        L=20, rho=0.1, repetitions=10,
    ),
    "exp4-scaled": ExperimentConfig(
        sweep=SWEEP_N0,
        sweep_values=(20, 40, 60, 80),
        n=300, L=20, rho=0.1, repetitions=10,
    ),
}


def preset(name: str, base_seed: int | None = None, repetitions: int | None = None) -> ExperimentConfig:
    """Look up a preset, optionally overriding seed or repetition count."""
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    cfg = PRESETS[name]
    updates = {}
    if base_seed is not None:
        updates["base_seed"] = int(base_seed)
    if repetitions is not None:
        updates["repetitions"] = int(repetitions)
    if updates:
        cfg = replace(cfg, **updates)
    return cfg
