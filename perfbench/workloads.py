"""The benchmark's three workloads: set-up, passes and output checks.

A pass calls the program the way a user does. The traced run makes the same
calls with the package's public functions wrapped (see tracing.py), so the
traced and untraced passes run one code path. Inputs come only from the
seed.

- ``sweep``: ``experiment --preset exp1-scaled``, the Monte Carlo loop.
  Every pass draws new networks, so nothing can be reused across passes.
- ``estimate-file``: ``estimate --method spdsos`` on an edge list written in
  set-up. n > DENSE_EIG_LIMIT, so it is the only workload on the Lanczos
  branch and the only one that parses edge lists.
- ``select-k``: ``estimate_k`` over K = 2..6 on a network sampled in set-up.
  It rebuilds the same aggregate once per candidate K.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os

import numpy as np

from mlmmsb import (
    MembershipMatrix,
    MultiLayerNetwork,
    cli_main,
    generate_connectivity,
    generate_membership,
    membership_errors,
    metrics,
    preset,
    sample_mlmmsb,
)
from mlmmsb.io_cli import (
    RESULTS_HEADER,
    MultiplexData,
    read_membership_csv,
    write_membership_csv,
    write_multiplex_edges,
)
from mlmmsb.metrics import estimate_k

K = 3
# The connectivity stack is the same for every seed, so the edge count, and
# with it the parse time of estimate-file, does not vary with the seed; the
# seed still draws the memberships and the edges.
CONNECTIVITY_SEED = 1
# Inputs of the reference check, which compares outputs with values
# recorded in reference.json; independent of --seed.
REFERENCE_SEED = 20240403

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def input_seed(seed: int, index: int) -> int:
    return seed * 1000 + index


def simulate(n: int, L: int, rho: float, n0: int, seed: int):
    """Planted memberships, connectivity and sampled network, as ``simulate``."""
    pi = generate_membership(n, K, n0, seed)
    conn = generate_connectivity(K, L, CONNECTIVITY_SEED, rho=rho)
    return pi, conn, sample_mlmmsb(pi, conn, seed + 2)


def run_cli(argv: list[str]):
    """Call the CLI in-process with its standard streams captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    return code, out, err


def read_files(directory: str, names) -> tuple:
    contents = []
    for name in names:
        with open(os.path.join(directory, name), "rb") as handle:
            contents.append((name, handle.read()))
    return tuple(contents)


class Check:
    """Outcome of the output checks of one pass."""

    def __init__(self, attempted: int):
        self.attempted = attempted
        self.failed = 0
        self.errors: list[str] = []
        self.hamming = math.nan

    def fail(self, units: int, message: str) -> None:
        self.failed = min(self.attempted, self.failed + units)
        self.errors.append(message)


def _load_reference() -> dict:
    with open(REFERENCE_PATH) as handle:
        return json.load(handle)


class Workload:
    """Defaults shared by the workloads."""

    def load(self, input_dirs) -> None:
        self.n_inputs = len(input_dirs)

    def input_key(self, p: int):
        """Which input pass p ran on; passes cycle over the set-up inputs."""
        return p % self.n_inputs

    def collect(self, handle):
        """Outputs of a pass, read after its timing stops."""
        return handle

    def reference_check(self) -> Check:
        return Check(0)


class CliWorkload(Workload):
    """A workload whose pass is one in-process call of the CLI."""

    OUTPUTS: tuple = ()

    def collect(self, handle):
        code, out, err = handle
        files = read_files(self.out_dir, self.OUTPUTS) if code == 0 else ()
        return code, out.getvalue(), err.getvalue(), files


class Sweep(CliWorkload):
    """``mlmmsb experiment --preset exp1-scaled`` with a seed per pass."""

    name = "sweep"
    PRESET = "exp1-scaled"
    REPS = 2
    OUTPUTS = (f"{PRESET}_results.csv", f"{PRESET}_hamming.svg", f"{PRESET}_relative.svg")
    REL_TOL = 0.05
    ABS_TOL = 0.02

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.out_dir = os.path.join(workdir, "out")
        cfg = preset(self.PRESET)
        self.n = cfg.n
        self.rows = len(cfg.sweep_values) * len(cfg.methods)

    @staticmethod
    def setup(seed: int, index: int, input_dir: str) -> None:
        preset(Sweep.PRESET)  # nothing to build: each pass samples its own networks

    def input_key(self, p: int):
        return p

    def _argv(self, base_seed: int) -> list[str]:
        return [
            "experiment", "--preset", self.PRESET, "--seed", str(base_seed),
            "--reps", str(self.REPS), "--out-dir", self.out_dir,
        ]

    def run(self, p: int):
        return run_cli(self._argv(input_seed(self.seed, p)))

    def _parse_rows(self, outcome, check: Check) -> list:
        code, _, err, files = outcome
        if code != 0:
            check.fail(self.rows, f"experiment exited {code}: {err.strip()}")
            return []
        lines = files[0][1].decode().splitlines()
        if not lines or lines[0] != RESULTS_HEADER:
            check.fail(self.rows, "results CSV header differs")
            return []
        rows = []
        for line in lines[1:]:
            method, param, value, reps, h_mean, h_se, r_mean, r_se = line.split(",")
            numbers = [float(x) for x in (value, h_mean, h_se, r_mean, r_se)]
            if (
                param != "rho"
                or int(reps) != self.REPS
                or not all(math.isfinite(x) for x in numbers)
                or not 0.0 <= numbers[1] <= 2.0
                or numbers[3] < 0.0
            ):
                check.fail(1, f"invalid results row {line!r}")
            rows.append((method, numbers[0], numbers[1], numbers[3]))
        if len(rows) != self.rows:
            check.fail(self.rows, f"expected {self.rows} result rows, got {len(rows)}")
        return rows

    def check(self, p: int, outcome) -> Check:
        check = Check(self.rows)
        rows = self._parse_rows(outcome, check)
        if rows and not check.failed:
            check.hamming = float(np.mean([row[2] for row in rows]))
        return check

    def reference_outcome(self):
        return self.collect(run_cli(self._argv(REFERENCE_SEED)))

    def reference_check(self) -> Check:
        """Result rows for the reference seed must match those recorded."""
        check = Check(self.rows)
        rows = self._parse_rows(self.reference_outcome(), check)
        expected = _load_reference()[self.name]["rows"]
        if len(rows) != len(expected):
            return check
        for got, want in zip(rows, expected):
            close = got[0] == want[0] and np.allclose(
                got[1:], want[1:], rtol=self.REL_TOL, atol=self.ABS_TOL
            )
            if not close:
                check.fail(1, f"reference row {got} differs from recorded {want}")
        return check


class EstimateFile(CliWorkload):
    """``mlmmsb estimate --method spdsos`` on an edge list written in set-up."""

    name = "estimate-file"
    N, L, RHO = 2100, 4, 0.1
    N0 = N // 4
    OUTPUTS = ("membership.csv", "nodes.csv")
    n = N

    def __init__(self, seed: int, workdir: str):
        self.out_dir = os.path.join(workdir, "out")

    @staticmethod
    def setup(seed: int, index: int, input_dir: str) -> None:
        """Mirror of ``_cmd_simulate``: edge list plus planted membership CSV."""
        cls = EstimateFile
        pi, _, net = simulate(cls.N, cls.L, cls.RHO, cls.N0, input_seed(seed, index))
        data = MultiplexData(network=net, node_ids=tuple(range(1, net.n + 1)))
        path = os.path.join(input_dir, "net.edges")
        write_multiplex_edges(data, path)
        write_membership_csv(pi, path + ".membership.csv", data.node_ids)

    def load(self, input_dirs) -> None:
        super().load(input_dirs)
        self.paths = [os.path.join(d, "net.edges") for d in input_dirs]
        self.planted = [read_membership_csv(p + ".membership.csv") for p in self.paths]

    def _path(self, p: int) -> str:
        return self.paths[self.input_key(p)]

    def run(self, p: int):
        return run_cli([
            "estimate", "--data", self._path(p), "--method", "spdsos",
            "--k", str(K), "--out-dir", self.out_dir,
        ])

    def hamming(self, p: int, outcome) -> float:
        """Membership rows must sum to 1; returns the error against the planted Pi."""
        lines = outcome[3][0][1].decode().splitlines()
        ids, rows = [], []
        for line in lines[1:]:
            parts = line.split(",")
            ids.append(int(parts[0]))
            rows.append([float(x) for x in parts[1 : 1 + K]])
        rows = np.array(rows)
        sums = rows.sum(axis=1)
        if rows.shape != (self.N, K) or np.max(np.abs(sums - 1.0)) > 1e-8:
            raise ValueError("membership rows do not sum to 1")
        planted = self.planted[self.input_key(p)].rows[np.array(ids) - 1]
        estimated = MembershipMatrix(rows=rows / sums[:, None])
        return membership_errors(estimated, MembershipMatrix(rows=planted)).hamming

    def check(self, p: int, outcome) -> Check:
        check = Check(1)
        code, _, err, _ = outcome
        if code != 0:
            check.fail(1, f"estimate exited {code}: {err.strip()}")
            return check
        try:
            check.hamming = self.hamming(p, outcome)
        except ValueError as exc:
            check.fail(1, f"membership CSV invalid: {exc}")
            return check
        ceiling = _load_reference()[self.name]["hamming_ceiling"]
        if not check.hamming <= ceiling:
            check.fail(1, f"hamming {check.hamming:.4f} above recorded ceiling {ceiling}")
        return check


class SelectK(Workload):
    """``estimate_k(net, "spdsos", range(2, 7), "fmean")`` on a sampled network."""

    name = "select-k"
    N, L, RHO = 600, 20, 0.1
    N0 = N // 4
    K_RANGE = range(2, 7)
    METHOD = "spdsos"
    CRITERION = "fmean"
    # the dense path is deterministic: outputs may move by round-off only
    RTOL = 1e-9
    n = N

    def __init__(self, seed: int, workdir: str):
        self._first: dict = {}

    @staticmethod
    def setup(seed: int, index: int, input_dir: str) -> None:
        cls = SelectK
        pi, _, net = simulate(cls.N, cls.L, cls.RHO, cls.N0, input_seed(seed, index))
        np.save(os.path.join(input_dir, "layers.npy"), net.layers.astype(np.uint8))
        np.save(os.path.join(input_dir, "pi.npy"), pi.rows)

    def load(self, input_dirs) -> None:
        super().load(input_dirs)
        self.nets = [
            MultiLayerNetwork(layers=np.load(os.path.join(d, "layers.npy"))) for d in input_dirs
        ]
        self.pis = [MembershipMatrix(rows=np.load(os.path.join(d, "pi.npy"))) for d in input_dirs]

    def run(self, p: int):
        return self.select(self.nets[self.input_key(p)])

    def select(self, net: MultiLayerNetwork):
        """``estimate_k`` on net, plus the K=3 fit that it scores.

        The fit is taken from the argument of ``metrics.q_fmean``, which
        ``estimate_k`` looks up when it runs, so the accuracy check sees the
        output of the code that is timed.
        """
        score = metrics.q_fmean
        fits = {}

        def keep_fit(net, pi_hat):
            fits[pi_hat.K] = pi_hat
            return score(net, pi_hat)

        metrics.q_fmean = keep_fit
        try:
            selection = estimate_k(net, self.METHOD, self.K_RANGE, self.CRITERION)
        finally:
            metrics.q_fmean = score
        return selection, fits.get(K)

    def check(self, p: int, outcome) -> Check:
        selection, fit = outcome
        check = Check(len(self.K_RANGE))
        index = self.input_key(p)
        for k, reason in selection.failures.items():
            check.fail(1, f"candidate K={k} failed: {reason}")
        if not all(math.isfinite(s) for s in selection.scores.values()):
            check.fail(len(self.K_RANGE), "non-finite modularity score")
        first = self._first.setdefault(index, selection)
        if selection != first:
            check.fail(len(self.K_RANGE), f"selection on input {index} changed between passes")
        if fit is None:
            check.fail(1, f"no K={K} fit was scored")
        else:
            check.hamming = membership_errors(fit, self.pis[index]).hamming
        return check

    def reference_result(self):
        pi, _, net = simulate(self.N, self.L, self.RHO, self.N0, REFERENCE_SEED)
        selection, fit = self.select(net)
        return selection, membership_errors(fit, pi).hamming

    def reference_check(self) -> Check:
        """Scores, best K and the K=3 fit error must match those recorded."""
        check = Check(len(self.K_RANGE))
        selection, hamming = self.reference_result()
        want = _load_reference()[self.name]
        scores = [selection.scores.get(k, math.nan) for k in self.K_RANGE]
        if selection.failures or selection.best_k != want["best_k"]:
            check.fail(len(self.K_RANGE), f"reference best K {selection.best_k}, recorded {want['best_k']}")
        if not np.allclose(scores, want["scores"], rtol=self.RTOL, atol=0.0):
            check.fail(len(self.K_RANGE), f"reference scores {scores} differ from {want['scores']}")
        if not math.isclose(hamming, want["hamming"], rel_tol=self.RTOL):
            check.fail(1, f"reference K=3 hamming {hamming} differs from {want['hamming']}")
        return check


WORKLOADS = {w.name: w for w in (Sweep, EstimateFile, SelectK)}
