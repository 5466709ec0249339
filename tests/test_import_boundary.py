"""scipy loads only on the paths that call it.

Importing scipy.sparse and its submodules takes about 0.4 s, longer than a
dense-path command on a small network. These tests run each command in a
fresh interpreter, because this suite imports scipy itself and so cannot see
which modules the package loads.
"""

import json
import os
import subprocess
import sys

import pytest

import mlmmsb
from mlmmsb import cli_main
from mlmmsb.aggregate import DENSE_EIG_LIMIT

SRC = os.path.dirname(os.path.dirname(os.path.abspath(mlmmsb.__file__)))

# runs the command line on its arguments, then reports the exit code and
# every scipy module loaded
RUN_CLI = """
import json, sys
from mlmmsb.io_cli import cli_main
code = cli_main(sys.argv[1:])
scipy = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(json.dumps({"code": code, "scipy": scipy}))
"""


def run_fresh(script: str, *args: str) -> str:
    """Stdout of script run on args in a new interpreter with only src on its path."""
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=SRC),
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def fresh(*args: str) -> dict:
    return json.loads(run_fresh(RUN_CLI, *args).splitlines()[-1])


@pytest.fixture(scope="module")
def small(tmp_path_factory):
    out = tmp_path_factory.mktemp("small") / "sim.edges"
    code = cli_main(
        ["simulate", "--n", "70", "--n0", "20", "--layers", "3", "--rho", "0.5",
         "--seed", "4", "--out", str(out)]
    )
    assert code == 0
    return out


def test_import_loads_no_scipy():
    script = "import sys, mlmmsb; print([m for m in sys.modules if m.startswith('scipy')])"
    assert run_fresh(script) == "[]\n"


@pytest.fixture(scope="module")
def weighted(small):
    """``small`` with weights 0.5, 1 and 1.5, which load as a float64 stack."""
    out = small.with_name("weighted.edges")
    lines = small.read_text().splitlines()
    out.write_text("".join(f"{line} {i % 3 / 2 + 0.5:g}\n" for i, line in enumerate(lines)))
    return out


@pytest.mark.parametrize(
    "command", ["estimate", "estimate-weighted", "select-k", "simulate", "classify"]
)
def test_dense_commands_load_no_scipy(command, small, weighted, tmp_path):
    args = {
        "estimate": ["--data", str(small), "--method", "spdsos", "--k", "3",
                     "--out-dir", str(tmp_path)],
        "estimate-weighted": ["--data", str(weighted), "--method", "spdsos", "--keep-weights",
                              "--k", "3", "--out-dir", str(tmp_path)],
        "select-k": ["--data", str(small), "--method", "spdsos", "--range", "2..4",
                     "--criterion", "fmean"],
        "simulate": ["--n", "70", "--n0", "20", "--layers", "3",
                     "--out", str(tmp_path / "again.edges")],
        "classify": ["--pi", f"{small}.membership.csv"],
    }[command]
    assert fresh(command.removesuffix("-weighted"), *args) == {"code": 0, "scipy": []}


@pytest.fixture(scope="module")
def big(tmp_path_factory):
    out = tmp_path_factory.mktemp("big") / "big.edges"
    code = cli_main(
        ["simulate", "--n", str(DENSE_EIG_LIMIT + 52), "--n0", "300", "--layers", "2",
         "--rho", "0.05", "--seed", "1", "--out", str(out)]
    )
    assert code == 0
    return out


def lanczos_estimate(data, method, out_dir):
    """Run estimate on data above the dense limit; returns the loaded scipy modules."""
    report = fresh("estimate", "--data", str(data), "--method", method, "--k", "3",
                   "--out-dir", str(out_dir))
    assert report["code"] == 0
    n = DENSE_EIG_LIMIT + 52
    assert len((out_dir / "membership.csv").read_text().splitlines()) == n + 1
    assert len((out_dir / "nodes.csv").read_text().splitlines()) == n + 1
    return report["scipy"]


@pytest.mark.parametrize("method", ["spsum", "spdsos", "spsos"])
def test_lanczos_estimate_loads_no_sparse_linalg(big, tmp_path, method):
    # the numpy Lanczos solver takes SPSum's CSR sum and the squares'
    # numpy operator on CSR layers alike, with nothing but ``@``
    assert "scipy.sparse.linalg" not in lanczos_estimate(big, method, tmp_path / "est")


def test_experiment_loads_csgraph_and_writes(tmp_path):
    report = fresh("experiment", "--preset", "exp1-scaled", "--reps", "1",
                   "--out-dir", str(tmp_path))
    assert report["code"] == 0
    assert "scipy.sparse.csgraph" in report["scipy"]
    assert (tmp_path / "exp1-scaled_results.csv").exists()
    assert (tmp_path / "exp1-scaled_hamming.svg").exists()
