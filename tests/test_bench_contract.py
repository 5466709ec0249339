"""What the benchmark in perfbench/ relies on in the package.

The traced passes wrap the functions that ``perfbench.tracing.TRACED`` names
and split ``top_k_eigen`` spans by the size of its first argument; the
select-k workload counts those spans per pass. These tests fail when a
traced name disappears or when select-k stops decomposing once.
"""

import importlib
import importlib.util
from collections import Counter
from pathlib import Path

from mlmmsb import estimate_k, generate_connectivity, generate_membership, sample_mlmmsb

TRACING_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_exists():
    tracing = load_tracing()
    for module, function in tracing.TRACED:
        assert callable(getattr(importlib.import_module(f"mlmmsb.{module}"), function))


def test_select_k_spans():
    tracing = load_tracing()
    pi = generate_membership(120, 3, 30, seed=4)
    net = sample_mlmmsb(pi, generate_connectivity(3, 6, seed=5, rho=0.4), seed=6)
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        selection = estimate_k(net, "spdsos", range(2, 7), "fmean")
    assert not selection.failures
    calls = Counter(span[0] for span in tracer.spans)
    assert calls["aggregate.top_k_eigen.dense"] == 1
    assert calls["aggregate.top_k_eigen.lanczos"] == 0
    assert calls["metrics.q_fmean"] == 5
