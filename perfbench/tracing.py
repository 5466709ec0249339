"""Span recording for the traced benchmark passes.

``instrument`` replaces the package's public functions listed in TRACED,
in every package module that binds them, with wrappers that record one span
per call, and puts the originals back afterwards. The program itself runs
unchanged: its modules look these names up as globals at call time, so a
traced pass takes the same code path as an untraced one and nothing under
``src/`` is edited. A span is name, start, end, the index of the enclosing
span and the pass id; spans stay in memory and are written out once, when
the run ends. The memory recorder has the same interface but records the
``tracemalloc`` peak of each call instead of its duration.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import tracemalloc
import types
from collections import defaultdict
from contextlib import contextmanager

from mlmmsb.aggregate import DENSE_EIG_LIMIT

# (defining module, function): the public calls timed as layer work. Nested
# calls nest their spans: expected_adjacency runs inside sample_mlmmsb.
TRACED = (
    ("model", "generate_membership"),
    ("model", "generate_connectivity"),
    ("model", "sample_mlmmsb"),
    ("model", "expected_adjacency"),
    ("aggregate", "build_asum"),
    ("aggregate", "build_ssum_debiased"),
    ("aggregate", "build_sos"),
    ("aggregate", "top_k_eigen"),
    ("simplex", "successive_projection"),
    ("simplex", "estimate_memberships"),
    ("metrics", "membership_errors"),
    ("metrics", "q_fmean"),
    ("metrics", "classify_nodes"),
    ("io_cli", "read_multiplex_edges"),
    ("io_cli", "write_results_csv"),
    ("io_cli", "render_line_chart"),
    ("io_cli", "write_membership_csv"),
    ("io_cli", "write_node_map"),
)


@functools.cache
def _file_lines(path: str) -> int:
    with open(path, "rb") as handle:
        return sum(1 for _ in handle)


def _span_name(name: str, args) -> str:
    """Span name of one call; top_k_eigen is split by the branch it takes."""
    if name == "aggregate.top_k_eigen":
        return name + (".dense" if args[0].n <= DENSE_EIG_LIMIT else ".lanczos")
    return name


def _count(recorder, name: str, args) -> None:
    """Work counters: FLOPs of the squared builds, edge lines parsed."""
    if name in ("aggregate.build_ssum_debiased", "aggregate.build_sos"):
        net = args[0]
        recorder.count("square_flop", 2.0 * net.L * float(net.n) ** 3)
    elif name == "io_cli.read_multiplex_edges":
        recorder.count("edges", _file_lines(str(args[0])))


def _wrap(fn, name: str, recorder):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with recorder.span(_span_name(name, args)):
            result = fn(*args, **kwargs)
        _count(recorder, name, args)
        return result

    return traced


@contextmanager
def instrument(recorder):
    """Route every call of a TRACED function through ``recorder`` while active."""
    wrappers = {}
    for module, function in TRACED:
        fn = getattr(sys.modules[f"mlmmsb.{module}"], function)
        wrappers[fn] = _wrap(fn, f"{module}.{function}", recorder)
    patched = []
    for module_name, module in list(sys.modules.items()):
        if module_name != "mlmmsb" and not module_name.startswith("mlmmsb."):
            continue
        for attr, value in list(vars(module).items()):
            if isinstance(value, types.FunctionType) and value in wrappers:
                setattr(module, attr, wrappers[value])
                patched.append((module, attr, value))
    try:
        yield
    finally:
        for module, attr, value in patched:
            setattr(module, attr, value)


class Tracer:
    """Records one span per call, plus work counters, for each pass."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, pass id]
        self.counters: dict = defaultdict(float)  # (pass id, name) -> amount
        self._stack: list[int] = []
        self.pass_id = None

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        record = [name, 0.0, 0.0, parent, self.pass_id]
        self.spans.append(record)
        self._stack.append(index)
        record[1] = time.perf_counter()
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, amount: float) -> None:
        self.counters[(self.pass_id, name)] += amount

    def pass_summary(self, pass_id) -> dict:
        """Per-name totals and call counts of one pass, plus its attribution.

        The pass's root span is the one without a parent. The spans directly
        under it are the outermost calls into traced package functions; the
        time they do not cover is the pass's unattributed time.
        """
        indices = [i for i, s in enumerate(self.spans) if s[4] == pass_id]
        roots = {i for i in indices if self.spans[i][3] == -1}
        totals: dict = defaultdict(float)
        calls: dict = defaultdict(int)
        wall = 0.0
        attributed = 0.0
        for i in indices:
            name, start, end, parent, _ = self.spans[i]
            if i in roots:
                wall += end - start
                continue
            totals[name] += end - start
            calls[name] += 1
            if parent in roots:
                attributed += end - start
        counters = {
            name: amount for (pid, name), amount in self.counters.items() if pid == pass_id
        }
        return {
            "wall": wall,
            "attributed": attributed,
            "totals": dict(totals),
            "calls": dict(calls),
            "counters": counters,
        }

    def write(self, path: str) -> None:
        keys = ("name", "start", "end", "parent", "pass")
        with open(path, "w") as handle:
            json.dump([dict(zip(keys, s)) for s in self.spans], handle)


class MemoryRecorder:
    """Records the ``tracemalloc`` peak of each call above its starting level.

    A call resets the tracemalloc peak when it starts; the peak reached by
    the enclosing call up to then is kept on a stack and folded back in when
    the inner call ends, so nested calls give correct peaks too.
    """

    def __init__(self):
        self.peaks_mb: dict = defaultdict(float)
        self._stack: list[list] = []  # [starting level, highest level seen]

    @contextmanager
    def span(self, name: str):
        current, peak = tracemalloc.get_traced_memory()
        if self._stack:
            self._stack[-1][1] = max(self._stack[-1][1], peak)
        tracemalloc.reset_peak()
        frame = [current, current]
        self._stack.append(frame)
        try:
            yield
        finally:
            _, peak = tracemalloc.get_traced_memory()
            self._stack.pop()
            frame[1] = max(frame[1], peak)
            if self._stack:
                self._stack[-1][1] = max(self._stack[-1][1], frame[1])
            self.peaks_mb[name] = max(self.peaks_mb[name], (frame[1] - frame[0]) / 2**20)

    def count(self, name: str, amount: float) -> None:
        pass
