"""File formats, dataset ingestion, chart rendering, and the command line.

The multiplex edge-list format is whitespace-separated lines of
``layer u v [weight]``, matching the public multiplex dataset releases.
Layer and node ids are integers from 1 to 2**63 - 1; the weight is optional
on each line, defaults to 1 and must be finite; ``#`` starts a comment that
runs to the end of the line. A malformed line raises ``ParseError`` with its
line number, which the CLI turns into exit code 2. Results go to a
fixed-schema CSV and simple SVG line charts; all writes are atomic (temp
file + rename).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import math
import os
import sys
import tempfile
from dataclasses import dataclass, fields, replace

import numpy as np

from . import aggregate, experiments
from .errors import (
    ConfigError,
    EmptyNetworkError,
    IoError,
    MlmmsbError,
    ParseError,
    UnusableDataError,
)
from .estimators import METHODS, build_aggregate, estimate
from .experiments import ExperimentConfig, ExperimentResult, run_experiment
from .metrics import classify_nodes, estimate_k
from .model import (
    MembershipMatrix,
    MultiLayerNetwork,
    generate_connectivity,
    generate_membership,
    sample_mlmmsb,
)

RESULTS_HEADER = (
    "method,sweep_param,sweep_value,repetitions,"
    "hamming_mean,hamming_se,relative_mean,relative_se"
)

DATASET_PATTERNS = {
    "lazega": ("lazega",),
    "celegans": ("celegans", "c.elegans", "c_elegans"),
    "cs-aarhus": ("cs-aarhus", "cs_aarhus", "aucs"),
    "fao-trade": ("fao-trade", "fao_trade", "fao"),
}


@dataclass(frozen=True)
class MultiplexData:
    network: MultiLayerNetwork
    node_ids: tuple  # dense index -> original id


def _atomic_write(path, text: str) -> None:
    """Write ``text`` to a temp file beside ``path`` and rename it over
    ``path``. mkstemp makes the file 0600; it gets the mode ``open`` would
    give under the umask. A failed write or rename removes the temp file."""
    directory = os.path.dirname(os.path.abspath(path))
    umask = os.umask(0)  # the umask can only be read by setting it
    os.umask(umask)
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        with os.fdopen(fd, "w", newline="\n") as handle:
            os.fchmod(handle.fileno(), 0o666 & ~umask)
            handle.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        if tmp is not None:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
        raise IoError(f"cannot write {path}: {exc}") from exc


_MAX_ID = 2**63 - 1  # the largest int64
# ids are read as int32 while every one is below this, else as int64
_ID_INT32_BOUND = 2**31
# flat cell indices are int32 while L * n * n is below this
CELL_INT32_BOUND = 2**31
# records per block when ids that are not contiguous are searched
_SEARCH_BLOCK = 2**16


def _fields(line: str) -> list[str]:
    """Whitespace-separated fields of one line; ``#`` starts a comment."""
    return line.partition("#")[0].split()


def _scan_edges(handle):
    """Parse an edge list line by line into (layer, u, v, weight) columns.

    This loop is the reference for the format: every ``ParseError`` comes
    from here and names the first offending line.
    """
    columns = ([], [], [], [])
    for lineno, line in enumerate(handle, start=1):
        parts = _fields(line)
        if not parts:
            continue
        if len(parts) not in (3, 4):
            raise ParseError(
                f"line {lineno}: expected 'layer u v [weight]', got {line.strip()!r}",
                line_number=lineno,
            )
        try:
            layer = int(parts[0])
            u = int(parts[1])
            v = int(parts[2])
            weight = float(parts[3]) if len(parts) == 4 else 1.0
        except ValueError as exc:
            raise ParseError(
                f"line {lineno}: non-numeric field in {line.strip()!r}",
                line_number=lineno,
            ) from exc
        if not math.isfinite(weight):
            raise ParseError(
                f"line {lineno}: weight must be finite, got {parts[3]!r}",
                line_number=lineno,
            )
        if not all(1 <= x <= _MAX_ID for x in (layer, u, v)):
            raise ParseError(
                f"line {lineno}: ids must be integers from 1 to 2**63 - 1",
                line_number=lineno,
            )
        for column, value in zip(columns, (layer, u, v, weight)):
            column.append(value)
    # the ids are int32 when every one fits, as ``_read_columns`` parses them
    fits = max((max(c) for c in columns[:3] if c), default=0) < _ID_INT32_BOUND
    ids = tuple(np.array(c, dtype=np.int32 if fits else np.int64) for c in columns[:3])
    return ids + (np.array(columns[3], dtype=float),)


# np.loadtxt opens a path with these suffixes through a decompressor
_COMPRESSED = (".gz", ".bz2", ".xz", ".lzma")


def _loadtxt_source(handle):
    """What ``np.loadtxt`` reads for ``handle``: the absolute path of the file
    it has open, or the handle itself when it has no such name (an in-memory
    copy, a file opened by descriptor) or numpy would decompress the path.

    numpy reads a path in blocks through its C tokenizer, but walks any
    other object line by line in Python: on a 427k-line edge list (2 cores)
    the parse took 54-56 ms from the path against 94-95 ms from the handle.
    The path is absolute so that numpy never reads it as a URL.
    """
    name = getattr(handle, "name", None)
    if isinstance(name, str) and not name.endswith(_COMPRESSED):
        return os.path.abspath(name)
    return handle


def _read_columns(handle):
    """(layer, u, v, weight) columns of an edge list; the ids are int32 when
    every one is below 2**31, else int64.

    numpy's C reader parses files whose data lines all have the width of the
    first one. It is asked for int32 ids, 12 bytes a record (20 with
    weights) where int64 ids took 24 (32), and again for int64 ids when one
    overflows int32: an overflow on the first line fails at once, one on
    the last line costs a whole parse (17 ms on 430k lines, 2 cores). The
    scanner re-reads any file it refuses or whose values break a format
    rule, so it alone decides what is accepted and raises the errors.
    """
    width = 0
    for line in handle:
        width = len(_fields(line))
        if width:
            break
    if width in (3, 4):
        for ids in ("i4", "i8"):
            handle.seek(0)
            try:
                rows = np.loadtxt(
                    _loadtxt_source(handle),
                    dtype=",".join([ids] * 3) + ",f8" * (width - 3),
                    comments="#",
                    ndmin=1,
                )
            except ValueError:
                continue
            layer, u, v = rows["f0"], rows["f1"], rows["f2"]
            # an absent weight column reads as ones that take no memory
            weight = rows["f3"] if width == 4 else np.broadcast_to(1.0, len(rows))
            if min(layer.min(), u.min(), v.min()) >= 1 and np.isfinite(weight).all():
                return layer, u, v, weight
            break
    handle.seek(0)
    return _scan_edges(handle)


def _sorted_distinct(ids: np.ndarray) -> np.ndarray:
    """The distinct values of ``ids`` in ascending order, as ``np.unique``;
    sorts ``ids`` in place.

    ``np.unique`` without a return option hashes; on an edge list's id
    columns that measured about 5 times slower than one sort.
    """
    ids.sort()
    return ids[np.concatenate(([True], ids[1:] != ids[:-1]))]


def _index_in(ids: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The index of each of ``values`` in the sorted distinct ``ids``, as
    ``np.searchsorted(ids, values)``, written as int32 while every index
    fits: 4 bytes a record rather than 8.

    Contiguous ids, as ``simulate`` and the usual dataset releases number
    their nodes, map by subtracting the first: for the two node columns of
    a 427k-line edge list that took 1.3 ms against 28 ms for the search.
    Ids lie in [1, 2**63 - 1], so no difference overflows. Other ids are
    searched in blocks: the search copies a strided record column to a
    contiguous one and returns intp, which for the whole column at once
    took 16 more bytes a record.
    """
    out = np.empty(values.size, np.int32 if ids.size <= 2**31 else np.intp)
    if ids[-1] - ids[0] == ids.size - 1:
        np.subtract(values, ids[0], out=out, casting="unsafe")
    else:
        for start in range(0, values.size, _SEARCH_BLOCK):
            block = slice(start, start + _SEARCH_BLOCK)
            out[block] = np.searchsorted(ids, values[block])
    return out


def _stored_cells(records: list, L: int, n: int, binarize: bool, drop_self_loops: bool):
    """The sorted distinct cells that a read stores in the (L, n, n) stack,
    with their values: None for a binary read.

    ``records`` is the list [cells, weight], which this empties, so that the
    caller holds neither buffer once they are spent. ``cells`` holds each
    record's flat cells (i, j) and (j, i), and is overwritten; ``weight`` is
    None for a binary read, else one weight per record. A binary read sorts
    the cells and drops repeats. A weighted read groups them by one argsort
    and sums each distinct cell's weights by ``np.add.at``, record by record
    and cell by cell: every cell adds its weights in file order.
    """
    cells, weight = records
    records.clear()
    # a self-loop names its cell twice: its second cell, and its first too
    # when self-loops are dropped, go to the sentinel that sorts past them
    # all. Rows are set by index: by a mask it took 3 times as long
    end = L * n * n
    cells[np.flatnonzero(cells[:, 0] == cells[:, 1]), int(not drop_self_loops) :] = end
    flat = cells.reshape(-1)
    if weight is None:
        flat = _sorted_distinct(flat)
        return (flat[:-1] if flat[-1] == end else flat), None
    # the cells are sorted in place, then overwritten by each one's group
    order = np.argsort(flat)
    flat[:] = flat[order]
    first = np.concatenate(([True], flat[1:] != flat[:-1]))
    distinct = flat[first]
    # each cell's group, in place: beside the argsort, the cast that cumsum
    # makes of a bool input, or a copy, would set the read's peak
    groups = first.astype(flat.dtype)
    np.cumsum(groups, out=groups)
    groups -= 1
    flat[order] = groups
    del order, first, groups
    sums = np.zeros(distinct.size)
    with np.errstate(over="ignore"):
        np.add.at(sums, cells, weight[:, None])
    del cells, flat, weight  # before the stored cells and sums are cut out
    if distinct[-1] == end:  # the sentinel's sum is no stored cell's
        sums[-1] = 0
    if not (binarize or np.isfinite(sums).all()):
        raise UnusableDataError("an edge's summed weight overflows float64")
    # a sum past float64 keeps its sign, so +inf is an edge; a stack stores no zero
    stored = sums > 0 if binarize else sums != 0
    return distinct[stored], None if binarize else sums[stored]


def read_multiplex_edges(
    path,
    binarize: bool = True,
    drop_self_loops: bool = True,
) -> MultiplexData:
    """Parse a multiplex edge list into symmetric layers.

    Node ids are remapped to dense 0-based indices; the original ids come
    back in ``node_ids``. Layer ids are remapped the same way, in sorted
    order, so a layer id that no line names takes no layer. Duplicate edges
    accumulate in file order; in binarize mode a cell whose sum is positive
    is an edge, and the layers come back as ``uint8``.

    Every read takes the stored cells and their values from
    ``_stored_cells``. At most ``aggregate.DENSE_EIG_LIMIT`` nodes, they are
    scattered into a zeroed (L, n, n) stack. Above it, where the squared
    aggregates run on CSR layers, the layers come back as a tuple of L
    ``scipy.sparse.csr_array`` instead, and the stack is never allocated.
    They equal, array for array, what the aggregates would build from the
    stack.
    """
    try:
        with open(path) as handle:
            if not handle.seekable():  # a pipe: read it once, re-read from memory
                handle = io.StringIO(handle.read())
            layer, u, v, weight = _read_columns(handle)
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    if not layer.size:
        raise EmptyNetworkError(f"no nodes found in {path}")
    # look each record up in the sorted ids: np.unique's inverse holds an
    # argsort and its scatter of all 2 x records ids at once. The node
    # columns are copied and sorted one at a time, 8 bytes a record where
    # both at once took 16, and their distinct ids joined
    layer_ids = _sorted_distinct(layer.copy())
    node_ids = _sorted_distinct(
        np.concatenate([_sorted_distinct(u.copy()), _sorted_distinct(v.copy())])
    )
    L, n = layer_ids.size, node_ids.size
    # a sum of positive weights is positive: every named cell is an edge
    weighted = not (binarize and (weight > 0).all())
    layer_index = _index_in(layer_ids, layer)
    i, j = _index_in(node_ids, u), _index_in(node_ids, v)
    # the columns are views of loadtxt's records (12 bytes each, 20 with
    # weights); dropping them frees the records before the cells are made.
    # The weights are copied out of them when kept
    weight = np.ascontiguousarray(weight) if weighted else None
    del layer, u, v
    # each record names the cell (i, j), then (j, i), at the flat index
    # (l * n + i) * n + j of the (L, n, n) stack: int32 while every flat
    # index and the sentinel L * n * n fit, 8 bytes a record
    cells = np.empty((i.size, 2), np.int32 if L * n * n < CELL_INT32_BOUND else np.int64)
    for cell, a, b in ((cells[:, 0], i, j), (cells[:, 1], j, i)):
        np.multiply(layer_index, n, out=cell, dtype=cells.dtype)
        cell += a
        cell *= n
        cell += b
    del layer_index, i, j, cell, a, b
    records = [cells, weight]
    del cells, weight
    cells, values = _stored_cells(records, L, n, binarize, drop_self_loops)
    if n > aggregate.DENSE_EIG_LIMIT:
        layers = aggregate.csr_arrays(aggregate.csr_parts(cells, values, L, n), n)
    else:
        layers = np.zeros((L, n, n), dtype=np.uint8 if values is None else float)
        # numpy casts an int32 index to intp in small buffered chunks
        layers.reshape(-1)[cells] = 1 if values is None else values
    del cells, values  # the layers hold what they need: free before the checks
    return MultiplexData(
        network=MultiLayerNetwork(layers=layers), node_ids=tuple(node_ids.tolist())
    )


def write_multiplex_edges(data: MultiplexData, path) -> None:
    """Write layers back as an edge list (upper triangle, 1-based layer ids)."""
    net = data.network
    n = net.n
    if net.csr:  # each layer's stored entries in row-major order
        row = np.concatenate([
            l * n + np.repeat(np.arange(n), np.diff(a.indptr))
            for l, a in enumerate(net.layers)
        ])
        j = np.concatenate([a.indices for a in net.layers])
        values = np.concatenate([a.data for a in net.layers])
    else:
        cell = np.flatnonzero(net.layers.view(bool) if net.binary else net.layers)
        row, j = np.divmod(cell, n)  # row = layer * n + i
        values = None if net.binary else net.layers.reshape(-1)[cell]
    upper = row % n <= j  # keeps the row-major order of each layer's upper triangle
    row, j = row[upper], j[upper]
    names = [f"{u}" for u in data.node_ids]
    tails = np.array(names, dtype=object)[j].tolist()
    if not net.binary:
        weights = map("{:.10g}".format, values[upper].tolist())
        tails = list(map(" ".join, zip(tails, weights)))
    # one "layer u " prefix per run of a row's edges, joined over its neighbours
    starts = np.flatnonzero(np.diff(row, prepend=-1)).tolist()
    chunks = []
    for start, stop in zip(starts, starts[1:] + [len(tails)]):
        layer, i = divmod(int(row[start]), n)
        prefix = f"{layer + 1} {names[i]} "
        chunks.append(prefix + ("\n" + prefix).join(tails[start:stop]))
    _atomic_write(path, "\n".join(chunks) + ("\n" if chunks else ""))


def write_node_map(data: MultiplexData, path) -> None:
    lines = ["index,original_id"]
    lines.extend(f"{i},{node}" for i, node in enumerate(data.node_ids))
    _atomic_write(path, "\n".join(lines) + "\n")


def write_results_csv(result: ExperimentResult, path) -> None:
    """Serialize experiment aggregates with a fixed, byte-stable format."""
    cfg = result.config
    lines = [RESULTS_HEADER]
    for method in sorted(cfg.methods):
        for value in cfg.sweep_values:
            cell = result.cells[(method, value)]
            h_mean, h_se = cell.mean_se("hamming")
            r_mean, r_se = cell.mean_se("relative")
            lines.append(
                f"{method},{cfg.sweep},{value:.10g},{cell.hamming.size},"
                f"{h_mean:.10g},{h_se:.10g},{r_mean:.10g},{r_se:.10g}"
            )
    _atomic_write(path, "\n".join(lines) + "\n")


def write_membership_csv(pi: MembershipMatrix, path, node_ids=None) -> None:
    """Membership rows plus home community and purity label per node."""
    cls = classify_nodes(pi)
    header = "node," + ",".join(f"pi_{k + 1}" for k in range(pi.K)) + ",home,label"
    lines = [header]
    for i in range(pi.n):
        node = node_ids[i] if node_ids is not None else i
        weights = ",".join(f"{w:.10g}" for w in pi.rows[i])
        lines.append(f"{node},{weights},{cls.home_community[i] + 1},{cls.label[i]}")
    _atomic_write(path, "\n".join(lines) + "\n")


def read_membership_csv(path) -> MembershipMatrix:
    try:
        with open(path) as handle:
            lines = [line.strip() for line in handle if line.strip()]
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    if not lines or not lines[0].startswith("node,pi_1"):
        raise ParseError(f"{path} is not a membership CSV")
    header = lines[0].split(",")
    k = sum(1 for name in header if name.startswith("pi_"))
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) < 1 + k:
            raise ParseError(f"line {lineno}: too few columns", line_number=lineno)
        try:
            weights = [float(x) for x in parts[1 : 1 + k]]
        except ValueError as exc:
            raise ParseError(
                f"line {lineno}: non-numeric membership weight", line_number=lineno
            ) from exc
        total = sum(weights)
        if not (math.isfinite(total) and total > 0):
            raise ParseError(
                f"line {lineno}: membership weights must have a positive finite sum",
                line_number=lineno,
            )
        rows.append(weights)
    if not rows:
        raise ParseError(f"{path} has no membership rows")
    arr = np.array(rows)
    arr = arr / arr.sum(axis=1, keepdims=True)
    return MembershipMatrix(rows=arr)


# ---------------------------------------------------------------------------
# SVG line charts


def render_line_chart(
    series,
    path,
    title: str = "",
    x_label: str = "",
    y_label: str = "",
) -> None:
    """Render named (x, y) series as an SVG line chart with a legend.

    ``series`` is a list of (name, x_values, y_values) triples.
    """
    if not series:
        raise ConfigError("at least one series is required")
    for name, xs, ys in series:
        if len(xs) != len(ys) or len(xs) == 0:
            raise ConfigError(f"series {name!r} needs equal-length nonempty x/y")

    width, height = 640, 420
    left, right, top, bottom = 70, 160, 40, 50

    all_x = [float(x) for _, xs, _ in series for x in xs]
    all_y = [float(y) for _, _, ys in series for y in ys]
    x_lo, x_hi = min(all_x), max(all_x)
    y_lo, y_hi = min(all_y), max(all_y)
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5

    def px(v):
        return left + (float(v) - x_lo) / (x_hi - x_lo) * (width - left - right)

    def py(v):
        return height - bottom - (float(v) - y_lo) / (y_hi - y_lo) * (height - top - bottom)

    palette = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{left}" y1="{height - bottom}" x2="{width - right}" '
        f'y2="{height - bottom}" stroke="black"/>',
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{height - bottom}" stroke="black"/>',
    ]
    if title:
        parts.append(
            f'<text x="{width / 2:.1f}" y="24" text-anchor="middle" '
            f'font-size="15">{title}</text>'
        )
    if x_label:
        parts.append(
            f'<text x="{(left + width - right) / 2:.1f}" y="{height - 12}" '
            f'text-anchor="middle" font-size="12">{x_label}</text>'
        )
    if y_label:
        parts.append(
            f'<text x="16" y="{(top + height - bottom) / 2:.1f}" font-size="12" '
            f'transform="rotate(-90 16 {(top + height - bottom) / 2:.1f})" '
            f'text-anchor="middle">{y_label}</text>'
        )
    for s_index, (name, xs, ys) in enumerate(series):
        color = palette[s_index % len(palette)]
        points = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        for x, y in zip(xs, ys):
            parts.append(
                f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" r="3" fill="{color}"/>'
            )
        legend_y = top + 16 * s_index
        parts.append(
            f'<line x1="{width - right + 12}" y1="{legend_y}" x2="{width - right + 36}" '
            f'y2="{legend_y}" stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{width - right + 42}" y="{legend_y + 4}" font-size="12">{name}</text>'
        )
    parts.append("</svg>")
    _atomic_write(path, "\n".join(parts) + "\n")


# ---------------------------------------------------------------------------
# Command line


class _Parser(argparse.ArgumentParser):
    """Argument parser that exits with status 1 on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _resolve_dataset(spec: str, data_dir: str) -> str:
    """Map a dataset name or path to an edge-list file."""
    if os.path.exists(spec):
        return spec
    key = spec.lower()
    patterns = DATASET_PATTERNS.get(key, (key,))
    if os.path.isdir(data_dir):
        for entry in sorted(os.listdir(data_dir)):
            lowered = entry.lower()
            if lowered.endswith((".edges", ".txt", ".csv")) and any(
                p in lowered for p in patterns
            ):
                return os.path.join(data_dir, entry)
    raise IoError(
        f"dataset {spec!r} not found (looked in {data_dir!r}); "
        "download it from https://manliodedomenico.com/data.php"
    )


def _parse_range(text: str) -> range:
    lo, dots, hi = text.partition("..")
    try:
        return range(int(lo), int(hi if dots else lo) + 1)
    except ValueError as exc:
        raise ConfigError(f"--range must be K or LO..HI in integers, got {text!r}") from exc


def _config_number(key: str, text: str, kind: type):
    try:
        return kind(text)
    except ValueError as exc:
        raise ConfigError(
            f"config key {key!r}: {text!r} is not a valid {kind.__name__}"
        ) from exc


def _parse_config_file(path: str) -> ExperimentConfig:
    values = {}
    try:
        with open(path) as handle:
            for lineno, line in enumerate(handle, start=1):
                text = line.strip()
                if not text or text.startswith("#"):
                    continue
                if "=" not in text:
                    raise ParseError(
                        f"line {lineno}: expected key=value", line_number=lineno
                    )
                key, _, value = text.partition("=")
                values[key.strip()] = value.strip()
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    accepted = [f.name for f in fields(ExperimentConfig)]
    unknown = [key for key in values if key not in accepted]
    if unknown:
        raise ConfigError(
            f"unknown config key {', '.join(map(repr, unknown))}; "
            f"accepted keys: {', '.join(accepted)}"
        )
    if values.get("sweep") == experiments.SWEEP_N and "n0" in values:
        raise ConfigError(
            "config key 'n0' has no effect under sweep=n: each point takes "
            f"n0 = n // {experiments.N_SWEEP_PURE_DIVISOR}"
        )
    try:
        kwargs = {"sweep": values["sweep"]}
        kwargs["sweep_values"] = tuple(
            _config_number(
                "sweep_values", v, float if "." in v or "e" in v.lower() else int
            )
            for v in values["sweep_values"].split(",")
        )
        for key in ("n", "L", "n0", "K", "repetitions", "base_seed"):
            if key in values:
                kwargs[key] = _config_number(key, values[key], int)
        if "rho" in values:
            kwargs["rho"] = _config_number("rho", values["rho"], float)
        if "methods" in values:
            kwargs["methods"] = tuple(m.strip() for m in values["methods"].split(","))
        return ExperimentConfig(**kwargs)
    except KeyError as exc:
        raise ConfigError(f"config file missing required key {exc}") from exc


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="mlmmsb",
        description="Mixed membership community detection for multi-layer networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # the options that name and read one network, shared by estimate and select-k
    network = argparse.ArgumentParser(add_help=False)
    network.add_argument("--data", required=True, help="dataset name or edge-list path")
    network.add_argument("--data-dir", default="data")
    network.add_argument("--method", default="spsum", choices=[m.lower() for m in METHODS])
    network.add_argument("--keep-weights", action="store_true")
    network.add_argument("--keep-self-loops", action="store_true")

    p = sub.add_parser("simulate", help="sample a network and save it")
    p.add_argument("--n", type=int, default=200)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--layers", type=int, default=20)
    p.add_argument("--rho", type=float, default=0.1)
    p.add_argument("--n0", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="edge-list output path")

    p = sub.add_parser(
        "estimate", parents=[network], help="estimate memberships for a dataset"
    )
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out-dir", default=".")

    p = sub.add_parser("experiment", help="run a simulation sweep")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--preset", choices=sorted(experiments.PRESETS))
    group.add_argument("--config", help="flat key=value config file")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--reps", type=int, default=None)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--out-dir", default=".")

    p = sub.add_parser("select-k", parents=[network], help="pick K by fuzzy modularity")
    p.add_argument("--range", default="2..6", help="inclusive range, e.g. 2..6")
    p.add_argument("--criterion", default="fsum", choices=["fsum", "fmean"])

    p = sub.add_parser("classify", help="purity report from a membership CSV")
    p.add_argument("--pi", required=True, help="membership CSV path")

    return parser


def _load_network(args) -> MultiplexData:
    path = _resolve_dataset(args.data, args.data_dir)
    data = read_multiplex_edges(
        path, binarize=not args.keep_weights, drop_self_loops=not args.keep_self_loops
    )
    # a file with lines can still hold no edge: self-loops are dropped, and
    # binarizing drops cells whose weights sum to <= 0
    net = data.network
    if not (any(a.nnz for a in net.layers) if net.csr else net.layers.any()):
        raise EmptyNetworkError(f"{path} has no edges")
    return data


def _cmd_simulate(args) -> int:
    pi = generate_membership(args.n, args.k, args.n0, args.seed)
    conn = generate_connectivity(args.k, args.layers, args.seed + 1, rho=args.rho)
    net = sample_mlmmsb(pi, conn, args.seed + 2)
    data = MultiplexData(network=net, node_ids=tuple(range(1, net.n + 1)))
    write_multiplex_edges(data, args.out)
    write_membership_csv(pi, args.out + ".membership.csv", data.node_ids)
    print(f"wrote {args.out} (n={net.n}, L={net.L}) and {args.out}.membership.csv")
    return 0


def _make_out_dir(path) -> None:
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot create output directory {path}: {exc}") from exc


def _cmd_estimate(args) -> int:
    _make_out_dir(args.out_dir)
    data = _load_network(args)
    result = estimate(build_aggregate(data.network, args.method), args.k, args.method)
    pi_path = os.path.join(args.out_dir, "membership.csv")
    map_path = os.path.join(args.out_dir, "nodes.csv")
    write_membership_csv(result.pi_hat, pi_path, data.node_ids)
    write_node_map(data, map_path)
    cls = classify_nodes(result.pi_hat)
    print(f"wrote {pi_path} and {map_path}")
    print(
        f"sigma_mixed={cls.sigma_mixed:.4f} sigma_pure={cls.sigma_pure:.4f} "
        f"upsilon={cls.upsilon:.4f}"
    )
    for note in result.diagnostics:
        print(f"note: {note}", file=sys.stderr)
    return 0


def _cmd_experiment(args) -> int:
    if args.threads < 1:
        raise ConfigError("--threads must be at least 1")
    if args.preset:
        cfg = experiments.preset(args.preset)
        stem = args.preset
    else:
        cfg = _parse_config_file(args.config)
        stem = os.path.splitext(os.path.basename(args.config))[0]
    overrides = {"base_seed": args.seed, "repetitions": args.reps}
    cfg = replace(cfg, **{k: v for k, v in overrides.items() if v is not None})
    # a directory that cannot be made fails here, not after the sweep
    _make_out_dir(args.out_dir)
    result = run_experiment(cfg)
    csv_path = os.path.join(args.out_dir, f"{stem}_results.csv")
    write_results_csv(result, csv_path)
    for which in ("hamming", "relative"):
        series = [
            (method, list(cfg.sweep_values), list(result.curve(method, which)))
            for method in sorted(cfg.methods)
        ]
        svg_path = os.path.join(args.out_dir, f"{stem}_{which}.svg")
        render_line_chart(
            series,
            svg_path,
            title=f"{which} error vs {cfg.sweep}",
            x_label=cfg.sweep,
            y_label=f"mean {which} error",
        )
    print(f"wrote {csv_path} and SVG charts to {args.out_dir}")
    return 0


def _cmd_select_k(args) -> int:
    k_values = _parse_range(args.range)
    data = _load_network(args)
    selection = estimate_k(data.network, args.method, k_values, args.criterion)
    for k in sorted(selection.scores):
        print(f"K={k}: {selection.scores[k]:.4f}")
    for k, reason in sorted(selection.failures.items()):
        print(f"K={k}: failed ({reason})", file=sys.stderr)
    print(f"({selection.best_k}, {selection.best_score:.4f})")
    return 0


def _cmd_classify(args) -> int:
    pi = read_membership_csv(args.pi)
    cls = classify_nodes(pi)
    print(f"sigma_mixed={cls.sigma_mixed:.4f}")
    print(f"sigma_pure={cls.sigma_pure:.4f}")
    print(f"upsilon={cls.upsilon:.4f}")
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "estimate": _cmd_estimate,
    "experiment": _cmd_experiment,
    "select-k": _cmd_select_k,
    "classify": _cmd_classify,
}


def cli_main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (MlmmsbError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
