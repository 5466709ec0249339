"""Benchmark of the mlmmsb pipeline: end-to-end metrics or per-layer trace.

Usage, from the repository root:
    python3 perfbench/run.py --workload {sweep,estimate-file,select-k} \
        --seed N --seconds S --trace {0,1}

One process, one caller, passes run back to back (a closed loop). Set-up
builds the workload's inputs from the seed in a fresh interpreter, five
times; then one untimed warm-up pass, then timed passes until ``--seconds``
have passed, then a check against values recorded in reference.json.

``--trace 0`` reports the end-to-end metrics; one more pass, in a forked
child, gives the peak memory of a pass. ``--trace 1`` alternates
untraced passes with traced ones, in which the package's public functions
are wrapped to record one span per call (see tracing.py), and reports the
per-layer metrics; a separate pass under ``tracemalloc`` gives the memory
peaks. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. See README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 5
MIN_PASSES = 3
M_MMAP_THRESHOLD = -3  # glibc malloc.h
SETUP_TIMEOUT_S = 150
GEMM_PROBE_S = 0.3
WRITE_SPANS = (
    "io_cli.write_results_csv",
    "io_cli.render_line_chart",
    "io_cli.write_membership_csv",
    "io_cli.write_node_map",
)


def _limit_blas_threads() -> int:
    """Cap the BLAS pool at the usable cores; must run before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    requested = os.environ.get("OPENBLAS_NUM_THREADS", "")
    threads = min(nproc, int(requested)) if requested.isdigit() and int(requested) > 0 else nproc
    os.environ["OPENBLAS_NUM_THREADS"] = str(threads)
    return nproc


def _blas_threads_in_use() -> dict:
    """Thread count reported by every OpenBLAS library loaded in this process."""
    paths = set()
    with open("/proc/self/maps") as maps:
        for line in maps:
            parts = line.split()
            if len(parts) >= 6 and "openblas" in os.path.basename(parts[5]):
                paths.add(parts[5])
    found = {}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                found[os.path.basename(path)] = fn()
                break
    return found


def _l3_size() -> str:
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for entry in sorted(os.listdir(base)):
            with open(os.path.join(base, entry, "level")) as handle:
                if handle.read().strip() == "3":
                    with open(os.path.join(base, entry, "size")) as handle:
                        return handle.read().strip()
    except OSError:
        pass
    return "unknown"


def machine_record(nproc: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "nproc": nproc,
        "cpu": cpu,
        "l3": _l3_size(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "blas_threads": _blas_threads_in_use(),
    }


class Tally:
    """Attempted and failed operations, with the messages of the failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def add(self, check) -> None:
        self.attempted += check.attempted
        self.failed += check.failed
        self.errors.extend(check.errors)

    def fail(self, units: int, message: str) -> None:
        self.attempted += units
        self.failed += units
        self.errors.append(message)


def timed(fn):
    cpu0 = os.times()
    start = time.perf_counter()
    value = fn()
    wall = time.perf_counter() - start
    cpu1 = os.times()
    return value, wall, (cpu1.user - cpu0.user) + (cpu1.system - cpu0.system)


def set_up(workload: str, seed: int, workdir: str) -> tuple[list[str], list[float]]:
    """Build the inputs SETUP_REPEATS times, each in a fresh interpreter."""
    dirs, seconds = [], []
    for index in range(SETUP_REPEATS):
        input_dir = os.path.join(workdir, f"input-{index}")
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_inputs.py"), workload, str(seed), str(index), input_dir],
            check=True,
            timeout=SETUP_TIMEOUT_S,
        )
        seconds.append(time.perf_counter() - start)
        dirs.append(input_dir)
    return dirs, seconds


def _status_kib(field: str) -> int:
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise RuntimeError(f"{field} missing from /proc/self/status")


def pass_peak_mb(wl, p: int) -> float:
    """Peak RSS of pass p above the RSS at its start, in MiB.

    The pass runs in a forked child, whose peak RSS starts at its RSS when
    forked, so the memory the parent holds for other inputs and earlier
    passes adds nothing. Free heap memory is returned to the system before
    the fork, so the pass cannot reuse pages left resident by earlier
    passes. In the child, glibc's mmap threshold is fixed at its initial
    128 KiB: the threshold otherwise adapts to the process's history, and
    the same pass then peaks at one of two levels a layer stack apart. Both
    OpenBLAS libraries stop their thread pools in an atfork handler, so the
    process has one thread when it forks.
    """
    gc.collect()
    libc = ctypes.CDLL("libc.so.6")
    libc.malloc_trim.argtypes = [ctypes.c_size_t]
    libc.malloc_trim.restype = ctypes.c_int
    libc.mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    libc.mallopt.restype = ctypes.c_int
    libc.malloc_trim(0)
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            if not libc.mallopt(M_MMAP_THRESHOLD, 128 * 1024):
                raise RuntimeError("mallopt(M_MMAP_THRESHOLD) failed")
            start = _status_kib("VmRSS")
            wl.run(p)
            os.write(write_fd, str(_status_kib("VmHWM") - start).encode())
            code = 0
        except Exception:  # noqa: BLE001 - reported by the parent as a failed pass
            traceback.print_exc()
        finally:
            sys.stderr.flush()
            os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd) as pipe:
        text = pipe.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not text:
        raise RuntimeError(f"memory pass {p} failed in its child process (status {status})")
    return int(text) / 1024


def run_untraced(wl, seconds: float, tally: Tally) -> dict:
    tally.add(wl.check(0, wl.collect(wl.run(0))))  # warm-up
    walls, hammings = [], {}
    deadline = time.perf_counter() + seconds
    p = 1
    while p <= MIN_PASSES or time.perf_counter() < deadline:
        handle, wall, _ = timed(lambda: wl.run(p))
        check = wl.check(p, wl.collect(handle))
        tally.add(check)
        walls.append(wall)
        if not check.failed:
            hammings[wl.input_key(p)] = check.hamming
        p += 1
    return {"walls": walls, "hammings": hammings, "peak_mb": pass_peak_mb(wl, 1)}


def run_traced(wl, seconds: float, tally: Tally) -> dict:
    """Pairs of untraced and traced passes on the same inputs, order alternating."""
    import tracing

    tally.add(wl.check(0, wl.collect(wl.run(0))))  # warm-up
    tracer = tracing.Tracer()

    def traced_pass(p):
        tracer.pass_id = p
        with tracing.instrument(tracer), tracer.span("pass"):
            return wl.run(p)

    pairs = []
    deadline = time.perf_counter() + seconds
    p = 1
    while p <= MIN_PASSES or time.perf_counter() < deadline:
        runs = {}
        for mode in (("untraced", "traced") if p % 2 else ("traced", "untraced")):
            fn = (lambda: wl.run(p)) if mode == "untraced" else (lambda: traced_pass(p))
            handle, wall, cpu = timed(fn)
            tally.add(wl.check(p, wl.collect(handle)))
            runs[mode] = (wall, cpu)
        pairs.append({
            "untraced_s": runs["untraced"][0],
            "cpu_s": runs["untraced"][1],
            "summary": tracer.pass_summary(p),
        })
        p += 1

    memory = tracing.MemoryRecorder()
    tracemalloc.start()
    try:
        with tracing.instrument(memory):
            wl.run(1)
    finally:
        tracemalloc.stop()
    return {"pairs": pairs, "peaks_mb": dict(memory.peaks_mb), "tracer": tracer}


def gemm_probe_gflop_per_s(n: int) -> float:
    """Rate of one plain n x n float64 GEMM, median over repeats."""
    import numpy as np

    a = np.random.default_rng(0).random((n, n))
    b = np.random.default_rng(1).random((n, n))
    rates = []
    stop = time.perf_counter() + GEMM_PROBE_S
    while len(rates) < 3 or time.perf_counter() < stop:
        start = time.perf_counter()
        a @ b
        rates.append(2.0 * n**3 / (time.perf_counter() - start) / 1e9)
    return statistics.median(rates)


def per_layer_metrics(traced: dict, gemm_rate: float) -> dict:
    pairs = traced["pairs"]
    peaks = traced["peaks_mb"]
    summaries = [pair["summary"] for pair in pairs]
    med = statistics.median

    def seconds(*names):
        return med([sum(s["totals"].get(name, 0.0) for name in names) for s in summaries])

    def calls(name):
        return med([s["calls"].get(name, 0) for s in summaries])

    def rate(numerator, *names):
        values = []
        for s in summaries:
            busy = sum(s["totals"].get(name, 0.0) for name in names)
            values.append(s["counters"].get(numerator, 0.0) / busy if busy > 0 else 0.0)
        return med(values)

    squares = ("aggregate.build_ssum_debiased", "aggregate.build_sos")
    m = {
        "model.sample_mlmmsb.s": (seconds("model.sample_mlmmsb"), "s"),
        "model.sample_mlmmsb.calls": (calls("model.sample_mlmmsb"), "count"),
        "model.sample_mlmmsb.peak_mb": (peaks.get("model.sample_mlmmsb", 0.0), "MB"),
        "model.expected_adjacency.s": (seconds("model.expected_adjacency"), "s"),
        "aggregate.build_asum.s": (seconds("aggregate.build_asum"), "s"),
    }
    for name in squares:
        m[name + ".s"] = (seconds(name), "s")
        m[name + ".calls"] = (calls(name), "count")
        m[name + ".peak_mb"] = (peaks.get(name, 0.0), "MB")
    m["aggregate.square_gflop"] = (
        med([s["counters"].get("square_flop", 0.0) / 1e9 for s in summaries]),
        "GFLOP",
    )
    m["aggregate.square_gflop_per_s"] = (rate("square_flop", *squares) / 1e9, "GFLOP/s")
    m["aggregate.gemm_probe_gflop_per_s"] = (gemm_rate, "GFLOP/s")
    for branch in ("dense", "lanczos"):
        name = "aggregate.top_k_eigen." + branch
        m[f"aggregate.top_k_eigen.{branch}_s"] = (seconds(name), "s")
        m[f"aggregate.top_k_eigen.{branch}_calls"] = (calls(name), "count")
    for name in (
        "simplex.successive_projection",
        "simplex.estimate_memberships",
        "metrics.membership_errors",
        "metrics.q_fmean",
        "io_cli.read_multiplex_edges",
    ):
        m[name + ".s"] = (seconds(name), "s")
    read = "io_cli.read_multiplex_edges"
    m[read + ".edges"] = (med([s["counters"].get("edges", 0.0) for s in summaries]), "count")
    m[read + ".edges_per_s"] = (rate("edges", read), "edges/s")
    m[read + ".peak_mb"] = (peaks.get(read, 0.0), "MB")
    m["io_cli.write_outputs.s"] = (seconds(*WRITE_SPANS), "s")
    m["trace.overhead_s"] = (
        med([s["wall"] for s in summaries]) - med([p["untraced_s"] for p in pairs]),
        "s",
    )
    m["trace.unattributed_s"] = (med([s["wall"] - s["attributed"] for s in summaries]), "s")
    m["trace.attributed_share"] = (med([s["attributed"] / s["wall"] for s in summaries]), "fraction")
    m["process.cpu_s"] = (med([p["cpu_s"] for p in pairs]), "s")
    return m


def end_to_end_metrics(untraced: dict, setup_seconds: list[float]) -> dict:
    hammings = list(untraced["hammings"].values())
    return {
        "setup_s": (statistics.median(setup_seconds), "s"),
        "wall_s": (statistics.median(untraced["walls"]), "s"),
        "peak_rss_mb": (untraced["peak_mb"], "MB"),
        # 2 is the largest possible error, reported when no pass was valid
        "hamming_mean": (statistics.fmean(hammings) if hammings else 2.0, "l1/node"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "estimate-file", "select-k"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "mlmmsb", "__init__.py")):
        print("error: src/mlmmsb not found; run from the repository root", file=sys.stderr)
        return 2
    nproc = _limit_blas_threads()
    sys.path.insert(0, os.path.join(root, "src"))
    import workloads

    workdir = os.path.join(root, ".perfbench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        input_dirs, setup_seconds = set_up(args.workload, args.seed, workdir)
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        wl.load(input_dirs)
        tally = Tally()
        if args.trace:
            traced = run_traced(wl, args.seconds, tally)
            metrics = per_layer_metrics(traced, gemm_probe_gflop_per_s(wl.n))
            passes = len(traced["pairs"])
        else:
            untraced = run_untraced(wl, args.seconds, tally)
            metrics = end_to_end_metrics(untraced, setup_seconds)
            passes = len(untraced["walls"])
            walls = sorted(untraced["walls"])
        tally.add(wl.reference_check())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        out_dir = os.path.join(root, ".perfbench_out")
        os.makedirs(out_dir, exist_ok=True)
        traced["tracer"].write(os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.json"))
    for message in tally.errors:
        print(f"check failed: {message}", file=sys.stderr)
    print(json.dumps({"machine": machine_record(nproc)}))
    kind = "traced pass pairs" if args.trace else "timed passes"
    print(f"{args.workload} seed={args.seed}: {passes} {kind}, {SETUP_REPEATS} set-ups")
    if not args.trace:
        print(f"  pass wall min/median/max = {walls[0]:.4f}/{statistics.median(walls):.4f}/{walls[-1]:.4f} s")
        print(f"  set-up s = {' '.join(f'{x:.4f}' for x in setup_seconds)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(f"  error_rate = {tally.failed}/{tally.attempted} operations failed")
    print(json.dumps({
        "correct": tally.failed == 0 and not tally.errors,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
