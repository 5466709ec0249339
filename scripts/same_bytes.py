#!/usr/bin/env python3
"""Write every CLI output that a same-bytes change must keep, for ``diff -r``.

    python3 scripts/same_bytes.py OUT_DIR [--src SRC]

Runs ``python -m mlmmsb`` with SRC (default: this checkout's ``src/``) on
PYTHONPATH and writes into OUT_DIR:

- ``simulate`` output: a dense input (n=600, L=20), a Lanczos input
  (n=2100 > 2048, L=4) and an input of n=257, one row past the sampler's
  second 128-row slab;
- ``estimate`` membership and node CSVs: all three methods on the dense
  and on the Lanczos input, spdsos and spsos at ``--k 5`` on the Lanczos
  input, where lambda_K lies in the noise bulk and the Lanczos solve
  takes the most steps to settle the K/K+1 gap, the self-loop,
  duplicate-line, weighted and zero/negative-weight files, which the
  script derives from the dense input, spdsos with ``--keep-weights`` on
  the weighted file, and spdsos on two renumberings of the Lanczos input:
  one with node ids 1000..3099 (contiguous, mapped by offset) and one with
  node ids 3v + 10**12 and layer ids l * 10**9 (gapped, mapped by search);
- ``estimate`` on the same three variants derived from the Lanczos input,
  which read into CSR layers: spsos, spdsos and spsum with
  ``--keep-weights`` on the weighted file, spdsos with and without
  ``--keep-self-loops`` on the self-loop and duplicate-line file, and spdsos
  on the zero/negative-weight file, binarised and with ``--keep-weights``
  (exit 2);
- ``select-k`` stdout for spdsos fmean, spsos fsum, and weighted spsum fmean
  and spdsos fmean on the dense input, spdsos fmean, spsum fsum and spsum
  fmean on the Lanczos input, spdsos fmean with ``--keep-weights`` on its
  weighted variant, spdsos fsum on its offset renumbering and spsum fsum on
  its gapped one;
- ``experiment --preset exp1-scaled --reps 2`` CSVs and SVGs at seeds 0, 7
  and 20240403;
- ``experiment --config`` CSVs and SVGs for a small n sweep, a small L
  sweep whose values include the integral float 8.0, a small rho sweep
  that runs SPSoS before SPDSoS, and an n sweep across the dense limit
  (n=2000 and 2100, L=4) where SPDSoS and SPSoS share one square, formed
  below the limit and matrix-free above it, and SPSum's sum of the sampled
  dense stack is formed below the limit and a CSR array from one scan of
  that stack above it, which the script writes as
  ``sweep-n.cfg``, ``sweep-L.cfg``, ``sweep-rho.cfg`` and
  ``sweep-n-limit.cfg``;
- ``classify`` stdout for the dense spdsos estimate's membership CSV;

plus each command's stdout, stderr and exit code in ``<name>.out``,
``.err`` and ``.exit``. Every command runs inside OUT_DIR with relative
paths, so the ``wrote ...`` lines name the same files on every checkout.
The script calls only the CLI, so it runs against any revision's ``src/``:

    python3 scripts/same_bytes.py /tmp/change
    python3 scripts/same_bytes.py /tmp/parent --src ../parent/src
    diff -r /tmp/parent /tmp/change
"""

import argparse
import os
import subprocess
import sys

SEEDS = (0, 7, 20240403)


def edges_of(lines):
    return [line.split()[:3] for line in lines if line.strip()]


def weighted(lines):
    """Every edge of an edge list with a weight in 0.25..3, as a list of lines."""
    return [f"{' '.join(e)} {(i * 37 % 11 + 1) / 4:g}" for i, e in enumerate(edges_of(lines))]


def renumbered(lines, layer_of, node_of):
    """The edges of an edge list with layer l written as layer_of(l) and node
    v as node_of(v), as a list of lines."""
    return [f"{layer_of(int(l))} {node_of(int(u))} {node_of(int(v))}"
            for l, u, v in edges_of(lines)]


def derived_inputs(lines, n, layers, suffix=""):
    """Self-loop and duplicate-line, weighted and zero/negative-weight
    variants of an input of n nodes and the given layer count, each as a
    list of lines, named ``loops<suffix>.edges`` and so on."""
    edges = edges_of(lines)
    loops = [" ".join(e) for e in edges]
    loops += [f"{1 + v % layers} {v} {v}" for v in range(1, n + 1, 7)]  # self-loops
    loops += loops[::5]  # duplicate lines
    signed = [f"{' '.join(e)} {(-1, 0, 0.5, 2)[i % 4]:g}" for i, e in enumerate(edges)]
    return {f"loops{suffix}.edges": loops, f"weighted{suffix}.edges": weighted(lines),
            f"signed{suffix}.edges": signed}


CONFIGS = {
    # n0 is left out: an n sweep takes n0 = n // 4 at each point, and a
    # config that sets it is refused
    "n": ["sweep=n", "sweep_values=60,90", "L=4", "repetitions=2", "methods=spdsos, spsum"],
    # an integral float on an integer axis runs as that integer
    "L": ["sweep=L", "sweep_values=4,8.0", "n=60", "n0=15", "repetitions=2",
          "methods=spdsos, spsum"],
    # SPSoS takes the shared square first, then SPDSoS zeroes a copy of it
    "rho": ["sweep=rho", "sweep_values=0.1,0.3", "n=80", "L=6", "n0=20", "repetitions=2",
            "methods=spsos, spdsos"],
    # one square per network on both sides of the dense limit (2048), and
    # SPSum's sum formed below it and scanned from the sampled stack above
    "n-limit": ["sweep=n", "sweep_values=2000,2100", "L=4", "repetitions=1",
                "methods=spdsos, spsos, spsum"],
}

SIMULATIONS = [
    ("simulate-dense", ["simulate", "--n", "600", "--k", "3", "--layers", "20",
                        "--n0", "100", "--seed", "1", "--out", "dense.edges"]),
    ("simulate-lanczos", ["simulate", "--n", "2100", "--k", "3", "--layers", "4",
                          "--n0", "300", "--seed", "2", "--out", "lanczos.edges"]),
    ("simulate-slab-edge", ["simulate", "--n", "257", "--k", "3", "--layers", "6",
                            "--n0", "40", "--seed", "3", "--out", "slab-edge.edges"]),
]

ESTIMATES = [
    ("dense", "spdsos", []),
    ("dense", "spsos", []),
    ("dense", "spsum", []),
    ("lanczos", "spdsos", []),
    ("lanczos", "spsos", []),
    ("lanczos", "spsum", []),
    ("lanczos", "spdsos", ["--k", "5"]),
    ("lanczos", "spsos", ["--k", "5"]),
    ("weighted-lanczos", "spsos", ["--keep-weights"]),
    ("weighted-lanczos", "spdsos", ["--keep-weights"]),
    ("weighted-lanczos", "spsum", ["--keep-weights"]),
    ("loops-lanczos", "spdsos", []),
    ("loops-lanczos", "spdsos", ["--keep-self-loops"]),
    ("signed-lanczos", "spdsos", []),
    ("signed-lanczos", "spdsos", ["--keep-weights"]),
    ("offset-lanczos", "spdsos", []),
    ("gapped-lanczos", "spdsos", []),
    ("loops", "spsos", ["--keep-self-loops"]),
    ("loops", "spdsos", []),
    ("weighted", "spsum", ["--keep-weights", "--keep-self-loops"]),
    ("weighted", "spsos", ["--keep-weights"]),
    ("weighted", "spdsos", []),
    ("weighted", "spdsos", ["--keep-weights"]),
    ("signed", "spdsos", []),
    ("signed", "spdsos", ["--keep-weights"]),
]

SELECTIONS = [
    ("dense", "spdsos", "fmean", []),
    ("dense", "spsos", "fsum", []),
    ("weighted", "spsum", "fmean", ["--keep-weights"]),
    ("weighted", "spdsos", "fmean", ["--keep-weights"]),
    ("lanczos", "spdsos", "fmean", []),
    ("lanczos", "spsum", "fsum", []),
    ("lanczos", "spsum", "fmean", []),
    ("weighted-lanczos", "spdsos", "fmean", ["--keep-weights"]),
    ("offset-lanczos", "spdsos", "fsum", []),
    ("gapped-lanczos", "spsum", "fsum", []),
]


def commands():
    """(name, CLI arguments) of every run after the simulations."""
    for data, method, flags in ESTIMATES:
        name = "-".join(["estimate", data, method] + [f.strip("-") for f in flags])
        k = [] if "--k" in flags else ["--k", "3"]
        yield name, ["estimate", "--data", f"{data}.edges", "--method", method, *k,
                     "--out-dir", name] + flags
    for data, method, criterion, flags in SELECTIONS:
        yield f"select-k-{data}-{method}-{criterion}", [
            "select-k", "--data", f"{data}.edges", "--method", method,
            "--criterion", criterion, "--range", "2..6"] + flags
    for seed in SEEDS:
        yield f"experiment-{seed}", ["experiment", "--preset", "exp1-scaled", "--reps", "2",
                                     "--seed", str(seed), "--out-dir", f"exp-{seed}"]
    for axis in CONFIGS:
        yield f"experiment-config-{axis}", ["experiment", "--config", f"sweep-{axis}.cfg",
                                            "--out-dir", f"exp-config-{axis}"]
    yield "classify-dense-spdsos", ["classify", "--pi",
                                    os.path.join("estimate-dense-spdsos", "membership.csv")]


def run(name, argv, env):
    """Run the CLI in the current directory and keep what it printed."""
    proc = subprocess.run(
        [sys.executable, "-m", "mlmmsb"] + argv, capture_output=True, text=True, env=env
    )
    for suffix, text in ((".out", proc.stdout), (".err", proc.stderr),
                         (".exit", f"{proc.returncode}\n")):
        with open(name + suffix, "w") as handle:
            handle.write(text)
    print(f"{name}: exit {proc.returncode}")


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("out_dir")
    parser.add_argument(
        "--src", default=os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    )
    args = parser.parse_args()
    env = dict(os.environ, PYTHONPATH=os.path.abspath(args.src))
    os.makedirs(args.out_dir, exist_ok=True)
    os.chdir(args.out_dir)
    for name, argv in SIMULATIONS:
        run(name, argv, env)
    with open("dense.edges") as handle:
        inputs = derived_inputs(handle.readlines(), 600, 20)
    with open("lanczos.edges") as handle:
        lanczos_lines = handle.readlines()
    inputs.update(derived_inputs(lanczos_lines, 2100, 4, "-lanczos"))
    inputs["offset-lanczos.edges"] = renumbered(lanczos_lines, int, lambda v: v + 999)
    inputs["gapped-lanczos.edges"] = renumbered(
        lanczos_lines, lambda l: l * 10**9, lambda v: 3 * v + 10**12
    )
    for axis, lines in CONFIGS.items():
        inputs[f"sweep-{axis}.cfg"] = lines
    for path, lines in inputs.items():
        with open(path, "w") as handle:
            handle.write("\n".join(lines) + "\n")
    for name, argv in commands():
        run(name, argv, env)
    return 0


if __name__ == "__main__":
    sys.exit(main())
