"""Build one workload input in a fresh interpreter.

Usage, from the repository root:
    python3 perfbench/setup_inputs.py <workload> <seed> <index> <input-dir>

``run.py`` times this whole process, interpreter start and package import
included, as the workload's set-up.
"""

import os
import sys


def main(argv) -> int:
    workload, seed, index, input_dir = argv
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import workloads

    os.makedirs(input_dir, exist_ok=True)
    workloads.WORKLOADS[workload].setup(int(seed), int(index), input_dir)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
