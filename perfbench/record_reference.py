"""Record the reference values that the benchmark's output checks compare with.

Usage, from the repository root:
    python3 perfbench/record_reference.py

Writes perfbench/reference.json:
- ``sweep.rows``: (method, rho, hamming_mean, relative_mean) of the results
  CSV for the reference seed;
- ``select-k``: scores, best K and the K=3 fit error on the reference network;
- ``estimate-file.hamming_ceiling``: 1.5 times the largest error against the
  planted memberships over set-up inputs of seeds 0-4.

Re-record only in a change that means to move these outputs, and say so.
"""

import json
import os
import shutil
import sys
import tempfile


def main() -> int:
    from run import _limit_blas_threads

    _limit_blas_threads()
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import workloads

    reference = {}
    workdir = tempfile.mkdtemp(dir=os.getcwd(), prefix=".perfbench_reference-")
    try:
        sweep = workloads.Sweep(0, workdir)
        check = workloads.Check(sweep.rows)
        rows = sweep._parse_rows(sweep.reference_outcome(), check)
        if check.errors:
            raise SystemExit(f"reference sweep invalid: {check.errors}")
        reference["sweep"] = {"rows": [list(row) for row in rows]}

        select = workloads.SelectK(0, workdir)
        selection, hamming = select.reference_result()
        reference["select-k"] = {
            "best_k": selection.best_k,
            "scores": [selection.scores[k] for k in select.K_RANGE],
            "hamming": hamming,
        }

        errors = []
        for seed in range(5):
            input_dir = os.path.join(workdir, f"seed-{seed}")
            os.makedirs(input_dir)
            workloads.EstimateFile.setup(seed, 0, input_dir)
            est = workloads.EstimateFile(seed, workdir)
            est.load([input_dir])
            outcome = est.collect(est.run(0))
            errors.append(est.hamming(0, outcome))
        reference["estimate-file"] = {
            "hamming_seen": errors,
            "hamming_ceiling": round(1.5 * max(errors), 4),
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(workloads.REFERENCE_PATH, "w") as handle:
        json.dump(reference, handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
