"""Regenerate ``reference.json``: one reference op per workload and input seed.

Usage (from the repository root): ``python3 perfbench/make_reference.py
[workload ...]``. Each record holds the SHA-256 of the generated inputs and
the outputs the checks compare against. Run it only at a commit whose
outputs are trusted; every op's independent checks must pass for a record
to be written.
"""

import json
import os
import shutil
import sys
import time

import run
from inputs import N_INPUT_SEEDS


def main(workloads) -> int:
    try:
        with open(run.REFERENCE_PATH, encoding="utf-8") as fh:
            reference = json.load(fh)
    except FileNotFoundError:
        reference = {}
    for workload in workloads:
        table = reference.setdefault(workload, {})
        for seed in range(N_INPUT_SEEDS):
            work_dir = os.path.join(run.ROOT, ".perfbench_work", f"reference-{workload}-{seed}")
            try:
                job, hashes = run.make_inputs(workload, seed, work_dir)
                job.update(workload=workload, root=run.ROOT, work_dir=work_dir, mode="reference")
                result = run.run_worker(job, work_dir, "reference", time.monotonic() + 600)
            finally:
                shutil.rmtree(work_dir, ignore_errors=True)
            if result["errors"]:
                print(f"{workload} seed {seed}: {result['errors']}", file=sys.stderr)
                return 1
            table[str(seed)] = {"sha256": hashes, **result["record"]}
            print(f"{workload} seed {seed}: {result['record']}", flush=True)
    with open(run.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or run.WORKLOADS))
