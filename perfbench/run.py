"""gbtscore benchmark: four seeded workloads, end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload fit_csv --seed 0 --seconds 20 --trace 0

Workloads: fit_csv, solve_beta, audit, sweep_sparsity (see RATIONALE.md).
The program is imported from ``src/``. This process generates the inputs with
its own numpy code, measures set-up in fresh processes, runs the op loop in
one more fresh process (``worker.py``) and checks every op's output.

``--trace 0`` reports the end-to-end metrics: ``setup_s``, ``op_s.p50`` and
``peak_rss_mb``. Set-up and op times are scaled to a fixed reference machine
speed by a calibration kernel timed next to them (``calibrate.py``); the
record keeps the wall times as measured. ``--trace 1`` runs half the time untraced and half with the
outside-in span wrappers of ``spans.py``, and reports the per-layer metrics
and ``trace.overhead_s``. The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``. Lines before it
give a readable summary and a JSON record of the environment, the input
hashes and every op; the record is also written to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import calibrate  # noqa: E402

WORKLOADS = ("fit_csv", "solve_beta", "audit", "sweep_sparsity")
SETUP_SAMPLES = 3  # set-up is timed in this many fresh processes, the op process included
DEADLINE_S = 170.0  # every run ends (or gives up) well inside 180 s
AUDIT_PROBES = 100


def environment() -> dict:
    """What the numbers depend on, read only; no machine setting is changed."""
    import platform

    import numpy
    import scipy

    def read(path):
        try:
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        except OSError:
            return None

    try:
        commit = subprocess.run(["git", "--git-dir", os.path.join(ROOT, ".git"), "rev-parse", "HEAD"],
                                capture_output=True, text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    cpuinfo = read("/proc/cpuinfo") or ""
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                  if line.startswith("model name")), None)
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else ():
        level, kind = read(f"{base}/{index}/level"), read(f"{base}/{index}/type")
        if level and kind:
            caches[f"L{level}-{kind}"] = read(f"{base}/{index}/size")
    return {
        "git_commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": model,
        "caches": caches,
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def make_inputs(workload: str, seed: int, work_dir: str) -> tuple[dict, dict]:
    """Write the workload's inputs; returns (job fields, SHA-256 of each input)."""
    import inputs

    os.makedirs(work_dir, exist_ok=True)
    job = {"input_seed": inputs.input_seed(seed)}
    files = {}
    if workload == "fit_csv":
        data = inputs.fit_dataset(seed)
        files["csv"] = ("comparisons.csv", inputs.csv_bytes(data, seed))
    elif workload == "audit":
        data = inputs.audit_dataset(seed)
        files["csv"] = ("comparisons.csv", inputs.csv_bytes(data, seed))
        job["probes"] = AUDIT_PROBES
    elif workload == "solve_beta":
        data = inputs.solve_dataset(seed)
        job["beta"] = inputs.SOLVE_BETA
    else:
        first, last = inputs.sweep_seeds(seed)
        job.update(a=inputs.SWEEP_A, seeds=f"{first}..{last}")
        return job, {}
    files["arrays"] = ("comparisons.npy", inputs.arrays_bytes(data))
    hashes = {}
    for key, (name, blob) in files.items():
        path = os.path.join(work_dir, name)
        with open(path, "wb") as fh:
            fh.write(blob)
        job[key] = path
        hashes[name] = inputs.sha256(blob)
    return job, hashes


REFERENCE_PATH = os.path.join(BENCH_DIR, "reference.json")


def load_reference(workload: str, input_seed: int) -> dict | None:
    try:
        with open(REFERENCE_PATH, encoding="utf-8") as fh:
            return json.load(fh).get(workload, {}).get(str(input_seed))
    except FileNotFoundError:
        return None


def run_worker(job: dict, work_dir: str, tag: str, deadline: float) -> dict:
    """Run worker.py on ``job`` in a fresh process and return its result."""
    job = dict(job, result_path=os.path.join(work_dir, f"{tag}.result.json"))
    job_path = os.path.join(work_dir, f"{tag}.job.json")
    with open(job_path, "w", encoding="utf-8") as fh:
        json.dump(job, fh)
    proc = subprocess.run([sys.executable, os.path.join(BENCH_DIR, "worker.py"), job_path],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=max(deadline - time.monotonic(), 1.0))
    if proc.returncode != 0:
        raise RuntimeError(f"worker ({tag}) exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
    with open(job["result_path"], encoding="utf-8") as fh:
        return json.load(fh)


def at_reference_speed(times: list, cals: list) -> list:
    """Each time scaled by the calibration kernel's speed around it (``calibrate.py``)."""
    return [t * calibrate.REFERENCE_S / c for t, c in zip(times, cals)]


def per_layer_unit(name: str) -> str:
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    return "flop" if name.endswith("flops_computed") else "count"


def measure(workload: str, seed: int, seconds: float, trace: bool, work_dir: str,
            deadline: float) -> tuple[dict, dict]:
    """Run one benchmark; returns (result line, record)."""
    job, hashes = make_inputs(workload, seed, work_dir)
    reference = load_reference(workload, job["input_seed"])
    errors = []
    if reference is None:
        errors.append(f"no reference outputs for input seed {job['input_seed']}")
    elif reference.get("sha256", {}) != hashes:
        errors.append("generated inputs differ from the reference inputs")
        reference = None
    job.update(workload=workload, root=ROOT, work_dir=work_dir, seconds=seconds,
               trace=trace, reference=reference,
               spans_path=os.path.join(ROOT, ".perfbench_out", f"{workload}.spans.jsonl"))
    os.makedirs(os.path.dirname(job["spans_path"]), exist_ok=True)

    setup_runs = []
    if not trace:
        # the first set-up process also runs one op, untimed, for peak_rss_mb
        for k, mode in enumerate(["peak"] + ["setup"] * (SETUP_SAMPLES - 2)):
            setup_runs.append(run_worker(dict(job, mode=mode), work_dir, f"setup{k}", deadline))
    result = run_worker(dict(job, mode="run"), work_dir, "run", deadline)
    setup_runs.append(result)
    raw_setups = [r["setup_s"] for r in setup_runs]
    setup_cals = [r["setup_cal_s"] for r in setup_runs]
    setups = at_reference_speed(raw_setups, setup_cals)

    raw_times, failures = result["times"], result["failures"]
    times = at_reference_speed(raw_times, result["cal_s"])
    attempted = len(times)
    if not trace:
        failures = setup_runs[0]["failures"] + failures
        attempted += 1
    record = {"workload": workload, "seed": seed, "input_seed": job["input_seed"],
              "seconds": seconds, "trace": trace, "inputs_sha256": hashes,
              "environment": environment(), "work_per_op": result["work"],
              "setup_s_samples": setups, "op_s": times, "raw_setup_s_samples": raw_setups,
              "setup_calibration_s": setup_cals,
              "raw_op_s": raw_times, "calibration_s": result["cal_s"], "failures": failures}
    if trace:
        traced = at_reference_speed(result["traced_times"], result["traced_cal_s"])
        attempted += len(traced)
        metrics = {name: {"value": value, "unit": per_layer_unit(name)}
                   for name, value in result["layers"].items()}
        metrics["trace.overhead_s"] = {
            "value": statistics.median(traced) - statistics.median(times), "unit": "s"}
        metrics["op_wall_s.p50"] = {"value": statistics.median(raw_times), "unit": "s"}
        metrics["calibration.kernel_s"] = {
            "value": statistics.median(result["cal_s"] + result["traced_cal_s"]), "unit": "s"}
        for op, (wall, total) in result["balance"].items():
            if abs(wall - total) > 1e-6 + 1e-9 * result["span_count"]:
                errors.append(f"op {op}: span self times sum to {total!r}, wall time {wall!r}")
        record.update(traced_op_s=traced, raw_traced_op_s=result["traced_times"],
                      traced_calibration_s=result["traced_cal_s"], span_count=result["span_count"],
                      self_time_balance=result["balance"])
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "op_s.p50": {"value": statistics.median(times), "unit": "s"},
            "peak_rss_mb": {"value": setup_runs[0]["peak_rss_mb"], "unit": "MB"},
        }
    record.update(op_s_n=len(times), failed_frac=len(failures) / attempted, run_errors=errors)
    line = {"correct": not errors and not failures, "attempted": attempted,
            "failed": len(failures), "metrics": metrics}
    return line, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join(ROOT, "src", "gbtscore", "__init__.py")):
        print(f"error: no gbtscore sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    work_dir = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        line, record = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                               work_dir, deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    with open(os.path.join(ROOT, ".perfbench_out", f"{args.workload}.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"record": record, "result": line}, fh, indent=1)
    n = record["op_s_n"]
    print(f"{args.workload} seed={args.seed} input_seed={record['input_seed']} "
          f"op_s.n={n} wall op_s.p50={statistics.median(record['raw_op_s']):.4g} s "
          f"failed_frac={record['failed_frac']:.3g} "
          f"({line['failed']}/{line['attempted']}) work/op={record['work_per_op']}")
    for name, metric in sorted(line["metrics"].items()):
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    for failure in record["failures"][:5]:
        print(f"  failed op {failure['op']}: {'; '.join(failure['errors'])}")
    for error in record["run_errors"]:
        print(f"  error: {error}")
    print(json.dumps({"record": record}))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
