"""One benchmark process: import ``gbtscore``, set a workload up, run its ops.

Usage: ``python3 perfbench/worker.py <job.json>``. ``run.py`` writes the job
and reads the result file the job names. Mode ``setup`` stops after set-up;
mode ``peak`` then runs one op, untimed, for the peak memory of a process
that never runs the calibration kernel; mode ``run`` then runs ops in a closed loop (one client, the next op starts
when the previous one ends) for the job's seconds. With ``trace`` the first
half of that time runs untraced and the second half traced. Mode
``reference`` runs one op and returns what ``make_reference.py`` stores.

Nothing heavy is imported before the set-up clock starts, so ``setup_s``
includes the numpy and scipy imports that ``import gbtscore`` pulls in.
"""

import json
import os
import sys
import time
import traceback

_CLOCK_START = time.perf_counter()

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


class Workload:
    """``prepare`` is the benchmark's own untimed work, ``setup`` the program's."""

    def __init__(self, job, gbt):
        self.job, self.gbt = job, gbt
        self.out_dir = os.path.join(job["work_dir"], "out")
        self.reference = job.get("reference") or {}

    def prepare(self):
        pass

    def setup(self):
        pass

    def cli(self, argv):
        """Run ``gbtscore.cli.main`` and return (exit code, captured stdout)."""
        import contextlib
        import io
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = self.gbt.cli.main(argv)
        return rc, buf.getvalue()


class FitCsv(Workload):
    def prepare(self):
        import inputs
        self.data = inputs.load_arrays(self.job["arrays"], inputs.FIT_A)
        self.values = inputs.knary_values(inputs.FIT_K)

    def op(self, k):
        return self.cli(["fit", "--model", "knary:K=21", "--sigma-sq", "1",
                         "--input", self.job["csv"], "--out-dir", self.out_dir])

    def check(self, k, out):
        import checks
        rc, _ = out
        if rc != 0:
            return [f"exit code {rc}"]
        with open(os.path.join(self.out_dir, "solve_report.json"), encoding="utf-8") as fh:
            report = json.load(fh)
        errors = checks.check_report(report["converged"], report["certified_error"])
        theta = checks.read_scores(os.path.join(self.out_dir, "scores.csv"), self.data.n)
        errors += checks.certify(theta, self.data, 1.0,
                                 lambda d: checks.knary_phi_prime(self.values, d))
        errors += checks.match("objective", report["objective"],
                               self.reference.get("objective"), rel=1e-9)
        return errors

    def reference_record(self, out):
        with open(os.path.join(self.out_dir, "solve_report.json"), encoding="utf-8") as fh:
            report = json.load(fh)
        return {"objective": report["objective"], "iterations": report["iterations"]}

    def work(self):
        return {"rows": int(self.data.i.size), "alternatives": self.data.n, "solves": 1}


class SolveBeta(Workload):
    def prepare(self):
        import inputs
        self.sigmas = inputs.SOLVE_SIGMA_SQ
        self.data = inputs.load_arrays(self.job["arrays"], inputs.SOLVE_A)
        self.ids = inputs.alternative_ids(self.data.n)
        ids = self.ids
        self.triples = [(ids[a], ids[b], r) for a, b, r in
                        zip(self.data.i.tolist(), self.data.j.tolist(), self.data.r.tolist())]

    def setup(self):
        gbt = self.gbt
        self.law = gbt.parse_model_spec(f"beta:beta={self.job['beta']}")
        alternatives = gbt.AlternativeSet.from_ids(self.ids)
        self.matrix = gbt.ComparisonMatrix(alternatives, self.triples, law=self.law)
        self.matrix.index_arrays  # cached on first use; built here, not in the first op

    def op(self, k):
        """One certified solve per prior variance: every op does the same work."""
        gbt = self.gbt
        return [gbt.map_estimate(self.law, gbt.PriorConfig(s), self.matrix) for s in self.sigmas]

    def check(self, k, out):
        import checks
        import numpy as np
        errors = []
        objectives = self.reference.get("objective") or [None] * len(self.sigmas)
        for sigma_sq, (vec, report), objective in zip(self.sigmas, out, objectives):
            errors += checks.check_report(report.converged, report.certified_error)
            errors += checks.certify(np.asarray(vec.values), self.data, sigma_sq,
                                     lambda d: checks.beta_phi_prime(self.job["beta"], d))
            errors += checks.match(f"objective at sigma_sq={sigma_sq}", report.objective,
                                   objective, rel=1e-9)
        return errors

    def reference_record(self, out):
        return {"objective": [report.objective for _, report in out],
                "iterations": [report.iterations for _, report in out]}

    def work(self):
        return {"pairs": int(self.data.i.size), "alternatives": self.data.n,
                "solves": len(self.sigmas)}


class Audit(Workload):
    def prepare(self):
        import checks
        import inputs
        self.data = inputs.load_arrays(self.job["arrays"], inputs.AUDIT_A)
        self.expected_steps = checks.monotone_steps(self.data)
        self.common = ["--input", self.job["csv"], "--model", "knary:K=5", "--sigma-sq", "1",
                       "--seed", str(self.job["input_seed"]), "--out-dir", self.out_dir]

    def op(self, k):
        mono = self.cli(["check", "--suite", "monotonicity", *self.common])
        resil = self.cli(["check", "--suite", "resilience", "--probes", str(self.job["probes"]),
                          *self.common])
        return mono, resil

    def _outcome(self, out):
        import checks
        (rc_m, text_m), (rc_r, text_r) = out
        rows_m, errors = checks.check_table(text_m, rc_m)
        _, more = checks.check_table(text_r, rc_r)
        errors += more
        steps = int(rows_m[0].split()[1]) if rows_m and len(rows_m[0].split()) > 1 else -1
        ratios = checks.read_probe_ratios(os.path.join(self.out_dir, "resilience_probes.csv"))
        return steps, ratios, errors

    def check(self, k, out):
        import checks
        steps, ratios, errors = self._outcome(out)
        if steps != self.expected_steps or steps != self.reference.get("steps", steps):
            errors.append(f"monotonicity probed {steps} steps, expected {self.expected_steps}")
        if ratios.size != self.job["probes"]:
            errors.append(f"{ratios.size} resilience probes, expected {self.job['probes']}")
        elif not ratios.max() < checks.RESILIENCE_BOUND:
            errors.append(f"max ratio {ratios.max()!r} not below {checks.RESILIENCE_BOUND!r}")
        else:
            errors += checks.match("max ratio", float(ratios.max()), self.reference.get("max_ratio"))
        return errors

    def reference_record(self, out):
        steps, ratios, _ = self._outcome(out)
        return {"steps": steps, "max_ratio": float(ratios.max())}

    def work(self):
        return {"rows": int(self.data.i.size), "monotonicity_solves": self.expected_steps + 1,
                "resilience_solves": self.job["probes"] + 1}


class SweepSparsity(Workload):
    def op(self, k):
        return self.cli(["experiment", "--which", "sparsity", "--a", str(self.job["a"]),
                         "--seeds", self.job["seeds"], "--out-dir", self.out_dir])

    def _values(self):
        import checks
        return checks.read_sweep(os.path.join(self.out_dir, "sparsity_per_seed.csv"))

    def check(self, k, out):
        import checks
        import numpy as np
        rc, _ = out
        if rc != 0:
            return [f"exit code {rc}"]
        values = self._values()
        expected = self.reference.get("norm_error", {})
        errors = [f"norm_error {key} is not finite" for key, v in values.items()
                  if not np.isfinite(v)]
        if expected and set(values) != set(expected):
            errors.append(f"sweep points {sorted(values)} differ from the reference's")
        for key, v in values.items():
            errors += checks.match(f"norm_error {key}", v, expected.get(key))
        return errors

    def reference_record(self, out):
        return {"norm_error": self._values()}

    def work(self):
        return {"alternatives": self.job["a"], "sweep_points": 10, "solves": 10}


WORKLOADS = {"fit_csv": FitCsv, "solve_beta": SolveBeta, "audit": Audit,
             "sweep_sparsity": SweepSparsity}


def _peak_rss_mb() -> float:
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def one_op(workload, k: int, tracer=None):
    """Run op ``k``; returns its wall seconds, its output, and its error if it raised."""
    start = time.perf_counter()
    try:
        if tracer is None:
            out = workload.op(k)
        else:
            with tracer.root(k):
                out = workload.op(k)
    except Exception:  # an op that raises is a failed op, not a crashed run
        return time.perf_counter() - start, None, [traceback.format_exc(limit=-3)]
    return time.perf_counter() - start, out, []


def checked(workload, k: int, out, errors: list) -> list:
    """The op's failed checks; an op that raised is not checked."""
    if errors:
        return errors
    try:
        return workload.check(k, out)
    except Exception:  # an unreadable output fails the op's check
        return [traceback.format_exc(limit=-3)]


def run_ops(workload, seconds: float, first: int, kernel, tracer=None):
    """Closed loop of ops for about ``seconds`` of op time; at least one op.

    The next op starts only if the mean op so far still fits in the budget,
    so a run measures close to ``seconds`` and never a stray extra op.
    The calibration kernel is timed right before and right after each op
    (``calibrate.py``). Each op is checked after that.
    """
    times, cals, failures = [], [], []
    k = first
    while not times or sum(times) + sum(times) / len(times) <= seconds:
        before = kernel.sample()
        elapsed, out, errors = one_op(workload, k, tracer)
        times.append(elapsed)
        cals.append((before + kernel.sample()) / 2.0)
        errors = checked(workload, k, out, errors)
        if errors:
            failures.append({"op": k, "errors": errors[:5]})
        k += 1
    return times, cals, failures


def main(job_path: str) -> int:
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    sys.path.insert(0, os.path.join(job["root"], "src"))
    import gbtscore
    import gbtscore.cli  # noqa: F401  (binds gbtscore.cli)
    import_s = time.perf_counter() - _CLOCK_START

    sys.path.insert(0, BENCH_DIR)
    workload = WORKLOADS[job["workload"]](job, gbtscore)
    workload.prepare()
    start = time.perf_counter()
    workload.setup()
    result = {"setup_s": import_s + time.perf_counter() - start}
    if job["mode"] == "peak":
        # one op before the calibration kernel exists: the peak memory is the program's own
        os.makedirs(workload.out_dir, exist_ok=True)
        _, out, errors = one_op(workload, 0)
        result["peak_rss_mb"] = _peak_rss_mb()  # before the benchmark's own checks allocate
        errors = checked(workload, 0, out, errors)
        result["failures"] = [{"op": "peak", "errors": errors[:5]}] if errors else []
    import calibrate
    kernel = calibrate.Kernel()
    kernel.run_once()  # first-touch costs are not machine speed
    result["setup_cal_s"] = kernel.sample(calibrate.SETUP_SAMPLES)

    if job["mode"] == "run":
        os.makedirs(workload.out_dir, exist_ok=True)
        seconds = job["seconds"]
        if job["trace"]:
            import spans
            times, cals, failures = run_ops(workload, seconds / 2, 0, kernel)
            tracer = spans.Tracer()
            spans.install(tracer)
            traced, traced_cals, traced_failures = run_ops(workload, seconds / 2, len(times),
                                                           kernel, tracer)
            selfs = spans.self_times(tracer.spans)
            result.update(
                traced_times=traced, traced_cal_s=traced_cals,
                layers=spans.derive(tracer.spans, tracer.counters, len(traced)),
                balance={str(op): v for op, v in spans.root_balance(tracer.spans, selfs).items()},
                span_count=len(tracer.spans))
            failures += traced_failures
            with open(job["spans_path"], "w", encoding="utf-8") as fh:
                for rec, own in zip(tracer.spans, selfs):
                    fh.write(json.dumps(rec + [own]) + "\n")
        else:
            times, cals, failures = run_ops(workload, seconds, 0, kernel)
        result.update(times=times, cal_s=cals, failures=failures, work=workload.work())
    elif job["mode"] == "reference":
        os.makedirs(workload.out_dir, exist_ok=True)
        out = workload.op(0)
        result.update(errors=workload.check(0, out), record=workload.reference_record(out))

    with open(job["result_path"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
