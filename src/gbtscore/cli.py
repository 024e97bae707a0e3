"""Command-line front end.

Subcommands: ``fit`` (scores from a comparison CSV), ``sample`` (synthesize
comparisons), ``check`` (randomized diagnostics with a pass/fail table), and
``experiment`` (the reconstruction sweeps). Every command, ``check``
included, writes ``manifest.json`` with the fully resolved parameters next to
its outputs. ``fit`` also writes ``solve_report.json``: ``converged``,
``iterations``, ``final_gradient_norm``, ``certified_error`` and
``objective``, plus ``error`` when the solve fails. JSON keys are sorted.

Exit codes: 0 ok, 2 input error, 3 solver error, 4 domain (support) error,
5 property violation.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__, sim
from .comparisons import (read_comparisons_csv, read_scores_csv,
                          write_comparisons_csv, write_scores_csv)
from .diagnostics import (ResilienceProbeConfig, measure_resilience,
                          monotonicity_sweep, write_probe_csv)
from .errors import (GbtError, InputError, ParameterError, SolverError,
                     SupportError)
from .rootlaws import RootLaw, parse_model_spec
from .sim import (ExperimentConfig, erdos_renyi_graph, sample_ground_truth,
                  synthesize_comparisons)
from .solver import (PriorConfig, ScoreVector, SolverOptions, map_estimate)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_SOLVER = 3
EXIT_DOMAIN = 4
EXIT_VIOLATION = 5


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--model", help="model spec, e.g. uniform or knary:K=21")
    parser.add_argument("--sigma-sq", type=float, default=1.0,
                        help="prior variance on scores (default 1.0)")
    parser.add_argument("--seed", type=int, default=0, help="random seed")
    parser.add_argument("--out-dir", default=".", help="output directory")
    parser.add_argument("--tolerance", type=float, default=1e-8,
                        help="certified l2 solver tolerance")
    parser.add_argument("--max-iter", type=int, default=200, help="Newton iteration cap")
    parser.add_argument("--config", help="key=value file supplying flag defaults")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gbtscore",
        description="Score inference from paired comparisons.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="estimate scores from a comparison CSV")
    p_fit.set_defaults(handler=cmd_fit)
    _add_common(p_fit)
    p_fit.add_argument("--input", required=True, help="comparisons CSV (a,b,r)")

    p_sample = sub.add_parser("sample", help="synthesize a comparison dataset")
    p_sample.set_defaults(handler=cmd_sample)
    _add_common(p_sample)
    p_sample.add_argument("--scores", help="ground-truth scores CSV (a,theta)")
    p_sample.add_argument("--a", type=int, help="number of alternatives to generate")
    p_sample.add_argument("--sigma-dagger-sq", type=float, default=1.0,
                          help="ground-truth score variance when sampling")
    p_sample.add_argument("--pc", type=float, required=True, help="edge probability")

    p_check = sub.add_parser("check", help="run a diagnostic suite")
    p_check.set_defaults(handler=cmd_check)
    _add_common(p_check)
    p_check.add_argument("--suite", required=True, choices=list(_SUITES))
    p_check.add_argument("--input", help="optional comparisons CSV as the base instance")
    p_check.add_argument("--instances", type=int, default=10,
                         help="random instances for the monotonicity suite")
    p_check.add_argument("--probes", type=int, default=200,
                         help="random edits for the resilience suite")

    p_exp = sub.add_parser("experiment", help="run a reconstruction sweep")
    p_exp.set_defaults(handler=cmd_experiment)
    _add_common(p_exp)
    p_exp.add_argument("--which", required=True, choices=list(_EXPERIMENTS))
    p_exp.add_argument("--a", type=int, default=50, help="number of alternatives")
    p_exp.add_argument("--pc", type=float, default=0.2,
                       help="edge probability for the fixed-graph sweeps")
    p_exp.add_argument("--seeds", default="1..10",
                       help="seed list: comma separated or lo..hi")
    return parser


def _parse_seeds(text: str) -> tuple[int, ...]:
    text = text.strip()
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            seeds = tuple(range(int(lo), int(hi) + 1))
        else:
            seeds = tuple(int(s) for s in text.split(",") if s.strip())
    except ValueError:
        raise InputError(f"bad seed list {text!r}") from None
    if not seeds:
        raise InputError(f"bad seed list {text!r}")
    return seeds


def _apply_config_file(parser, argv):
    """Pre-parse --config and install its key=value pairs as defaults."""
    probe = argparse.ArgumentParser(add_help=False)
    probe.add_argument("--config")
    known, _ = probe.parse_known_args(argv)
    if not known.config:
        return
    defaults = {}
    try:
        with open(known.config, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                key, eq, value = line.partition("=")
                if not eq:
                    raise InputError(f"expected key=value, got {line!r}", row=lineno)
                defaults[key.strip().replace("-", "_")] = (value.strip(), lineno)
    except OSError as exc:
        raise InputError(f"cannot read config file {known.config!r}: {exc}") from exc
    subparsers = parser._subparsers._group_actions[0].choices.values()  # noqa: SLF001
    defined = {a.dest for action in subparsers for a in action._actions}  # noqa: SLF001
    for key, (_, lineno) in defaults.items():
        if key not in defined:
            raise InputError(f"unknown config key {key.replace('_', '-')!r}", row=lineno)
    for action in subparsers:
        valid = {a.dest: a for a in action._actions}  # noqa: SLF001
        for key, (value, lineno) in defaults.items():
            if key not in valid:
                continue
            convert = valid[key].type
            try:
                action.set_defaults(**{key: convert(value) if convert else value})
            except ValueError:
                raise InputError(f"config value {value!r} invalid for "
                                 f"{key.replace('_', '-')!r}", row=lineno) from None


def _solver_options(args) -> SolverOptions:
    return SolverOptions(tolerance=args.tolerance, max_iterations=args.max_iter)


def _require_model(args) -> RootLaw:
    if not args.model:
        raise ParameterError("--model is required")
    return parse_model_spec(args.model)


def _out_dir(args) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(path: Path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_manifest(args, out: Path, command: str, inputs: dict, outputs) -> None:
    """The resolved parameters of this run, as ``manifest.json`` beside its outputs."""
    _write_json(out / "manifest.json", dict(
        command=command, model=args.model, sigma_sq=args.sigma_sq, inputs=inputs,
        outputs=[str(o) for o in outputs], seed=args.seed, tolerance=args.tolerance,
        max_iterations=args.max_iter, version=__version__))


def _solve_report(report) -> dict:
    """The fields of ``solve_report.json``; a failed solve adds ``error``."""
    names = ("converged", "iterations", "final_gradient_norm", "certified_error", "objective")
    return {name: getattr(report, name) for name in names}


# ------------------------------------------------------------------ commands

def cmd_fit(args) -> int:
    law = _require_model(args)
    prior = PriorConfig(args.sigma_sq)
    matrix = read_comparisons_csv(args.input, law=law)
    out = _out_dir(args)
    scores_path = out / "scores.csv"
    report_path = out / "solve_report.json"
    try:
        vec, report = map_estimate(law, prior, matrix, _solver_options(args))
    except SolverError as exc:
        if exc.report is not None:
            _write_json(report_path, {**_solve_report(exc.report), "error": str(exc)})
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    write_scores_csv(vec.alternatives, vec.values, scores_path)
    _write_json(report_path, _solve_report(report))
    _write_manifest(args, out, "fit", {"input": str(args.input)}, [scores_path, report_path])
    print(f"wrote {scores_path} ({len(vec.alternatives)} alternatives, "
          f"certified error {report.certified_error:.3e})")
    return EXIT_OK


def cmd_sample(args) -> int:
    law = _require_model(args)
    if (args.scores is None) == (args.a is None):
        raise InputError("provide exactly one of --scores or --a")
    rng = np.random.default_rng(args.seed)
    if args.scores:
        alts, values = read_scores_csv(args.scores)
        truth = ScoreVector(alts, values)
    else:
        if args.a < 2:
            raise InputError("--a must be at least 2")
        if not args.sigma_dagger_sq > 0:
            raise InputError("--sigma-dagger-sq must be positive")
        truth = sample_ground_truth(args.a, args.sigma_dagger_sq, rng)
    if not 0.0 <= args.pc <= 1.0:
        raise InputError("--pc must lie in [0, 1]")
    pairs = erdos_renyi_graph(len(truth.alternatives), args.pc, rng)
    matrix = synthesize_comparisons(law, truth, pairs, rng)
    out = _out_dir(args)
    comp_path = out / "comparisons.csv"
    truth_path = out / "ground_truth.csv"
    write_comparisons_csv(matrix, comp_path)
    write_scores_csv(truth.alternatives, truth.values, truth_path)
    _write_manifest(args, out, "sample",
                    {"scores": args.scores, "a": args.a,
                     "sigma_dagger_sq": args.sigma_dagger_sq, "pc": args.pc},
                    [comp_path, truth_path])
    print(f"wrote {comp_path} ({matrix.num_pairs} comparisons) and {truth_path}")
    return EXIT_OK


def _check_monotonicity(args, law, prior, options):
    rng = np.random.default_rng(args.seed)
    rows = []
    violations = 0
    if args.input:
        bases = [read_comparisons_csv(args.input, law=law)]
    else:
        if args.instances < 1:
            raise InputError("--instances must be at least 1")
        bases = []
        while len(bases) < args.instances:
            n = int(rng.integers(4, 9))
            pairs = erdos_renyi_graph(n, 0.7, rng)
            if not pairs[0].size:
                continue
            truth = sample_ground_truth(n, 1.0, rng)
            bases.append(synthesize_comparisons(law, truth, pairs, rng))
    checked = 0
    for matrix in bases:
        for res in monotonicity_sweep(law, prior, matrix, options):
            checked += 1
            if res.conclusive and not res.strictly_increased:
                violations += 1
    rows.append(("monotonicity", f"{checked} single-pair increases",
                 "pass" if violations == 0 else f"FAIL ({violations} violations)"))
    return rows, violations == 0, []


def _check_resilience(args, law, prior, options):
    config = ResilienceProbeConfig(n_probes=args.probes, seed=args.seed)
    base = read_comparisons_csv(args.input, law=law) if args.input else None
    probe = measure_resilience(law, prior, config, options, base=base)
    csv_path = _out_dir(args) / "resilience_probes.csv"
    write_probe_csv(probe, csv_path)
    if math.isinf(probe.bound):
        status = f"pass (unbounded domain; max observed ratio {probe.observed_ratio:.4g})"
        ok = True
    else:
        ok = probe.observed_ratio < probe.bound
        status = ("pass" if ok else "FAIL") + \
            f" (max ratio {probe.observed_ratio:.4g} vs bound {probe.bound:.4g})"
    return ([("resilience", f"{len(probe.records)} probes -> {csv_path}", status)], ok,
            [csv_path])


def _check_moments(args, law, prior, options):
    rng = np.random.default_rng(args.seed)
    n = 100_000
    rows = []
    ok = True
    for tilt in (-2.0, 0.0, 2.0):
        mean, var = law.tilted_moments(tilt)
        if not (math.isfinite(mean) and 0.0 < var < math.inf):
            raise ParameterError(f"model {law.spec_string} gives unusable moments at tilt "
                                 f"{tilt:+g} (mean {mean:g}, variance {var:g})")
        draws = law.sample_comparison(tilt, rng, size=n)
        z_mean = (draws.mean() - mean) / math.sqrt(var / n)
        sample_var = draws.var(ddof=1)
        fourth = np.mean((draws - draws.mean()) ** 4)
        se_var = math.sqrt(max(fourth - (sample_var ** 2) * (n - 3) / (n - 1), 1e-300) / n)
        z_var = (sample_var - var) / se_var
        good = abs(z_mean) <= 5.0 and abs(z_var) <= 5.0
        ok = ok and good
        rows.append((f"moments tilt={tilt:+.0f}",
                     f"z_mean={z_mean:+.2f} z_var={z_var:+.2f}",
                     "pass" if good else "FAIL"))
    return rows, ok, []


# each suite validates its inputs before it writes, and returns its table rows,
# whether it passed, and the files it wrote
_SUITES = {
    "monotonicity": _check_monotonicity,
    "resilience": _check_resilience,
    "moments": _check_moments,
}


def cmd_check(args) -> int:
    law = _require_model(args)
    prior = PriorConfig(args.sigma_sq)
    options = _solver_options(args)
    rows, ok, written = _SUITES[args.suite](args, law, prior, options)
    out = _out_dir(args)  # only now: a rejected check leaves no directory behind
    _write_manifest(args, out, f"check:{args.suite}",
                    {"input": args.input, "instances": args.instances, "probes": args.probes},
                    written)
    width = max(len(r[0]) for r in rows)
    detail = max(len(r[1]) for r in rows)
    for name, info, status in rows:
        print(f"{name:<{width}}  {info:<{detail}}  {status}")
    return EXIT_OK if ok else EXIT_VIOLATION


# experiment name -> runner in ``sim``, looked up there on each call so that a
# rebound runner (a test double, a profiler's wrapper) is the one that runs
_EXPERIMENTS = {
    "sparsity": "run_experiment_sparsity",
    "discretization": "run_experiment_discretization",
    "regularization": "run_experiment_regularization",
}


def cmd_experiment(args) -> int:
    seeds = _parse_seeds(args.seeds)
    config = ExperimentConfig(
        n_alternatives=args.a,
        edge_prob=args.pc,
        prior=PriorConfig(args.sigma_sq),
        seeds=seeds,
        solver=_solver_options(args),
    )
    result = getattr(sim, _EXPERIMENTS[args.which])(config)
    out = _out_dir(args)
    written = result.write_csv(out)
    _write_manifest(args, out, f"experiment:{args.which}",
                    {"a": args.a, "pc": args.pc, "seeds": args.seeds}, written)
    for note in result.notes:
        print(f"note: {note}")
    for param, mean, std in result.summary_rows():
        print(f"{result.name} param={param} mean={mean:.6g} std={std:.6g}")
    if result.failures:
        for failure in result.failures:
            print(f"failed point: {failure}", file=sys.stderr)
        return EXIT_SOLVER
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        _apply_config_file(parser, argv)
        args = parser.parse_args(argv)
        return args.handler(args)
    except SupportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except SolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (GbtError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
