"""Outside-in tracing: wrappers around ``gbtscore``'s public functions.

Nothing under ``src/`` is changed. :func:`install` replaces every public
function of the traced modules in each namespace that binds it, plus a few
methods and the scipy linear-algebra entry points the solver calls, with a
wrapper that records a span (name, start, end, parent, op id). Spans stay in
memory; :func:`derive` turns them into busy, self and count metrics.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import time

import numpy as np

MODULES = ("comparisons", "rootlaws", "solver", "diagnostics", "sim", "cli")

NAME, START, END, PARENT, OP = range(5)


class Tracer:
    """Span and counter store for one process; ``op`` tags spans with the op running."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = {}
        self.stack: list[int] = []
        self.op = -1

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, name: str, fn, on_return=None):
        """``fn`` recorded as span ``name``; ``on_return(args, kwargs, result)`` adds counts."""
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, clock(), 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = clock()
                stack.pop()
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def root(self, op: int):
        """The span that encloses one whole op; spans inside it carry ``op``."""
        self.op = op
        record = ["op", time.perf_counter(), 0.0, -1, op]
        self.stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[END] = time.perf_counter()
            self.stack.pop()


def _replace_everywhere(namespaces, original, replacement) -> None:
    for ns in namespaces:
        for key, value in list(vars(ns).items()):
            if value is original:
                setattr(ns, key, replacement)


def install(tracer: Tracer) -> None:
    """Wrap the traced layers of an already imported ``gbtscore``."""
    import scipy.linalg

    package = importlib.import_module("gbtscore")
    modules = {m: importlib.import_module(f"gbtscore.{m}") for m in MODULES}
    namespaces = [package, *modules.values()]
    count = tracer.count

    def iterations(args, kwargs, result):
        count("solver.newton_iterations", result[1].iterations)
        count("solver.solves")

    def evals(key):
        return lambda args, kwargs, result: count(key, np.size(args[1]))

    hooks = {
        "solver.map_estimate": iterations,
        "rootlaws.cumulant": evals("rootlaws.cumulant.evals"),
        "rootlaws.cumulant_prime": evals("rootlaws.cumulant_prime.evals"),
        "rootlaws.cumulant_double_prime": evals("rootlaws.cumulant_double_prime.evals"),
        "rootlaws.sample_comparison":
            lambda args, kwargs, result: count("rootlaws.sample_comparison.draws", np.size(result)),
    }
    for short, module in modules.items():
        for name, fn in list(vars(module).items()):
            if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                continue
            span = f"{short}.{name}"
            _replace_everywhere(namespaces, fn, tracer.wrap(span, fn, hooks.get(span)))

    law_cls = modules["rootlaws"].RootLaw
    for name in ("cumulant", "cumulant_prime", "cumulant_double_prime", "sample_comparison"):
        span = f"rootlaws.{name}"
        setattr(law_cls, name, tracer.wrap(span, getattr(law_cls, name), hooks.get(span)))
    contains = law_cls.contains

    def counted_contains(self, r):  # hot: ~1e6 calls per op, so counted without a span
        count("rootlaws.contains.calls")
        return contains(self, r)

    law_cls.contains = counted_contains

    matrix_cls = modules["comparisons"].ComparisonMatrix
    matrix_cls.__init__ = tracer.wrap(
        "comparisons.ComparisonMatrix", matrix_cls.__init__,
        lambda args, kwargs, result: count("comparisons.pairs_built", args[0].num_pairs))
    for name in ("apply_edit", "edit_distance"):
        setattr(matrix_cls, name, tracer.wrap(f"comparisons.{name}", getattr(matrix_cls, name)))

    def factor_flops(args, kwargs, result):
        count("solver.cholesky.calls")
        count("solver.cholesky.flops_computed", np.shape(args[0])[0] ** 3 / 3.0)

    scipy.linalg.cho_factor = tracer.wrap("solver.cholesky", scipy.linalg.cho_factor, factor_flops)
    scipy.linalg.cho_solve = tracer.wrap("solver.cholesky", scipy.linalg.cho_solve)

    cg = modules["solver"].sparse_cg

    def counted_cg(*args, **kwargs):
        kwargs["callback"] = lambda xk: count("solver.cg.iterations")
        return cg(*args, **kwargs)

    modules["solver"].sparse_cg = tracer.wrap("solver.cg", counted_cg)


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for rec in spans:
        if rec[PARENT] >= 0:
            children.setdefault(rec[PARENT], []).append((rec[START], rec[END]))
    out = []
    for k, rec in enumerate(spans):
        covered, reach = 0.0, rec[START]
        for lo, hi in sorted(children.get(k, ())):
            lo, hi = max(lo, reach), min(hi, rec[END])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(rec[END] - rec[START] - covered)
    return out


def root_balance(spans: list[list], selfs: list[float]) -> dict[int, tuple[float, float]]:
    """Per op: (root span duration, sum of self times over the op's span tree)."""
    out: dict[int, list[float]] = {}
    for rec, own in zip(spans, selfs):
        entry = out.setdefault(rec[OP], [0.0, 0.0])
        entry[1] += own
        if rec[PARENT] < 0:
            entry[0] += rec[END] - rec[START]
    return {op: (wall, total) for op, (wall, total) in out.items()}


def _has_ancestor(spans, k: int, test) -> bool:
    k = spans[k][PARENT]
    while k >= 0:
        if test(spans[k][NAME]):
            return True
        k = spans[k][PARENT]
    return False


def derive(spans: list[list], counters: dict[str, float], n_ops: int) -> dict[str, float]:
    """Per-op means of every per-layer metric.

    ``<name>.s`` is busy time (outermost spans of that name), ``.self_s`` self
    time, ``.calls`` the number of spans; ``<layer>.self_s`` sums self time
    over every span of the layer.
    """
    selfs = self_times(spans)
    busy: dict[str, float] = {}
    own: dict[str, float] = {}
    calls: dict[str, int] = {}
    resolves = 0
    for k, rec in enumerate(spans):
        name = rec[NAME]
        own[name] = own.get(name, 0.0) + selfs[k]
        calls[name] = calls.get(name, 0) + 1
        if not _has_ancestor(spans, k, name.__eq__):
            busy[name] = busy.get(name, 0.0) + rec[END] - rec[START]
        if name == "solver.map_estimate" and _has_ancestor(
                spans, k, lambda parent: parent.startswith("diagnostics.")):
            resolves += 1

    def layer_self(layer):
        return sum(v for name, v in own.items() if name.startswith(layer + "."))

    c = counters.get
    solves = c("solver.solves", 0)
    iterations = c("solver.newton_iterations", 0)
    totals = {
        "comparisons.read_comparisons_csv.s": busy.get("comparisons.read_comparisons_csv", 0.0),
        "comparisons.ComparisonMatrix.s": busy.get("comparisons.ComparisonMatrix", 0.0),
        "comparisons.ComparisonMatrix.calls": calls.get("comparisons.ComparisonMatrix", 0),
        "comparisons.pairs_built": c("comparisons.pairs_built", 0),
        "comparisons.apply_edit.s": busy.get("comparisons.apply_edit", 0.0),
        "comparisons.apply_edit.calls": calls.get("comparisons.apply_edit", 0),
        "comparisons.edit_distance.s": busy.get("comparisons.edit_distance", 0.0),
        "rootlaws.contains.calls": c("rootlaws.contains.calls", 0),
        "rootlaws.sample_comparison.s": busy.get("rootlaws.sample_comparison", 0.0),
        "rootlaws.sample_comparison.draws": c("rootlaws.sample_comparison.draws", 0),
        "solver.map_estimate.s": busy.get("solver.map_estimate", 0.0),
        "solver.map_estimate.calls": calls.get("solver.map_estimate", 0),
        "solver.map_estimate.self_s": own.get("solver.map_estimate", 0.0),
        "solver.newton_iterations": iterations,
        "solver.loss.s": busy.get("solver.loss", 0.0),
        "solver.loss.calls": calls.get("solver.loss", 0),
        "solver.line_search_backtracks": calls.get("solver.loss", 0) - iterations - solves,
        "solver.gradient.s": busy.get("solver.gradient", 0.0),
        "solver.hessian.s": busy.get("solver.hessian", 0.0),
        "solver.cholesky.s": busy.get("solver.cholesky", 0.0),
        "solver.cholesky.calls": c("solver.cholesky.calls", 0),
        "solver.cholesky.flops_computed": c("solver.cholesky.flops_computed", 0),
        "solver.cg.s": busy.get("solver.cg", 0.0),
        "solver.cg.calls": calls.get("solver.cg", 0),
        "solver.cg.iterations": c("solver.cg.iterations", 0),
        "diagnostics.monotonicity_sweep.s": busy.get("diagnostics.monotonicity_sweep", 0.0),
        "diagnostics.measure_resilience.s": busy.get("diagnostics.measure_resilience", 0.0),
        "diagnostics.self_s": layer_self("diagnostics"),
        "diagnostics.resolves": resolves,
        "sim.run_experiment_sparsity.s": busy.get("sim.run_experiment_sparsity", 0.0),
        "sim.erdos_renyi_graph.s": busy.get("sim.erdos_renyi_graph", 0.0),
        "sim.synthesize_comparisons.self_s": own.get("sim.synthesize_comparisons", 0.0),
        "cli.main.self_s": layer_self("cli"),
    }
    for fn in ("cumulant", "cumulant_prime", "cumulant_double_prime"):
        totals[f"rootlaws.{fn}.s"] = busy.get(f"rootlaws.{fn}", 0.0)
        totals[f"rootlaws.{fn}.calls"] = calls.get(f"rootlaws.{fn}", 0)
        totals[f"rootlaws.{fn}.evals"] = c(f"rootlaws.{fn}.evals", 0)
    return {name: value / max(n_ops, 1) for name, value in totals.items()}
