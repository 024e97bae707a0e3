"""Smoke tests of the benchmark's own code, at tiny sizes.

Run with ``PYTHONPATH=src python -m pytest -q perfbench``.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import calibrate  # noqa: E402
import checks  # noqa: E402
import inputs  # noqa: E402
import spans  # noqa: E402


def _tiny(seed, n=12, k=5):
    rng = np.random.default_rng(seed)
    return inputs._knary_dataset(rng, n, inputs._er_pairs(rng, n, 0.6), k)


def test_generator_is_deterministic_per_seed():
    first, again, other = _tiny(3), _tiny(3), _tiny(4)
    assert inputs.csv_bytes(first, 3) == inputs.csv_bytes(again, 3)
    assert inputs.arrays_bytes(first) == inputs.arrays_bytes(again)
    assert inputs.csv_bytes(first, 3) != inputs.csv_bytes(other, 4)


def test_csv_round_trips_to_canonical_arrays():
    data = _tiny(5)
    rows = inputs.csv_bytes(data, 5).decode().splitlines()[1:]
    seen = {}
    for row in rows:
        a, b, r = row.split(",")
        ia, ib, value = int(a[1:]), int(b[1:]), float(r)
        seen[(min(ia, ib), max(ia, ib))] = value if ia < ib else -value
    assert seen == {(i, j): r for i, j, r in zip(data.i.tolist(), data.j.tolist(), data.r.tolist())}


@pytest.mark.parametrize("kind", ["knary", "beta"])
def test_samplers_match_the_check_cumulants(kind):
    rng = np.random.default_rng(11)
    tilt = np.full(40_000, 1.3)
    if kind == "knary":
        values = inputs.knary_values(21)
        draws = inputs._knary_draws(rng, values, tilt)
        mean = checks.knary_phi_prime(values, tilt[:1])[0]
    else:
        draws = inputs._beta_draws(rng, 2.5, tilt)
        mean = checks.beta_phi_prime(2.5, tilt[:1])[0]
    assert abs(draws.mean() - mean) < 5 * draws.std() / np.sqrt(draws.size)


def test_certificate_rejects_perturbed_scores():
    gbt = pytest.importorskip("gbtscore")
    data = _tiny(7)
    ids = inputs.alternative_ids(data.n)
    law = gbt.RootLaw.knary(5)
    matrix = gbt.ComparisonMatrix(
        gbt.AlternativeSet.from_ids(ids),
        [(ids[i], ids[j], r) for i, j, r in zip(data.i.tolist(), data.j.tolist(), data.r.tolist())],
        law=law)
    vec, _ = gbt.map_estimate(law, gbt.PriorConfig(1.0), matrix)
    values = inputs.knary_values(5)

    def phi_prime(d):
        return checks.knary_phi_prime(values, d)

    theta = np.asarray(vec.values)
    assert checks.certify(theta, data, 1.0, phi_prime) == []
    bumped = theta.copy()
    bumped[3] += 1e-6
    assert any("certificate" in e for e in checks.certify(bumped, data, 1.0, phi_prime))
    assert any("sum" in e for e in checks.certify(theta + 1e-6, data, 1.0, phi_prime))


def test_reference_speed_divides_out_machine_speed():
    import run
    ref = calibrate.REFERENCE_S
    # the same op in a phase where the machine, and so the kernel, runs 2x slower
    assert run.at_reference_speed([2.0, 4.0], [ref, 2.0 * ref]) == [2.0, 2.0]
    assert 0.0 < calibrate.Kernel().sample() < 10.0


def test_self_times_on_synthetic_span_tree():
    # op [0, 10] > cli.main [1, 8] > solver.map_estimate [2, 6] > solver.loss [3, 4]
    tree = [["op", 0.0, 10.0, -1, 0], ["cli.main", 1.0, 8.0, 0, 0],
            ["solver.map_estimate", 2.0, 6.0, 1, 0], ["solver.loss", 3.0, 4.0, 2, 0],
            ["op", 20.0, 21.0, -1, 1]]
    selfs = spans.self_times(tree)
    assert selfs == [3.0, 3.0, 3.0, 1.0, 1.0]
    assert spans.root_balance(tree, selfs) == {0: (10.0, 10.0), 1: (1.0, 1.0)}
    layers = spans.derive(tree, {"solver.newton_iterations": 2, "solver.solves": 1}, n_ops=2)
    assert layers["cli.main.self_s"] == 1.5
    assert layers["solver.map_estimate.s"] == 2.0
    assert layers["solver.map_estimate.self_s"] == 1.5
    assert layers["solver.loss.calls"] == 0.5
    assert layers["solver.line_search_backtracks"] == (1 - 2 - 1) / 2


def test_installed_tracer_counts_a_solve():
    # installing wraps gbtscore process-wide, so it runs in a child interpreter
    script = f"""
import json, sys
sys.path[:0] = [{BENCH_DIR!r}, {os.path.join(os.path.dirname(BENCH_DIR), 'src')!r}]
import gbtscore, spans
tracer = spans.Tracer()
spans.install(tracer)
law = gbtscore.RootLaw.bernoulli()
ids = ["x", "y", "z"]
matrix = gbtscore.ComparisonMatrix(gbtscore.AlternativeSet.from_ids(ids),
                                   [("x", "y", 1.0), ("y", "z", -1.0)], law=law)
with tracer.root(0):
    _, report = gbtscore.map_estimate(law, gbtscore.PriorConfig(1.0), matrix)
selfs = spans.self_times(tracer.spans)
print(json.dumps({{"iterations": report.iterations,
                  "layers": spans.derive(tracer.spans, tracer.counters, 1),
                  "balance": spans.root_balance(tracer.spans, selfs)[0]}}))
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    layers = out["layers"]
    assert layers["solver.newton_iterations"] == out["iterations"] > 0
    assert layers["solver.map_estimate.calls"] == 1
    assert layers["solver.cholesky.calls"] == out["iterations"]
    assert layers["solver.line_search_backtracks"] >= 0
    wall, total = out["balance"]
    assert abs(wall - total) < 1e-6
