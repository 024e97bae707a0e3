"""Seeded input generation for the benchmark, independent of ``gbtscore``.

The comparison data for ``fit_csv``, ``solve_beta`` and ``audit`` is drawn
here with plain numpy (an exact tilted grid pmf for the K-level model and
rejection sampling for the beta model), never through ``gbtscore.sim``, so a
change to the program's samplers cannot change what the benchmark feeds it.
Every generated file is hashed so that two commits provably read the same
bytes.
"""

from __future__ import annotations

import hashlib
import io
from dataclasses import dataclass

import numpy as np

# Input seeds cycle through this many values; reference outputs exist for each.
N_INPUT_SEEDS = 32

FIT_A, FIT_EDGE_PROB, FIT_K = 1000, 0.5, 21
SOLVE_A, SOLVE_PAIRS, SOLVE_BETA = 4000, 100_000, 2.5
SOLVE_SIGMA_SQ = (0.5, 1.0, 2.0)
AUDIT_A, AUDIT_ROWS, AUDIT_K = 150, 540, 5
SWEEP_A = 500

# separate random streams per workload, so one workload's draws never shift another's
_STREAM = {"fit_csv": 1, "solve_beta": 2, "audit": 3}


def input_seed(seed: int) -> int:
    return seed % N_INPUT_SEEDS


def sweep_seeds(seed: int) -> tuple[int, int]:
    """The two experiment seeds the sweep workload passes to the program."""
    first = 2 * input_seed(seed) + 1
    return first, first + 1


def alternative_ids(n: int) -> list[str]:
    """Zero-padded ids, so the program's sorted id order is the index order."""
    return [f"a{i:04d}" for i in range(n)]


def knary_values(k: int) -> np.ndarray:
    """The K grid points as the CSV spells them (``0.9``, not ``0.8999999999999999``)."""
    grid = 2.0 * np.arange(k) / (k - 1) - 1.0
    return np.array([float(f"{x:.6g}") for x in grid])


@dataclass
class Comparisons:
    """Canonical-orientation comparisons: i < j, value oriented from i to j."""

    n: int
    i: np.ndarray
    j: np.ndarray
    r: np.ndarray


def _er_pairs(rng, n: int, edge_prob: float):
    iu, ju = np.triu_indices(n, k=1)
    keep = rng.random(iu.size) < edge_prob
    return iu[keep], ju[keep]


def _knary_draws(rng, values: np.ndarray, tilt: np.ndarray, chunk: int = 50_000):
    """Exact inverse-cdf draws from the pmf proportional to exp(tilt * value)."""
    out = np.empty(tilt.size)
    for lo in range(0, tilt.size, chunk):
        t = tilt[lo:lo + chunk]
        logits = t[:, None] * values[None, :]
        logits -= logits.max(axis=1, keepdims=True)
        cdf = np.cumsum(np.exp(logits), axis=1)
        u = rng.random(t.size) * cdf[:, -1]
        idx = np.minimum((cdf < u[:, None]).sum(axis=1), values.size - 1)
        out[lo:lo + chunk] = values[idx]
    return out


def _beta_draws(rng, beta: float, tilt: np.ndarray):
    """Rejection sampling of density ~ (1 - r^2)^(beta - 1) exp(tilt r) on [-1, 1]."""
    out = np.empty(tilt.size)
    pending = np.arange(tilt.size)
    while pending.size:
        t = tilt[pending]
        r = 2.0 * rng.beta(beta, beta, size=pending.size) - 1.0
        accept = np.log(rng.random(pending.size)) < t * r - np.abs(t)
        out[pending[accept]] = r[accept]
        pending = pending[~accept]
    return out


def _fixed_pairs(rng, n: int, count: int):
    """``count`` distinct pairs, uniformly; a fixed row count keeps work per op steady."""
    iu, ju = np.triu_indices(n, k=1)
    keep = np.sort(rng.choice(iu.size, size=count, replace=False))
    return iu[keep], ju[keep]


def _knary_dataset(rng, n: int, pairs, k: int) -> Comparisons:
    i, j = pairs
    truth = rng.normal(size=n)
    r = _knary_draws(rng, knary_values(k), truth[i] - truth[j])
    return Comparisons(n, i, j, r)


def fit_dataset(seed: int) -> Comparisons:
    rng = np.random.default_rng((input_seed(seed), _STREAM["fit_csv"]))
    return _knary_dataset(rng, FIT_A, _er_pairs(rng, FIT_A, FIT_EDGE_PROB), FIT_K)


def audit_dataset(seed: int) -> Comparisons:
    rng = np.random.default_rng((input_seed(seed), _STREAM["audit"]))
    return _knary_dataset(rng, AUDIT_A, _fixed_pairs(rng, AUDIT_A, AUDIT_ROWS), AUDIT_K)


def solve_dataset(seed: int) -> Comparisons:
    rng = np.random.default_rng((input_seed(seed), _STREAM["solve_beta"]))
    i, j = _er_pairs(rng, SOLVE_A, SOLVE_PAIRS / (SOLVE_A * (SOLVE_A - 1) / 2))
    truth = rng.normal(size=SOLVE_A)
    r = _beta_draws(rng, SOLVE_BETA, truth[i] - truth[j])
    return Comparisons(SOLVE_A, i, j, r)


def _fmt(x: float) -> str:
    return "0" if x == 0 else repr(float(x))


def csv_bytes(data: Comparisons, seed: int) -> bytes:
    """``a,b,r`` rows in shuffled order, each pair written in a random orientation."""
    rng = np.random.default_rng((input_seed(seed), 99))
    ids = alternative_ids(data.n)
    flip = rng.random(data.i.size) < 0.5
    first = np.where(flip, data.j, data.i)
    second = np.where(flip, data.i, data.j)
    value = np.where(flip, -data.r, data.r)
    spelled = {v: _fmt(v) for v in np.unique(value).tolist()}
    lines = ["a,b,r"]
    for row in rng.permutation(data.i.size).tolist():
        lines.append(f"{ids[first[row]]},{ids[second[row]]},{spelled[float(value[row])]}")
    return ("\n".join(lines) + "\n").encode()


def arrays_bytes(data: Comparisons) -> bytes:
    """One structured .npy image of the canonical (i, j, r) arrays."""
    rec = np.empty(data.i.size, dtype=[("i", "<i4"), ("j", "<i4"), ("r", "<f8")])
    rec["i"], rec["j"], rec["r"] = data.i, data.j, data.r
    buf = io.BytesIO()
    np.save(buf, rec, allow_pickle=False)
    return buf.getvalue()


def load_arrays(path, n: int) -> Comparisons:
    rec = np.load(path, allow_pickle=False)
    return Comparisons(n, rec["i"].astype(np.intp), rec["j"].astype(np.intp), rec["r"].copy())


def sha256(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()
