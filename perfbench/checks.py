"""Correctness checks on program outputs, computed without ``gbtscore``.

A returned score vector is accepted when the benchmark's own gradient of the
posterior loss, built from the input bytes with its own cumulant code,
certifies it: the loss is (1/sigma^2)-strongly convex, so
``||theta - theta*|| <= 2 sigma^2 ||grad(theta)||``. A vector certified within
the tolerance lies within twice the tolerance of any other certified solve,
the reference solve included. Each check returns a list of failure messages;
an empty list means the output passed.
"""

from __future__ import annotations

import csv
import math

import numpy as np
from scipy.special import roots_jacobi

from inputs import Comparisons

TOLERANCE = 1e-8  # the program's default certified tolerance, used by every workload
# the benchmark's gradient sums ~1e5 edge terms in another order than the program
# does; its rounding is ~1e-12 absolute here, far inside this 1% allowance
CERT_SLACK = 1.01
RESILIENCE_BOUND = 4.0 * math.sqrt(2.0)  # 4 sqrt(2) r_max sigma^2 with r_max = sigma^2 = 1
REL_MATCH = 1e-6


def knary_phi_prime(values: np.ndarray, d: np.ndarray, chunk: int = 50_000) -> np.ndarray:
    """Tilted mean of the K-point grid law, summed directly over the grid."""
    out = np.empty(d.size)
    for lo in range(0, d.size, chunk):
        t = d[lo:lo + chunk]
        logits = t[:, None] * values[None, :]
        w = np.exp(logits - logits.max(axis=1, keepdims=True))
        out[lo:lo + chunk] = (w @ values) / w.sum(axis=1)
    return out


def beta_phi_prime(beta: float, d: np.ndarray, chunk: int = 20_000) -> np.ndarray:
    """Tilted mean of the symmetric beta law by Gauss-Jacobi quadrature.

    Evaluated at |d| with weights exp(|d| (x - 1)) <= 1, then given d's sign.
    An n-node rule is exact to degree 2n - 1, and the Taylor terms of
    exp(a x) fall below 1e-17 by degree ~3a + 40, so this n has ample margin.
    """
    a = np.abs(d)
    n = 60 + 2 * int(math.ceil(float(a.max()) if a.size else 0.0))
    x, w = roots_jacobi(n, beta - 1.0, beta - 1.0)
    out = np.empty(d.size)
    for lo in range(0, d.size, chunk):
        e = np.exp(a[lo:lo + chunk, None] * (x[None, :] - 1.0))
        out[lo:lo + chunk] = (e @ (w * x)) / (e @ w)
    return np.sign(d) * out


def gradient(theta: np.ndarray, data: Comparisons, sigma_sq: float, phi_prime) -> np.ndarray:
    edge = phi_prime(theta[data.i] - theta[data.j]) - data.r
    return (theta / sigma_sq + np.bincount(data.i, edge, minlength=data.n)
            - np.bincount(data.j, edge, minlength=data.n))


def certify(theta: np.ndarray, data: Comparisons, sigma_sq: float, phi_prime) -> list[str]:
    """Zero-sum scores within the benchmark's own certified distance of the optimum."""
    errors = []
    if theta.shape != (data.n,) or not np.all(np.isfinite(theta)):
        return [f"scores have shape {theta.shape} or non-finite entries"]
    total = abs(float(theta.sum()))
    if total > math.sqrt(data.n) * TOLERANCE:
        errors.append(f"scores sum to {total:.3e}, not zero")
    bound = 2.0 * sigma_sq * float(np.linalg.norm(gradient(theta, data, sigma_sq, phi_prime)))
    if not bound <= TOLERANCE * CERT_SLACK:
        errors.append(f"independent certificate {bound:.3e} exceeds tolerance {TOLERANCE:g}")
    return errors


def check_report(converged: bool, certified_error: float) -> list[str]:
    if not converged:
        return ["solver reported no convergence"]
    if not certified_error <= TOLERANCE:
        return [f"reported certified error {certified_error:.3e} exceeds {TOLERANCE:g}"]
    return []


def match(name: str, value: float, reference: float | None, rel: float = REL_MATCH) -> list[str]:
    if reference is None:
        return []
    if not abs(value - reference) <= rel * max(abs(reference), 1e-300):
        return [f"{name} {value!r} differs from reference {reference!r}"]
    return []


def read_scores(path, n: int) -> np.ndarray:
    """Scores CSV written by the program, indexed by the numeric part of each id."""
    theta = np.full(n, np.nan)
    with open(path, newline="", encoding="utf-8") as fh:
        rows = csv.reader(fh)
        next(rows)
        for name, value in rows:
            theta[int(name[1:])] = float(value)
    return theta


def monotone_steps(data: Comparisons) -> int:
    """Entries the monotonicity sweep must probe: all below the top grid point, 1."""
    return int(np.count_nonzero(data.r < 1.0))


def check_table(stdout: str, rc: int) -> tuple[list[str], list[str]]:
    """Rows of a ``gbtscore check`` table and the failures they show."""
    rows = [line for line in stdout.splitlines() if line.strip()]
    errors = [] if rc == 0 else [f"exit code {rc}"]
    if not rows:
        errors.append("no result rows printed")
    # rows read "<name>  <detail>  <status>", the status starting with pass or FAIL
    errors += [f"row not passing: {row!r}" for row in rows
               if "  pass" not in row or "FAIL" in row]
    return rows, errors


def read_probe_ratios(path) -> np.ndarray:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    return np.array([float(row["ratio"]) for row in rows])


def read_sweep(path) -> dict[str, float]:
    """``param|seed`` -> norm_error from the per-seed sparsity CSV."""
    with open(path, newline="", encoding="utf-8") as fh:
        return {f"{row['param']}|{row['seed']}": float(row["norm_error"])
                for row in csv.DictReader(fh)}
