"""Output checks. Each returns a list of problems; an empty list passes."""
from __future__ import annotations

import hashlib

import numpy as np

SIMPLEX_TOL = 1e-9
RESIDUAL_TOL = 1e-8
ORACLE_TOL = 1e-8


def trajectory_problems(traj, m: int, n_steps: int, final_on_disk) -> list[str]:
    """One seed-run: snapshots on the simplex, nodes in range, the final
    state consistent with its counts, and the last row read back from the
    CSV equal to the in-memory final frequencies."""
    out = []
    xs = np.asarray(traj.xs)
    if xs.ndim != 2 or xs.shape[1] != m:
        return [f"seed {traj.seed}: snapshot shape {xs.shape}, expected (k, {m})"]
    if (xs < 0).any():
        out.append(f"seed {traj.seed}: negative frequency")
    drift = float(np.abs(xs.sum(axis=1) - 1.0).max())
    if drift > SIMPLEX_TOL:
        out.append(f"seed {traj.seed}: a snapshot row sums {drift:.2e} away from 1")
    nodes = np.asarray(traj.nodes)
    if nodes.min() < 0 or nodes.max() >= m:
        out.append(f"seed {traj.seed}: node id out of range")
    if int(traj.ns[-1]) != n_steps:
        out.append(f"seed {traj.seed}: last snapshot at n={int(traj.ns[-1])}")
    final_x = xs[-1]
    fs = traj.final_state
    if fs is not None:
        final_x = fs.x
        if int(fs.counts.sum()) != n_steps:
            out.append(f"seed {traj.seed}: counts sum {int(fs.counts.sum())} != {n_steps}")
        gap = float(np.abs(fs.x - fs.counts / n_steps).max())
        if gap > SIMPLEX_TOL:
            out.append(f"seed {traj.seed}: final x differs from counts/n by {gap:.2e}")
    if not np.array_equal(np.asarray(final_on_disk, dtype=float), final_x):
        out.append(f"seed {traj.seed}: last CSV row differs from the in-memory final x")
    return out


def same_run_problems(batched, solo) -> list[str]:
    """A seed run inside a batch must be bit-identical to the seed run alone."""
    fields = ("ns", "nodes", "xs", "eps", "alphas")
    out = [f"seed {solo.seed}: batched {f} differs from solo run"
           for f in fields
           if not np.array_equal(getattr(batched, f), getattr(solo, f))]
    a, b = batched.final_state, solo.final_state
    if (a is None) != (b is None) or (a is not None and not (
            np.array_equal(a.counts, b.counts) and np.array_equal(a.x, b.x)
            and np.array_equal(a.mu_hat, b.mu_hat))):
        out.append(f"seed {solo.seed}: batched final state differs from solo run")
    return out


def fixed_point_problems(fp) -> list[str]:
    if not fp.converged:
        return [f"fixed point at alpha={fp.alpha:.3f} did not converge"]
    if not fp.residual < RESIDUAL_TOL:
        return [f"fixed point residual {fp.residual:.2e} >= {RESIDUAL_TOL}"]
    return []


def stationary_problems(closed_form, power) -> list[str]:
    if not power.converged:
        return ["power iteration did not converge"]
    gap = float(np.abs(np.asarray(closed_form) - power.pi).max())
    if gap > ORACLE_TOL:
        return [f"closed form and power iteration differ by {gap:.2e}"]
    return []


def file_sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()
