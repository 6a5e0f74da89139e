"""Write the CSV rows of `walk.Trajectory.to_csv` through `gc_format_rows`,
the compiled row writer of `_engine.c`, block by block.

It is a module of its own so that only a CSV write imports it: the
rest-point solver imports `_engine` at its first RK4 window and never
writes a trajectory.
"""
from __future__ import annotations

import numpy as np

from . import _engine

BLOCK_BYTES = 1 << 18  # the row buffer of write_rows


def write_rows(fh, ns, nodes, eps, alphas, xs, fallback) -> None:
    """The rows of `Trajectory.to_csv` for these columns into the binary
    file `fh`, in blocks of at most `BLOCK_BYTES`, so memory stays bounded
    however many rows there are. Each block is formatted by
    `gc_format_rows`, or by `fallback(ns, nodes, eps, alphas, xs)` on its
    rows where the library cannot be loaded or refuses a value outside its
    exact range; both give the same bytes."""
    n_rows, m = xs.shape
    if {ns.shape, nodes.shape, eps.shape, alphas.shape} != {(n_rows,)}:
        raise ValueError("a trajectory holds one n, node, eps and alpha per "
                         "row of xs")
    lib = _engine.load()
    row_max = 44 + 24 * (m + 2)  # the longest row, as gc_format_rows sizes it
    step = max(1, BLOCK_BYTES // row_max)
    if lib is not None:
        out = np.empty(min(step, n_rows) * row_max, dtype=np.uint8)
        held = [np.ascontiguousarray(v, dtype=t) for v, t in (
            (ns, np.int64), (nodes, np.int64), (eps, np.float64),
            (alphas, np.float64), (xs, np.float64))]
        addr = [v.ctypes.data for v in held]  # valid while `held` lives
        out_addr = out.ctypes.data
    for r0 in range(0, n_rows, step):
        r1 = min(r0 + step, n_rows)
        size = -1 if lib is None else lib.gc_format_rows(
            r1 - r0, m, addr[0] + 8 * r0, addr[1] + 8 * r0, addr[2] + 8 * r0,
            addr[3] + 8 * r0, addr[4] + 8 * m * r0, out_addr, out.size)
        if size < 0:
            fh.write(fallback(ns[r0:r1], nodes[r0:r1], eps[r0:r1],
                              alphas[r0:r1], xs[r0:r1]).encode())
        else:
            fh.write(out[:size])
