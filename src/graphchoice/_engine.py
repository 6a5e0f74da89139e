"""Build, load and call the compiled row kernels and RK4 window of `_engine.c`.

The library is built on first use, never at import: `cc -O2
-ffp-contract=off -shared -fPIC ... -lm` into `$XDG_CACHE_HOME/graphchoice`
(default `~/.cache/graphchoice`), under a name keyed by the sha256 of the
source and the flags, and renamed into place atomically so that concurrent
first runs never load a partial file. Where no compiler or cache directory
is usable, `load` returns None and the engine and the rest-point solver run
their numpy loops and `Trajectory.to_csv` its f-string rows. `walk` and
`analysis` import this module at the first engine call or RK4 window, not
at import; `_writer` calls its CSV row writer, `gc_format_rows`.
"""
from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import subprocess
import tempfile
from pathlib import Path

import numpy as np

SOURCE = Path(__file__).with_name("_engine.c")
FLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")
KINDS = {"reinforced": 0, "sa": 1, "greedy": 2}  # the C source's enums
DYNAMICS = {"replicator": 0, "scaled": 1}


def cache_dir() -> Path:
    """`$XDG_CACHE_HOME/graphchoice`, or `~/.cache/graphchoice`."""
    root = os.environ.get("XDG_CACHE_HOME", "")
    return (Path(root) if os.path.isabs(root) else Path.home() / ".cache") / "graphchoice"


def _build(path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".build-", suffix=".so")
    os.close(fd)
    try:
        subprocess.run(["cc", *FLAGS, "-o", tmp, str(SOURCE), "-lm"],
                       check=True, capture_output=True)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


@functools.cache
def load():
    """The compiled library, its `gc_*` functions typed, or None where it
    cannot be built or loaded."""
    try:
        key = hashlib.sha256(SOURCE.read_bytes() + " ".join(FLAGS).encode())
        path = cache_dir() / f"engine-{key.hexdigest()[:16]}.so"
        if not path.is_file():
            _build(path)
        lib = ctypes.CDLL(str(path))
    except (OSError, RuntimeError, subprocess.SubprocessError):
        return None  # RuntimeError: Path.home() finds no home directory
    i32, i64, f64, ptr = ctypes.c_int32, ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
    lib.gc_run_block.argtypes = [i32, i64, i64, i64,  # kind, R, m, d_max
                                 ptr, ptr, ptr, f64,  # ids, uniform, mu, noise_std
                                 ptr, ptr, ptr,       # eps, alpha, temp
                                 i64, i64, i64, i64,  # t0, t1, n_steps, stride
                                 ptr, ptr, i64,       # U, Z, block width
                                 ptr, ptr, ptr,       # cur, S, mu_hat
                                 i64, ptr, ptr,       # snapshots: count, nodes, S
                                 ptr]                 # work
    lib.gc_run_block.restype = None
    lib.gc_rk4_window.argtypes = [i32, i64, ptr, ptr, f64,  # dynamics, m, adj, mu, alpha
                                  ptr, ptr, i64, f64,       # z, h, steps, dt_min
                                  ptr, ptr]                 # path, work
    lib.gc_rk4_window.restype = i64
    lib.gc_format_rows.argtypes = [i64, i64, ptr, ptr,  # rows, m, ns, nodes
                                   ptr, ptr, ptr,       # eps, alpha, xs
                                   ptr, i64]            # out, its bytes
    lib.gc_format_rows.restype = i64
    return lib


def compiled_block(g, rm, kind: str, columns, n_steps: int, stride: int,
                   cur, S, mu_hat, node_mat, S_snap):
    """`run_block(t0, t1, U, Z)` for `walk._run_engine` through
    `gc_run_block`, or None where the library cannot be built or loaded.

    `columns` are the eps, alpha and temp values that step t reads at index
    t. Every buffer of the run is checked here to be C-contiguous with the
    dtype and length the C side reads; the random blocks `U`, `Z` are the
    engine's own (R, block) float64 arrays. `run_block` holds the arrays,
    not only their addresses, so none is freed while it can be called.
    """
    lib = load()
    if lib is None:
        return None
    fn = lib.gc_run_block
    code = KINDS[kind]
    ids, uniform = g.neighbor_slots
    mu = rm.mu
    eps, alpha, temp = columns
    if min(eps.size, alpha.size, temp.size) < n_steps:
        raise ValueError("schedule columns cover fewer steps than the run")
    R, k, m = S_snap.shape
    work = np.empty(ids.shape[1])
    arrays = (ids, uniform, mu, *columns, cur, S, mu_hat, node_mat, S_snap,
              work)
    if not all(v.flags.c_contiguous for v in arrays):
        raise ValueError("engine buffers must be C-contiguous")
    floats = (uniform, mu, *columns, mu_hat)
    if ({v.dtype for v in (ids, cur, S, node_mat, S_snap)} != {np.dtype(np.int64)}
            or {v.dtype for v in floats} != {np.dtype(np.float64)}):
        raise ValueError("engine buffers must be int64 (indices, counts) or "
                         "float64 (probabilities, rewards, schedules, estimates)")

    def run_block(t0, t1, U, Z):
        fn(code, R, m, ids.shape[1], ids.ctypes.data,
           uniform.ctypes.data, mu.ctypes.data, rm.noise_std,
           eps.ctypes.data, alpha.ctypes.data, temp.ctypes.data,
           t0, t1, n_steps, stride, U.ctypes.data, Z.ctypes.data, U.shape[1],
           cur.ctypes.data, S.ctypes.data, mu_hat.ctypes.data,
           k, node_mat.ctypes.data, S_snap.ctypes.data, work.ctypes.data)
    return run_block


def rk4_window(dynamics: str, g, mu, alpha: float, z, h: float, steps: int,
               dt_min: float):
    """`(path, h, halvings)` of `analysis._rk4_window` through
    `gc_rk4_window`, or None where the library cannot be built or loaded.
    A step that falls below dt_min raises RuntimeError, as there."""
    lib = load()
    if lib is None:
        return None
    adj = g.adjacency_bool
    mu = np.ascontiguousarray(mu, dtype=np.float64)
    z = np.ascontiguousarray(z, dtype=np.float64)
    if not (adj.dtype == np.bool_ and adj.flags.c_contiguous and steps >= 0
            and adj.shape == (g.m, g.m) and mu.shape == z.shape == (g.m,)):
        raise ValueError("RK4 window needs steps >= 0, an (m, m) contiguous "
                         "bool adjacency and two length-m vectors")
    path = np.empty((steps + 1, g.m))
    h_io = np.array([h], dtype=np.float64)
    work = np.empty(6 * g.m)
    halvings = lib.gc_rk4_window(DYNAMICS[dynamics], g.m, adj.ctypes.data,
                                 mu.ctypes.data, alpha, z.ctypes.data,
                                 h_io.ctypes.data, steps, dt_min,
                                 path.ctypes.data, work.ctypes.data)
    if halvings < 0:
        raise RuntimeError(f"RK4 step fell below {dt_min}")
    return path, float(h_io[0]), halvings

