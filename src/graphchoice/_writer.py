"""Write the artifacts of a run: the CSV rows of `walk.Trajectory.to_csv`
through `gc_format_rows`, the compiled row writer of `_engine.c`, block by
block, and the JSON text of `meta.json` and `summary.json`.

It also owns the process's one worker pool (`pool`): at most
`os.cpu_count()` threads (1 where that is unknown), made at its first use
and made again in a forked child, with no option to size it. On it,
`write_rows` formats the blocks of a file of several blocks, which the
calling thread writes in order, and `harness.run_experiment` makes its
seed directories and writes each `meta.json`. Its tasks call only
`gc_format_rows`, `os.makedirs` and `harness._write_json_atomically`, so
a tracer that wraps the package's functions on one thread's stack, such
as `Trajectory.to_csv`, sees every call it wraps on the caller's thread.

It is a module of its own so that only a write imports it: the rest-point
solver imports `_engine` at its first RK4 window and never writes a
trajectory, and no set-up writes anything.
"""
from __future__ import annotations

import collections
import ctypes
import functools
import os
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor, wait
from json.encoder import encode_basestring_ascii

import numpy as np

from . import _engine

BLOCK_BYTES = 1 << 18  # the row buffer of write_rows, one per block in flight

_pool: tuple[ThreadPoolExecutor, int] | None = None  # made by pool()
_pool_lock = threading.Lock()


def pool() -> tuple[ThreadPoolExecutor, int]:
    """The process's worker pool and the number of threads it may start,
    `os.cpu_count()` or 1 where that is unknown; made at the first call."""
    global _pool
    with _pool_lock:
        if _pool is None:
            workers = os.cpu_count() or 1
            _pool = (ThreadPoolExecutor(workers,
                                        thread_name_prefix="graphchoice"),
                     workers)
        return _pool


def _forget_pool() -> None:
    """In a forked child, where none of the parent's pool threads run and
    the lock may have been held: the next `pool()` makes a new one."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


# A registered hook lives as long as the process. A weak one lets a copy of
# this module that the process imported again, its pool and its threads be
# freed; a child forked after that reports the dead hook and goes on.
os.register_at_fork(after_in_child=weakref.proxy(_forget_pool))


def run_here_or_wait(future, fn, *args):
    """The result of `future`, submitted as `fn(*args)`. When no worker has
    started it, the caller runs it instead, so a wait never waits on a
    queue: it cannot deadlock, whatever else the pool holds."""
    return fn(*args) if future.cancel() else future.result()


def cancel_and_wait(futures) -> None:
    """Cancel the futures no worker has started, and wait for the others.
    A cancelled future counts as done for `wait` only once a worker has
    taken it off the queue, so it is left out."""
    wait([future for future in futures if not future.cancel()])


@functools.cache
def header(m: int) -> bytes:
    """The header line of an m-node `trajectory.csv`."""
    return ("n,xi,eps,alpha," + ",".join(f"x_{i+1}" for i in range(m))
            + "\n").encode()


def _address(v: np.ndarray) -> int:
    """The address of a C-contiguous array's data. `c_char.from_buffer`
    costs a third of `ndarray.ctypes`, but takes only a writable, nonempty
    buffer."""
    if v.flags.writeable and v.nbytes:
        return ctypes.addressof(ctypes.c_char.from_buffer(v))
    return v.ctypes.data


def write_rows(fh, ns, nodes, eps, alphas, xs, fallback) -> None:
    """The rows of `Trajectory.to_csv` for these columns into the binary
    file `fh`, in blocks of at most `BLOCK_BYTES`, so memory stays bounded
    however many rows there are. Each block is formatted by
    `gc_format_rows`, or by `fallback(ns, nodes, eps, alphas, xs)` on its
    rows where the library cannot be loaded or refuses a value outside its
    exact range; both give the same bytes.

    The blocks of a file of several are formatted on the `pool`, at most
    two per worker at a time, each into one of as many buffers; a block
    reuses the buffer of the block written just before it was submitted.
    This thread writes the blocks to `fh` in order and runs the fallback.
    While it waits for the next block, it formats the last block queued
    if no worker has started that one, and the next block itself if no
    worker has started it: a wait never waits on the queue."""
    n_rows, m = xs.shape
    if {ns.shape, nodes.shape, eps.shape, alphas.shape} != {(n_rows,)}:
        raise ValueError("a trajectory holds one n, node, eps and alpha per "
                         "row of xs")
    lib = _engine.load()
    row_max = 44 + 24 * (m + 2)  # the longest row, as gc_format_rows sizes it
    step = max(1, BLOCK_BYTES // row_max)
    starts = range(0, n_rows, step)

    def fallback_rows(r0: int) -> bytes:
        r1 = r0 + step
        return fallback(ns[r0:r1], nodes[r0:r1], eps[r0:r1], alphas[r0:r1],
                        xs[r0:r1]).encode()

    if lib is None:
        for r0 in starts:
            fh.write(fallback_rows(r0))
        return
    executor, workers = pool() if len(starts) > 1 else (None, 0)
    in_flight = max(1, min(len(starts), 2 * workers))
    held = [np.ascontiguousarray(v, dtype=t) for v, t in (
        (ns, np.int64), (nodes, np.int64), (eps, np.float64),
        (alphas, np.float64), (xs, np.float64))]
    bufs = [np.empty(min(step, n_rows) * row_max, dtype=np.uint8)
            for _ in range(in_flight)]
    # The addresses stay valid while `held` and `bufs` live: until this
    # function returns, which it does only once no worker formats a block.
    a_n, a_node, a_eps, a_alpha, a_x = map(_address, held)
    a_bufs = list(map(_address, bufs))

    def block(k: int) -> tuple:
        """The arguments of gc_format_rows for the k-th block."""
        r0 = starts[k]
        return (min(step, n_rows - r0), m, a_n + 8 * r0, a_node + 8 * r0,
                a_eps + 8 * r0, a_alpha + 8 * r0, a_x + 8 * m * r0,
                a_bufs[k % in_flight], bufs[0].size)

    queued = collections.deque()  # (j, future) of the blocks on the pool
    own = {}  # j -> size of the blocks this thread took back and formatted
    try:
        for k, r0 in enumerate(starts):
            if executor is None:
                size = lib.gc_format_rows(*block(k))
            else:  # blocks k, k + 1, ... are queued or own; submit up to in_flight
                for j in range(k + len(queued) + len(own),
                               min(k + in_flight, len(starts))):
                    queued.append((j, executor.submit(lib.gc_format_rows,
                                                      *block(j))))
                while k not in own:  # then block k heads the queue
                    head = queued[0][1]
                    if (head.done() or len(queued) == 1
                            or not queued[-1][1].cancel()):
                        queued.popleft()
                        own[k] = run_here_or_wait(head, lib.gc_format_rows,
                                                  *block(k))
                    else:  # a worker has block k: format the last one queued
                        j = queued.pop()[0]
                        own[j] = lib.gc_format_rows(*block(j))
                size = own.pop(k)
            fh.write(fallback_rows(r0) if size < 0
                     else bufs[k % in_flight][:size])
    finally:
        cancel_and_wait([future for _, future in queued])


_SPECIAL = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float(v: float) -> str:
    """A float as `json` writes it: its repr, or NaN and +-Infinity."""
    text = float.__repr__(v)
    return _SPECIAL.get(text, text)


def _text(o, indent: str) -> str:
    """The JSON text of `o`, its nested lines starting with `indent` plus
    one space. The checks run in `json`'s order, so a bool is never an int
    and an `np.float64` is a float."""
    if isinstance(o, str):
        return encode_basestring_ascii(o)
    if o is None or o is True or o is False:
        return "null" if o is None else "true" if o else "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        return _float(o)
    inner = indent + " "
    sep = "," + inner
    if isinstance(o, (list, tuple)):
        if set(map(type, o)) == {float}:  # a list of floats in one join
            body = sep.join(map(float.__repr__, o))
            if "n" in body:  # a nan or an inf, which json spells otherwise
                body = sep.join(map(_float, o))
        else:
            body = sep.join([_text(v, inner) for v in o])
        return "[" + inner + body + indent + "]" if o else "[]"
    if isinstance(o, dict):
        body = sep.join([encode_basestring_ascii(_key(k)) + ": " + _text(v, inner)
                         for k, v in sorted(o.items())])
        return "{" + inner + body + indent + "}" if o else "{}"
    raise TypeError(f"Object of type {o.__class__.__name__} "
                    f"is not JSON serializable")


def _key(k) -> str:
    """A dict key as `json` converts it: a str as it is, a float, int, bool
    or None as its JSON text."""
    if isinstance(k, str):
        return k
    if k is None or isinstance(k, (int, float)):
        return _text(k, "")
    raise TypeError(f"keys must be str, int, float, bool or None, "
                    f"not {k.__class__.__name__}")


def dumps(doc) -> str:
    """`json.dumps(doc, indent=1, sort_keys=True)`, the same text. With an
    indent CPython runs json's pure-Python encoder; this one writes a list
    of floats in one join."""
    return _text(doc, "\n")
