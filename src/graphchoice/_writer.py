"""Write the artifacts of a run: the CSV rows of `walk.Trajectory.to_csv`
through `gc_format_rows`, the compiled row writer of `_engine.c`, block by
block, and the JSON text of `meta.json` and `summary.json`.

It is a module of its own so that only a write imports it: the rest-point
solver imports `_engine` at its first RK4 window and never writes a
trajectory, and no set-up writes anything.
"""
from __future__ import annotations

import ctypes
import functools
from json.encoder import encode_basestring_ascii

import numpy as np

from . import _engine

BLOCK_BYTES = 1 << 18  # the row buffer of write_rows


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
        # the addresses stay valid while `held` and `out` live
        a_n, a_node, a_eps, a_alpha, a_x, a_out = map(_address, (*held, out))
    for r0 in range(0, n_rows, step):
        r1 = min(r0 + step, n_rows)
        size = -1 if lib is None else lib.gc_format_rows(
            r1 - r0, m, a_n + 8 * r0, a_node + 8 * r0, a_eps + 8 * r0,
            a_alpha + 8 * r0, a_x + 8 * m * r0, a_out, out.size)
        if size < 0:
            fh.write(fallback(ns[r0:r1], nodes[r0:r1], eps[r0:r1],
                              alphas[r0:r1], xs[r0:r1]).encode())
        else:
            fh.write(out[:size])


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
