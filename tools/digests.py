"""Print the digests that say a change left graphchoice's outputs unchanged.

    python3 tools/digests.py                 # the gate sizes, about 12 s on 2 cores
    python3 tools/digests.py --steps 200 --stride 100 --engine-steps 50 \\
        --wide-steps 20                      # a smoke run, a few seconds

Run it from a checkout: it imports `graphchoice` from `./src`. It prints
three lines:

files         the sha256 of every file `harness.run_experiment` writes for
              the nine bundled configs, each at `--steps` steps (default
              1e4) and stride `--stride` (default 100), on their shipped
              seeds: 189 files at the defaults (9 x 10 seeds x
              trajectory.csv and meta.json, plus 9 summary.json). Framing:
              the files in the order of their relative POSIX paths under
              the output root (`<name>/<seed>/trajectory.csv`,
              `<name>/summary.json`, ...); for each, the path in UTF-8, a
              NUL byte, the byte count in decimal ASCII, a NUL byte, then
              the bytes. `meta.json` records the engine that ran, so this
              digest is taken on the compiled loop where it loads.
engine c      the engine digest on the compiled loop, and
engine numpy  the same runs on the numpy loop (`_engine.load` patched to
              None); on these runs the loops agree bit for bit, so the two
              lines are equal.
              The runs: the nine bundled configs at `--engine-steps` steps
              (default 2e4) and stride 1, plus complete:64, linear:512 and
              star:200 (hub 1) for the reinforced walk, SA and greedy, each
              on seeds 1-10 at `--wide-steps` steps (default 2000) and
              stride 1, with mu_i = 0.5 + (i - 1)/m, noise_std 0.1 and
              linear_annealed's schedule for the walk. Framing: for each run
              in that order and each trajectory in seed order, the line
              `<name> <seed>\\n`, then the raw little-endian bytes of ns,
              nodes (int64), xs, eps, alphas (float64), of the final state's
              counts (int64) and mu_hat (float64), and the line
              `<n> <current> <repr(eps)> <repr(temp)>\\n` of the final state.

A field, seed or size changed in this script changes every digest; record
the printed values with the commit they were taken at.
"""
from __future__ import annotations

import argparse
import hashlib
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from graphchoice import _engine, harness  # noqa: E402

WIDE_GRAPHS = ({"generator": "complete", "m": 64},
               {"generator": "linear", "m": 512},
               {"generator": "star", "m": 200, "center": 1})


def files_digest(steps: int, stride: int) -> tuple[str, int]:
    """(sha256, file count) of the bundled configs' run_experiment files."""
    h, count = hashlib.sha256(), 0
    with tempfile.TemporaryDirectory() as out:
        for name in harness.bundled_config_names():
            raw = harness.load_config(name).raw
            cfg = harness.parse_config({**raw, "n_steps": steps,
                                        "record_stride": stride})
            harness.run_experiment(cfg, out)
        root = Path(out)
        for path in sorted(root.rglob("*"), key=lambda p: p.relative_to(root).as_posix()):
            if path.is_file():
                data = path.read_bytes()
                h.update(path.relative_to(root).as_posix().encode() + b"\0"
                         + str(len(data)).encode() + b"\0" + data)
                count += 1
    return h.hexdigest(), count


def engine_docs(steps: int, wide_steps: int) -> list[dict]:
    """The engine digest's runs, in digest order."""
    docs = [{**harness.load_config(name).raw, "n_steps": steps, "record_stride": 1}
            for name in harness.bundled_config_names()]
    annealed = harness.load_config("linear_annealed").raw
    for graph in WIDE_GRAPHS:
        m = graph["m"]
        base = {"schema": 1, "graph": graph,
                "mu": [0.5 + i / m for i in range(m)], "noise_std": 0.1,
                "n_steps": wide_steps, "record_stride": 1,
                "seeds": {"count": 10, "base": 1}, "start": "uniform"}
        for algo in ("reinforced", "sa", "greedy"):
            doc = {**base, "name": f"{graph['generator']}{m}_{algo}",
                   "algorithm": algo}
            if algo == "reinforced":
                doc["schedule"] = annealed["schedule"]
            docs.append(doc)
    return docs


def engine_digest(docs: list[dict]) -> str:
    h = hashlib.sha256()
    for doc in docs:
        cfg = harness.parse_config(doc)
        for t in harness.run_trajectories(cfg):
            fs = t.final_state
            h.update(f"{cfg.name} {t.seed}\n".encode())
            for v, dtype in ((t.ns, "<i8"), (t.nodes, "<i8"), (t.xs, "<f8"),
                             (t.eps, "<f8"), (t.alphas, "<f8"),
                             (fs.counts, "<i8"), (fs.mu_hat, "<f8")):
                h.update(np.ascontiguousarray(v, dtype=dtype).tobytes())
            h.update(f"{fs.n} {fs.current} {fs.sched.eps!r} "
                     f"{fs.sched.temp!r}\n".encode())
    return h.hexdigest()


@contextmanager
def numpy_loop():
    """Run the engine (and the writer) as where the library cannot load."""
    load = _engine.load
    _engine.load = lambda: None
    try:
        yield
    finally:
        _engine.load = load


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--steps", type=int, default=10_000)
    ap.add_argument("--stride", type=int, default=100)
    ap.add_argument("--engine-steps", type=int, default=20_000)
    ap.add_argument("--wide-steps", type=int, default=2000)
    args = ap.parse_args(argv)
    files, count = files_digest(args.steps, args.stride)
    print(f"files         {files}  ({count} files, engine "
          f"{'numpy' if _engine.load() is None else 'c'})")
    docs = engine_docs(args.engine_steps, args.wide_steps)
    print(f"engine c      {engine_digest(docs)}"
          + ("  (no compiled library: numpy loop)" if _engine.load() is None else ""))
    with numpy_loop():
        print(f"engine numpy  {engine_digest(docs)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
