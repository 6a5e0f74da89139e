"""The four benchmark workloads, each driven through graphchoice's public API.

A workload has a set-up (import, config load/parse, graph build with the
cached adjacency and uniform rows), a timed pass over fixed inputs that is
repeated for the length of a run, and untimed output checks after every
pass. Inputs come from the workload seed alone: it picks the seed bases of
the experiments, draws the wide_sparse reward vector and perturbs the
analysis instance suite.

configs      the nine bundled configs, as shipped except for a shorter step
             budget, through harness.run_experiment: the traffic that
             `graphchoice run` and the acceptance suite serve (narrow R, small m).
wide_sparse  linear:512 with 100 seeds and a snapshot only at the end: the
             dense O(R*m) kernel rows dominate, which a sparse engine targets.
trace_io     linear_annealed with record_stride=1: every step snapshotted,
             a CSV row written and read back per step (write-heavy).
analysis     small instances in the acceptance suite's style through
             find_fixed_point, closed form vs power iteration pairs and an
             alpha ladder: RK4 windows and power iteration, no walk at all.
"""
from __future__ import annotations

import functools
import hashlib
import importlib
import math
import shutil
import sys
import traceback
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import outputs

LAYERS = ("graphs", "schedules", "walk", "baselines", "analysis", "harness")

# Step budgets are cut from the shipped 1e5 so that one pass takes about
# 1-2 s, and one operation at most about 1 s, on a 2-core Xeon: a run then
# holds enough passes for a steady median, and the reference loop timed
# between operations follows the host's speed closely enough. Per-step
# cost does not depend on the step budget.
CONFIGS_STEPS = 2500
WIDE_M, WIDE_SEEDS, WIDE_STEPS = 512, 100, 300
TRACE_IO_SEEDS, TRACE_IO_STEPS = 3, 5_000
BATCH_SOLO_STEPS = 300


def import_package() -> SimpleNamespace:
    """Import graphchoice afresh, so every set-up pays the import."""
    for name in [n for n in sys.modules
                 if n == "graphchoice" or n.startswith("graphchoice.")]:
        del sys.modules[name]
    return SimpleNamespace(**{layer: importlib.import_module(f"graphchoice.{layer}")
                              for layer in LAYERS})


def _touch_caches(g) -> None:
    g.adjacency_bool, g.degrees, g.uniform_rows  # noqa: B018 (cached properties)


def report_failure(what: str) -> None:
    print(f"perfbench: {what} raised:", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


class Simulation:
    """Experiment configs run through harness.run_experiment."""

    min_passes = 3
    cycle = 1  # a run ends after a whole number of cycles of passes

    def __init__(self, name: str, seed: int, scratch: Path):
        self.name = name
        self.seed = seed
        self.scratch = scratch
        self.reference = "wide" if name == "wide_sparse" else "narrow"
        rng = np.random.default_rng([seed, 1])
        self.seed_base = int(rng.integers(1, 1 << 30))
        self.mu = np.exp(rng.uniform(math.log(0.5), math.log(2.0), size=WIDE_M))
        self.digests: dict[tuple[str, int], str] = {}
        self.problems: list[str] = []
        self._passes = 0

    def _docs(self, harness) -> list[dict]:
        if self.name == "configs":
            shipped = [harness.load_config(n) for n in harness.bundled_config_names()]
            return [{**c.raw, "n_steps": CONFIGS_STEPS,
                     "seeds": {"count": len(c.seeds), "base": self.seed_base}}
                    for c in shipped]
        annealed = harness.load_config("linear_annealed").raw
        if self.name == "wide_sparse":
            return [{"schema": 1, "name": "wide_sparse",
                     "graph": {"generator": "linear", "m": WIDE_M},
                     "mu": [float(v) for v in self.mu],
                     "noise_std": annealed["noise_std"],
                     "algorithm": "reinforced", "schedule": annealed["schedule"],
                     "n_steps": WIDE_STEPS, "record_stride": WIDE_STEPS,
                     "seeds": {"count": WIDE_SEEDS, "base": self.seed_base},
                     "start": "uniform"}]
        # Two experiments, so that no operation runs much longer than the
        # reference loop's spacing elsewhere.
        return [{**annealed, "name": f"trace_io_{i}", "n_steps": TRACE_IO_STEPS,
                 "record_stride": 1,
                 "seeds": {"count": TRACE_IO_SEEDS,
                           "base": self.seed_base + i * TRACE_IO_SEEDS}}
                for i in range(2)]

    def setup(self, gc: SimpleNamespace) -> None:
        self.gc = gc
        self.cfgs = [gc.harness.parse_config(doc) for doc in self._docs(gc.harness)]
        for cfg in self.cfgs:
            _touch_caches(cfg.build_graph())
        self.work_per_pass = sum(len(c.seeds) * c.n_steps for c in self.cfgs)

    def start(self) -> None:
        """Called once after the last set-up, before the first pass."""
        # Keep the in-memory trajectories run_experiment computes, so the
        # checks can compare them with what was written to disk.
        self._trajs: dict[str, list] = {}
        harness = self.gc.harness
        run_trajectories = harness.run_trajectories

        def capture(cfg, seeds=None):
            trajs = run_trajectories(cfg, seeds)
            self._trajs[cfg.name] = trajs
            return trajs

        harness.run_trajectories = capture

    def ops(self, k: int, tr) -> list:
        """One pass: a run_experiment call per config, into a fresh directory."""
        self._passes += 1
        self.out_dir = self.scratch / f"pass{self._passes}"
        return [functools.partial(self._run, cfg, tr) for cfg in self.cfgs]

    def _run(self, cfg, tr):
        span = tr.begin("harness.run_experiment", tag=cfg.name)
        try:
            summary = self.gc.harness.run_experiment(cfg, str(self.out_dir))
        except Exception:  # a failed run is counted, the benchmark goes on
            report_failure(f"run_experiment({cfg.name})")
            summary = None
        finally:
            tr.end(span)
        return cfg, summary

    def check_pass(self, results, traced: bool) -> tuple[int, int]:
        """(seed-runs attempted, seed-runs failed) for one pass."""
        attempted = failed = 0
        for (cfg, summary), _ in results:
            attempted += len(cfg.seeds)
            trajs = self._trajs.pop(cfg.name, None)
            if summary is None or trajs is None:
                failed += len(cfg.seeds)
                continue
            for traj in trajs:
                found = outputs.trajectory_problems(
                    traj, cfg.mu.size, cfg.n_steps,
                    summary["final_x"][str(traj.seed)])
                csv = self.out_dir / cfg.name / str(traj.seed) / "trajectory.csv"
                try:
                    digest = outputs.file_sha256(csv)
                except OSError as exc:
                    found.append(f"{cfg.name}/{traj.seed}: {exc}")
                else:
                    if self.digests.setdefault((cfg.name, traj.seed), digest) != digest:
                        found.append(f"{cfg.name}/{traj.seed}: trajectory.csv "
                                     "differs between passes")
                if found:
                    failed += 1
                    self.problems += found
        shutil.rmtree(self.out_dir, ignore_errors=True)
        return attempted, failed

    def final_checks(self) -> tuple[int, int]:
        """Per config, one seed of a short batched run against its solo run."""
        attempted = failed = 0
        harness = self.gc.harness
        for cfg in self.cfgs:
            attempted += 1
            short = harness.parse_config(
                {**cfg.raw, "n_steps": min(cfg.n_steps, BATCH_SOLO_STEPS)})
            try:
                batched = harness.run_trajectories(short)[-1]
                solo = harness.run_trajectories(short, [short.seeds[-1]])[0]
            except Exception:
                report_failure(f"batched/solo run of {cfg.name}")
                failed += 1
                continue
            found = outputs.same_run_problems(batched, solo)
            if found:
                failed += 1
                self.problems += found
        return attempted, failed

    def digest(self) -> str:
        lines = "".join(f"{name}/{seed}={hexd}\n"
                        for (name, seed), hexd in sorted(self.digests.items()))
        return hashlib.sha256(lines.encode()).hexdigest()


def _random_graph(gc, rng, m: int):
    """Path backbone plus random chords: the acceptance suite's instances."""
    edges = [(i, i + 1) for i in range(1, m)]
    edges += [(i, j) for i in range(1, m + 1) for j in range(i + 2, m + 1)
              if rng.random() < 0.4]
    return gc.graphs.from_edges(m, edges, repair=True)


def _instance(gc, rng, m: int, floor: float):
    g = _random_graph(gc, rng, m)
    _touch_caches(g)
    mu = np.exp(rng.uniform(math.log(0.5), math.log(2.0), size=m))
    x = (1.0 - floor * m) * rng.dirichlet(np.ones(m)) + floor
    return g, mu, x


class Analysis:
    """Rest points, stationary laws and an alpha ladder on small instances.

    The instances are block k of a fixed suite (graphs, rewards, exponents,
    start points drawn from a fixed generator), and the workload seed
    perturbs the rewards by up to 1 % and mixes 1 % of a random point into
    the start points. Drawing whole instances from the workload seed made
    the cost of a run's instances vary by 6-8 % between seeds (median over
    blocks, counted in rhs evaluations), because convergence time is
    heavy-tailed; with the fixed suite that share is about 1 %.
    """

    SUITE = 20200707    # fixed generator of the instance suite
    # Per block: m = 3..7 crossed with three alpha strata of [0.6, 3).
    # The ladder is short because its cost varies most between instances.
    FIXED_POINTS = 15
    PAIRS = 10
    LADDER = (0.5, 1.0, 2.0)
    # Passes cycle through the blocks, and a run covers whole cycles: block
    # costs differ by up to 1.8x, so a run that stopped part-way through a
    # cycle could move the median pass cost by 3-4 % (in rhs evaluations)
    # with the number of passes the host's speed allowed.
    BLOCKS = 7          # 105 distinct fixed-point instances per run
    min_passes = cycle = BLOCKS  # >= 100 fixed-point latencies for a p90

    reference = "narrow"

    def __init__(self, seed: int):
        self.name = "analysis"
        self.seed = seed
        self.work_per_pass = self.FIXED_POINTS + len(self.LADDER)
        self.latencies: list[float] = []
        self.problems: list[str] = []

    def _block(self, gc, k: int) -> dict:
        rng = np.random.default_rng([self.SUITE, k])
        jitter = np.random.default_rng([self.seed, 2, k])

        def instance(m, floor):
            g, mu, x = _instance(gc, rng, m, floor)
            return (g, mu * np.exp(jitter.uniform(-0.01, 0.01, m)),
                    0.99 * x + 0.01 * jitter.dirichlet(np.ones(m)))

        fps = [(*instance(3 + j % 5, 0.04), 0.6 + 0.8 * (j // 5 + rng.random()))
               for j in range(self.FIXED_POINTS)]
        pairs = [(*instance(3 + j % 5, 0.08), 0.05 + 0.245 * (j + rng.random()))
                 for j in range(self.PAIRS)]
        g, mu, _ = instance(5, 0.04)
        return {"fps": fps, "pairs": pairs, "ladder": (g, mu)}

    def setup(self, gc: SimpleNamespace) -> None:
        self.gc = gc
        self.blocks = [self._block(gc, k) for k in range(self.BLOCKS)]

    def start(self) -> None:
        pass

    def ops(self, k: int, tr) -> list:
        """One pass: each fixed point alone (its time is a latency sample),
        then the stationary pairs together, then the ladder."""
        block = self.blocks[k % self.BLOCKS]
        return ([functools.partial(self._fixed_point, *inst)
                 for inst in block["fps"]]
                + [functools.partial(self._pairs, block["pairs"], tr),
                   functools.partial(self._ladder, *block["ladder"], tr)])

    def _fixed_point(self, g, mu, z0, alpha):
        try:
            return self.gc.analysis.find_fixed_point(
                g, mu, alpha, z0=z0, dt=0.02, window=400, max_windows=400,
                residual_tol=1e-8)
        except Exception:
            report_failure("find_fixed_point")
            return None

    def _pairs(self, pairs, tr):
        an = self.gc.analysis
        out = []
        for g, mu, x, alpha in pairs:
            try:
                pi = tr.call("analysis.stationary_closed_form",
                             an.stationary_closed_form, x, g, mu, alpha)
                kernel = tr.call("analysis.limit_kernel",
                                 an.limit_kernel, x, g, mu, alpha)
                out.append((pi, an.stationary_power_iteration(kernel, tol=1e-13)))
            except Exception:
                report_failure("stationary pair")
                out.append(None)
        return out

    def _ladder(self, g, mu, tr):
        try:
            entries = tr.call("analysis.alpha_concentration_check",
                              self.gc.analysis.alpha_concentration_check,
                              g, mu, self.LADDER)
            return [e.fixed_point for e in entries]
        except Exception:
            report_failure("alpha_concentration_check")
            return [None] * len(self.LADDER)

    def check_pass(self, results, traced: bool) -> tuple[int, int]:
        """(analysis calls attempted, analysis calls failed) for one pass."""
        n_fp = self.FIXED_POINTS
        if not traced:
            self.latencies += [dt for _, dt in results[:n_fp]]
        fps = [fp for fp, _ in results[:n_fp]] + results[-1][0]
        found = [["raised"] if fp is None else outputs.fixed_point_problems(fp)
                 for fp in fps]
        found += [["raised"] if pair is None else outputs.stationary_problems(*pair)
                  for pair in results[n_fp][0]]
        bad = [p for p in found if p]
        for p in bad:
            self.problems += p
        return len(found), len(bad)

    def final_checks(self) -> tuple[int, int]:
        return 0, 0

    def digest(self) -> str | None:
        return None


def make(name: str, seed: int, scratch: Path):
    if name == "analysis":
        return Analysis(seed)
    return Simulation(name, seed, scratch)
