"""Per-step cost of the walk engines across graph size m and batch width R.

For each point the engine runs once for 1 step and once for n steps; the
difference of the engine's self time (its span minus schedule_arrays) over
(n - 1) * R is the marginal cost per seed-step. Subtracting the 1-step run
removes what every run pays once: seeding R generators, the first block of
random numbers and the result copies, which would otherwise swamp short
runs at large R. The estimate is noisy where that set-up is large (R=1000),
but it has no bound to meet.

Star graphs stay on purpose: the hub has degree m, so a padded neighbour
table gains nothing there.
"""
from __future__ import annotations

import numpy as np

from spans import Tracer, self_times

GRAPHS = ("complete", "linear", "star")
SIZES = (4, 64, 512)
WIDTHS = (1, 10, 100, 1000)
BASELINE_SIZES = (4, 512)
BASELINE_WIDTHS = (10, 1000)
TARGET_S = 0.15  # stepping time aimed at per point, setup excluded


def steps_for(R: int, m: int) -> int:
    """n such that n steps take about TARGET_S, from a rough per-step model
    of the dense engine (fixed interpreter cost plus O(R * m) array work)."""
    per_step = 5e-5 + R * (3e-7 + m * 4e-8)
    return int(min(2000, max(8, TARGET_S / per_step)))


def _graph(gc, kind: str, m: int):
    if kind == "complete":
        return gc.graphs.make_complete(m)
    if kind == "linear":
        return gc.graphs.make_linear(m)
    return gc.graphs.make_star(m, 1)


def run(gc, seed: int) -> tuple[dict[str, float], Tracer]:
    """Metric name -> ns per seed-step, plus the tracer holding the spans."""
    rng = np.random.default_rng([seed, 3])
    base = int(rng.integers(1, 1 << 30))
    schedule = gc.harness.load_config("linear_annealed").schedule
    tr = Tracer()
    engines = {"walk": (gc.walk, "run_batch"),
               "sa": (gc.baselines, "run_sa_batch"),
               "greedy": (gc.baselines, "run_greedy_batch")}
    for name, (owner, attr) in engines.items():
        tr.wrap(owner, attr, f"sweep.{name}")
    tr.wrap(gc.schedules, "schedule_arrays", "schedules.schedule_arrays")

    def engine_self_s(call) -> float:
        first = len(tr.spans)
        call()
        spans = tr.spans[first:]
        return self_times(spans)[spans[0].id]

    def per_seed_step_ns(call, R: int, n: int) -> float:
        # The lesser of two 1-step runs: machine noise only ever adds time.
        t1 = min(engine_self_s(lambda: call(1)) for _ in range(2))
        tn = engine_self_s(lambda: call(n))
        return max(tn - t1, 0.0) / ((n - 1) * R) * 1e9

    out = {}
    try:
        for kind in GRAPHS:
            for m in SIZES:
                g = _graph(gc, kind, m)
                rm = gc.walk.RewardModel(mu=np.exp(rng.uniform(-0.7, 0.7, m)))
                for R in WIDTHS:
                    seeds = range(base, base + R)
                    run_n = lambda n: gc.walk.run_batch(g, rm, schedule, n, seeds,
                                                        record_stride=n)
                    out[f"walk.ns_per_seed_step.{kind}{m}.R{R}"] = \
                        per_seed_step_ns(run_n, R, steps_for(R, m))
        sa_cfg = gc.baselines.SAConfig(gamma=schedule.gamma_sa)
        greedy_cfg = gc.baselines.GreedyConfig()
        for m in BASELINE_SIZES:
            g = gc.graphs.make_linear(m)
            rm = gc.walk.RewardModel(mu=np.exp(rng.uniform(-0.7, 0.7, m)))
            for R in BASELINE_WIDTHS:
                seeds = range(base, base + R)
                for algo, fn, cfg in (("sa", gc.baselines.run_sa_batch, sa_cfg),
                                      ("greedy", gc.baselines.run_greedy_batch,
                                       greedy_cfg)):
                    run_n = lambda n: fn(g, rm, cfg, n, seeds, record_stride=n)
                    out[f"baselines.{algo}_ns_per_seed_step.linear{m}.R{R}"] = \
                        per_seed_step_ns(run_n, R, steps_for(R, m))
    finally:
        tr.uninstall()
    return out, tr
