"""Comparison algorithms under the same graph constraints and noisy rewards.

Two standard methods, both moving only along graph edges and both keeping
running-mean reward estimates exactly like the reinforced walk:

  * Simulated annealing with the neighbor-proposal kernel
        p(x -> y) = (1/|N(x)|) * exp(-max(0, mu_hat_x - mu_hat_y) / T_n)
    for y in N(x), y != x, self-loop taking the remaining mass, and
    T_n = gamma / log(1 + n). Moving toward higher estimated reward is free;
    downhill moves are suppressed as T decays (maximization orientation).

  * Epsilon-greedy: with probability eps_n a uniform random neighbor,
    otherwise the neighbor (including the current node) with the highest
    estimated reward, ties broken toward the lowest node id. Default
    schedule eps_n = 1/n.

Runs go through the walk module's batched engine, the only way to advance
them (there is no stepwise API), and reuse its Trajectory/CSV format and its
end-of-run state, `WalkState`. Each batch runner hands the engine its
kernel's name and the eps and temperature columns it records; step n -> n+1
reads them at n + 1. Both numpy row kernels, `_sa_slots` and
`_greedy_slots`, live in `walk` beside the reinforced one, as in
`_engine.c`. They work on the padded neighbor slots of
`Graph.neighbor_slots`, so a step costs O(R*d_max): estimates are read
through the engine's flat (R, m+1) layout, whose zero column m backs the
padding slots, and the uniform slot rows (0 on padding) supply 1/|N(x)| and
the mask that keeps padding out of the greedy argmax. The recorded `alpha`
column holds 1/T_n for annealing and 0 for epsilon-greedy; the `eps` column
holds 0 for annealing and eps_n for epsilon-greedy. A state's `sched` holds
the same values: (eps=0, temp=T_n) for annealing and (eps=eps_n, temp=inf)
for epsilon-greedy, so every run returns a `final_state` whose `sched` holds
the last recorded eps and alpha. Randomness follows the same [init, select,
noise] stream protocol as the reinforced walk: one selection uniform and one
reward normal per step.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import Graph
from .walk import RewardModel, Trajectory, _run_engine


@dataclass(frozen=True)
class SAConfig:
    gamma: float = 0.1  # temperature scale, T_n = gamma / log(1 + n)

    def __post_init__(self):
        if isinstance(self.gamma, bool) or not 0 < self.gamma < math.inf:
            raise ValueError(f"gamma must be a positive finite number, "
                             f"got {self.gamma!r}")


@dataclass(frozen=True)
class GreedyConfig:
    READS = {"one_over_n": ("mode",),  # the greedy_eps keys each eps_mode reads
             "constant": ("mode", "value")}
    eps_mode: str = "one_over_n"  # or 'constant'
    eps_value: float = 0.1        # used by 'constant'

    def __post_init__(self):
        if self.eps_mode not in self.READS:
            raise ValueError(f"unknown eps_mode {self.eps_mode!r}")
        if not 0.0 <= self.eps_value <= 1.0:
            raise ValueError("eps_value must be in [0, 1]")


def _require_self_loops(g: Graph) -> None:
    """Annealing leaves its unused mass on the self-loop, so every node needs
    one: without it the row would not be stochastic."""
    if g.missing_self_loops:
        raise ValueError("simulated annealing needs a self-loop at every "
                         f"node; node {g.missing_self_loops[0]} has none")


def run_sa_batch(g: Graph, rm: RewardModel, cfg: SAConfig, n_steps: int,
                 seeds, record_stride: int = 1, start=None) -> list[Trajectory]:
    """Seeded annealing runs, one per seed, sharing (g, rm, cfg)."""
    _require_self_loops(g)

    def columns(n_steps):
        # T_n = gamma/log(1+n), T_0 = inf, with math.log: np.log differs from
        # it in the last bit at some integers (9170, 19143, 94869 below 1e5)
        with np.errstate(divide="ignore"):
            logs = np.fromiter(map(math.log, range(1, n_steps + 2)), float)
            return np.zeros(n_steps + 1), cfg.gamma / logs

    return _run_engine(g, rm, "sa", columns, n_steps, seeds, record_stride,
                       start)


def run_greedy_batch(g: Graph, rm: RewardModel, cfg: GreedyConfig,
                     n_steps: int, seeds, record_stride: int = 1,
                     start=None) -> list[Trajectory]:
    """Seeded epsilon-greedy runs, one per seed, sharing (g, rm, cfg)."""
    def columns(n_steps):
        eps = np.zeros(n_steps + 1)  # eps_n for n >= 1
        eps[1:] = (1.0 / np.arange(1, n_steps + 1)
                   if cfg.eps_mode == "one_over_n" else cfg.eps_value)
        return eps, np.full(n_steps + 1, math.inf)

    return _run_engine(g, rm, "greedy", columns, n_steps, seeds,
                       record_stride, start)
