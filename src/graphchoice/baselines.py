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

Runs go through the walk module's batched engine and reuse its
Trajectory/CSV format and its run state, `WalkState`. Each batch runner
hands the engine its kernel's name and the eps and temperature columns it
records; step n -> n+1 reads them at n + 1. Both row kernels, `_sa_slots`
and `_greedy_slots`, live in `walk` beside the reinforced one, as in
`_engine.c`, and the stepwise references here call them. They work on
the padded neighbor slots of `Graph.neighbor_slots`, so a step costs
O(R*d_max): estimates are read through the engine's flat (R, m+1) layout,
whose zero column m backs the padding slots, and the uniform slot rows (0 on
padding) supply 1/|N(x)| and the mask that keeps padding out of the greedy
argmax. The recorded `alpha` column holds 1/T_n for annealing and 0 for
epsilon-greedy; the `eps` column holds 0 for annealing and eps_n for
epsilon-greedy. A state's `sched` holds the same values: (eps=0, temp=T_n)
for annealing and (eps=eps_n, temp=inf) for epsilon-greedy, so every run
returns a `final_state` whose `sched` holds the last recorded eps and
alpha. Randomness follows the same [init, select, noise] stream protocol as
the reinforced walk: one selection uniform and one reward normal per step.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import Graph
from .schedules import ScheduleState, exact_log
from .walk import (RewardModel, Trajectory, WalkRng, WalkState, _greedy_slots,
                   _move, _run_engine, _sa_slots, _scatter, _slot_row)


@dataclass(frozen=True)
class SAConfig:
    gamma: float = 0.1  # temperature scale, T_n = gamma / log(1 + n)

    def __post_init__(self):
        if not 0 < self.gamma < math.inf:
            raise ValueError("gamma must be positive and finite")


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


def initial_state(g: Graph, start: int) -> WalkState:
    """A baseline run at n = 0 from a 1-based start node: both columns
    record eps = 0 and alpha = 0 there."""
    return WalkState.initial(g, start, ScheduleState(n=0, eps=0.0, temp=math.inf))


def sa_temperature(n: int, cfg: SAConfig) -> float:
    """T_n = gamma / log(1 + n) for n >= 1."""
    if n < 1:
        raise ValueError("temperature index starts at n = 1")
    return cfg.gamma / math.log(1.0 + n)


def greedy_epsilon(n: int, cfg: GreedyConfig) -> float:
    if n < 1:
        raise ValueError("epsilon index starts at n = 1")
    if cfg.eps_mode == "constant":
        return cfg.eps_value
    return 1.0 / n


def _require_self_loops(g: Graph) -> None:
    """Annealing leaves its unused mass on the self-loop, so every node needs
    one: without it the row would not be stochastic."""
    if g.missing_self_loops:
        raise ValueError("simulated annealing needs a self-loop at every "
                         f"node; node {g.missing_self_loops[0]} has none")


def sa_transition_row(state: WalkState, g: Graph) -> np.ndarray:
    """Single-state annealing kernel row at the state's temperature."""
    _require_self_loops(g)
    nb, unif, mu_hat = _slot_row(g, state.current, state.mu_hat)
    p = _sa_slots(mu_hat, state.mu_hat[[state.current]],
                  (nb == state.current)[None, :], unif, state.sched.temp)
    return _scatter(nb, p[0], g.m)


def sa_step(state: WalkState, g: Graph, rm: RewardModel, cfg: SAConfig,
            rng: WalkRng) -> WalkState:
    """One annealing move at T_{n+1}; observes the reward of the node moved to."""
    _require_self_loops(g)  # before the state changes
    n = state.n + 1
    state.sched = ScheduleState(n=n, eps=0.0, temp=sa_temperature(n, cfg))
    return _move(state, sa_transition_row(state, g), rm, rng)


def greedy_step(state: WalkState, g: Graph, rm: RewardModel,
                cfg: GreedyConfig, rng: WalkRng) -> WalkState:
    """One epsilon-greedy move at eps_{n+1}; observes the reward of the node
    moved to."""
    n = state.n + 1
    state.sched = ScheduleState(n=n, eps=greedy_epsilon(n, cfg), temp=math.inf)
    nb, unif, mu_hat = _slot_row(g, state.current, state.mu_hat)
    p = _greedy_slots(mu_hat, unif, state.sched.eps)
    return _move(state, _scatter(nb, p[0], g.m), rm, rng)


def run_sa_batch(g: Graph, rm: RewardModel, cfg: SAConfig, n_steps: int,
                 seeds, record_stride: int = 1, start=None) -> list[Trajectory]:
    """Seeded annealing runs, one per seed, sharing (g, rm, cfg)."""
    _require_self_loops(g)

    def columns(n_steps):
        with np.errstate(divide="ignore"):  # sa_temperature(n); T_0 = inf
            return np.zeros(n_steps + 1), cfg.gamma / exact_log(1, n_steps + 2)

    return _run_engine(g, rm, "sa", columns, n_steps, seeds, record_stride,
                       start)


def run_greedy_batch(g: Graph, rm: RewardModel, cfg: GreedyConfig,
                     n_steps: int, seeds, record_stride: int = 1,
                     start=None) -> list[Trajectory]:
    """Seeded epsilon-greedy runs, one per seed, sharing (g, rm, cfg)."""
    def columns(n_steps):
        eps = np.zeros(n_steps + 1)  # greedy_epsilon(n) for n >= 1
        eps[1:] = (1.0 / np.arange(1, n_steps + 1)
                   if cfg.eps_mode == "one_over_n" else cfg.eps_value)
        return eps, np.full(n_steps + 1, math.inf)

    return _run_engine(g, rm, "greedy", columns, n_steps, seeds,
                       record_stride, start)
