import math

import numpy as np
import pytest

from graphchoice import baselines, graphs, walk
from graphchoice.schedules import ScheduleState


def _sa_state(g, start, mu_hat, temp):
    st = baselines.initial_state(g, start)
    st.mu_hat = np.asarray(mu_hat, dtype=float)
    st.sched = ScheduleState(n=0, eps=0.0, temp=temp)
    return st


def test_sa_temperature_schedule():
    cfg = baselines.SAConfig(gamma=0.1)
    assert baselines.sa_temperature(1, cfg) == pytest.approx(0.1 / math.log(2.0))
    temps = [baselines.sa_temperature(n, cfg) for n in (1, 10, 100, 10_000)]
    assert all(t > 0 for t in temps)
    assert all(b < a for a, b in zip(temps, temps[1:]))
    with pytest.raises(ValueError):
        baselines.sa_temperature(0, cfg)


def test_sa_kernel_equal_estimates_proposes_uniformly():
    g = graphs.make_linear(4)
    st = _sa_state(g, 2, np.full(4, 0.7), temp=0.05)
    row = baselines.sa_transition_row(st, g)
    # |N(2)| = 3; off-self entries each 1/3, self-loop takes the remainder
    assert row[0] == pytest.approx(1 / 3)
    assert row[2] == pytest.approx(1 / 3)
    assert row[1] == pytest.approx(1 / 3)
    assert row[3] == 0.0


def test_sa_kernel_downhill_penalty_arithmetic():
    # mu_hat_x = 1.0, mu_hat_y = 0.5, T = 0.1, |N(x)| = 3:
    # p_xy = (1/3) exp(-5) ~ 0.002245
    g = graphs.make_linear(4)
    st = _sa_state(g, 2, [0.5, 1.0, 1.0, 1.0], temp=0.1)
    row = baselines.sa_transition_row(st, g)
    assert row[0] == pytest.approx((1 / 3) * math.exp(-5.0), rel=1e-12)
    assert row[0] == pytest.approx(0.002245, abs=1e-6)
    assert row[2] == pytest.approx(1 / 3)  # equal estimate: no penalty
    assert row.sum() == pytest.approx(1.0, abs=1e-12)


def test_sa_rows_always_stochastic():
    rng = np.random.default_rng(30)
    g = graphs.make_two_cliques(2, 5)
    for _ in range(200):
        st = _sa_state(g, int(rng.integers(1, g.m + 1)),
                       rng.uniform(0.0, 2.0, g.m),
                       temp=float(rng.uniform(1e-3, 1.0)))
        row = baselines.sa_transition_row(st, g)
        assert abs(row.sum() - 1.0) < 1e-12
        assert np.all(row >= 0.0)
        assert 0.0 <= row[st.current] <= 1.0


def test_greedy_pure_exploration_uniform():
    g = graphs.make_linear(4)
    rng = np.random.default_rng(0)
    counts = np.zeros(4)
    cfg = baselines.GreedyConfig(eps_mode="constant", eps_value=1.0)
    rm = walk.RewardModel(mu=np.ones(4), noise_std=0.0)
    for seed in range(300):
        st = baselines.initial_state(g, 2)
        st = baselines.greedy_step(st, g, rm, cfg, walk.WalkRng(seed))
        counts[st.current] += 1
    assert counts[3] == 0
    assert counts[:3].min() > 60  # roughly uniform over N(2) = {1,2,3}


def test_greedy_exploitation_moves_uphill():
    # with exact estimates and eps ~ 0 the chain moves to the best neighbor:
    # from 3 it goes to 4, from 2 it goes to 1
    g = graphs.make_linear(4)
    mu = np.array([2.0, 0.25, 0.5, 1.0])
    cfg = baselines.GreedyConfig(eps_mode="constant", eps_value=0.0)
    rm = walk.RewardModel(mu=mu, noise_std=0.0)
    st = baselines.initial_state(g, 3)
    st.mu_hat = mu.copy()
    st = baselines.greedy_step(st, g, rm, cfg, walk.WalkRng(1))
    assert st.current == 3  # node 4 (0-based)
    st = baselines.initial_state(g, 2)
    st.mu_hat = mu.copy()
    st = baselines.greedy_step(st, g, rm, cfg, walk.WalkRng(1))
    assert st.current == 0  # node 1


def test_greedy_ties_break_toward_lowest_id():
    g = graphs.make_complete(3)
    cfg = baselines.GreedyConfig(eps_mode="constant", eps_value=0.0)
    rm = walk.RewardModel(mu=np.ones(3), noise_std=0.0)
    st = baselines.initial_state(g, 3)
    st.mu_hat = np.array([0.5, 0.5, 0.2])
    st = baselines.greedy_step(st, g, rm, cfg, walk.WalkRng(5))
    assert st.current == 0


def test_greedy_epsilon_schedule_default():
    cfg = baselines.GreedyConfig()
    assert baselines.greedy_epsilon(1, cfg) == 1.0
    assert baselines.greedy_epsilon(4, cfg) == 0.25


def test_baseline_batches_match_stepwise_loops():
    g = graphs.make_linear(4)
    mu = np.array([2.0, 0.25, 0.5, 1.0])
    rm = walk.RewardModel(mu=mu, noise_std=0.3)

    # at gamma = 5 the temperature shapes every row, so a batch reading
    # T_n one step off would move away from the stepwise loop
    for sa_cfg in (baselines.SAConfig(), baselines.SAConfig(gamma=5.0)):
        traj = baselines.run_sa_batch(g, rm, sa_cfg, 400, [9],
                                      record_stride=400, start=4)[0]
        st = baselines.initial_state(g, 4)
        rng = walk.WalkRng(9)
        for _ in range(400):
            st = baselines.sa_step(st, g, rm, sa_cfg, rng)
        assert st.current == traj.nodes[-1]
        assert np.array_equal(st.counts / 400.0, traj.xs[-1])
        assert st.sched == traj.final_state.sched

    gr_cfg = baselines.GreedyConfig()
    traj = baselines.run_greedy_batch(g, rm, gr_cfg, 400, [9],
                                      record_stride=400, start=4)[0]
    st = baselines.initial_state(g, 4)
    rng = walk.WalkRng(9)
    for _ in range(400):
        st = baselines.greedy_step(st, g, rm, gr_cfg, rng)
    assert st.current == traj.nodes[-1]
    assert np.array_equal(st.counts / 400.0, traj.xs[-1])
    assert st.sched == traj.final_state.sched


def test_baseline_schedule_columns_match_scalar_schedules(monkeypatch):
    # the recorded columns come from whole-array formulas; they must equal
    # the scalar schedules exactly at every n up to 1e5
    monkeypatch.setattr(baselines, "_run_engine",
                        lambda g, rm, kind, columns, n_steps, *args:
                        columns(n_steps))
    g = graphs.make_linear(4)
    rm = walk.RewardModel(mu=np.ones(4))
    ns = range(1, 10**5 + 1)
    sa_cfg = baselines.SAConfig(gamma=0.3)
    eps, temp = baselines.run_sa_batch(g, rm, sa_cfg, 10**5, [1])
    assert not eps.any() and temp[0] == math.inf
    assert np.array_equal(temp[1:], [baselines.sa_temperature(n, sa_cfg)
                                     for n in ns])
    for gr_cfg in (baselines.GreedyConfig(),
                   baselines.GreedyConfig(eps_mode="constant", eps_value=0.3)):
        eps, temp = baselines.run_greedy_batch(g, rm, gr_cfg, 10**5, [1])
        assert np.all(temp == math.inf) and eps[0] == 0.0
        assert np.array_equal(eps[1:], [baselines.greedy_epsilon(n, gr_cfg)
                                        for n in ns])


def test_sa_rejects_a_graph_without_self_loops():
    # annealing keeps its leftover mass on the self-loop; without one the
    # batch used to die in a numpy mask assignment, while one seed ran
    g = graphs.from_edges(3, [(1, 2), (2, 1), (2, 3), (3, 2)], repair=False)
    rm = walk.RewardModel(mu=np.array([1.0, 2.0, 0.5]))
    cfg = baselines.SAConfig()
    for seeds in ([1, 2, 3], [1]):
        with pytest.raises(ValueError, match="node 1 has none"):
            baselines.run_sa_batch(g, rm, cfg, 10, seeds)
    st = baselines.initial_state(g, 2)
    with pytest.raises(ValueError, match="node 1 has none"):
        baselines.sa_step(st, g, rm, cfg, walk.WalkRng(0))
    assert st.n == 0 and st.sched.temp == math.inf
    with pytest.raises(ValueError, match="node 1 has none"):
        baselines.sa_transition_row(st, g)


def test_baselines_move_along_edges_only():
    g = graphs.make_two_cliques(2, 4)
    rm = walk.RewardModel(mu=np.array([1, 1, 0.5, 0.5, 0.5, 0.5]),
                          noise_std=0.2)
    for trajs in (baselines.run_sa_batch(g, rm, baselines.SAConfig(), 300,
                                         [1, 2], record_stride=1),
                  baselines.run_greedy_batch(g, rm, baselines.GreedyConfig(),
                                             300, [1, 2], record_stride=1)):
        for t in trajs:
            for k in range(1, len(t.ns)):
                assert (t.nodes[k] + 1) in g.neighbors(t.nodes[k - 1] + 1)


def test_greedy_trap_smoke():
    # desk-scale shadow of the full trap criterion: started at the local
    # maximum, the bandit policy parks there
    g = graphs.make_linear(4)
    rm = walk.RewardModel(mu=np.array([2.0, 0.25, 0.5, 1.0]), noise_std=0.0)
    trajs = baselines.run_greedy_batch(g, rm, baselines.GreedyConfig(),
                                       20_000, [1, 2, 3], record_stride=20_000,
                                       start=4)
    trapped = sum(1 for t in trajs if t.xs[-1][3] >= 0.7)
    assert trapped >= 2
