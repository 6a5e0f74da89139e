import math

import numpy as np
import pytest

from graphchoice import baselines, graphs, walk


def _slots(g, node, mu_hat):
    """N(node) of a 1-based `node` as slot ids, its uniform slot row, the
    estimates on those slots (padding reading 0) and the own-slot mask, as
    the engine reads them: (1, d_max) rows."""
    ids, unif = g.neighbor_slots
    nb = ids[node - 1]
    mu_hat = np.append(np.asarray(mu_hat, dtype=float), 0.0)
    return nb, unif[[node - 1]], mu_hat[nb][None, :], (nb == node - 1)[None, :]


def _sa_row(g, node, mu_hat, temp):
    nb, unif, slot_mu, own = _slots(g, node, mu_hat)
    return walk._sa_slots(slot_mu, np.array([mu_hat[node - 1]], dtype=float),
                          own, unif, temp)[0]


def _greedy_move(g, node, mu_hat):
    """The node (0-based) an eps = 0 greedy row moves to from `node`."""
    nb, unif, slot_mu, _ = _slots(g, node, mu_hat)
    p = walk._greedy_slots(slot_mu, unif, 0.0)[0]
    assert p.max() == 1.0
    return nb[p.argmax()]


def test_sa_temperature_schedule():
    # the recorded alpha column is 1/T_n with T_n = gamma/log(1+n)
    g = graphs.make_linear(4)
    rm = walk.RewardModel(mu=np.ones(4))
    traj = baselines.run_sa_batch(g, rm, baselines.SAConfig(gamma=0.1),
                                  10_000, [1], record_stride=1)[0]
    assert traj.alphas[0] == 0.0  # T_0 = inf
    assert 1 / traj.alphas[1] == pytest.approx(0.1 / math.log(2.0))
    temps = [1 / traj.alphas[n] for n in (1, 10, 100, 10_000)]
    assert all(t > 0 for t in temps)
    assert all(b < a for a, b in zip(temps, temps[1:]))


def test_sa_kernel_equal_estimates_proposes_uniformly():
    g = graphs.make_linear(4)  # N(2) = {1, 2, 3}
    row = _sa_row(g, 2, np.full(4, 0.7), temp=0.05)
    # |N(2)| = 3; off-self entries each 1/3, self-loop takes the remainder
    assert row == pytest.approx([1 / 3, 1 / 3, 1 / 3])


def test_sa_kernel_downhill_penalty_arithmetic():
    # mu_hat_x = 1.0, mu_hat_y = 0.5, T = 0.1, |N(x)| = 3:
    # p_xy = (1/3) exp(-5) ~ 0.002245
    g = graphs.make_linear(4)
    row = _sa_row(g, 2, [0.5, 1.0, 1.0, 1.0], temp=0.1)
    assert row[0] == pytest.approx((1 / 3) * math.exp(-5.0), rel=1e-12)
    assert row[0] == pytest.approx(0.002245, abs=1e-6)
    assert row[2] == pytest.approx(1 / 3)  # equal estimate: no penalty
    assert row.sum() == pytest.approx(1.0, abs=1e-12)


def test_sa_rows_always_stochastic():
    rng = np.random.default_rng(30)
    g = graphs.make_two_cliques(2, 5)
    for _ in range(200):
        node = int(rng.integers(1, g.m + 1))
        row = _sa_row(g, node, rng.uniform(0.0, 2.0, g.m),
                      temp=float(rng.uniform(1e-3, 1.0)))
        own = g.neighbor_slots[0][node - 1] == node - 1
        assert abs(row.sum() - 1.0) < 1e-12
        assert np.all(row >= 0.0)
        assert 0.0 <= row[own][0] <= 1.0


def test_greedy_pure_exploration_uniform():
    # one step at eps = 1 from node 2: uniform over N(2) = {1, 2, 3}
    g = graphs.make_linear(4)
    cfg = baselines.GreedyConfig(eps_mode="constant", eps_value=1.0)
    rm = walk.RewardModel(mu=np.ones(4), noise_std=0.0)
    trajs = baselines.run_greedy_batch(g, rm, cfg, 1, range(300), start=2)
    counts = np.bincount([t.final_state.current for t in trajs], minlength=4)
    assert counts[3] == 0
    assert counts[:3].min() > 60


def test_greedy_exploitation_moves_uphill():
    # with exact estimates and eps = 0 the chain moves to the best neighbor:
    # from 3 it goes to 4, from 2 it goes to 1
    g = graphs.make_linear(4)
    mu = np.array([2.0, 0.25, 0.5, 1.0])
    assert _greedy_move(g, 3, mu) == 3  # node 4 (0-based)
    assert _greedy_move(g, 2, mu) == 0  # node 1


def test_greedy_ties_break_toward_lowest_id():
    g = graphs.make_complete(3)
    assert _greedy_move(g, 3, [0.5, 0.5, 0.2]) == 0


def test_greedy_epsilon_schedule_default():
    # the recorded eps column: eps_n = 1/n from n = 1, 0 at n = 0
    g = graphs.make_linear(4)
    rm = walk.RewardModel(mu=np.ones(4))
    traj = baselines.run_greedy_batch(g, rm, baselines.GreedyConfig(), 4, [1],
                                      record_stride=1)[0]
    assert traj.eps[0] == 0.0 and traj.eps[1] == 1.0 and traj.eps[4] == 0.25
    assert np.all(traj.alphas == 0.0)


def test_baseline_schedule_columns_match_scalar_schedules(monkeypatch):
    # the recorded columns come from whole-array formulas; they must equal
    # the scalar formulas exactly at every n up to 1e5
    monkeypatch.setattr(baselines, "_run_engine",
                        lambda g, rm, kind, columns, n_steps, *args:
                        columns(n_steps))
    g = graphs.make_linear(4)
    rm = walk.RewardModel(mu=np.ones(4))
    ns = range(1, 10**5 + 1)
    sa_cfg = baselines.SAConfig(gamma=0.3)
    eps, temp = baselines.run_sa_batch(g, rm, sa_cfg, 10**5, [1])
    assert not eps.any() and temp[0] == math.inf
    assert np.array_equal(temp[1:], [0.3 / math.log(1.0 + n) for n in ns])
    for gr_cfg, eps_n in ((baselines.GreedyConfig(), lambda n: 1.0 / n),
                          (baselines.GreedyConfig(eps_mode="constant",
                                                  eps_value=0.3),
                           lambda n: 0.3)):
        eps, temp = baselines.run_greedy_batch(g, rm, gr_cfg, 10**5, [1])
        assert np.all(temp == math.inf) and eps[0] == 0.0
        assert np.array_equal(eps[1:], [eps_n(n) for n in ns])


def test_sa_rejects_a_graph_without_self_loops():
    # annealing keeps its leftover mass on the self-loop; without one the
    # batch used to die in a numpy mask assignment, while one seed ran
    g = graphs.from_edges(3, [(1, 2), (2, 1), (2, 3), (3, 2)], repair=False)
    rm = walk.RewardModel(mu=np.array([1.0, 2.0, 0.5]))
    cfg = baselines.SAConfig()
    for seeds in ([1, 2, 3], [1]):
        with pytest.raises(ValueError, match="node 1 has none"):
            baselines.run_sa_batch(g, rm, cfg, 10, seeds)


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
