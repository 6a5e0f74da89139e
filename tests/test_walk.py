import ctypes
import dataclasses
import functools
import json
import math
import re
import shutil
import subprocess

import numpy as np
import pytest

from graphchoice import _engine, baselines, graphs, harness, schedules, walk
from graphchoice.schedules import ScheduleConfig


def slot_rows(g, node, *vectors):
    """The slot ids of N(node) for a 1-based `node`, its uniform slot row,
    and each m-vector read on those slots, padding reading 0, as the engine
    reads them: (1, d_max) rows."""
    ids, unif = g.neighbor_slots
    nb = ids[node - 1]
    return (nb, unif[[node - 1]],
            *(np.append(np.asarray(v, dtype=float), 0.0)[nb][None, :]
              for v in vectors))


def reinforced_row(g, node, x, mu_hat, eps=0.0, alpha=1.0):
    """The reinforced slot row from `node` at frequencies x (or counts)."""
    nb, unif, x, mu_hat = slot_rows(g, node, x, mu_hat)
    with np.errstate(divide="ignore", invalid="ignore"):
        return walk._reinforced_slots(x, mu_hat, unif, alpha, eps)[0]


def test_reward_model_validation():
    with pytest.raises(ValueError):
        walk.RewardModel(mu=np.array([1.0, -0.5]))
    with pytest.raises(ValueError):
        walk.RewardModel(mu=np.array([1.0, 0.5]), noise_std=-0.1)
    with pytest.raises(ValueError):
        walk.RewardModel(mu=np.array([1.0, 0.5]), noise_std=float("nan"))
    with pytest.raises(ValueError):
        walk.RewardModel(mu=np.array([1.0, np.inf]))


def test_pure_exploration_is_uniform_on_neighborhood():
    g = graphs.make_linear(4)  # N(2) = {1, 2, 3}
    p = reinforced_row(g, 2, [0.4, 0.3, 0.2, 0.1], [2.0, 0.25, 0.5, 1.0],
                       eps=1.0)
    assert np.allclose(p, [1 / 3, 1 / 3, 1 / 3], rtol=0, atol=1e-15)


def test_reinforced_row_on_three_chain():
    # at node 2 of the 3-chain with mu_hat=(2,1,1), x=(0.5,0.25,0.25):
    # weights (1, 0.25, 0.25) -> (2/3, 1/6, 1/6)
    g = graphs.make_linear(3)
    p = reinforced_row(g, 2, [0.5, 0.25, 0.25], [2.0, 1.0, 1.0])
    assert np.allclose(p, [2 / 3, 1 / 6, 1 / 6], rtol=0, atol=1e-14)


def test_large_alpha_concentrates_on_argmax():
    g = graphs.make_linear(3)
    p = reinforced_row(g, 2, [0.5, 0.25, 0.25], [2.0, 1.0, 1.0], alpha=200.0)
    assert p[0] == pytest.approx(1.0, abs=1e-9)


def test_kernel_rows_are_distributions_on_neighborhoods():
    rng = np.random.default_rng(3)
    g = graphs.make_two_cliques(2, 5)
    ids, _ = g.neighbor_slots
    for _ in range(200):
        x = rng.dirichlet(np.ones(g.m))
        mu_hat = rng.uniform(0.0, 2.0, g.m)  # zeros/unvisited allowed
        mu_hat[rng.random(g.m) < 0.3] = 0.0
        cur = int(rng.integers(1, g.m + 1))
        p = reinforced_row(g, cur, x, mu_hat, eps=rng.uniform(0.0, 1.0),
                           alpha=rng.uniform(0.1, 8.0))
        assert abs(p.sum() - 1.0) < 1e-12
        assert np.all(p >= 0.0)
        assert np.all(p[ids[cur - 1] == g.m] == 0.0)  # padding slots


def test_reward_scale_invariance_of_kernel():
    g = graphs.make_linear(4)
    x, mu_hat = [0.4, 0.3, 0.2, 0.1], np.array([2.0, 0.25, 0.5, 1.0])
    p1 = reinforced_row(g, 2, x, mu_hat, eps=0.2, alpha=1.7)
    p2 = reinforced_row(g, 2, x, mu_hat * 7.3, eps=0.2, alpha=1.7)
    assert np.abs(p1 - p2).max() < 1e-12


def test_nonpositive_estimates_carry_no_weight():
    g = graphs.make_linear(3)
    p = reinforced_row(g, 2, [0.5, 0.25, 0.25], [2.0, -0.4, 1.0])
    assert p[1] == 0.0  # node 2's own slot


def test_all_zero_neighborhood_falls_back_to_uniform():
    g = graphs.make_linear(4)
    for node, row in ((2, [1 / 3, 1 / 3, 1 / 3]), (1, [0.5, 0.5, 0.0])):
        p = reinforced_row(g, node, [0.25] * 4, [0.0] * 4)
        assert np.allclose(p, row, rtol=0, atol=1e-15)


def test_running_mean_first_and_second_visit():
    # after one arrival the estimate is that observation, after a second
    # the mean of both: one step, then two, of one seeded run whose first
    # two moves enter the same node
    g = graphs.make_complete(2)
    rm = walk.RewardModel(mu=np.array([0.7, 1.0]), noise_std=0.5)
    cfg = ScheduleConfig()
    seed = next(s for s in range(100)
                if len(set(walk.run(g, rm, cfg, 2, seed=s).nodes[1:])) == 1)
    one, two = (walk.run(g, rm, cfg, n, seed=seed).final_state for n in (1, 2))
    v = one.current
    obs = rm.mu[v] + rm.noise_std * walk.WalkRng(seed).noise.standard_normal(2)
    assert one.counts[v] == 1 and one.mu_hat[v] == obs[0]
    assert two.counts[v] == 2
    assert two.mu_hat[v] == pytest.approx(obs.mean(), rel=0, abs=1e-15)
    assert one.mu_hat[1 - v] == two.mu_hat[1 - v] == 0.0  # never visited


def test_step_frequency_recursion_arithmetic():
    # the recorded x follows x(n+1) = x(n) + (I[next] - x(n)) / (n+1) from
    # the uniform x(0): x(1) is the indicator of the first node entered
    g = graphs.make_linear(4)
    rm = walk.RewardModel(mu=np.array([2, 0.25, 0.5, 1.0]), noise_std=0.2)
    cfg = ScheduleConfig(c_mode="recursion_example", alpha_mode="cooled",
                         burn_in=5, cool_scale=2.0)
    traj = walk.run(g, rm, cfg, 800, seed=7)
    x = np.full(g.m, 0.25)
    for n in range(800):
        x = x + (np.eye(g.m)[traj.nodes[n + 1]] - x) / (n + 1)
        assert np.allclose(traj.xs[n + 1], x, rtol=0, atol=1e-13)
    assert np.array_equal(traj.xs[1], np.eye(g.m)[traj.nodes[1]])


def test_run_is_deterministic_per_seed():
    g = graphs.make_linear(4)
    rm = walk.RewardModel(mu=np.array([2, 0.25, 0.5, 1.0]), noise_std=0.3)
    cfg = ScheduleConfig(c_mode="explicit_log")
    a = walk.run(g, rm, cfg, 2000, seed=11, record_stride=100)
    b = walk.run(g, rm, cfg, 2000, seed=11, record_stride=100)
    assert np.array_equal(a.xs, b.xs)
    assert np.array_equal(a.nodes, b.nodes)
    c = walk.run(g, rm, cfg, 2000, seed=12, record_stride=100)
    assert not np.array_equal(a.nodes, c.nodes)


def test_batch_runs_bit_identical_to_single_runs():
    g = graphs.make_two_cliques(2, 4)
    rm = walk.RewardModel(mu=np.array([1.0, 1.0, 0.5, 0.5, 0.5, 0.5]),
                          noise_std=np.sqrt(0.1))
    cfg = ScheduleConfig(c_mode="explicit_log", alpha_mode="cooled",
                         burn_in=10, cool_scale=1.6)
    sa_cfg, greedy_cfg = baselines.SAConfig(), baselines.GreedyConfig()
    engines = [  # (batched run, solo run) per algorithm
        (lambda seeds: walk.run_batch(g, rm, cfg, 1500, seeds, record_stride=50),
         lambda seed: walk.run(g, rm, cfg, 1500, seed=seed, record_stride=50)),
        (lambda seeds: baselines.run_sa_batch(g, rm, sa_cfg, 1500, seeds,
                                              record_stride=50),
         lambda seed: baselines.run_sa_batch(g, rm, sa_cfg, 1500, [seed],
                                             record_stride=50)[0]),
        (lambda seeds: baselines.run_greedy_batch(g, rm, greedy_cfg, 1500,
                                                  seeds, record_stride=50),
         lambda seed: baselines.run_greedy_batch(g, rm, greedy_cfg, 1500,
                                                 [seed], record_stride=50)[0]),
    ]
    for run_many, run_one in engines:
        batch = run_many([3, 4, 5])
        for seed, traj in zip([3, 4, 5], batch):
            solo = run_one(seed)
            for name in ("ns", "nodes", "xs", "eps", "alphas"):
                assert np.array_equal(getattr(solo, name), getattr(traj, name))
            assert np.array_equal(solo.final_state.mu_hat,
                                  traj.final_state.mu_hat)
            # every algorithm's final state: all steps counted, and the
            # schedule values of the last recorded row, bit for bit
            fin = traj.final_state
            assert fin.n == fin.counts.sum() == 1500
            assert fin.sched.n == 1500
            assert np.array_equal([fin.sched.eps, fin.sched.alpha],
                                  [traj.eps[-1], traj.alphas[-1]])


@pytest.mark.parametrize("loop", ["c", "numpy"])
@pytest.mark.parametrize("n_steps", [1, 300, 4095, 4096, 4097])
def test_batches_equal_solo_runs_at_every_refill_size(monkeypatch, loop,
                                                      n_steps):
    # the random refills are sized to the run: shorter than one block, one
    # block less a step, one block, and one step into a second block
    if loop == "numpy":
        monkeypatch.setattr(_engine, "load", lambda: None)
    elif _engine.load() is None:
        pytest.skip("no compiled library")
    g = graphs.make_linear(4)
    rm = walk.RewardModel(mu=np.array([2, 0.25, 0.5, 1.0]), noise_std=0.3)
    cfg = ScheduleConfig(c_mode="explicit_log", alpha_mode="cooled", burn_in=3)
    stride = max(1, n_steps // 3)
    batch = walk.run_batch(g, rm, cfg, n_steps, [3, 4, 5], record_stride=stride)
    solo = walk.run(g, rm, cfg, n_steps, seed=5, record_stride=stride)
    for name in ("ns", "nodes", "xs", "eps", "alphas"):
        assert np.array_equal(getattr(solo, name), getattr(batch[-1], name))
    for name in ("counts", "mu_hat"):
        assert np.array_equal(getattr(solo.final_state, name),
                              getattr(batch[-1].final_state, name))


def test_a_run_draws_one_uniform_and_one_normal_per_step(monkeypatch):
    # the RNG protocol, exactly: no refill draws past the run's last step
    drawn = {"select": [], "noise": []}

    class Counted:
        def __init__(self, gen, name):
            self.gen, self.sizes = gen, drawn[name]

        def random(self, out):
            self.sizes.append(out.size)
            return self.gen.random(out=out)

        def standard_normal(self, out):
            self.sizes.append(out.size)
            return self.gen.standard_normal(out=out)

    class CountedRng(walk.WalkRng):
        def __init__(self, seed):
            super().__init__(seed)
            self.select = Counted(self.select, "select")
            self.noise = Counted(self.noise, "noise")

    monkeypatch.setattr(walk, "WalkRng", CountedRng)
    g = graphs.make_linear(4)
    rm = walk.RewardModel(mu=np.array([2, 0.25, 0.5, 1.0]), noise_std=0.3)
    walk.run_batch(g, rm, ScheduleConfig(c_mode="explicit_log"), 4097, [1, 2],
                   record_stride=4097)
    for sizes in drawn.values():
        assert sorted(sizes) == [1, 1, walk._BLOCK, walk._BLOCK]


def test_replay_frequency_and_mean_recursions():
    g = graphs.make_linear(4)
    rm = walk.RewardModel(mu=np.array([2, 0.25, 0.5, 1.0]), noise_std=0.5)
    cfg = ScheduleConfig(c_mode="explicit_log")
    traj = walk.run(g, rm, cfg, 3000, seed=21, record_stride=1)
    m = g.m
    assert np.array_equal(traj.xs[0], np.full(m, 1.0 / m))
    # replayed visit counts give every recorded x exactly as S(n)/n, and the
    # running means of the observed rewards, rebuilt from the noise stream
    # (one normal per step), replay to the final estimates
    z = walk.WalkRng(21).noise.standard_normal(3000)
    rewards = rm.mu[traj.nodes[1:]] + rm.noise_std * z
    mu_hat = np.zeros(m)
    counts = np.zeros(m, dtype=np.int64)
    for k in range(1, len(traj.ns)):
        node = traj.nodes[k]
        counts[node] += 1
        mu_hat[node] += (rewards[k - 1] - mu_hat[node]) / counts[node]
        assert np.array_equal(traj.xs[k], counts / traj.ns[k])
    assert np.array_equal(mu_hat, traj.final_state.mu_hat)
    assert np.array_equal(counts, traj.final_state.counts)
    # integer identity and neighbor moves
    assert counts.sum() == 3000
    for k in range(1, len(traj.ns)):
        assert (traj.nodes[k] + 1) in g.neighbors(traj.nodes[k - 1] + 1)


def test_noiseless_estimates_are_exact_after_first_visit():
    g = graphs.make_star(4, 4)
    mu = np.array([2, 0.25, 0.5, 1.0])
    rm = walk.RewardModel(mu=mu, noise_std=0.0)
    cfg = ScheduleConfig(c_mode="explicit_log")
    traj = walk.run(g, rm, cfg, 5000, seed=2)
    fin = traj.final_state
    visited = fin.counts > 0
    assert visited.all()
    assert np.array_equal(fin.mu_hat, mu)  # exact equality, not approximate


def test_simplex_preserved_over_long_run():
    g = graphs.make_linear(4)
    rm = walk.RewardModel(mu=np.array([2, 0.25, 0.5, 1.0]), noise_std=0.3)
    cfg = ScheduleConfig(c_mode="explicit_log", alpha_mode="cooled",
                         burn_in=10, cool_scale=1.6)
    traj = walk.run(g, rm, cfg, 30_000, seed=9, record_stride=1000)
    sums = traj.xs.sum(axis=1)
    assert np.abs(sums - 1.0).max() < 1e-9
    assert np.all(traj.xs >= 0.0)


def test_single_step_run_has_valid_snapshot():
    g = graphs.make_linear(4)
    rm = walk.RewardModel(mu=np.array([2, 0.25, 0.5, 1.0]))
    traj = walk.run(g, rm, ScheduleConfig(), 1, seed=0)
    assert len(traj.ns) >= 1
    assert traj.ns[-1] == 1
    assert abs(traj.xs[-1].sum() - 1.0) < 1e-12


def test_start_policies():
    g = graphs.make_two_cliques(2, 8)
    rm = walk.RewardModel(mu=np.ones(10))
    cfg = ScheduleConfig()
    t = walk.run(g, rm, cfg, 5, seed=1, start=4)
    assert t.nodes[0] == 3  # 0-based
    pool = [3, 4, 5, 6, 7, 8, 9, 10]
    for seed in range(5):
        t = walk.run(g, rm, cfg, 5, seed=seed, start=pool)
        assert t.nodes[0] + 1 in pool
    with pytest.raises(ValueError):
        walk.run(g, rm, cfg, 5, seed=1, start=11)


def test_duplicate_seeds_rejected():
    g = graphs.make_linear(3)
    rm = walk.RewardModel(mu=np.ones(3))
    with pytest.raises(ValueError):
        walk.run_batch(g, rm, ScheduleConfig(), 10, [1, 1])


def test_trajectory_csv_round_trip(tmp_path):
    g = graphs.make_linear(4)
    rm = walk.RewardModel(mu=np.array([2, 0.25, 0.5, 1.0]), noise_std=0.1)
    traj = walk.run(g, rm, ScheduleConfig(c_mode="explicit_log"), 500,
                    seed=13, record_stride=50)
    path = tmp_path / "t.csv"
    traj.to_csv(path)
    back = walk.read_trajectory_csv(path, seed=13)
    assert np.array_equal(back.ns, traj.ns)
    assert np.array_equal(back.nodes, traj.nodes)
    assert np.array_equal(back.xs, traj.xs)
    assert np.array_equal(back.eps, traj.eps)
    assert np.array_equal(back.alphas, traj.alphas)


def test_trajectory_csv_writes_repr_text(tmp_path):
    awkward = [1 / 3, 0.1 + 0.2, 5e-324, 1.0]
    traj = walk.Trajectory(seed=0, ns=np.array([0, 7]), nodes=np.array([0, 2]),
                           xs=np.array([awkward, awkward[::-1]]),
                           eps=np.array(awkward[:2]), alphas=np.array(awkward[2:]))
    path = tmp_path / "t.csv"
    traj.to_csv(path)
    assert path.read_text() == (
        "n,xi,eps,alpha,x_1,x_2,x_3,x_4\n"
        "0,1,0.3333333333333333,5e-324,"
        "0.3333333333333333,0.30000000000000004,5e-324,1.0\n"
        "7,3,0.30000000000000004,1.0,"
        "1.0,5e-324,0.30000000000000004,0.3333333333333333\n")


# gc_format_rows' exact range: 2^-40 <= |v| < 2^53, and +-0
FORMAT_LO, FORMAT_HI = 2.0 ** -40, 2.0 ** 53


def _c_reprs(values):
    """The compiled writer's text for each value, formatted as the x column
    of one-node rows; None where it refuses the block."""
    if _engine.load() is None:
        pytest.skip("no compiled library")
    x = np.array(values, dtype=np.float64)
    n = x.size
    zeros, ones = np.zeros(n, dtype=np.int64), np.ones(n)
    out = np.empty(n * (44 + 24 * 3), dtype=np.uint8)
    size = _engine.load().gc_format_rows(
        n, 1, zeros.ctypes.data, zeros.ctypes.data, ones.ctypes.data,
        ones.ctypes.data, x.ctypes.data, out.ctypes.data, out.size)
    if size < 0:
        return None
    rows = out[:size].tobytes().decode().splitlines()
    return [row.split(",")[4] for row in rows]


def _bit_patterns(rng, size):
    lo, hi = (np.array([v]).view(np.int64)[0] for v in (FORMAT_LO, FORMAT_HI))
    return rng.integers(lo, hi, size=size).view(np.float64)


# value sets on which the compiled writer must equal float.__repr__: the
# shortest round-trip digits with CPython's tie rule, the notation switches
# at 1e-04 / 1e-05, the asymmetric rounding intervals of powers of two and
# the whole-number interval ends from 2^52 on
REPR_SETS = {
    "awkward": [1 / 3, 0.1 + 0.2, 1.0, 0.0, -0.0, -2.5, 1e-05, 1e-04, 115.0],
    "S/n": [S / n for n in range(1, 601) for S in range(1, n + 1)],
    "powers of two": [s * 2.0 ** k for k in range(-40, 53) for s in (1, -1)],
    "around powers of ten": [w for k in range(-12, 16) for v in [float(f"1e{k}")]
                             for w in (np.nextafter(v, 0), v,
                                       np.nextafter(v, np.inf))],
    "whole numbers from 2^52": 2.0 ** 52 + np.arange(0, 2.0 ** 52, 2.0 ** 41),
    "bit patterns": _bit_patterns(np.random.default_rng(17), 200_000),
    "negative bit patterns": -_bit_patterns(np.random.default_rng(18), 2000),
}


@pytest.mark.parametrize("name", REPR_SETS)
def test_compiled_writer_matches_repr(name):
    values = [float(v) for v in REPR_SETS[name]]
    assert _c_reprs(values) == [repr(v) for v in values]


@pytest.mark.parametrize("value", [5e-324, 1e-300, np.nextafter(FORMAT_LO, 0),
                                   FORMAT_HI, 1e300, np.nan, np.inf, -np.inf])
def test_compiled_writer_refuses_values_outside_its_range(value):
    assert _c_reprs([0.5, value, 0.25]) is None


def _long_trajectory(rows=5000):
    g = graphs.make_linear(4)
    rm = walk.RewardModel(mu=np.array([2, 0.25, 0.5, 1.0]), noise_std=0.3)
    cfg = ScheduleConfig(c_mode="explicit_log", alpha_mode="cooled", burn_in=3)
    return walk.run(g, rm, cfg, rows - 1, seed=5)


def _reference_csv(traj) -> bytes:
    header = "n,xi,eps,alpha," + ",".join(f"x_{i+1}" for i in
                                          range(traj.xs.shape[1])) + "\n"
    return (header + walk._csv_rows(traj.ns, traj.nodes, traj.eps,
                                    traj.alphas, traj.xs)).encode()


def _count_blocks(monkeypatch):
    """The return value of every gc_format_rows call from here on."""
    lib = _engine.load()
    if lib is None:
        pytest.skip("no compiled library")
    fn, sizes = lib.gc_format_rows, []

    def counted(*args):
        sizes.append(fn(*args))
        return sizes[-1]
    monkeypatch.setattr(lib, "gc_format_rows", counted)
    return sizes


def test_both_writers_write_the_same_bytes(monkeypatch, tmp_path):
    # several blocks of rows, through the library and without it, and from
    # columns the library reads only after a conversion
    traj = _long_trajectory()
    converted = dataclasses.replace(traj, nodes=traj.nodes.astype(np.int32),
                                    xs=np.asfortranarray(traj.xs))
    sizes = _count_blocks(monkeypatch)
    traj.to_csv(tmp_path / "c.csv")
    converted.to_csv(tmp_path / "converted.csv")
    assert len(sizes) > 2 and min(sizes) > 0
    monkeypatch.setattr(_engine, "load", lambda: None)
    traj.to_csv(tmp_path / "py.csv")
    for name in ("c", "converted", "py"):
        assert (tmp_path / f"{name}.csv").read_bytes() == _reference_csv(traj)


@pytest.mark.parametrize("column", ["ns", "nodes", "eps", "alphas"])
def test_csv_columns_must_match_the_rows(monkeypatch, tmp_path, column):
    # the compiled writer reads one value per row from each column
    traj = _long_trajectory(10)
    short = dataclasses.replace(traj, **{column: getattr(traj, column)[:-1]})
    for load in (_engine.load, lambda: None):
        monkeypatch.setattr(_engine, "load", load)
        with pytest.raises(ValueError, match="one n, node, eps and alpha"):
            short.to_csv(tmp_path / "t.csv")


@pytest.mark.parametrize("value", [1e-300, np.nan, np.inf])
def test_a_refused_block_alone_falls_back(monkeypatch, tmp_path, value):
    traj = _long_trajectory()
    traj.xs[2000, 1] = value
    sizes = _count_blocks(monkeypatch)
    traj.to_csv(tmp_path / "t.csv")
    assert len(sizes) > 2 and sizes.count(-1) == 1 and sizes[0] > 0
    assert (tmp_path / "t.csv").read_bytes() == _reference_csv(traj)


def _chorded_path(m, n_chords, seed):
    rng = np.random.default_rng(seed)
    edges = [(k, k + 1) for k in range(1, m)]
    edges += [tuple(int(v) for v in rng.choice(np.arange(1, m + 1), 2,
                                               replace=False))
              for _ in range(n_chords)]
    return graphs.from_edges(m, edges, repair=True)


# graphs with unequal degrees, so most rows of the slot table are padded
UNEQUAL_DEGREE_GRAPHS = [graphs.make_star(9, 1), graphs.make_two_cliques(2, 5),
                         _chorded_path(12, 5, seed=4)]


def test_neighbor_slot_table():
    for g in UNEQUAL_DEGREE_GRAPHS + [graphs.make_complete(3)]:
        ids, unif = g.neighbor_slots
        assert ids.shape == unif.shape == (g.m, g.degrees.max())
        assert not ids.flags.writeable and not unif.flags.writeable
        for i in range(g.m):
            d = len(g.nbrs[i])
            assert tuple(ids[i, :d]) == g.nbrs[i]
            assert np.all(ids[i, d:] == g.m)
            assert np.array_equal(unif[i, :d], g.uniform_rows[i, list(g.nbrs[i])])
            assert np.all(unif[i, d:] == 0.0)


# the differential inputs add the two-clique block, whose d_max = 9 takes
# the eight-accumulator row sum, and star:200, whose hub row of 200 slots
# takes the recursive pairwise sum
DIFFERENTIAL_GRAPHS = UNEQUAL_DEGREE_GRAPHS + [graphs.make_two_cliques(2, 8),
                                               graphs.make_star(200, 1)]


def test_compiled_and_numpy_loops_agree_on_unequal_degrees(monkeypatch):
    # 20 seeds on each of five graphs: 100 seeds per algorithm, each batch
    # at stride 1 and at stride 7 through the compiled row kernels and
    # through the numpy loop; every algorithm's final state (counts,
    # estimates, schedule) is compared too, the schedule with its formula
    if shutil.which("cc") is None:
        pytest.skip("no C compiler")
    assert walk.engine_name() == "c"
    n_steps = 300
    cfg = ScheduleConfig(c_mode="explicit_log", alpha_mode="cooled",
                         burn_in=10, cool_scale=1.6)
    sa_cfg, gr_cfg = baselines.SAConfig(), baselines.GreedyConfig()
    sched = schedules.initial_state(cfg)
    for _ in range(n_steps):
        sched = schedules.advance(sched, cfg)
    finals = [sched,  # T_n = gamma/log(1+n) and eps_n = 1/n, at n = n_steps
              schedules.ScheduleState(n=n_steps, eps=0.0,
                                      temp=sa_cfg.gamma / math.log(1 + n_steps)),
              schedules.ScheduleState(n=n_steps, eps=1 / n_steps, temp=math.inf)]
    runs = []  # (stride, final schedule, run)
    for k, g in enumerate(DIFFERENTIAL_GRAPHS):
        seeds = range(20 * k + 2, 20 * k + 22)
        mu = np.linspace(0.2, 2.0, g.m)[::-1].copy()
        rm = walk.RewardModel(mu=mu, noise_std=0.5)  # negative estimates occur
        for stride in (1, 7):
            runs += [(stride, final, functools.partial(
                        batch, g, rm, algo_cfg, n_steps, seeds,
                        record_stride=stride))
                     for batch, algo_cfg, final in zip(
                         (walk.run_batch, baselines.run_sa_batch,
                          baselines.run_greedy_batch),
                         (cfg, sa_cfg, gr_cfg), finals)]
    compiled = [run() for _, _, run in runs]
    monkeypatch.setattr(_engine, "load", lambda: None)
    for (stride, final, run), want in zip(runs, compiled):
        for traj, c_traj in zip(run(), want):
            assert np.array_equal(traj.ns, np.unique(
                np.r_[0:n_steps:stride, n_steps]))
            for name in ("ns", "nodes", "xs", "eps", "alphas"):
                assert np.array_equal(getattr(traj, name), getattr(c_traj, name))
            fin, c_fin = traj.final_state, c_traj.final_state
            assert np.array_equal(fin.counts, c_fin.counts)
            assert np.array_equal(fin.mu_hat, c_fin.mu_hat)
            assert fin.counts.sum() == fin.n == n_steps
            assert fin.sched == c_fin.sched == final


def test_engine_build_and_fallback(monkeypatch, tmp_path):
    # the loader itself, past its per-process cache: a fresh cache directory
    # gets one library; an unusable cache directory or no compiler gives None
    if shutil.which("cc") is None:
        pytest.skip("no C compiler")
    load = _engine.load.__wrapped__
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    assert load() is not None
    assert [p.suffix for p in (tmp_path / "graphchoice").iterdir()] == [".so"]
    blocked = tmp_path / "file"
    blocked.write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocked))
    assert load() is None
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "fresh"))
    monkeypatch.setenv("PATH", str(tmp_path / "empty"))
    assert load() is None
    assert not any((tmp_path / "fresh" / "graphchoice").iterdir())


def test_compiled_signature_matches_its_argtypes():
    # ctypes does not check a call against the C prototype, so a parameter
    # list and an argtypes list that drift apart read the wrong arguments
    # without an error: both are kept by hand and compared here
    if shutil.which("cc") is None:
        pytest.skip("no C compiler")
    scalar = {"void": None, "int32_t": ctypes.c_int32,
              "int64_t": ctypes.c_int64, "double": ctypes.c_double}
    lib = _engine.load()
    source = _engine.SOURCE.read_text()
    exported = re.findall(r"^(\w+) (gc_\w+)\(([^)]*)\)", source, re.M)
    assert sorted(name for _, name, _ in exported) == [
        "gc_format_rows", "gc_rk4_window", "gc_run_block", "gc_schedule"]
    for restype, name, params in exported:
        declared = [ctypes.c_void_p if "*" in p else scalar[p.split()[0]]
                    for p in params.split(",")]
        assert declared == list(getattr(lib, name).argtypes), name
        assert getattr(lib, name).restype is scalar[restype], name
    # the integer codes passed for kind, dynamics and c_mode, and the kinds
    # that the engine gives a schedule lag
    enums = [{k.lower(): int(v) for k, v in re.findall(r"(\w+) = (\d+)", body)}
             for body in re.findall(r"^enum \{([^}]*)\};", source, re.M)]
    assert enums == [_engine.KINDS, _engine.DYNAMICS, _engine.C_MODES]
    assert walk._LAG.keys() == _engine.KINDS.keys()
    assert _engine.C_MODES.keys() == ScheduleConfig.EPS_READS.keys()


def test_engine_source_compiles_without_warnings():
    # the shipped flags with every common warning as an error: a stale or
    # unused parameter in the block's signature fails here
    if shutil.which("cc") is None:
        pytest.skip("no C compiler")
    done = subprocess.run(["cc", "-fsyntax-only", "-Wall", "-Wextra", "-Werror",
                           *_engine.FLAGS, str(_engine.SOURCE)],
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("runner", ["reinforced", "sa", "greedy"])
@pytest.mark.parametrize("n_steps, stride, message", [
    (0, 1, "n_steps must be >= 1"), (-3, 1, "n_steps must be >= 1"),
    (10, 0, "record_stride must be >= 1")])
def test_runners_reject_empty_runs_and_strides(runner, n_steps, stride,
                                               message):
    # checked before any schedule column is built: n_steps = -3 would
    # otherwise fail on a negative array size
    g = graphs.make_linear(4)
    rm = walk.RewardModel(mu=np.ones(4))
    run, cfg = {"reinforced": (walk.run_batch, ScheduleConfig()),
                "sa": (baselines.run_sa_batch, baselines.SAConfig()),
                "greedy": (baselines.run_greedy_batch,
                           baselines.GreedyConfig())}[runner]
    with pytest.raises(ValueError, match=message):
        run(g, rm, cfg, n_steps, [1], record_stride=stride)


def test_numpy_fallback_matches_compiled_engine(monkeypatch, tmp_path):
    g = graphs.make_two_cliques(2, 8)
    rm = walk.RewardModel(mu=np.linspace(2.0, 0.2, g.m), noise_std=0.5)
    cfg = ScheduleConfig(c_mode="explicit_log", alpha_mode="cooled",
                         burn_in=10, cool_scale=1.6)
    runs = [
        lambda: walk.run_batch(g, rm, cfg, 500, range(10), record_stride=3),
        lambda: baselines.run_sa_batch(g, rm, baselines.SAConfig(), 500,
                                       range(10), record_stride=3),
        lambda: baselines.run_greedy_batch(g, rm, baselines.GreedyConfig(),
                                           500, range(10), record_stride=3),
    ]
    exp_cfg = harness.load_config("linear_greedy_trap")
    exp_cfg = harness.ExperimentConfig(**{**exp_cfg.__dict__, "n_steps": 300,
                                          "seeds": [1, 2]})
    compiled = [run() for run in runs]
    monkeypatch.setattr(_engine, "load", lambda: None)
    assert walk.engine_name() == "numpy"
    for run, expected in zip(runs, compiled):
        for traj, want in zip(run(), expected):
            for name in ("ns", "nodes", "xs", "eps", "alphas"):
                assert np.array_equal(getattr(traj, name), getattr(want, name))
            assert np.array_equal(traj.final_state.counts,
                                  want.final_state.counts)
            assert np.array_equal(traj.final_state.mu_hat,
                                  want.final_state.mu_hat)
    harness.run_experiment(exp_cfg, str(tmp_path))
    for seed in exp_cfg.seeds:
        meta = json.loads((tmp_path / exp_cfg.name / str(seed) / "meta.json")
                          .read_text())
        assert meta["engine"] == "numpy"


def test_dead_row_fallback_is_uniform_on_real_slots():
    # at n = 0 no neighbor carries weight: the row is uniform on N(cur) and
    # its padding slots stay at probability 0
    for g in UNEQUAL_DEGREE_GRAPHS:
        ids, unif = g.neighbor_slots
        zeros = np.zeros(ids.shape)
        with np.errstate(divide="ignore"):
            p = walk._reinforced_slots(zeros, zeros, unif, alpha=1.3, eps=0.2)
        assert np.all(p[ids == g.m] == 0.0)
        assert np.allclose(p, unif, rtol=0, atol=1e-15)
        rm = walk.RewardModel(mu=np.ones(g.m))
        # constant mode keeps eps(0) = 1e-9 (explicit_log starts at 1); the
        # engine's first move is the inverse-CDF draw of each seed's first
        # selection uniform u from the uniform row on N(start): slot u*|N|
        cfg = ScheduleConfig(c_mode="constant", epsilon0=1e-9)
        us = [walk.WalkRng(s).select.random() for s in range(40)]
        for start in range(1, g.m + 1):
            trajs = walk.run_batch(g, rm, cfg, 1, range(40), start=start)
            nb = g.nbrs[start - 1]
            assert [t.nodes[1] for t in trajs] == [nb[int(u * len(nb))]
                                                   for u in us]
            assert all(t.final_state.counts.sum() == 1 for t in trajs)


def test_tail_fallback_never_picks_a_padding_slot():
    # u = nextafter(1, 0) beyond a row whose cumsum rounds below 1: the draw
    # falls back to the last real slot, never to the padding behind it
    g = graphs.make_star(9, 1)
    ids, unif = g.neighbor_slots
    u = np.array([np.nextafter(1.0, 0.0)])
    rng = np.random.default_rng(0)
    fired = 0
    for _ in range(2000):
        leaf = int(rng.integers(1, g.m))
        real = ids[[leaf]] < g.m
        S = rng.integers(0, 50, size=real.shape) * real
        mu_hat = rng.uniform(0.1, 2.0, size=real.shape) * real
        with np.errstate(divide="ignore"):
            p = walk._reinforced_slots(S, mu_hat, unif[[leaf]],
                                       alpha=float(rng.uniform(0.5, 3.0)),
                                       eps=float(rng.uniform(0.0, 1.0)))
        if p.cumsum()[-1] > u[0]:
            continue
        fired += 1
        slot = int(walk._sample_rows(p, u)[0])
        assert slot == np.flatnonzero(p[0] > 0)[-1]
        assert ids[leaf, slot] < g.m
    assert fired > 0


def test_compiled_tail_fallback_matches_numpy(monkeypatch):
    # every selection uniform pinned to nextafter(1, 0): each row whose
    # cumsum rounds below 1 takes the tail fallback, in C and in numpy alike
    top = np.nextafter(1.0, 0.0)

    class TopUniform:
        def random(self, out):
            out.fill(top)

    class PinnedRng(walk.WalkRng):
        def __init__(self, seed):
            super().__init__(seed)
            self.select = TopUniform()

    monkeypatch.setattr(walk, "WalkRng", PinnedRng)
    g = graphs.make_star(9, 1)
    rm = walk.RewardModel(mu=np.linspace(0.3, 2.0, g.m), noise_std=0.5)
    cfg = ScheduleConfig(c_mode="explicit_log", alpha_mode="cooled",
                         burn_in=10, cool_scale=1.6)
    runs = [lambda: walk.run_batch(g, rm, cfg, 400, range(30)),
            lambda: baselines.run_sa_batch(g, rm, baselines.SAConfig(gamma=5.0),
                                           400, range(30))]
    compiled = [run() for run in runs]
    fired = []
    sample_rows = walk._sample_rows

    def counting(probs, u):
        fired.append(int(((u[:, None] >= probs.cumsum(axis=1)).sum(axis=1)
                          >= probs.shape[1]).sum()))
        return sample_rows(probs, u)

    monkeypatch.setattr(walk, "_sample_rows", counting)
    monkeypatch.setattr(_engine, "load", lambda: None)
    for run, expected in zip(runs, compiled):
        for traj, want in zip(run(), expected):
            assert np.array_equal(traj.nodes, want.nodes)
            assert np.array_equal(traj.xs, want.xs)
            for k in range(1, len(traj.ns)):
                assert traj.nodes[k] + 1 in g.neighbors(traj.nodes[k - 1] + 1)
    assert sum(fired) > 0


def test_greedy_argmax_never_picks_a_padding_slot():
    # padding reads estimate 0, above every real neighbor's negative estimate
    g = graphs.make_star(9, 1)
    nb, unif, mu_hat = slot_rows(g, 5, -np.arange(1.0, g.m + 1))
    p = walk._greedy_slots(mu_hat, unif, 0.0)[0]
    assert nb[p.argmax()] == 0 and p.max() == 1.0  # node 1, the hub
