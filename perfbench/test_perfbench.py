"""Tests of the benchmark's own logic: python3 -m pytest perfbench"""
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from graphchoice import analysis, graphs, schedules, walk  # noqa: E402

import measure  # noqa: E402
import outputs  # noqa: E402
from spans import Tracer, outermost_time, self_times  # noqa: E402


def fake_clock(*ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_self_time_subtracts_children_at_every_level():
    # root [0, 10] holds a [1, 4] (which holds g [2, 3]) and b [5, 9]
    tr = Tracer(clock=fake_clock(0, 1, 2, 3, 4, 5, 9, 10))
    root = tr.begin("root")
    a = tr.begin("a")
    g = tr.begin("g")
    tr.end(g)
    tr.end(a)
    b = tr.begin("b")
    tr.end(b)
    tr.end(root)
    assert [s.parent for s in tr.spans] == [None, root.id, a.id, root.id]
    selfs = self_times(tr.spans)
    assert selfs == {root.id: 3.0, a.id: 2.0, g.id: 1.0, b.id: 4.0}
    assert sum(selfs.values()) == root.duration
    # root is the benchmark's own span; a (with g inside) and b wrap the package
    assert outermost_time(tr.spans, {"a", "g", "b"}) == 7.0
    assert outermost_time(tr.spans, {"g"}) == 1.0


def test_spans_must_close_in_order():
    tr = Tracer()
    outer = tr.begin("outer")
    tr.begin("inner")
    with pytest.raises(RuntimeError):
        tr.end(outer)


def test_wrap_records_nested_calls_and_uninstall_restores():
    mod = SimpleNamespace()
    mod.inner = lambda x: x + 1
    mod.outer = lambda x: mod.inner(x) * 2  # calls through the attribute
    original = mod.inner, mod.outer
    tr = Tracer()
    tr.wrap(mod, "inner", "inner", after=lambda span, a, k, r: setattr(span, "units", r))
    tr.wrap(mod, "outer", "outer")
    tr.count(mod, "inner", "inner_calls")
    assert tr.wrapped == {"inner", "outer"}
    assert mod.outer(3) == 8
    outer, inner = tr.spans
    assert (outer.name, inner.name) == ("outer", "inner")
    assert inner.parent == outer.id and outer.parent is None
    assert inner.units == 4 and tr.counters["inner_calls"] == 1
    tr.uninstall()
    assert (mod.inner, mod.outer) == original


@pytest.mark.parametrize("n, expected", [(0, None), (19, None), (20, 50.0),
                                         (99, 50.0), (100, 90.0), (999, 90.0),
                                         (1000, 99.0), (10000, 99.9)])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert measure.tail_percentile(n) == expected


@pytest.fixture(scope="module")
def runs():
    g = graphs.make_linear(4)
    rm = walk.RewardModel(mu=np.array([2.0, 0.25, 0.5, 1.0]), noise_std=0.3)
    cfg = schedules.ScheduleConfig()
    return walk.run_batch(g, rm, cfg, 200, [5, 6], record_stride=50)


def _copy(traj):
    fs = traj.final_state
    final = walk.WalkState(n=fs.n, current=fs.current, counts=fs.counts.copy(),
                           x=fs.x.copy(), mu_hat=fs.mu_hat.copy(), sched=fs.sched)
    return walk.Trajectory(seed=traj.seed, ns=traj.ns.copy(),
                           nodes=traj.nodes.copy(), xs=traj.xs.copy(),
                           eps=traj.eps.copy(), alphas=traj.alphas.copy(),
                           final_state=final)


def test_trajectory_check_passes_a_clean_run(runs):
    traj = runs[0]
    assert outputs.trajectory_problems(traj, 4, 200, list(traj.final_state.x)) == []


def test_trajectory_check_rejects_a_row_off_the_simplex(runs):
    bad = _copy(runs[0])
    bad.xs[2] *= 1.1
    found = outputs.trajectory_problems(bad, 4, 200, list(bad.final_state.x))
    assert any("sums" in p for p in found)


def test_trajectory_check_rejects_a_wrong_final_row(runs):
    traj = runs[0]
    on_disk = traj.final_state.x.copy()
    on_disk[[0, 1]] = on_disk[[1, 0]]
    found = outputs.trajectory_problems(traj, 4, 200, list(on_disk))
    assert any("last CSV row" in p for p in found)


def test_trajectory_check_rejects_bad_nodes_and_counts(runs):
    bad = _copy(runs[0])
    bad.nodes[1] = 4
    bad.final_state.counts[0] += 1
    found = outputs.trajectory_problems(bad, 4, 200, list(bad.final_state.x))
    assert any("node id" in p for p in found)
    assert any("counts sum" in p for p in found)


def test_same_run_check_spots_a_changed_node(runs):
    assert outputs.same_run_problems(runs[0], _copy(runs[0])) == []
    other = _copy(runs[0])
    other.nodes[-1] = (other.nodes[-1] + 1) % 4
    assert outputs.same_run_problems(runs[0], other)


def test_analysis_checks():
    g = graphs.make_complete(3)
    mu, x = np.array([1.0, 1.5, 2.0]), np.full(3, 1 / 3)
    pi = analysis.stationary_closed_form(x, g, mu, 1.0)
    power = analysis.stationary_power_iteration(analysis.limit_kernel(x, g, mu, 1.0))
    assert outputs.stationary_problems(pi, power) == []
    assert outputs.stationary_problems(pi + np.array([1e-6, -1e-6, 0.0]), power)
    fp = analysis.find_fixed_point(g, mu, 1.0)
    assert outputs.fixed_point_problems(fp) == []
    fp.residual = 1e-6
    assert outputs.fixed_point_problems(fp)
