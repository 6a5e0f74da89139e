import math

import numpy as np
import pytest

from graphchoice import harness, schedules
from graphchoice.schedules import ScheduleConfig, ScheduleState


def test_default_c_value_at_one():
    assert schedules.default_c(1) == pytest.approx(1.0 / (1.0 + 2.0 * math.log(2.0)),
                                                   abs=1e-15)


def test_default_c_rejects_zero():
    with pytest.raises(ValueError):
        schedules.default_c(0)


def test_default_c_decreasing_in_unit_interval():
    vals = [schedules.default_c(n) for n in (1, 2, 5, 10, 100, 10_000)]
    assert all(0.0 < v < 1.0 for v in vals)
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_n_times_c_vanishes():
    # n*c(n) -> 0 checked across decades
    vals = [n * schedules.default_c(n) for n in (10**2, 10**3, 10**4, 10**5,
                                                 10**6, 10**7)]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 0.07


def test_step_epsilon_identity_when_c_zero():
    cfg = ScheduleConfig(c_mode="constant", c_const=0.0, epsilon0=0.7)
    st = ScheduleState(n=5, eps=0.7, temp=1.0)
    assert schedules.step_epsilon(st, cfg) == 0.7


def test_step_epsilon_recursion_arithmetic():
    cfg = ScheduleConfig(c_mode="recursion_example", epsilon0=1.0)
    st = ScheduleState(n=1, eps=1.0, temp=1.0)
    expect = (1.0 - schedules.default_c(1)) * 1.0
    assert schedules.step_epsilon(st, cfg) == pytest.approx(expect, abs=1e-15)
    assert expect == pytest.approx(0.58094, abs=1e-4)


def test_explicit_log_clamped_then_exact():
    assert schedules.explicit_log_eps(0) == 1.0
    assert schedules.explicit_log_eps(1) == 1.0          # 1/log 2 > 1 clamps
    assert schedules.explicit_log_eps(2) == pytest.approx(1.0 / math.log(3.0))
    assert schedules.explicit_log_eps(10**5) == pytest.approx(
        1.0 / math.log(10**5 + 1.0))


def test_epsilon_monotone_and_positive_all_modes():
    for cfg in (ScheduleConfig(c_mode="recursion_example"),
                ScheduleConfig(c_mode="explicit_log"),
                ScheduleConfig(c_mode="constant", c_const=0.01,
                               eps_hold=20, eps_floor=0.005)):
        eps, _, _ = schedules.schedule_arrays(cfg, 5000)
        assert np.all(eps > 0.0)
        assert np.all(np.diff(eps) <= 1e-15)


def test_temperature_fixed_mode_constant():
    cfg = ScheduleConfig(alpha_mode="fixed", T0=0.1)
    st = schedules.initial_state(cfg)
    for _ in range(50):
        st = schedules.advance(st, cfg)
    assert st.alpha == pytest.approx(10.0)
    assert st.temp == pytest.approx(0.1)


def test_cooling_arithmetic_from_n2():
    cfg = ScheduleConfig(alpha_mode="cooled", alpha_burn=0.01, burn_in=2,
                         cool_scale=1.0)
    st = ScheduleState(n=2, eps=0.5, temp=100.0)  # alpha(2) = 0.01
    temp = schedules.step_temperature(st, cfg)
    alpha = schedules.advance(st, cfg).alpha
    expect = 0.01 / (1.0 - 1.0 / (2.0 * math.log(2.0)))
    assert alpha == pytest.approx(expect, rel=1e-12)
    assert alpha == pytest.approx(0.0358872, abs=1e-6)
    assert alpha == 1.0 / temp


def test_cooled_alpha_nondecreasing_and_exceeds_100():
    cfg = ScheduleConfig(alpha_mode="cooled", alpha_burn=0.01, burn_in=2,
                         cool_scale=8.0)
    _, alpha, temp = schedules.schedule_arrays(cfg, 200_000)
    assert np.all(np.diff(alpha) >= 0.0)
    assert np.all(temp > 0.0)
    assert alpha.max() > 100.0


def test_burn_in_holds_alpha():
    cfg = ScheduleConfig(alpha_mode="cooled", alpha_burn=0.02, burn_in=500,
                         cool_scale=2.0)
    _, alpha, _ = schedules.schedule_arrays(cfg, 1000)
    assert np.all(alpha[:501] == alpha[0])
    assert alpha[-1] > alpha[0]


def test_log_decay_band_up_to_1e6():
    # eps(n) * log(n) stays inside a fixed positive band (the 1e7 sweep
    # lives in the acceptance suite)
    cfg = ScheduleConfig(c_mode="recursion_example", epsilon0=1.0)
    lo, hi = np.inf, -np.inf
    for ns, eps, _ in schedules.schedule_chunks(cfg, 10**6):
        mask = ns >= 100
        if mask.any():
            band = eps[mask] * np.log(ns[mask])
            lo = min(lo, float(band.min()))
            hi = max(hi, float(band.max()))
    assert 0.1 < lo <= hi < 10.0


def stepped(cfg, n_steps):
    """(eps, alpha, temp) for n = 0..n_steps by stepping the scalar `advance`."""
    out = np.empty((3, n_steps + 1))
    st = schedules.initial_state(cfg)
    for n in range(n_steps + 1):
        out[:, n] = st.eps, st.alpha, st.temp
        st = schedules.advance(st, cfg)
    return out


def test_schedule_arrays_match_stepwise_advance():
    # 1e5 steps reach integers where np.log and math.log differ in the last
    # bit: log(9170) and log(94869) enter explicit-log eps at n = 9169 and
    # 94868, and the three cooled configs take logs of every n
    for cfg in (ScheduleConfig(c_mode="recursion_example", epsilon0=0.5,
                               eps_hold=64, eps_floor=0.04,
                               alpha_mode="cooled", burn_in=10, cool_scale=1.6),
                ScheduleConfig(c_mode="constant", c_const=0.05, eps_hold=30,
                               eps_floor=0.01, alpha_mode="cooled", burn_in=3,
                               alpha_burn=0.02, cool_scale=1.6),
                ScheduleConfig(c_mode="explicit_log", eps_floor=0.05,
                               alpha_mode="cooled", burn_in=4, cool_scale=2.4),
                ScheduleConfig(c_mode="constant", c_const=0.05, eps_hold=30,
                               eps_floor=0.01, alpha_mode="fixed", T0=2.0)):
        ref = stepped(cfg, 10**5)
        for got, want in zip(schedules.schedule_arrays(cfg, 10**5), ref):
            assert np.array_equal(got, want)


def test_epsilon_chunks_match_scalar_recursion():
    # small blocks carry the running products across many block boundaries
    for cfg in (ScheduleConfig(c_mode="recursion_example", epsilon0=0.5,
                               eps_hold=64, eps_floor=0.01),
                ScheduleConfig(c_mode="constant", c_const=0.2, eps_hold=10,
                               alpha_mode="cooled", burn_in=40),
                # eps(0) below the floor: advance clamps only from n = 1 on
                ScheduleConfig(c_mode="constant", c_const=0.2, epsilon0=0.01,
                               eps_floor=0.02),
                ScheduleConfig(c_mode="explicit_log")):
        blocks = list(schedules.schedule_chunks(cfg, 300, chunk=37))
        ref = stepped(cfg, 300)
        assert np.array_equal(np.concatenate([b[0] for b in blocks]),
                              np.arange(301))
        assert np.array_equal(np.concatenate([b[1] for b in blocks]), ref[0])
        assert np.array_equal(np.concatenate([b[2] for b in blocks]), ref[2])


def test_verify_conditions_reads_the_run_schedule(monkeypatch):
    # the eps the diagnostics sweep is, bit for bit, the eps a run indexes
    swept = []
    chunks = schedules.schedule_chunks

    def recording(cfg, n_max, chunk=1 << 16):
        for block in chunks(cfg, n_max, chunk):
            swept.append(block[1])
            yield block

    monkeypatch.setattr(schedules, "schedule_chunks", recording)
    for name in harness.bundled_config_names():
        cfg = harness.load_config(name)
        if cfg.algorithm != "reinforced":
            continue
        eps = schedules.schedule_arrays(cfg.schedule, 10**5)[0]
        swept.clear()
        schedules.verify_conditions(cfg.schedule, n_max=10**5)
        assert np.array_equal(np.concatenate(swept)[:eps.size], eps), name


def test_verify_conditions_defaults_ok():
    report = schedules.verify_conditions(ScheduleConfig(), n_max=10**5)
    assert report.ok, report.flagged()


def test_verify_conditions_flags_constant_c():
    cfg = ScheduleConfig(c_mode="constant", c_const=0.5)
    report = schedules.verify_conditions(cfg, n_max=10**4)
    flagged = {c.name for c in report.checks if not c.satisfied}
    assert "n_c_to_zero" in flagged


def test_verify_conditions_flags_one_over_n():
    # geometric decay, faster than 1/n and still nonzero at every checkpoint
    report = schedules.verify_conditions(
        ScheduleConfig(c_mode="constant", c_const=1e-4), n_max=10**5)
    flagged = {c.name for c in report.checks if not c.satisfied}
    assert "eps_sqrt_n" in flagged


def test_stock_cooling_rate_is_proportional_to_c_not_smaller():
    # the multiplicative cooling b(n) = 1/(n log n) paired with the stock
    # c(n) has b/c -> 1 from above: the b = o(c) condition does not hold for
    # this pair, and the diagnostic must say so rather than wave it through
    cfg = ScheduleConfig(c_mode="recursion_example", alpha_mode="cooled",
                         burn_in=2, cool_scale=1.0)
    report = schedules.verify_conditions(cfg, n_max=10**6)
    check = {c.name: c for c in report.checks}["b_small_o_c"]
    assert not check.satisfied
    ratios = check.values
    assert all(b < a for a, b in zip(ratios, ratios[1:]))  # decreasing ...
    assert ratios[-1] == pytest.approx(1.0, abs=0.05)      # ... toward 1


def test_verify_conditions_reads_the_floored_sequence():
    # the shipped annealed two-clique schedule floors eps at 0.06: that floor
    # (eps -> 0 violated) is its one fault; the explicit-log fixed exponent
    # meets every condition
    annealed = harness.load_config("two_clique_annealed")
    report = schedules.verify_conditions(annealed.schedule, n_max=10**5, m=10)
    assert [c.name for c in report.checks if not c.satisfied] == ["eps_to_zero"]
    fixed = harness.load_config("two_clique_fixed")
    report = schedules.verify_conditions(fixed.schedule, n_max=10**5, m=10)
    assert report.ok, report.flagged()


def test_config_validation():
    with pytest.raises(ValueError):
        ScheduleConfig(epsilon0=0.0)
    with pytest.raises(ValueError):
        ScheduleConfig(c_mode="nope")
    with pytest.raises(ValueError):
        ScheduleConfig(T0=-1.0)
    with pytest.raises(ValueError):
        ScheduleConfig(burn_in=-1)
    with pytest.raises(ValueError):
        ScheduleConfig(T0=math.nan)
    with pytest.raises(ValueError):
        ScheduleConfig(cool_scale=math.inf)
    with pytest.raises(ValueError):
        ScheduleConfig(burn_in=True)
    with pytest.raises(ValueError):
        ScheduleState(n=0, eps=1.5, temp=1.0)
    with pytest.raises(ValueError):
        ScheduleState(n=0, eps=0.5, temp=math.nan)
    with pytest.raises(TypeError):  # alpha is derived, never passed
        ScheduleState(n=3, eps=0.5, temp=2.0, alpha=9.0)
    st = ScheduleState(n=0, eps=0.5, temp=4.0)
    assert st.alpha == 0.25
    assert ScheduleState(n=0, eps=0.0, temp=math.inf).alpha == 0.0
    # inputs that used to fail only at run time are config errors
    doc = {"schema": 1, "name": "v", "graph": {"generator": "linear", "m": 4},
           "mu": [2.0, 0.25, 0.5, 1.0], "algorithm": "reinforced",
           "n_steps": 10, "seeds": [1],
           "acceptance": {"nodes": [1], "min_fraction": 0.5, "min_seeds": 1}}
    harness.parse_config(doc)
    for bad in ({"acceptance": {**doc["acceptance"], "nodes": [9]}},
                {"acceptance": {**doc["acceptance"], "nodes": [0]}},
                {"mu": [-1.0, 0.25, 0.5, 1.0]},
                {"mu": [2.0, 0.0, 0.5, 1.0]},
                {"start": 9},
                {"start": [1, 9]},
                {"start": []},
                # names that leave the output root or merge into it
                {"name": "../escape"}, {"name": ""}, {"name": "."},
                {"name": ".."}, {"name": "a/b"}, {"name": 5},
                {"acceptance": {**doc["acceptance"], "nodes": [1, 1]}},
                {"acceptance": {**doc["acceptance"], "min_seeds": -3}},
                {"acceptance": {**doc["acceptance"], "min_seeds": 0}},
                {"acceptance": {**doc["acceptance"], "min_seeds": "1"}},
                {"acceptance": {**doc["acceptance"], "min_fraction": 2.0}},
                {"acceptance": {**doc["acceptance"], "min_fraction": 0}},
                {"acceptance": {**doc["acceptance"], "min_fraction": "0.5"}},
                {"acceptance": {**doc["acceptance"], "min_fraction": math.nan}},
                {"acceptance": 5},
                {"greedy_eps": {"mod": "constant"}},
                {"greedy_eps": 5},
                {"schedule": 5}, {"schedule": None}, {"schedule": []},
                {"seeds": [-1]},
                {"seeds": {"count": 2, "base": -1}},
                {"noise_std": -1},
                {"out_dir": 5},
                {"schema": True}, {"seeds": []}, {"seeds": {"count": 0}},
                {"name": "a\0b"},  # a path no file system takes
                {"acceptance": {**doc["acceptance"], "nodes": []}}):
        with pytest.raises(harness.ConfigError):
            harness.parse_config({**doc, **bad})
    # each step count under a mode that reads it, so it meets its own rule
    for schedule in ({"alpha_mode": "cooled", "burn_in": 50.5},
                     {"c_mode": "constant", "eps_hold": 2.5}):
        with pytest.raises(harness.ConfigError, match="must be an integer"):
            harness.parse_config({**doc, "schedule": schedule})


def test_integral_step_counts_run_as_integers():
    # 1e2 is the JSON spelling of 100 for a step count, as for n_steps
    doc = {"schema": 1, "name": "v", "graph": {"generator": "linear", "m": 4},
           "mu": [2.0, 0.25, 0.5, 1.0], "algorithm": "reinforced",
           "n_steps": 300, "seeds": [1, 2], "record_stride": 7}
    runs = []
    for burn_in, eps_hold in ((100, 20), (1e2, 2e1)):
        cfg = harness.parse_config({**doc, "schedule": {
            "alpha_mode": "cooled", "c_mode": "recursion_example",
            "burn_in": burn_in, "eps_hold": eps_hold}})
        assert type(cfg.schedule.burn_in) is type(cfg.schedule.eps_hold) is int
        runs.append(harness.run_trajectories(cfg))
    for a, b in zip(*runs):
        for name in ("nodes", "xs", "eps", "alphas"):
            assert np.array_equal(getattr(a, name), getattr(b, name))
