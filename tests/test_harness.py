import json
import os
import re
import signal
import sys
import threading
import time
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from graphchoice import _writer, cli, graphs, harness, walk
from graphchoice.harness import ConfigError
from graphchoice.baselines import GreedyConfig
from graphchoice.schedules import ScheduleConfig


def mini_config(**overrides):
    doc = {
        "schema": 1,
        "name": "mini",
        "graph": {"generator": "linear", "m": 4},
        "mu": [2.0, 0.25, 0.5, 1.0],
        "noise_std": 0.1,
        "algorithm": "reinforced",
        "schedule": {"c_mode": "explicit_log"},
        "n_steps": 600,
        "seeds": [5, 6, 7],
        "record_stride": 200,
        "start": "uniform",
    }
    doc.update(overrides)
    return doc


def algorithm_config(algo, **overrides):
    """mini_config run by `algo`: the baselines read no walk schedule."""
    doc = mini_config(algorithm=algo, **overrides)
    if algo != "reinforced":
        del doc["schedule"]
    return doc


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


# ------------------------------------------------------------- config layer

def test_unknown_keys_rejected():
    with pytest.raises(ConfigError):
        harness.parse_config(mini_config(keet="oops"))
    with pytest.raises(ConfigError):
        harness.parse_config(mini_config(graph={"generator": "linear",
                                                "m": 4, "wat": 1}))


def test_graph_block_checked(tmp_path, capsys):
    # parameters are integers the generator takes, under the generator's own
    # keys; a graph the generator or the file cannot give is a config error
    bad_file = tmp_path / "bad.json"
    bad_file.write_text("{not json")
    for graph in ({"generator": "linear", "m": 4.7},
                  {"generator": "linear", "m": "4"},
                  {"generator": "linear", "m": True},
                  {"generator": "linear"},
                  {"generator": "linear", "m": 4, "center": 1},
                  {"generator": "star", "m": 4, "center": 9},
                  {"generator": "linear", "m": 1},
                  {"generator": "two_cliques", "m1": 0, "m2": 3},
                  {"generator": "ring", "m": 4},
                  {"file": str(tmp_path / "missing.json")},
                  {"file": str(bad_file)},
                  {"file": 0},
                  {"file": str(bad_file), "generator": "linear"},
                  [4]):
        with pytest.raises(ConfigError):
            harness.parse_config(mini_config(graph=graph))
    for graph in ({"generator": "linear", "m": 4.7},
                  {"generator": "linear"},
                  {"generator": "star", "m": 4, "center": 9},
                  {"generator": "linear", "m": 1}):
        path = write_config(tmp_path, mini_config(graph=graph))
        assert cli.main(["run", "--config", path,
                         "--out", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()
    cfg = harness.parse_config(mini_config(graph={"generator": "linear",
                                                  "m": 4.0}))
    assert cfg.build_graph().m == 4


def test_mu_length_checked():
    with pytest.raises(ConfigError):
        harness.parse_config(mini_config(mu=[1.0, 2.0]))


def test_algorithm_and_schema_checked():
    with pytest.raises(ConfigError):
        harness.parse_config(mini_config(algorithm="ucb"))
    with pytest.raises(ConfigError):
        harness.parse_config(mini_config(schema=2))


def test_seeds_forms():
    cfg = harness.parse_config(mini_config(seeds={"count": 3, "base": 10}))
    assert cfg.seeds == [10, 11, 12]
    with pytest.raises(ConfigError):
        harness.parse_config(mini_config(seeds=[1, 1]))


def test_bad_schedule_block_reported():
    # each key under a mode that reads it, so each case meets its own rule
    with pytest.raises(ConfigError, match="epsilon0 must be in"):
        harness.parse_config(mini_config(schedule={"c_mode": "constant",
                                                   "epsilon0": 2.0}))
    with pytest.raises(ConfigError):
        harness.parse_config(mini_config(schedule={"nope": 1}))
    with pytest.raises(ConfigError):
        harness.parse_config(mini_config(schedule={"T0": float("nan")}))
    with pytest.raises(ConfigError, match="cool_scale must be a finite"):
        harness.parse_config(mini_config(schedule={"alpha_mode": "cooled",
                                                   "cool_scale": float("inf")}))
    with pytest.raises(ConfigError):
        harness.parse_config(mini_config(noise_std=float("nan")))
    with pytest.raises(ConfigError):
        harness.parse_config(mini_config(n_steps=True))
    with pytest.raises(ConfigError):
        harness.parse_config(mini_config(record_stride=2.5))
    with pytest.raises(ConfigError):
        harness.parse_config(mini_config(mu=[2.0, 0.25, float("inf"), 1.0]))
    with pytest.raises(ConfigError):
        harness.parse_config(mini_config(start=True))


# For each schedule and greedy_eps key: a value out of its range and one of
# the wrong kind (and, for gamma_sa, a bool). The runs that read or ignore a
# key come from the tables beside ScheduleConfig and GreedyConfig.
BAD_VALUES = {"epsilon0": (0.0, "1"), "T0": (-1.0, True), "c_mode": ("nope", 5),
              "c_const": (1.0, "0.5"), "eps_hold": (-1, "3"),
              "eps_floor": (1.5, [0.1]), "alpha_mode": ("hot", 1),
              "burn_in": (-1, 2.5), "alpha_burn": (0.0, "x"),
              "cool_scale": (0.0, None), "gamma_sa": (0.0, "0.1", True),
              "mode": ("sometimes", 1), "value": (1.5, "0.1")}
MODE_TABLES = {"schedule": (("c_mode", ScheduleConfig.EPS_READS),
                            ("alpha_mode", ScheduleConfig.ALPHA_READS)),
               "greedy_eps": (("mode", GreedyConfig.READS),)}


def _runs(key):
    """The block holding `key`, a run (algorithm, modes) that reads it and
    the runs that never read it."""
    if key == "gamma_sa":
        return "schedule", ("sa", {}), [("reinforced", {}), ("greedy", {})]
    greedy = any(key in keys for keys in GreedyConfig.READS.values())
    block, algo = ("greedy_eps", "greedy") if greedy else ("schedule", "reinforced")
    reading = (algo, {})
    ignoring = [(other, {}) for other in ("reinforced", "sa", "greedy")
                if other != algo]
    for mode_key, table in MODE_TABLES[block]:
        for mode, reads in table.items():
            if key in reads:
                reading = (algo, {mode_key: mode})
            elif key in {k for r in table.values() for k in r}:
                ignoring.append((algo, {mode_key: mode}))
    return block, reading, ignoring


def _boundary_cases():
    assert set(BAD_VALUES) == ({f.name for f in fields(ScheduleConfig)}
                               | {"mode", "value"})
    defaults = {**vars(ScheduleConfig()), "mode": "one_over_n", "value": 0.1}

    def doc(algo, block, modes, value):
        base = {k: v for k, v in mini_config().items() if k != "schedule"}
        return {**base, "algorithm": algo, block: {**modes, key: value}}

    for key, bad in BAD_VALUES.items():
        block, reading, ignoring = _runs(key)
        read = doc(reading[0], block, reading[1], defaults[key])
        for value, what in zip(bad, ("range", "kind", "bool")):
            yield pytest.param(doc(reading[0], block, reading[1], value), read,
                               id=f"{key}-{what}")
        for algo, modes in ignoring:
            yield pytest.param(doc(algo, block, modes, defaults[key]), read,
                               id="-".join([key, "unread", algo, *modes.values()]))


@pytest.mark.parametrize("bad, read", _boundary_cases())
def test_every_config_key_is_checked_at_the_boundary(tmp_path, capsys, bad,
                                                     read):
    harness.parse_config(read)  # the default value, under a run that reads it
    out = tmp_path / "out"
    assert cli.main(["run", "--config", write_config(tmp_path, bad),
                     "--out", str(out)]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "config"
    assert not out.exists()


def test_bundled_configs_load_and_validate():
    names = harness.bundled_config_names()
    assert "linear_annealed" in names and "two_clique_fixed" in names
    for name in names:
        cfg = harness.load_config(name)
        g = cfg.build_graph()
        assert graphs.validate(g) == []
        assert cfg.mu.size == g.m
        assert len(cfg.seeds) == 10
        assert cfg.n_steps == 100_000


def test_parse_graph_arg(capsys):
    assert harness.parse_graph_arg("complete:4").m == 4
    assert harness.parse_graph_arg("star:5:2").neighbors(2) == (1, 2, 3, 4, 5)
    assert harness.parse_graph_arg("two_cliques:2:3").m == 5
    assert harness.parse_graph_arg("linear:3").m == 3
    for text in ("ring:4", "ring", "linear:x", "linear:4.7", "linear:-4",
                 "linear:", "linear:1", "linear:4:2", "star:4", "star:4:9",
                 "two_cliques:0:3", "missing.json", "no/such/graph"):
        with pytest.raises(ConfigError):
            harness.parse_graph_arg(text)
    for text in ("linear:x", "linear:1", "star:4:9"):
        assert cli.main(["analyze", "--kind", "potential", "--graph", text,
                         "--mu", "1,1,1,1", "--alpha", "1"]) == 2


# ---------------------------------------------------------------- run layer

def test_run_experiment_layout_and_summary(tmp_path):
    cfg = harness.parse_config(mini_config())
    out = str(tmp_path / "runs")
    summary = harness.run_experiment(cfg, out)
    for seed in cfg.seeds:
        assert os.path.isfile(os.path.join(out, "mini", str(seed),
                                           "trajectory.csv"))
        meta = json.loads(Path(out, "mini", str(seed), "meta.json").read_text())
        assert meta["seed"] == seed
        assert meta["rng"].startswith("numpy-pcg64")
        assert meta["engine"] == walk.engine_name()
        assert meta["config_sha256"] == cfg.config_hash()
    disk = json.loads(Path(out, "mini", "summary.json").read_text())
    assert disk == json.loads(json.dumps(summary))
    # summaries are recomputable from the persisted trajectories alone
    again = harness.summarize_from_disk(cfg, os.path.join(out, "mini"))
    assert json.loads(json.dumps(again)) == disk


def test_rerun_is_byte_identical(tmp_path):
    cfg = harness.parse_config(mini_config())
    for sub in ("a", "b"):
        harness.run_experiment(cfg, str(tmp_path / sub))
    for seed in cfg.seeds:
        t1 = (tmp_path / "a" / "mini" / str(seed) / "trajectory.csv").read_bytes()
        t2 = (tmp_path / "b" / "mini" / str(seed) / "trajectory.csv").read_bytes()
        assert t1 == t2


def test_seed_override_runs_single_seed(tmp_path):
    cfg = harness.parse_config(mini_config())
    out = str(tmp_path / "override_only")
    summary = harness.run_experiment(cfg, out, seed_override=42)
    assert summary["seeds"] == [42]
    assert os.path.isdir(os.path.join(out, "mini", "42"))
    assert not os.path.isdir(os.path.join(out, "mini", "5"))
    # after a full run, an override run leaves the full summary.json intact
    out = str(tmp_path / "full_first")
    harness.run_experiment(cfg, out)
    path = os.path.join(out, "mini", "summary.json")
    before = Path(path).read_bytes()
    assert harness.run_experiment(cfg, out, seed_override=42)["seeds"] == [42]
    assert Path(path).read_bytes() == before


def test_failed_write_keeps_the_previous_artifact(tmp_path, monkeypatch):
    cfg = harness.parse_config(mini_config())
    out = str(tmp_path / "runs")
    harness.run_experiment(cfg, out)
    seed_dir = os.path.join(out, "mini", "5")
    path = os.path.join(seed_dir, "trajectory.csv")
    before = Path(path).read_bytes()
    listing = sorted(os.listdir(seed_dir))

    def half_write(self, target):
        with open(target, "w") as fh:
            fh.write("n,xi,eps,alpha\n0,")
        raise OSError("disk full")

    monkeypatch.setattr(walk.Trajectory, "to_csv", half_write)
    with pytest.raises(OSError):
        harness.run_experiment(cfg, out)
    assert Path(path).read_bytes() == before
    assert sorted(os.listdir(seed_dir)) == listing


def seeds_config(count, **overrides):
    """mini_config on seeds 5.. 5+count-1."""
    return harness.parse_config(mini_config(seeds={"count": count, "base": 5},
                                            **overrides))


@pytest.mark.parametrize("count", [3, 8])
def test_trajectories_are_written_on_the_calling_thread(tmp_path, monkeypatch,
                                                        count):
    # worker threads make the seed directories and meta.json; to_csv stays on
    # the caller's thread, where a single-stack span tracer can wrap it
    threads, to_csv = [], walk.Trajectory.to_csv

    def record(self, path):
        threads.append(threading.get_ident())
        to_csv(self, path)

    monkeypatch.setattr(walk.Trajectory, "to_csv", record)
    harness.run_experiment(seeds_config(count), str(tmp_path))
    assert threads == [threading.get_ident()] * count


@pytest.mark.parametrize("cpus", [1, None, 2, 64])
@pytest.mark.parametrize("count", [3, 4, 13])
def test_worker_threads_never_outnumber_the_cpus(tmp_path, monkeypatch,
                                                 fresh_pool, cpus, count):
    # one pool for the process, of one thread per CPU whatever the seed
    # count, made at the first run and used again by the next
    fresh_pool(cpus)
    sizes, make = [], _writer.ThreadPoolExecutor

    def counted(max_workers, **kwargs):
        sizes.append(max_workers)
        return make(max_workers, **kwargs)

    monkeypatch.setattr(_writer, "ThreadPoolExecutor", counted)
    for run in ("first", "second"):
        summary = harness.run_experiment(seeds_config(count),
                                         str(tmp_path / run))
        assert sorted(summary["final_x"], key=int) == [str(5 + k)
                                                       for k in range(count)]
    assert sizes == [cpus or 1] and _writer.pool()[1] == (cpus or 1)
    workers = [t for t in threading.enumerate()
               if t.name.startswith("graphchoice")]
    assert 0 < len(workers) <= (cpus or 1)


def test_many_worker_threads_write_the_same_files(tmp_path, fresh_pool):
    # more workers than cores, switching threads as often as the interpreter
    # allows: every file equals the one-worker run's, byte for byte
    cfg = seeds_config(24, n_steps=60, record_stride=30)
    fresh_pool(64)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        harness.run_experiment(cfg, str(tmp_path / "many"))
    finally:
        sys.setswitchinterval(interval)
    fresh_pool(1)
    harness.run_experiment(cfg, str(tmp_path / "one"))
    one = sorted(p.relative_to(tmp_path / "one")
                 for p in (tmp_path / "one").rglob("*") if p.is_file())
    assert len(one) == 2 * 24 + 1
    for rel in one:
        assert ((tmp_path / "many" / rel).read_bytes()
                == (tmp_path / "one" / rel).read_bytes())
    assert _no_temporary_files(tmp_path)


def _files(root):
    return {p.relative_to(root): p.read_bytes()
            for p in root.rglob("*") if p.is_file()}


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
def test_a_forked_child_runs_on_a_pool_of_its_own(tmp_path):
    # the parent's pool has threads when it forks; the child has none of
    # them, and makes its own pool at its first run
    harness.run_experiment(seeds_config(3), str(tmp_path / "parent"))
    parent_pool = _writer.pool()[0]
    pid = os.fork()
    if pid == 0:  # the child: its exit status is the test's verdict
        status = 1
        try:
            fresh = _writer._pool is None
            harness.run_experiment(seeds_config(3), str(tmp_path / "child"))
            status = 0 if fresh and _writer.pool()[0] is not parent_pool else 2
        finally:
            os._exit(status)
    deadline = time.monotonic() + 60
    while not (done := os.waitpid(pid, os.WNOHANG))[0]:
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child's run did not end within 60 s")
        time.sleep(0.01)
    assert os.waitstatus_to_exitcode(done[1]) == 0
    assert _files(tmp_path / "child") == _files(tmp_path / "parent")


def test_a_busy_pool_never_holds_up_a_run(tmp_path, fresh_pool):
    # every worker is busy with a task that outlasts the run: the calling
    # thread makes each seed directory and formats each block itself, and
    # never waits for a worker to take a task it cancelled off the queue
    cfg = seeds_config(3, n_steps=4000, record_stride=1)  # three blocks each
    fresh_pool(2)
    executor, workers = _writer.pool()
    release = threading.Event()
    busy = [executor.submit(release.wait, 20) for _ in range(workers)]
    try:
        harness.run_experiment(cfg, str(tmp_path / "busy"))
        assert not any(future.done() for future in busy)
    finally:
        release.set()
    harness.run_experiment(cfg, str(tmp_path / "free"))
    assert _files(tmp_path / "busy") == _files(tmp_path / "free")


def _no_temporary_files(root):
    return not [p for p in root.rglob("*") if p.name.endswith(".tmp")]


@pytest.mark.parametrize("count", [3, 8])
def test_a_failed_trajectory_write_stops_the_run(tmp_path, monkeypatch, count):
    calls, to_csv = [], walk.Trajectory.to_csv

    def fail_second(self, target):
        calls.append(self.seed)
        if len(calls) == 2:
            with open(target, "w") as fh:
                fh.write("n,xi,eps,alpha\n0,")
            raise OSError("disk full")
        to_csv(self, target)

    monkeypatch.setattr(walk.Trajectory, "to_csv", fail_second)
    with pytest.raises(OSError, match="disk full"):
        harness.run_experiment(seeds_config(count), str(tmp_path))
    assert calls == [5, 6]
    assert _no_temporary_files(tmp_path)
    assert (tmp_path / "mini" / "5" / "trajectory.csv").is_file()
    assert not (tmp_path / "mini" / "6" / "trajectory.csv").exists()
    assert not (tmp_path / "mini" / "summary.json").exists()


@pytest.mark.parametrize("count", [3, 8])
def test_a_failed_meta_write_stops_the_run(tmp_path, monkeypatch, count):
    from graphchoice import _writer
    dumps = _writer.dumps

    def refuse_seed_6(doc):
        if doc.get("seed") == 6:
            raise OSError("no space for meta.json")
        return dumps(doc)

    monkeypatch.setattr(_writer, "dumps", refuse_seed_6)
    with pytest.raises(OSError, match="no space for meta.json"):
        harness.run_experiment(seeds_config(count), str(tmp_path))
    assert _no_temporary_files(tmp_path)
    assert not (tmp_path / "mini" / "6" / "meta.json").exists()
    assert not (tmp_path / "mini" / "6" / "trajectory.csv").exists()
    assert not (tmp_path / "mini" / "summary.json").exists()


def test_summary_reads_a_final_row_longer_than_one_block(tmp_path):
    # an m = 512 row is about 10 KB, more than the first 4096-byte block
    doc = mini_config(graph={"generator": "complete", "m": 512},
                      mu=[1.0 + i / 512 for i in range(512)], n_steps=3000,
                      seeds=[3], record_stride=1500)
    out = str(tmp_path / "runs")
    summary = harness.run_experiment(harness.parse_config(doc), out)
    path = os.path.join(out, "mini", "3", "trajectory.csv")
    with open(path, "rb") as fh:
        assert len(fh.read().rsplit(b"\n", 2)[-2]) > 4096
    assert summary["final_x"]["3"] == walk.read_trajectory_csv(path).xs[-1].tolist()


def test_summary_matches_the_in_memory_finals_for_every_algorithm(tmp_path):
    for algo in ("reinforced", "sa", "greedy"):
        cfg = harness.parse_config(algorithm_config(algo))
        out = str(tmp_path / algo)
        summary = harness.run_experiment(cfg, out)
        trajs = harness.run_trajectories(cfg)
        assert summary["final_x"] == {str(t.seed): t.xs[-1].tolist()
                                      for t in trajs}


@pytest.mark.parametrize("cut", ["header_only", "short_last_row",
                                 "before_horizon"])
def test_summary_rejects_a_file_without_a_whole_final_row(tmp_path, cut):
    cfg = harness.parse_config(mini_config())
    out = str(tmp_path / "runs")
    harness.run_experiment(cfg, out)
    path = os.path.join(out, "mini", "6", "trajectory.csv")
    with open(path) as fh:
        lines = fh.read().splitlines(keepends=True)
    text = {"header_only": lines[0],
            "short_last_row": "".join(lines)[:-9],
            "before_horizon": "".join(lines[:-1])}[cut]  # ends at n = 400
    with open(path, "w") as fh:
        fh.write(text)
    with pytest.raises(ValueError, match=re.escape(path)):
        harness.summarize_from_disk(cfg, os.path.join(out, "mini"))


def test_run_experiment_does_not_parse_whole_trajectories(tmp_path,
                                                          monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the summary parsed a whole trajectory")

    monkeypatch.setattr(walk, "read_trajectory_csv", refuse)
    cfg = harness.parse_config(mini_config())
    summary = harness.run_experiment(cfg, str(tmp_path / "runs"))
    assert sorted(summary["final_x"]) == ["5", "6", "7"]


def test_all_algorithms_run(tmp_path):
    for algo in ("reinforced", "sa", "greedy"):
        cfg = harness.parse_config(algorithm_config(algo, name=f"mini_{algo}"))
        trajs = harness.run_trajectories(cfg)
        assert len(trajs) == 3
        assert trajs[0].ns[-1] == 600


# ------------------------------------------------------------ compare layer

def test_compare_identical_configs_identical_columns():
    a = harness.parse_config(mini_config(name="one"))
    b = harness.parse_config(mini_config(name="two"))
    ns, cols, verdicts = harness.compare_experiments([a, b])
    assert np.array_equal(cols["one"], cols["two"])
    assert verdicts == {"one": None, "two": None}
    csv_text = harness.comparison_csv(ns, cols)
    header = csv_text.splitlines()[0].split(",")
    assert header == ["n", "one", "two"]
    assert len(csv_text.splitlines()) == len(ns) + 1


def test_compare_rejects_mismatched_graphs():
    a = harness.parse_config(mini_config(name="one"))
    b = harness.parse_config(mini_config(
        name="two", graph={"generator": "complete", "m": 4}))
    with pytest.raises(ConfigError):
        harness.compare_experiments([a, b])


def test_compare_rejects_mismatched_rewards():
    a = harness.parse_config(mini_config(name="one"))
    b = harness.parse_config(mini_config(name="two", mu=[1.0, 0.25, 0.5, 1.0]))
    with pytest.raises(ConfigError):
        harness.compare_experiments([a, b])


def test_compare_rejects_duplicate_names(tmp_path, capsys, monkeypatch):
    # columns and verdicts are keyed by name: a second config of the same
    # name would overwrite the first, so it is refused before any run
    runs = []
    monkeypatch.setattr(harness, "run_trajectories",
                        lambda cfg, *args: runs.append(cfg.name))
    a = harness.parse_config(mini_config(name="dup"))
    b = harness.parse_config(mini_config(name="dup", seeds=[8, 9]))
    with pytest.raises(ConfigError, match="'dup'"):
        harness.compare_experiments([a, harness.parse_config(mini_config()), b])
    paths = [write_config(tmp_path, mini_config(name="dup")),
             write_config(tmp_path, mini_config(name="dup", seeds=[8, 9]),
                          "other.json")]
    assert cli.main(["compare", "--configs", *paths]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "config"
    assert "'dup'" in json.loads(captured.err)["message"]
    assert runs == []


# ------------------------------------------------------------------- CLI

def test_cli_run_and_determinism(tmp_path, capsys):
    path = write_config(tmp_path, mini_config())
    out = str(tmp_path / "out")
    assert cli.main(["run", "--config", path, "--out", out]) == 0
    captured = capsys.readouterr().out
    assert json.loads(captured)["name"] == "mini"


def test_cli_negative_seed_override_exits_2(tmp_path, capsys):
    out = str(tmp_path / "runs")
    assert cli.main(["run", "--config", write_config(tmp_path, mini_config()),
                     "--seed-override", "-1", "--out", out]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "config"
    assert not os.path.exists(out)


def test_cli_bad_config_exits_2(tmp_path, capsys):
    path = write_config(tmp_path, mini_config(algorithm="bogus"))
    assert cli.main(["run", "--config", path]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config"


def test_cli_out_of_range_acceptance_node_exits_2_before_running(tmp_path,
                                                                  capsys):
    doc = mini_config(acceptance={"nodes": [9], "min_fraction": 0.5,
                                  "min_seeds": 1})
    out = str(tmp_path / "runs")
    assert cli.main(["run", "--config", write_config(tmp_path, doc),
                     "--out", out]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "config"
    assert not os.path.exists(out)


def test_cli_missing_config_exits_2(capsys):
    assert cli.main(["run", "--config", "no_such_config"]) == 2


def test_cli_validate_ok(tmp_path, capsys):
    gpath = tmp_path / "g.json"
    graphs.save_graph(graphs.make_linear(4), gpath)
    assert cli.main(["validate", "--graph", str(gpath)]) == 0
    assert "OK" in capsys.readouterr().out


def test_cli_validate_bad_graph_file_exits_2(tmp_path, capsys):
    # a missing file and a malformed edge list are config errors, as they
    # are in a config's graph block
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"m": 3, "edges": [[1]]}))
    for path in (str(tmp_path / "nope.json"), str(bad)):
        assert cli.main(["validate", "--graph", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == "config"


def test_cli_validate_repairs_asymmetry(tmp_path, capsys):
    gpath = tmp_path / "asym.json"
    gpath.write_text(json.dumps({"m": 3, "edges": [[1, 2], [2, 3]]}))
    assert cli.main(["validate", "--graph", str(gpath)]) == 0
    out = capsys.readouterr().out
    assert "repair:" in out and "OK" in out


def test_cli_validate_disconnected_reports_violation(tmp_path, capsys):
    gpath = tmp_path / "disc.json"
    gpath.write_text(json.dumps({"m": 4, "edges": [[1, 2], [3, 4]]}))
    assert cli.main(["validate", "--graph", str(gpath)]) == 3
    assert "not reachable" in capsys.readouterr().out


def test_cli_analyze_stationary(capsys):
    rc = cli.main(["analyze", "--kind", "stationary", "--graph", "linear:3",
                   "--mu", "2,1,1", "--alpha", "1.0",
                   "--x", "0.5,0.25,0.25"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["max_gap"] < 1e-8
    assert doc["local_balance_violation"] < 1e-12


def test_cli_analyze_fixedpoint_closed_form(capsys):
    rc = cli.main(["analyze", "--kind", "fixedpoint", "--graph", "complete:4",
                   "--mu", "2,0.25,0.5,1", "--alpha", "0.85"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["method"] == "closed_form"
    assert abs(doc["point"][0] - 0.98) < 5e-3


def test_cli_analyze_fixedpoint_reports_the_solver_work(capsys):
    rc = cli.main(["analyze", "--kind", "fixedpoint", "--graph", "linear:4",
                   "--mu", "2,0.25,0.5,1", "--alpha", "2"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["method"] == "ode" and doc["converged"]
    assert doc["windows"] >= 1 and doc["halvings"] >= 0


def test_cli_analyze_eigenbound_equality(capsys):
    rc = cli.main(["analyze", "--kind", "eigenbound", "--mi", "2",
                   "--eps", "1.0"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["lam_min"] == pytest.approx(0.5, abs=1e-12)


def test_cli_analyze_potential(capsys):
    rc = cli.main(["analyze", "--kind", "potential", "--graph", "complete:2",
                   "--mu", "1,1", "--alpha", "1.0", "--x", "0.5,0.5"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["value"] == pytest.approx(0.5)
    assert doc["lyapunov"] >= 0.0


def test_cli_analyze_concentration(capsys):
    rc = cli.main(["analyze", "--kind", "concentration", "--graph",
                   "complete:3", "--mu", "2,1,1", "--alphas", "1,2"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["optimal_nodes"] == [1]
    assert len(doc["entries"]) == 2
    assert doc["entries"][-1]["optimal_mass"] > 0.99


# Every analyze argument the analysis cannot take exits 2 with a config
# error and no output; the analysis function that reads an argument owns its
# range, and a RuntimeError from a failed computation stays exit 3.
LINEAR3 = ["--graph", "linear:3", "--mu", "2,1,1"]
COMPLETE4 = ["--graph", "complete:4", "--mu", "2,0.25,0.5,1"]


@pytest.mark.parametrize("kind, extra", [
    ("stationary", ["--mu", "1,1"]),                        # no --graph
    ("stationary", ["--graph", "linear:3", "--alpha", "1"]),  # no --mu
    ("stationary", LINEAR3),                                # no --alpha
    ("stationary", ["--graph", "ring:3", "--mu", "2,1,1", "--alpha", "1"]),
    ("stationary", ["--graph", "linear:3", "--mu", "2,x,1", "--alpha", "1"]),
    ("stationary", ["--graph", "linear:3", "--mu", "2,0,1", "--alpha", "1"]),
    ("stationary", ["--graph", "linear:3", "--mu", "2,inf,1", "--alpha", "1"]),
    ("stationary", ["--graph", "linear:3", "--mu", "2,1", "--alpha", "1"]),
    *[("stationary", [*LINEAR3, "--alpha", a]) for a in ("nan", "0", "-1", "inf")],
    ("stationary", [*LINEAR3, "--alpha", "1", "--x", "0,0.5,0.5"]),
    ("stationary", [*COMPLETE4, "--alpha", "1", "--x", ".5,.5"]),
    ("potential", [*LINEAR3, "--alpha", "1", "--x", "1,0,0"]),
    ("fixedpoint", [*COMPLETE4, "--alpha", "-1"]),
    ("fixedpoint", ["--graph", "complete:4", "--mu", "2,1,1", "--alpha", ".85"]),
    ("fixedpoint", [*COMPLETE4, "--alpha", "2", "--x", ".5,.5"]),
    ("fixedpoint", [*COMPLETE4, "--alpha", ".85", "--x", ".5,.5"]),  # closed form
    ("concentration", COMPLETE4),                           # no --alphas
    ("concentration", [*COMPLETE4, "--alphas", "0,1"]),
    ("concentration", [*COMPLETE4, "--alphas", "1,nan"]),
    ("concentration", [*COMPLETE4, "--alphas", "2,1"]),
    ("concentration", [*COMPLETE4, "--alphas", "1,2", "--x", ".5,.5"]),
    ("eigenbound", []),
    ("eigenbound", ["--mi", "2"]),
    *[("eigenbound", ["--mi", m, "--eps", "0.5"]) for m in ("1", "0", "-3")],
    *[("eigenbound", ["--mi", "2", "--eps", e]) for e in ("2", "0", "-1", "nan")],
    ("eigenbound", ["--mi", "3", "--eps", "0.5", "--p", "0.5,0.5"]),
    ("eigenbound", ["--mi", "3", "--eps", "0.5", "--p", "0.5,0.3,0.3"]),
    ("eigenbound", ["--mi", "2", "--eps", "0.5", "--p", "1.5,-0.5"]),
    ("eigenbound", ["--mi", "3", "--eps", "0.3", "--p", "nan,.5,.5"]),
    ("eigenbound", ["--mi", "2", "--eps", "0.5", "--p", "a,b"]),
], ids=lambda v: "_".join(a.lstrip("-") for a in v) if isinstance(v, list) else v)
def test_cli_analyze_bad_arguments_exit_2(kind, extra, capsys):
    assert cli.main(["analyze", "--kind", kind, *extra]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err)["error"] == "config"


@pytest.mark.parametrize("kind, extra, unread", [
    ("potential", [*COMPLETE4, "--alpha", ".85", "--alphas", "5,1", "--mi", "3",
                   "--p", "7"], "--alphas, --mi, --p"),
    ("stationary", [*LINEAR3, "--alpha", "1", "--eps", "0.3"], "--eps"),
    ("fixedpoint", [*COMPLETE4, "--alpha", ".85", "--alphas", "1,2"], "--alphas"),
    ("concentration", [*COMPLETE4, "--alphas", "1,2", "--alpha", "1"], "--alpha"),
    ("eigenbound", ["--mi", "3", "--eps", "0.3", "--graph", "complete:4",
                    "--alpha", "2"], "--alpha, --graph"),
    ("eigenbound", ["--mi", "3", "--eps", "0.3", "--x", ".5,.5"], "--x"),
])
def test_cli_analyze_rejects_options_its_kind_never_reads(kind, extra, unread,
                                                         capsys):
    # an option the kind ignores would be accepted silently: each kind reads
    # the options of cli._READS, and any other given option exits 2
    assert cli.main(["analyze", "--kind", kind, *extra]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err) == {"error": "config",
                               "message": f"{kind} does not read {unread}"}


def test_cli_compare_assert_failure(tmp_path, capsys, monkeypatch):
    # an impossible acceptance threshold must drive exit code 4, and the
    # verdicts come from the runs behind the table: one run per config
    doc = mini_config(name="imp", acceptance={"nodes": [2],
                                              "min_fraction": 0.99,
                                              "min_seeds": 3})
    paths = [write_config(tmp_path, doc),
             write_config(tmp_path, mini_config(name="plain"), "plain.json")]
    runs = []
    run_trajectories = harness.run_trajectories

    def counting(cfg, *args):
        runs.append(cfg.name)
        return run_trajectories(cfg, *args)

    monkeypatch.setattr(harness, "run_trajectories", counting)
    rc = cli.main(["compare", "--configs", *paths, "--assert",
                   "--out", str(tmp_path / "cmp.csv")])
    assert rc == 4
    assert runs == ["imp", "plain"]
    assert "acceptance failed: imp" in capsys.readouterr().err


def test_failed_compare_write_keeps_the_previous_table(tmp_path,
                                                      monkeypatch, capsys):
    path = write_config(tmp_path, mini_config())
    out = tmp_path / "cmp.csv"
    assert cli.main(["compare", "--configs", path, "--out", str(out)]) == 0
    before = out.read_bytes()
    listing = sorted(os.listdir(tmp_path))

    def no_rename(src, dst):
        raise OSError("rename failed")

    monkeypatch.setattr(os, "replace", no_rename)
    doc = mini_config(n_steps=400)  # another table, so a plain write would show
    path = write_config(tmp_path, doc, "other.json")
    listing.append("other.json")
    assert cli.main(["compare", "--configs", path, "--out", str(out)]) == 3
    assert out.read_bytes() == before
    assert sorted(os.listdir(tmp_path)) == sorted(listing)


def test_out_dir_resolution(tmp_path, monkeypatch):
    cfg = harness.parse_config(mini_config(out_dir="from_cfg"))
    assert harness.resolve_out_dir(cfg) == "from_cfg"
    monkeypatch.setenv("GRAPHCHOICE_OUT", "from_env")
    assert harness.resolve_out_dir(cfg) == "from_env"
    assert harness.resolve_out_dir(cfg, "from_flag") == "from_flag"
    monkeypatch.delenv("GRAPHCHOICE_OUT")
    assert harness.resolve_out_dir(harness.parse_config(mini_config())) == "runs"
