"""Experiment orchestration: configs, runs, persistence, summaries.

An experiment is a JSON document (strict schema, unknown keys rejected)
naming a graph, a reward vector, an algorithm, schedules, seeds and a step
budget. Runs are written one directory per seed:

    <out>/<name>/<seed>/trajectory.csv     n,xi,eps,alpha,x_1..x_m
    <out>/<name>/<seed>/meta.json          seed, config hash, rng protocol, engine
    <out>/<name>/summary.json              per-seed finals + aggregates

Summaries are computed from the persisted trajectory files, so they are
reproducible from the artifacts alone: each `trajectory.csv` gives its
header and its final row, and the rows between are not parsed again.
Everything is deterministic given (config, seeds): rerunning produces
byte-identical files. Each file is written under a temporary name beside it
and renamed into place, so an interrupted run leaves the previous file whole.

`run_experiment` writes in this order. Worker threads, never more than there
are CPUs and one per four seeds, make the seed directories and write each
`meta.json`; the calling thread writes each `trajectory.csv` as soon as its
seed's directory exists, and then `summary.json` from the files on disk.
A run of fewer than four seeds starts no thread: the calling thread makes
each directory and meta.json just before the trajectory. A failed write
stops the run: the directory and meta.json tasks not yet started are
cancelled, the error is raised, and no `summary.json` is written. Each file
left behind is whole, the new one or the previous one, and no temporary
file remains.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from . import __version__, baselines, graphs, walk
from .schedules import ScheduleConfig

_SCHEMA = 1
_ALGOS = ("reinforced", "sa", "greedy")

_TOP_KEYS = {"schema", "name", "graph", "mu", "noise_std", "algorithm",
             "schedule", "greedy_eps", "n_steps", "seeds", "record_stride",
             "start", "acceptance", "out_dir"}
_ACCEPT_KEYS = {"nodes", "min_fraction", "min_seeds"}
_SEEDS_PER_WORKER = 4  # seeds per run_experiment worker thread, at least


class ConfigError(ValueError):
    """Invalid experiment configuration (maps to CLI exit code 2)."""


@dataclass
class ExperimentConfig:
    name: str
    graph_spec: dict
    mu: np.ndarray
    noise_std: float
    algorithm: str
    schedule: ScheduleConfig
    n_steps: int
    seeds: list[int]
    record_stride: int
    start: object  # None (uniform) | int | list[int]
    greedy_eps: baselines.GreedyConfig = field(default_factory=baselines.GreedyConfig)
    acceptance: dict | None = None
    out_dir: str | None = None
    raw: dict = field(default_factory=dict, repr=False)

    def build_graph(self) -> graphs.Graph:
        return build_graph(self.graph_spec)

    def config_hash(self) -> str:
        blob = json.dumps(self.raw, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


# Each graph generator with its parameter names in call order: the config's
# graph block and the CLI's --graph spec both read this table.
_GENERATORS = {
    "complete": (graphs.make_complete, ("m",)),
    "linear": (graphs.make_linear, ("m",)),
    "star": (graphs.make_star, ("m", "center")),
    "two_cliques": (graphs.make_two_cliques, ("m1", "m2")),
}


def build_graph(spec: dict) -> graphs.Graph:
    """Graph from a config 'graph' block: {"file": path}, or a generator
    and its integer parameters, with no other keys."""
    if not isinstance(spec, dict):
        raise ConfigError("graph must be a JSON object")
    gen = spec.get("generator")
    if "file" in spec:
        keys = ("file",)
    elif gen in _GENERATORS:
        keys = ("generator", *_GENERATORS[gen][1])
    else:
        raise ConfigError(f"unknown graph generator {gen!r}")
    if set(spec) != set(keys):
        raise ConfigError(f"graph keys {sorted(spec)}: {list(keys)} expected")
    if "file" in spec:
        if not isinstance(spec["file"], str):
            raise ConfigError("graph file must be a path")
        return load_graph_file(spec["file"])[0]
    values = [_integer(spec[k], f"graph {k}") for k in keys[1:]]
    return _owned(f"graph {spec}", _GENERATORS[gen][0], *values)  # size, hub


def load_graph_file(path: str, repair: bool = True):
    """`graphs.load_graph`, with a missing or malformed file as a ConfigError."""
    return _owned(f"graph file {path!r}", graphs.load_graph, path, repair=repair)


def parse_graph_arg(text: str) -> graphs.Graph:
    """Graph from a compact CLI spec: complete:M, linear:M, star:M:CENTER,
    two_cliques:M1:M2, or a JSON graph file path."""
    if os.sep in text or text.endswith(".json"):
        return build_graph({"file": text})
    gen, *args = text.split(":")
    names = _GENERATORS.get(gen, (None, ()))[1]
    if len(args) != len(names) or not all(a.isdecimal() for a in args):
        raise ConfigError(f"cannot parse graph spec {text!r}")
    return build_graph({"generator": gen, **dict(zip(names, map(int, args)))})


def _number(value, what: str) -> float:
    """A finite JSON number; booleans, strings, NaN and infinities are rejected."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not math.isfinite(value)):
        raise ConfigError(f"{what} must be a finite number, got {value!r}")
    return float(value)


def _integer(value, what: str) -> int:
    """An integral JSON number (100000 or 1e5); booleans are rejected."""
    if not _number(value, what).is_integer():
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _parse_seeds(spec) -> list[int]:
    if isinstance(spec, list):
        seeds = [_integer(s, "seed") for s in spec]
    elif isinstance(spec, dict) and set(spec) <= {"count", "base"}:
        base = _integer(spec.get("base", 1), "seeds base")
        seeds = list(range(base, base + _integer(spec["count"], "seeds count")))
    else:
        raise ConfigError("seeds must be a list or {'count': k, 'base': b}")
    if any(s < 0 for s in seeds):
        raise ConfigError("seeds must be nonnegative")
    return seeds


def _owned(what: str, build, *args, **kwargs):
    """Call the owner of these values' rules; its error becomes a ConfigError."""
    try:
        return build(*args, **kwargs)
    except (OSError, OverflowError, TypeError, ValueError) as exc:
        reason = getattr(exc, "strerror", None) or exc  # `what` has the path
        raise ConfigError(f"bad {what}: {reason}") from exc


def parse_config(doc: dict) -> ExperimentConfig:
    """The experiment a JSON document describes. Kinds, key sets, name, graph,
    acceptance and out_dir are checked here; `_owned` calls each other rule's owner."""
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    if isinstance(doc.get("schema"), bool) or doc.get("schema") != _SCHEMA:
        raise ConfigError(f"config schema must be {_SCHEMA}")
    for key in ("name", "graph", "mu", "algorithm", "n_steps", "seeds"):
        if key not in doc:
            raise ConfigError(f"missing config key {key!r}")
    name = doc["name"]  # a directory under the output root
    if (not isinstance(name, str) or name in ("", ".", "..")
            or "/" in name or os.sep in name or "\0" in name):
        raise ConfigError(f"name must be one path component, got {name!r}")
    algo = doc["algorithm"]
    if algo not in _ALGOS:
        raise ConfigError(f"algorithm must be one of {_ALGOS}")

    g = build_graph(doc["graph"])  # validates the block and any file
    if not isinstance(doc["mu"], list):
        raise ConfigError("mu must be a list of numbers")
    mu = np.array([_number(v, "mu entry") for v in doc["mu"]])
    noise_std = _number(doc.get("noise_std", 0.0), "noise_std")
    rm = _owned("rewards", walk.RewardModel, mu=mu, noise_std=noise_std)
    schedule_spec, greedy_spec = doc.get("schedule", {}), doc.get("greedy_eps", {})
    if not (isinstance(schedule_spec, dict) and isinstance(greedy_spec, dict)):
        raise ConfigError("schedule and greedy_eps must be JSON objects")
    schedule = _owned("schedule block", ScheduleConfig, **schedule_spec)
    if algo == "sa":
        _owned("schedule block", baselines.SAConfig, gamma=schedule.gamma_sa)
    greedy_eps = _owned(
        "greedy_eps block", baselines.GreedyConfig,
        eps_mode=greedy_spec.get("mode", "one_over_n"),
        eps_value=_number(greedy_spec.get("value", 0.1), "greedy_eps value"))
    walk_keys = {"c_mode", "alpha_mode", *schedule.EPS_READS[schedule.c_mode],
                 *schedule.ALPHA_READS[schedule.alpha_mode]}
    greedy_keys = set(greedy_eps.READS[greedy_eps.eps_mode])
    reads = {"reinforced": {"schedule": walk_keys}, "sa": {"schedule": {"gamma_sa"}},
             "greedy": {"greedy_eps": greedy_keys}}[algo]
    for block in set(doc) & {"schedule", "greedy_eps"}:
        unread = sorted(set(doc[block]) - reads.get(block, set()))
        if unread or block not in reads:
            raise ConfigError(f"a {algo} run with these modes never reads "
                              f"{block} {unread or 'block'}")

    start = doc.get("start", "uniform")
    if start == "uniform":
        start = None
    elif isinstance(start, list):
        start = [_integer(s, "start node") for s in start]
    elif not isinstance(start, int) or isinstance(start, bool):
        raise ConfigError("start must be 'uniform', a node id, or a node list")

    acceptance = doc.get("acceptance")
    if acceptance is not None:
        if not isinstance(acceptance, dict) or set(acceptance) != _ACCEPT_KEYS:
            raise ConfigError(f"acceptance must have keys {sorted(_ACCEPT_KEYS)}")
        nodes = acceptance["nodes"]
        if not isinstance(nodes, list) or not nodes:
            raise ConfigError("acceptance nodes must be a nonempty list of node ids")
        nodes = [_integer(v, "acceptance node") for v in nodes]
        if len(set(nodes)) != len(nodes) or not all(1 <= v <= g.m for v in nodes):
            raise ConfigError(f"acceptance nodes must be distinct ids in 1..{g.m}")
        if not 0 < _number(acceptance["min_fraction"], "min_fraction") <= 1:
            raise ConfigError("acceptance min_fraction must be in (0, 1]")
        if _integer(acceptance["min_seeds"], "min_seeds") < 1:
            raise ConfigError("acceptance min_seeds must be at least 1")

    n_steps = _integer(doc["n_steps"], "n_steps")
    stride = _integer(doc.get("record_stride", max(1, n_steps // 100)),
                      "record_stride")
    seeds = _parse_seeds(doc["seeds"])
    _owned("run", walk.check_run, g, rm, n_steps, seeds, stride, start)
    out_dir = doc.get("out_dir")
    if out_dir is not None and not isinstance(out_dir, str):
        raise ConfigError("out_dir must be a path")

    return ExperimentConfig(
        name=name, graph_spec=doc["graph"], mu=mu, noise_std=noise_std,
        algorithm=algo, schedule=schedule, n_steps=n_steps, seeds=seeds,
        record_stride=stride, start=start, greedy_eps=greedy_eps,
        acceptance=acceptance, out_dir=out_dir, raw=doc)


def bundled_config_names() -> list[str]:
    root = resources.files("graphchoice") / "configs"
    return sorted(p.name[:-5] for p in root.iterdir() if p.name.endswith(".json"))


def load_config(ref: str) -> ExperimentConfig:
    """Load a config from a file path or a bundled config name."""
    if os.path.isfile(ref):
        with open(ref) as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{ref}: invalid JSON ({exc})") from exc
        return parse_config(doc)
    candidate = resources.files("graphchoice") / "configs" / f"{ref}.json"
    if candidate.is_file():
        return parse_config(json.loads(candidate.read_text()))
    raise ConfigError(
        f"no such config file or bundled name: {ref!r} "
        f"(bundled: {', '.join(bundled_config_names())})")


def run_trajectories(cfg: ExperimentConfig, seeds=None) -> list[walk.Trajectory]:
    """Execute the experiment's runs in memory (one per seed, batched)."""
    seeds = cfg.seeds if seeds is None else seeds
    g = cfg.build_graph()
    rm = walk.RewardModel(mu=cfg.mu, noise_std=cfg.noise_std)
    if cfg.algorithm == "reinforced":
        return walk.run_batch(g, rm, cfg.schedule, cfg.n_steps, seeds,
                              record_stride=cfg.record_stride, start=cfg.start)
    if cfg.algorithm == "sa":
        sa_cfg = baselines.SAConfig(gamma=cfg.schedule.gamma_sa)
        return baselines.run_sa_batch(g, rm, sa_cfg, cfg.n_steps, seeds,
                                      record_stride=cfg.record_stride,
                                      start=cfg.start)
    return baselines.run_greedy_batch(g, rm, cfg.greedy_eps, cfg.n_steps,
                                      seeds, record_stride=cfg.record_stride,
                                      start=cfg.start)


def resolve_out_dir(cfg: ExperimentConfig, cli_out: str | None = None) -> str:
    """Precedence: --out flag, then GRAPHCHOICE_OUT, then config, then ./runs."""
    return cli_out or os.environ.get("GRAPHCHOICE_OUT") or cfg.out_dir or "runs"


def _acceptance_verdict(cfg: ExperimentConfig, finals: dict[int, list[float]]):
    acc = cfg.acceptance
    if acc is None:
        return None
    idx = [int(i) - 1 for i in acc["nodes"]]
    hits = sum(1 for x in finals.values()
               if sum(x[i] for i in idx) >= acc["min_fraction"])
    return {"nodes": acc["nodes"], "min_fraction": acc["min_fraction"],
            "min_seeds": acc["min_seeds"], "passing_seeds": hits,
            "passed": hits >= acc["min_seeds"]}


def _final_x(path: str) -> tuple[int, list[float]]:
    """n and x_1..x_m of a trajectory CSV's final row. The header gives m;
    the row is read from the end of the file in a block that doubles until
    it holds the newline before the row, so the rows between are never
    parsed."""
    with open(path, "rb") as fh:
        m = len(fh.readline().split(b",")) - 4
        size = fh.seek(0, os.SEEK_END)
        span = 4096
        while True:
            start = fh.seek(max(size - span, 0))
            block = fh.read()
            cut = block.rfind(b"\n", 0, len(block) - 1)
            if cut >= 0 or start == 0:
                break
            span *= 2
    fields = block[cut + 1:-1].split(b",")
    if m < 1 or not block.endswith(b"\n") or len(fields) != 4 + m:
        raise ValueError(f"{path}: no complete final row of {4 + m} fields")
    try:
        return int(fields[0]), list(map(float, fields[4:]))
    except ValueError as exc:
        raise ValueError(f"{path}: bad final row ({exc})") from None


def summarize_from_disk(cfg: ExperimentConfig, exp_dir: str) -> dict:
    """Aggregate summary recomputed from the persisted trajectories: the
    header and final row of each seed's `trajectory.csv`, not the rows
    between (`_final_x`). A final row before the horizon is an error."""
    finals = {}
    for seed in cfg.seeds:
        path = os.path.join(exp_dir, str(seed), "trajectory.csv")
        n, finals[seed] = _final_x(path)
        if n != cfg.n_steps:
            raise ValueError(f"{path}: final row is n = {n}, "
                             f"not the horizon {cfg.n_steps}")
    mat = np.array([finals[s] for s in cfg.seeds])
    summary = {
        "schema": _SCHEMA,
        "name": cfg.name,
        "algorithm": cfg.algorithm,
        "n_steps": cfg.n_steps,
        "seeds": cfg.seeds,
        "final_x": {str(s): finals[s] for s in cfg.seeds},
        "median_final_x": np.median(mat, axis=0).tolist(),
        "q25_final_x": np.quantile(mat, 0.25, axis=0).tolist(),
        "q75_final_x": np.quantile(mat, 0.75, axis=0).tolist(),
    }
    verdict = _acceptance_verdict(cfg, finals)
    if verdict is not None:
        summary["acceptance"] = verdict
    return summary


def run_experiment(cfg: ExperimentConfig, out_dir: str,
                   seed_override: int | None = None) -> dict:
    """Run all seeds, persist trajectories and metadata, return the summary.

    With `seed_override` only that seed runs; its summary is returned but not
    written, so the full run's `summary.json` stays intact.
    """
    seeds = cfg.seeds if seed_override is None else _parse_seeds([seed_override])
    cfg = ExperimentConfig(**{**cfg.__dict__, "seeds": seeds})
    trajs = run_trajectories(cfg)
    exp_dir = os.path.join(out_dir, cfg.name)
    meta_common = {
        "schema": _SCHEMA,
        "name": cfg.name,
        "config_sha256": cfg.config_hash(),
        "algorithm": cfg.algorithm,
        "graph": cfg.graph_spec,
        "n_steps": cfg.n_steps,
        "record_stride": cfg.record_stride,
        "rng": walk.WalkRng.ALGORITHM,
        "engine": walk.engine_name(),
        "package_version": __version__,
    }

    def seed_dir(seed: int) -> str:
        path = os.path.join(exp_dir, str(seed))
        os.makedirs(path, exist_ok=True)
        _write_json_atomically(os.path.join(path, "meta.json"),
                               {**meta_common, "seed": seed})
        return path

    # Worker threads make the seed directories and write meta.json while
    # this thread writes the trajectories: file creates release the GIL.
    # to_csv stays here, on the caller's thread. A worker costs about as
    # much to start as a few seeds' directories, so each gets several seeds;
    # with fewer, this thread makes each directory before its trajectory.
    from concurrent.futures import ThreadPoolExecutor  # importing stays lean
    os.makedirs(exp_dir, exist_ok=True)
    workers = min(os.cpu_count() or 1, len(seeds) // _SEEDS_PER_WORKER)
    pool = ThreadPoolExecutor(workers) if workers else None
    try:
        dirs = (map if pool is None else pool.map)(seed_dir, seeds)
        for traj, path in zip(trajs, dirs):
            _replace_atomically(os.path.join(path, "trajectory.csv"),
                                traj.to_csv)
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    summary = summarize_from_disk(cfg, exp_dir)
    if seed_override is None:
        _write_json_atomically(os.path.join(exp_dir, "summary.json"), summary)
    return summary


def _replace_atomically(path: str, write) -> None:
    """Call `write(tmp)` on a temporary path beside `path`, then rename it
    over `path`: a reader sees the old file or the new one, never a part."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        write(tmp)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _write_text_atomically(path: str, text: str) -> None:
    def write(tmp: str) -> None:
        with open(tmp, "w") as fh:
            fh.write(text)

    _replace_atomically(path, write)


def _write_json_atomically(path: str, doc: dict) -> None:
    """`doc` as `json.dumps(doc, indent=1, sort_keys=True)` writes it, plus
    a newline; `_writer.dumps` gives the same text, faster."""
    from . import _writer  # at the first write: importing stays lean
    _write_text_atomically(path, _writer.dumps(doc) + "\n")


def compare_experiments(cfgs: list[ExperimentConfig]):
    """Aligned per-step median optimal-set frequency for each experiment.

    All configs must share graph, rewards, step budget and stride; returns
    (ns, {name: medians}) ready for CSV emission or plotting, and {name:
    acceptance verdict, None without an acceptance block} from the same runs.
    """
    if not cfgs:
        raise ConfigError("need at least one config to compare")
    names = [cfg.name for cfg in cfgs]
    for name in names:
        if names.count(name) > 1:  # columns and verdicts are keyed by name
            raise ConfigError(f"compared configs must have distinct names: "
                              f"{name!r} appears {names.count(name)} times")
    ref = cfgs[0]
    for other in cfgs[1:]:
        if other.graph_spec != ref.graph_spec:
            raise ConfigError("compared configs must share the same graph")
        if not np.array_equal(other.mu, ref.mu):
            raise ConfigError("compared configs must share the same rewards")
        if (other.n_steps, other.record_stride) != (ref.n_steps, ref.record_stride):
            raise ConfigError("compared configs must share n_steps and stride")
    from .analysis import optimal_set
    best = optimal_set(ref.mu)
    columns, verdicts = {}, {}
    for cfg in cfgs:
        trajs = run_trajectories(cfg)
        ns = trajs[0].ns
        mass = np.stack([t.xs[:, best].sum(axis=1) for t in trajs])
        columns[cfg.name] = np.median(mass, axis=0)
        verdicts[cfg.name] = _acceptance_verdict(
            cfg, {t.seed: [float(v) for v in t.xs[-1]] for t in trajs})
    return ns, columns, verdicts


def comparison_csv(ns, columns: dict) -> str:
    names = list(columns)
    lines = ["n," + ",".join(names)]
    for k in range(len(ns)):
        lines.append(",".join([str(int(ns[k]))] +
                              [repr(float(columns[n][k])) for n in names]))
    return "\n".join(lines) + "\n"
