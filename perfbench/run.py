"""graphchoice benchmark: one workload per run, metrics on stdout.

    python3 perfbench/run.py --workload configs --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the package is imported from ./src. The
run sets up the workload five times, then repeats the workload's pass over
fixed inputs until --seconds have passed (on analysis, to the end of a
cycle through its instance blocks), setting up once more and checking the
outputs after every pass. Times are taken per operation, with a
reference loop between operations (see run_ops). With --trace 0 the last
stdout line carries the end-to-end metrics of BENCHMARK.json; with
--trace 1 untraced and traced passes alternate and it carries the
per-layer metrics, the tracing overhead and the per-step cost sweep. The
lines before it are a readable report: the environment block, every
computed figure and the output digests. perfbench/README.md describes
every metric.
"""
from __future__ import annotations

import os

# One BLAS thread: the benchmark is a single process on a 2-core machine.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import functools  # noqa: E402
import gc as pygc  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 5  # before the first pass; one more follows every pass
ENGINES = {"walk.run_batch": "walk", "baselines.run_sa_batch": "baselines",
           "baselines.run_greedy_batch": "baselines"}


def _seed_steps(span, args, kwargs, result):
    span.units = len(result) * int(result[0].ns[-1]) if result else 0


def install_tracing(tr, gc) -> None:
    """Wrap the package's entry points; modules call each other through
    these attributes, so every internal call is traced too."""
    counters = tr.counters

    def csv_written(span, args, kwargs, result):
        span.units = len(args[0].ns)
        path = args[1] if len(args) > 1 else kwargs["path"]
        counters["walk.csv_bytes_written"] += os.path.getsize(path)

    def csv_read(span, args, kwargs, result):
        span.units = len(result.ns)

    def fixed_point(span, args, kwargs, result):
        counters["analysis.fixed_points"] += 1
        counters["analysis.fixed_points_converged"] += bool(result.converged)

    def power(span, args, kwargs, result):
        span.units = result.iterations

    for name in ("load_config", "build_graph", "run_trajectories",
                 "summarize_from_disk"):
        tr.wrap(gc.harness, name, f"harness.{name}")
    tr.wrap(gc.walk, "run_batch", "walk.run_batch", _seed_steps)
    tr.wrap(gc.baselines, "run_sa_batch", "baselines.run_sa_batch", _seed_steps)
    tr.wrap(gc.baselines, "run_greedy_batch", "baselines.run_greedy_batch",
            _seed_steps)
    tr.wrap(gc.schedules, "schedule_arrays", "schedules.schedule_arrays")
    tr.wrap(gc.walk.Trajectory, "to_csv", "walk.Trajectory.to_csv", csv_written)
    tr.wrap(gc.walk, "read_trajectory_csv", "walk.read_trajectory_csv", csv_read)
    tr.wrap(gc.analysis, "find_fixed_point", "analysis.find_fixed_point",
            fixed_point)
    tr.wrap(gc.analysis, "stationary_power_iteration",
            "analysis.stationary_power_iteration", power)
    tr.count(gc.analysis, "replicator_rhs", "analysis.rhs_evals")
    tr.count(gc.analysis, "scaled_rhs", "analysis.rhs_evals")


def layer_metrics(tr, n_passes: int, traced_wall_s: float,
                  config_names) -> dict[str, float]:
    """Per-layer figures from the spans of the traced passes, per pass.
    Per-config engine costs read 0 for bundled configs the workload skips."""
    from spans import outermost_time, self_times

    selfs = self_times(tr.spans)
    by_id = {s.id: s for s in tr.spans}
    dur, slf, units, calls = (defaultdict(float), defaultdict(float),
                              defaultdict(int), defaultdict(int))
    engine = {f"{layer}.ns_per_seed_step.{name}": [0.0, 0]  # [self s, seed-steps]
              for layer in ("walk", "baselines") for name in config_names}
    fp_ms = []
    for s in tr.spans:
        dur[s.name] += s.duration
        slf[s.name] += selfs[s.id]
        units[s.name] += s.units
        calls[s.name] += 1
        if s.name == "analysis.find_fixed_point":
            fp_ms.append(s.duration * 1e3)
        if s.name in ENGINES:
            top = s
            while top.parent is not None:
                top = by_id[top.parent]
            cost = engine.setdefault(f"{ENGINES[s.name]}.ns_per_seed_step.{top.tag}",
                                     [0.0, 0])
            cost[0] += selfs[s.id]
            cost[1] += s.units

    def ns_per(self_s, steps):
        return self_s / steps * 1e9 if steps else 0.0

    c = tr.counters
    per = 1.0 / n_passes
    out = {
        "walk.ns_per_seed_step": ns_per(slf["walk.run_batch"], units["walk.run_batch"]),
        "walk.seed_steps": units["walk.run_batch"] * per,
        "baselines.sa_ns_per_seed_step": ns_per(slf["baselines.run_sa_batch"],
                                                units["baselines.run_sa_batch"]),
        "baselines.greedy_ns_per_seed_step": ns_per(
            slf["baselines.run_greedy_batch"], units["baselines.run_greedy_batch"]),
        "schedules.schedule_arrays_s": dur["schedules.schedule_arrays"] * per,
        "schedules.schedule_arrays_calls": calls["schedules.schedule_arrays"] * per,
        "walk.to_csv_s": slf["walk.Trajectory.to_csv"] * per,
        "walk.csv_rows_written": units["walk.Trajectory.to_csv"] * per,
        "walk.csv_bytes_written": c["walk.csv_bytes_written"] * per,
        "walk.read_trajectory_csv_s": slf["walk.read_trajectory_csv"] * per,
        "walk.csv_rows_read": units["walk.read_trajectory_csv"] * per,
        "harness.summarize_from_disk_self_s": slf["harness.summarize_from_disk"] * per,
        "harness.run_experiment_self_s": slf["harness.run_experiment"] * per,
        "harness.run_trajectories_self_s": slf["harness.run_trajectories"] * per,
        "analysis.find_fixed_point_self_s": slf["analysis.find_fixed_point"] * per,
        "analysis.rhs_evals": c["analysis.rhs_evals"] * per,
        "analysis.converged_ratio": (c["analysis.fixed_points_converged"]
                                     / c["analysis.fixed_points"]
                                     if c["analysis.fixed_points"] else 0.0),
        "analysis.power_iteration_s": dur["analysis.stationary_power_iteration"] * per,
        "analysis.power_iterations": units["analysis.stationary_power_iteration"] * per,
        "analysis.find_fixed_point_ms_p50": (np.percentile(fp_ms, 50)
                                             if fp_ms else 0.0),
        "analysis.find_fixed_point_ms_p90": (np.percentile(fp_ms, 90)
                                             if len(fp_ms) >= 100 else 0.0),
        # Only spans round package entry points count: the self time of the
        # benchmark's own spans (harness.run_experiment and the like) does not.
        "trace.span_coverage": outermost_time(tr.spans, tr.wrapped) / traced_wall_s,
        "trace.spans_per_pass": len(tr.spans) * per,
    }
    out.update({k: ns_per(*v) for k, v in engine.items()})
    return out


def setup_metrics(tr) -> dict[str, float]:
    dur = defaultdict(float)
    for s in tr.spans:
        dur[s.name] += s.duration
    return {"harness.load_config_s": dur["harness.load_config"],
            "graphs.build_s": dur["harness.build_graph"]}


def pick(spec: list[dict], computed: dict[str, float]) -> dict:
    """The metrics BENCHMARK.json names, in its order and with its units."""
    return {m["name"]: {"value": float(computed[m["name"]]), "unit": m["unit"]}
            for m in spec}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("configs", "wide_sparse", "trace_io", "analysis"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "graphchoice" / "__init__.py").is_file():
        print(f"perfbench: no package source at {ROOT / 'src' / 'graphchoice'}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    work_dir = ROOT / ".perfbench"
    scratch = work_dir / f"tmp-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        return _run(args, spec, work_dir, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def run_ops(ops, reference) -> tuple[list, float, float]:
    """Run one pass op by op, timing each op and a reference loop between
    ops. Returns [(result, seconds)], the pass time in seconds and the pass
    time in reference units: the sum over ops of op time / mean of the
    reference times on either side. The host's speed drifts by up to 2x
    over tens of seconds; the reference drifts with it, so the normalised
    time stays steady where raw seconds do not."""
    results, wall, norm = [], 0.0, 0.0
    ref_before = reference()
    for op in ops:
        t0 = time.perf_counter()
        result = op()
        dt = time.perf_counter() - t0
        ref_after = reference()
        results.append((result, dt))
        wall += dt
        norm += dt / (0.5 * (ref_before + ref_after))
        ref_before = ref_after
    return results, wall, norm


def _run(args, spec, work_dir: Path, scratch: Path) -> int:
    import measure
    import sweep
    import workloads
    from spans import NoTrace, Tracer

    wl = workloads.make(args.workload, args.seed, scratch)
    setup_s, setup_ref = [], []  # per set-up: seconds, reference units

    def set_up():
        ref_before = measure.reference_s("narrow")
        t0 = time.perf_counter()
        gc = workloads.import_package()
        wl.setup(gc)
        dt = time.perf_counter() - t0
        setup_s.append(dt)
        setup_ref.append(dt / (0.5 * (ref_before + measure.reference_s("narrow"))))
        # Free the modules and inputs the set-up replaced now, so that no
        # pass collects them and the peak RSS stops growing after a few.
        pygc.collect()
        return gc

    for _ in range(SETUP_REPS):
        gc = set_up()
    gc_mod = sys.modules["graphchoice"]
    if not Path(gc_mod.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"perfbench: imported graphchoice from {gc_mod.__file__}, "
              "not from this checkout", file=sys.stderr)
        return 2

    computed: dict[str, float] = {}
    if args.trace:
        setup_tr = Tracer()
        gc = workloads.import_package()
        install_tracing(setup_tr, gc)
        wl.setup(gc)
        setup_tr.uninstall()
        computed.update(setup_metrics(setup_tr))
    wl.start()
    rss_setup_mb = measure.peak_rss_mb()

    reference = functools.partial(measure.reference_s, wl.reference)
    walls = {False: [], True: []}  # raw seconds per pass
    norms = {False: [], True: []}  # the same, in reference-loop units
    attempted = failed = 0
    tracer = Tracer()
    modes = (False, True) if args.trace else (False,)
    t_start = time.perf_counter()
    k = 0
    while True:
        traced = bool(args.trace) and k % 2 == 1
        block = k // 2 if args.trace else k  # a traced pass repeats the untraced one
        if traced:
            install_tracing(tracer, gc)
        try:
            results, wall, norm = run_ops(wl.ops(block, tracer if traced else NoTrace()),
                                          reference)
        finally:
            if traced:
                tracer.uninstall()
        walls[traced].append(wall)
        norms[traced].append(norm)
        a, f = wl.check_pass(results, traced)
        attempted, failed = attempted + a, failed + f
        # One more set-up between passes, so that set-up time is sampled
        # across the run as the passes are, not only at its start.
        gc = set_up()
        wl.start()
        k += 1
        if (time.perf_counter() - t_start >= args.seconds
                and all(len(walls[m]) >= wl.min_passes
                        and len(walls[m]) % wl.cycle == 0 for m in modes)):
            break
    a, f = wl.final_checks()
    attempted, failed = attempted + a, failed + f

    wall_s = statistics.median(walls[False])
    wall_ref = statistics.median(norms[False])
    peak_rss_mb = measure.peak_rss_mb()
    computed.update({
        # Set-up time in reference units, given in seconds at the reference
        # speed, so that it follows the host's speed as wall_ref does.
        "setup_s": statistics.median(setup_ref) * measure.NARROW_REF_SECONDS,
        "wall_ref": wall_ref})
    if args.trace:
        computed.update(layer_metrics(tracer, len(walls[True]), sum(walls[True]),
                                      gc.harness.bundled_config_names()))
        computed["trace.overhead_s"] = statistics.median(walls[True]) - wall_s
        sweep_metrics, sweep_tr = sweep.run(gc, args.seed)
        computed.update(sweep_metrics)
        stem = f"spans-{args.workload}-seed{args.seed}"
        tracer.dump(work_dir / f"{stem}.jsonl")
        sweep_tr.dump(work_dir / f"{stem}-sweep.jsonl")

    # Readable report; the result is the last line.
    env = measure.environment(ROOT, args.seed)
    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(walls[False])}+{len(walls[True])} setups={len(setup_s)}")
    print("env " + json.dumps(env, sort_keys=True))
    unit = "seed_steps" if args.workload != "analysis" else "fixed_points"
    extra = {"wall_s": (wall_s, "s"),
             f"{unit}_per_s": (wl.work_per_pass / wall_s, "1/s"),
             f"{unit}_per_ref": (wl.work_per_pass / wall_ref, "1/ref"),
             "setup_raw_s": (statistics.median(setup_s), "s"),
             "peak_rss_mb": (peak_rss_mb, "MB"),
             "rss_above_setup_mb": (peak_rss_mb - rss_setup_mb, "MB"),
             "fail_frac": (failed / attempted if attempted else 1.0, "frac")}
    if args.workload == "analysis":
        lat = [t * 1e3 for t in wl.latencies]
        tail = measure.tail_percentile(len(lat))
        extra["fixed_point_ms_p50"] = (np.percentile(lat, 50), "ms")
        if tail is not None:
            extra[f"fixed_point_ms_p{tail:g}"] = (np.percentile(lat, tail), "ms")
        extra["fixed_point_samples"] = (len(lat), "count")
    for name, value in sorted(computed.items()):
        print(f"  {name} = {value:.6g}")
    print("pass_s " + json.dumps({"untraced": [round(w, 4) for w in walls[False]],
                                  "traced": [round(w, 4) for w in walls[True]],
                                  "untraced_ref": [round(t, 3) for t in norms[False]],
                                  "setup": [round(t, 4) for t in setup_s],
                                  "setup_ref": [round(t, 3) for t in setup_ref]}))
    for name, (value, u) in extra.items():
        print(f"  {name} = {value:.6g} {u}")
    if wl.digest():
        print(f"trajectory.csv sha256 (combined over {len(wl.digests)} files): "
              f"{wl.digest()}")
    for problem in wl.problems[:20]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)

    metrics = pick(spec["per_layer"] if args.trace else spec["end_to_end"], computed)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
