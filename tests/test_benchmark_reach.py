"""The benchmark under perfbench/ reaches into the package by attribute name:
its tracer wraps entry points such as `harness.summarize_from_disk` and
`walk.Trajectory.to_csv`, and its set-up reads cached `Graph` properties. A
renamed or deleted name would break only a traced or set-up benchmark run,
so this test resolves every name those two paths use."""
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from graphchoice import graphs

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(monkeypatch, name):
    """perfbench/<name>.py, registered in sys.modules until the test ends:
    perfbench imports its modules by name, and dataclasses look them up."""
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_benchmark_names_resolve_in_the_package(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):  # run.py sets them at import
        monkeypatch.setenv(var, "1")
    spans, _, run, workloads = (_load(monkeypatch, name) for name in
                                ("spans", "outputs", "run", "workloads"))
    # the modules this process already imported, not a fresh import
    gc = SimpleNamespace(**{layer: importlib.import_module(f"graphchoice.{layer}")
                            for layer in workloads.LAYERS})
    before = {layer: dict(vars(module)) for layer, module in vars(gc).items()}
    to_csv = gc.walk.Trajectory.to_csv
    tracer = spans.Tracer()
    run.install_tracing(tracer, gc)
    assert gc.walk.Trajectory.to_csv is not to_csv
    tracer.uninstall()
    # every wrapped name is back as it was, for the tests that follow
    assert gc.walk.Trajectory.to_csv is to_csv
    for layer, names in before.items():
        module = vars(getattr(gc, layer))
        assert all(module[k] is v for k, v in names.items()), layer
    workloads._touch_caches(graphs.make_two_cliques(2, 3))


def test_benchmark_configs_parse(monkeypatch, tmp_path):
    # the documents each simulation workload builds at set-up: a config rule
    # that rejects one would stop the benchmark before its first pass
    monkeypatch.syspath_prepend(str(PERFBENCH))
    _load(monkeypatch, "outputs")
    workloads = _load(monkeypatch, "workloads")
    from graphchoice import harness
    for name, count in (("configs", 9), ("wide_sparse", 1), ("trace_io", 2)):
        docs = workloads.Simulation(name, 1, tmp_path)._docs(harness)
        assert len(docs) == count
        for doc in docs:
            harness.parse_config(doc)


def test_setup_layers_do_not_import_the_compiled_engine_or_writer(monkeypatch):
    # a benchmark set-up imports these layers afresh: the compiled engine's
    # loader (and its build) and the CSV writer wait for their first call
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = _load(monkeypatch, "workloads")
    src = Path(graphs.__file__).resolve().parent.parent
    code = ("import importlib, sys\n"
            f"for layer in {workloads.LAYERS!r}:\n"
            "    importlib.import_module('graphchoice.' + layer)\n"
            "print(sorted(m for m in sys.modules if m.startswith('graphchoice.')))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert done.returncode == 0, done.stderr
    assert "graphchoice._engine" not in done.stdout
    assert "graphchoice._writer" not in done.stdout
    assert all(f"graphchoice.{layer}" in done.stdout for layer in workloads.LAYERS)


def test_no_block_falls_back_on_shipped_traffic(monkeypatch, tmp_path):
    # every value the bundled configs (at 2e4 steps, every step recorded)
    # and the benchmark's simulation workloads write is in the compiled
    # writer's exact range: no block of theirs is formatted in Python
    from graphchoice import _engine, harness
    lib = _engine.load()
    if lib is None:
        pytest.skip("no compiled library")
    fn, sizes = lib.gc_format_rows, []

    def counted(*args):
        sizes.append(fn(*args))
        return sizes[-1]
    monkeypatch.setattr(lib, "gc_format_rows", counted)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    _load(monkeypatch, "outputs")
    workloads = _load(monkeypatch, "workloads")
    docs = [{**harness.load_config(name).raw, "n_steps": 20_000,
             "record_stride": 1} for name in harness.bundled_config_names()]
    for name in ("configs", "wide_sparse", "trace_io"):
        docs += workloads.Simulation(name, 1, tmp_path)._docs(harness)
    files = 0
    for doc in docs:
        for traj in harness.run_trajectories(harness.parse_config(doc)):
            traj.to_csv(tmp_path / "t.csv")
            files += 1
    assert len(sizes) >= files and min(sizes) > 0
