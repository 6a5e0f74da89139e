"""Command-line interface.

Subcommands:
  run       execute an experiment config, persist trajectories + summary
  analyze   deterministic analysis (stationary, potential, fixedpoint,
            eigenbound, concentration), emitted as JSON
  compare   aligned median optimal-node frequency across configs (CSV)
  validate  check a graph description file

Exit codes: 0 success, 2 config error, 3 runtime failure, 4 acceptance
threshold failure (compare --assert).
"""
from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import analysis, graphs, harness
from .harness import ConfigError


def _parse_floats(text: str) -> np.ndarray:
    """A comma-separated list of numbers; the analysis functions own their
    ranges."""
    try:
        return np.array([float(v) for v in text.split(",")], dtype=float)
    except ValueError as exc:
        raise ConfigError(f"cannot parse float list {text!r}") from exc


def _emit(obj) -> None:
    json.dump(obj, sys.stdout, indent=1, sort_keys=True, default=_jsonify)
    sys.stdout.write("\n")


def _jsonify(value):
    if isinstance(value, np.ndarray):
        return [float(v) for v in value]
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    raise TypeError(f"cannot serialize {type(value)}")


def _cmd_run(args) -> int:
    cfg = harness.load_config(args.config)
    out = harness.resolve_out_dir(cfg, args.out)
    summary = harness.run_experiment(cfg, out, seed_override=args.seed_override)
    _emit(summary)
    return 0


def _cmd_validate(args) -> int:
    g, notes = harness.load_graph_file(args.graph, repair=args.repair)
    issues = graphs.validate(g)
    for note in notes:
        print(f"repair: {note}")
    if issues:
        for issue in issues:
            print(f"violation: {issue}")
        return 3
    print("OK")
    return 0


def _cmd_compare(args) -> int:
    cfgs = [harness.load_config(ref) for ref in args.configs]
    ns, columns, verdicts = harness.compare_experiments(cfgs)
    csv_text = harness.comparison_csv(ns, columns)
    if args.out:
        harness._write_text_atomically(args.out, csv_text)
    else:
        sys.stdout.write(csv_text)
    if args.check:
        failed = {name: v for name, v in verdicts.items()
                  if v is not None and not v["passed"]}
        for name, verdict in failed.items():
            print(f"acceptance failed: {name}: {verdict}", file=sys.stderr)
        if failed:
            return 4
    return 0


def _cmd_analyze(args) -> int:
    try:
        doc = _analyze(args)
    except ValueError as exc:  # an argument out of range; RuntimeError stays exit 3
        raise ConfigError(str(exc)) from exc
    _emit(doc)
    return 0


# The options each analyze kind reads; giving it any other is an error.
_READS = {"stationary": {"graph", "mu", "alpha", "x"},
          "potential": {"graph", "mu", "alpha", "x"},
          "fixedpoint": {"graph", "mu", "alpha", "x"},
          "concentration": {"graph", "mu", "alphas", "x"},
          "eigenbound": {"mi", "eps", "p"}}


def _analyze(args) -> dict:
    """The analyze document of `args.kind`. Each range rule of the arguments
    belongs to the analysis function that reads them, and raises ValueError."""
    kind = args.kind
    unread = sorted(name for name in set().union(*_READS.values()) - _READS[kind]
                    if getattr(args, name) is not None)
    if unread:
        raise ConfigError(f"{kind} does not read --{', --'.join(unread)}")
    if kind == "eigenbound":
        if args.mi is None or args.eps is None:
            raise ConfigError("eigenbound needs --mi and --eps")
        p = None if args.p is None else _parse_floats(args.p)
        res = analysis.covariance_eigen_bound(p, args.eps, args.mi)
        return {"kind": kind, "p": res.p, "lam_min": res.lam_min,
                "bound": res.bound, "margin": res.margin}

    if args.graph is None or args.mu is None:
        raise ConfigError(f"{kind} needs --graph and --mu")
    g = harness.parse_graph_arg(args.graph)
    mu = _parse_floats(args.mu)
    x = _parse_floats(args.x) if args.x else None

    if kind == "concentration":
        if not args.alphas:
            raise ConfigError("concentration needs --alphas")
        entries = analysis.alpha_concentration_check(
            g, mu, _parse_floats(args.alphas), z0=x)
        return {"kind": kind,
                "optimal_nodes": [int(i) + 1 for i in analysis.optimal_set(mu)],
                "entries": [{"alpha": e.alpha, "optimal_mass": e.optimal_mass,
                             "point": e.fixed_point.point,
                             "residual": e.fixed_point.residual,
                             "converged": e.fixed_point.converged}
                            for e in entries]}

    alpha = args.alpha
    if alpha is None:
        raise ConfigError(f"{kind} needs --alpha")

    if kind == "fixedpoint":
        if g.adjacency_bool.all() and alpha < 1.0 and mu.size == g.m:
            if x is not None:  # unread by the closed form, but still checked
                analysis._as_interior(x, g.m)
            return {"kind": kind, "method": "closed_form", "alpha": alpha,
                    "point": analysis.unconstrained_fixed_point(mu, alpha)}
        fp = analysis.find_fixed_point(g, mu, alpha, z0=x)
        return {"kind": kind, "method": "ode", "alpha": alpha,
                "point": fp.point, "residual": fp.residual,
                "classification": fp.classification, "converged": fp.converged,
                "windows": fp.windows, "halvings": fp.halvings}

    x = np.full(g.m, 1.0 / g.m) if x is None else x
    if kind == "stationary":
        pi = analysis.stationary_closed_form(x, g, mu, alpha)
        kernel = analysis.limit_kernel(x, g, mu, alpha)
        oracle = analysis.stationary_power_iteration(kernel)
        return {"kind": kind, "alpha": alpha, "x": x,
                "pi_closed_form": pi, "pi_power_iteration": oracle.pi,
                "oracle_iterations": oracle.iterations,
                "oracle_converged": oracle.converged,
                "max_gap": float(np.abs(pi - oracle.pi).max()),
                "local_balance_violation":
                    analysis.local_balance_violation(x, g, mu, alpha)}
    if kind == "potential":
        rep = analysis.potential(x, g, mu, alpha)
        return {"kind": kind, "alpha": alpha, "x": x, "value": rep.value,
                "gradient": rep.gradient, "lyapunov": rep.lyapunov}
    raise ConfigError(f"unknown analyze kind {kind!r}")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="graphchoice", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run an experiment config")
    p.add_argument("--config", required=True,
                   help="config file path or bundled name")
    p.add_argument("--seed-override", type=int, default=None,
                   help="run only this seed and print its summary; the "
                        "experiment's summary.json is left as it is")
    p.add_argument("--out", default=None, help="output directory")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("analyze", help="deterministic analysis, JSON output")
    p.add_argument("--kind", required=True,
                   choices=["stationary", "potential", "fixedpoint",
                            "eigenbound", "concentration"])
    p.add_argument("--graph", help="complete:M | linear:M | star:M:C | "
                                   "two_cliques:M1:M2 | graph file")
    p.add_argument("--mu", help="comma-separated rewards")
    p.add_argument("--alpha", type=float)
    p.add_argument("--alphas", help="comma-separated exponent ladder")
    p.add_argument("--x", help="comma-separated frequency vector")
    p.add_argument("--mi", type=int, help="neighborhood size (eigenbound)")
    p.add_argument("--eps", type=float, help="exploration level (eigenbound)")
    p.add_argument("--p", help="probability vector (eigenbound)")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("compare", help="median optimal-node frequency table")
    p.add_argument("--configs", nargs="+", required=True)
    p.add_argument("--out", default=None, help="CSV output path (default stdout)")
    p.add_argument("--assert", dest="check", action="store_true",
                   help="exit 4 if a config's acceptance block fails")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("validate", help="validate a graph description file")
    p.add_argument("--graph", required=True)
    p.add_argument("--no-repair", dest="repair", action="store_false",
                   help="validate the raw edge list without auto-repair")
    p.set_defaults(func=_cmd_validate)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(json.dumps({"error": "config", "message": str(exc)}),
              file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failures -> exit 3, machine-readable
        print(json.dumps({"error": "runtime", "message": str(exc)}),
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
