"""Command-line interface.

Subcommands: qos, design, partition, sweep, compare, reproduce.
Exit codes: 0 success, 1 unconverged/golden mismatch, 2 usage error.
Every command starts from the ``--scenario`` it is given, or from the
built-in ``car-n1000-98``; each scenario flag then overrides its field.
The default output directory can be set with the SURGESHARE_OUTDIR
environment variable.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import importlib.resources
import os
import sys
from typing import List, Optional, Tuple

from . import aimd as aimd_mod
from . import solver as solver_mod
from .cost import get_cost_model
from .qos import ScenarioParams, qos_all
from .scenarios import ScenarioError, load_scenario

__all__ = ["main", "cli_dispatch"]

OUTDIR_ENV = "SURGESHARE_OUTDIR"
BASE_SCENARIO = "car-n1000-98"
# The ScenarioParams fields that each scenario flag sets.
_PARAM_FLAGS = {
    "n": ("n_consumers",),
    "p_ns": ("p_nonsurge",),
    "p_s": ("p_surge",),
    "p_b": ("p_bad",),
    "target": ("qos_target_ns", "qos_target_s", "qos_target_b"),
}


def _outdir(args) -> str:
    path = getattr(args, "outdir", None) or os.environ.get(OUTDIR_ENV) or "."
    os.makedirs(path, exist_ok=True)
    return path


def _scenario_params(args) -> Tuple[ScenarioParams, object, dict]:
    """Params, cost model and AIMD overrides: the scenario, then the flags."""
    sc = load_scenario(args.scenario or BASE_SCENARIO)
    changes = {}
    for flag, names in _PARAM_FLAGS.items():
        value = getattr(args, flag)
        if value is not None:
            changes.update(dict.fromkeys(names, value))
    params = dataclasses.replace(sc.params, **changes)
    model = sc.cost_model
    if getattr(args, "cost_model", None) is not None:
        try:
            model = get_cost_model(args.cost_model)
        except KeyError as exc:
            raise ScenarioError(exc.args[0]) from None
    return params, model, dict(sc.aimd)


def _add_scenario_args(sub, need_cost: bool = True):
    sub.add_argument("--scenario", help="built-in scenario name or scenario file "
                     f"path (default {BASE_SCENARIO}); the flags below override it")
    sub.add_argument("--n", type=int, help="consumer population")
    sub.add_argument("--p-ns", type=float, dest="p_ns",
                     help="non-surge request probability")
    sub.add_argument("--p-s", type=float, dest="p_s",
                     help="surge request probability")
    sub.add_argument("--p-b", type=float, dest="p_b",
                     help="bad-behaviour request probability")
    sub.add_argument("--target", type=float, help="QoS target of all three scenarios")
    if need_cost:
        sub.add_argument("--cost-model", help="built-in cost model name")


def _cmd_qos(args) -> int:
    params, _, _ = _scenario_params(args)
    rep = qos_all(params, args.m, args.t, args.q)
    print(f"qos_ns = {rep.qos_ns:.6f}")
    print(f"qos_s  = {rep.qos_s:.6f}")
    print(f"qos_b  = {rep.qos_b:.6f}")
    return 0


def _cmd_design(args) -> int:
    params, model, _ = _scenario_params(args)
    rep = solver_mod.solve_min_cost(params, model)
    d = rep.design
    print(f"M = {d.m}  T = {d.t}  Q = {d.q}")
    print(f"cost_total = {rep.cost_real:.2f}")
    print(f"cost_per_consumer = {rep.cost_per_consumer:.2f}")
    print(f"qos = ({rep.qos.qos_ns:.4f}, {rep.qos.qos_s:.4f}, {rep.qos.qos_b:.4f})")
    if args.output:
        path = os.path.join(_outdir(args), args.output)
        solver_mod.write_design_csv(path, [rep])
        print(f"wrote {path}")
    return 0


def _cmd_partition(args) -> int:
    params, _, overrides = _scenario_params(args)
    if args.seed is not None:
        overrides["seed"] = args.seed
    config = dataclasses.replace(
        aimd_mod.auto_config(args.problem, args.m, args.t, params), **overrides)
    trace, q_star, rep = aimd_mod.run_partition(
        args.problem, params, args.m, args.t, config=config,
        record=args.output is not None)
    print(f"q_star = {q_star}")
    print(f"q_avg = {trace.q_avg:.4f}  z_avg = {trace.z_avg:.4f}")
    print(f"capacity_events = {trace.capacity_count}  iterations = {trace.total_iterations}")
    print(f"qos_s = {rep.qos_s:.4f}  qos_b = {rep.qos_b:.4f}")
    if trace.converged_at is None:
        print("warning: not converged within max_iterations", file=sys.stderr)
    if args.output:
        path = os.path.join(_outdir(args), args.output)
        aimd_mod.write_trace_csv(path, trace)
        print(f"wrote {path}")
    return 0 if trace.converged_at is not None else 1


def _cmd_sweep(args) -> int:
    params, model, _ = _scenario_params(args)
    try:
        grid = [float(x) for x in args.grid.split(",") if x.strip()]
    except ValueError:
        print("--grid must be a comma-separated list of numbers", file=sys.stderr)
        return 2
    if not grid:
        print("--grid must be non-empty", file=sys.stderr)
        return 2
    if args.axis == "qos":
        reports = solver_mod.sweep_cost_vs_qos(params, model, grid)
    else:
        if not all(x.is_integer() for x in grid):
            print("--grid values for --axis n must be integers", file=sys.stderr)
            return 2
        reports = solver_mod.sweep_cost_vs_n(params, model, [int(x) for x in grid])
    path = os.path.join(_outdir(args), args.output or f"sweep_{args.axis}.csv")
    solver_mod.write_design_csv(path, reports)
    print(f"wrote {path}")
    return 0


def _cmd_compare(args) -> int:
    params, model, _ = _scenario_params(args)
    table = solver_mod.compare_approaches(params, model)
    for label in ("hybrid", "b2c", "ownership"):
        rep = table[label]
        d = rep.design
        print(f"{label:9s}  M={d.m:6d} T={d.t:6d} Q={d.q:5d}  "
              f"cost={rep.cost_real:14.2f}  per_consumer={rep.cost_per_consumer:10.2f}")
    return 0


def _load_golden(resource: str) -> List[dict]:
    ref = importlib.resources.files("surgeshare").joinpath("data", resource)
    with ref.open("r") as fh:
        return list(csv.DictReader(fh))


def _cmd_reproduce(args) -> int:
    outdir = _outdir(args)
    ok = True
    for use, golden_name in (("car", "car_min_cost_golden.csv"),
                             ("charger", "charger_min_cost_golden.csv")):
        golden = _load_golden(golden_name)
        reports = []
        print(f"-- {use} minimum-cost table --")
        for grow in golden:
            scenario = load_scenario(f"{use}-n{grow['N']}-{int(float(grow['qos_target']) * 100)}")
            rep = solver_mod.solve_min_cost(scenario.params, scenario.cost_model)
            reports.append(rep)
            d = rep.design
            checks = [
                abs(d.m - int(grow["M"])) <= int(grow["tol_m"]),
                abs(d.t - int(grow["T"])) <= int(grow["tol_t"]),
                abs(d.q - int(grow["Q"])) <= int(grow["tol_q"]),
                abs(rep.cost_real - float(grow["cost_total"]))
                <= float(grow["tol_cost_rel"]) * float(grow["cost_total"]),
            ]
            status = "ok" if all(checks) else "MISMATCH"
            ok = ok and all(checks)
            print(f"  N={grow['N']:>6} target={grow['qos_target']}  "
                  f"got (M={d.m}, T={d.t}, Q={d.q}, cost={rep.cost_real:.0f})  "
                  f"expected (M={grow['M']}, T={grow['T']}, Q={grow['Q']}, "
                  f"cost={grow['cost_total']})  {status}")
        path = os.path.join(outdir, f"{use}_min_cost.csv")
        solver_mod.write_design_csv(path, reports)
        print(f"  wrote {path}")
    print("reproduce: PASS" if ok else "reproduce: FAIL")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="surgeshare",
        description="Design hybrid-supply sharing schemes: QoS, dimensioning, "
                    "AIMD partitioning.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_qos = subs.add_parser("qos", help="evaluate QoS for an explicit (M, T, Q)")
    _add_scenario_args(p_qos, need_cost=False)
    p_qos.add_argument("--m", type=int, required=True)
    p_qos.add_argument("--t", type=int, required=True)
    p_qos.add_argument("--q", type=int, required=True)
    p_qos.set_defaults(func=_cmd_qos)

    p_design = subs.add_parser("design", help="solve the minimum-cost design")
    _add_scenario_args(p_design)
    p_design.add_argument("--output", help="CSV file name (under the output dir)")
    p_design.add_argument("--outdir", help="output directory")
    p_design.set_defaults(func=_cmd_design)

    p_part = subs.add_parser("partition", help="run the AIMD pool partitioning")
    _add_scenario_args(p_part, need_cost=False)
    p_part.add_argument("--m", type=int, required=True, help="shared pool size M")
    p_part.add_argument("--t", type=int, required=True, help="prosumer pool size T")
    p_part.add_argument("--problem", choices=aimd_mod.PROBLEMS, default="maximize")
    p_part.add_argument("--seed", type=int, default=None)
    p_part.add_argument("--output", help="trace CSV file name")
    p_part.add_argument("--outdir", help="output directory")
    p_part.set_defaults(func=_cmd_partition)

    p_sweep = subs.add_parser("sweep", help="cost curves vs QoS target or N")
    _add_scenario_args(p_sweep)
    p_sweep.add_argument("--axis", choices=("qos", "n"), required=True)
    p_sweep.add_argument("--grid", required=True,
                         help="comma-separated grid values")
    p_sweep.add_argument("--output", help="CSV file name")
    p_sweep.add_argument("--outdir", help="output directory")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_cmp = subs.add_parser("compare", help="hybrid vs pure-B2C vs ownership costs")
    _add_scenario_args(p_cmp)
    p_cmp.set_defaults(func=_cmd_compare)

    p_rep = subs.add_parser("reproduce",
                            help="regenerate the results tables and diff goldens")
    p_rep.add_argument("--outdir", help="output directory")
    p_rep.set_defaults(func=_cmd_reproduce)

    return parser


def cli_dispatch(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_dispatch())


if __name__ == "__main__":
    main()
