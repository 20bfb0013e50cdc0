"""Command-line interface.

Subcommands: qos, design, partition, sweep, compare, reproduce.
Exit codes: 0 success, 1 unconverged/golden mismatch, 2 bad input
(usage, scenario, value or output-path error).
Every command starts from the ``--scenario`` it is given, or from the
built-in ``car-n1000-98``; each scenario flag then overrides its field.
The default output directory can be set with the SURGESHARE_OUTDIR
environment variable.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import errno
import gc
import importlib.resources
import os
import sys
from typing import List, Optional, Sequence, Tuple

from . import qos as qos_mod
from . import solver as solver_mod
from .cost import get_cost_model
from .qos import PROBLEMS, ScenarioParams, qos_all
from .scenarios import ScenarioError, ScenarioFile, load_scenario

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


def _choose_kernels(n: int, stretches: float = 0.0) -> None:
    """Bind ``qos.bdtr``, ``qos.bdtrc`` and ``qos.betainc`` to ``_binom``'s
    if they cost less than importing scipy.

    Each command that evaluates binomials calls this once, before its
    first kernel call, with the largest n it evaluates and the number of
    reserve stretches its design scans walk, as ``_choose_for_designs``
    estimates it (0 for ``partition``, which scans none); ``_binom``
    gives the limits on both and how they were measured.
    """
    from . import _binom
    if n <= _binom.N_MAX and stretches <= _binom.STRETCHES_MAX:
        qos_mod.bdtr, qos_mod.bdtrc, qos_mod.betainc = _binom.bdtr, _binom.bdtrc, _binom.betainc


def _choose_for_designs(points: Sequence[ScenarioParams]) -> None:
    """``_choose_kernels`` for a command that solves the design of each point.

    A design's reserve scan walks at most about N p_bad stretches, at
    about two kernel calls each, and points that share p_bad and the
    bad-behaviour target share the command's reserve table, so each such
    pair is walked once, to its largest N.
    """
    largest = {}
    for p in points:
        key = p.p_bad, p.qos_target_b
        largest[key] = max(largest.get(key, 0), p.n_consumers)
    _choose_kernels(max(largest.values()), sum(n * p_b for (p_b, _), n in largest.items()))


def _output_paths(args, *names: str) -> List[str]:
    """Join each name to the output directory and check it before any work.

    A path in a directory that exists is opened for appending, so that
    one that cannot be written fails at once, and is removed again if
    the check made it.  Any other path must name a file in the output
    directory or in a parent of it still to be made.  The output
    directory is made only once every path has passed.
    """
    outdir = args.outdir or os.environ.get(OUTDIR_ENV) or "."
    top = os.path.abspath(outdir)
    paths = [os.path.join(outdir, name) for name in names]
    for path in paths:
        full = os.path.abspath(path)
        parent = os.path.dirname(full)
        if os.path.isdir(parent):
            existed = os.path.exists(path)
            open(path, "a").close()
            if not existed:
                os.remove(path)
        elif (os.path.commonpath([parent, top]) != parent
              or os.path.commonpath([full, top]) == full):
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
    os.makedirs(outdir, exist_ok=True)
    return paths


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
    _choose_kernels(max(params.n_consumers, args.t))
    rep = qos_all(params, args.m, args.t, args.q)
    print(f"qos_ns = {rep.qos_ns:.6f}")
    print(f"qos_s  = {rep.qos_s:.6f}")
    print(f"qos_b  = {rep.qos_b:.6f}")
    return 0


def _cmd_design(args) -> int:
    params, model, _ = _scenario_params(args)
    paths = _output_paths(args, args.output) if args.output else []
    _choose_for_designs([params])
    rep = solver_mod.solve_min_cost(params, model)
    d = rep.design
    print(f"M = {d.m}  T = {d.t}  Q = {d.q}")
    print(f"cost_total = {rep.cost_real:.2f}")
    print(f"cost_per_consumer = {rep.cost_per_consumer:.2f}")
    print(f"qos = ({rep.qos.qos_ns:.4f}, {rep.qos.qos_s:.4f}, {rep.qos.qos_b:.4f})")
    for path in paths:
        solver_mod.write_design_csv(path, [rep])
        print(f"wrote {path}")
    return 0


def _cmd_partition(args) -> int:
    from . import aimd as aimd_mod
    params, _, overrides = _scenario_params(args)
    if args.seed is not None:
        overrides["seed"] = args.seed
    config = dataclasses.replace(
        aimd_mod.auto_config(args.problem, args.m, args.t, params), **overrides)
    aimd_mod._check_pool(args.problem, params, args.m, args.t, config)
    paths = _output_paths(args, args.output) if args.output else []
    _choose_kernels(params.n_consumers)
    trace, q_star, rep = aimd_mod.run_partition(
        args.problem, params, args.m, args.t, config=config, record=bool(paths))
    print(f"q_star = {q_star}")
    print(f"q_avg = {trace.q_avg:.4f}  z_avg = {trace.z_avg:.4f}")
    print(f"capacity_events = {trace.capacity_count}  iterations = {trace.total_iterations}")
    print(f"qos_s = {rep.qos_s:.4f}  qos_b = {rep.qos_b:.4f}")
    if trace.converged_at is None:
        print("warning: not converged within max_iterations", file=sys.stderr)
    for path in paths:
        aimd_mod.write_trace_csv(path, trace)
        print(f"wrote {path}")
    return 0 if trace.converged_at is not None else 1


def _cmd_sweep(args) -> int:
    # Every point is built, and so checked, before any path or solve.
    params, model, _ = _scenario_params(args)
    try:
        grid = [float(x) for x in args.grid.split(",") if x.strip()]
    except ValueError:
        raise ValueError("--grid must be a comma-separated list of numbers") from None
    if not grid:
        raise ValueError("grid must be non-empty")
    if args.axis == "n":
        if not all(x.is_integer() for x in grid):
            raise ValueError("--grid values for --axis n must be integers")
        grid = [int(x) for x in grid]
    names = _PARAM_FLAGS["target" if args.axis == "qos" else "n"]
    points = [dataclasses.replace(params, **dict.fromkeys(names, x)) for x in grid]
    (path,) = _output_paths(args, args.output or f"sweep_{args.axis}.csv")
    _choose_for_designs(points)
    solver_mod.write_design_csv(path, [solver_mod.solve_min_cost(p, model) for p in points])
    print(f"wrote {path}")
    return 0


def _cmd_compare(args) -> int:
    params, model, _ = _scenario_params(args)
    _choose_for_designs([params])
    table = solver_mod.compare_approaches(params, model)
    for label in ("hybrid", "b2c", "ownership"):
        rep = table[label]
        d = rep.design
        print(f"{label:9s}  M={d.m:6d} T={d.t:6d} Q={d.q:5d}  "
              f"cost={rep.cost_real:14.2f}  per_consumer={rep.cost_per_consumer:10.2f}")
    return 0


def _golden_table(use: str) -> List[Tuple[ScenarioFile, dict]]:
    """The rows of a bundled minimum-cost golden, each with its built-in scenario."""
    ref = importlib.resources.files("surgeshare").joinpath("data", f"{use}_min_cost_golden.csv")
    with ref.open("r") as fh:
        rows = list(csv.DictReader(fh))
    # round, not int: int(0.57 * 100) is 56.
    return [(load_scenario(f"{use}-n{row['N']}-{round(100 * float(row['qos_target']))}"), row)
            for row in rows]


def _golden_misses(report, row: dict) -> List[str]:
    """One message per field of a design report outside a golden row's tolerance."""
    d = report.design
    misses = [f"{key} {got} vs {row[key]}"
              for key, got in (("M", d.m), ("T", d.t), ("Q", d.q))
              if abs(got - int(row[key])) > int(row[f"tol_{key.lower()}"])]
    cost = float(row["cost_total"])
    if abs(report.cost_real - cost) > float(row["tol_cost_rel"]) * cost:
        misses.append(f"cost {report.cost_real:.0f} vs {row['cost_total']}")
    return misses


def _cmd_reproduce(args) -> int:
    uses = ("car", "charger")
    paths = _output_paths(args, *(f"{use}_min_cost.csv" for use in uses))
    tables = [_golden_table(use) for use in uses]
    _choose_for_designs([sc.params for table in tables for sc, _ in table])
    ok = True
    for use, path, table in zip(uses, paths, tables):
        reports = []
        print(f"-- {use} minimum-cost table --")
        for scenario, grow in table:
            rep = solver_mod.solve_min_cost(scenario.params, scenario.cost_model)
            reports.append(rep)
            d = rep.design
            misses = _golden_misses(rep, grow)
            ok = ok and not misses
            print(f"  N={grow['N']:>6} target={grow['qos_target']}  "
                  f"got (M={d.m}, T={d.t}, Q={d.q}, cost={rep.cost_real:.0f})  "
                  f"expected (M={grow['M']}, T={grow['T']}, Q={grow['Q']}, "
                  f"cost={grow['cost_total']})  "
                  + (f"MISMATCH ({', '.join(misses)})" if misses else "ok"))
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
    p_part.add_argument("--problem", choices=PROBLEMS, default="maximize")
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
    """Run one command from ``argv`` (default ``sys.argv[1:]``); return its exit code.

    A ``qos``, ``design``, ``compare``, ``sweep`` or ``reproduce``
    command whose largest n is at most ``_binom.N_MAX`` and whose design
    scans walk at most ``_binom.STRETCHES_MAX`` reserve stretches, and a
    ``partition`` whose N is at most ``N_MAX``, compute with ``_binom``'s
    kernels, which cost them less than importing scipy
    (``_choose_kernels``): one continued fraction for the binomial tails
    and for ``partition``'s AIMD rates (``betainc``), with a relative
    error below ``_binom.BETA_REL_ERR`` (1e-11).  Larger commands and every
    library call use scipy's.  The command runs on a reserve table of its
    own, as its stretch ends come from the kernels it chose.
    ``qos.bdtr``, ``qos.bdtrc``, ``qos.betainc`` and
    ``solver._reserve_ends`` are put back as the caller had them when the
    command returns or raises, and the garbage collector is left as it
    was.  While the command runs the kernels are rebound for the whole
    process, so it must not run beside library calls in other threads.

    The two binomial kernels differ by up to ``_binom.SCIPY_REL_DIFF``
    relative, so a target that close to a tail can give the command and
    the library different designs: ``design --scenario car-n1000-98
    --target 0.9827427694733775`` gives M = 120, which exact arithmetic
    confirms, and ``solve_min_cost`` M = 121 through scipy 1.17.  The two
    ``betainc`` gave the same AIMD runs, bit for bit, on the four
    best-effort rows over seeds 0-19 for both problems.
    """
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    saved = qos_mod.bdtr, qos_mod.bdtrc, qos_mod.betainc, solver_mod._reserve_ends
    solver_mod._reserve_ends = {}
    try:
        return args.func(args)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        qos_mod.bdtr, qos_mod.bdtrc, qos_mod.betainc, solver_mod._reserve_ends = saved


def main() -> None:
    """Run one command from ``sys.argv`` and end the process with its exit code.

    This is the ``surgeshare`` console script and ``python -m
    surgeshare.cli``; it never returns, and prints and writes what
    ``cli_dispatch`` does.  A command is short-lived, and nearly every
    object it makes lives until the process exits, the tens of thousands
    that numpy and scipy make as they import included.  The cyclic
    garbage collector would walk them all and free next to nothing, so it
    is off while the command runs, and the heap is frozen before the exit
    so that the collections at interpreter shutdown skip it too.
    """
    gc.disable()
    code = cli_dispatch()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    main()
