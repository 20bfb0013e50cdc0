"""Workloads: program set-up, timed operations and their checks.

Each workload class builds its operations pass by pass from the seed
(see ``inputs``), runs one operation through ``execute`` and judges a
finished operation in ``check``, which the runner calls outside the
timed region.  A check returns one of three statuses:

* ``ok``: the result passed every check;
* ``miss``: a valid result that misses the reference -- a design more
  than 1% dearer than ``brute_force_design``, a solver that reports
  "infeasible" where the oracle finds a design, or a partition q_star
  more than 1 away from ``scan_oracle``;
* ``error``: an invalid result -- an exception, an infeasible design, a
  golden-row mismatch, a run that did not converge, or a CLI command
  with a wrong exit code or output.
"""

from __future__ import annotations

import csv
import importlib.resources
import os
import re
import subprocess
import sys
import time
from dataclasses import dataclass

import surgeshare
from surgeshare import aimd, cost, qos, scenarios, solver

import inputs

GAP_LIMIT = 0.01           # acceptance criterion 3
Q_STAR_LIMIT = 1           # acceptance criterion 4
CHILD_TIMEOUT_S = 120.0
CLI_CHILD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_child.py")


@dataclass
class Op:
    kind: str              # operation kind, e.g. a golden row or "equalize-n1000"
    args: tuple            # workload-specific inputs


@dataclass
class Result:
    op: Op
    run_id: int
    seconds: float
    value: object          # return value, or the exception raised
    status: str = ""
    detail: str = ""
    info: dict = None      # check by-products (oracle time, gap, counts)
    ref_s: float = 0.0     # mean reference time just before and after
    norm_s: float = 0.0    # seconds scaled by ref_s, see reference.py


def _design_status(params, report, oracle):
    """Judge a solver result against the exact oracle (None: infeasible)."""
    if isinstance(report, solver.InfeasibleDesignError):
        if oracle is None:
            return "ok", "both infeasible", None
        return "miss", f"solver infeasible, oracle cost {oracle.cost_real:.2f}", None
    if isinstance(report, BaseException):
        return "error", f"raised {report!r}", None
    if not solver.feasible(params, report.design):
        return "error", f"infeasible design {report.design}", None
    if oracle is None:
        return "error", "oracle infeasible but solver returned a design", None
    gap = (report.cost_real - oracle.cost_real) / oracle.cost_real
    if gap > GAP_LIMIT:
        return "miss", f"gap {gap:.4%} to oracle {oracle.design}", gap
    return "ok", "", gap


class DesignWorkload:
    """Shared part of design-table and design-random."""

    reference = "kernel"    # reference work kind, see reference.py

    def __init__(self, seed):
        self.seed = seed
        self._oracles = {}    # op key -> (report or None, seconds)

    def execute(self, op):
        params, model = self.resolve(op)
        return solver.solve_min_cost(params, model)

    def oracle(self, op):
        key = op.args[0]
        if key not in self._oracles:
            params, model = self.resolve(op)
            start = time.perf_counter()
            try:
                report = solver.brute_force_design(params, model)
            except solver.InfeasibleDesignError:
                report = None
            self._oracles[key] = (report, time.perf_counter() - start)
        return self._oracles[key]

    def check(self, result):
        params, _ = self.resolve(result.op)
        oracle, oracle_s = self.oracle(result.op)
        status, detail, gap = _design_status(params, result.value, oracle)
        result.info = {"oracle_s": oracle_s, "gap": gap,
                       "iterations": getattr(result.value, "solver_iterations", 0)}
        if status != "error":
            golden = self.golden_mismatch(result)
            if golden:
                status, detail = "error", golden
        return status, detail

    def golden_mismatch(self, result):
        return ""

    def warmup(self):
        self.execute(self.make_pass(0)[0])


def _golden_rows():
    rows = {}
    for use in inputs.GOLDEN_USES:
        ref = importlib.resources.files(surgeshare).joinpath(
            "data", f"{use}_min_cost_golden.csv")
        with ref.open("r") as fh:
            for row in csv.DictReader(fh):
                pct = int(round(float(row["qos_target"]) * 100))
                rows[f"{use}-n{row['N']}-{pct}"] = row
    return rows


def golden_mismatch(report, row):
    """Describe where a design leaves the tolerances of a golden row."""
    if not isinstance(report, solver.DesignReport):
        return f"no design ({report!r})"
    d = report.design
    bad = [f"{label} {got} vs {row[key]}" for label, got, key, tol in (
        ("M", d.m, "M", "tol_m"), ("T", d.t, "T", "tol_t"), ("Q", d.q, "Q", "tol_q"))
        if abs(got - int(row[key])) > int(row[tol])]
    ref_cost = float(row["cost_total"])
    if abs(report.cost_real - ref_cost) > float(row["tol_cost_rel"]) * ref_cost:
        bad.append(f"cost {report.cost_real:.0f} vs {ref_cost:.0f}")
    return "golden mismatch: " + ", ".join(bad) if bad else ""


class DesignTable(DesignWorkload):
    """The 16 golden rows through solve_min_cost, as ``reproduce`` runs them."""

    name = "design-table"
    pass_s = 10.8           # nominal seconds per pass, see run.passes

    def setup(self):
        self.scenarios = {name: scenarios.load_scenario(name)
                          for name in inputs.GOLDEN_SCENARIOS}
        self._golden = None

    def make_pass(self, index):
        return [Op(name, (name,)) for name in inputs.design_table_pass(self.seed, index)]

    def resolve(self, op):
        sc = self.scenarios[op.args[0]]
        return sc.params, sc.cost_model

    def execute(self, op):
        sc = self.scenarios[op.args[0]]
        return solver.solve_min_cost(sc.params, sc.cost_model, sc.solver)

    def golden_mismatch(self, result):
        if self._golden is None:
            self._golden = _golden_rows()
        return golden_mismatch(result.value, self._golden[result.op.kind])


class DesignRandom(DesignWorkload):
    """Seeded random scenarios with built-in and inline cost models."""

    name = "design-random"
    pass_s = 6.3            # nominal seconds per pass, see run.passes

    def setup(self):
        self.models = {"car": cost.get_cost_model("car-mg4-2025"),
                       "charger": cost.get_cost_model("charger-dc60-2025")}
        for i, spec in enumerate(inputs.inline_models(self.seed)):
            schedule = cost.DiscountSchedule(spec["discount"])
            self.models[i] = cost.CostModel(
                per_item_main=spec["per_item_main"],
                per_item_prosumer=spec["per_item_prosumer"],
                discount=schedule,
                smooth=cost.fit_smooth_discount(schedule),
                horizon_years=spec["horizon_years"],
            )
        self._params = {}

    def make_pass(self, index):
        ops = []
        for i, sc in enumerate(inputs.design_random_pass(self.seed, index)):
            key = f"{index}-{i}"
            self._params[key] = qos.ScenarioParams(*sc["params"])
            ops.append(Op(f"random-{key}", (key, sc["model"])))
        return ops

    def resolve(self, op):
        key, model = op.args
        return self._params[key], self.models[model]


class Partition:
    """Best-effort rows x {maximize, equalize} x seeds, record=False."""

    name = "partition"
    reference = "kernel"
    pass_s = 6.2            # nominal seconds per pass, see run.passes

    def __init__(self, seed):
        self.seed = seed
        self._oracles = {}

    def setup(self):
        # The built-in car scenarios carry the best-effort rows' parameters.
        self.params = {n: scenarios.load_scenario(f"car-n{n}").params
                       for n, _, _ in inputs.BEST_EFFORT_ROWS}

    def make_pass(self, index):
        return [Op(f"{problem}-n{row[0]}", (row, problem, seed))
                for row, problem, seed in inputs.partition_pass(self.seed, index)]

    def execute(self, op):
        (n, m, t), problem, seed = op.args
        params = self.params[n]
        config = aimd.auto_config(problem, m, t, params, seed=seed)
        return aimd.run_partition(problem, params, m, t, config, record=False)

    def oracle(self, op):
        (n, m, t), problem, _ = op.args
        if op.kind not in self._oracles:
            self._oracles[op.kind] = aimd.scan_oracle(problem, self.params[n], m, t)[0]
        return self._oracles[op.kind]

    def check(self, result):
        (n, m, t), problem, _ = result.op.args
        value = result.value
        if isinstance(value, BaseException):
            return "error", f"raised {value!r}"
        trace, q_star, _ = value
        result.info = {"iterations": trace.total_iterations,
                       "events": trace.capacity_count,
                       "converged": trace.converged_at is not None}
        if trace.converged_at is None:
            return "error", "not converged"
        if not 0 <= q_star <= min(m, t):
            return "error", f"q_star {q_star} outside [0, {min(m, t)}]"
        q_oracle = self.oracle(result.op)
        if abs(q_star - q_oracle) > Q_STAR_LIMIT:
            return "miss", f"q_star {q_star} vs oracle {q_oracle}"
        return "ok", ""

    def warmup(self):
        n, m, t = inputs.BEST_EFFORT_ROWS[0]
        self.execute(Op("warmup", ((n, m, t), "maximize", 0)))


def _parse(pattern, text, cast=int):
    match = re.search(pattern, text, re.MULTILINE)
    if match is None:
        raise ValueError(f"no match for {pattern!r}")
    return tuple(cast(g) for g in match.groups())


class Cli:
    """Fresh ``surgeshare`` processes, one at a time (closed loop)."""

    name = "cli"
    reference = "process"
    pass_s = 9.3            # nominal seconds per pass, see run.passes

    def __init__(self, seed, root, workdir):
        self.seed = seed
        self.root = root
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self._expected = {}

    def setup(self):
        spec = inputs.cli_inline_scenario(self.seed)
        self.ini = os.path.join(self.workdir, "inline.ini")
        n, p_ns, p_s, p_b, t_ns, t_s, t_b = spec["params"]
        model = spec["model"]
        discount = ", ".join(f"{q}:{d}" for q, d in model["discount"])
        with open(self.ini, "w") as fh:
            fh.write(
                "[scenario]\nname = bench-inline\n\n[params]\n"
                f"n_consumers = {n}\np_nonsurge = {p_ns}\np_surge = {p_s}\n"
                f"p_bad = {p_b}\nqos_target_ns = {t_ns}\nqos_target_s = {t_s}\n"
                f"qos_target_b = {t_b}\n\n[cost_model]\n"
                f"per_item_main = {model['per_item_main']}\n"
                f"per_item_prosumer = {model['per_item_prosumer']}\n"
                f"horizon_years = {model['horizon_years']}\ndiscount = {discount}\n")
        self.scenarios = {name: scenarios.load_scenario(name) for name in
                          (inputs.CLI_BUILTIN_SCENARIO, self.ini,
                           f"car-n{inputs.CLI_PARTITION_ROW[0]}")}

    def make_pass(self, index):
        return [Op(kind, (argv,)) for kind, argv in inputs.cli_pass(self.seed, index)]

    def command(self, op, run_id, trace_file=None):
        outdir = os.path.join(self.workdir, f"op-{run_id}")
        argv = [a.format(ini=self.ini, outdir=outdir) for a in op.args[0]]
        if trace_file is None:
            prefix = ["-c", "from surgeshare.cli import main; main()"]
        else:
            prefix = [CLI_CHILD, trace_file, str(run_id)]
        return [sys.executable, *prefix, *argv], outdir

    def execute(self, op, run_id=0, trace_file=None):
        cmd, outdir = self.command(op, run_id, trace_file)
        os.makedirs(outdir, exist_ok=True)
        proc = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
        return proc, outdir

    def expected(self, key, compute):
        if key not in self._expected:
            self._expected[key] = compute()
        return self._expected[key]

    def check(self, result):
        if isinstance(result.value, BaseException):
            return "error", f"raised {result.value!r}"
        proc, outdir = result.value
        try:
            return getattr(self, "_check_" + result.op.kind.replace("-", "_"))(
                result, proc, outdir)
        except (ValueError, OSError, KeyError) as exc:
            return "error", f"exit {proc.returncode}: {exc}; stderr {proc.stderr[-200:]!r}"
        finally:
            for name in os.listdir(outdir):
                os.remove(os.path.join(outdir, name))
            os.rmdir(outdir)

    @staticmethod
    def _flag(argv, flag):
        return argv[argv.index(flag) + 1]

    def _check_qos(self, result, proc, outdir):
        argv = result.op.args[0]
        params = qos.ScenarioParams(1000, 0.1, 0.3, 0.01)
        m, t, q = (int(self._flag(argv, f)) for f in ("--m", "--t", "--q"))
        rep = qos.qos_all(params, m, t, q)
        want = (f"qos_ns = {rep.qos_ns:.6f}\nqos_s  = {rep.qos_s:.6f}\n"
                f"qos_b  = {rep.qos_b:.6f}\n")
        if proc.returncode != 0 or proc.stdout != want:
            return "error", f"exit {proc.returncode}, stdout {proc.stdout!r}"
        return "ok", ""

    def _design_expectation(self, name):
        sc = self.scenarios[name]
        try:
            rep = solver.solve_min_cost(sc.params, sc.cost_model, sc.solver)
        except solver.InfeasibleDesignError:
            return None, 1
        oracle = solver.brute_force_design(sc.params, sc.cost_model)
        gap = (rep.cost_real - oracle.cost_real) / oracle.cost_real
        return rep.design, 0 if gap <= sc.solver.optimality_gap else 1

    def _check_design(self, name, proc):
        design, code = self.expected(("design", name), lambda: self._design_expectation(name))
        if design is None:
            got = None if proc.stderr.startswith("infeasible:") else proc.stdout
        else:
            got = solver.Design(*_parse(r"^M = (\d+)  T = (\d+)  Q = (\d+)$", proc.stdout))
        if proc.returncode != code or got != design:
            return "error", f"exit {proc.returncode} (want {code}), {got} vs {design}"
        return "ok", ""

    def _check_design_builtin(self, result, proc, outdir):
        return self._check_design(inputs.CLI_BUILTIN_SCENARIO, proc)

    def _check_design_inline(self, result, proc, outdir):
        return self._check_design(self.ini, proc)

    def _check_compare(self, result, proc, outdir):
        sc = self.scenarios[inputs.CLI_BUILTIN_SCENARIO]
        table = self.expected("compare", lambda: solver.compare_approaches(
            sc.params, sc.cost_model))
        if proc.returncode != 0:
            return "error", f"exit {proc.returncode}"
        for label, rep in table.items():
            got = _parse(rf"^{label}\s+M=\s*(\d+) T=\s*(\d+) Q=\s*(\d+)", proc.stdout)
            if solver.Design(*got) != rep.design:
                return "error", f"{label}: {got} vs {rep.design}"
        return "ok", ""

    def _check_sweep(self, result, proc, outdir):
        argv = result.op.args[0]
        grid = tuple(float(g) for g in self._flag(argv, "--grid").split(","))
        sc = self.scenarios[inputs.CLI_BUILTIN_SCENARIO]
        points = self.expected(("sweep", grid), lambda: solver.sweep_cost_vs_qos(
            sc.params, sc.cost_model, grid))
        if proc.returncode != 0:
            return "error", f"exit {proc.returncode}"
        with open(os.path.join(outdir, self._flag(argv, "--output"))) as fh:
            rows = list(csv.DictReader(fh))
        want = [(pt.design.m, pt.design.t, pt.design.q) if pt.design else None
                for pt in points]
        got = [(int(r["M"]), int(r["T"]), int(r["Q"])) if r["M"] else None for r in rows]
        if got != want:
            return "error", f"sweep designs {got} vs {want}"
        return "ok", ""

    def _check_partition_record(self, result, proc, outdir):
        argv = result.op.args[0]
        n, m, t = inputs.CLI_PARTITION_ROW
        if proc.returncode != 0:
            return "error", f"exit {proc.returncode}"
        (q_star,) = _parse(r"^q_star = (\d+)$", proc.stdout)
        events, iterations = _parse(
            r"^capacity_events = (\d+)  iterations = (\d+)$", proc.stdout)
        with open(os.path.join(outdir, self._flag(argv, "--output")), "rb") as fh:
            rows = sum(1 for _ in fh) - 1
        result.info = {"iterations": iterations, "events": events, "rows": rows}
        if rows != iterations:
            return "error", f"trace CSV has {rows} rows for {iterations} iterations"
        params = self.scenarios[f"car-n{n}"].params
        q_oracle = self.expected("oracle", lambda: aimd.scan_oracle(
            "equalize", params, m, t)[0])
        if abs(q_star - q_oracle) > Q_STAR_LIMIT:
            return "miss", f"q_star {q_star} vs oracle {q_oracle}"
        return "ok", ""

    def warmup(self):
        op = Op("qos", (["qos", "--m", "120", "--t", "216", "--q", "6"],))
        os.rmdir(self.execute(op, run_id=-1)[1])


def make(name, seed, root, workdir):
    """Build the workload object; ``setup`` is left to the caller to time."""
    if name == "design-table":
        return DesignTable(seed)
    if name == "design-random":
        return DesignRandom(seed)
    if name == "partition":
        return Partition(seed)
    if name == "cli":
        return Cli(seed, root, workdir)
    raise ValueError(f"unknown workload {name!r}; expected one of {inputs.WORKLOADS}")
