"""Self-tests of the benchmark itself; each finishes in seconds.

Run from the repository root:  python3 perfbench/selftest.py
"""

import contextlib
import dataclasses
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from surgeshare import aimd, solver  # noqa: E402
from tracer import Tracer  # noqa: E402

# One cheap operation per workload, in place of the full passes.
SMALL_PASSES = {
    "design_table_pass": lambda seed, index: ["charger-n1000-98"],
    "design_random_pass": lambda seed, index: [
        {"params": (60, 0.05, 0.4, 0.05, 0.95, 0.95, 0.95), "model": 0}],
    "partition_pass": lambda seed, index: [(inputs.BEST_EFFORT_ROWS[0], "maximize", 7)],
    "cli_pass": lambda seed, index: [
        ("qos", ["qos", "--m", "120", "--t", "216", "--q", "6", "--n", "1000",
                 "--p-ns", "0.1", "--p-s", "0.3", "--p-b", "0.01"])],
}


@contextlib.contextmanager
def small_passes():
    saved = {name: getattr(inputs, name) for name in SMALL_PASSES}
    for name, fn in SMALL_PASSES.items():
        setattr(inputs, name, fn)
    try:
        yield
    finally:
        for name, fn in saved.items():
            setattr(inputs, name, fn)


def run_small(workload, trace):
    """Run the benchmark in-process on one small pass; return (stdout, result)."""
    args = run.parse_args(["--workload", workload, "--seed", "3", "--seconds", "0.001",
                           "--trace", str(trace)])
    workdir = tempfile.mkdtemp(dir=os.path.join(HERE, "out"))
    out = io.StringIO()
    saved, run.SETUP_SAMPLES = run.SETUP_SAMPLES, 1
    try:
        with small_passes(), contextlib.redirect_stdout(out):
            run.run(args, workdir)
    finally:
        run.SETUP_SAMPLES = saved
        shutil.rmtree(workdir, ignore_errors=True)
    text = out.getvalue()
    return text, json.loads(text.strip().splitlines()[-1])


class MetricsEmitted(unittest.TestCase):
    def test_benchmark_json_matches_the_code(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(inputs.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
                         list(run.PER_LAYER))

    def test_every_metric_has_value_unit_and_count(self):
        named = {
            "design-table": ("designs_per_s", "design_s_p50", "design_fail_frac"),
            "design-random": ("designs_per_s", "design_s_p50", "design_fail_frac"),
            "partition": ("partition_eq_s_p50", "partition_max_s_p50",
                          "partition_hit_frac", "partition_fail_frac"),
            "cli": ("cli_light_s_p50", "cli_trace_s_p50", "cli_fail_frac"),
        }
        for workload in inputs.WORKLOADS:
            with self.subTest(workload=workload):
                text, result = run_small(workload, trace=0)
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertGreaterEqual(result["attempted"], 1)
                for name, unit, _ in run.END_TO_END:
                    self.assertEqual(result["metrics"][name]["unit"], unit)
                    self.assertIsInstance(result["metrics"][name]["value"], float)
                for name in [n for n, _, _ in run.END_TO_END] + list(named[workload]):
                    self.assertRegex(text, rf"\n  {name} +\S+ +\S+ +n=\d+\n")

    def test_traced_run_reports_every_layer_metric_and_repeats_counts(self):
        for workload, busy in (("design-table", "solver.solve_min_cost.calls"),
                               ("cli", "cli.cli_dispatch.calls")):
            with self.subTest(workload=workload):
                first = run_small(workload, trace=1)[1]["metrics"]
                second = run_small(workload, trace=1)[1]["metrics"]
                self.assertEqual(list(first), [n for n, _, _ in run.PER_LAYER])
                counts = [n for n, unit, _ in run.PER_LAYER if unit == "count"]
                self.assertEqual({n: first[n]["value"] for n in counts},
                                 {n: second[n]["value"] for n in counts})
                self.assertGreater(first["qos.binom_cdf.calls"]["value"], 0)
                self.assertGreater(first[busy]["value"], 0)


class FixedWork(unittest.TestCase):
    def test_seed_and_seconds_fix_the_operations(self):
        for workload in inputs.WORKLOADS:
            with self.subTest(workload=workload):
                wl = workloads.make(workload, 5, ROOT, HERE)
                self.assertEqual(run.passes(wl, 0.001), 1)
                self.assertEqual(run.passes(wl, 4 * wl.pass_s), 4)
        self.assertEqual(inputs.design_random_pass(5, 2), inputs.design_random_pass(5, 2))
        self.assertNotEqual(inputs.design_random_pass(5, 2), inputs.design_random_pass(6, 2))

    def test_normalised_time_scales_with_the_reference(self):
        nominal = reference.NOMINAL_S["kernel"]
        self.assertAlmostEqual(run.normalise(2.0, nominal, "kernel"), 2.0)
        self.assertAlmostEqual(run.normalise(2.0, 2 * nominal, "kernel"), 1.0)
        self.assertGreater(reference.timed("kernel"), 0.0)


class PlantedFailures(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.table = workloads.DesignTable(0)
        cls.table.setup()

    def judge(self, workload, op, value):
        result = workloads.Result(op, 0, 0.0, value)
        return workload.check(result)

    def test_golden_row_with_one_item_less_fails(self):
        op = workloads.Op("charger-n1000-98", ("charger-n1000-98",))
        good = self.table.execute(op)
        self.assertEqual(self.judge(self.table, op, good)[0], "ok")
        d = good.design
        bad = dataclasses.replace(good, design=solver.Design(d.m - 1, d.t, d.q))
        status, detail = self.judge(self.table, op, bad)
        self.assertEqual(status, "error", detail)
        self.assertEqual(run.tally([workloads.Result(op, 0, 0.0, bad, status)]),
                         (False, 1, 1))

    def test_dearer_design_and_false_infeasibility_are_misses(self):
        op = workloads.Op("car-n1000-98", ("car-n1000-98",))
        params, model = self.table.resolve(op)
        oracle = solver.brute_force_design(params, model)
        dearer = dataclasses.replace(oracle, cost_real=oracle.cost_real * 1.02)
        self.assertEqual(workloads._design_status(params, dearer, oracle)[0], "miss")
        self.assertEqual(workloads._design_status(params, oracle, oracle)[0], "ok")
        refused = solver.InfeasibleDesignError("no design")
        self.assertEqual(workloads._design_status(params, refused, oracle)[0], "miss")
        # A golden row has a design, so refusing one breaks the table.
        self.assertEqual(self.judge(self.table, op, refused)[0], "error")
        results = [workloads.Result(op, 0, 0.0, None, "miss")]
        self.assertEqual(run.tally(results), (True, 1, 1))

    def test_q_star_off_by_three_fails(self):
        part = workloads.Partition(0)
        part.setup()
        op = workloads.Op("maximize-n1000", (inputs.BEST_EFFORT_ROWS[0], "maximize", 5))
        trace, q_star, rep = part.execute(op)
        self.assertEqual(self.judge(part, op, (trace, q_star, rep))[0], "ok")
        q_oracle = part.oracle(op)
        status, detail = self.judge(part, op, (trace, q_oracle + 3, rep))
        self.assertEqual(status, "miss", detail)
        unconverged = dataclasses.replace(trace, converged_at=None)
        self.assertEqual(self.judge(part, op, (unconverged, q_star, rep))[0], "error")


class TracerSelfTime(unittest.TestCase):
    def test_self_time_never_exceeds_duration(self):
        table = workloads.DesignTable(0)
        table.setup()
        tracer = Tracer()
        tracer.install()
        try:
            tracer.call(0, "bench.design-table", table.execute,
                        workloads.Op("charger-n1000-98", ("charger-n1000-98",)))
        finally:
            tracer.uninstall()
        self.assertEqual(tracer.self_time_violations(), [])
        root = tracer.stats["bench.design-table"]
        total_self = sum(stat[2] for stat in tracer.stats.values())
        self.assertAlmostEqual(total_self, root[1], delta=1e-6)
        self.assertFalse(hasattr(solver.feasible, "__wrapped__"))

    def test_child_spans_nest_under_the_root(self):
        tracer = Tracer()
        tracer.call(0, "bench.cli", lambda: None)
        before = tracer.stats["bench.cli"][2]
        start, end = tracer.spans[0][2], tracer.spans[0][3]
        child = [(0, "cli.cli_dispatch", start, start + (end - start) / 2, -1, 0.0)]
        tracer.merge({"cli.cli_dispatch": [1, 0.0, 0.0]}, child, root=0)
        self.assertEqual(tracer.spans[1][4], 0)
        self.assertAlmostEqual(tracer.stats["bench.cli"][2], before / 2)
        self.assertEqual(tracer.self_time_violations(), [])

    def test_missing_name_is_reported_absent(self):
        saved = aimd.scan_oracle
        del aimd.scan_oracle
        tracer = Tracer()
        try:
            tracer.install()
            tracer.uninstall()
        finally:
            aimd.scan_oracle = saved
        self.assertEqual(tracer.absent, ["aimd.scan_oracle"])


class WithoutThePackage(unittest.TestCase):
    def test_fails_without_sources(self):
        bare = tempfile.mkdtemp(dir=os.path.join(HERE, "out"))
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "partition", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60,
                env=dict(os.environ, PYTHONPATH=""))
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    unittest.main()
