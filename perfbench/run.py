"""surgeshare benchmark: run one workload, check its outputs, print metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload design-table --seed 1 --seconds 30 --trace 0

``--trace 0`` times a fixed number of whole passes of the workload, about
``--seconds`` of operations on the machine the pass lengths were measured
on, and reports the end-to-end metrics.  Times in the JSON line are
normalised by reference work timed next to each operation (see
``reference``); raw wall times are printed beside them.
``--trace 1`` runs pass 0 once untraced and once with the span tracer
installed and reports the per-layer metrics.  Human-readable lines come
first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller record
goes to ``perfbench/out/<workload>-seed<seed>-trace<t>.json``.  See
``perfbench/README.md`` for the workloads and metrics.
"""

import os

# Single-threaded BLAS/OpenMP here and in every child process; set before
# numpy is imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

import inputs  # noqa: E402
import reference  # noqa: E402
from setup_child import timed_setup  # noqa: E402
from tracer import LAYER_FUNCTIONS, Tracer  # noqa: E402

SETUP_SAMPLES = 3          # fresh-interpreter set-ups per run, median reported

# (name, unit, better) of the end-to-end metrics every --trace 0 run prints.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("op_s_gmean", "s", "lower"),
)


def _per_layer():
    rows = []
    for module, attr in LAYER_FUNCTIONS:
        rows.append((f"{module}.{attr}.calls", "count", "lower"))
        rows.append((f"{module}.{attr}.self_s", "s", "lower"))
    rows += [
        ("solver.relaxation_iters", "count", "lower"),
        ("solver.exact_frac", "fraction", "higher"),
        ("solver.gap_max", "fraction", "lower"),
        ("solver.oracle_s", "s", "lower"),
    ]
    for scenario in inputs.GOLDEN_SCENARIOS:
        rows.append((f"solver.solve_s.{scenario}", "s", "lower"))
        rows.append((f"solver.oracle_s.{scenario}", "s", "lower"))
    rows += [
        ("aimd.iterations", "count", "lower"),
        ("aimd.capacity_events", "count", "lower"),
        ("aimd.us_per_iteration", "us", "lower"),
        ("aimd.us_per_event", "us", "lower"),
        ("aimd.events_per_iteration", "ratio", "lower"),
        ("aimd.converged_frac", "fraction", "higher"),
        ("aimd.trace_rows", "count", "lower"),
        ("cli.import_s", "s", "lower"),
        ("trace.overhead_frac", "fraction", "lower"),
    ]
    return tuple(rows)


PER_LAYER = _per_layer()


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="operation time to measure with --trace 0")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# Running operations
# ---------------------------------------------------------------------------

class Runner:
    def __init__(self, workload, workdir, tracer=None):
        self.workload = workload
        self.workdir = workdir
        self.tracer = tracer
        self.next_run_id = 0
        reference.timed(workload.reference)  # warm-up

    def run_op(self, op, traced):
        import workloads  # imported by timed_setup, after the timed package import
        run_id = self.next_run_id
        self.next_run_id += 1
        wl = self.workload
        if wl.name == "cli":
            trace_file = os.path.join(self.workdir, f"spans-{run_id}.json") if traced else None
            args = (op, run_id, trace_file)
        else:
            trace_file, args = None, (op,)
        root = len(self.tracer.spans) if traced else -1
        start = time.perf_counter()
        try:
            if traced:
                value = self.tracer.call(run_id, f"bench.{wl.name}", wl.execute, *args)
            else:
                value = wl.execute(*args)
        except Exception as exc:  # counted as a failed operation, not fatal
            value = exc
        seconds = time.perf_counter() - start
        if trace_file is not None and os.path.exists(trace_file):
            with open(trace_file) as fh:
                child = json.load(fh)
            os.remove(trace_file)
            self.tracer.merge(child["stats"], child["spans"], root)
            self.tracer.absent.extend(n for n in child["absent"]
                                      if n not in self.tracer.absent)
        return workloads.Result(op, run_id, seconds, value)

    def run_pass(self, ops, traced=False):
        """Run ``ops`` in order with the workload's reference timed between them.

        Each result's ``ref_s`` is the mean of the reference times just
        before and just after it, and ``norm_s`` its time scaled by them.
        """
        kind = self.workload.reference
        results, before = [], reference.timed(kind)
        for op in ops:
            result = self.run_op(op, traced)
            after = reference.timed(kind)
            result.ref_s = (before + after) / 2
            result.norm_s = normalise(result.seconds, result.ref_s, kind)
            results.append(result)
            before = after
        return results

    def check(self, results):
        for result in results:
            result.status, result.detail = self.workload.check(result)

    def measure(self, seconds):
        """``passes(seconds)`` whole passes, each checked after it ends."""
        results = []
        for index in range(passes(self.workload, seconds)):
            batch = self.run_pass(self.workload.make_pass(index))
            self.check(batch)
            results += batch
        return results

    def measure_traced(self):
        """Pass 0 untraced, then traced; returns both result lists."""
        ops = self.workload.make_pass(0)
        untraced = self.run_pass(ops)
        self.tracer.install()
        try:
            traced = self.run_pass(ops, traced=True)
            if self.workload.name == "partition":
                # The checker's scan_oracle calls are traced too, once per
                # (row, problem), to report their self time.
                for op in ops:
                    self.workload.oracle(op)
        finally:
            self.tracer.uninstall()
        self.check(untraced)
        self.check(traced)
        return untraced, traced


def passes(workload, seconds):
    """The number of passes of a run of ``seconds``.

    It depends on nothing measured, so a seed always gives the same
    operations and the same checks.  ``workload.pass_s`` is the length of
    one pass on the machine of ``reference.NOMINAL_S``.
    """
    return max(1, int(seconds / workload.pass_s + 0.5))


def normalise(seconds, ref_s, kind):
    """``seconds`` scaled to the reference's nominal speed."""
    return seconds * reference.NOMINAL_S[kind] / ref_s


def setup_samples(args, workdir, count, before):
    """Set the workload up in ``count`` fresh interpreters, one at a time.

    Returns (import_s, setup_s) pairs normalised by the process reference
    timed before and after each child; ``before`` is the one timed last.
    """
    samples = []
    script = os.path.join(HERE, "setup_child.py")
    env = dict(os.environ, PYTHONPATH=SRC)
    for i in range(count):
        child_dir = os.path.join(workdir, f"setup-{i}")
        os.makedirs(child_dir)
        proc = subprocess.run(
            [sys.executable, script, args.workload, str(args.seed), child_dir],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True)
        after = reference.timed("process")
        sample = json.loads(proc.stdout.strip().splitlines()[-1])
        ref_s = (before + after) / 2
        samples.append((normalise(sample["import_s"], ref_s, "process"),
                        normalise(sample["setup_s"], ref_s, "process")))
        shutil.rmtree(child_dir)
        before = after
    return samples


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def _median(values):
    return statistics.median(values) if values else 0.0


def _frac(part, whole):
    return part / whole if whole else 0.0


def _kind_gmean(results, attr):
    """Geometric mean over operation kinds of each kind's median ``attr``."""
    by_kind = {}
    for r in results:
        by_kind.setdefault(r.op.kind, []).append(getattr(r, attr))
    return statistics.geometric_mean(_median(v) for v in by_kind.values())


def end_to_end(results, samples):
    """Metrics of the final JSON line: name -> (value, sample count)."""
    return {
        "setup_s": (_median([s for _, s in samples]), len(samples)),
        "op_s_gmean": (_kind_gmean(results, "norm_s"), len(results)),
    }


def wall_metrics(results):
    """Raw wall-time metrics, printed but not in the JSON line."""
    n = len(results)
    return {
        "op_wall_s_gmean": (_kind_gmean(results, "seconds"), "s", n),
        "ops_per_wall_s": (n / sum(r.seconds for r in results), "1/s", n),
        "ref_s_p50": (_median([r.ref_s for r in results]), "s", n),
    }


def workload_metrics(name, results):
    """Each workload's own metric names: name -> (value, unit, n)."""
    n = len(results)
    errors = sum(r.status == "error" for r in results)
    failed = sum(r.status != "ok" for r in results)
    seconds = [r.seconds for r in results]
    if name.startswith("design"):
        return {
            "designs_per_s": (n / sum(seconds), "1/s", n),
            "design_s_p50": (_median(seconds), "s", n),
            "design_fail_frac": (_frac(failed, n), "fraction", n),
        }
    if name == "partition":
        eq = [r.seconds for r in results if r.op.kind.startswith("equalize")]
        mx = [r.seconds for r in results if r.op.kind.startswith("maximize")]
        return {
            "partition_eq_s_p50": (_median(eq), "s", len(eq)),
            "partition_max_s_p50": (_median(mx), "s", len(mx)),
            "partition_hit_frac": (_frac(n - failed, n), "fraction", n),
            "partition_fail_frac": (_frac(errors, n), "fraction", n),
        }
    light = [r.seconds for r in results if r.op.kind != inputs.CLI_TRACE_KIND]
    heavy = [r.seconds for r in results if r.op.kind == inputs.CLI_TRACE_KIND]
    return {
        "cli_light_s_p50": (_median(light), "s", len(light)),
        "cli_trace_s_p50": (_median(heavy), "s", len(heavy)),
        "cli_fail_frac": (_frac(errors, n), "fraction", n),
    }


def per_layer(name, untraced, traced, tracer, samples):
    values = {}
    for module, attr in LAYER_FUNCTIONS:
        key = f"{module}.{attr}"
        values[f"{key}.calls"] = tracer.calls(key)
        values[f"{key}.self_s"] = tracer.self_s(key)
    infos = [r.info or {} for r in traced]
    design_infos = infos if name.startswith("design") else []
    gaps = [i["gap"] for i in design_infos if i["gap"] is not None]
    values["solver.relaxation_iters"] = sum(i["iterations"] for i in design_infos)
    values["solver.exact_frac"] = _frac(sum(g <= 1e-12 for g in gaps), len(design_infos))
    values["solver.gap_max"] = max(gaps, default=0.0)
    values["solver.oracle_s"] = sum(i["oracle_s"] for i in design_infos)
    rows = {r.op.kind: r for r in untraced} if name == "design-table" else {}
    for scenario in inputs.GOLDEN_SCENARIOS:
        row = rows.get(scenario)
        values[f"solver.solve_s.{scenario}"] = row.seconds if row else 0.0
        values[f"solver.oracle_s.{scenario}"] = row.info["oracle_s"] if row else 0.0
    aimd_runs = [i for i in infos if "events" in i]
    iterations = sum(i["iterations"] for i in aimd_runs)
    events = sum(i["events"] for i in aimd_runs)
    run_s = tracer.total_s("aimd.run_partition")
    values["aimd.iterations"] = iterations
    values["aimd.capacity_events"] = events
    values["aimd.us_per_iteration"] = 1e6 * _frac(run_s, iterations)
    values["aimd.us_per_event"] = 1e6 * _frac(run_s, events)
    values["aimd.events_per_iteration"] = _frac(events, iterations)
    values["aimd.converged_frac"] = _frac(sum(i.get("converged", True) for i in aimd_runs),
                                          len(aimd_runs))
    values["aimd.trace_rows"] = sum(i.get("rows", 0) for i in aimd_runs)
    values["cli.import_s"] = _median([i for i, _ in samples])
    values["trace.overhead_frac"] = (sum(r.norm_s for r in traced)
                                     / sum(r.norm_s for r in untraced) - 1.0)
    return values


def environment(args):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": git_sha(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "cache": "warm: setup_s and cli.import_s are warm file-cache numbers",
    }


def git_sha():
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------

def _line(name, value, unit, n=None):
    count = "" if n is None else f" n={n}"
    return f"  {name:<34} {value:>14.6g} {unit:<9}{count}".rstrip()


def tally(results):
    """(correct, attempted, failed): failed counts misses and errors alike."""
    failed = sum(r.status != "ok" for r in results)
    return not any(r.status == "error" for r in results), len(results), failed


def collect(args, workdir):
    """Set up, measure and check one workload; return what the report needs."""
    tracer = Tracer() if args.trace else None
    before = reference.timed("process")
    workload, import_s, setup_s = timed_setup(
        args.workload, args.seed, ROOT, workdir,
        before_setup=tracer.install if tracer else None)
    if tracer:
        tracer.uninstall()
    import surgeshare
    if not os.path.abspath(surgeshare.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: imported surgeshare from {surgeshare.__file__}, "
                         f"not from {SRC}")

    after = reference.timed("process")
    ref_s = (before + after) / 2
    # The traced set-up of this process is not a clean sample.
    samples = [] if args.trace else [(normalise(import_s, ref_s, "process"),
                                      normalise(setup_s, ref_s, "process"))]
    samples += setup_samples(args, workdir, SETUP_SAMPLES - len(samples), after)

    workload.warmup()
    runner = Runner(workload, workdir, tracer)
    if not args.trace:
        return runner.measure(args.seconds), None, samples, runner
    untraced, traced = runner.measure_traced()
    return untraced + traced, per_layer(args.workload, untraced, traced, tracer, samples), \
        samples, runner


def run(args, workdir):
    results, layer_values, samples, runner = collect(args, workdir)
    tracer = runner.tracer
    correct, attempted, failed = tally(results)
    env = environment(args)
    print(f"surgeshare benchmark: workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}")
    print("  env: " + ", ".join(f"{k}={env[k]}" for k in (
        "nproc", "cpu_model", "python", "numpy", "scipy", "git_sha")))
    print("  BLAS/OpenMP threads = 1; set-up and import times are warm-cache")

    record = {"env": env, "correct": correct, "attempted": attempted, "failed": failed}
    if args.trace:
        metrics = {name: {"value": layer_values[name], "unit": unit}
                   for name, unit, _ in PER_LAYER}
        print("  per-layer metrics (pass 0 traced; times include tracing overhead):")
        for name, m in metrics.items():
            print(_line(name, m["value"], m["unit"]))
        if tracer.absent:
            print("  absent (not defined by the package): " + ", ".join(tracer.absent))
        record.update(absent=tracer.absent, spans=tracer.spans,
                      self_time_violations=len(tracer.self_time_violations()))
    else:
        values = end_to_end(results, samples)
        metrics = {name: {"value": values[name][0], "unit": unit}
                   for name, unit, _ in END_TO_END}
        print("  end-to-end metrics (normalised to the reference's nominal speed):")
        for name, unit, _ in END_TO_END:
            print(_line(name, values[name][0], unit, values[name][1]))
        print("  raw wall-time metrics:")
        for name, (value, unit, n) in wall_metrics(results).items():
            print(_line(name, value, unit, n))
        named = workload_metrics(args.workload, results)
        print(f"  {args.workload} metrics:")
        for name, (value, unit, n) in named.items():
            print(_line(name, value, unit, n))
        record["workload_metrics"] = named
    print(f"  operations: {attempted} attempted, {failed} failed "
          f"({sum(r.status == 'miss' for r in results)} misses)")
    for r in results:
        if r.status != "ok":
            print(f"  {r.status}: {r.op.kind} (run {r.run_id}): {r.detail}")

    record.update(metrics=metrics, setup_samples=samples, operations=[
        {"run_id": r.run_id, "kind": r.op.kind, "seconds": r.seconds,
         "ref_s": r.ref_s, "norm_s": r.norm_s, "status": r.status, "detail": r.detail,
         "info": r.info} for r in results])
    out = os.path.join(HERE, "out", f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out, "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def pin_to_one_cpu():
    """Run this process and its children on one CPU of those allowed.

    The reference kernel and the operations it normalises, the CLI
    children included, then share the CPU whose speed drifts.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "surgeshare", "__init__.py")):
        print(f"perfbench: no surgeshare sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    pin_to_one_cpu()
    workdir = os.path.join(HERE, "out", f"work-{os.getpid()}")
    os.makedirs(workdir)
    try:
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
