"""Seeded input generation for the benchmark workloads.

Pure Python (``random.Random``), so a fresh interpreter can build its
inputs before timing ``import surgeshare`` without numpy already being
loaded.  Every function returns plain data: scenario names, parameter
tuples, discount schedules and command lines.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("design-table", "design-random", "partition", "cli")

# Golden rows of the two minimum-cost tables (the ``reproduce`` path).
GOLDEN_USES = ("car", "charger")
GOLDEN_NS = (1000, 5000, 10000, 50000)
GOLDEN_PCTS = (98, 99)
GOLDEN_SCENARIOS = tuple(
    f"{use}-n{n}-{pct}" for use in GOLDEN_USES for n in GOLDEN_NS for pct in GOLDEN_PCTS
)

# Best-effort rows of acceptance criterion 4: (N, M, T) of the car scenarios.
BEST_EFFORT_ROWS = ((1000, 120, 215), (5000, 545, 1040),
                    (10000, 1060, 2065), (50000, 5150, 10200))
PROBLEMS = ("maximize", "equalize")

# design-random: scenarios per pass, of which one has a target of exactly 1.
RANDOM_PER_PASS = 16
RANDOM_N_RANGE = (20, 3000)
RANDOM_INLINE_MODELS = 3

# cli: the recorded equalize run uses the smallest best-effort row.
CLI_TRACE_KIND = "partition-record"
CLI_BUILTIN_SCENARIO = "charger-n1000-98"
CLI_INLINE_N = 150
CLI_PARTITION_ROW = BEST_EFFORT_ROWS[0]


def _rng(seed: int, stream: str, index: int = 0) -> random.Random:
    # One independent stream per (seed, purpose, pass) so that running
    # more passes never changes the inputs of earlier ones.
    return random.Random(f"{seed}:{stream}:{index}")


def concave_schedule(rng: random.Random) -> tuple:
    """A volume-discount schedule shaped like the built-ins.

    (1, 0) plus 2-5 steps: the first from 2-20 items, each later one
    2-4x further out, with shrinking increments capped at 35%.
    """
    qty, inc, frac = rng.randint(2, 20), rng.uniform(0.02, 0.1), 0.0
    steps = [(1, 0.0)]
    for _ in range(rng.randint(2, 5)):
        frac = round(min(frac + inc, 0.35), 3)
        steps.append((qty, frac))
        qty, inc = int(qty * rng.uniform(2.0, 4.0)) + 1, inc * rng.uniform(0.4, 0.9)
    return tuple(steps)


def accelerating_schedule(rng: random.Random) -> tuple:
    """A schedule whose discount grows faster with quantity.

    The first step lies at 100-400 items and the increments grow.  The
    exponential-decay fit has no interior optimum for this shape, so
    ``fit_smooth_discount`` runs its searches to their iteration limit.
    """
    qty, inc, frac = rng.randint(100, 400), rng.uniform(0.01, 0.04), 0.0
    steps = [(1, 0.0)]
    for _ in range(rng.randint(2, 4)):
        frac = round(min(frac + inc, 0.35), 3)
        steps.append((qty, frac))
        qty, inc = int(qty * rng.uniform(1.2, 1.6)) + 1, inc * rng.uniform(1.5, 2.5)
    return tuple(steps)


def _inline_model(rng: random.Random, schedule) -> dict:
    return {
        "per_item_main": round(rng.uniform(500.0, 30000.0), 2),
        "per_item_prosumer": round(rng.uniform(50.0, 3000.0), 2),
        "horizon_years": rng.choice((1, 10)),
        "discount": schedule(rng),
    }


def inline_models(seed: int) -> list:
    """Inline cost models of design-random, fitted during set-up.

    Two built-in-like schedules and one accelerating one, so every run
    pays the slow fit exactly once.
    """
    rng = _rng(seed, "inline-models")
    return [_inline_model(rng, shape) for shape in
            (concave_schedule, concave_schedule, accelerating_schedule)]


def design_table_pass(seed: int, index: int) -> list:
    """The 16 golden rows in a seed-dependent order."""
    rows = list(GOLDEN_SCENARIOS)
    _rng(seed, "design-table", index).shuffle(rows)
    return rows


def _strata(rng: random.Random, k: int) -> list:
    """k points in [0, 1), one in each k-th of the range, in random order."""
    order = list(range(k))
    rng.shuffle(order)
    return [(s + rng.random()) / k for s in order]


def design_random_pass(seed: int, index: int) -> list:
    """RANDOM_PER_PASS scenarios, a Latin hypercube over the inputs.

    Each scenario is a dict with ``params`` (the seven ScenarioParams
    fields in order) and ``model`` ("car", "charger" or an index into
    ``inline_models``).  Every input (log N, p_surge, the p_nonsurge
    ratio, p_bad and each target's log shortfall) takes one value in each
    k-th of its range, and the models are dealt out evenly.  That keeps
    the amount of work per pass alike across seeds while no two scenarios
    share their inputs.
    """
    rng = _rng(seed, "design-random", index)
    k = RANDOM_PER_PASS
    lo, hi = (math.log(v) for v in RANDOM_N_RANGE)
    log_n, surge, ratio, bad, *shortfalls = (_strata(rng, k) for _ in range(7))
    models = (["car", "charger"] + list(range(RANDOM_INLINE_MODELS))) * k
    models = models[:k]
    rng.shuffle(models)
    exact_one = rng.randrange(k)
    out = []
    for i in range(k):
        n = int(round(math.exp(lo + (hi - lo) * log_n[i])))
        p_surge = 0.02 + 0.93 * surge[i]
        p_nonsurge = p_surge * (0.1 + 0.8 * ratio[i])
        p_bad = 0.002 + 0.198 * bad[i]
        targets = [1.0 - 10.0 ** (-1.0 - 2.0 * u[i]) for u in shortfalls]
        if i == exact_one:
            targets[rng.randrange(3)] = 1.0
        out.append({
            "params": (n, p_nonsurge, p_surge, p_bad, *targets),
            "model": models[i],
        })
    return out


def partition_pass(seed: int, index: int) -> list:
    """(row, problem, AIMD seed) for every best-effort row and problem."""
    rng = _rng(seed, "partition", index)
    runs = [(row, problem, rng.randrange(2**31))
            for row in BEST_EFFORT_ROWS for problem in PROBLEMS]
    rng.shuffle(runs)
    return runs


def cli_inline_scenario(seed: int) -> dict:
    """The scenario written to an INI file with an inline cost model.

    N is fixed and the target drawn from a narrow range: the solve time
    grows with both, and this one command should not decide a run's time.
    """
    rng = _rng(seed, "cli-inline")
    target = round(rng.uniform(0.965, 0.975), 3)
    return {
        "params": (CLI_INLINE_N, 0.1, 0.3, 0.01, target, target, target),
        "model": _inline_model(rng, concave_schedule),
    }


def cli_pass(seed: int, index: int) -> list:
    """One closed-loop cycle: (kind, argument list) per command.

    Output paths are relative to the work directory given to the command
    through ``--outdir``; ``{ini}`` and ``{outdir}`` are filled in by the
    runner.
    """
    rng = _rng(seed, "cli", index)
    n, m, t = CLI_PARTITION_ROW
    grid = [round(0.9 + 0.0225 * (i + rng.random()), 3) for i in range(4)]
    cmds = [
        ("qos", ["qos", "--n", "1000", "--p-ns", "0.1", "--p-s", "0.3", "--p-b", "0.01",
                 "--m", str(rng.randint(110, 130)), "--t", str(rng.randint(200, 230)),
                 "--q", str(rng.randint(3, 9))]),
        ("design-builtin", ["design", "--scenario", CLI_BUILTIN_SCENARIO]),
        ("design-inline", ["design", "--scenario", "{ini}"]),
        ("compare", ["compare", "--scenario", CLI_BUILTIN_SCENARIO]),
        ("sweep", ["sweep", "--scenario", CLI_BUILTIN_SCENARIO, "--axis", "qos",
                   "--grid", ",".join(str(g) for g in grid),
                   "--outdir", "{outdir}", "--output", f"sweep-{index}.csv"]),
        (CLI_TRACE_KIND, ["partition", "--scenario", f"car-n{n}", "--m", str(m),
                          "--t", str(t), "--problem", "equalize",
                          "--seed", str(rng.randrange(2**31)),
                          "--outdir", "{outdir}", "--output", f"trace-{index}.csv"]),
    ]
    rng.shuffle(cmds)
    return cmds
