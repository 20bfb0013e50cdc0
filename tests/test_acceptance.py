"""Acceptance suite: one test (and one pass/fail line) per criterion.

Run with ``pytest -v`` to get the per-criterion PASSED/FAILED lines;
each test also prints an ``ACCEPTANCE n: PASS`` summary line visible
with ``-s`` or on failure.
"""

import math
import statistics
import time

import numpy as np

from surgeshare import (
    auto_config,
    binom_cdf,
    binom_cdf_cont,
    binom_pmf_cont,
    brute_force_design,
    cli,
    compare_approaches,
    load_scenario,
    min_items_for_qos,
    normal_approx_reserve,
    qos_all,
    run_partition,
    scan_oracle,
    solve_min_cost,
)

# The minimum-cost tables and their tolerances are the goldens bundled
# with the package, which ``surgeshare reproduce`` checks the same way.
USES = ("car", "charger")

# (N, M, T, Q*_max, QoS%(s, b) max, Q*_eq, QoS%(s, b) eq)
BEST_EFFORT_ROWS = [
    (1000, 120, 215, 7, (97.47, 99.84), 5, (98.17, 97.8)),
    (5000, 545, 1040, 20, (97.81, 99.76), 17, (98.24, 98.04)),
    (10000, 1060, 2065, 34, (97.68, 99.77), 30, (98.12, 98.07)),
    (50000, 5150, 10200, 133, (98.3, 99.87), 124, (98.64, 98.54)),
]


def _finish(criterion, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status}")
    assert not failures, f"criterion {criterion}: " + "; ".join(failures)


def _check_table(use):
    failures = []
    for scenario, row in cli._golden_table(use):
        start = time.perf_counter()
        rep = solve_min_cost(scenario.params, scenario.cost_model)
        elapsed = time.perf_counter() - start
        failures += [f"{scenario.name}: {miss}" for miss in cli._golden_misses(rep, row)]
        if elapsed > 10.0:
            failures.append(f"{scenario.name}: runtime {elapsed:.1f}s > 10s")
    return failures


def test_criterion_1_car_minimum_cost_table():
    _finish(1, _check_table("car"))


def test_criterion_2_charger_minimum_cost_table():
    failures = _check_table("charger")
    # The table also reports the per-consumer figure for the first row.
    scenario = load_scenario("charger-n1000-98")
    rep = solve_min_cost(scenario.params, scenario.cost_model)
    if abs(rep.cost_per_consumer - 28.56) > 0.05 * 28.56:
        failures.append(f"per-consumer {rep.cost_per_consumer:.2f} vs 28.56")
    _finish(2, failures)


def test_criterion_3_oracle_equivalence():
    # The oracle prices every (M, T) with linear searches and shares only
    # the QoS rule and the cost formula with the solver, so it checks the
    # galloping pointer, the one design per pool below A_s and the band
    # marks priced per stretch at N up to 5e4.  It has an early exit of
    # its own, by the same bound.
    failures = []
    for use in USES:
        for scenario, _ in cli._golden_table(use):
            params, model = scenario.params, scenario.cost_model
            start = time.perf_counter()
            oracle = brute_force_design(params, model)
            elapsed = time.perf_counter() - start
            print(f"{scenario.name}: oracle {elapsed:.3f}s")
            solved = solve_min_cost(params, model)
            if (solved.design, solved.cost_real) != (oracle.design, oracle.cost_real):
                failures.append(f"{scenario.name}: solver {solved.design} at "
                                f"{solved.cost_real!r}, oracle {oracle.design} at "
                                f"{oracle.cost_real!r}")
            if elapsed > 60.0:
                failures.append(f"{scenario.name}: oracle {elapsed:.1f}s > 60s")
    _finish(3, failures)


def test_criterion_4_best_effort_table():
    failures = []
    for n, m, t, q_max, qos_max, q_eq, qos_eq in BEST_EFFORT_ROWS:
        params = load_scenario(f"car-n{n}").params
        for problem, q_ref, qos_ref in (("maximize", q_max, qos_max),
                                        ("equalize", q_eq, qos_eq)):
            q_oracle, _ = scan_oracle(problem, params, m, t)
            label = f"{problem} N={n}"
            if abs(q_oracle - q_ref) > 1:
                failures.append(f"{label}: oracle {q_oracle} vs {q_ref}")
            rep = qos_all(params, m, t, q_ref)
            if abs(rep.qos_s * 100 - qos_ref[0]) > 1.0:
                failures.append(f"{label}: qos_s {rep.qos_s * 100:.2f} vs {qos_ref[0]}")
            if abs(rep.qos_b * 100 - qos_ref[1]) > 1.0:
                failures.append(f"{label}: qos_b {rep.qos_b * 100:.2f} vs {qos_ref[1]}")
            q_stars = []
            for seed in range(20):
                config = auto_config(problem, m, t, params, seed=seed)
                start = time.perf_counter()
                _, q_star, _ = run_partition(problem, params, m, t, config,
                                             record=False)
                elapsed = time.perf_counter() - start
                q_stars.append(q_star)
                if elapsed > 30.0:
                    failures.append(f"{label}: seed {seed} took {elapsed:.1f}s > 30s")
            median = statistics.median(q_stars)
            if abs(median - q_oracle) > 1:
                failures.append(
                    f"{label}: AIMD median {median} vs oracle {q_oracle}")
    _finish(4, failures)


def test_criterion_5_b2c_comparison():
    failures = []
    if abs(min_items_for_qos(1000, 0.3, 0.98) - 330) > 1:
        failures.append("car surge pool != 330 +- 1")
    if abs(min_items_for_qos(1000, 0.015, 0.98) - 23) > 1:
        failures.append("charger surge pool != 23 +- 1")
    for use in USES:
        for scenario, _ in cli._golden_table(use):
            table = compare_approaches(scenario.params, scenario.cost_model)
            if not (table["hybrid"].cost_real < table["b2c"].cost_real
                    < table["ownership"].cost_real):
                failures.append(f"ordering broken at {scenario.name}")
    _finish(5, failures)


def test_criterion_6_property_suites():
    failures = []
    rng = np.random.default_rng(20240817)

    # cdf bounds and monotonicity on 1000 random triples.
    for _ in range(1000):
        n = int(rng.integers(1, 2000))
        a = int(rng.integers(-2, n + 3))
        p = float(rng.uniform(0.001, 0.999))
        v = binom_cdf(a, n, p)
        if not (0.0 <= v <= 1.0 and binom_cdf(a + 1, n, p) >= v):
            failures.append(f"cdf property broken at ({a}, {n}, {p})")
            break

    # pmf normalization for n up to 10,000.
    for n, p in ((1000, 0.005), (10000, 0.01), (5000, 0.1), (2000, 0.3)):
        total = math.fsum(binom_pmf_cont(float(k), n, p) for k in range(n + 1))
        if abs(total - 1.0) > 1e-9:
            failures.append(f"pmf normalization off at n={n}, p={p}: {total}")

    # Continuous extension agrees at integers to 1e-10.
    for n, p in ((10, 0.5), (215, 0.01), (2000, 0.1)):
        for a in range(0, n + 1, max(1, n // 211)):
            if abs(binom_cdf_cont(float(a), n, p) - binom_cdf(a, n, p)) > 1e-10:
                failures.append(f"cdf_cont mismatch at ({a}, {n}, {p})")
                break

    # qos_s depends only on m - q + t.
    params = load_scenario("car-n1000-98").params
    base = qos_all(params, 120, 216, 6).qos_s
    for delta in (-20, -1, 3, 40):
        if abs(qos_all(params, 120 + delta, 216 - delta, 6).qos_s - base) > 1e-12:
            failures.append(f"qos_s invariance broken at delta={delta}")

    # Normal approximation within one item of the exact minimum reserve.
    for p_b in (0.01, 0.05, 0.15):
        for t in (50, 103, 517, 2000, 7919, 20000):
            exact = min_items_for_qos(t, p_b, 0.98)
            approx = math.ceil(normal_approx_reserve(t, p_b, 0.98))
            if abs(exact - approx) > 1:
                failures.append(f"reserve approx off at T={t}, p_b={p_b}")

    # AIMD trace invariants and bit-reproducibility.
    for problem in ("maximize", "equalize"):
        config = auto_config(problem, 120, 215, params, seed=3)
        trace, _, _ = run_partition(problem, params, 120, 215, config)
        events = trace.events
        if not events:
            failures.append(f"{problem}: no capacity event recorded")
            continue
        z, q = (c.tolist() for c in trace.claims())
        bound = 120 + 2 * config.alpha
        if any(z[l] + q[l] >= bound for l in range(events[0], len(z))):
            failures.append(f"{problem}: capacity bound violated")
        z_bar = q_bar = 0.0
        for k, l in enumerate(events, start=1):
            z_bar += (z[l] - z_bar) / k
            q_bar += (q[l] - q_bar) / k
            if (abs(trace.z_avg_events[k - 1] - z_bar) > 1e-9
                    or abs(trace.q_avg_events[k - 1] - q_bar) > 1e-9):
                failures.append(f"{problem}: average recursion broken at event {k}")
                break
        repeat, _, _ = run_partition(problem, params, 120, 215, config)
        if [c.tolist() for c in repeat.claims()] != [z, q]:
            failures.append(f"{problem}: seeded trace not bit-identical")

    _finish(6, failures)
