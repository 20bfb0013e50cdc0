"""Unit tests for the minimum-cost design solver and its oracle."""

import dataclasses
import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest
from scipy import special
from hypothesis import example, given, settings
from hypothesis import strategies as st

from surgeshare import (
    CostModel,
    Design,
    DiscountSchedule,
    ScenarioParams,
    brute_force_design,
    car_cost_model,
    charger_cost_model,
    compare_approaches,
    feasible,
    min_items_for_qos,
    solve_min_cost,
)
from surgeshare import cli
from surgeshare import qos as qos_module
from surgeshare import solver as solver_module
from surgeshare.cost import cost_eval
from surgeshare.qos import _meets_target
from surgeshare.scenarios import load_scenario
from surgeshare.solver import _reserve_stretches, sweep_cost_vs_qos

CAR_1000 = ScenarioParams(1000, 0.1, 0.3, 0.01)
CHARGER_1000 = ScenarioParams(1000, 0.005, 0.015, 0.01)


def _empty_table():
    # The process-wide stretch ends that _reserve_stretches reuses.
    solver_module._reserve_ends.clear()


@pytest.fixture
def empty_table():
    """Start from an empty table of reserve stretch ends and leave one."""
    _empty_table()
    yield
    _empty_table()


def test_feasible_car_table_row():
    assert feasible(CAR_1000, Design(120, 216, 6))


def test_feasible_rejects_oversized_pool():
    assert not feasible(CAR_1000, Design(1001, 216, 6))


def test_feasible_at_the_structural_bounds():
    # A pool of exactly N; a surge supply M - Q + T of exactly N; and at
    # N = 1, M = T = Q = N, where every structural bound holds with
    # equality.
    assert feasible(CAR_1000, Design(1000, 0, 0))
    q = min_items_for_qos(880, 0.01, 0.98)
    assert feasible(CAR_1000, Design(1000 - 880 + q, 880, q))
    assert feasible(ScenarioParams(1, 0.5, 0.5, 0.5), Design(1, 1, 1))


def test_feasible_rejects_reserve_above_prosumers():
    assert not feasible(CAR_1000, Design(120, 5, 6))


def test_feasible_rejects_non_integer_design():
    # A fractional design is an error, not a design to judge.
    for d in (Design(120.5, 216, 6), Design(120, 216.0, 6), Design(120, 216, True)):
        with pytest.raises(TypeError, match="must be an integer"):
            feasible(CAR_1000, d)
    # Integers outside the structural bounds are infeasible, not errors.
    assert not feasible(CAR_1000, Design(-1, 216, 6))


def test_feasible_rejects_low_qos():
    assert not feasible(CAR_1000, Design(80, 216, 6))


def test_solver_car_1000():
    rep = solve_min_cost(CAR_1000, car_cost_model())
    d = rep.design
    assert abs(d.m - 120) <= 1 and abs(d.t - 216) <= 2 and abs(d.q - 6) <= 2
    assert rep.cost_real == pytest.approx(1.22e6, rel=0.02)
    assert feasible(CAR_1000, d)


def test_solver_charger_1000():
    rep = solve_min_cost(CHARGER_1000, charger_cost_model())
    d = rep.design
    assert (d.m, d.t, d.q) == (10, 14, 1)
    assert rep.cost_per_consumer == pytest.approx(28.56, rel=0.05)


def test_oracle_charger_1000():
    rep = brute_force_design(CHARGER_1000, charger_cost_model())
    assert (rep.design.m, rep.design.t, rep.design.q) == (10, 14, 1)


def test_oracle_vs_solver_car_5000():
    params = dataclasses.replace(CAR_1000, n_consumers=5000)
    oracle = brute_force_design(params, car_cost_model())
    solved = solve_min_cost(params, car_cost_model())
    assert solved.design == oracle.design
    assert solved.cost_real == oracle.cost_real


# Scenarios where an earlier SLSQP-based solver failed: a false
# "infeasible" at a target of exactly 1, and designs 2.08% and 11.49%
# dearer than the optimum.
@pytest.mark.parametrize("params, design, cost", [
    (ScenarioParams(200, 0.1, 0.3, 0.01, 1.0, 0.98, 0.98), (200, 0, 0), 1_105_000.0),
    (ScenarioParams(1250, 0.28832505484520066, 0.549251617513364, 0.1488147591118829,
                    0.9960510242139172, 1.0, 0.987156019713012),
     (403, 1025, 178), 4_686_575.0),
    (ScenarioParams(1606, 0.24826154995628547, 0.46613570359099116, 0.18080688287109103,
                    0.9134461292575824, 1.0, 0.9954618928929152),
     (422, 1493, 309), 5_914_750.0),
])
def test_solver_regressions(params, design, cost):
    rep = solve_min_cost(params, car_cost_model())
    assert (rep.design.m, rep.design.t, rep.design.q) == design
    assert rep.cost_real == pytest.approx(cost)


_targets = st.one_of(st.just(1.0), st.floats(0.5, 1.0, exclude_min=True))


def _cost_model(main, prosumer, schedule=((1, 0.0),)):
    return CostModel(float(main), float(prosumer), DiscountSchedule(schedule))


@st.composite
def _cost_models(draw):
    # Small integer prices make exact cost ties between designs common,
    # which exercises the (cost, M, T, Q) tie-break.
    quantities = sorted(draw(st.lists(st.integers(2, 300), max_size=4, unique=True)))
    fractions = sorted(draw(st.lists(st.integers(0, 40), min_size=len(quantities),
                                     max_size=len(quantities))))
    schedule = ((1, 0.0),) + tuple(zip(quantities, (f / 100 for f in fractions)))
    return _cost_model(draw(st.integers(1, 20)), draw(st.integers(1, 20)), schedule)


@st.composite
def _priced_models(draw):
    # Non-integer prices, the prosumer dearer or cheaper than a pool item:
    # rates rarely tie, so most scans price only range ends and band marks.
    quantities = sorted(draw(st.lists(st.integers(2, 1500), max_size=5, unique=True)))
    fractions = sorted(draw(st.lists(st.floats(0.0, 0.9), min_size=len(quantities),
                                     max_size=len(quantities))))
    main = draw(st.floats(1.0, 1e5))
    return _cost_model(main, main * draw(st.floats(0.01, 1.5)),
                       ((1, 0.0),) + tuple(zip(quantities, fractions)))


_SMALL_EXAMPLES = (
    # A tie at cost 120: (6, 12, 2) and (5, 14, 3); the smaller M wins.
    dict(n=107, p_ns=0.023, p_s=0.117, p_b=0.081, targets=(0.9, 0.86, 0.92),
         model=_cost_model(10, 5)),
    # The cheapest pool is a band start above the non-surge minimum: (30, 8, 2).
    dict(n=100, p_ns=0.2, p_s=0.3, p_b=0.1, targets=(0.9, 0.9, 0.9),
         model=_cost_model(10, 1, ((1, 0.0), (30, 0.3)))),
    # A band start beats the smallest feasible pool at the same T: (40, 0, 0).
    dict(n=100, p_ns=0.2, p_s=0.3, p_b=0.1, targets=(0.9, 0.9, 0.9),
         model=_cost_model(10, 5, ((1, 0.0), (40, 0.3)))),
    # A bad-behaviour target one ulp above the exact cdf 0.5 of (Q=3, T=7):
    # the reserve must be 4, as the cdf the solver checks says.
    dict(n=10, p_ns=0.5, p_s=0.5, p_b=0.5, targets=(0.75, 1.0, 0.5000000000000001),
         model=car_cost_model()),
    # A bad-behaviour target of 1 - 1e-15: the rounded cdf of (Q=12, T=47)
    # meets it, but the exact tail P[X > 12] = 1.025e-15 does not.
    dict(n=65, p_ns=0.1, p_s=0.6, p_b=0.01, targets=(0.98, 0.98, 1 - 1e-15),
         model=car_cost_model()),
    # The smallest scenario, with every target at 1: one consumer, one item.
    dict(n=1, p_ns=0.9, p_s=0.9, p_b=0.5, targets=(1.0, 1.0, 1.0),
         model=car_cost_model()),
    # A band rate equal to the prosumer rate (10 * 0.5 = 5): nine designs
    # cost 190, and the one with the smallest M, (30, 8, 0), wins.
    dict(n=83, p_ns=0.18, p_s=0.39, p_b=0.01, targets=(0.9, 0.9, 0.9),
         model=_cost_model(10, 5, ((1, 0.0), (30, 0.5)))),
    # A band rate three ulps above the prosumer rate (2.300000000000001 vs
    # 2.3): rounding makes the cost non-monotone in T, so every T is priced;
    # the optimum (99, 7, 0) lies inside the stretch T = 0..8 of Q = 0.
    dict(n=149, p_ns=0.249, p_s=0.647, p_b=0.0265, targets=(0.8, 0.95, 0.8),
         model=_cost_model(4.600000000000002, 2.3, ((1, 0.0), (17, 0.24), (31, 0.5)))),
    # The stretch T = 0..50 of Q = 0 takes the pool 66 - T across the band
    # boundaries at 55 (T = 11) and 45 (T = 21); the optimum is (45, 21, 0).
    dict(n=91, p_ns=0.26, p_s=0.647, p_b=0.0021, targets=(0.99, 0.95, 0.9),
         model=_cost_model(10, 2, ((1, 0.0), (45, 0.3), (55, 0.35)))),
    # The band start 20 is first feasible at T = 7, inside the stretch
    # T = 1..9 of Q = 1, where the pool 27 - T reaches it; that band
    # mark is the optimum (20, 7, 1).
    dict(n=29, p_ns=0.307, p_s=0.787, p_b=0.0173, targets=(0.999, 0.95, 0.99),
         model=_cost_model(12, 2, ((1, 0.0), (20, 0.46)))),
    # A small car scenario at a common target of 0.95.
    dict(n=60, p_ns=0.1, p_s=0.3, p_b=0.01, targets=(0.95, 0.95, 0.95),
         model=car_cost_model()),
)


def _small_examples(test):
    # Scenarios small enough for the 3-D scan, shared by both properties.
    for case in _SMALL_EXAMPLES:
        test = example(**case)(test)
    return test


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(1, 20_000),
    p_ns=st.floats(0.01, 0.9),
    p_s=st.floats(0.01, 0.95),
    p_b=st.floats(0.001, 0.5),
    targets=st.tuples(_targets, _targets, _targets),
    model=st.one_of(st.sampled_from([car_cost_model(), charger_cost_model()]),
                    _cost_models(), _priced_models()),
)
@_small_examples
# The optima (200, 79, 2) and (100, 512, 17) are band starts that the
# falling pool reaches inside a stretch of constant Q.
@example(n=1915, p_ns=0.138 * 0.67, p_s=0.138, p_b=0.0072, targets=(0.75, 0.8, 0.95),
         model=car_cost_model())
@example(n=735, p_ns=0.8 * 0.15, p_s=0.8, p_b=0.02, targets=(0.75, 0.75, 0.98),
         model=charger_cost_model())
# The band rate 0.2 * 0.5 equals the prosumer rate 0.1, but the costs
# are not integers, so rounding alone decides the optimum (2313, 27, 0).
@example(n=2644, p_ns=0.877 * 0.18, p_s=0.877, p_b=0.0078, targets=(0.95, 0.9, 0.8),
         model=_cost_model(0.2, 0.1, ((1, 0.0), (734, 0.5))))
def test_solver_equals_brute_force_design(n, p_ns, p_s, p_b, targets, model):
    # The solver's galloping searches, its one design per pool below A_s,
    # its range ends and band marks and its early exit must give the
    # design and the cost bits of the reference, which prices every (M, T).
    params = ScenarioParams(n, p_ns, p_s, p_b, *targets)
    rep = solve_min_cost(params, model)
    oracle = brute_force_design(params, model)
    assert rep.design == oracle.design
    assert rep.cost_real.hex() == oracle.cost_real.hex()
    # The reserve meets its target on the exact upper tail, not only on
    # the rounded cdf.
    d = rep.design
    assert d.q == d.t or special.bdtrc(d.q, d.t, p_b) <= 1.0 - targets[2]
    if d.t > 0:
        # A design with prosumers fills the surge supply M - Q + T to
        # exactly A_s, the least that meets the surge target, and its
        # reserve is Q(T), the least that meets the bad-behaviour target
        # at T.  So M + T - A_s = Q, and Q is the only reserve in
        # [Q(T), min(M, T, M + T - A_s)].
        a_s = d.m - d.q + d.t
        assert _meets_target(a_s, n, p_s, targets[1])
        assert not _meets_target(a_s - 1, n, p_s, targets[1])
        assert d.q == 0 or not _meets_target(d.q - 1, d.t, p_b, targets[2])


def _full_scan(params, model):
    # Every (M, T, Q) inside the structural bounds, judged by the three
    # rule verdicts and priced by cost_eval: it shares with the grid
    # neither the reserve interval nor the early exit.
    n = params.n_consumers
    ns_ok = [_meets_target(m, n, params.p_nonsurge, params.qos_target_ns)
             for m in range(n + 1)]
    s_ok = [_meets_target(a, n, params.p_surge, params.qos_target_s)
            for a in range(n + 1)]
    best = None
    for t in range(n + 1):
        costs = [cost_eval(m, t, model) for m in range(n + 1)]
        for q in range(t + 1):
            if not _meets_target(q, t, params.p_bad, params.qos_target_b):
                continue
            for m in range(q, n + q - t + 1):
                if ns_ok[m] and s_ok[m - q + t]:
                    key = (costs[m], m, t, q)
                    if best is None or key < best:
                        best = key
    return best


def _design_key(rep):
    return (rep.cost_real, rep.design.m, rep.design.t, rep.design.q)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 60),
    p_ns=st.floats(0.01, 0.9),
    p_s=st.floats(0.01, 0.95),
    p_b=st.floats(0.001, 0.5),
    targets=st.tuples(_targets, _targets, _targets),
    model=st.one_of(st.sampled_from([car_cost_model(), charger_cost_model()]),
                    _cost_models(), _priced_models()),
)
@_small_examples
def test_solver_equals_full_scan(n, p_ns, p_s, p_b, targets, model):
    # At small N every (M, T, Q) can be priced, which also checks the
    # grid's own arguments: the least reserve per (M, T) and the early exit.
    params = ScenarioParams(n, p_ns, p_s, p_b, *targets)
    full = _full_scan(params, model)
    for rep in (solve_min_cost(params, model), brute_force_design(params, model)):
        assert _design_key(rep) == full


# The smallest inputs found on which a one-line change to the marks or
# band starts of solve_min_cost returned another design than the
# reference: each optimum is a pool that only that line prices.
@pytest.mark.parametrize("params, model, design", [
    # A_s = 3, M_ns = 1 and one stretch of Q = 0, so reach = 0 and
    # top = 2.  The optimum is the band start 2 at x = A_s - M = 1, the
    # only mark in (reach, top): both reach + 1 and top - 1.
    pytest.param(ScenarioParams(3, 0.11, 0.71, 0.02, 0.95, 0.98, 0.8),
                 _cost_model(23, 9, ((1, 0.0), (2, 0.41), (4, 0.43), (5, 0.48))),
                 Design(2, 1, 0), id="mark-at-reach+1-and-top-1"),
    # A_s = 4 and top = 3: the marks x = 1 and x = 2 lie below top, and
    # the optimum is the second, the band start 2.
    pytest.param(ScenarioParams(4, 0.13, 0.52, 0.04, 0.8, 0.99, 0.8),
                 _cost_model(6, 5, ((1, 0.0), (2, 0.12), (4, 0.12), (5, 0.43))),
                 Design(2, 2, 0), id="second-mark-below-top"),
    # The band start N = 3 is the cheapest pool, at T = 0.
    pytest.param(ScenarioParams(3, 0.18, 0.4, 0.03, 0.99, 0.8, 0.9),
                 _cost_model(1, 1, ((1, 0.0), (3, 0.35), (5, 0.48))),
                 Design(3, 0, 0), id="band-start-at-n"),
])
def test_solver_prices_each_band_mark_and_start(params, model, design):
    rep = solve_min_cost(params, model)
    oracle = brute_force_design(params, model)
    assert rep.design == oracle.design == design
    assert rep.cost_real.hex() == oracle.cost_real.hex()


def _linear_reserves(t_max, p_b, target):
    # The reserve pointer as a plain linear scan: one rule call per T
    # plus one per step of Q.
    q = 0
    for t in range(t_max + 1):
        while not _meets_target(q, t, p_b, target):
            q += 1
        yield q


@settings(max_examples=100, deadline=None)
@given(t_max=st.integers(0, 5000), p_b=st.floats(1e-3, 0.5), target=_targets)
# Targets at which the rounded cdf and the exact tail disagree.
@example(t_max=5000, p_b=0.01, target=1 - 1e-15)
@example(t_max=5000, p_b=0.3, target=1 - 2**-53)
@example(t_max=5000, p_b=0.5, target=0.5000000000000001)
def test_reserve_pointer_equals_linear_pointer(t_max, p_b, target):
    # The galloping pointer skips the rule between the T where Q must
    # grow; its stretches must still give Q(T) at every T.
    _empty_table()
    stretches = list(_reserve_stretches(t_max, p_b, target))
    assert stretches[0][0] == 0 and stretches[-1][1] == t_max
    for (_, t1, q), (t0, _, q_next) in zip(stretches, stretches[1:]):
        assert t0 == t1 + 1 and q_next > q
    per_t = [q for t0, t1, q in stretches for _ in range(t0, t1 + 1)]
    assert per_t == list(_linear_reserves(t_max, p_b, target))
    # The same stretches when a scan to a smaller t_max filled the table
    # first, and the smaller scan's own when read back from the longer.
    _empty_table()
    shorter = list(_reserve_stretches(t_max // 2, p_b, target))
    assert list(_reserve_stretches(t_max, p_b, target)) == stretches
    assert list(_reserve_stretches(t_max // 2, p_b, target)) == shorter
    _empty_table()


def test_oracle_takes_none_of_the_solver_shortcuts(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the oracle took a solver shortcut")

    for module, name in ((solver_module, "_reserve_stretches"),
                         (solver_module, "_near_prosumer_rate"),
                         (solver_module, "_pool_minima"),
                         (solver_module, "min_items_for_qos"),
                         (qos_module, "_flip")):
        monkeypatch.setattr(module, name, refuse)
    scenario = load_scenario("car-n1000-98")
    with pytest.raises(AssertionError, match="shortcut"):
        solve_min_cost(scenario.params, scenario.cost_model)
    rep = brute_force_design(scenario.params, scenario.cost_model)
    assert rep.design == Design(120, 216, 6)


@pytest.mark.parametrize("name, changes, entry, most", [
    ("car-n50000-98", {}, solve_min_cost, 1000),  # 10,199 when every T is priced
    ("car-n5000-98", {}, solve_min_cost, 1000),   # 1,505 when every T is priced
    # Stretches a few T long: 588 when they are priced at every T, 173
    # when each priced T also priced the band starts above its smallest
    # pool, 74 when each stretch priced both ends of its new pools below
    # A_s, and 41 when it prices only the last one and the band marks.
    ("car-n1000-98", {"p_bad": 0.1}, solve_min_cost, 50),
], ids=["car-n50000-98-solve_min_cost-1000", "car-n5000-98-solve_min_cost-1000",
        "car-n1000-98-p_bad-0.1-solve_min_cost-50"])
def test_scan_prices_few_candidates(name, changes, entry, most, monkeypatch):
    # Counted rather than timed, so the check is deterministic.  The
    # count is the pools priced at T = 0 plus, for each stretch of
    # constant Q, the last of its range of pools below A_s and the band
    # boundaries inside it: one design per pool, with T - Q = A_s - M.
    calls = []

    def counting(*args):
        calls.append(args)
        return cost_eval(*args)

    monkeypatch.setattr(solver_module, "cost_eval", counting)
    scenario = load_scenario(name)
    entry(dataclasses.replace(scenario.params, **changes), scenario.cost_model)
    assert len(calls) <= most


@pytest.mark.parametrize("name, entry, most", [
    # 10,352 and 1,065 with a linear pointer; 461 and 103 when each
    # stretch also scanned the rule at its first T.
    ("car-n50000-98", solve_min_cost, 400),
    ("car-n5000-98", solve_min_cost, 95),
])
def test_searches_make_few_rule_calls(name, entry, most, monkeypatch, empty_table):
    # Counted rather than timed, so the check is deterministic.
    calls = []

    def counting(*args):
        calls.append(args)
        return _meets_target(*args)

    monkeypatch.setattr(qos_module, "_meets_target", counting)
    monkeypatch.setattr(solver_module, "_meets_target", counting)
    scenario = load_scenario(name)
    entry(scenario.params, scenario.cost_model)
    assert len(calls) <= most
    # A second solve reads its reserve stretches from the table, so only
    # the two pool-minima searches call the rule.
    calls.clear()
    entry(scenario.params, scenario.cost_model)
    assert len(calls) <= 10
    assert all(args[1] == scenario.params.n_consumers for args in calls)


def _golden_scenarios():
    return [sc for use in ("car", "charger") for sc, _ in cli._golden_table(use)]


def _cold_reports(scenarios):
    reports = {}
    for sc in scenarios:
        _empty_table()
        reports[sc.name] = solve_min_cost(sc.params, sc.cost_model)
    _empty_table()
    return reports


def test_shared_table_keeps_every_golden_report(empty_table):
    # Rows of one target share Q(T); whichever row fills the table first,
    # each report is the one a solve from an empty table gives.
    scenarios = _golden_scenarios()
    cold = _cold_reports(scenarios)
    assert len(cold) == 16
    random.Random(7).shuffle(scenarios)
    for sc in scenarios:
        assert solve_min_cost(sc.params, sc.cost_model) == cold[sc.name], sc.name
    # Two (p_bad, target) keys: 0.98 and 0.99 at p_bad = 0.01.
    assert len(solver_module._reserve_ends) == 2


def test_shared_table_under_threads(empty_table):
    # Four threads on two CPUs, switching often, fill one table at once;
    # a lost or torn update could only repeat a search, never change a
    # report.
    scenarios = _golden_scenarios()
    cold = _cold_reports(scenarios)

    start = threading.Barrier(4)

    def solve_all(seed):
        order = scenarios[:]
        random.Random(seed).shuffle(order)
        start.wait(timeout=60)
        return {sc.name: solve_min_cost(sc.params, sc.cost_model) for sc in order}

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(solve_all, seed) for seed in range(4)]
            results = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert all(reports == cold for reports in results)


def test_table_lists_stay_prefixes_under_threads(empty_table):
    # Threads that find the same missing end at once must store it once:
    # after each round every key's list is a prefix of the list one
    # thread alone builds, so no scan can read a stretch twice.
    scenarios = _golden_scenarios()
    for sc in scenarios:
        solve_min_cost(sc.params, sc.cost_model)
    alone = {key: list(ends) for key, ends in solver_module._reserve_ends.items()}

    def solve_all(start):
        start.wait(timeout=60)
        for sc in scenarios:
            solve_min_cost(sc.params, sc.cost_model)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            _empty_table()
            start = threading.Barrier(4)
            with ThreadPoolExecutor(max_workers=4) as pool:
                for f in [pool.submit(solve_all, start) for _ in range(4)]:
                    f.result(timeout=120)
            for key, ends in solver_module._reserve_ends.items():
                assert list(ends) == alone[key][:len(ends)], key
    finally:
        sys.setswitchinterval(interval)


def test_table_keeps_at_most_its_key_limit(empty_table):
    # Every p_bad is a new key; the table is emptied before it would pass
    # the limit, and a solve after that is the one an empty table gives.
    limit = solver_module._RESERVE_KEYS
    model = car_cost_model()
    scenarios = [ScenarioParams(300, 0.05, 0.2, 0.01 + 0.001 * k, 0.95, 0.95, 0.95)
                 for k in range(limit + 1)]
    cold = solve_min_cost(scenarios[-1], model)
    _empty_table()
    for params in scenarios:
        rep = solve_min_cost(params, model)
        assert len(solver_module._reserve_ends) <= limit
    assert len(solver_module._reserve_ends) == 1
    assert rep == cold


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 400),
    p_ns=st.floats(0.01, 0.9),
    p_s=st.floats(0.01, 0.95),
    p_b=st.floats(0.01, 0.5),
    targets=st.tuples(_targets, _targets, _targets),
    raised=_targets,
    which=st.integers(0, 2),
    model=st.one_of(st.sampled_from([car_cost_model(), charger_cost_model()]),
                    _cost_models()),
)
def test_cost_never_falls_as_a_target_rises(n, p_ns, p_s, p_b, targets, raised,
                                            which, model):
    # A stricter target only removes designs, so the optimum cannot get
    # cheaper.
    low = list(targets)
    high = list(targets)
    low[which], high[which] = sorted((targets[which], raised))
    base = solve_min_cost(ScenarioParams(n, p_ns, p_s, p_b, *low), model)
    stricter = solve_min_cost(ScenarioParams(n, p_ns, p_s, p_b, *high), model)
    assert stricter.cost_real >= base.cost_real


def test_degenerate_no_prosumers_means_no_reserve():
    # With T forced to 0 the reserve constraint is vacuous and Q = 0.
    rep = brute_force_design(
        ScenarioParams(50, 0.1, 0.3, 0.01, 0.9, 0.9, 0.9), car_cost_model())
    if rep.design.t == 0:
        assert rep.design.q == 0


def test_solver_deterministic():
    a = solve_min_cost(CAR_1000, car_cost_model())
    b = solve_min_cost(CAR_1000, car_cost_model())
    assert a.design == b.design and a.cost_real == b.cost_real


def test_compare_approaches_car():
    table = compare_approaches(CAR_1000, car_cost_model())
    assert table["b2c"].design.m == 330
    assert table["ownership"].design.m == 1000
    assert table["ownership"].qos.qos_ns == 1.0
    assert (table["hybrid"].cost_real < table["b2c"].cost_real
            < table["ownership"].cost_real)


def test_compare_ownership_is_one_item_per_consumer():
    model = car_cost_model()
    own = compare_approaches(CAR_1000, model)["ownership"]
    assert own.design == Design(1000, 0, 0)
    assert own.cost_real == cost_eval(1000, 0, model)


def test_compare_approaches_charger():
    table = compare_approaches(CHARGER_1000, charger_cost_model())
    assert table["b2c"].design.m == 23
    assert (table["hybrid"].cost_real < table["b2c"].cost_real
            < table["ownership"].cost_real)


def test_design_feasible_at_one_ulp_above_exact_cdf():
    # P[Bin(7, 0.5) <= 3] is exactly 0.5; the upper tail rounds to meet a
    # target one ulp above it while the cdf rounds below, so M = 3 failed.
    params = ScenarioParams(7, 0.5, 0.5, 0.01, 0.5000000000000001, 0.5, 0.5)
    rep = solve_min_cost(params, car_cost_model())
    assert rep.design == Design(4, 0, 0)
    assert feasible(params, rep.design)


def test_design_meets_exact_tail_near_target_one():
    # The rounded cdf of Bin(47, 0.01) at 12 reaches 1 - 1e-15 while the
    # tail, 1.025e-15, misses it; (12, 47, 12) was once the optimum here.
    params = ScenarioParams(65, 0.1, 0.6, 0.01, 0.98, 0.98, 1 - 1e-15)
    assert not feasible(params, Design(12, 47, 12))
    rep = solve_min_cost(params, car_cost_model())
    d = rep.design
    assert special.bdtrc(d.q, d.t, 0.01) <= 1e-15
    assert feasible(params, d)
    assert brute_force_design(params, car_cost_model()).design == d


def test_compare_b2c_meets_nonsurge_target():
    # With p_nonsurge = p_surge and a stricter non-surge target, the
    # surge-sized pool (319) misses the non-surge target; B2C must grow
    # to the non-surge size, which here is the hybrid optimum itself.
    params = ScenarioParams(1000, 0.3, 0.3, 0.01, 0.999, 0.9, 0.98)
    table = compare_approaches(params, car_cost_model())
    assert feasible(params, table["b2c"].design)
    assert table["b2c"].design == Design(345, 0, 0)
    assert table["b2c"].cost_real >= table["hybrid"].cost_real


def test_sweep_qos_monotone():
    grid = [0.9, 0.95, 0.98, 0.99]
    reports = sweep_cost_vs_qos(CHARGER_1000, charger_cost_model(), grid)
    assert [rep.params.qos_target_b for rep in reports] == grid
    costs = [rep.cost_real for rep in reports]
    assert all(b >= a for a, b in zip(costs, costs[1:]))


def test_sweep_n_total_cost_monotone():
    grid = [500, 1000, 2000]
    reports = [solve_min_cost(dataclasses.replace(CHARGER_1000, n_consumers=n),
                              charger_cost_model()) for n in grid]
    assert [rep.params.n_consumers for rep in reports] == grid
    costs = [rep.cost_real for rep in reports]
    assert all(b >= a for a, b in zip(costs, costs[1:]))


def test_sweep_rejects_empty_grid():
    with pytest.raises(ValueError):
        sweep_cost_vs_qos(CAR_1000, car_cost_model(), [])


def test_report_per_consumer_accounting():
    rep = solve_min_cost(CHARGER_1000, charger_cost_model())
    assert rep.params == CHARGER_1000
    expected = rep.cost_real / (1000 * 10)
    assert rep.cost_per_consumer == pytest.approx(expected)
