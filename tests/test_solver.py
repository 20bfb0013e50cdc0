"""Unit tests for the minimum-cost design solver and its oracle."""

import dataclasses

import pytest
from scipy import special
from hypothesis import example, given, settings
from hypothesis import strategies as st

from surgeshare import (
    CostModel,
    Design,
    DiscountSchedule,
    ScenarioParams,
    SmoothDiscount,
    brute_force_design,
    car_cost_model,
    charger_cost_model,
    compare_approaches,
    feasible,
    solve_min_cost,
    sweep_cost_vs_n,
    sweep_cost_vs_qos,
)
from surgeshare.solver import _brute_force_full

CAR_1000 = ScenarioParams(1000, 0.1, 0.3, 0.01)
CHARGER_1000 = ScenarioParams(1000, 0.005, 0.015, 0.01)


def test_feasible_car_table_row():
    assert feasible(CAR_1000, Design(120, 216, 6))


def test_feasible_rejects_oversized_pool():
    assert not feasible(CAR_1000, Design(1001, 216, 6))


def test_feasible_rejects_reserve_above_prosumers():
    assert not feasible(CAR_1000, Design(120, 5, 6))


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
    return CostModel(float(main), float(prosumer), DiscountSchedule(schedule),
                     SmoothDiscount(0.0, 1.0))


@st.composite
def _cost_models(draw):
    # Small integer prices make exact cost ties between designs common,
    # which exercises the (cost, M, T, Q) tie-break.
    quantities = sorted(draw(st.lists(st.integers(2, 300), max_size=4, unique=True)))
    fractions = sorted(draw(st.lists(st.integers(0, 40), min_size=len(quantities),
                                     max_size=len(quantities))))
    schedule = ((1, 0.0),) + tuple(zip(quantities, (f / 100 for f in fractions)))
    return _cost_model(draw(st.integers(1, 20)), draw(st.integers(1, 20)), schedule)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 300),
    p_ns=st.floats(0.01, 0.9),
    p_s=st.floats(0.01, 0.95),
    p_b=st.floats(0.01, 0.5),
    targets=st.tuples(_targets, _targets, _targets),
    model=st.one_of(st.sampled_from([car_cost_model(), charger_cost_model()]),
                    _cost_models()),
)
# A tie at cost 120: (6, 12, 2) and (5, 14, 3); the smaller M wins.
@example(n=107, p_ns=0.023, p_s=0.117, p_b=0.081, targets=(0.9, 0.86, 0.92),
         model=_cost_model(10, 5))
# The cheapest pool is a band start above the non-surge minimum: (30, 8, 2).
@example(n=100, p_ns=0.2, p_s=0.3, p_b=0.1, targets=(0.9, 0.9, 0.9),
         model=_cost_model(10, 1, ((1, 0.0), (30, 0.3))))
# A band start beats the smallest feasible pool at the same T: (40, 0, 0).
@example(n=100, p_ns=0.2, p_s=0.3, p_b=0.1, targets=(0.9, 0.9, 0.9),
         model=_cost_model(10, 5, ((1, 0.0), (40, 0.3))))
# A bad-behaviour target one ulp above the exact cdf 0.5 of (Q=3, T=7):
# the reserve must be 4, as the cdf the solver checks says.
@example(n=10, p_ns=0.5, p_s=0.5, p_b=0.5, targets=(0.75, 1.0, 0.5000000000000001),
         model=car_cost_model())
# A bad-behaviour target of 1 - 1e-15: the rounded cdf of (Q=12, T=47)
# meets it, but the exact tail P[X > 12] = 1.025e-15 does not.
@example(n=65, p_ns=0.1, p_s=0.6, p_b=0.01, targets=(0.98, 0.98, 1 - 1e-15),
         model=car_cost_model())
# The smallest scenario, with every target at 1: one consumer, one item.
@example(n=1, p_ns=0.9, p_s=0.9, p_b=0.5, targets=(1.0, 1.0, 1.0),
         model=car_cost_model())
def test_solver_equals_full_scan(n, p_ns, p_s, p_b, targets, model):
    # Both entry points run the same T-scan, with and without the early
    # exit; the 3-D scan is the independent check for each.
    params = ScenarioParams(n, p_ns, p_s, p_b, *targets)
    full = _brute_force_full(params, model)
    for rep in (solve_min_cost(params, model), brute_force_design(params, model)):
        assert rep.design == full.design
        assert rep.cost_real == full.cost_real
    # The reserve meets its target on the exact upper tail, not only on
    # the rounded cdf.
    d = full.design
    assert d.q == d.t or special.bdtrc(d.q, d.t, p_b) <= 1.0 - targets[2]


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


def test_full_scan_agrees_with_structured_scan():
    # The 3-D fallback must find the same optimum as the structured scan.
    params = ScenarioParams(60, 0.1, 0.3, 0.01, 0.95, 0.95, 0.95)
    a = brute_force_design(params, car_cost_model())
    b = _brute_force_full(params, car_cost_model())
    assert a.design == b.design
    assert a.cost_real == pytest.approx(b.cost_real)


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
    for other in (brute_force_design(params, car_cost_model()),
                  _brute_force_full(params, car_cost_model())):
        assert other.design == d


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
    reports = sweep_cost_vs_n(CHARGER_1000, charger_cost_model(), grid)
    assert [rep.params.n_consumers for rep in reports] == grid
    costs = [rep.cost_real for rep in reports]
    assert all(b >= a for a, b in zip(costs, costs[1:]))


def test_sweep_rejects_empty_grid():
    with pytest.raises(ValueError):
        sweep_cost_vs_qos(CAR_1000, car_cost_model(), [])
    with pytest.raises(ValueError):
        sweep_cost_vs_n(CAR_1000, car_cost_model(), [])


def test_report_per_consumer_accounting():
    rep = solve_min_cost(CHARGER_1000, charger_cost_model())
    assert rep.params == CHARGER_1000
    expected = rep.cost_real / (1000 * 10)
    assert rep.cost_per_consumer == pytest.approx(expected)
