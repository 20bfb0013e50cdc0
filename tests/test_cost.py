"""Unit tests for cost models, discount schedules and the smooth fit."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from surgeshare import (
    DiscountSchedule,
    SmoothDiscount,
    car_cost_model,
    charger_cost_model,
    cost_eval,
    discount_real,
    fit_smooth_discount,
    get_cost_model,
)
from surgeshare.cost import CAR_DISCOUNTS, CHARGER_DISCOUNTS


def test_car_schedule_lookups():
    assert discount_real(5, CAR_DISCOUNTS) == 0.00
    assert discount_real(120, CAR_DISCOUNTS) == 0.10
    assert discount_real(1, CAR_DISCOUNTS) == 0.00
    assert discount_real(999, CAR_DISCOUNTS) == 0.20
    assert discount_real(1000, CAR_DISCOUNTS) == 0.25
    assert discount_real(100000, CAR_DISCOUNTS) == 0.25


def test_charger_schedule_lookups():
    assert discount_real(10, CHARGER_DISCOUNTS) == 0.05
    assert discount_real(9, CHARGER_DISCOUNTS) == 0.00
    assert discount_real(250, CHARGER_DISCOUNTS) == 0.25


def test_discount_for_empty_purchase():
    assert discount_real(0, CAR_DISCOUNTS) == 0.0


def test_schedule_validation():
    with pytest.raises(ValueError):
        DiscountSchedule(breakpoints=((5, 0.0),))  # must start at 1
    with pytest.raises(ValueError):
        DiscountSchedule(breakpoints=((1, 0.0), (10, 0.2), (20, 0.1)))  # decreasing
    with pytest.raises(ValueError):
        DiscountSchedule(breakpoints=((1, 0.0), (10, 1.0)))  # 100% discount
    for bad in (10.7, 10.0, "20", True, None):
        with pytest.raises(TypeError, match=repr(bad)):
            DiscountSchedule(breakpoints=((1, 0.0), (bad, 0.1)))
    with pytest.raises(TypeError, match="True"):
        DiscountSchedule(breakpoints=((True, 0.0), (20, 0.1)))
    numpy_qty = DiscountSchedule(breakpoints=((np.int64(1), 0.0), (np.int32(10), 0.1)))
    assert numpy_qty.breakpoints == ((1, 0.0), (10, 0.1))
    assert type(numpy_qty.breakpoints[1][0]) is int


def test_smooth_discount_validation():
    with pytest.raises(ValueError):
        SmoothDiscount(amplitude=1.0, rate=1.0)
    with pytest.raises(ValueError):
        SmoothDiscount(amplitude=0.2, rate=0.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="rate"):
            SmoothDiscount(amplitude=0.2, rate=bad)
        with pytest.raises(ValueError, match="amplitude"):
            SmoothDiscount(amplitude=bad, rate=1.0)


@pytest.mark.parametrize("field", ["per_item_main", "per_item_prosumer", "horizon_years"])
@pytest.mark.parametrize("value", [0, -1, math.nan, math.inf, -math.inf])
def test_cost_model_rejects_non_positive_or_non_finite(field, value):
    with pytest.raises(ValueError, match=field):
        dataclasses.replace(car_cost_model(), **{field: value})


def test_fit_degenerate_schedule():
    flat = DiscountSchedule(breakpoints=((1, 0.0),))
    sd = fit_smooth_discount(flat)
    assert sd.amplitude == 0.0 and sd.rate == 1.0
    assert sd.value(123) == 0.0


def _fit_residual(schedule, m_max, amplitude, rate):
    # Squared error on the fit's grid: 400 log-spaced integers on [1, m_max].
    grid = np.unique(np.round(np.geomspace(1, m_max, 400)).astype(int))
    target = np.array([discount_real(int(m), schedule) for m in grid])
    resid = np.multiply.outer(amplitude, 1.0 - np.exp(-rate * grid)) - target
    return np.square(resid).sum(axis=-1)


@st.composite
def schedules(draw):
    # Non-decreasing step schedules, concave (early big steps) as well as
    # accelerating (late, growing steps).
    quantities = draw(st.lists(st.integers(2, 3000), min_size=1, max_size=6, unique=True))
    steps = draw(st.lists(st.floats(0.0, 0.2), min_size=len(quantities),
                          max_size=len(quantities)))
    fractions = np.minimum(np.cumsum(steps), 0.95)
    return DiscountSchedule(((1, 0.0),) + tuple(zip(sorted(quantities), fractions)))


@settings(max_examples=60, deadline=None)
@example(DiscountSchedule(((1, 0.0), (235, 0.022), (335, 0.07))))  # accelerating
@example(CAR_DISCOUNTS)
@given(schedules())
def test_fit_beats_brute_force_grid(schedule):
    m_max = max(int(1.5 * schedule.breakpoints[-1][0]), 10)
    sd = fit_smooth_discount(schedule, m_max)
    assert 0.0 <= sd.amplitude <= 0.999 and sd.rate > 0.0
    fit_sse = _fit_residual(schedule, m_max, sd.amplitude, sd.rate)
    amplitudes = np.linspace(0.0, 0.999, 151)
    grid_sse = min(_fit_residual(schedule, m_max, amplitudes, b).min()
                   for b in np.geomspace(1e-3 / m_max, 10.0, 151))
    assert fit_sse <= grid_sse * (1.0 + 1e-12) + 1e-15


def test_fit_does_not_load_scipy_optimize(fresh_python):
    code = (
        "import sys\n"
        "import surgeshare\n"
        "surgeshare.load_scenario('car-n1000')\n"
        "surgeshare.fit_smooth_discount(surgeshare.DiscountSchedule(((1, 0.0), (20, 0.1))))\n"
        "print('scipy.optimize' in sys.modules)\n"
    )
    proc = fresh_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_fit_car_amplitude():
    sd = car_cost_model().smooth
    assert sd.amplitude == pytest.approx(0.25, abs=0.05)
    assert sd.amplitude <= CAR_DISCOUNTS.max_discount + 0.05


def test_fit_zero_at_origin():
    assert car_cost_model().smooth.value(0) == 0.0
    assert charger_cost_model().smooth.value(0) == 0.0


def test_cost_eval_car_table_row():
    model = car_cost_model()
    assert cost_eval(120, 216, model) == pytest.approx(1_220_400.0)


def test_cost_eval_charger_table_row():
    model = charger_cost_model()
    assert cost_eval(10, 14, model) == pytest.approx(285_160.0)


def test_cost_eval_empty_design():
    for model in (car_cost_model(), charger_cost_model()):
        assert cost_eval(0, 0, model) == 0.0


def test_cost_eval_invalid_design():
    with pytest.raises(ValueError):
        cost_eval(-1, 3, car_cost_model())
    with pytest.raises(ValueError):
        cost_eval(5, -1, car_cost_model())


def _smooth_pool_cost(m, model):
    return model.per_item_main * (1.0 - model.smooth.value(m)) * m


@pytest.mark.parametrize("model", [car_cost_model(), charger_cost_model()])
def test_real_never_exceeds_linear(model):
    for m in range(0, 2000, 37):
        for t in (0, 10, 500):
            linear = model.per_item_main * m + model.per_item_prosumer * t
            assert cost_eval(m, t, model) <= linear + 1e-9


@pytest.mark.parametrize("model", [car_cost_model(), charger_cost_model()])
def test_approx_tracks_real_within_5pct(model):
    for m in range(1, 6001):
        real = cost_eval(m, 0, model)
        assert abs(_smooth_pool_cost(m, model) - real) / real <= 0.05


@pytest.mark.parametrize("model", [car_cost_model(), charger_cost_model()])
def test_approx_pool_term_is_concave(model):
    # (1 - A(1 - e^{-Bm}))*m has its inflection at m = 2/B; curvature is
    # negative below it and vanishingly small beyond, so concavity is
    # asserted over the discount-relevant range up to the inflection.
    upper = int(2.0 / model.smooth.rate)
    vals = [_smooth_pool_cost(m, model) for m in range(1, upper + 1)]
    for a, b, c in zip(vals, vals[1:], vals[2:]):
        assert (c - b) - (b - a) <= 1e-4


@pytest.mark.parametrize("model", [car_cost_model(), charger_cost_model()])
def test_cost_increasing_in_t(model):
    for t in range(0, 500, 11):
        assert cost_eval(100, t + 1, model) > cost_eval(100, t, model)


@pytest.mark.parametrize("model", [car_cost_model(), charger_cost_model()])
def test_smooth_cost_increasing_in_m(model):
    vals = [_smooth_pool_cost(m, model) for m in range(0, 3000)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("model", [car_cost_model(), charger_cost_model()])
def test_real_cost_increasing_within_discount_bands(model):
    # The stepped discount makes the real cost drop where a new band
    # starts, so monotonicity in M holds within each band only.
    edges = [bp[0] for bp in model.discount.breakpoints] + [4000]
    for lo, hi in zip(edges, edges[1:]):
        vals = [cost_eval(m, 0, model) for m in range(lo, hi)]
        assert all(b > a for a, b in zip(vals, vals[1:]))


def test_builtin_registry():
    assert get_cost_model("car-mg4-2025") is car_cost_model()
    assert get_cost_model("charger-dc60-2025").horizon_years == 10
    with pytest.raises(KeyError):
        get_cost_model("no-such-model")


def test_cost_per_consumer_annualized():
    model = charger_cost_model()
    cost = cost_eval(10, 14, model)
    # Decade total divided by ten years and 1000 consumers.
    assert model.cost_per_consumer(cost, 1000) == pytest.approx(28.516, abs=1e-3)
