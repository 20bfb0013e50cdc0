"""Unit tests for cost models and discount schedules."""

import dataclasses
import math

import numpy as np
import pytest

from surgeshare import (
    CostModel,
    DiscountSchedule,
    car_cost_model,
    charger_cost_model,
    cost_eval,
    discount_real,
    get_cost_model,
)
from surgeshare.cost import CAR_DISCOUNTS, CHARGER_DISCOUNTS
from surgeshare.qos import _COUNT_MAX


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
    with pytest.raises(ValueError, match="at least one breakpoint"):
        DiscountSchedule(breakpoints=())
    with pytest.raises(ValueError):
        DiscountSchedule(breakpoints=((5, 0.0),))  # must start at 1
    with pytest.raises(ValueError):
        DiscountSchedule(breakpoints=((1, 0.0), (10, 0.2), (20, 0.1)))  # decreasing
    with pytest.raises(ValueError, match="strictly increasing"):
        DiscountSchedule(breakpoints=((1, 0.0), (10, 0.1), (10, 0.2)))  # repeated
    with pytest.raises(ValueError):
        DiscountSchedule(breakpoints=((1, 0.0), (10, 1.0)))  # 100% discount
    for bad in (10.7, 10.0, "20", True, None):
        with pytest.raises(TypeError, match=repr(bad)):
            DiscountSchedule(breakpoints=((1, 0.0), (bad, 0.1)))
    with pytest.raises(TypeError, match="True"):
        DiscountSchedule(breakpoints=((True, 0.0), (20, 0.1)))
    # A fraction given as text is rejected, not converted.
    for bad in ("0.1", True, None):
        with pytest.raises(TypeError, match="discount fraction"):
            DiscountSchedule(breakpoints=((1, 0.0), (10, bad)))
    numpy_qty = DiscountSchedule(breakpoints=((np.int64(1), 0.0), (np.int32(10), 0.1)))
    assert numpy_qty.breakpoints == ((1, 0.0), (10, 0.1))
    assert type(numpy_qty.breakpoints[1][0]) is int
    # Breakpoints that are not pairs, or no iterable at all, are rejected
    # by name; any iterable of pairs is taken, and stored as a tuple.
    for bad in (None, 5, ((1, 0.0, 5),), ((1,),), (1, 0.0)):
        with pytest.raises(TypeError, match="breakpoints must be"):
            DiscountSchedule(breakpoints=bad)
    pairs = [[1, 0.0], (10, 0.1)]
    assert DiscountSchedule(pairs).breakpoints == ((1, 0.0), (10, 0.1))
    assert DiscountSchedule(iter(pairs)).breakpoints == ((1, 0.0), (10, 0.1))
    # A cost model takes only a schedule as its discount.
    for bad in (((1, 0.0),), [(1, 0.0)], None):
        with pytest.raises(TypeError, match="discount must be a DiscountSchedule"):
            CostModel(1.0, 1.0, bad)


@pytest.mark.parametrize("field", ["per_item_main", "per_item_prosumer", "horizon_years"])
@pytest.mark.parametrize("value", [0, -1, math.nan, math.inf, -math.inf,
                                   # an int past the float range is infinite
                                   pytest.param(10**400, id="10**400")])
def test_cost_model_rejects_non_positive_or_non_finite(field, value):
    with pytest.raises(ValueError, match=field):
        dataclasses.replace(car_cost_model(), **{field: value})


@pytest.mark.parametrize("value", [1.5, True, "3", None])
def test_cost_model_rejects_non_integer_horizon(value):
    # save_scenario writes the horizon as an integer.
    with pytest.raises(TypeError, match="horizon_years"):
        dataclasses.replace(car_cost_model(), horizon_years=value)


@pytest.mark.parametrize("field", ["per_item_main", "per_item_prosumer"])
@pytest.mark.parametrize("value", ["3", True, None])
def test_cost_model_rejects_non_number_unit_costs(field, value):
    # The message names the field, not just a failed comparison.
    with pytest.raises(TypeError, match=field):
        dataclasses.replace(car_cost_model(), **{field: value})


def test_cost_model_stores_no_smooth_fit():
    assert "smooth" not in {f.name for f in dataclasses.fields(CostModel)}
    assert "smooth" not in vars(car_cost_model())


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
    with pytest.raises(ValueError, match="^m must be non-negative"):
        cost_eval(-1, 3, car_cost_model())
    with pytest.raises(ValueError, match="^t must be non-negative"):
        cost_eval(5, -1, car_cost_model())


@pytest.mark.parametrize("m, t, name", [
    (2.5, 1, "m"), (True, 1, "m"), ("3", 1, "m"), (120, 2.5, "t"), (120, False, "t"),
])
def test_cost_eval_checks_its_counts(m, t, name):
    # A count of the wrong type is an error, not a cost.
    with pytest.raises(TypeError, match=f"^{name} must be an integer"):
        cost_eval(m, t, car_cost_model())


@pytest.mark.parametrize("m, error", [
    ("3", TypeError), (2.5, TypeError), (True, TypeError), (-2, ValueError),
])
def test_discount_real_checks_its_count(m, error):
    with pytest.raises(error, match="^m must be"):
        discount_real(m, CAR_DISCOUNTS)


def test_cost_eval_takes_numpy_counts():
    model = car_cost_model()
    assert cost_eval(np.int64(120), np.int64(216), model) == cost_eval(120, 216, model)


@pytest.mark.parametrize("model", [car_cost_model(), charger_cost_model()])
def test_real_never_exceeds_linear(model):
    for m in range(0, 2000, 37):
        for t in (0, 10, 500):
            linear = model.per_item_main * m + model.per_item_prosumer * t
            assert cost_eval(m, t, model) <= linear + 1e-9


@pytest.mark.parametrize("model", [car_cost_model(), charger_cost_model()])
def test_cost_increasing_in_t(model):
    for t in range(0, 500, 11):
        assert cost_eval(100, t + 1, model) > cost_eval(100, t, model)


@pytest.mark.parametrize("model", [car_cost_model(), charger_cost_model()])
def test_real_cost_increasing_within_discount_bands(model):
    # The stepped discount makes the real cost drop where a new band
    # starts, so monotonicity in M holds within each band only.
    edges = [bp[0] for bp in model.discount.breakpoints] + [4000]
    for lo, hi in zip(edges, edges[1:]):
        vals = [cost_eval(m, 0, model) for m in range(lo, hi)]
        assert all(b > a for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("schedule, steps", [
    (CAR_DISCOUNTS, ((1, 0.00), (10, 0.03), (50, 0.05), (100, 0.10), (200, 0.15),
                     (500, 0.20), (1000, 0.25))),
    (CHARGER_DISCOUNTS, ((1, 0.00), (10, 0.05), (20, 0.10), (50, 0.15), (100, 0.20),
                         (200, 0.25))),
])
def test_builtin_schedules_step_at_their_band_starts(schedule, steps):
    # Each band's discount applies from its first quantity, not one before.
    for (_, below), (start, fraction) in zip(steps, steps[1:]):
        assert discount_real(start - 1, schedule) == below
        assert discount_real(start, schedule) == fraction


def test_builtin_registry():
    assert get_cost_model("car-mg4-2025") == car_cost_model()
    assert get_cost_model("charger-dc60-2025").horizon_years == 10
    with pytest.raises(KeyError):
        get_cost_model("no-such-model")


def test_cost_per_consumer_annualized():
    model = charger_cost_model()
    cost = cost_eval(10, 14, model)
    # Decade total divided by ten years and 1000 consumers.
    assert model.cost_per_consumer(cost, 1000) == pytest.approx(28.516, abs=1e-3)
    # One year for the car model and for a model that gives no horizon.
    car = car_cost_model()
    assert car.cost_per_consumer(cost_eval(120, 216, car), 1000) == pytest.approx(1220.4)
    assert CostModel(800.0, 120.0, CAR_DISCOUNTS).cost_per_consumer(1000.0, 100) == 10.0


def test_cost_per_consumer_checks_its_inputs():
    model = car_cost_model()
    per = model.cost_per_consumer(np.float32(1000.0), 1000)
    assert type(per) is float and per == 1000.0 / (1000 * model.horizon_years)
    assert type(model.cost_per_consumer(1000, np.int64(1000))) is float
    with pytest.raises(TypeError, match="^cost_real must be a real number"):
        model.cost_per_consumer(True, 1000)
    for cost in (-5.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="^cost_real must lie in"):
            model.cost_per_consumer(cost, 1000)
    with pytest.raises(TypeError, match="^n_consumers must be an integer"):
        model.cost_per_consumer(1000.0, True)
    for n in (0, _COUNT_MAX + 1):
        with pytest.raises(ValueError, match="^n_consumers"):
            model.cost_per_consumer(1000.0, n)
