"""Unit tests for cost models, discount schedules and the smooth fit."""

import dataclasses
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from surgeshare import (
    CostModel,
    DiscountSchedule,
    SmoothDiscount,
    car_cost_model,
    charger_cost_model,
    cost_eval,
    discount_real,
    fit_smooth_discount,
    get_cost_model,
)
from surgeshare import cost as cost_module
from surgeshare.cost import CAR_DISCOUNTS, CHARGER_DISCOUNTS, _fit_grid
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
    for bad in ("0.2", True, None):
        with pytest.raises(TypeError, match="amplitude"):
            SmoothDiscount(amplitude=bad, rate=1.0)
        with pytest.raises(TypeError, match="rate"):
            SmoothDiscount(amplitude=0.2, rate=bad)


@pytest.mark.parametrize("m, error", [
    (-5, ValueError), (True, TypeError), (math.nan, ValueError), ("3", TypeError),
])
def test_smooth_discount_value_checks_m(m, error):
    # A quantity is a real m >= 0, checked as any other input and named.
    with pytest.raises(error, match="^m must"):
        SmoothDiscount(amplitude=0.2, rate=0.01).value(m)


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


@pytest.mark.parametrize("schedule", [((1, 0.0), (20, 0.1)), [(1, 0.0)], None, "car-mg4-2025"])
def test_fit_takes_only_a_schedule(schedule):
    with pytest.raises(TypeError, match="^schedule must be a DiscountSchedule"):
        fit_smooth_discount(schedule)


@pytest.mark.parametrize("discount", [CAR_DISCOUNTS, DiscountSchedule(((1, 0.0),))])
@pytest.mark.parametrize("m_max, error", [
    (0, ValueError), (-5, ValueError), ("30", TypeError), (True, TypeError),
    (2.5, TypeError), (30.0, TypeError),
    # Above the largest population the package takes, as far as 10**400,
    # where the grid's powers of ten overflow a float.
    pytest.param(_COUNT_MAX + 1, ValueError, id="COUNT_MAX+1-ValueError"),
    pytest.param(10**400, ValueError, id="10**400-ValueError"),
])
def test_fit_checks_m_max(discount, m_max, error):
    # A flat schedule needs no fit, but its m_max is checked all the same.
    with pytest.raises(error, match=f"^m_max (must be|cannot exceed {_COUNT_MAX};)"):
        fit_smooth_discount(discount, m_max)


def test_fit_default_m_max(monkeypatch):
    # The default m_max is 1.5x the last quantity, as the former
    # int(1.5 * q) gave it, so the built-in fits keep their bits; it is
    # computed in integers and capped like a given m_max, so a last
    # quantity past the float range fits too.
    sizes = []

    def recording(m_max):
        sizes.append(m_max)
        return _fit_grid(m_max)

    monkeypatch.setattr(cost_module, "_fit_grid", recording)
    for last in (10**400, 2**31):
        sd = fit_smooth_discount(DiscountSchedule(((1, 0.0), (last, 0.1))))
        assert 0.0 <= sd.amplitude <= 0.999 and sd.rate > 0.0
    assert sizes == [_COUNT_MAX, _COUNT_MAX]
    for schedule in (CAR_DISCOUNTS, CHARGER_DISCOUNTS):
        sizes.clear()
        m_max = int(1.5 * schedule.breakpoints[-1][0])
        assert fit_smooth_discount(schedule) == fit_smooth_discount(schedule, m_max)
        assert sizes == [m_max, m_max]


def test_fit_takes_numpy_m_max():
    assert fit_smooth_discount(CAR_DISCOUNTS, np.int64(1500)) == \
        fit_smooth_discount(CAR_DISCOUNTS, 1500)
    sd = fit_smooth_discount(CAR_DISCOUNTS, 1)
    assert 0.0 <= sd.amplitude <= 0.999 and sd.rate > 0.0


def _numpy_zoom_fit(schedule, m_max):
    # The numpy search the fit used before: five rounds of a 257-rate log
    # grid, each zooming in on the best rate's two neighbours.
    grid = np.unique(np.round(np.geomspace(1, m_max, 400)).astype(int))
    target = np.array([discount_real(int(m), schedule) for m in grid])
    rates = np.geomspace(1e-3 / m_max, 10.0, 257)
    for _ in range(5):
        g = -np.expm1(-np.outer(rates, grid))
        amps = np.clip(g @ target / (g * g).sum(axis=1), 0.0, 0.999)
        sse = np.square(amps[:, None] * g - target).sum(axis=1)
        i = int(np.argmin(sse))
        amplitude, rate = amps[i], rates[i]
        rates = np.geomspace(rates[max(i - 1, 0)], rates[min(i + 1, rates.size - 1)], 257)
    return float(amplitude), float(rate)


def _random_schedule(rng):
    # Concave (early steps, shrinking increments) or accelerating (late
    # steps, growing increments) like the benchmark's inline models.
    concave = rng.random() < 0.5
    qty = rng.randint(2, 20) if concave else rng.randint(100, 400)
    inc, frac, steps = rng.uniform(0.01, 0.1), 0.0, [(1, 0.0)]
    for _ in range(rng.randint(2, 5)):
        frac = min(frac + inc, 0.95)
        steps.append((qty, frac))
        qty = int(qty * rng.uniform(2.0, 4.0) if concave else qty * rng.uniform(1.2, 1.6)) + 1
        inc *= rng.uniform(0.4, 0.9) if concave else rng.uniform(1.5, 2.5)
    return DiscountSchedule(tuple(steps))


def test_fit_matches_numpy_zoom_search():
    rng = random.Random(20260)
    for _ in range(200):
        schedule = _random_schedule(rng)
        m_max = max(int(1.5 * schedule.breakpoints[-1][0]), 10)
        sd = fit_smooth_discount(schedule, m_max)
        fit_sse = _fit_residual(schedule, m_max, sd.amplitude, sd.rate)
        oracle_sse = _fit_residual(schedule, m_max, *_numpy_zoom_fit(schedule, m_max))
        assert fit_sse <= oracle_sse * (1.0 + 1e-12) + 1e-15, schedule


def test_fit_grid_matches_numpy():
    for m_max in range(1, 20001):
        expected = np.unique(np.round(np.geomspace(1, m_max, 400)).astype(int))
        assert _fit_grid(m_max) == expected.tolist(), m_max


def test_fit_and_value_load_neither_numpy_nor_scipy(fresh_python):
    code = (
        "import sys\n"
        "import surgeshare\n"
        "sd = surgeshare.fit_smooth_discount(surgeshare.DiscountSchedule(((1, 0.0), (20, 0.1))))\n"
        "values = [sd.value(120), sd.value(120.0)]\n"
        "print(sorted(m for m in ('numpy', 'scipy') if m in sys.modules))\n"
        "import numpy as np\n"
        "values += [sd.value(np.int64(120)), sd.value(np.float64(120.0))]\n"
        "print([type(v).__name__ for v in values])\n"
    )
    proc = fresh_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "['float', 'float', 'float', 'float']"]


# The quantity range each built-in schedule's smooth fit covers.
_FIT_M_MAX = {"car-mg4-2025": 1500, "charger-dc60-2025": 400}


def _builtin_fit(model):
    return fit_smooth_discount(model.discount, m_max=_FIT_M_MAX[model.name])


def test_fit_car_amplitude():
    sd = fit_smooth_discount(CAR_DISCOUNTS, m_max=1500)
    assert sd.amplitude == pytest.approx(0.25, abs=0.05)
    assert sd.amplitude <= CAR_DISCOUNTS.max_discount + 0.05


def test_fit_zero_at_origin():
    assert fit_smooth_discount(CAR_DISCOUNTS, m_max=1500).value(0) == 0.0
    assert fit_smooth_discount(CHARGER_DISCOUNTS, m_max=400).value(0) == 0.0


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


def _smooth_pool_cost(m, model, sd):
    return model.per_item_main * (1.0 - sd.value(m)) * m


@pytest.mark.parametrize("model", [car_cost_model(), charger_cost_model()])
def test_real_never_exceeds_linear(model):
    for m in range(0, 2000, 37):
        for t in (0, 10, 500):
            linear = model.per_item_main * m + model.per_item_prosumer * t
            assert cost_eval(m, t, model) <= linear + 1e-9


@pytest.mark.parametrize("model", [car_cost_model(), charger_cost_model()])
def test_approx_tracks_real_within_5pct(model):
    sd = _builtin_fit(model)
    for m in range(1, 6001):
        real = cost_eval(m, 0, model)
        assert abs(_smooth_pool_cost(m, model, sd) - real) / real <= 0.05


@pytest.mark.parametrize("model", [car_cost_model(), charger_cost_model()])
def test_approx_pool_term_is_concave(model):
    # (1 - A(1 - e^{-Bm}))*m has its inflection at m = 2/B; curvature is
    # negative below it and vanishingly small beyond, so concavity is
    # asserted over the discount-relevant range up to the inflection.
    sd = _builtin_fit(model)
    upper = int(2.0 / sd.rate)
    vals = [_smooth_pool_cost(m, model, sd) for m in range(1, upper + 1)]
    for a, b, c in zip(vals, vals[1:], vals[2:]):
        assert (c - b) - (b - a) <= 1e-4


@pytest.mark.parametrize("model", [car_cost_model(), charger_cost_model()])
def test_cost_increasing_in_t(model):
    for t in range(0, 500, 11):
        assert cost_eval(100, t + 1, model) > cost_eval(100, t, model)


@pytest.mark.parametrize("model", [car_cost_model(), charger_cost_model()])
def test_smooth_cost_increasing_in_m(model):
    sd = _builtin_fit(model)
    vals = [_smooth_pool_cost(m, model, sd) for m in range(0, 3000)]
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
    assert get_cost_model("car-mg4-2025") == car_cost_model()
    assert get_cost_model("charger-dc60-2025").horizon_years == 10
    with pytest.raises(KeyError):
        get_cost_model("no-such-model")


def test_cost_per_consumer_annualized():
    model = charger_cost_model()
    cost = cost_eval(10, 14, model)
    # Decade total divided by ten years and 1000 consumers.
    assert model.cost_per_consumer(cost, 1000) == pytest.approx(28.516, abs=1e-3)


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
