"""Cost models with volume discounts.

The scheme operator pays a per-item cost for the shared pool of M items
(reduced by a quantity discount) and a per-item compensation for the T
prosumer items.  ``cost_eval`` prices a design with the piecewise
discount schedule applied to the pool term.  The two use-case models
ship as the built-ins ``car-mg4-2025`` and ``charger-dc60-2025``.
``fit_smooth_discount`` stands apart: it approximates a schedule by the
exponential decay A*(1 - exp(-B*M)), and no design is priced with it.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import InitVar, dataclass
from typing import Optional, Tuple

import numpy as np

from .qos import _integer, _real

__all__ = [
    "DiscountSchedule",
    "SmoothDiscount",
    "CostModel",
    "discount_real",
    "fit_smooth_discount",
    "cost_eval",
    "car_cost_model",
    "charger_cost_model",
    "get_cost_model",
]


@dataclass(frozen=True)
class DiscountSchedule:
    """Piecewise-constant quantity discount, as (min_quantity, fraction) steps."""

    breakpoints: Tuple[Tuple[int, float], ...]

    def __post_init__(self):
        for m, d in self.breakpoints:
            _integer("breakpoint quantity", m, 1)
            _real("discount fraction", d, 0.0, 1.0, "[)")
        bps = tuple((int(m), float(d)) for m, d in self.breakpoints)
        object.__setattr__(self, "breakpoints", bps)
        if not bps:
            raise ValueError("schedule needs at least one breakpoint")
        if bps[0][0] != 1:
            raise ValueError("first breakpoint must start at quantity 1")
        for (m0, d0), (m1, d1) in zip(bps, bps[1:]):
            if m1 <= m0:
                raise ValueError("breakpoint quantities must be strictly increasing")
            if d1 < d0:
                raise ValueError("discount fractions must be non-decreasing")

    @property
    def max_discount(self) -> float:
        return self.breakpoints[-1][1]


@dataclass(frozen=True)
class SmoothDiscount:
    """Exponential-decay discount approximation D(m) = A*(1 - exp(-B*m))."""

    amplitude: float
    rate: float

    def __post_init__(self):
        _real("amplitude", self.amplitude, 0.0, 1.0, "[)")
        _real("rate", self.rate, 0.0, math.inf, "()")

    def value(self, m: float) -> float:
        return self.amplitude * (1.0 - np.exp(-self.rate * m))


@dataclass(frozen=True)
class CostModel:
    """Unit costs and the discount schedule of a scheme operator.

    ``per_item_main`` prices both the free portion of the pool and the
    reserve (the general f/g split collapses to a single M term in both
    use cases); ``per_item_prosumer`` prices prosumer participation.
    ``horizon_years`` is the reporting period covered by the unit costs
    (1 for the car case, 10 for the charger case) and is used when
    annualizing per-consumer figures.

    ``smooth`` is accepted and dropped, as ``solve_min_cost`` ignores
    ``opts``: only the benchmark set-up still passes one, and the
    benchmark change that stops passing it removes it.
    """

    per_item_main: float
    per_item_prosumer: float
    discount: DiscountSchedule
    smooth: InitVar[Optional[SmoothDiscount]] = None
    horizon_years: int = 1
    name: str = ""

    def __post_init__(self, smooth):
        for name in ("per_item_main", "per_item_prosumer"):
            _real(name, getattr(self, name), 0.0, math.inf, "()")
        # The range first, so that a NaN or infinite horizon is a
        # ValueError like any other out-of-range value.
        _real("horizon_years", self.horizon_years, 1, math.inf, "[)")
        _integer("horizon_years", self.horizon_years, 1)

    def cost_per_consumer(self, cost_real: float, n_consumers: int) -> float:
        """Annualized per-consumer cost over the model horizon."""
        return cost_real / (n_consumers * self.horizon_years)


def discount_real(m: int, schedule: DiscountSchedule) -> float:
    """Discount fraction applying to a purchase of m items (0 for m = 0).

    As in ``qos.binom_cdf``, a plain non-negative int skips the full
    check of ``_integer``.
    """
    if type(m) is not int or m < 0:
        _integer("m", m)
    if m == 0:
        return 0.0
    # The schedule starts at quantity 1, so some breakpoint applies.
    idx = bisect.bisect_right(schedule.breakpoints, (m, math.inf)) - 1
    return schedule.breakpoints[idx][1]


def fit_smooth_discount(
    schedule: DiscountSchedule,
    m_max: Optional[int] = None,
) -> SmoothDiscount:
    """Least-squares fit of A*(1 - exp(-B*m)) to the step schedule.

    The residuals are taken on a log-spaced integer grid covering
    [1, m_max] (default: 1.5x the last breakpoint quantity), so every
    decade of the quantity axis gets comparable weight.  The problem is
    linear in A, so for each rate B the best amplitude in [0, 0.999] is
    the clipped closed-form least-squares value (variable projection);
    B itself is found by a log-grid search over [1e-3/m_max, 10] that
    zooms in four times on the best rate.
    """
    if schedule.max_discount == 0.0:
        return SmoothDiscount(amplitude=0.0, rate=1.0)
    if m_max is None:
        m_max = max(int(1.5 * schedule.breakpoints[-1][0]), 10)
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
    return SmoothDiscount(amplitude=float(amplitude), rate=float(rate))


def cost_eval(m: int, t: int, model: CostModel) -> float:
    """Real cost of a design with a pool of M items and T prosumers.

    The reserve Q shares the pool unit cost, so the cost of (M, T, Q)
    does not depend on Q: the discounted pool term plus the prosumer term.
    ``discount_real`` checks m.
    """
    if type(t) is not int or t < 0:
        _integer("t", t)
    pool = model.per_item_main * (1.0 - discount_real(m, model.discount)) * m
    return float(pool + model.per_item_prosumer * t)


CAR_DISCOUNTS = DiscountSchedule(
    breakpoints=((1, 0.00), (10, 0.03), (50, 0.05), (100, 0.10),
                 (200, 0.15), (500, 0.20), (1000, 0.25))
)

CHARGER_DISCOUNTS = DiscountSchedule(
    breakpoints=((1, 0.00), (10, 0.05), (20, 0.10), (50, 0.15),
                 (100, 0.20), (200, 0.25))
)


def car_cost_model() -> CostModel:
    """MG4-based car-sharing cost model: 6,500/EV/yr pool, 2,400/prosumer/yr."""
    return CostModel(
        per_item_main=6500.0,
        per_item_prosumer=12 * 200.0,
        discount=CAR_DISCOUNTS,
        horizon_years=1,
        name="car-mg4-2025",
    )


def charger_cost_model() -> CostModel:
    """DC charge-point cost model, decade horizon: 26,480/charger, 2,400/prosumer."""
    return CostModel(
        per_item_main=26480.0,
        per_item_prosumer=10 * 12 * 20.0,
        discount=CHARGER_DISCOUNTS,
        horizon_years=10,
        name="charger-dc60-2025",
    )


_BUILTINS = {
    "car-mg4-2025": car_cost_model,
    "charger-dc60-2025": charger_cost_model,
}


def get_cost_model(name: str) -> CostModel:
    try:
        return _BUILTINS[name]()
    except KeyError:
        raise KeyError(
            f"unknown cost model {name!r}; built-ins are {sorted(_BUILTINS)}"
        ) from None
