"""Cost models with volume discounts and their smooth approximations.

The scheme operator pays a per-item cost for the shared pool of M items
(reduced by a quantity discount) and a per-item compensation for the T
prosumer items.  ``cost_eval`` prices a design with the piecewise
discount schedule applied to the pool term.  Each model also carries
``SmoothDiscount``, a concave differentiable approximation of the step
schedule by the exponential-decay fit A*(1 - exp(-B*M)).

The two concrete use-case models ship as the named built-ins
``car-mg4-2025`` and ``charger-dc60-2025``.
"""

from __future__ import annotations

import bisect
import functools
import math
import numbers
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

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
        for m, _ in self.breakpoints:
            if isinstance(m, bool) or not isinstance(m, numbers.Integral):
                raise TypeError(f"breakpoint quantities must be integers; got {m!r}")
        bps = tuple((int(m), float(d)) for m, d in self.breakpoints)
        object.__setattr__(self, "breakpoints", bps)
        if not bps:
            raise ValueError("schedule needs at least one breakpoint")
        if bps[0][0] != 1:
            raise ValueError("first breakpoint must start at quantity 1")
        prev_m, prev_d = 0, -1.0
        for m, d in bps:
            if m <= prev_m:
                raise ValueError("breakpoint quantities must be strictly increasing")
            if not (0.0 <= d < 1.0):
                raise ValueError("discount fractions must lie in [0, 1)")
            if d < prev_d:
                raise ValueError("discount fractions must be non-decreasing")
            prev_m, prev_d = m, d

    @property
    def max_discount(self) -> float:
        return self.breakpoints[-1][1]


@dataclass(frozen=True)
class SmoothDiscount:
    """Exponential-decay discount approximation D(m) = A*(1 - exp(-B*m))."""

    amplitude: float
    rate: float

    def __post_init__(self):
        # Each check is written so that NaN fails it.
        if not (0.0 <= self.amplitude < 1.0):
            raise ValueError("amplitude must lie in [0, 1)")
        if not (0.0 < self.rate < math.inf):
            raise ValueError("rate must be positive and finite")

    def value(self, m: float) -> float:
        return self.amplitude * (1.0 - np.exp(-self.rate * m))


@dataclass(frozen=True)
class CostModel:
    """Unit costs plus the real and smooth discount descriptions.

    ``per_item_main`` prices both the free portion of the pool and the
    reserve (the general f/g split collapses to a single M term in both
    use cases); ``per_item_prosumer`` prices prosumer participation.
    ``horizon_years`` is the reporting period covered by the unit costs
    (1 for the car case, 10 for the charger case) and is used when
    annualizing per-consumer figures.
    """

    per_item_main: float
    per_item_prosumer: float
    discount: DiscountSchedule
    smooth: SmoothDiscount
    horizon_years: int = 1
    name: str = ""

    def __post_init__(self):
        # Each check is written so that NaN fails it: inline cost models
        # in scenario files can carry any float.
        for name in ("per_item_main", "per_item_prosumer"):
            if not (0.0 < getattr(self, name) < math.inf):
                raise ValueError(f"{name} must be positive and finite")
        if not (1 <= self.horizon_years < math.inf):
            raise ValueError("horizon_years must be at least 1 and finite")

    def cost_per_consumer(self, cost_real: float, n_consumers: int) -> float:
        """Annualized per-consumer cost over the model horizon."""
        return cost_real / (n_consumers * self.horizon_years)


def discount_real(m: int, schedule: DiscountSchedule) -> float:
    """Discount fraction applying to a purchase of m items (0 for m = 0)."""
    if m < 0:
        raise ValueError("m must be non-negative")
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
    """
    if t < 0:
        raise ValueError("t must be non-negative")
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


@functools.lru_cache(maxsize=None)
def car_cost_model() -> CostModel:
    """MG4-based car-sharing cost model: 6,500/EV/yr pool, 2,400/prosumer/yr."""
    return CostModel(
        per_item_main=6500.0,
        per_item_prosumer=12 * 200.0,
        discount=CAR_DISCOUNTS,
        smooth=fit_smooth_discount(CAR_DISCOUNTS, m_max=1500),
        horizon_years=1,
        name="car-mg4-2025",
    )


@functools.lru_cache(maxsize=None)
def charger_cost_model() -> CostModel:
    """DC charge-point cost model, decade horizon: 26,480/charger, 2,400/prosumer."""
    return CostModel(
        per_item_main=26480.0,
        per_item_prosumer=10 * 12 * 20.0,
        discount=CHARGER_DISCOUNTS,
        smooth=fit_smooth_discount(CHARGER_DISCOUNTS, m_max=400),
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
