"""Cost models with volume discounts.

The scheme operator pays a per-item cost for the shared pool of M items
(reduced by a quantity discount) and a per-item compensation for the T
prosumer items.  ``cost_eval`` prices a design with the piecewise
discount schedule applied to the pool term.  The two use-case models
ship as the built-ins ``car-mg4-2025`` and ``charger-dc60-2025``.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import InitVar, dataclass
from typing import Optional, Tuple

from .qos import _COUNT_MAX, _check_field, _integer, _real

__all__ = [
    "DiscountSchedule",
    "CostModel",
    "discount_real",
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
        try:
            pairs = tuple((m, d) for m, d in self.breakpoints)
        except (TypeError, ValueError):  # not iterable, or not pairs
            raise TypeError("breakpoints must be (min_quantity, fraction) pairs; "
                            f"got {self.breakpoints!r}") from None
        bps = tuple((_integer("breakpoint quantity", m, 1),
                     _real("discount fraction", d, 0.0, 1.0, "[)")) for m, d in pairs)
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
    ``opts``: only the benchmark set-up still passes one, the ``None``
    of ``fit_smooth_discount``, and the benchmark change that stops
    passing it removes it.
    """

    per_item_main: float
    per_item_prosumer: float
    discount: DiscountSchedule
    smooth: InitVar[object] = None
    horizon_years: int = 1
    name: str = ""

    def __post_init__(self, smooth):
        if not isinstance(self.discount, DiscountSchedule):
            raise TypeError(f"discount must be a DiscountSchedule; got {self.discount!r}")
        for name in ("per_item_main", "per_item_prosumer"):
            _check_field(self, name, _real, 0.0, math.inf, "()")
        # The range first, so that a NaN or infinite horizon is a
        # ValueError like any other out-of-range value.
        _real("horizon_years", self.horizon_years, 1, math.inf, "[)")
        _check_field(self, "horizon_years", _integer, 1)

    def cost_per_consumer(self, cost_real: float, n_consumers: int) -> float:
        """Annualized per-consumer cost over the model horizon."""
        cost_real = _real("cost_real", cost_real, 0, math.inf, "[)")
        n_consumers = _integer("n_consumers", n_consumers, 1, _COUNT_MAX)
        return cost_real / (n_consumers * self.horizon_years)


def discount_real(m: int, schedule: DiscountSchedule) -> float:
    """Discount fraction applying to a purchase of m items (0 for m = 0)."""
    return _discount(_integer("m", m), schedule)


def _discount(m: int, schedule: DiscountSchedule) -> float:
    # Unchecked ``discount_real``, for a Python int m >= 0.
    if m == 0:
        return 0.0
    # The schedule starts at quantity 1, so some breakpoint applies.
    idx = bisect.bisect_right(schedule.breakpoints, (m, math.inf)) - 1
    return schedule.breakpoints[idx][1]


def fit_smooth_discount(schedule: DiscountSchedule, m_max: Optional[int] = None) -> None:
    """Return None, which ``CostModel(smooth=)`` drops.

    Kept only because ``perfbench/workloads.py`` passes its result to
    ``CostModel(smooth=)``; the benchmark change that stops calling it
    deletes it.
    """
    return None


def cost_eval(m: int, t: int, model: CostModel) -> float:
    """Real cost of a design with a pool of M items and T prosumers.

    The reserve Q shares the pool unit cost, so the cost of (M, T, Q)
    does not depend on Q: the discounted pool term plus the prosumer term.
    A plain non-negative int m and t skip the full check of ``_integer``.
    """
    if type(m) is not int or type(t) is not int or m < 0 or t < 0:
        m, t = _integer("m", m), _integer("t", t)
    pool = model.per_item_main * (1.0 - _discount(m, model.discount)) * m
    return pool + model.per_item_prosumer * t


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
