"""Problem 1: minimum-cost dimensioning of the (M, T, Q) design.

The cost depends on M and T alone (the reserve shares the pool unit
cost) and rises linearly in T, so for a fixed prosumer pool T the
cheapest design takes the smallest reserve Q that meets the
bad-behaviour target and the smallest pool M that meets the other two,
or the start of a higher discount band.  Every target is judged by one
rule, ``qos._meets_target``, which ``min_items_for_qos`` bisects on and
``feasible`` checks, so a design the scan returns is feasible.  One scan,
``_scan``, walks T on this structure and is exact for every cost model:
``CostModel`` requires positive unit costs and ``DiscountSchedule``
discounts in [0, 1), which is all the scan relies on.
``solve_min_cost`` runs it with an early exit once the cheapest pool
plus the prosumer cost of T exceeds the best design found, which cuts
the scan at the optimal T instead of N; ``brute_force_design`` runs it
over every T.  The full 3-D scan ``_brute_force_full`` (N <= 300)
enumerates every reserve and pool instead and is the independent
reference both are tested against.
"""

from __future__ import annotations

import csv
import dataclasses
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .cost import CostModel, cost_eval
from .qos import QosReport, ScenarioParams, _meets_target, min_items_for_qos, qos_all

__all__ = [
    "Design",
    "DesignReport",
    "SolverOpts",
    "InfeasibleDesignError",
    "feasible",
    "solve_min_cost",
    "brute_force_design",
    "compare_approaches",
    "sweep_cost_vs_qos",
    "sweep_cost_vs_n",
    "write_design_csv",
    "DESIGN_CSV_COLUMNS",
]

DESIGN_CSV_COLUMNS = (
    "N", "qos_target", "M", "T", "Q",
    "cost_total", "cost_per_consumer",
    "qos_ns", "qos_s", "qos_b",
)


class InfeasibleDesignError(ValueError):
    """Raised when no design can satisfy the QoS/structural constraints."""


@dataclass(frozen=True)
class Design:
    """A candidate (M, T, Q): pool size, prosumer pool, reserve."""

    m: int
    t: int
    q: int


@dataclass(frozen=True)
class DesignReport:
    """The design of a scenario (``params``), its cost and its QoS."""

    params: ScenarioParams
    design: Design
    cost_real: float
    cost_per_consumer: float
    qos: QosReport


@dataclass(frozen=True)
class SolverOpts:
    """Options of ``solve_min_cost``, which the exact solver ignores.

    Kept only so callers that pass them keep working; scenario files no
    longer carry a ``[solver]`` section.
    """

    optimality_gap: float = 0.01


def feasible(params: ScenarioParams, d: Design) -> bool:
    """Check the three QoS constraints and the four structural ones."""
    n = params.n_consumers
    if not (n >= d.m >= d.q >= 0 and d.t >= d.q and n >= d.m - d.q + d.t):
        return False
    return bool(
        _meets_target(d.m, n, params.p_nonsurge, params.qos_target_ns)
        and _meets_target(d.m - d.q + d.t, n, params.p_surge, params.qos_target_s)
        and _meets_target(d.q, d.t, params.p_bad, params.qos_target_b)
    )


def _report(params: ScenarioParams, model: CostModel, d: Design) -> DesignReport:
    cost = cost_eval(d.m, d.t, model)
    return DesignReport(
        params=params,
        design=d,
        cost_real=cost,
        cost_per_consumer=model.cost_per_consumer(cost, params.n_consumers),
        qos=qos_all(params, d.m, d.t, d.q),
    )


# ---------------------------------------------------------------------------
# Exact scan
# ---------------------------------------------------------------------------

def _pool_minima(params: ScenarioParams) -> Tuple[int, int]:
    # The smallest pool that meets the non-surge target, and the smallest
    # surge supply M - Q + T that meets the surge target.
    n = params.n_consumers
    return (min_items_for_qos(n, params.p_nonsurge, params.qos_target_ns),
            min_items_for_qos(n, params.p_surge, params.qos_target_s))


def _m_candidates(starts: List[int], m_min: int, m_max: int):
    # The discounted pool term can drop where a discount band begins, so
    # the cheapest pool of size >= m_min is either m_min itself or the
    # first item count of a higher band; ``starts`` lists those counts.
    yield m_min
    for min_qty in starts:
        if m_min < min_qty <= m_max:
            yield min_qty


def _scan(params: ScenarioParams, model: CostModel, prune: bool) -> DesignReport:
    n = params.n_consumers
    m_ns, a_s = _pool_minima(params)
    # Every pool is at least m_ns, so only the bands starting above it
    # can hold a candidate; at large N there are none.
    starts = [min_qty for min_qty, _ in model.discount.breakpoints if min_qty > m_ns]
    if prune:
        pool_floor = min(cost_eval(m, 0, model) for m in _m_candidates(starts, m_ns, n))
    # T = 0 always yields a candidate: Q = 0 and M = max(m_ns, a_s) <= N
    # meet all three targets, so ``best`` is set after the first pass.
    best: Optional[Tuple[float, int, int, int]] = None
    q = 0
    for t in range(0, n + 1):
        if prune and best is not None and pool_floor + model.per_item_prosumer * t > best[0]:
            break
        # Minimum reserve for this prosumer pool; monotone in t, so a
        # moving pointer suffices.
        while not _meets_target(q, t, params.p_bad, params.qos_target_b):
            q += 1
        m_min = max(m_ns, a_s - t + q, q)
        if m_min > n or m_min - q + t > n:
            continue
        # Larger M only tightens the N >= M - Q + T constraint; cap there.
        for m in _m_candidates(starts, m_min, min(n, n + q - t)):
            key = (cost_eval(m, t, model), m, t, q)
            if best is None or key < best:
                best = key
    _, m, t, q = best
    return _report(params, model, Design(m, t, q))


def brute_force_design(params: ScenarioParams, model: CostModel) -> DesignReport:
    """Exact integer optimum of Problem 1 by structured scan over every T.

    For each T, the minimum reserve Q follows from the bad-behaviour
    constraint, and the minimum M from the non-surge and surge
    constraints; since cost rises with M inside a discount band but can
    drop where a band starts, the candidates per T are that corner plus
    every band start above it.  This is ``solve_min_cost``'s scan
    without the early exit.
    """
    return _scan(params, model, prune=False)


def _brute_force_full(params: ScenarioParams, model: CostModel) -> DesignReport:
    n = params.n_consumers
    if n > 300:
        raise InfeasibleDesignError("full 3-D scan fallback is limited to N <= 300")
    m_ns, a_s = _pool_minima(params)
    best: Optional[Tuple[float, int, int, int]] = None
    for t in range(0, n + 1):
        # The smallest reserve by the rule feasible() checks, found by a
        # linear scan rather than min_items_for_qos.
        q_min = next(q for q in range(t + 1)
                     if _meets_target(q, t, params.p_bad, params.qos_target_b))
        for q in range(q_min, t + 1):
            m_lo = max(m_ns, a_s - t + q, q)
            if m_lo > n or m_lo - q + t > n:
                continue
            for m in range(m_lo, min(n, n + q - t) + 1):
                key = (cost_eval(m, t, model), m, t, q)
                if best is None or key < best:
                    best = key
    if best is None:
        raise InfeasibleDesignError(
            "no (M, T, Q) satisfies all constraints for these parameters")
    _, m, t, q = best
    return _report(params, model, Design(m, t, q))


# ---------------------------------------------------------------------------
# Exact solver
# ---------------------------------------------------------------------------

def solve_min_cost(params: ScenarioParams, model: CostModel,
                   opts: Optional[SolverOpts] = None) -> DesignReport:
    """Exact minimum-cost design by a pruned structured scan over T.

    The scan is the one ``brute_force_design`` runs: a moving pointer
    gives the minimum reserve Q(T), and the candidates per T are the
    smallest feasible M plus every discount-band start above it.  Since
    the cost is the pool term plus ``per_item_prosumer * T``, no design
    with T prosumers costs less than ``pool_floor + per_item_prosumer *
    T``, where ``pool_floor`` is the cheapest pool that meets the
    non-surge target.  The scan stops once that bound is strictly above
    the best cost found, so ties break on (cost, M, T, Q) exactly as in
    the oracle.  ``opts`` is accepted for compatibility and ignored.
    """
    return _scan(params, model, prune=True)


# ---------------------------------------------------------------------------
# Comparisons and sweeps
# ---------------------------------------------------------------------------

def compare_approaches(params: ScenarioParams, model: CostModel) -> Dict[str, DesignReport]:
    """Hybrid optimum vs pure B2C (no prosumers) vs ownership.

    The B2C pool is the smallest that meets both the surge and the
    non-surge target on its own.
    """
    hybrid = solve_min_cost(params, model)
    b2c = _report(params, model, Design(max(_pool_minima(params)), 0, 0))
    ownership = _report(params, model, Design(params.n_consumers, 0, 0))
    return {"hybrid": hybrid, "b2c": b2c, "ownership": ownership}


def _sweep(params: ScenarioParams, model: CostModel, grid: Sequence,
           vary: Callable[[ScenarioParams, object], ScenarioParams]) -> List[DesignReport]:
    if not grid:
        raise ValueError("grid must be non-empty")
    return [solve_min_cost(vary(params, x), model) for x in grid]


def sweep_cost_vs_qos(params: ScenarioParams, model: CostModel,
                      qos_grid: Sequence[float]) -> List[DesignReport]:
    """Optimal design at each common QoS target of the grid."""
    return _sweep(params, model, qos_grid, lambda p, target: dataclasses.replace(
        p, qos_target_ns=target, qos_target_s=target, qos_target_b=target))


def sweep_cost_vs_n(params: ScenarioParams, model: CostModel,
                    n_grid: Sequence[int]) -> List[DesignReport]:
    """Optimal design at each (integer) consumer population size of the grid."""
    return _sweep(params, model, n_grid,
                  lambda p, n: dataclasses.replace(p, n_consumers=n))


def write_design_csv(path, reports: Sequence[DesignReport]) -> None:
    """Write one row per report using the documented column set."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(DESIGN_CSV_COLUMNS)
        for rep in reports:
            d = rep.design
            writer.writerow([
                rep.params.n_consumers,
                rep.params.qos_target_s,
                d.m, d.t, d.q,
                f"{rep.cost_real:.2f}",
                f"{rep.cost_per_consumer:.2f}",
                f"{rep.qos.qos_ns:.6f}",
                f"{rep.qos.qos_s:.6f}",
                f"{rep.qos.qos_b:.6f}",
            ])
