"""Problem 1: minimum-cost dimensioning of the (M, T, Q) design.

The cost depends on M and T alone (the reserve shares the pool unit
cost) and rises linearly in T, so for a fixed prosumer pool T the
cheapest design takes the smallest reserve Q that meets the
bad-behaviour target and the smallest pool M that meets the other two,
or the start of a higher discount band.  Every target is judged by one
rule, ``qos._meets_target``, which ``feasible`` checks, so a design the
scan returns is feasible.  Both searches on the rule start from an
estimate and gallop to where it flips (``qos._flip``): the pool minima
from the normal-approximation reserve, relying on the rule being
monotone in the item count, and the reserve pointer from the length of
the previous stretch of T with the same Q, relying on it being monotone
in T at a fixed Q.  ``solve_min_cost`` walks T one stretch of
constant Q at a time.  Within a stretch the smallest pool is
max(M_ns, A_s + Q - T, Q), where M_ns is the smallest pool that meets
the non-surge target and A_s the smallest surge supply M - Q + T that
meets the surge target.  Between discount-band boundaries its cost
moves by a step of one sign per T, and a pool that stays put, such as
a band start, never gets cheaper as T grows.  So the scan prices
candidates only at the ends of those pieces of each stretch.  Where
some band's pool rate is so close to the prosumer rate that rounding
could reverse the step, it prices every T.  The scan is exact for every
cost model: ``CostModel`` requires positive unit costs and
``DiscountSchedule`` discounts in [0, 1), which is all it relies on.
The scan exits early once the cheapest pool plus the prosumer cost of
T exceeds the best design found, which cuts it at the optimal T
instead of N.

One reference checks it.  ``brute_force_design`` prices the whole
(M, T) grid and shares with the solver only the rule, the operations
of ``cost_eval`` and the (cost, M, T, Q) tie-break.  It rests on two
arguments.  As the rule is monotone in the item count, the feasible
reserves of (M, T) are the interval [max(Q(T), M + T - N),
min(M, T, M + T - A_s)], Q(T) being the least reserve that meets the
bad-behaviour target at T.  And as every cost is a pool term plus
``per_item_prosumer * T`` and rounding is monotone, once the cheapest
pool of at least M_ns items plus that term exceeds the best cost, no
larger T can reach it.
"""

from __future__ import annotations

import csv
import dataclasses
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .cost import CostModel, cost_eval
from .qos import (QosReport, ScenarioParams, _flip, _integer, _meets_target,
                  min_items_for_qos, qos_all)

__all__ = [
    "Design",
    "DesignReport",
    "SolverOpts",
    "InfeasibleDesignError",
    "feasible",
    "solve_min_cost",
    "brute_force_design",
    "compare_approaches",
    "write_design_csv",
    "DESIGN_CSV_COLUMNS",
]

DESIGN_CSV_COLUMNS = (
    "N", "qos_target", "M", "T", "Q",
    "cost_total", "cost_per_consumer",
    "qos_ns", "qos_s", "qos_b",
)


class InfeasibleDesignError(ValueError):
    """No longer raised by anything in the package.

    Every scenario has a design (T = 0, Q = 0 and the larger pool
    minimum), so neither the solver nor the reference raises it.  It is
    kept only because ``perfbench/workloads.py`` and
    ``perfbench/selftest.py`` catch it and construct it; the benchmark
    change that stops using it removes it.
    """


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
    """Check the three QoS constraints and the four structural ones.

    M, T and Q must be integers; integers outside the structural bounds
    make the design infeasible, not an error.
    """
    for name in ("m", "t", "q"):
        _integer(name, getattr(d, name), -math.inf)
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
# Exact solver
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
    # There is none when m_min > m_max: no pool meets the bounds.
    if m_min > m_max:
        return
    yield m_min
    for min_qty in starts:
        if m_min < min_qty <= m_max:
            yield min_qty


def _reserve_stretches(t_max: int, p_b: float, target: float):
    # The minimum reserve Q(T) for T = 0, 1, ..., t_max as stretches
    # (t0, t1, q): Q(T) = q for t0 <= T <= t1.  The stretches are
    # contiguous, cover [0, t_max] and q rises from one to the next.
    # Q(T) never falls as T grows, and at a fixed Q the rule fails for
    # every T from its first failure on, so a stretch ends just before
    # that flip and needs no rule call inside.  The next flip is searched
    # from the previous stretch's length.
    def flip_after(q: int, t: int, start: int) -> int:
        # The first T after t at which q items fail, or t_max + 1.
        return _flip(lambda x: not _meets_target(q, x, p_b, target), t + 1, t_max + 1, start)

    q, t0 = 0, 0
    flip = flip_after(0, 0, 1)
    while True:
        yield t0, flip - 1, q
        if flip > t_max:
            return
        # q is known to fail at the flip.
        q += 1
        while not _meets_target(q, flip, p_b, target):
            q += 1
        flip, t0 = flip_after(q, flip, 2 * flip - t0), flip


def _near_prosumer_rate(model: CostModel, n: int) -> bool:
    # Whether rounding could reverse the cost step per T of a corner pool
    # a_s + q - T inside one band.  That step is exactly per_item_prosumer
    # - rate, rate = per_item_main * (1 - d) for the band's discount d,
    # plus the errors of two costs, each three roundings of values below
    # bound = 2 * (per_item_main + per_item_prosumer) * n, so at most
    # 3 ulps of bound in all.  Equal rates count as near.
    pm, pp = model.per_item_main, model.per_item_prosumer
    tol = 4 * math.ulp(2 * (pm + pp) * n)
    return any(abs(pm * (1.0 - d) - pp) <= tol for _, d in model.discount.breakpoints)


def _priced_points(n: int, m_ns: int, a_s: int, model: CostModel, stretches):
    # The (T, Q) at which ``solve_min_cost`` prices its candidates, in
    # rising T.
    # In a stretch of constant q the corner pool is max(c, a_s + q - T),
    # c = max(m_ns, q), and each family of candidates is cheapest at an
    # end of a piece of the stretch cut where the corner reaches c, c + 1
    # or n, or crosses a band boundary b - 1 | b:
    # - while the corner is a_s + q - T in one band, its cost moves by a
    #   step per T of one sign (``_near_prosumer_rate`` rules out a step
    #   that rounding could reverse), so it is cheapest at a piece end;
    # - a pool of c, or a band start s, costs pool + per_item_prosumer * T,
    #   which never falls as T grows, so it is cheapest at its earliest
    #   valid T: the stretch start, a_s + q - c or a_s + q - s + 1;
    # - the N >= M - Q + T cap only drops candidates as T grows.
    # Only if ``_near_prosumer_rate`` is every stretch walked T by T.
    marks = {m for b, _ in model.discount.breakpoints for m in (b - 1, b) if m_ns <= m <= n}
    marks.add(n)
    every_t = _near_prosumer_rate(model, n)
    for t0, t1, q in stretches:
        if every_t:
            ts = range(t0, t1 + 1)
        else:
            k, c = a_s + q, max(m_ns, q)
            ends = {k - m for m in marks if m > c}
            ends.update((k - c, k - c - 1))
            ts = sorted({t for t in ends if t0 < t < t1} | {t0, t1})
        for t in ts:
            yield t, q


def solve_min_cost(params: ScenarioParams, model: CostModel,
                   opts: Optional[SolverOpts] = None) -> DesignReport:
    """Exact minimum-cost design by a pruned structured scan over T.

    A galloping pointer gives the stretches of T with the same minimum
    reserve Q, the candidates per T are the smallest feasible M plus
    every discount-band start above it, and each stretch is priced only
    at the ends of the pieces on which those candidates' costs are
    monotone in T.  Since the cost is the pool term plus
    ``per_item_prosumer * T``, no design with T prosumers costs less
    than ``pool_floor + per_item_prosumer * T``, where ``pool_floor`` is
    the cheapest pool that meets the non-surge target.  The scan stops
    once that bound is strictly above the best cost found, so ties break
    on (cost, M, T, Q) exactly as in ``brute_force_design``.  ``opts``
    is accepted for compatibility and ignored.
    """
    n = params.n_consumers
    m_ns, a_s = _pool_minima(params)
    # Every pool is at least m_ns, so only the bands starting above it
    # can hold a candidate; at large N there are none.
    starts = [min_qty for min_qty, _ in model.discount.breakpoints if min_qty > m_ns]
    pool_floor = min(cost_eval(m, 0, model) for m in _m_candidates(starts, m_ns, n))
    # T = 0 always yields a candidate: Q = 0 and M = max(m_ns, a_s) <= N
    # meet all three targets, so ``best`` is set after the first pass.
    best: Optional[Tuple[float, int, int, int]] = None
    # The minimum reserve is found per stretch of T where it stays put,
    # with rule calls only where it must grow; each search for that T
    # starts one previous stretch past the last one and relies on the
    # rule being monotone in T at a fixed Q.  Within a stretch only the
    # piece ends are priced (``_priced_points``).
    stretches = _reserve_stretches(n, params.p_bad, params.qos_target_b)
    for t, q in _priced_points(n, m_ns, a_s, model, stretches):
        if best is not None and pool_floor + model.per_item_prosumer * t > best[0]:
            break
        m_min = max(m_ns, a_s - t + q, q)
        # Larger M only tightens the N >= M - Q + T constraint; cap there.
        for m in _m_candidates(starts, m_min, min(n, n + q - t)):
            key = (cost_eval(m, t, model), m, t, q)
            if best is None or key < best:
                best = key
    _, m, t, q = best
    return _report(params, model, Design(m, t, q))


# ---------------------------------------------------------------------------
# References
# ---------------------------------------------------------------------------

def brute_force_design(params: ScenarioParams, model: CostModel) -> DesignReport:
    """Exact integer optimum of Problem 1 on the (M, T) grid: the reference.

    M_ns, A_s and Q(T) come from linear scans of ``qos._meets_target``,
    and the pool term of ``cost_eval`` from one vector over M = 0..N.
    The feasible reserves of (M, T) are [max(Q(T), M + T - N),
    min(M, T, M + T - A_s)]; that interval is non-empty exactly when
    M >= max(M_ns, Q(T), A_s + Q(T) - T), which is at most N, so each T
    prices every M from there to N with its least reserve.  The cost is
    the pool term plus ``per_item_prosumer * T`` and rounding is
    monotone, so the scan stops once the cheapest pool of at least M_ns
    items plus that term exceeds the best cost.
    """
    # A Python int: with a numpy integer N, M + T - N would wrap around.
    n = int(params.n_consumers)

    def least_passing(p: float, target: float) -> int:
        return next(a for a in range(n + 1) if _meets_target(a, n, p, target))

    m_ns = least_passing(params.p_nonsurge, params.qos_target_ns)
    a_s = least_passing(params.p_surge, params.qos_target_s)
    # cost_eval's pool term at every M, in its order of operations; the
    # discount picked at M = 0 is multiplied by 0.
    quantities, fractions = zip(*model.discount.breakpoints)
    ms = np.arange(n + 1)
    discount = np.asarray(fractions)[np.searchsorted(quantities, ms, side="right") - 1]
    pool = model.per_item_main * (1.0 - discount) * ms
    pool_floor = pool[m_ns:].min()
    best: Tuple = (math.inf,)
    q = 0
    for t in range(n + 1):
        prosumers = model.per_item_prosumer * t
        if pool_floor + prosumers > best[0]:
            break
        while not _meets_target(q, t, params.p_bad, params.qos_target_b):
            q += 1
        lo = max(m_ns, q, a_s + q - t)
        # argmin keeps the first, so the smallest M, of equal costs.
        costs = pool[lo:] + prosumers
        m = lo + int(np.argmin(costs))
        best = min(best, (float(costs[m - lo]), m, t, max(q, m + t - n)))
    _, m, t, q = best
    return _report(params, model, Design(m, t, q))


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


def sweep_cost_vs_qos(params: ScenarioParams, model: CostModel,
                      qos_grid: Sequence[float]) -> List[DesignReport]:
    """Optimal design at each common QoS target of the grid."""
    # Only perfbench/workloads.py calls this; the benchmark change that
    # stops calling it deletes it (``cli sweep`` builds its own points).
    if not qos_grid:
        raise ValueError("grid must be non-empty")
    points = [dataclasses.replace(params, qos_target_ns=x, qos_target_s=x, qos_target_b=x)
              for x in qos_grid]
    return [solve_min_cost(p, model) for p in points]


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
