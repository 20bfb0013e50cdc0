"""Problem 1: minimum-cost dimensioning of the (M, T, Q) design.

The cost depends on M and T alone (the reserve shares the pool unit
cost) and rises with T at a fixed M.  Every target is judged by one
rule, ``qos._meets_target``, which ``feasible`` checks, so a design the
scan returns is feasible.  Every search on the rule starts from an
estimate and gallops to where it flips (``qos._flip``): the pool minima
from the normal-approximation reserve, relying on the rule being
monotone in the item count, and, with one search per reserve, the end
of that reserve's stretch of T from the length of the previous
stretch, relying on the rule being monotone in T at a fixed reserve.
Let M_ns be the smallest pool that meets the non-surge target, A_s the
smallest surge supply M - Q + T that meets the surge target, and Q(T)
the least reserve that meets the bad-behaviour target at T.
``solve_min_cost`` rests on three facts.

- A pool M >= max(M_ns, A_s) is feasible at T = 0 with Q = 0, where it
  is cheapest; within a discount band the pool cost rises with M, so
  only max(M_ns, A_s) and the band starts above it are priced there.
- A pool M = A_s - x below A_s needs T - Q >= x with Q >= Q(T).  As
  T - Q(T) grows by at most one per T, its least feasible T is the
  first with T - Q(T) = x, where the only reserve that fits is Q(T),
  and it is feasible only if Q(T) <= M.  So every design with
  prosumers fills the surge supply to exactly A_s.
- Along a stretch of T with a constant reserve q those designs are
  (A_s - x, x + q, q) for x in (reach, top].  Here reach is the largest
  T - Q(T) of the earlier stretches, 0 before the first, so the pools of
  every smaller x were first reached there, and
  top = min(t1 - q, A_s - max(M_ns, q)) is the last x of the stretch
  t0 <= T <= t1 whose pool is large enough.  Only ``top`` and the x
  whose pool is a band start are priced, or every x where some band's
  pool rate is so close to the prosumer rate that rounding could reverse
  a step (``_near_prosumer_rate``).  No other x is cheapest.  Its pool
  is not a band start, so the pool one smaller lies in the same band,
  and within a band the cost moves by one step of one sign per x.  If
  the cost falls with x, the design at x + 1 is cheaper.  If it rises,
  the design at x - 1 is cheaper, or at x = reach the one priced there
  (the ``top`` of an earlier stretch with reserve q' <= q, or
  (A_s, 0, 0)): its pool is one larger and its T no larger.  Where that
  pool starts a band, its discount is at least this band's, so the gap
  is still at least the step.  Outside ``_near_prosumer_rate`` the step
  exceeds the rounding error of two costs, so the computed costs keep
  that order.

The scan is exact for every cost model: ``CostModel`` requires
positive unit costs and ``DiscountSchedule`` discounts in [0, 1) that
never fall as the quantity grows, which is all it relies on.  No design
with T prosumers costs less than the cheapest pool of at least M_ns
items plus ``per_item_prosumer * T``.  The scan stops once that bound at
the next stretch's first T is strictly above the best cost found, so
ties break on (cost, M, T, Q) exactly as in ``brute_force_design``, or
once reach leaves no x for later stretches.  This cuts it at the
optimal T instead of N.

Q(T) depends only on (p_bad, bad-behaviour target), not on N, so the
stretch ends are kept in a table per process, one list per key, and each
is computed once.  A scan reads the ends already in the list and goes on
with the same search from the last.  Each end it finds below its own T
limit is appended at once, under a lock and only if it is the list's
next entry; an end clipped at that limit is not a flip and is not kept.
As the rule is monotone in T at a fixed reserve, an end is the same
whatever scan or limit found it.  So a list only grows, every solve sees
the stretches a scan from an empty table gives, and its entries are read
without the lock: two concurrent solves can at worst repeat a search.
The table holds at most ``_RESERVE_KEYS`` keys and is emptied when a new
key would pass that, and each key holds at most the ends its longest
scan used.

One reference checks it.  ``brute_force_design`` prices the whole
(M, T) grid and shares with the solver only the rule, the operations
of ``cost_eval`` and the (cost, M, T, Q) tie-break.  It rests on two
arguments.  As the rule is monotone in the item count, the feasible
reserves of (M, T) are the interval [max(Q(T), M + T - N),
min(M, T, M + T - A_s)].  And as every cost is a pool term plus
``per_item_prosumer * T`` and rounding is monotone, once the cheapest
pool of at least M_ns items plus that term exceeds the best cost, no
larger T can reach it.
"""

from __future__ import annotations

import csv
import dataclasses
import itertools
import math
import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

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
    m, t, q = (_integer(name, getattr(d, name), -math.inf) for name in ("m", "t", "q"))
    n = params.n_consumers
    if not (n >= m >= q >= 0 and t >= q and n >= m - q + t):
        return False
    return (_meets_target(m, n, params.p_nonsurge, params.qos_target_ns)
            and _meets_target(m - q + t, n, params.p_surge, params.qos_target_s)
            and _meets_target(q, t, params.p_bad, params.qos_target_b))


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
    return (min_items_for_qos(params.n_consumers, params.p_nonsurge, params.qos_target_ns),
            min_items_for_qos(params.n_consumers, params.p_surge, params.qos_target_s))


# Stretch ends found so far per (p_b, target): entry q is the last T of
# the stretch of reserve q, a true flip of the rule.
_RESERVE_KEYS = 64
_reserve_ends: Dict[Tuple[float, float], List[int]] = {}
_reserve_lock = threading.Lock()


def _reserve_stretches(t_max: int, p_b: float, target: float):
    # The minimum reserve Q(T) for T = 0, 1, ..., t_max as stretches
    # (t0, t1, q): Q(T) = q for t0 <= T <= t1.  The stretches are
    # contiguous, cover [0, t_max] and q rises by one from each to the
    # next.  At a fixed q the rule fails for every T from its first
    # failure on, so the stretch of q ends just before that flip, which
    # one search finds from where the stretch of q - 1 ended, started at
    # that stretch's length.  One more prosumer raises Q by at most one,
    # so q meets where its stretch starts; were rounding to make it fail
    # there, the stretch would be empty (t1 < t0) and give no design.
    # The flips do not depend on t_max, so the ends an earlier scan found
    # for (p_b, target) are read back and the walk goes on from the last.
    key = (p_b, target)
    with _reserve_lock:
        if key not in _reserve_ends and len(_reserve_ends) >= _RESERVE_KEYS:
            _reserve_ends.clear()
        ends = _reserve_ends.setdefault(key, [])
    t0, length = 0, 1
    for q in itertools.count():
        if q < len(ends):
            t1 = ends[q]
        else:
            t1 = _flip(lambda t: not _meets_target(q, t, p_b, target),
                       t0, t_max + 1, t0 + length) - 1
            # Another scan may have appended ends meanwhile; each is the
            # same flip, so only the next one missing is stored.
            if t1 < t_max:
                with _reserve_lock:
                    if len(ends) == q:
                        ends.append(t1)
        if t1 >= t_max:
            yield t0, t_max, q
            return
        yield t0, t1, q
        t0, length = t1 + 1, t1 + 1 - t0


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


def solve_min_cost(params: ScenarioParams, model: CostModel,
                   opts: Optional[SolverOpts] = None) -> DesignReport:
    """Exact minimum-cost design: the report of the feasible (M, T, Q)
    of least cost, ties broken on (M, T, Q) as in ``brute_force_design``.

    The module docstring gives the scan and why it is exact.  ``opts``
    is accepted for compatibility and ignored.
    """
    n = params.n_consumers
    m_ns, a_s = _pool_minima(params)
    # At T = 0 the reserve is 0 and every pool from max(m_ns, a_s) to N is
    # feasible; only a band start above the smallest can be cheaper.  With
    # m_ns and the band starts above it, the same costs give pool_floor.
    smallest = max(m_ns, a_s)
    starts = [b for b, _ in model.discount.breakpoints if m_ns < b <= n]
    at_zero = {m: cost_eval(m, 0, model) for m in {m_ns, smallest, *starts}}
    pool_floor = min(at_zero.values())
    best = min((cost, m, 0, 0) for m, cost in at_zero.items() if m >= smallest)
    # The band starts b as x = a_s - b, in rising order and closed by a
    # sentinel; marks[i] is the first above reach, and i only moves
    # forward as reach grows.
    marks = sorted({a_s - b for b, _ in model.discount.breakpoints})
    marks.append(math.inf)
    every_x = _near_prosumer_rate(model, n)
    reach = i = 0
    for _, t1, q in _reserve_stretches(n, params.p_bad, params.qos_target_b):
        while marks[i] <= reach:
            i += 1
        cap = a_s - (q if q > m_ns else m_ns)
        end = t1 - q
        top = end if end < cap else cap
        if every_x:
            xs = range(reach + 1, top + 1)
        elif top > reach:
            xs = [top]
            while marks[i] < top:
                xs.append(marks[i])
                i += 1
        else:
            xs = ()
        for x in xs:
            priced = (cost_eval(a_s - x, x + q, model), a_s - x, x + q, q)
            if priced < best:
                best = priced
        if end > reach:
            reach = end
        # q only rises, so no later stretch gives a design once reach is
        # at cap, and none costs less than the bound at its first T.
        if reach >= cap or pool_floor + model.per_item_prosumer * (t1 + 1) > best[0]:
            break
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
    import numpy as np

    n = params.n_consumers

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
