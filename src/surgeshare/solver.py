"""Problem 1: minimum-cost dimensioning of the (M, T, Q) design.

The cost depends on Q only through M and rises linearly in T, so for a
fixed prosumer pool T the cheapest design takes the smallest reserve Q
that meets the bad-behaviour target and the smallest pool M that meets
the other two, or the start of a higher discount band.  Both
``solve_min_cost`` and ``brute_force_design`` scan T on this structure
and are exact.  ``solve_min_cost`` also stops once the cheapest pool
plus the prosumer cost of T exceeds the best design found, which cuts
the scan at the optimal T instead of N.  ``brute_force_design`` scans
every T and, with the full 3-D scan ``_brute_force_full``, serves as
the reference the solver is tested against.
"""

from __future__ import annotations

import csv
import dataclasses
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from scipy import special

from .cost import CostModel, cost_eval
from .qos import QosReport, ScenarioParams, min_items_for_qos, qos_all

__all__ = [
    "Design",
    "DesignReport",
    "SolverOpts",
    "CurvePoint",
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
    "qos_ns", "qos_s", "qos_b", "oracle_verified",
)


class InfeasibleDesignError(ValueError):
    """Raised when no design can satisfy the QoS/structural constraints."""

    def __init__(self, message: str, constraint: str = ""):
        super().__init__(message)
        self.constraint = constraint


@dataclass(frozen=True)
class Design:
    """A candidate (M, T, Q): pool size, prosumer pool, reserve."""

    m: int
    t: int
    q: int


@dataclass(frozen=True)
class DesignReport:
    design: Design
    cost_real: float
    cost_per_consumer: float
    qos: QosReport
    oracle_verified: bool = False


@dataclass(frozen=True)
class SolverOpts:
    """The ``[solver]`` section of a scenario file.

    ``optimality_gap`` is kept so existing scenario files and callers
    keep working; the exact solver does not read it.
    """

    optimality_gap: float = 0.01


@dataclass(frozen=True)
class CurvePoint:
    """One sweep sample; costs are None when the point is infeasible."""

    x: float
    cost_total: Optional[float]
    cost_per_consumer: Optional[float]
    design: Optional[Design] = None


def feasible(params: ScenarioParams, d: Design) -> bool:
    """Check the three QoS constraints and the four structural ones."""
    n = params.n_consumers
    if not (n >= d.m >= d.q >= 0 and d.t >= d.q and n >= d.m - d.q + d.t):
        return False
    rep = qos_all(params, d.m, d.t, d.q)
    return (
        rep.qos_ns >= params.qos_target_ns
        and rep.qos_s >= params.qos_target_s
        and rep.qos_b >= params.qos_target_b
    )


def _min_items(n: int, p: float, target: float) -> int:
    # min_items_for_qos requires target < 1; the cdf reaches 1 exactly at n.
    if target >= 1.0:
        return n
    return min_items_for_qos(n, p, target)


def _report(params: ScenarioParams, model: CostModel, d: Design,
            verified: bool = False) -> DesignReport:
    cost = cost_eval(d.m, d.t, d.q, model, "real")
    return DesignReport(
        design=d,
        cost_real=cost,
        cost_per_consumer=model.cost_per_consumer(cost, params.n_consumers),
        qos=qos_all(params, d.m, d.t, d.q),
        oracle_verified=verified,
    )


# ---------------------------------------------------------------------------
# Exact oracle
# ---------------------------------------------------------------------------

def _scan_applicable(model: CostModel) -> bool:
    # The structured scan needs the cost to be independent of Q given M,
    # strictly increasing in T, and piecewise-linear increasing in M
    # within each discount band.  These hold for every CostModel the
    # type invariants admit (positive unit costs, discounts below 100%);
    # the guard stays so exotic future model kinds fall back safely.
    return (
        model.per_item_main > 0
        and model.per_item_prosumer > 0
        and all(0.0 <= d < 1.0 for _, d in model.discount.breakpoints)
    )


def _m_candidates(model: CostModel, m_min: int, m_max: int):
    # The discounted pool term can drop where a discount band begins, so
    # the cheapest pool of size >= m_min is either m_min itself or the
    # first item count of a higher band.
    yield m_min
    for min_qty, _ in model.discount.breakpoints:
        if m_min < min_qty <= m_max:
            yield min_qty


def brute_force_design(params: ScenarioParams, model: CostModel) -> DesignReport:
    """Exact integer optimum of Problem 1 by structured scan over T.

    For each T, the minimum reserve Q follows from the bad-behaviour
    constraint, and the minimum M from the non-surge and surge
    constraints; since cost rises with M inside a discount band but can
    drop where a band starts, the candidates per T are that corner plus
    every band start above it.  A guard verifies the cost-shape
    assumptions and falls back to a full 3-D scan otherwise.
    """
    n = params.n_consumers
    if not _scan_applicable(model):
        return _brute_force_full(params, model)

    m_ns = _min_items(n, params.p_nonsurge, params.qos_target_ns)
    a_s = _min_items(n, params.p_surge, params.qos_target_s)
    best: Optional[Tuple[float, int, int, int]] = None
    q = 0
    for t in range(0, n + 1):
        # Minimum reserve for this prosumer pool; monotone in t, so a
        # moving pointer suffices.
        while q < t and float(special.bdtr(q, t, params.p_bad)) < params.qos_target_b:
            q += 1
        m_min = max(m_ns, a_s - t + q, q)
        if m_min > n or q > t or m_min - q + t > n:
            continue
        # Larger M only tightens the N >= M - Q + T constraint; cap there.
        m_cap = min(n, n + q - t)
        for m in _m_candidates(model, m_min, m_cap):
            cost = cost_eval(m, t, q, model, "real")
            key = (cost, m, t, q)
            if best is None or key < best:
                best = key
    if best is None:
        raise InfeasibleDesignError(
            "no (M, T, Q) satisfies all constraints for these parameters",
            constraint="qos",
        )
    _, m, t, q = best
    return _report(params, model, Design(m, t, q), verified=True)


def _brute_force_full(params: ScenarioParams, model: CostModel) -> DesignReport:
    n = params.n_consumers
    if n > 300:
        raise InfeasibleDesignError(
            "full 3-D scan fallback is limited to N <= 300", constraint="scale"
        )
    m_ns = _min_items(n, params.p_nonsurge, params.qos_target_ns)
    a_s = _min_items(n, params.p_surge, params.qos_target_s)
    best: Optional[Tuple[float, int, int, int]] = None
    for t in range(0, n + 1):
        q_min = _min_items(t, params.p_bad, params.qos_target_b) if t > 0 else 0
        for q in range(q_min, t + 1):
            m_lo = max(m_ns, a_s - t + q, q)
            if m_lo > n or m_lo - q + t > n:
                continue
            for m in range(m_lo, min(n, n + q - t) + 1):
                cost = cost_eval(m, t, q, model, "real")
                key = (cost, m, t, q)
                if best is None or key < best:
                    best = key
    if best is None:
        raise InfeasibleDesignError(
            "no (M, T, Q) satisfies all constraints for these parameters",
            constraint="qos",
        )
    _, m, t, q = best
    return _report(params, model, Design(m, t, q), verified=True)


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
    n = params.n_consumers
    m_ns = _min_items(n, params.p_nonsurge, params.qos_target_ns)
    a_s = _min_items(n, params.p_surge, params.qos_target_s)
    pool_floor = min(cost_eval(m, 0, 0, model, "real")
                     for m in _m_candidates(model, m_ns, n))
    best: Optional[Tuple[float, int, int, int]] = None
    q = 0
    for t in range(0, n + 1):
        if best is not None and pool_floor + model.per_item_prosumer * t > best[0]:
            break
        while q < t and float(special.bdtr(q, t, params.p_bad)) < params.qos_target_b:
            q += 1
        m_min = max(m_ns, a_s - t + q, q)
        if m_min > n or m_min - q + t > n:
            continue
        for m in _m_candidates(model, m_min, min(n, n + q - t)):
            key = (cost_eval(m, t, q, model, "real"), m, t, q)
            if best is None or key < best:
                best = key
    if best is None:
        raise InfeasibleDesignError(
            "no (M, T, Q) satisfies all constraints for these parameters",
            constraint="qos",
        )
    _, m, t, q = best
    return _report(params, model, Design(m, t, q), verified=True)


# ---------------------------------------------------------------------------
# Comparisons and sweeps
# ---------------------------------------------------------------------------

def compare_approaches(params: ScenarioParams, model: CostModel) -> Dict[str, DesignReport]:
    """Hybrid optimum vs pure B2C (surge-sized, no prosumers) vs ownership."""
    n = params.n_consumers
    hybrid = solve_min_cost(params, model)
    m_b2c = _min_items(n, params.p_surge, params.qos_target_s)
    b2c = _report(params, model, Design(m_b2c, 0, 0))
    ownership = _report(params, model, Design(n, 0, 0))
    return {"hybrid": hybrid, "b2c": b2c, "ownership": ownership}


def _sweep(params: ScenarioParams, model: CostModel, grid: Sequence,
           vary: Callable[[ScenarioParams, object], ScenarioParams]) -> List[CurvePoint]:
    if not grid:
        raise ValueError("grid must be non-empty")
    points = []
    for x in grid:
        try:
            rep = solve_min_cost(vary(params, x), model)
        except InfeasibleDesignError:
            points.append(CurvePoint(x=float(x), cost_total=None, cost_per_consumer=None))
            continue
        points.append(CurvePoint(x=float(x), cost_total=rep.cost_real,
                                 cost_per_consumer=rep.cost_per_consumer,
                                 design=rep.design))
    return points


def sweep_cost_vs_qos(params: ScenarioParams, model: CostModel,
                      qos_grid: Sequence[float]) -> List[CurvePoint]:
    """Optimal cost as a function of a common QoS target."""
    return _sweep(params, model, qos_grid, lambda p, target: dataclasses.replace(
        p, qos_target_ns=target, qos_target_s=target, qos_target_b=target))


def sweep_cost_vs_n(params: ScenarioParams, model: CostModel,
                    n_grid: Sequence[int]) -> List[CurvePoint]:
    """Optimal cost as a function of the (integer) consumer population size."""
    return _sweep(params, model, n_grid,
                  lambda p, n: dataclasses.replace(p, n_consumers=n))


def write_design_csv(path, rows: Sequence[Tuple[ScenarioParams, DesignReport]]) -> None:
    """Write (params, report) pairs using the documented column set."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(DESIGN_CSV_COLUMNS)
        for params, rep in rows:
            d = rep.design
            writer.writerow([
                params.n_consumers,
                params.qos_target_s,
                d.m, d.t, d.q,
                f"{rep.cost_real:.2f}",
                f"{rep.cost_per_consumer:.2f}",
                f"{rep.qos.qos_ns:.6f}",
                f"{rep.qos.qos_s:.6f}",
                f"{rep.qos.qos_b:.6f}",
                str(rep.oracle_verified).lower(),
            ])
