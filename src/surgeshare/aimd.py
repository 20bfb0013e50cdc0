"""Problem 2: AIMD partitioning of a fixed shared pool.

Two logical agents -- the consumer population holding Z = M - Q items
and the prosumer population holding the reserve Q -- grow their claims
additively until the pool is saturated (a *capacity event*), at which
point each independently backs off multiplicatively with a probability
tied to the objective: the QoS-sum gradient for the maximization
problem, or the QoS level itself for the equalization problem.  The
only shared information is the single-bit capacity signal.

``run_partition`` runs both problems in one loop; the problem only
picks the backoff-rate function, once per run.  Each iteration is
either an additive step or a capacity event, and appends one row to
the optional trace.

A centralized ``scan_oracle`` provides ground truth for both problems.
"""

from __future__ import annotations

import math
import numbers
from array import array
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .qos import (
    QosReport,
    ScenarioParams,
    binom_cdf_cont,
    binom_pmf_cont,
    qos_all,
)

__all__ = [
    "AimdConfig",
    "AimdTrace",
    "auto_config",
    "run_partition",
    "scan_oracle",
    "write_trace_csv",
    "TRACE_CSV_COLUMNS",
    "PROBLEMS",
]

PROBLEMS = ("maximize", "equalize")
TRACE_CSV_COLUMNS = ("iter", "z", "q", "capacity_event", "z_avg", "q_avg")


@dataclass(frozen=True)
class AimdConfig:
    """AIMD algorithm parameters.

    ``gamma`` is the backoff gain (Gamma); when None it is calibrated at
    the first capacity event so that the larger of the two raw backoff
    rates lands at ``gamma_target``, which keeps the probabilities valid
    across scenario scales without per-scenario hand tuning.
    """

    alpha: float
    beta: float
    z_init: float
    q_init: float
    gamma: Optional[float] = None
    gamma_target: float = 0.15
    lam_min: float = 1e-4
    max_iterations: int = 2_000_000
    seed: int = 0
    convergence_window: int = 2000
    convergence_tol: float = 5e-4

    def __post_init__(self):
        # Each check is written so that NaN fails it: scenario files can
        # carry any float.
        if not self.alpha > 0:
            raise ValueError("alpha must be positive")
        if not (0.0 < self.beta < 1.0):
            raise ValueError("beta must lie in (0, 1)")
        if not (self.z_init >= 0 and self.q_init >= 0):
            raise ValueError("initial states must be non-negative")
        if self.gamma is not None and not self.gamma > 0:
            raise ValueError("gamma must be positive when given")
        if not (0.0 < self.gamma_target <= 1.0):
            raise ValueError("gamma_target must lie in (0, 1]")
        if not (0.0 <= self.lam_min <= 1.0):
            raise ValueError("lam_min must lie in [0, 1]")
        if not self.max_iterations >= 1:
            raise ValueError("max_iterations must be at least 1")
        if not (self.convergence_window >= 1 and self.convergence_tol > 0):
            raise ValueError("invalid convergence settings")
        if isinstance(self.seed, bool) or not isinstance(self.seed, numbers.Integral):
            raise TypeError(f"seed must be an integer; got {self.seed!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative; got {self.seed!r}")


@dataclass
class AimdTrace:
    """Recorded run history; per-iteration arrays are empty when the run
    was executed without recording."""

    z: array
    q: array
    capacity_event: array
    z_avg_series: array
    q_avg_series: array
    capacity_count: int
    z_avg: float
    q_avg: float
    converged_at: Optional[int]
    total_iterations: int


def _check_pool(problem: str, params: ScenarioParams, m: int, t: int) -> None:
    # The inputs every entry point shares: a known problem, a pool of
    # 0 <= M <= N items and 1 <= T <= N prosumers.
    if problem not in PROBLEMS:
        raise ValueError(f"problem must be one of {PROBLEMS}")
    if t < 1:
        raise ValueError("t must be at least 1")
    if m < 0:
        raise ValueError("m must be non-negative")
    if m > params.n_consumers:
        raise ValueError("m cannot exceed the consumer population")
    if t > params.n_consumers:
        raise ValueError("t cannot exceed the consumer population")


def auto_config(problem: str, m: int, t: int, params: ScenarioParams,
                seed: int = 0) -> AimdConfig:
    """Problem-specific defaults that behave well from N=1e3 to N=5e4.

    Both problems warm-start near the expected operating point (reserve
    at the normal-approximation estimate, consumers taking the rest).
    The maximization run uses a classic coarse AIMD regime; the
    equalization run needs a quasi-fluid regime (beta close to 1, small
    steps) because its backoff law saturates when the reserve average
    overshoots, leaving only a weak restoring force.
    """
    _check_pool(problem, params, m, t)
    if m < 2:
        raise ValueError("m must be at least 2")
    p_b = params.p_bad
    q_hat = t * p_b + 2.33 * math.sqrt(t * p_b * (1.0 - p_b))
    q_hat = min(q_hat, 0.4 * m)
    q_hat = max(q_hat, 0.5)
    if problem == "maximize":
        alpha, beta = 1.0, 0.85
        gamma_target = 0.15
        window, tol = 2000, 5e-4
    else:
        beta = 0.999
        alpha = max(0.001, 0.25 * (1.0 - beta) * q_hat)
        gamma_target = 0.9
        window, tol = 20000, 2e-4
    z_init = max(m - q_hat - 2.0 * alpha, 1.0)
    return AimdConfig(
        alpha=alpha, beta=beta, z_init=z_init, q_init=q_hat,
        gamma=None, gamma_target=gamma_target, seed=seed,
        convergence_window=window, convergence_tol=tol,
    )


def _rates_maximize(z_avg: float, q_avg: float, t: int,
                    params: ScenarioParams) -> Tuple[float, float]:
    # Gradient of the QoS sum: the pmf of each agent's population at its
    # average claim (surge cdf argument shifted by T per the QoS_s form).
    dc = z_avg * binom_pmf_cont(z_avg + t, params.n_consumers, params.p_surge)
    dp = q_avg * binom_pmf_cont(q_avg, t, params.p_bad)
    rc = 1.0 / dc if dc > 1e-300 else math.inf
    rp = 1.0 / dp if dp > 1e-300 else math.inf
    return rc, rp


def _rates_equalize(z_avg: float, q_avg: float, t: int,
                    params: ScenarioParams) -> Tuple[float, float]:
    # QoS level over average claim: the better-served agent backs off
    # more often, pushing the two QoS values together.
    rc = (binom_cdf_cont(z_avg + t, params.n_consumers, params.p_surge)
          / max(z_avg, 1e-12))
    rp = binom_cdf_cont(q_avg, t, params.p_bad) / max(q_avg, 1e-12)
    return rc, rp


def _objective(problem: str, params: ScenarioParams, m: int, t: int, q: int) -> float:
    rep = qos_all(params, m, t, q)
    if problem == "maximize":
        return rep.qos_s + rep.qos_b
    return -abs(rep.qos_s - rep.qos_b)


def _best_reserve(problem: str, params: ScenarioParams, m: int, t: int,
                  reserves: range) -> int:
    # max() keeps the first of equal values: ties go to the smaller reserve.
    return max(reserves, key=lambda q: _objective(problem, params, m, t, q))


def run_partition(problem: str, params: ScenarioParams, m: int, t: int,
                  config: Optional[AimdConfig] = None,
                  record: bool = True) -> Tuple[AimdTrace, int, QosReport]:
    """Simulate the chosen AIMD rule and extract the integer reserve.

    Returns the trace, the reserve estimate q_star (the better of
    floor/ceil of the converged average under the problem objective,
    evaluated with the exact cdf), and the resulting QoS report.
    Non-convergence is reported through ``trace.converged_at is None``,
    not as an exception.
    """
    _check_pool(problem, params, m, t)
    if config is None:
        config = auto_config(problem, m, t, params)
    if config.z_init + config.q_init >= m:
        raise ValueError("initial states must satisfy z_init + q_init < M")

    rates = _rates_maximize if problem == "maximize" else _rates_equalize
    rng = np.random.Generator(np.random.Philox(config.seed))
    alpha, beta, lam_min = config.alpha, config.beta, config.lam_min
    gamma = config.gamma
    z, q = config.z_init, config.q_init
    z_avg = q_avg = 0.0
    k = 0

    z_hist = array("d")
    q_hist = array("d")
    ev_hist = array("b")
    za_hist = array("d")
    qa_hist = array("d")

    # Per-event average history for the windowed convergence test.
    za_events = array("d")
    qa_events = array("d")
    window = config.convergence_window
    min_events = 5 * window
    tol = config.convergence_tol
    converged_at = None

    for l in range(config.max_iterations):
        event = z + q >= m
        if event:
            # Capacity event: fold the saturated claims into the running
            # averages.  The trace records these claims; the backoff
            # outcome shows from the next iteration on.
            k += 1
            z_avg += (z - z_avg) / k
            q_avg += (q - q_avg) / k
        else:
            # Additive-increase phase: both agents grow by alpha.
            z += alpha
            q += alpha
        if record:
            z_hist.append(z)
            q_hist.append(q)
            ev_hist.append(event)
            za_hist.append(z_avg)
            qa_hist.append(q_avg)
        if not event:
            continue
        # Probabilistic multiplicative backoff.  The agent that does not
        # back off holds its claim, which keeps the pool occupancy below
        # M + 2*alpha at all times.
        rc, rp = rates(z_avg, q_avg, t, params)
        if gamma is None:
            worst = max(rc, rp)
            target = config.gamma_target
            gamma = target / worst if math.isfinite(worst) and worst > 0 else target
        # An infinite rate clamps to 1; gamma > 0 rules out NaN.
        lam_c = min(max(gamma * rc, lam_min), 1.0)
        lam_p = min(max(gamma * rp, lam_min), 1.0)
        if rng.random() < lam_c:
            z *= beta
        if rng.random() < lam_p:
            q *= beta
        za_events.append(z_avg)
        qa_events.append(q_avg)
        if k >= min_events:
            dz = abs(z_avg - za_events[k - 1 - window])
            dq = abs(q_avg - qa_events[k - 1 - window])
            if (dz <= tol * max(abs(z_avg), 1.0)
                    and dq <= tol * max(abs(q_avg), 1.0)):
                converged_at = l
                break

    total = config.max_iterations if converged_at is None else converged_at + 1
    trace = AimdTrace(
        z=z_hist, q=q_hist, capacity_event=ev_hist,
        z_avg_series=za_hist, q_avg_series=qa_hist,
        capacity_count=k, z_avg=z_avg, q_avg=q_avg,
        converged_at=converged_at, total_iterations=total,
    )
    q_limit = min(m, t)
    lo = min(max(math.floor(q_avg), 0), q_limit)
    hi = min(max(math.ceil(q_avg), 0), q_limit)
    q_star = _best_reserve(problem, params, m, t, range(lo, hi + 1))
    return trace, q_star, qos_all(params, m, t, q_star)


def scan_oracle(problem: str, params: ScenarioParams, m: int,
                t: int) -> Tuple[int, float]:
    """Centralized ground truth: scan all integer reserves Q in [0, min(M, T)].

    Maximization returns the argmax of QoS_s + QoS_b; equalization the
    argmin of |QoS_s - QoS_b|.  Ties break toward the smaller reserve.
    """
    _check_pool(problem, params, m, t)
    q = _best_reserve(problem, params, m, t, range(0, min(m, t) + 1))
    return q, abs(_objective(problem, params, m, t, q))


def write_trace_csv(path, trace: AimdTrace) -> None:
    """Export the per-iteration history for downstream plotting."""
    rows = zip(trace.z, trace.q, trace.capacity_event,
               trace.z_avg_series, trace.q_avg_series)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(TRACE_CSV_COLUMNS) + "\n")
        fh.writelines(f"{l},{z:.6f},{q:.6f},{ev},{za:.6f},{qa:.6f}\n"
                      for l, (z, q, ev, za, qa) in enumerate(rows))
