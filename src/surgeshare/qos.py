"""Binomial QoS metrics for the three demand scenarios.

A scenario with ``n`` potential requesters, each requesting independently
with probability ``p``, is served with quality of service equal to the
binomial cdf evaluated at the number of available items.  This module
exposes the exact cdf, a smooth continuous extension of the cdf and pmf
(needed by the gradient-flavoured AIMD update rules), inverse searches,
and the normal-approximation reserve formula.
"""

from __future__ import annotations

import math
import numbers
import statistics
from dataclasses import dataclass

from scipy import special

__all__ = [
    "ScenarioParams",
    "QosReport",
    "binom_cdf",
    "binom_cdf_cont",
    "binom_pmf_cont",
    "qos_all",
    "min_items_for_qos",
    "normal_approx_reserve",
]


def _check_probability(p: float, name: str = "p") -> None:
    if not (0.0 < p < 1.0):
        raise ValueError(f"{name} must lie in the open interval (0, 1); got {p!r}")


@dataclass(frozen=True)
class ScenarioParams:
    """Populations, request probabilities and QoS targets of a scenario.

    ``n_consumers`` is the consumer population N.  The request
    probabilities cover the non-surge (``p_nonsurge``), surge
    (``p_surge``) and bad-behaviour (``p_bad``) scenarios; the three
    targets are the desired QoS levels for the matching scenarios.
    """

    n_consumers: int
    p_nonsurge: float
    p_surge: float
    p_bad: float
    qos_target_ns: float = 0.98
    qos_target_s: float = 0.98
    qos_target_b: float = 0.98

    def __post_init__(self):
        n = self.n_consumers
        if isinstance(n, bool) or not isinstance(n, numbers.Integral):
            raise TypeError(f"n_consumers must be an integer; got {n!r}")
        if n < 1:
            raise ValueError("n_consumers must be at least 1")
        _check_probability(self.p_nonsurge, "p_nonsurge")
        _check_probability(self.p_surge, "p_surge")
        _check_probability(self.p_bad, "p_bad")
        for name in ("qos_target_ns", "qos_target_s", "qos_target_b"):
            value = getattr(self, name)
            if not (0.0 < value <= 1.0):
                raise ValueError(f"{name} must lie in (0, 1]; got {value!r}")


@dataclass(frozen=True)
class QosReport:
    """QoS achieved in the non-surge, surge and bad-behaviour scenarios."""

    qos_ns: float
    qos_s: float
    qos_b: float

    def as_dict(self) -> dict:
        return {"qos_ns": self.qos_ns, "qos_s": self.qos_s, "qos_b": self.qos_b}


def binom_cdf(a: int, n: int, p: float) -> float:
    """P[X <= a] for X ~ Binomial(n, p), with the saturating branches.

    Returns 1 whenever a >= n (more items than possible requesters) and
    0 for a < 0.
    """
    _check_probability(p)
    if n < 0:
        raise ValueError("n must be non-negative")
    if a < 0:
        return 0.0
    if a >= n:
        return 1.0
    return float(special.bdtr(int(a), int(n), p))


def binom_cdf_cont(x: float, n: int, p: float) -> float:
    """Continuous extension of the binomial cdf in the threshold x.

    Uses the regularized incomplete beta identity
    P[X <= x] = I_{1-p}(n - x, x + 1), which agrees with the exact cdf
    at every integer x in [0, n] and interpolates monotonically in
    between.  Clamps to 0 below x = -1 and to 1 at x >= n.
    """
    _check_probability(p)
    if n < 1:
        raise ValueError("n must be at least 1")
    if x >= n:
        return 1.0
    if x <= -1.0:
        return 0.0
    return float(special.betainc(n - x, x + 1.0, 1.0 - p))


def binom_pmf_cont(x: float, n: int, p: float) -> float:
    """Gamma-function extension of the binomial pmf; 0 outside [0, n].

    Evaluated fully in log space so it stays finite for n up to 1e5.
    Uses math.lgamma rather than a vectorized special function because
    the AIMD inner loop calls this with scalars millions of times.
    """
    _check_probability(p)
    if n < 1:
        raise ValueError("n must be at least 1")
    if x < 0.0 or x > n:
        return 0.0
    log_pmf = (
        math.lgamma(n + 1.0)
        - math.lgamma(x + 1.0)
        - math.lgamma(n - x + 1.0)
        + x * math.log(p)
        + (n - x) * math.log1p(-p)
    )
    return math.exp(log_pmf)


def qos_all(params: ScenarioParams, m: int, t: int, q: int) -> QosReport:
    """Evaluate all three QoS components for a design (M, T, Q).

    Available items per scenario: A_ns = M, A_s = M - Q + T (shared pool
    minus reserve plus prosumer supply), A_b = Q (the reserve), with the
    bad-behaviour requester population being the T prosumers.
    """
    if m < 0:
        raise ValueError("m must be non-negative")
    if q < 0 or t < 0:
        raise ValueError("t and q must be non-negative")
    if q > m:
        raise ValueError(f"reserve q={q} cannot exceed pool size m={m}")
    n = params.n_consumers
    return QosReport(
        qos_ns=binom_cdf(m, n, params.p_nonsurge),
        qos_s=binom_cdf(m - q + t, n, params.p_surge),
        qos_b=binom_cdf(q, t, params.p_bad),
    )


def min_items_for_qos(n: int, p: float, target: float) -> int:
    """Smallest a >= 0 with binom_cdf(a, n, p) >= target.

    Binary search on the upper tail, P[X > a] <= 1 - target: near a
    target of 1 the rounded cdf reaches the target a few items early,
    while the tail keeps its relative precision.  A short linear pass
    then walks down through any floating-point plateau the bisection
    landed on.  A last step up covers the opposite rounding: where the
    tail meets the target but the cdf (what ``qos_all`` reports) rounds
    just below it.
    """
    _check_probability(p)
    if not (0.0 < target < 1.0):
        raise ValueError("target must lie in (0, 1)")
    shortfall = 1.0 - target

    def meets(a: int) -> bool:
        return float(special.bdtrc(a, n, p)) <= shortfall

    lo, hi = 0, n
    while lo < hi:
        mid = (lo + hi) // 2
        if meets(mid):
            hi = mid
        else:
            lo = mid + 1
    while lo > 0 and meets(lo - 1):
        lo -= 1
    while binom_cdf(lo, n, p) < target:
        lo += 1
    return lo


def normal_approx_reserve(t: int, p_b: float, target_qos_b: float) -> float:
    """Pseudo-linear reserve estimate T*p_b + y*sqrt(T*p_b*(1-p_b)).

    ``y`` is the standard normal quantile at the target QoS level; this
    is the closed-form approximation of the exact binomial reserve.
    """
    if t < 1:
        raise ValueError("t must be at least 1")
    _check_probability(p_b, "p_b")
    _check_probability(target_qos_b, "target_qos_b")
    y = statistics.NormalDist().inv_cdf(target_qos_b)
    return t * p_b + y * math.sqrt(t * p_b * (1.0 - p_b))
