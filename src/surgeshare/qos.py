"""Binomial QoS metrics for the three demand scenarios.

A scenario with ``n`` potential requesters, each requesting independently
with probability ``p``, is served with quality of service equal to the
binomial cdf evaluated at the number of available items.  This module
exposes the exact cdf, a smooth continuous extension of the cdf and pmf
(needed by the gradient-flavoured AIMD update rules), inverse searches,
and the normal-approximation reserve formula.  Whether a items meet a
QoS target is decided in one place, ``_meets_target``, which the inverse
search and the design solver share.
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
    for name, value in (("m", m), ("t", t), ("q", q)):
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise TypeError(f"{name} must be an integer; got {value!r}")
    if m < 0:
        raise ValueError("m must be non-negative")
    if q < 0 or t < 0:
        raise ValueError("t and q must be non-negative")
    if q > m:
        raise ValueError(f"reserve q={q} cannot exceed pool size m={m}")
    if q > t:
        raise ValueError(f"reserve q={q} cannot exceed prosumer pool t={t}")
    n = params.n_consumers
    return QosReport(
        qos_ns=binom_cdf(m, n, params.p_nonsurge),
        qos_s=binom_cdf(m - q + t, n, params.p_surge),
        qos_b=binom_cdf(q, t, params.p_bad),
    )


def _meets_target(a: int, n: int, p: float, target: float) -> bool:
    """Whether a items serve Binomial(n, p) requests with QoS >= target.

    a >= n always meets.  Otherwise two roundings must both agree: the
    upper tail P[X > a] <= 1 - target, which keeps its relative
    precision near a target of 1 where the cdf rounds up to the target
    early, and the cdf P[X <= a] >= target, which ``qos_all`` reports and
    which can round below a target one ulp above it that the tail meets.
    A target of 1 needs every requester served, even where the tail
    underflows to 0.
    """
    if a >= n:
        return True
    return (target < 1.0
            and special.bdtrc(a, n, p) <= 1.0 - target
            and special.bdtr(a, n, p) >= target)


def min_items_for_qos(n: int, p: float, target: float) -> int:
    """Smallest a >= 0 that meets the target for n requesters at rate p.

    Binary search on ``_meets_target``, then a short linear pass down
    through any floating-point plateau the bisection landed on.  A
    target of exactly 1 gives n.
    """
    _check_probability(p)
    if not (0.0 < target <= 1.0):
        raise ValueError("target must lie in (0, 1]")
    if n < 0:
        raise ValueError("n must be non-negative")
    lo, hi = 0, n
    while lo < hi:
        mid = (lo + hi) // 2
        if _meets_target(mid, n, p, target):
            hi = mid
        else:
            lo = mid + 1
    while lo > 0 and _meets_target(lo - 1, n, p, target):
        lo -= 1
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
