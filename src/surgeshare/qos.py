"""Binomial QoS metrics for the three demand scenarios.

A scenario with ``n`` potential requesters, each requesting independently
with probability ``p``, is served with quality of service equal to the
binomial cdf evaluated at the number of available items.  This module
exposes the exact cdf, a smooth continuous extension of the cdf and pmf
(needed by the gradient-flavoured AIMD update rules), inverse searches,
and the normal-approximation reserve formula.  Whether a items meet a
QoS target is decided in one place, ``_meets_target``, which the inverse
search and the design solver share; both find where it flips with one
search from an estimate, ``_flip``.

Every binomial value is one scalar call into a kernel.  A library
caller reaches scipy's ``scipy.special.cython_special`` (``bdtr``,
``bdtrc``, ``betainc``): the same bits as the ``scipy.special`` ufuncs,
without the per-call ufunc dispatch that costs several times the
arithmetic.  n is at most ``_COUNT_MAX``, as they hold it in a C int,
and a Python int, as ``_integer`` returns every count.

scipy is imported at the first binomial evaluation, not with the package:
importing ``scipy.special`` costs a process about 0.2-0.4 s, once, which
a command that evaluates no binomial (``--help``, an input error, loading
a scenario) does not pay.  Until then the module's ``bdtr``, ``bdtrc`` and
``betainc`` are stubs; the first call of any of them rebinds all three to
scipy's own functions, which every later call reaches through the same
global lookup, with no extra frame.  numpy, which this module does not
use, is imported by the first AIMD run, trace write or oracle design.

The command line (``cli.cli_dispatch``, which the console script
runs) runs a command whose largest n is at most ``_binom.N_MAX`` (5e4)
with ``bdtr``, ``bdtrc`` and ``betainc`` bound to ``_binom``'s
instead: one pure-Python continued fraction for all three, with a
relative error below 1e-11 (``_binom.BETA_REL_ERR``) on ``betainc``
and on the smaller tail.  A command on the built-in scenarios makes a
few hundred to a few thousand kernel calls at 5-65 us each, which cost
it less than scipy's import; a design scan that walks thousands of
reserve stretches makes more, and a library process that makes many
keeps scipy's 0.4 us calls.  The two tails differ by scipy's own error,
within 1e-9 relative at n <= 5e4, and give the same designs on the
golden rows, the benchmark's random scenarios and seeded ones; at
a = 0 they equal scipy 1.17's bit for bit, so the float ties of
``_meets_target`` there fall the same way.  A target within that
difference of a tail can still fall one way on each, so the command
line and the library can then return different designs.  The two
``betainc`` gave the same AIMD runs, bit for bit, on the four
best-effort rows over seeds 0-19 for both problems.
"""

from __future__ import annotations

import math
import numbers
import statistics
from dataclasses import dataclass

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

_COUNT_MAX = 2**31 - 1  # the largest n scipy's binomial kernels accept
# The two AIMD problems: maximize QoS_s + QoS_b, or equalize the two
# (``aimd._objective``).  They are named here, with the QoS they are
# stated in, so that the command line offers them without importing aimd.
PROBLEMS = ("maximize", "equalize")


def _load_kernels() -> None:
    """Rebind ``bdtr``, ``bdtrc`` and ``betainc`` to scipy's kernels."""
    global bdtr, bdtrc, betainc
    from scipy.special.cython_special import bdtr, bdtrc, betainc


# Stubs until the first call: each loads the kernels, which replaces all
# three, and forwards its call to the one that now holds its name.  The
# callers below look the names up at call time, so none may capture them.
def bdtr(k, n, p):
    _load_kernels()
    return bdtr(k, n, p)


def bdtrc(k, n, p):
    _load_kernels()
    return bdtrc(k, n, p)


def betainc(a, b, x):
    _load_kernels()
    return betainc(a, b, x)


def _integer(name: str, value, least=0, most=math.inf) -> int:
    """The one rule for a count: an integer, not a bool, in [least, most].

    Returns it as a Python int, which every caller stores or computes
    with: this and ``_real`` are the package's only conversions of numpy
    scalars, which scipy's kernels have no signature for, whose unsigned
    differences wrap around and whose float32 arithmetic stays float32
    (NEP 50).  A plain int is returned as it is, without the ABC check.
    """
    x = value
    if type(x) is not int:
        if isinstance(x, bool) or not isinstance(x, numbers.Integral):
            raise TypeError(f"{name} must be an integer; got {value!r}")
        x = int(x)
    if x < least:
        raise ValueError(f"{name} must be non-negative; got {value!r}" if least == 0
                         else f"{name} must be at least {least}; got {value!r}")
    if x > most:
        raise ValueError(f"{name} cannot exceed {most}; got {value!r}")
    return x


def _real(name: str, value, low: float, high: float, closed: str) -> float:
    """The one rule for a real number: not a bool, and inside an interval.

    ``closed`` is the interval's pair of brackets, such as "(]" for
    (low, high]; NaN lies in no interval, and an int past the float
    range lies at its infinity.  Returns it as a Python float, as
    ``_integer`` returns an int; a plain float is returned as it is.
    """
    x = value
    if type(x) is not float:
        if isinstance(x, bool) or not isinstance(x, numbers.Real):
            raise TypeError(f"{name} must be a real number; got {value!r}")
        try:
            x = float(x)
        except OverflowError:  # an int past the float range
            x = math.inf if x > 0 else -math.inf
    if not ((low <= x if closed[0] == "[" else low < x)
            and (x <= high if closed[1] == "]" else x < high)):
        raise ValueError(f"{name} must lie in {closed[0]}{low:g}, {high:g}{closed[1]}; "
                         f"got {value!r}")
    return x


def _check_field(obj, name: str, rule, *bounds) -> None:
    """Check field ``name`` of a frozen dataclass by ``rule`` and store what it returns."""
    object.__setattr__(obj, name, rule(name, getattr(obj, name), *bounds))


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
        _check_field(self, "n_consumers", _integer, 1, _COUNT_MAX)
        for name in ("p_nonsurge", "p_surge", "p_bad"):
            _check_field(self, name, _real, 0.0, 1.0, "()")
        for name in ("qos_target_ns", "qos_target_s", "qos_target_b"):
            _check_field(self, name, _real, 0.0, 1.0, "(]")


@dataclass(frozen=True)
class QosReport:
    """QoS achieved in the non-surge, surge and bad-behaviour scenarios."""

    qos_ns: float
    qos_s: float
    qos_b: float


def binom_cdf(a: int, n: int, p: float) -> float:
    """P[X <= a] for X ~ Binomial(n, p), with the saturating branches.

    Returns 1 whenever a >= n (more items than possible requesters) and
    0 for a < 0.  The threshold a counts items: a float must be a whole
    number or infinite.
    """
    if type(a) is not int:
        a = _real("a", a, -math.inf, math.inf, "[]")
        if math.isfinite(a) and a != math.floor(a):
            raise ValueError(f"a must be a whole number; got {a!r}")
    n = _integer("n", n, 0, _COUNT_MAX)
    p = _real("p", p, 0.0, 1.0, "()")
    if a < 0:
        return 0.0
    if a >= n:
        return 1.0
    return bdtr(int(a), n, p)


def binom_cdf_cont(x: float, n: int, p: float) -> float:
    """Continuous extension of the binomial cdf in the threshold x.

    Uses the regularized incomplete beta identity
    P[X <= x] = I_{1-p}(n - x, x + 1), which agrees with the exact cdf
    at every integer x in [0, n] and rises with x in between, but only
    where it is above about 1e-259: below that, scipy's ``betainc`` can
    return 0 or values that are not monotone in x (the largest such
    value in a scan of 15,000 random n and p was 1.9e-259).  At n = 900,
    p = 0.5784157333434456 it returns 0.0 for x in about [35.05, 35.34]
    and about 1e-269 on either side.  ``_binom.betainc``, which the
    command line's ``partition`` computes with at n <= ``_binom.N_MAX``
    and which is the same continued fraction as its binomial tails,
    keeps its relative bound only down to 1e-290, where its front factor
    starts to underflow.  A caller that compares values or relies on
    monotonicity must treat every value below a floor such as
    ``aimd._CDF_FLOOR`` (1e-200) as equal, as the AIMD brackets do with
    that absolute slack.  Clamps to 0 below x = -1 and to 1 at x >= n.
    """
    x = _real("x", x, -math.inf, math.inf, "[]")
    n = _integer("n", n, 1, _COUNT_MAX)
    p = _real("p", p, 0.0, 1.0, "()")
    return _cdf_cont(n, p)(x)


def _cdf_cont(n: int, p: float):
    """Unchecked ``binom_cdf_cont`` for a fixed n and p, as a function of x.

    Monotone in x only above about 1e-259, as ``binom_cdf_cont`` says.
    1 - p is computed once, here.  x must be a float, since ``betainc``
    has no signature for an int first argument.  n is held as a float so
    that the test and the difference with x take CPython's specialized
    float/float paths; n <= ``_COUNT_MAX`` < 2**53 converts exactly, so
    every value is the same bit for bit as with the int.
    """
    q = 1.0 - p
    n = float(n)  # float/float paths; exact below 2**53

    def cdf(x: float) -> float:
        if x >= n:
            return 1.0
        if x <= -1.0:
            return 0.0
        return betainc(n - x, x + 1.0, q)

    return cdf


def binom_pmf_cont(x: float, n: int, p: float) -> float:
    """Gamma-function extension of the binomial pmf; 0 outside [0, n].

    Evaluated fully in log space so it stays finite for n up to 1e5.
    Uses scalar math.lgamma, as the cdf kernels use scalar
    ``cython_special`` calls: the AIMD kernel evaluates the pmf once per
    capacity event through ``_pmf_cont``, where a numpy ufunc call costs
    more in dispatch than the arithmetic, and ``gammaln`` may differ
    from math.lgamma in the last bits.
    """
    x = _real("x", x, -math.inf, math.inf, "[]")
    n = _integer("n", n, 1, _COUNT_MAX)
    p = _real("p", p, 0.0, 1.0, "()")
    return _pmf_cont(n, p)(x)


def _pmf_cont(n: int, p: float):
    """Unchecked ``binom_pmf_cont`` for a fixed n and p, as a function of x.

    lgamma(n + 1), log p and log1p(-p) are computed once, here.  As in
    ``_cdf_cont``, n is held as a float so that the tests and the
    differences with x take CPython's specialized float/float paths;
    n <= ``_COUNT_MAX`` < 2**53 converts exactly, so every value is the
    same bit for bit as with the int.
    """
    n = float(n)  # float/float paths; exact below 2**53
    log_norm, log_p, log_q = math.lgamma(n + 1.0), math.log(p), math.log1p(-p)
    lgamma, exp = math.lgamma, math.exp

    def pmf(x: float) -> float:
        if x < 0.0 or x > n:
            return 0.0
        return exp(log_norm - lgamma(x + 1.0) - lgamma(n - x + 1.0)
                   + x * log_p + (n - x) * log_q)

    return pmf


def qos_all(params: ScenarioParams, m: int, t: int, q: int) -> QosReport:
    """Evaluate all three QoS components for a design (M, T, Q).

    Available items per scenario: A_ns = M, A_s = M - Q + T (shared pool
    minus reserve plus prosumer supply), A_b = Q (the reserve), with the
    bad-behaviour requester population being the T prosumers.
    """
    m, t, q = _integer("m", m), _integer("t", t), _integer("q", q)
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
            and bdtrc(a, n, p) <= 1.0 - target
            and bdtr(a, n, p) >= target)


def _flip(passes, lo: int, hi: int, start: int) -> int:
    """Smallest x in [lo, hi] at which ``passes(x)`` holds, from a guess.

    ``passes`` must fail and then hold along [lo, hi]; it is taken to
    hold at ``hi`` without a call.  From ``start``, clamped into the
    range, the search gallops away in steps of 1, 2, 4, ... until it
    brackets the flip, then bisects the bracket, so a guess d off costs
    about 2 log2(d) + 2 calls (Bentley & Yao 1976).  The answer is
    ``hi`` or a point where ``passes`` was called and held.
    """
    x = min(max(start, lo), hi)
    step = 1
    if x < hi and not passes(x):
        lo = x + 1
        while x + step < hi:
            x += step
            if passes(x):
                hi = x
                break
            lo = x + 1
            step *= 2
    else:
        hi = x
        while x - step >= lo:
            x -= step
            if not passes(x):
                lo = x + 1
                break
            hi = x
            step *= 2
    while lo < hi:
        mid = (lo + hi) // 2
        if passes(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def min_items_for_qos(n: int, p: float, target: float) -> int:
    """Smallest a >= 0 that meets the target for n requesters at rate p.

    ``_flip`` searches from the normal-approximation reserve, rounded
    up, relying on the rule being monotone in a (the cdf rises and the
    upper tail falls as a grows).  Its answer is 0 or a count just above
    one it judged failing, so it is the least.  A target of exactly 1
    gives n.
    """
    n = _integer("n", n, 0, _COUNT_MAX)
    p = _real("p", p, 0.0, 1.0, "()")
    target = _real("target", target, 0.0, 1.0, "(]")
    if n == 0 or target == 1.0:
        return n
    return _flip(lambda x: _meets_target(x, n, p, target), 0, n,
                 math.ceil(normal_approx_reserve(n, p, target)))


def normal_approx_reserve(t: int, p_b: float, target_qos_b: float) -> float:
    """Pseudo-linear reserve estimate T*p_b + y*sqrt(T*p_b*(1-p_b)).

    ``y`` is the standard normal quantile at the target QoS level; this
    is the closed-form approximation of the exact binomial reserve.
    """
    t = _integer("t", t, 1)
    p_b = _real("p_b", p_b, 0.0, 1.0, "()")
    target_qos_b = _real("target_qos_b", target_qos_b, 0.0, 1.0, "()")
    return _normal_reserve(t, p_b, statistics.NormalDist().inv_cdf(target_qos_b))


def _normal_reserve(t, p, y):
    """t*p + y*sqrt(t*p*(1-p)) at the normal quantile y, unchecked: the
    formula that ``normal_approx_reserve`` and ``aimd.auto_config`` share."""
    return t * p + y * math.sqrt(t * p * (1.0 - p))
