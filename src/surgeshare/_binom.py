"""Binomial tails and the incomplete beta function on the standard
library, for one-shot commands.

``bdtr(k, n, p)`` is P[X <= k] and ``bdtrc(k, n, p)`` is P[X > k] for
X ~ Binomial(n, p), with integers 0 <= k < n and 0 < p < 1, and
``betainc(a, b, x)`` is the regularized incomplete beta function
I_x(a, b) for a, b > 0 and 0 <= x <= 1: the calls ``qos`` makes of
scipy's ``cython_special`` kernels of the same names.

A fresh process spends 0.2-0.45 s importing ``scipy.special``.  Each
call here takes 10-40 us at n <= ``N_MAX`` (``betainc`` 5-60 us)
against scipy's 0.4 us, so a command that makes a few thousand calls
spends less in these functions, and ``cli.cli_dispatch`` binds them in
place of scipy's for such a command, from either entry point, as
``cli._choose_kernels`` estimates from the limits below.  Every other
caller keeps scipy's.

Of the two tails, the one that does not hold the median is summed: the
side below k when k < np, else the side above, and the other side if
that sum exceeds one half.  Its first term is the pmf in Loader's
saddle-point form (Loader 2000, "Fast and accurate computation of
binomial probabilities", as in R's ``dbinom``), where ``_stirlerr`` and
``_bd0`` avoid the cancellation of log-gamma differences.  Each further
term comes from the one before by the ratio of successive
probabilities, walking away from the mean, so the terms and the ratio
fall, and the sum stops once the rest is below 2**-45 of it.  The
larger tail is 1 minus the smaller.  At k = 0 both are cephes' closed
forms, (1 - p)**n and its complement, with cephes' expm1 below
p = 0.01: scipy 1.17's values bit for bit (a scipy whose bdtrc calls
the C library's expm1 instead may differ there by an ulp).

Bound, for n <= ``N_MAX`` and 0 < k < n: the smaller tail has a relative
error below ``REL_ERR`` (2e-12) wherever it is at least 1e-290, and an
absolute one below 1e-300 where it is smaller; the larger tail carries
that absolute error plus one rounding.  The start term's exponent errs
by a few ulps times its size (below 750 before the term underflows) and
by an ulp of n p times the distance from the mean in items (below 4,200
down to 1e-300 at n = 5e4), about 1.2e-12 in all at worst; the walk adds
about an ulp per term, weighted by the term, and its stop 2**-45.
Against 40-digit sums the worst measured was 3.3e-13 for tails above
1e-50 and 8e-13 down to 1e-300, over 177,000 random tails with n up to
5e4.  At k = 0, (1 - p)**n carries n times the rounding of 1 - p, as
scipy's does.  scipy's own kernels err more as n grows: their smaller
tail differs from these by less than ``SCIPY_REL_DIFF`` (1e-9)
relative, and by 1.6e-10 at most on ``tests/test_qos.py``'s grid.

``betainc`` is the continued fraction of Press et al., *Numerical
Recipes* (3rd ed., section 6.4): below the switch x < (a + 1)/(a + b + 2),

    I_x(a, b) = x**a y**b / (a B(a, b)) * 1/(1 + d1/(1 + d2/(1 + ...))),

with y = 1 - x, and beyond it 1 - I_y(b, a), as the fraction converges
fast only below the switch.  The fraction is evaluated forward by the
modified Lentz method and stops once a step moves it by less than
2**-50.  The front factor is b/s times the pmf of a successes in
s = a + b trials at rate x, in the saddle-point form of the sums above;
in that form the rounding of s cancels to first order.

Bound, for a + b <= ``N_MAX`` + 1: below the switch the value has a
relative error below ``BETA_REL_ERR`` (1e-11) wherever it is at least
1e-290.  The front factor's exponent errs as the start term's above,
and by 3e-14 more where a or b is a fraction below 15, whose Stirling
error comes from ``math.lgamma``.  The fraction's first denominator,
1 - s x/(a + 1), cancels down to 2x/(a + 1) at the switch, which
multiplies its rounding by at most s/2, 2.8e-12 at s = 5e4; each later
step adds a few roundings, and the stop about 2**-50.  Beyond the switch
that bound holds for the complement I_y(b, a), so the value carries it
times 1 - I_x(a, b), plus 2**-53, as an absolute error; for b >= 1 the
complement there is below 0.87 (it nears 1 - e**-2 at b = 1 as a
grows), so the relative error stays below 8 ``BETA_REL_ERR``.  A b < 1
beyond the switch leaves only the absolute bound; ``qos``'s binomial cdf
reaches that only at a threshold in (-1, 0), and the AIMD brackets only
with b above 0.97.  Against 50-digit
series the worst measured was 3.3e-12 below the switch (at a + b = 4.5e4
and x = 0.99988, where the first denominator cancels) and 3.8e-14 beyond
it for b >= 1, over 38,000 random values above 1e-290 with a + b up to
5e4 + 1, and 4.4e-16 over the 9,427 distinct calls of eight equalize
runs on the four best-effort rows, where scipy's differ from these by
1.6e-15 at most.
"""

from __future__ import annotations

import math
from functools import lru_cache

# The command line computes with these kernels only where n <= N_MAX,
# the range over which the bound above was checked, and where its design
# scans walk at most STRETCHES_MAX reserve stretches, about two calls
# each.  The scans are what costs: at n = 5e4 with p_surge 0.99 and
# p_nonsurge 0.01, which make a scan walk to T = N, a fresh
# ``surgeshare design`` with N p_bad stretches took as long on these
# sums as with scipy's import at about 3,500 (p_bad 0.07, targets 0.5,
# the dearest per stretch measured), 4,600 (p_bad 0.2, targets 0.999)
# and 6,000 (p_bad 0.5); at 1,500 the worst measured took 0.54x the
# time (medians of 5 on 2 CPUs).  Every built-in scenario and the
# golden rows (1,000 in all) stay well inside.
N_MAX = 50_000
STRETCHES_MAX = 1_500

REL_ERR = 2e-12
SCIPY_REL_DIFF = 1e-9
BETA_REL_ERR = 1e-11

_LN_2PI = math.log(2.0 * math.pi)
_2PI = 2.0 * math.pi
# stirlerr(n) = lgamma(n + 1) - (n + 1/2) log n + n - log sqrt(2 pi) for
# n = 1..15, to 25 digits; above 15 its series errs by less than 1e-16.
_STIRLERR = (
    0.0,
    0.08106146679532725821967026, 0.04134069595540929409382208,
    0.02767792568499833914878929, 0.02079067210376509311152277,
    0.01664469118982119216319487, 0.01387612882307074799874573,
    0.01189670994589177009505572, 0.01041126526197209649747857,
    0.009255462182712732917728637, 0.008330563433362871256469319,
    0.007573675487951840794972024, 0.006942840107209529865664153,
    0.006408994188004207068439631, 0.005951370112758847735624416,
    0.00555473355196280137103869,
)
# The sum stops once the rest is below this fraction of it.
_REST = 2.0 ** -45
# The continued fraction stops once a step moves it by less than this;
# a later denominator nearer 0 than _TINY is moved to it (Lentz).
_STEP = 2.0 ** -50
_TINY = 1e-300


def _stirlerr(n: float) -> float:
    """log Gamma(n + 1) - log(sqrt(2 pi n) (n/e)**n), the Stirling error at
    an int n >= 1 or a float n > 0."""
    if n <= 15:
        if type(n) is int:
            return _STIRLERR[n]
        return math.lgamma(n + 1.0) - (n + 0.5) * math.log(n) + n - 0.5 * _LN_2PI
    nn = float(n) * n
    if n > 500:
        return (1 / 12 - 1 / 360 / nn) / n
    if n > 80:
        return (1 / 12 - (1 / 360 - 1 / 1260 / nn) / nn) / n
    if n > 35:
        return (1 / 12 - (1 / 360 - (1 / 1260 - 1 / 1680 / nn) / nn) / nn) / n
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / 1188 / nn) / nn) / nn) / nn) / n


def _bd0(x: float, m: float) -> float:
    """x log(x/m) + m - x without its cancellation near x = m (Loader).

    The series in v = (x - m)/(x + m) runs out to |v| < 1/2, not Loader's
    0.1, so that the log form, used beyond, cancels at most a few bits.
    """
    d = x - m
    if abs(d) < 0.5 * (x + m):
        v = d / (x + m)
        s = d * v
        ej = 2.0 * x * v
        v *= v
        j = 3
        while True:
            ej *= v
            s1 = s + ej / j
            if s1 == s:
                return s
            s = s1
            j += 2
    return x * math.log(x / m) + m - x


def _pmf(x: int, n: int, p: float, q: float) -> float:
    """P[X = x] for 0 < x <= n by Loader's saddle-point form."""
    if x == n:
        return p ** n
    lc = (_stirlerr(n) - _stirlerr(x) - _stirlerr(n - x)
          - _bd0(x, n * p) - _bd0(n - x, n * q))
    return math.exp(lc - 0.5 * (_LN_2PI + math.log(x) + math.log1p(-x / n)))


def _walk(t: float, a: float, b: float, ratio: float) -> float:
    """t (1 + r0 + r0 r1 + ...) with r_i = (a - i) ratio / (b + i).

    The sum of a tail from its first term t outward: each ratio is that
    of the next probability to the last, and falls with i.  It stops
    once r0 < 1 and the rest, at most t r0 / (1 - r0), is below
    ``_REST`` of the sum, testing that once per four terms; a term past
    the end of the support (a - i <= 0) is zero.
    """
    s = t
    rest = _REST
    while a > 0.0:
        r = a * ratio / b
        if r < 1.0 and t * r <= (1.0 - r) * s * rest:
            break
        t *= r
        s += t
        t *= (a - 1.0) * ratio / (b + 1.0)
        s += t
        t *= (a - 2.0) * ratio / (b + 2.0)
        s += t
        t *= (a - 3.0) * ratio / (b + 3.0)
        s += t
        a -= 4.0
        b += 4.0
    return s


def _below(k: int, n: int, p: float, q: float) -> float:
    """P[X <= k] for 0 < k < n, summed down from k."""
    # P[X = j - 1] / P[X = j] = j q / ((n - j + 1) p)
    return _walk(_pmf(k, n, p, q), float(k), float(n - k + 1), q / p)


def _above(k: int, n: int, p: float, q: float) -> float:
    """P[X > k] for 0 <= k < n, summed up from k + 1."""
    # P[X = j + 1] / P[X = j] = (n - j) p / ((j + 1) q)
    return _walk(_pmf(k + 1, n, p, q), float(n - k - 1), float(k + 2), p / q)


# cephes' expm1, which scipy's bdtrc uses at k = 0 and which differs from
# the C library's in the last bit (Moshier 1989).
_EP = (1.2617719307481059087798e-4, 3.0299440770744196129956e-2, 9.9999999999999999991025e-1)
_EQ = (3.0019850513866445504159e-6, 2.5244834034968410419224e-3, 2.2726554820815502876593e-1,
       2.0000000000000000009117e0)


def _expm1(x: float) -> float:
    """cephes' expm1(x)."""
    if x < -0.5 or x > 0.5:
        return math.exp(x) - 1.0
    xx = x * x
    r = x * ((_EP[0] * xx + _EP[1]) * xx + _EP[2])
    r = r / (((_EQ[0] * xx + _EQ[1]) * xx + _EQ[2]) * xx + _EQ[3] - r)
    return r + r


@lru_cache(maxsize=8)
def _tails(k: int, n: int, p: float):
    """(P[X <= k], P[X > k]); ``qos._meets_target`` asks for both in turn."""
    q = 1.0 - p
    if k == 0:  # cephes' bdtr and bdtrc at k = 0
        low = q ** n
        return low, (-_expm1(n * math.log1p(-p)) if p < 0.01 else 1.0 - low)
    first, other = (_below, _above) if k < n * p else (_above, _below)
    s = first(k, n, p, q)
    if s > 0.5:
        first, s = other, other(k, n, p, q)
    return (s, 1.0 - s) if first is _below else (1.0 - s, s)


def bdtr(k: int, n: int, p: float) -> float:
    """P[X <= k] for X ~ Binomial(n, p), 0 <= k < n, 0 < p < 1."""
    return _tails(k, n, p)[0]


def bdtrc(k: int, n: int, p: float) -> float:
    """P[X > k] for X ~ Binomial(n, p), 0 <= k < n, 0 < p < 1."""
    return _tails(k, n, p)[1]


def _beta_front(a: float, b: float, x: float, y: float) -> float:
    """x**a y**b / (a B(a, b)) with y = 1 - x, as b/s times the pmf of a
    successes in s = a + b trials at rate x in Loader's form."""
    s = a + b
    lc = _stirlerr(s) - _stirlerr(a) - _stirlerr(b) - _bd0(a, s * x) - _bd0(b, s * y)
    return math.exp(lc) * math.sqrt(b / (_2PI * a * s))


def _beta_fraction(a: float, b: float, x: float) -> float:
    """1/(1 + d1/(1 + d2/(1 + ...))) by the modified Lentz method, with
    d(2m + 1) = -(a + m)(a + b + m) x / ((a + 2m)(a + 2m + 1)) and
    d(2m) = m (b - m) x / ((a + 2m - 1)(a + 2m)); two steps per pass."""
    s = a + b
    ap = a + 1.0
    am = a - 1.0
    c = 1.0
    # Below the switch x < (a + 1)/(s + 2), this first denominator
    # exceeds 2/(s + 2).
    d = 1.0 / (1.0 - s * x / ap)
    h = d
    m = 1.0
    while True:
        m2 = m + m
        e = m * (b - m) * x / ((am + m2) * (a + m2))
        d = 1.0 + e * d
        if abs(d) < _TINY:
            d = _TINY
        c = 1.0 + e / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        h *= d * c
        e = -(a + m) * (s + m) * x / ((a + m2) * (ap + m2))
        d = 1.0 + e * d
        if abs(d) < _TINY:
            d = _TINY
        c = 1.0 + e / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        step = d * c
        h *= step
        if abs(step - 1.0) < _STEP:
            return h
        m += 1.0


def betainc(a: float, b: float, x: float) -> float:
    """I_x(a, b), the regularized incomplete beta function, for a, b > 0."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    y = 1.0 - x
    if x * (a + b + 2.0) < a + 1.0:
        return _beta_front(a, b, x, y) * _beta_fraction(a, b, x)
    return 1.0 - _beta_front(b, a, y, x) * _beta_fraction(b, a, y)
