"""Binomial tails and the incomplete beta function on the standard
library, for one-shot commands.

``bdtr(k, n, p)`` is P[X <= k] and ``bdtrc(k, n, p)`` is P[X > k] for
X ~ Binomial(n, p), with integers 0 <= k < n and 0 < p < 1, and
``betainc(a, b, x)`` is the regularized incomplete beta function
I_x(a, b) for a, b > 0 and 0 <= x <= 1: the calls ``qos`` makes of
scipy's ``cython_special`` kernels of the same names.

A fresh process spends 0.2-0.45 s importing ``scipy.special``.  Each
call here takes 5-65 us at n <= ``N_MAX`` against scipy's 0.4 us, so a
command that makes a few thousand calls spends less in these
functions, and ``cli.cli_dispatch`` binds them in place of scipy's for
such a command, from either entry point, as ``cli._choose_kernels``
estimates from the limits below.  Every other caller keeps scipy's.

All three are one algorithm, the continued fraction of Press et al.,
*Numerical Recipes* (3rd ed., section 6.4): below the switch
x < (a + 1)/(a + b + 2),

    I_x(a, b) = x**a y**b / (a B(a, b)) * 1/(1 + d1/(1 + d2/(1 + ...))),

with y = 1 - x, and beyond it 1 - I_y(b, a), as the fraction converges
fast only below the switch.  The fraction is evaluated forward by the
modified Lentz method and stops once a step moves it by less than
2**-50.  The front factor is b/s times the pmf of a successes in
s = a + b trials at rate x, in Loader's saddle-point form (Loader 2000,
"Fast and accurate computation of binomial probabilities", as in R's
``dbinom``), where ``_stirlerr`` and ``_bd0`` avoid the cancellation of
log-gamma differences; in that form the rounding of s cancels to first
order.

The tails are P[X <= k] = I_q(n - k, k + 1) and P[X > k] =
I_p(k + 1, n - k) with q = 1 - p.  For 0 < k < n the one below its
switch, the lower where q (n + 3) < n - k + 1, is computed from p and q
as given and the whole a and b, whose Stirling errors come from a
table; the other tail is 1 minus it.  At k = 0 both are cephes' closed
forms, (1 - p)**n and its complement, with cephes' expm1 below
p = 0.01: scipy 1.17's values bit for bit (a scipy whose bdtrc calls
the C library's expm1 instead may differ there by an ulp).

Bound, for a + b <= ``N_MAX`` + 1, so n <= ``N_MAX`` for the tails:
below the switch the value has a relative error below ``BETA_REL_ERR``
(1e-11) wherever it is at least 1e-290.  The front factor's exponent
errs by a few ulps times its size (below 750 before the factor
underflows), by 3e-14 more where a or b is a fraction below 15, whose
Stirling error comes from ``math.lgamma``, and for a tail by an ulp of q
times the distance from the mean in items (below 4,200 down to 1e-300 at
n = 5e4), as q carries the rounding of 1 - p.  The fraction's first
denominator, 1 - s x/(a + 1), cancels down to 2x/(a + 1) at the switch,
which multiplies its rounding by at most s/2, 2.8e-12 at s = 5e4; each
later step adds a few roundings, and the stop about 2**-50.  For the
lower tail, x = q, that denominator is ((n + 1) p - k)/(n - k + 1): it
cancels most at large n and small p, just below the switch.  Beyond the
switch that bound holds for the complement I_y(b, a), so the value
carries it times 1 - I_x(a, b), plus 2**-53, as an absolute error;
for b >= 1 the complement there is below 0.87 (it nears 1 - e**-2 at
b = 1 as a grows), so the relative error stays below
8 ``BETA_REL_ERR``.  The larger tail is such a value: it carries the
smaller tail's error, plus one rounding.  A b < 1 beyond the switch
leaves only the absolute bound;
``qos``'s binomial cdf reaches that only at a threshold in (-1, 0), and
the AIMD brackets only with b above 0.97.  scipy's own tails err more as
n grows: their smaller tail differs from these by less than
``SCIPY_REL_DIFF`` (1e-9) relative, and by 1.6e-10 at most on
``tests/test_qos.py``'s grid.  At k = 0, (1 - p)**n carries n times the
rounding of 1 - p, as scipy's does.

Measured against 60-digit sums, the smaller tail erred by 1.9e-12 at
most over 20,000 random tails with n up to 5e4 and k within 6 sd of the
mean; by 5.8e-12 over 200,000 with n from 2e4 to 5e4, p from 1e-4 to
1e-3 and k within 1.5 sd, where the first denominator cancels; and by
5.1e-12 over 50,000 just below the switch, n up to 5e4.  Against
50-digit series ``betainc`` erred by 3.3e-12 below the switch (at
a + b = 4.5e4 and x = 0.99988, where the first denominator cancels)
and 3.8e-14 beyond it for b >= 1, over 38,000 random values above
1e-290 with a + b up to 5e4 + 1, and by 4.4e-16 over the 9,427 distinct
calls of eight equalize runs on the four best-effort rows, where
scipy's differ from these by 1.6e-15 at most.
"""

from __future__ import annotations

import math
from functools import lru_cache

# The command line computes with these kernels only where n <= N_MAX,
# the range over which the bound above was checked, and where its design
# scans walk at most STRETCHES_MAX reserve stretches, about two calls
# each.  The scans are what costs: with p_surge 0.99 and p_nonsurge
# 0.01, which make a scan walk to T = N, a fresh ``surgeshare design``
# with N p_bad stretches took as long on these kernels as with scipy's
# import at about 2,300 (p_bad 0.07, targets 0.5, the dearest per stretch
# measured), 4,500 (p_bad 0.2, targets 0.999) and 4,000 (p_bad 0.5,
# targets 0.98); at 1,500 the worst measured took 0.69x the time (medians
# of 9 on 2 CPUs, N up to 5e4).  Every built-in scenario and the golden
# rows (1,000 in all) stay well inside.
N_MAX = 50_000
STRETCHES_MAX = 1_500

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
    # P[X <= k] = I_q(n - k, k + 1) and P[X > k] = I_p(k + 1, n - k):
    # the one below the fraction's switch, the other 1 minus it.
    a, b = n - k, k + 1
    if q * (n + 3) < a + 1:
        low = _beta_front(a, b, q, p) * _beta_fraction(a, b, q)
        return low, 1.0 - low
    high = _beta_front(b, a, p, q) * _beta_fraction(b, a, p)
    return 1.0 - high, high


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
