"""Unit tests for the binomial QoS core."""

import dataclasses
import gc
import math
import random
import sys
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from surgeshare import (
    ScenarioParams,
    binom_cdf,
    binom_cdf_cont,
    binom_pmf_cont,
    load_scenario,
    min_items_for_qos,
    normal_approx_reserve,
    qos_all,
    solve_min_cost,
)
from surgeshare import _binom, cli
from surgeshare import qos as qos_module
from surgeshare.cli import cli_dispatch
from surgeshare.qos import _meets_target

CAR = ScenarioParams(1000, 0.1, 0.3, 0.01)
CHARGER = ScenarioParams(1000, 0.005, 0.015, 0.01)


def exact_pmf(k: int, n: int, p: Fraction) -> Fraction:
    return math.comb(n, k) * p**k * (1 - p) ** (n - k)


def exact_cdf(a: int, n: int, p: Fraction) -> Fraction:
    return sum(exact_pmf(k, n, p) for k in range(0, min(a, n) + 1))


def test_cdf_full_support():
    assert binom_cdf(3, 3, 0.5) == 1.0


def test_cdf_zero_successes():
    assert binom_cdf(0, 3, 0.5) == pytest.approx(0.125, abs=1e-12)


def test_cdf_out_of_range_thresholds():
    assert binom_cdf(-1, 10, 0.5) == 0.0
    assert binom_cdf(-7, 10, 0.5) == 0.0
    assert binom_cdf(11, 10, 0.5) == 1.0
    assert binom_cdf(1000, 10, 0.5) == 1.0


def test_cdf_car_nonsurge_pool():
    # A pool of 120 covers 1000 consumers at p=0.1 with at least 98% QoS.
    assert binom_cdf(120, 1000, 0.1) >= 0.98


@pytest.mark.parametrize("a,n,p_frac", [
    (10, 20, Fraction(3, 10)),
    (5, 50, Fraction(1, 100)),
    (0, 40, Fraction(1, 10)),
    (37, 40, Fraction(1, 2)),
    (123, 1000, Fraction(1, 10)),
])
def test_cdf_against_rational_summation(a, n, p_frac):
    expected = float(exact_cdf(a, n, p_frac))
    assert binom_cdf(a, n, float(p_frac)) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("bad_p", [0.0, 1.0, -0.2, 1.3])
def test_cdf_rejects_bad_probability(bad_p):
    with pytest.raises(ValueError):
        binom_cdf(3, 10, bad_p)


def test_kernels_reject_non_integer_counts_and_nan_thresholds():
    # A fractional count must not be truncated, and a NaN threshold is
    # named rather than failing inside int() or returning nan.
    for kernel in (binom_cdf, binom_cdf_cont, binom_pmf_cont):
        for n in (10.5, 10.0, "10", True):
            with pytest.raises(TypeError, match="n must be an integer"):
                kernel(3, n, 0.5)
        with pytest.raises(ValueError, match=r"(a|x) must lie in"):
            kernel(math.nan, 10, 0.5)
        assert kernel(math.inf, 10, 0.5) == (0.0 if kernel is binom_pmf_cont else 1.0)
        assert kernel(-math.inf, 10, 0.5) == 0.0
        # scipy takes n as a C int: at 2**31 bdtr returns nan.
        for n in (2**31, np.int64(2**31), 10**20):
            with pytest.raises(ValueError, match="n cannot exceed 2147483647; got"):
                kernel(5, n, 1e-9)
        assert kernel(5, 2**31 - 1, 1e-9) > 0.0
    with pytest.raises(TypeError, match="t must be an integer"):
        normal_approx_reserve(215.5, 0.01, 0.98)
    # The search used to answer 2**31, every requester, without a word.
    with pytest.raises(ValueError, match="n cannot exceed 2147483647"):
        min_items_for_qos(2**31, 1e-9, 0.98)
    assert min_items_for_qos(2**31 - 1, 1e-9, 0.98) == 6
    with pytest.raises(ValueError, match="n_consumers cannot exceed 2147483647"):
        ScenarioParams(2**31, 0.1, 0.3, 0.01)


def test_cdf_rejects_fractional_threshold():
    # The threshold counts items: 3.5 and 3.999 used to be truncated to
    # the value at 3.  Whole floats and the infinities stay valid.
    for a in (3.5, 3.999, -0.5, 1e-300, np.float64(2.5), Fraction(7, 2)):
        with pytest.raises(ValueError, match="a must be a whole number"):
            binom_cdf(a, 10, 0.5)
    for a in (3.0, np.float64(3.0), np.int64(3), Fraction(3)):
        assert binom_cdf(a, 10, 0.5) == binom_cdf(3, 10, 0.5)
    assert binom_cdf(-2.0, 10, 0.5) == 0.0 and binom_cdf(12.0, 10, 0.5) == 1.0
    assert binom_cdf(math.inf, 10, 0.5) == 1.0
    assert binom_cdf(-math.inf, 10, 0.5) == 0.0


def test_kernels_match_the_scipy_ufuncs_bit_for_bit():
    # The kernels call scipy.special.cython_special one value at a time;
    # they must give exactly what the scipy.special ufuncs give, for n up
    # to 5e4, p from 1e-4 to 0.999 and thresholds on both sides of the
    # mean as well as saturated ones.
    rng = random.Random(20261018)
    for _ in range(1500):
        n = round(10 ** rng.uniform(0.0, math.log10(5e4)))
        p = 10 ** rng.uniform(-4.0, math.log10(0.999))
        mean, sd = n * p, math.sqrt(n * p * (1.0 - p))
        a = round(mean + rng.uniform(-6.0, 6.0) * sd)
        for k in (a, rng.choice((-1, 0, n, n + 3))):
            want = 0.0 if k < 0 else 1.0 if k >= n else float(special.bdtr(k, n, p))
            assert binom_cdf(k, n, p).hex() == want.hex(), (k, n, p)
            if 0 <= k < n:
                cdf, tail = float(special.bdtr(k, n, p)), float(special.bdtrc(k, n, p))
                # Targets at the cdf and one ulp either side of it.
                for target in (cdf, math.nextafter(cdf, 0.0), math.nextafter(cdf, 2.0)):
                    if 0.0 < target <= 1.0:
                        want = target < 1.0 and tail <= 1.0 - target and cdf >= target
                        assert _meets_target(k, n, p, target) is want, (k, n, p, target)
        x = a + rng.random()
        cdf = qos_module._cdf_cont(n, p)
        for xs in (x, rng.choice((-1.5, -1.0, float(n), n + 0.5))):
            want = (1.0 if xs >= n else 0.0 if xs <= -1.0
                    else float(special.betainc(n - xs, xs + 1.0, 1.0 - p)))
            assert binom_cdf_cont(xs, n, p).hex() == want.hex(), (xs, n, p)
            assert cdf(xs).hex() == want.hex(), (xs, n, p)


def test_cdf_random_property_suite():
    # Bounds, monotonicity in the threshold, and anti-monotonicity in p.
    rng = random.Random(1234)
    for _ in range(1000):
        n = rng.randint(1, 2000)
        a = rng.randint(-2, n + 2)
        p = rng.uniform(0.001, 0.999)
        v = binom_cdf(a, n, p)
        assert 0.0 <= v <= 1.0
        assert binom_cdf(a + 1, n, p) >= v
        p2 = min(p + rng.uniform(0.0, 0.999 - p), 0.999)
        assert binom_cdf(a, n, p2) <= v + 1e-12
        assert binom_cdf(n, n, p) == 1.0


@pytest.mark.parametrize("n,p", [(10, 0.5), (215, 0.01), (500, 0.3), (2000, 0.1)])
def test_cdf_cont_matches_integers(n, p):
    for a in range(0, n + 1, max(1, n // 97)):
        assert binom_cdf_cont(float(a), n, p) == pytest.approx(
            binom_cdf(a, n, p), abs=1e-10)
    assert binom_cdf_cont(float(n), n, p) == pytest.approx(1.0, abs=1e-10)


def test_cdf_cont_midpoint_interpolates():
    lo = binom_cdf(4, 10, 0.5)
    hi = binom_cdf(5, 10, 0.5)
    mid = binom_cdf_cont(4.5, 10, 0.5)
    assert lo < mid < hi


def test_cdf_cont_clamps():
    assert binom_cdf_cont(-1.5, 10, 0.3) == 0.0
    assert binom_cdf_cont(10.0, 10, 0.3) == 1.0
    assert binom_cdf_cont(99.0, 10, 0.3) == 1.0


def test_cdf_cont_monotone_in_x():
    xs = [i * 0.37 for i in range(0, 60)]
    vals = [binom_cdf_cont(x, 20, 0.25) for x in xs]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_pmf_cont_trivial_values():
    assert binom_pmf_cont(0.0, 4, 0.5) == pytest.approx(0.0625, abs=1e-12)
    assert binom_pmf_cont(2.0, 4, 0.5) == pytest.approx(0.375, abs=1e-12)


def test_pmf_cont_outside_support():
    assert binom_pmf_cont(-0.5, 10, 0.3) == 0.0
    assert binom_pmf_cont(10.5, 10, 0.3) == 0.0


def test_pmf_cont_positive_in_tail():
    assert binom_pmf_cont(7.3, 215, 0.01) > 0.0


def test_continuous_kernels_take_x_as_its_float():
    # Under NEP 50 a numpy float32 x would make the pmf's log-space sum
    # float32: 0.0115065 here, against 0.0115180 for its float.
    x = np.float32(1234.567)
    for kernel in (binom_cdf_cont, binom_pmf_cont):
        got = kernel(x, 5000, 0.25)
        assert type(got) is float and got.hex() == kernel(float(x), 5000, 0.25).hex()


@pytest.mark.parametrize("n,p_frac", [(12, Fraction(3, 10)), (40, Fraction(1, 100)),
                                      (200, Fraction(1, 10))])
def test_pmf_cont_matches_integers(n, p_frac):
    p = float(p_frac)
    for k in range(0, n + 1):
        assert binom_pmf_cont(float(k), n, p) == pytest.approx(
            float(exact_pmf(k, n, p_frac)), abs=1e-10)


@pytest.mark.parametrize("n", [100, 1000, 10000])
@pytest.mark.parametrize("p", [0.005, 0.01, 0.1, 0.3])
def test_pmf_normalization(n, p):
    total = math.fsum(binom_pmf_cont(float(k), n, p) for k in range(n + 1))
    assert total == pytest.approx(1.0, abs=1e-9)


def test_qos_all_car_design():
    rep = qos_all(CAR, 120, 216, 6)
    assert rep.qos_ns >= 0.98 and rep.qos_s >= 0.98 and rep.qos_b >= 0.98


def test_qos_all_charger_design():
    rep = qos_all(CHARGER, 10, 14, 1)
    assert rep.qos_ns >= 0.98 and rep.qos_s >= 0.98 and rep.qos_b >= 0.98


def test_qos_all_saturating_design():
    rep = qos_all(CAR, CAR.n_consumers, 0, 0)
    assert rep.qos_ns == 1.0 and rep.qos_s == 1.0 and rep.qos_b == 1.0


def test_qos_all_rejects_reserve_above_pool():
    with pytest.raises(ValueError):
        qos_all(CAR, 10, 20, 11)
    # A negative pool is named as such, not as a reserve above it.
    with pytest.raises(ValueError, match="m must be non-negative"):
        qos_all(CAR, -3, 1, 0)
    # The reserve is drawn from the prosumer pool too.
    with pytest.raises(ValueError, match="q=4 cannot exceed prosumer pool t=3"):
        qos_all(CAR, 5, 3, 4)


def test_qos_all_rejects_non_integer_items():
    # A fractional reserve would be truncated by the cdf, and True would
    # count as one item.
    for args, name in (((120, 215, 6.5), "q"), ((True, 215, 0), "m"),
                       ((120, "215", 6), "t")):
        with pytest.raises(TypeError, match=f"{name} must be an integer"):
            qos_all(CAR, *args)
    assert qos_all(CAR, np.int64(120), np.uint16(216), np.int32(6)) == qos_all(CAR, 120, 216, 6)


def test_qos_s_depends_only_on_m_minus_q_plus_t():
    base = qos_all(CAR, 120, 216, 6).qos_s
    for delta in (-30, -5, 1, 12, 50):
        shifted = qos_all(CAR, 120 + delta, 216 - delta, 6).qos_s
        assert shifted == pytest.approx(base, abs=1e-12)


def test_min_items_car_surge():
    assert abs(min_items_for_qos(1000, 0.3, 0.98) - 330) <= 1


def test_min_items_charger_surge():
    assert abs(min_items_for_qos(1000, 0.015, 0.98) - 23) <= 1


def test_min_items_matches_linear_scan(monkeypatch):
    # Each search judges every count at most once: the rule is monotone,
    # so a count already judged needs no second call.
    judged = []

    def counting(a, n, p, target):
        judged.append(a)
        return _meets_target(a, n, p, target)

    monkeypatch.setattr(qos_module, "_meets_target", counting)

    def searched(n, p, target):
        judged.clear()
        a = min_items_for_qos(n, p, target)
        assert len(judged) == len(set(judged)), judged
        return a

    # (7, 0.5, 0.5 + 1 ulp): the tail at a=3 rounds down to meet the
    # target while the cdf rounds to just below 0.5.
    for n, p, target in [(10, 0.5, 0.999), (25, 0.1, 0.98), (60, 0.3, 0.9),
                         (7, 0.5, 0.5000000000000001)]:
        expected = next(a for a in range(n + 1) if binom_cdf(a, n, p) >= target)
        assert searched(n, p, target) == expected
    # Large n and targets near 1, where the search starts far from 0 and
    # the normal approximation is off by -1 to +10 items: the same rule
    # scanned from a = 0 up.
    for n, p, target in [(5000, 0.3, 1 - 1e-15), (5000, 0.01, 1 - 2**-53),
                         (4999, 0.5, 0.999999), (5000, 0.001, 0.98),
                         (3000, 0.05, 1 - 1e-12), (5000, 0.5, 0.5000000000000001)]:
        expected = next(a for a in range(n + 1) if _meets_target(a, n, p, target))
        assert searched(n, p, target) == expected


def test_min_items_is_minimal():
    a = min_items_for_qos(1000, 0.3, 0.98)
    assert binom_cdf(a, 1000, 0.3) >= 0.98
    assert binom_cdf(a - 1, 1000, 0.3) < 0.98


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(1, 300),
    p=st.floats(-4.0, math.log10(0.999)).map(lambda u: 10.0**u),
    target=st.one_of(st.just(1.0), st.floats(-15.0, -1.0).map(lambda u: 1.0 - 10.0**u)),
)
def test_rule_equals_exact_arithmetic(n, p, target):
    # The rule's verdict at every a against the cdf summed exactly for
    # the float p and target: cdf(a) = total / den**n for p = num / den.
    # The exact cdf rises in a and falls in n, so equal verdicts make the
    # rule monotone in the item count and in T at a fixed reserve, which
    # the solver's searches and the reference's thresholds rely on.
    num, den = Fraction(p).as_integer_ratio()
    goal = Fraction(target) * den**n
    total = 0
    for a in range(n + 1):
        total += math.comb(n, a) * num**a * (den - num) ** (n - a)
        # The one known miss, pinned by the test below.
        if (n, a, target) != (1, 0, 1.0 - p):
            assert _meets_target(a, n, p, target) == (total >= goal), a


@pytest.mark.xfail(strict=True, reason="bdtrc(0, 1, p) subtracts the rounded 1 - p from 1")
@pytest.mark.parametrize("p", [0.1, 10.0**-1.5])
def test_rule_fails_a_target_just_above_the_exact_cdf(p):
    # One consumer and no item: the exact cdf is 1 - p, and the target is
    # 1 - p rounded up, so it is missed.  bdtr rounds the cdf up to the
    # target, and for p >= 0.01 bdtrc gives 1 - fl(1 - p), which equals
    # 1 - target, so both checks of the rule pass.
    target = 1.0 - p
    assert Fraction(target) > 1 - Fraction(p)
    assert not _meets_target(0, 1, p, target)


@pytest.mark.parametrize("target, expected", [(1 - 1e-15, 419), (1 - 2**-53, 423)])
def test_min_items_exact_near_target_one(target, expected):
    # At these targets the cdf rounds to 1 a few items early; the
    # expected counts come from the upper tail summed to 60 digits.
    assert min_items_for_qos(1000, 0.3, target) == expected


def test_rule_target_one_fails_where_the_tail_underflows():
    # At p = 1e-20, 1 - p rounds to 1: the tail P[X > 19] of Bin(20, p),
    # exactly p**20, underflows to 0 and the cdf rounds to 1, so only the
    # rule's check that the target is below 1 rejects 19 items.
    assert special.bdtrc(19, 20, 1e-20) == 0.0 and special.bdtr(19, 20, 1e-20) == 1.0
    assert not _meets_target(19, 20, 1e-20, 1.0)
    assert _meets_target(20, 20, 1e-20, 1.0)


def test_min_items_target_one_needs_every_requester():
    # Far above the mean the tail underflows to 0, yet only a = n serves
    # every requester.
    for n, p in ((1, 0.5), (47, 0.01), (300, 0.01), (1000, 0.3)):
        assert min_items_for_qos(n, p, 1.0) == n
    assert min_items_for_qos(0, 0.3, 1.0) == 0


def test_min_items_rejects_bad_inputs():
    with pytest.raises(ValueError, match="n must be"):
        min_items_for_qos(-5, 0.3, 0.9)
    for target in (0.0, 1.5, math.nan):
        with pytest.raises(ValueError, match="target"):
            min_items_for_qos(10, 0.3, target)
    with pytest.raises(ValueError):
        min_items_for_qos(10, 1.0, 0.9)
    # A fractional n is not searched as is.
    for n in (10.5, True):
        with pytest.raises(TypeError, match="n must be an integer"):
            min_items_for_qos(n, 0.5, 0.9)


def test_min_items_near_normal_approximation():
    z99 = 2.3263478740408408
    for n in (100, 400, 1500, 5000):
        for p in (0.05, 0.1, 0.3, 0.5):
            approx = n * p + z99 * math.sqrt(n * p * (1 - p))
            assert abs(min_items_for_qos(n, p, 0.99) - approx) <= 2


def test_normal_approx_reserve_value():
    assert normal_approx_reserve(216, 0.01, 0.98) == pytest.approx(5.16, abs=0.01)


def test_normal_approx_reserve_median_target():
    # At a 50% target the quantile term vanishes, leaving the mean.
    assert normal_approx_reserve(500, 0.03, 0.5) == pytest.approx(15.0, abs=1e-9)


def test_normal_approx_reserve_consistent_with_table():
    assert abs(math.ceil(normal_approx_reserve(215, 0.01, 0.98)) - 6) <= 1


@pytest.mark.parametrize("bad_n", [True, 100.5, 100.0, "100"])
def test_params_reject_non_integer_population(bad_n):
    with pytest.raises(TypeError, match="n_consumers"):
        ScenarioParams(bad_n, 0.1, 0.3, 0.01)


@pytest.mark.parametrize("field", ["p_nonsurge", "p_surge", "p_bad",
                                   "qos_target_ns", "qos_target_s", "qos_target_b"])
@pytest.mark.parametrize("bad", ["0.1", True, None])
def test_params_reject_non_real_fields(field, bad):
    fields = dict(n_consumers=100, p_nonsurge=0.1, p_surge=0.3, p_bad=0.01)
    with pytest.raises(TypeError, match=field):
        ScenarioParams(**{**fields, field: bad})


def test_params_accept_numpy_integer_population():
    assert ScenarioParams(np.int64(100), 0.1, 0.3, 0.01).n_consumers == 100


# ---------------------------------------------------------------------------
# The pure-Python kernels that one-shot commands use (surgeshare._binom)
# ---------------------------------------------------------------------------

def _decimal_tail(k: int, n: int, p: float, upper: bool) -> Decimal:
    """P[X > k] if upper else P[X <= k] for the float p, summed outward
    from k to 60 digits until the terms past the mean fall below 1e-70
    of the sum."""
    with localcontext() as ctx:
        ctx.prec = 60
        big_p = Decimal(p)
        big_q = 1 - big_p
        j = k + 1 if upper else k
        t = Decimal(math.comb(n, j)) * big_p**j * big_q ** (n - j)
        s, mean, tiny = t, n * big_p, Decimal("1e-70")
        while (j < n) if upper else (j > 0):
            if upper:
                t = t * (n - j) * big_p / ((j + 1) * big_q)
                j += 1
            else:
                t = t * j * big_q / ((n - j + 1) * big_p)
                j -= 1
            s += t
            if t < s * tiny and (j > mean if upper else j < mean):
                break
        return s


def _summed_grid(seed: int, count: int):
    # n log-uniform up to N_MAX, p log-uniform in [1e-4, 0.95], k from one
    # sigma below the mean to six above it, and k = 0 and k = n - 1.
    rng = random.Random(seed)
    for _ in range(count):
        n = max(2, round(10 ** rng.uniform(0.0, math.log10(_binom.N_MAX))))
        p = 10 ** rng.uniform(-4.0, math.log10(0.95))
        mean, sd = n * p, math.sqrt(n * p * (1.0 - p))
        k = min(max(round(mean + rng.uniform(-1.0, 6.0) * sd), 0), n - 1)
        for kk in (k, 0, n - 1):
            yield kk, n, p


def test_summed_kernels_agree_with_scipy():
    # Within the module docstring's bound on the two kernels' difference,
    # on the smaller tail; the larger is 1 minus it.  At k = 0 both use
    # cephes' closed forms (the test below).
    worst = 0.0
    for k, n, p in _summed_grid(20261020, 700):
        ours = _binom.bdtr(k, n, p), _binom.bdtrc(k, n, p)
        want = float(special.bdtr(k, n, p)), float(special.bdtrc(k, n, p))
        if k == 0:
            assert ours[0] == want[0] and abs(ours[1] - want[1]) <= math.ulp(want[1]), (n, p)
            continue
        small = min(want)
        # The larger tail of either may be one rounding off 1 minus the smaller.
        slack = [2**-53 if value > small else 1e-300 for value in want]
        for got, value, eps in zip(ours, want, slack):
            assert abs(got - value) <= _binom.SCIPY_REL_DIFF * small + eps, (k, n, p)
        if small > 1e-290:
            worst = max(worst, abs(min(ours) - small) / small)
    # The grid reaches where scipy's own error shows.
    assert worst > 1e-13


@pytest.mark.parametrize("p", [1e-9, 0.009999999999999998, 0.01, 0.3, 0.5, 0.95])
def test_summed_kernels_equal_scipy_at_k_zero(p):
    # cephes' closed forms, bit for bit: (1 - p)**n, and its complement,
    # which switches to cephes' expm1 below p = 0.01.  The golden rows'
    # p_bad is 0.01, and at n = 1 its tail meets the target 0.99 by a
    # float tie.  scipy's bdtrc takes the same forms; a build that calls
    # the C library's expm1 there may differ by an ulp.
    for n in (1, 2, 3, 10, 100, 1000):
        assert _binom.bdtr(0, n, p) == special.bdtr(0, n, p), n
        tail = (-special.expm1(n * math.log1p(-p)) if p < 0.01
                else 1.0 - special.bdtr(0, n, p))
        assert _binom.bdtrc(0, n, p) == tail, n
        assert abs(_binom.bdtrc(0, n, p) - special.bdtrc(0, n, p)) <= math.ulp(tail), n


_PI_60 = Decimal("3.14159265358979323846264338327950288419716939937510582097494459")


@pytest.mark.parametrize("n", [*range(1, 17), 20, 35, 36, 50, 80, 81, 200, 500, 501, 49_999])
def test_stirling_error_against_60_digits(n):
    # log n! - (n + 1/2) log n + n - log sqrt(2 pi): the table up to 15,
    # then each branch of the series on both sides of its limit, to an
    # absolute 2e-16, as the pmf's exponent takes it.
    with localcontext() as ctx:
        ctx.prec = 60
        exact = (Decimal(math.factorial(n)).ln() - (n + Decimal("0.5")) * Decimal(n).ln()
                 + n - (2 * _PI_60).ln() / 2)
    assert abs(Decimal(_binom._stirlerr(n)) - exact) <= Decimal("2e-16")


@pytest.mark.parametrize("k, n, p", [
    (5, 12, 0.3),                     # the Stirling-error table
    (3, 10, 0.35),                    # 3 < np, yet the upper tail is below the switch
    (1, 2206, 0.25),                  # far below the mean, near 1e-273
    (11, 12, 0.95),                   # a = 1: P[X <= n - 1] = 1 - p**n
    (120, 1000, 0.1),                 # a golden pool at its target
    (16, 47, 0.01),                   # far above the mean
    (14_968, 49_999, 0.3),            # near the median at N_MAX
    (16_000, 50_000, 0.3),            # near 1e-22 at N_MAX
    (18_200, 50_000, 0.3),            # near 1e-206 at N_MAX
    (30, 50_000, 1e-4),               # a small p at N_MAX
    (47_600, 50_000, 0.95),           # a large p at N_MAX
])
def test_summed_kernels_against_a_60_digit_sum(k, n, p):
    low, high = _decimal_tail(k, n, p, upper=False), _decimal_tail(k, n, p, upper=True)
    assert abs(low + high - 1) < Decimal("1e-50")
    small, got = (low, _binom.bdtr(k, n, p)) if low <= high else (high, _binom.bdtrc(k, n, p))
    assert small > Decimal("1e-290")
    # 2e-12, a fifth of BETA_REL_ERR, holds at these points.
    assert abs(Decimal(got) - small) <= Decimal("2e-12") * small, (k, n, p)
    # The larger tail carries that error and one rounding of 1 minus it.
    big = _binom.bdtrc(k, n, p) if low <= high else _binom.bdtr(k, n, p)
    assert abs(Decimal(big) - (1 - small)) <= Decimal("2e-12") * small + Decimal(2**-53)


@pytest.mark.parametrize("k, n, p", [
    (25_001, 50_000, 0.5),
    (15_001, 50_000, 0.3),
])
def test_summed_kernels_stop_with_under_2_to_the_45_left(k, n, p):
    # Just past the median at N_MAX the continued fraction takes the most
    # steps, so the most roundings add up and its stop test, each step
    # nearest 1, matters most.  The tail, about 1/2, is then within 1e-13
    # of a 60-digit sum (2.9e-14 measured).
    with localcontext() as ctx:
        ctx.prec = 60
        want = _decimal_tail(k, n, p, upper=True)
        assert Decimal("0.4") < want < Decimal("0.5")
        assert abs(Decimal(_binom.bdtrc(k, n, p)) - want) <= Decimal("1e-13") * want


def test_tails_where_the_fraction_cancels_most():
    # Below the switch, x = 1 - p near 1, the fraction's first
    # denominator is ((n + 1) p - k)/(n - k + 1), near 2/(n - k + 1) at
    # the switch, so it multiplies the roundings of 1 - s x/(a + 1) by up
    # to n/2: the tails at large n and small p near the mean err the most.
    rng = random.Random(48)
    worst = Decimal(0)
    for _ in range(2000):
        n = rng.randint(20_000, 50_000)
        p = 10 ** rng.uniform(-4.0, -3.0)
        mean, sd = n * p, math.sqrt(n * p * (1.0 - p))
        k = min(max(round(mean + rng.uniform(-1.5, 1.5) * sd), 1), n - 1)
        low, high = _decimal_tail(k, n, p, upper=False), _decimal_tail(k, n, p, upper=True)
        small, got = (low, _binom.bdtr(k, n, p)) if low <= high else (high, _binom.bdtrc(k, n, p))
        err = abs(Decimal(got) - small) / small
        assert err <= Decimal(_binom.BETA_REL_ERR), (k, n, p)
        worst = max(worst, err)
    # The grid reaches where the first denominator cancels.
    assert worst > Decimal("1e-12")


def _beta_grid(seed: int, count: int, p_least: float = 1e-4):
    # Half the points are binomial cdfs at a real threshold x, as qos
    # asks for them: n log-uniform up to N_MAX, p log-uniform in
    # [p_least, 0.95] and x from eight sd below the mean to eight above,
    # in (-1, n).  The other half are any a and b with a + b up to
    # N_MAX + 1, log-uniform, and x uniform.
    rng = random.Random(seed)
    for i in range(count):
        if i % 2:
            n = max(1, round(10 ** rng.uniform(0.0, math.log10(_binom.N_MAX))))
            p = 10 ** rng.uniform(math.log10(p_least), math.log10(0.95))
            mean, sd = n * p, math.sqrt(n * p * (1.0 - p))
            x = min(max(mean + rng.uniform(-8.0, 8.0) * max(sd, 0.3), -0.99), n - 0.01)
            yield n - x, x + 1.0, 1.0 - p
        else:
            s = 10 ** rng.uniform(-1.0, math.log10(_binom.N_MAX + 1))
            a = s * rng.uniform(0.001, 0.999)
            yield a, s - a, rng.uniform(0.01, 0.99)


def _beta_slack(a: float, b: float, x: float, value) -> float:
    # The module docstring's bound: BETA_REL_ERR relative below the
    # switch, and beyond it that times 1 - value plus 2**-53 absolute,
    # which for b >= 1 is at most 8 BETA_REL_ERR relative.
    if x * (a + b + 2.0) < a + 1.0:
        return _binom.BETA_REL_ERR * value
    return _binom.BETA_REL_ERR * (1 - value) + 2**-53


def test_betainc_agrees_with_scipy():
    worst = 0.0
    for a, b, x in _beta_grid(20261020, 2000):
        got, want = _binom.betainc(a, b, x), float(special.betainc(a, b, x))
        if want < 1e-290:
            assert got < 1e-280, (a, b, x)
            continue
        # scipy's own error on this grid is below 1e-13.
        assert abs(got - want) <= _beta_slack(a, b, x, want) + 1e-13 * want, (a, b, x)
        if x * (a + b + 2.0) >= a + 1.0 and b >= 1.0:
            # The complement is below 0.87 beyond the switch for b >= 1.
            assert 1.0 - want < 0.87, (a, b, x)
            assert abs(got - want) <= 8 * _binom.BETA_REL_ERR * want, (a, b, x)
        worst = max(worst, abs(got - want) / want)
    # The grid reaches where the first denominator cancels.
    assert worst > 1e-14


def _mp_series(mpmath, a, b, x):
    # x**a y**b Gamma(a + b) / (Gamma(a + 1) Gamma(b)) times the
    # hypergeometric series 2F1(a + b, 1; a + 1; x), whose terms are all
    # positive: I_x(a, b) at the context's precision.
    term = total = mpmath.mpf(1)
    k = 0
    while term > total * mpmath.mpf(10) ** -(mpmath.mp.dps - 5) or (a + b + k) * x >= a + 1 + k:
        term *= (a + b + k) * x / (a + 1 + k)
        total += term
        k += 1
    return mpmath.exp(mpmath.loggamma(a + b) - mpmath.loggamma(a + 1) - mpmath.loggamma(b)
                      + a * mpmath.log(x) + b * mpmath.log(1 - x)) * total


def _mp_betainc(mpmath, a: float, b: float, x: float):
    # I_x(a, b) to 45 digits, by the series in x or, as 1 - I_y(b, a), in
    # y = 1 - x: whichever has fewer terms, at enough digits more to
    # cover the cancellation of 1 minus the series.
    a, b, x = (mpmath.mpf(v) for v in (a, b, x))
    y = 1 - x
    cost_x = max(0, (a + b) * x - a) / y + 1 / y
    cost_y = max(0, (a + b) * y - b) / x + 1 / x
    if cost_x <= cost_y:
        with mpmath.workdps(50):
            return _mp_series(mpmath, a, b, x)
    dps = 50
    while True:
        with mpmath.workdps(dps):
            value = 1 - _mp_series(mpmath, b, a, y)
        if value > mpmath.mpf(10) ** (45 - dps):
            return value
        dps = 50 + int(-mpmath.log10(value)) if value > 0 else 2 * dps


def test_betainc_against_50_digits():
    mpmath = pytest.importorskip("mpmath")
    for a, b, x in _beta_grid(46, 200, p_least=1e-3):
        want = _mp_betainc(mpmath, a, b, x)
        if want < mpmath.mpf(10) ** -290:
            continue
        got = _binom.betainc(a, b, x)
        assert abs(got - want) <= _beta_slack(a, b, x, want), (a, b, x)


@pytest.mark.parametrize("a, b, x", [
    (14_134.999, 0.0010000000000000009, 0.999882237448113),  # the first denominator cancels
    (50_000.001, 0.999, 0.9999),      # 1 - s x/(a + 1) is 1e-4
    (25_000.5, 25_000.5, 0.5),        # the median at N_MAX: the most steps
    (880.0, 336.0, 0.7),              # a car-n1000 consumer rate
    (3.5, 0.25, 0.9),                 # b < 1 beyond the switch
    (0.25, 3.5, 0.1),                 # a < 1 below it
    (7.5, 4.25, 0.5),                 # a fraction below 15 on both sides
])
def test_betainc_at_its_hardest_points(a, b, x):
    mpmath = pytest.importorskip("mpmath")
    want = _mp_betainc(mpmath, a, b, x)
    assert abs(_binom.betainc(a, b, x) - want) <= _beta_slack(a, b, x, want), (a, b, x)


def test_betainc_is_the_summed_cdf_at_whole_thresholds():
    # P[X <= k] = I_{1-p}(n - k, k + 1), against the cdf summed to 60
    # digits, with no scipy in either.
    for k, n, p in _summed_grid(7, 300):
        low, high = _decimal_tail(k, n, p, upper=False), _decimal_tail(k, n, p, upper=True)
        small = min(low, high)
        if small < Decimal("1e-290"):
            continue
        got = _binom.betainc(float(n - k), k + 1.0, 1.0 - p)
        # x = 1 - p rounds, which moves the value by an ulp of p times
        # the distance from the mean in items (1.7e-12 relative at most
        # here); a cdf above 1/2 is also one rounding of 1 minus the
        # smaller tail.
        err = abs(Decimal(got) - low) - (Decimal(2**-53) if low > high else 0)
        assert err <= Decimal(1e-11 + _binom.BETA_REL_ERR) * small, (k, n, p)


def test_betainc_ends():
    # x = 1 - p is 1 for any p below 2**-54.
    assert _binom.betainc(3.0, 4.0, 0.0) == 0.0
    assert _binom.betainc(500.5, 500.5, 1.0 - 1e-20) == 1.0


def test_summed_kernels_give_the_rules_verdicts(monkeypatch):
    # With qos's kernels bound to _binom's, the rule gives the same
    # verdict as with scipy's at every item count, at targets near 1 and
    # at the float ties of 1 - p too.
    rng = random.Random(42)
    cases = []
    for _ in range(150):
        n = rng.randint(1, 300)
        p = 10 ** rng.uniform(-4.0, math.log10(0.999))
        target = rng.choice((1.0 - 10 ** rng.uniform(-15.0, -1.0), 1.0 - p, 0.98, 0.99))
        cases.append((n, p, target))
    scipy_verdicts = [[_meets_target(a, n, p, t) for a in range(n + 1)] for n, p, t in cases]
    monkeypatch.setattr(qos_module, "bdtr", _binom.bdtr)
    monkeypatch.setattr(qos_module, "bdtrc", _binom.bdtrc)
    for (n, p, t), want in zip(cases, scipy_verdicts):
        assert [_meets_target(a, n, p, t) for a in range(n + 1)] == want, (n, p, t)


def test_console_and_library_can_differ_at_a_rule_tie(monkeypatch, capsys):
    # The two kernels differ by up to SCIPY_REL_DIFF, so a target that
    # lands within that of a tail can be met on one and missed on the
    # other.  This one is 1 minus scipy 1.17's P[X > 120] for
    # X ~ Binomial(1000, 0.1), the car scenario's non-surge pool: exactly,
    # 120 items meet it, as _binom's kernels find, so the command line prints
    # M = 120 from either entry point; scipy 1.17's tail is 2.8e-17 above
    # 1 - target, so the library gives M = 121.  Other scipy builds may
    # fall either way.
    target = 0.9827427694733775
    exact = _decimal_tail(120, 1000, 0.1, upper=True)
    assert exact <= 1 - Decimal(target) and 1 - exact >= Decimal(target)
    argv = ["design", "--scenario", "car-n1000-98", "--target", repr(target)]
    monkeypatch.setattr(sys, "argv", ["surgeshare", *argv])
    was = gc.isenabled()
    try:
        with pytest.raises(SystemExit) as exc:
            cli.main()
        assert exc.value.code == 0
    finally:
        gc.unfreeze()
        (gc.enable if was else gc.disable)()
    assert capsys.readouterr().out.splitlines()[0] == "M = 120  T = 217  Q = 6"
    assert cli_dispatch(argv) == 0
    assert capsys.readouterr().out.splitlines()[0] == "M = 120  T = 217  Q = 6"
    sc = load_scenario("car-n1000-98")
    params = dataclasses.replace(sc.params, qos_target_ns=target, qos_target_s=target,
                                 qos_target_b=target)
    d = solve_min_cost(params, sc.cost_model).design
    scipy_meets = _meets_target(120, 1000, 0.1, target)
    assert (d.m, d.t, d.q) == ((120, 217, 6) if scipy_meets else (121, 216, 6))
