"""Unit tests for the AIMD partitioning simulation."""

import collections
import dataclasses
import math
import os
import re
import tempfile
from array import array

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import optimize, special

from surgeshare import (
    AimdConfig,
    AimdTrace,
    ScenarioParams,
    auto_config,
    binom_cdf,
    binom_cdf_cont,
    binom_pmf_cont,
    qos_all,
    run_partition,
    scan_oracle,
)
from surgeshare import _binom, aimd
from surgeshare import qos as qos_module
from surgeshare.aimd import PROBLEMS
from surgeshare.qos import _COUNT_MAX

CAR_1000 = ScenarioParams(1000, 0.1, 0.3, 0.01)


def make_config(**overrides):
    base = dict(alpha=1.0, beta=0.85, z_init=50.0, q_init=5.0,
                gamma=1.0, seed=0)
    base.update(overrides)
    return AimdConfig(**base)


def test_additive_phase_grows_both_agents():
    config = make_config(max_iterations=1)
    trace, _, _ = run_partition("maximize", CAR_1000, 120, 215, config)
    assert [list(c) for c in trace.claims()] == [[51.0], [6.0]]
    assert [list(trace.events), list(trace.z_avg_events), list(trace.q_avg_events)] == \
        [[], [], []]
    assert [list(trace.z_starts), list(trace.q_starts), trace.alpha] == [[50.0], [5.0], 1.0]
    assert trace.capacity_count == 0 and trace.total_iterations == 1


def test_forced_backoff_scales_both_agents():
    # A huge gain clamps both backoff probabilities at 1, so a capacity
    # event deterministically multiplies both claims by beta.  Iteration
    # 0 fills the pool to 105 + 15, iteration 1 is the event (recording
    # the saturated claims) and iteration 2 adds alpha to the backed-off
    # claims.
    config = make_config(alpha=5.0, z_init=100.0, q_init=10.0, gamma=1e12,
                         max_iterations=3)
    trace, _, _ = run_partition("maximize", CAR_1000, 120, 215, config)
    z, q = trace.claims()
    assert list(trace.events) == [1]
    assert z[1] == 105.0 and q[1] == 15.0
    assert list(trace.z_avg_events) == [105.0] and list(trace.q_avg_events) == [15.0]
    assert list(trace.z_starts) == [100.0, 0.85 * 105.0]
    assert list(trace.q_starts) == [10.0, 0.85 * 15.0]
    assert z[2] == pytest.approx(0.85 * 105.0 + 5.0)
    assert q[2] == pytest.approx(0.85 * 15.0 + 5.0)
    assert trace.capacity_count == 1


def test_gain_calibrated_to_inf_falls_back_to_target():
    # At the first event the consumer rate is about 3.65e-309, a
    # subnormal (the surge cdf at 1250 + T underflows), and the reserve
    # rate is 0: gamma_target / worst overflows to inf.  An infinite gain
    # would back the consumers off at every event and the reserve never
    # (inf * 0 is NaN, which passes the clamp); the run must instead use
    # gamma = gamma_target, as for a zero or infinite worst rate.
    params = ScenarioParams(50000, 0.14975, 0.2995, 0.5)
    config = AimdConfig(alpha=1, beta=0.85, z_init=1249, q_init=1, gamma_target=0.9,
                        max_iterations=20000)
    fixed = dataclasses.replace(config, gamma=config.gamma_target)
    calibrated, q_star, rep = run_partition("equalize", params, 1251, 10000, config)
    reference, q_ref, rep_ref = run_partition("equalize", params, 1251, 10000, fixed)
    # Every trace array and the scalars, then the reserve and its QoS.
    assert calibrated == reference
    assert (q_star, rep) == (q_ref, rep_ref)


def test_gain_calibrated_to_a_zero_rate_falls_back_to_target():
    # Every surge and bad-behaviour request arrives at p = 0.999, so at
    # the first event both agents' cdfs, and so both rates, are 0: a gain
    # scaled to the worst rate would divide by zero.  The run must use
    # gamma = gamma_target, as for an infinite worst rate.
    params = ScenarioParams(1000, 0.1, 0.999, 0.999)
    config = dataclasses.replace(auto_config("equalize", 110, 200, params),
                                 max_iterations=5000)
    rate_c, _, _ = aimd._agent("equalize", 1000, 0.999, 200)
    rate_p, _, _ = aimd._agent("equalize", 200, 0.999, 0)
    assert rate_c(config.z_init + config.alpha) == rate_p(config.q_init + config.alpha) == 0.0
    fixed = dataclasses.replace(config, gamma=config.gamma_target)
    assert run_partition("equalize", params, 110, 200, config) == \
        run_partition("equalize", params, 110, 200, fixed)


def test_vanishing_gain_rarely_backs_off():
    # With gamma ~ 0 the backoff probability sits at its floor, so the
    # claims oscillate right at the capacity boundary.
    config = make_config(z_init=109.0, q_init=10.0, gamma=1e-300,
                         max_iterations=501)
    trace, _, _ = run_partition("equalize", CAR_1000, 120, 215, config)
    # Backoffs happen with probability lam_min = 1e-4 per event, so the
    # claims shrink by at most a couple of beta factors in 500 events.
    assert trace.capacity_count >= 450
    assert min(trace.claims()[0]) >= 110.0 * config.beta ** 3


def test_symmetric_agents_stay_equal():
    # Equal initial claims and backoff probabilities both clamped at 1
    # make both agents back off at every event, whatever the draws, so
    # the two agents stay identical.
    config = make_config(gamma=1e12, z_init=55.0, q_init=55.0,
                         max_iterations=2000)
    trace, _, _ = run_partition("equalize", CAR_1000, 120, 215, config)
    assert trace.capacity_count > 0
    z, q = trace.claims()
    assert z.tolist() == q.tolist()
    assert trace.z_avg_events == trace.q_avg_events


def test_trace_capacity_bound_and_positivity():
    config = auto_config("maximize", 120, 215, CAR_1000, seed=5)
    trace, _, _ = run_partition("maximize", CAR_1000, 120, 215, config)
    z, q = trace.claims()
    for l in range(trace.events[0], len(z)):
        assert z[l] + q[l] < 120 + 2 * config.alpha
    assert all(z > 0) and all(q > 0)


def test_trace_average_recursions():
    config = auto_config("maximize", 120, 215, CAR_1000, seed=2)
    trace, _, _ = run_partition("maximize", CAR_1000, 120, 215, config)
    events = trace.events
    assert len(events) == len(trace.z_avg_events) == len(trace.q_avg_events) == \
        trace.capacity_count
    z, q = (c.tolist() for c in trace.claims())
    z_bar = q_bar = 0.0
    for k, l in enumerate(events, start=1):
        z_bar += (z[l] - z_bar) / k
        q_bar += (q[l] - q_bar) / k
        assert trace.z_avg_events[k - 1] == pytest.approx(z_bar, abs=1e-9)
        assert trace.q_avg_events[k - 1] == pytest.approx(q_bar, abs=1e-9)
    # The recursion equals the arithmetic mean of the event states.
    assert trace.z_avg == pytest.approx(math.fsum(z[l] for l in events) / len(events), abs=1e-9)
    assert trace.q_avg == pytest.approx(math.fsum(q[l] for l in events) / len(events), abs=1e-9)


def test_seeded_runs_are_bit_identical():
    config = auto_config("maximize", 120, 215, CAR_1000, seed=11)
    t1, q1, _ = run_partition("maximize", CAR_1000, 120, 215, config)
    t2, q2, _ = run_partition("maximize", CAR_1000, 120, 215, config)
    assert q1 == q2
    assert [c.tolist() for c in t1.claims()] == [c.tolist() for c in t2.claims()]
    assert t1.converged_at == t2.converged_at
    other = auto_config("maximize", 120, 215, CAR_1000, seed=12)
    t3, _, _ = run_partition("maximize", CAR_1000, 120, 215, other)
    assert t3.claims()[0].tolist() != t1.claims()[0].tolist()


@pytest.mark.parametrize("problem", PROBLEMS)
@pytest.mark.parametrize("gamma", [None, np.float32(0.3)])
def test_numpy_real_config_fields_run_as_their_floats(problem, gamma):
    # A config may hold numpy reals.  A float32 gain target would make the
    # calibrated gain and every probability float32, and a float32
    # tolerance the convergence test; the run is that of the float() of
    # each field, bit for bit.  The reserve starts deep in the prosumer
    # pmf's tail, where a float32 gain for the maximize rate of about
    # 1e68 underflows to 0.
    fields = dict(alpha=np.float32(0.75), beta=np.float64(0.85), z_init=np.float32(50.0),
                  q_init=np.float64(60.0), gamma=gamma, gamma_target=np.float32(0.15),
                  lam_min=np.float64(1e-3), convergence_tol=np.float32(5e-3),
                  convergence_window=200, max_iterations=20_000, seed=3)
    plain = {k: float(v) if isinstance(v, np.floating) else v for k, v in fields.items()}
    runs = [run_partition(problem, CAR_1000, 120, 215, AimdConfig(**kw)) for kw in (fields, plain)]
    (got, q_got, _), (want, q_want, _) = runs
    assert type(got.z_avg) is float and type(got.q_avg) is float and type(got.alpha) is float
    assert (got.z_avg.hex(), got.q_avg.hex(), got.converged_at, q_got) == \
        (want.z_avg.hex(), want.q_avg.hex(), want.converged_at, q_want)
    assert [c.tolist() for c in got.claims()] == [c.tolist() for c in want.claims()]
    assert [got.events, got.z_starts, got.q_starts, got.z_avg_events, got.q_avg_events] == \
        [want.events, want.z_starts, want.q_starts, want.z_avg_events, want.q_avg_events]


def test_unconverged_run_is_flagged_not_raised():
    config = auto_config("maximize", 120, 215, CAR_1000)
    short = AimdConfig(
        alpha=config.alpha, beta=config.beta, z_init=config.z_init,
        q_init=config.q_init, gamma=config.gamma,
        gamma_target=config.gamma_target, seed=0, max_iterations=500,
        convergence_window=config.convergence_window,
        convergence_tol=config.convergence_tol,
    )
    trace, q_star, _ = run_partition("maximize", CAR_1000, 120, 215, short)
    assert trace.converged_at is None
    assert isinstance(q_star, int)


def test_run_partition_validates_inputs():
    with pytest.raises(ValueError):
        run_partition("optimize", CAR_1000, 120, 215)
    with pytest.raises(ValueError):
        run_partition("maximize", CAR_1000, 120, 0)
    with pytest.raises(ValueError):
        run_partition("maximize", CAR_1000, 2000, 215)
    with pytest.raises(ValueError, match="t cannot exceed"):
        run_partition("maximize", ScenarioParams(100, 0.1, 0.3, 0.01), 50, 200)
    # auto_config checks its own inputs: the CLI calls it before
    # run_partition, and a bad T or M must be reported as such.
    with pytest.raises(ValueError, match="t must be at least 1"):
        auto_config("maximize", 120, -5, CAR_1000)
    with pytest.raises(ValueError, match="m must be at least 2"):
        run_partition("maximize", ScenarioParams(10, 0.1, 0.3, 0.01), 1, 1)
    with pytest.raises(ValueError):
        run_partition("maximize", CAR_1000, 120, 215,
                      make_config(z_init=100.0, q_init=30.0))
    # Settings that may come from a scenario file's [aimd] section.
    with pytest.raises(ValueError, match="gamma_target"):
        run_partition("maximize", CAR_1000, 120, 215, make_config(gamma_target=-1.0))
    with pytest.raises(ValueError, match="lam_min"):
        run_partition("maximize", CAR_1000, 120, 215, make_config(lam_min=5.0))
    with pytest.raises(ValueError, match="max_iterations"):
        run_partition("maximize", CAR_1000, 120, 215, make_config(max_iterations=-3))
    for field in ("alpha", "z_init", "gamma", "convergence_tol"):
        with pytest.raises(ValueError):
            make_config(**{field: math.nan})
    # An infinite step, gain or tolerance used to be accepted: alpha = inf
    # failed later on a NaN average, gamma = inf gave a NaN backoff
    # probability, and convergence_tol = inf reported any run converged.
    for field in ("alpha", "gamma", "convergence_tol"):
        with pytest.raises(ValueError, match=field):
            make_config(**{field: math.inf})
    # The seed and the counts must be integers before numpy or the run
    # loop sees them.
    for field in ("seed", "max_iterations", "convergence_window"):
        for value in (1.5, True, "3"):
            with pytest.raises(TypeError, match=field):
                make_config(**{field: value})
    with pytest.raises(ValueError, match="seed"):
        make_config(seed=-1)
    # Every float setting is named when it is not a number, and an
    # infinite initial state is rejected when the config is built.
    for field in ("alpha", "beta", "z_init", "q_init", "gamma", "gamma_target",
                  "lam_min", "convergence_tol"):
        for value in ("0.5", True, None):
            if field == "gamma" and value is None:
                continue  # None asks for a calibrated gain
            with pytest.raises(TypeError, match=field):
                make_config(**{field: value})
    for field in ("z_init", "q_init"):
        with pytest.raises(ValueError, match=field):
            make_config(**{field: math.inf})
    # A fractional pool is named before any work is done, not after a
    # whole simulated run.
    def no_run(*args):
        raise AssertionError("the run started")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(aimd, "_rate_function", no_run)
        for m, t, name in ((120.5, 215, "m"), (120, 215.0, "t")):
            for entry in (run_partition, scan_oracle,
                          lambda problem, params, m, t: auto_config(problem, m, t, params)):
                with pytest.raises(TypeError, match=f"{name} must be an integer"):
                    entry("maximize", CAR_1000, m, t)


def test_initial_states_that_fill_the_pool_are_rejected():
    # z_init + q_init must lie below M: a pool already full at the start
    # has no additive phase.
    with pytest.raises(ValueError, match=r"z_init \+ q_init < M"):
        run_partition("maximize", CAR_1000, 120, 215, make_config(z_init=115.0, q_init=5.0))
    run_partition("maximize", CAR_1000, 120, 215,
                  make_config(z_init=115.0, q_init=4.5, max_iterations=1))


# The three entry points share one check of the pool against N.
@pytest.mark.parametrize("entry", [run_partition, scan_oracle,
                                   lambda problem, params, m, t: auto_config(problem, m, t, params)],
                         ids=["run_partition", "scan_oracle", "auto_config"])
@pytest.mark.parametrize("m, t, message", [
    (-5, 10, "m must be non-negative"),
    (2000, 215, "m cannot exceed the consumer population"),
    (120, 5000, "t cannot exceed the consumer population"),
    (120, 0, "t must be at least 1"),
])
def test_entry_points_validate_the_pool(entry, m, t, message):
    with pytest.raises(ValueError, match=message):
        entry("maximize", CAR_1000, m, t)
    with pytest.raises(ValueError, match="problem must be one of"):
        entry("optimize", CAR_1000, 120, 215)


def test_aimd_config_defaults():
    # What a run gets when neither the caller nor a scenario's [aimd]
    # section sets a field; auto_config's seed defaults to the same 0.
    config = AimdConfig(alpha=1.0, beta=0.85, z_init=50.0, q_init=5.0)
    assert (config.gamma, config.gamma_target, config.lam_min, config.max_iterations,
            config.seed, config.convergence_window, config.convergence_tol) == \
        (None, 0.15, 1e-4, 2_000_000, 0, 2000, 5e-4)
    assert auto_config("maximize", 120, 215, CAR_1000).seed == 0


def test_aimd_config_accepts_range_edges():
    make_config(gamma_target=1.0, lam_min=0.0, max_iterations=1)
    make_config(lam_min=1.0)
    make_config(seed=np.uint32(7))


def test_scan_oracle_maximize_car_1000():
    q_opt, value = scan_oracle("maximize", CAR_1000, 120, 215)
    assert abs(q_opt - 7) <= 1
    assert value == pytest.approx(
        binom_cdf(120 - q_opt + 215, 1000, 0.3) + binom_cdf(q_opt, 215, 0.01))


def test_scan_oracle_equalize_car_5000():
    params = ScenarioParams(5000, 0.1, 0.3, 0.01)
    q_opt, gap = scan_oracle("equalize", params, 545, 1040)
    assert abs(q_opt - 17) <= 1
    assert gap >= 0.0


def test_scan_oracle_zero_reserve_endpoint():
    qos_b_at_zero = binom_cdf(0, 215, 0.01)
    assert qos_b_at_zero == pytest.approx(0.99 ** 215, rel=1e-9)


@pytest.mark.parametrize("problem", PROBLEMS)
@pytest.mark.parametrize("params, m, t, q_opt", [
    (ScenarioParams(1000, 0.1, 0.3, 1e-6), 120, 215, 0),   # a reserve buys nothing
    (ScenarioParams(1000, 0.1, 0.001, 0.5), 40, 100, 40),  # every item to it, Q = M
    (ScenarioParams(1000, 0.1, 0.001, 0.5), 100, 40, 40),  # every prosumer, Q = T
], ids=["zero", "all-of-m", "all-of-t"])
def test_scan_oracle_takes_either_end_of_the_range(problem, params, m, t, q_opt):
    # The scan covers 0 <= Q <= min(M, T), both ends included.
    assert scan_oracle(problem, params, m, t)[0] == q_opt


def test_run_partition_matches_oracle_car_1000():
    q_oracle, _ = scan_oracle("maximize", CAR_1000, 120, 215)
    _, q_star, rep = run_partition("maximize", CAR_1000, 120, 215,
                                   auto_config("maximize", 120, 215, CAR_1000, seed=0),
                                   record=False)
    assert abs(q_star - q_oracle) <= 1
    assert 0.0 <= rep.qos_s <= 1.0 and 0.0 <= rep.qos_b <= 1.0


@pytest.mark.parametrize("n, m, t, q_star, iterations, events, z_avg, q_avg", [
    (1000, 120, 215, 7, 14939, 11395, "0x1.c6f7421d5fa02p+6", "0x1.cf2fddb43c8a5p+2"),
    (5000, 545, 1040, 20, 26943, 11168, "0x1.069c2e2449d47p+9", "0x1.4bdc30493723bp+4"),
])
def test_seeded_maximize_outcomes_are_pinned(n, m, t, q_star, iterations, events,
                                             z_avg, q_avg):
    # Pins the random stream and float order of the kernel: moving a draw
    # or reordering an update changes these bits.
    params = ScenarioParams(n, 0.1, 0.3, 0.01)
    config = auto_config("maximize", m, t, params, seed=0)
    trace, got_q_star, _ = run_partition("maximize", params, m, t, config, record=False)
    assert got_q_star == q_star
    assert trace.total_iterations == iterations
    assert trace.capacity_count == events
    assert trace.converged_at == iterations - 1
    assert trace.z_avg.hex() == z_avg and trace.q_avg.hex() == q_avg


@pytest.mark.parametrize("n, m, t, q_star, iterations, events, z_avg, q_avg", [
    (1000, 120, 215, 5, 458857, 100705, "0x1.c9f131657a31bp+6", "0x1.6103a2d5ee1e4p+2"),
    (5000, 545, 1040, 17, 476146, 104422, "0x1.079a4195515e2p+9", "0x1.1cca1bb837fd8p+4"),
])
def test_seeded_equalize_outcomes_are_pinned(n, m, t, q_star, iterations, events,
                                             z_avg, q_avg):
    # The equalize twin of the maximize pins: its rates come from the
    # incomplete beta function rather than the log-gamma pmf.
    params = ScenarioParams(n, 0.1, 0.3, 0.01)
    config = auto_config("equalize", m, t, params, seed=0)
    trace, got_q_star, _ = run_partition("equalize", params, m, t, config, record=False)
    assert got_q_star == q_star
    assert trace.total_iterations == iterations
    assert trace.capacity_count == events
    assert trace.converged_at == iterations - 1
    assert trace.z_avg.hex() == z_avg and trace.q_avg.hex() == q_avg


@pytest.mark.parametrize("record", [False, True])
@pytest.mark.parametrize("problem", PROBLEMS)
def test_trace_counts_are_python_ints(problem, record):
    # The loop counts events in a float, exact only below 2**53, which
    # every count and _COUNT_MAX are; the counts it reports stay ints,
    # which the pins above cannot show, as 11395 == 11395.0.
    assert _COUNT_MAX < 2**53
    config = dataclasses.replace(auto_config(problem, 120, 215, CAR_1000, seed=0),
                                 convergence_window=200)
    trace, _, _ = run_partition(problem, CAR_1000, 120, 215, config, record=record)
    counts = (trace.capacity_count, trace.total_iterations, trace.converged_at)
    assert [type(c) for c in counts] == [int] * 3, counts


def test_unconverged_record_run_has_one_row_per_iteration():
    # 1234 iterations stop inside an additive phase; the trace still
    # gives exactly one claim per iteration, and holds one average per
    # event and one start per additive phase.
    config = make_config(alpha=0.5, gamma=None, max_iterations=1234)
    trace, _, _ = run_partition("equalize", CAR_1000, 120, 215, config)
    assert trace.converged_at is None and trace.total_iterations == 1234
    assert [len(c) for c in trace.claims()] == [1234, 1234]
    for series in (trace.events, trace.z_avg_events, trace.q_avg_events):
        assert len(series) == trace.capacity_count
    assert len(trace.z_starts) == len(trace.q_starts) == trace.capacity_count + 1
    assert 0 < trace.capacity_count and trace.events[-1] < 1233


def _reference_run(problem, params, m, t, config, record):
    """Independent reference: a per-iteration AIMD loop written straight
    through, one scalar draw and one public rate kernel call at a time.
    Returns what ``run_partition`` returns as comparable plain values:
    first the claims of every iteration and the trace's five arrays,
    all empty unless recorded."""
    n = params.n_consumers
    rng = np.random.Generator(np.random.Philox(config.seed))
    gamma = config.gamma
    z, q = config.z_init, config.q_init
    z_avg = q_avg = 0.0
    k = 0
    z_hist, q_hist, events = [], [], []
    z_starts, q_starts = [z], [q]
    za_events, qa_events = [], []
    window = config.convergence_window
    converged_at = None
    for l in range(config.max_iterations):
        event = z + q >= m
        if event:
            k += 1
            z_avg += (z - z_avg) / k
            q_avg += (q - q_avg) / k
        else:
            z += config.alpha
            q += config.alpha
        if record:
            z_hist.append(z)
            q_hist.append(q)
        if not event:
            continue
        events.append(l)
        if problem == "maximize":
            dc = z_avg * binom_pmf_cont(z_avg + t, n, params.p_surge)
            dp = q_avg * binom_pmf_cont(q_avg, t, params.p_bad)
            rc = 1.0 / dc if dc > 1e-300 else math.inf
            rp = 1.0 / dp if dp > 1e-300 else math.inf
        else:
            rc = binom_cdf_cont(z_avg + t, n, params.p_surge) / max(z_avg, 1e-12)
            rp = binom_cdf_cont(q_avg, t, params.p_bad) / max(q_avg, 1e-12)
        if gamma is None:
            worst = max(rc, rp)
            target = config.gamma_target
            gamma = target / worst if math.isfinite(worst) and worst > 0 else target
        lam_c = min(max(gamma * rc, config.lam_min), 1.0)
        lam_p = min(max(gamma * rp, config.lam_min), 1.0)
        if rng.random() < lam_c:
            z *= config.beta
        if rng.random() < lam_p:
            q *= config.beta
        z_starts.append(z)
        q_starts.append(q)
        za_events.append(z_avg)
        qa_events.append(q_avg)
        if k >= 5 * window:
            dz = abs(z_avg - za_events[k - 1 - window])
            dq = abs(q_avg - qa_events[k - 1 - window])
            tol = config.convergence_tol
            if dz <= tol * max(abs(z_avg), 1.0) and dq <= tol * max(abs(q_avg), 1.0):
                converged_at = l
                break
    total = config.max_iterations if converged_at is None else converged_at + 1

    def objective(reserve):
        rep = qos_all(params, m, t, reserve)
        if problem == "maximize":
            return rep.qos_s + rep.qos_b
        return -abs(rep.qos_s - rep.qos_b)

    q_limit = min(m, t)
    lo = min(max(math.floor(q_avg), 0), q_limit)
    hi = min(max(math.ceil(q_avg), 0), q_limit)
    q_star = max(range(lo, hi + 1), key=objective)
    hist = ([z_hist, q_hist, events, z_starts, q_starts, za_events, qa_events] if record
            else [[]] * 7)
    return hist, k, z_avg.hex(), q_avg.hex(), converged_at, total, q_star


@st.composite
def partition_cases(draw):
    n = draw(st.integers(10, 3000))
    params = ScenarioParams(n, 0.1, draw(st.floats(0.01, 0.9)),
                            draw(st.floats(0.001, 0.5)))
    m = draw(st.integers(2, min(n, 400)))
    t = draw(st.integers(1, n))
    alpha = draw(st.one_of(st.floats(1e-3, 0.1), st.floats(0.5, float(m))))
    fill = (1.0 - draw(st.floats(1e-4, 0.7))) * m
    share = draw(st.floats(0.0, 1.0))
    config = AimdConfig(
        alpha=alpha,
        beta=draw(st.floats(0.05, 0.999)),
        z_init=fill * share,
        q_init=fill * (1.0 - share),
        gamma=draw(st.one_of(st.none(), st.sampled_from([1e12, 1e-300]),
                             st.floats(1e-3, 10.0))),
        gamma_target=draw(st.floats(0.01, 1.0)),
        lam_min=draw(st.one_of(st.just(0.0), st.floats(0.0, 1.0))),
        max_iterations=draw(st.integers(1, 3000)),
        seed=draw(st.integers(0, 2**32)),
        convergence_window=draw(st.integers(1, 40)),
        convergence_tol=draw(st.floats(1e-4, 0.2)),
    )
    return draw(st.sampled_from(PROBLEMS)), params, m, t, config, draw(st.booleans())


@settings(max_examples=150, deadline=None)
@given(partition_cases())
# Stops before the first capacity event: no event, one start, a claim per
# iteration.
@example(("maximize", CAR_1000, 120, 215, make_config(alpha=0.1, max_iterations=200), True))
# Stops on an event: iteration 1 is the first capacity event.
@example(("maximize", CAR_1000, 120, 215,
          make_config(alpha=5.0, z_init=100.0, q_init=10.0, gamma=1e12,
                      max_iterations=2), True))
# Stops inside an additive phase, with no backoff floor.
@example(("equalize", CAR_1000, 120, 215,
          make_config(alpha=0.01, gamma=None, lam_min=0.0, max_iterations=2500), False))
# A vanishing gain with no floor: the consumer cap is far below every
# draw, so the consumer kernel is skipped at nearly every event.
@example(("equalize", CAR_1000, 120, 215,
          make_config(gamma=1e-300, lam_min=0.0, max_iterations=3000), False))
# A floor of 1: both agents back off at every event, whatever the rates.
@example(("equalize", CAR_1000, 120, 215,
          make_config(alpha=0.5, lam_min=1.0, max_iterations=3000), True))
# A tiny population: most brackets cross an end of a pmf's support, where
# the least of a * pmf is 0 and every draw below the cap asks the kernel.
@example(("maximize", ScenarioParams(3, 0.1, 0.3, 0.3), 3, 1,
          make_config(alpha=0.25, z_init=1.0, q_init=0.5, gamma=None, lam_min=1e-4,
                      max_iterations=3000), False))
def test_run_partition_equals_per_iteration_reference(reference_trace_csv, case):
    problem, params, m, t, config, record = case
    trace, q_star, _ = run_partition(problem, params, m, t, config, record=record)
    if record:
        claims = [c.tolist() for c in trace.claims()]
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "trace.csv")
            aimd.write_trace_csv(path, trace)
            with open(path, "rb") as fh:
                assert fh.read() == reference_trace_csv(trace)
    else:
        # A run executed without recording has no starts to rebuild from.
        with pytest.raises(ValueError, match="0 events, 0 and 0 starts"):
            trace.claims()
        claims = [[], []]
    got = (claims + [list(series) for series in (trace.events, trace.z_starts, trace.q_starts,
                                                 trace.z_avg_events, trace.q_avg_events)],
           trace.capacity_count, trace.z_avg.hex(), trace.q_avg.hex(),
           trace.converged_at, trace.total_iterations, q_star)
    assert got == _reference_run(problem, params, m, t, config, record)


def _clamped(lam, lam_min):
    return lam_min if lam < lam_min else 1.0 if lam > 1.0 else lam


_probability = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)


def _mode(size, p, off):
    # The argmax over x >= 0 of x * pmf(x + off), the maximize rate's
    # denominator: the root of the slope of its log,
    # 1/x + log(p / (1 - p)) - psi(x + off + 1) + psi(size - x - off + 1),
    # which falls from +inf; the support end size - off when the slope
    # is still positive there.
    top = size - off
    if top <= 0:
        return 0.0

    def slope(x):
        return (1.0 / x + math.log(p) - math.log1p(-p) - special.psi(x + off + 1.0)
                + special.psi(size - x - off + 1.0))
    if slope(top) >= 0.0:
        return float(top)
    return optimize.brentq(slope, 1e-300, top)


@st.composite
def bracket_cases(draw):
    # One agent of a run at any population the kernels accept, with a
    # bracket centred up to 8 (or 40) sigma into either tail of its kernel
    # or within 3 half-widths of an end of its support, and a point of it:
    # the centre (None), or a fraction of the way across, moved by up to
    # two ulps.  A maximize bracket may also lie across the mode of
    # a * pmf(a + off), up to a half-width off centre, with the point at
    # the mode: there the largest value lies inside the bracket, and only
    # the concavity terms of the lower rate bound cover it.
    n = draw(st.one_of(st.integers(1, 50), st.integers(1, _COUNT_MAX), st.just(_COUNT_MAX)))
    t = draw(st.integers(1, n))
    params = ScenarioParams(n, 0.1, draw(_probability), draw(_probability))
    problem = draw(st.sampled_from(PROBLEMS))
    agent = draw(st.sampled_from([0, 1]))
    size, p, off = (n, params.p_surge, t) if agent == 0 else (t, params.p_bad, 0)
    sigma = math.sqrt(size * p * (1.0 - p))
    h = aimd._rate_function(problem, params, t)[agent][2]
    centres = [st.one_of(st.floats(-8.0, 8.0), st.floats(-40.0, 40.0)).map(
                   lambda k: size * p - off + k * sigma),
               st.floats(-3.0, 3.0).map(lambda j: j * h),
               st.floats(-3.0, 3.0).map(lambda j: size - off + j * h)]
    spots = [st.none(), st.tuples(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
                                  st.integers(-2, 2))]
    if problem == "maximize":
        mode = _mode(size, p, off)
        centres.append(st.floats(-1.0, 1.0).map(lambda j: mode + j * h))
    a = max(draw(st.one_of(centres)), 0.0)  # an average of non-negative claims
    if problem == "maximize":
        spots.append(st.tuples(st.just(min(max((mode - a + h) / (2.0 * h), 0.0), 1.0)),
                               st.integers(-2, 2)))
    spot = draw(st.one_of(spots))
    return (problem, params, t, agent, a,
            draw(st.one_of(st.just(1e-300), st.floats(1e-3, 10.0), st.just(1e12))),
            draw(st.one_of(st.just(0.0), st.floats(0.0, 1.0), st.just(1.0))), spot)


@settings(max_examples=1000, deadline=None)
@given(bracket_cases(), st.floats(0.0, 1.0, exclude_max=True), st.integers(0, 3),
       st.integers(-2, 2))
# betainc returns 0 or values off by a factor of 2 near 1e-269 here (the
# reserve's cdf at 35.4 for T = 900, p_bad = 0.578): only the cdf floor
# covers it.
@example(("equalize", ScenarioParams(900, 0.1, 0.5, 0.5784157333434456), 900, 1,
          35.396216379153174, 1.0, 0.0, None), 0.5, 0, 0)
# The consumers' a * pmf(a + 1287) peaks at its mode 0.3317, an eighth of
# the way across [0.045, 2.34]; there it is 3.1 times its largest value
# at the centre and the ends.
@example(("maximize", ScenarioParams(1350, 0.1, 0.5, 0.3), 1287, 0,
          1.192834479158153, 1.0, 0.0, (0.125, 0)), 0.5, 0, 0)
# At the mode of a * pmf(a) for T = 1, p_bad = 5e-22, a bracket of
# h = 1.4e-12 is so flat that the lower rate bound at its centre equals
# the rate there but for rounding: only the slack covers it.
@example(("maximize", ScenarioParams(10, 0.1, 0.5, 5e-22), 1, 1,
          0.020792344766578267, 1.0, 0.0, None), 0.5, 0, 0)
# h = 6.7e-17 is 0.6 of an ulp below a = 1, so lo is the float below 1 and
# the centre rounds to hi = 1: w would divide by zero.
@example(("maximize", ScenarioParams(10, 0.1, 0.5, 1.135959703518257e-30), 1, 1,
          1.0, 1.0, 0.0, None), 0.5, 0, 0)
# The bracket's upper end lies past the support end T = 20, where the pmf
# and so a * pmf(a) are 0: no lower rate bound.
@example(("maximize", ScenarioParams(1000, 0.1, 0.3, 0.9), 20, 1,
          20.0, 1.0, 0.0, (1.0, 0)), 0.5, 0, 0)
def test_bracket_decides_as_the_full_rate(case, u, edge, step):
    # Wherever a bracket decides a backoff, the full rate and clamp at any
    # point of it decide the same: a draw below lam_lo backs off and one
    # at or above lam_hi holds.
    problem, params, t, agent, a, gamma, lam_min, spot = case
    rate, bounds, h = aimd._rate_function(problem, params, t)[agent]
    lo, hi, cut, top = aimd._bracket(bounds, a, h, gamma, lam_min)
    x = a if spot is None else min(max(_ulps_from(lo + spot[0] * (hi - lo), spot[1]), lo), hi)
    assert lo <= x <= hi
    r_lo, r_hi = bounds(lo, hi)
    assert r_lo <= rate(x) <= r_hi
    lam = _clamped(gamma * rate(x), lam_min)
    # Move the draw to within two ulps of either bound, the floor or the
    # full probability, where a rounding slip would show.
    near = _ulps_from((u, cut, top, lam_min)[edge], step)
    if 0.0 <= near < 1.0:
        u = near
    assert (u < cut or u < top and u < lam) == (u < lam)
    assert cut <= lam <= top


@pytest.mark.parametrize("lo", [300.0, math.nextafter(300.0, 0.0)], ids=["onto-lo", "onto-hi"])
def test_maximize_bounds_when_the_centre_rounds_onto_an_end(lo):
    # Between two adjacent floats the centre rounds onto one of them, so
    # no secant can be drawn; the lower bound is then 0.
    rate, bounds, _ = aimd._agent("maximize", 1000, 0.3, 0)
    hi = math.nextafter(lo, math.inf)
    assert 0.5 * (lo + hi) in (lo, hi)
    least, most = bounds(lo, hi)
    assert least == 0.0 and rate(lo) <= most and rate(hi) <= most


def _counting_kernels(monkeypatch):
    # Wraps aimd's kernel factories: calls[name][n] counts the calls of
    # the kernel built for population n.
    calls = {"cdf": collections.Counter(), "pmf": collections.Counter()}
    for name in calls:
        factory = getattr(aimd, f"_{name}_cont")

        def counted(n, p, factory=factory, counter=calls[name]):
            kernel = factory(n, p)

            def call(x):
                counter[n] += 1
                return kernel(x)
            return call
        monkeypatch.setattr(aimd, f"_{name}_cont", counted)
    return calls


def test_equalize_kernels_run_at_few_events(monkeypatch):
    # Both agents' kernels together run 1,081 times over this run's
    # 100,705 events (1.1%): 35 for the consumers (n = N = 1000) and
    # 1,046 for the prosumers (n = T = 215).  Called at every event, the
    # prosumer's alone would run 100,705 times.
    calls = _counting_kernels(monkeypatch)
    config = auto_config("equalize", 120, 215, CAR_1000, seed=0)
    trace, _, _ = run_partition("equalize", CAR_1000, 120, 215, config, record=False)
    assert calls["pmf"] == {}
    assert 1 <= sum(calls["cdf"].values()) <= 0.03 * trace.capacity_count


@pytest.mark.parametrize("params, m, t, most", [
    # 1,448 calls over 11,395 events (0.13 per event): 109 for the
    # consumers (n = N = 1000) and 1,339 for the prosumers (n = T = 215).
    (CAR_1000, 120, 215, 0.2),
    # 4,016 calls over 10,146 events (0.40 per event): 320 for the
    # consumers (n = 50,000) and 3,696 for the prosumers (n = 10,200).
    (ScenarioParams(50000, 0.1, 0.3, 0.01), 5150, 10200, 0.5),
], ids=["car-n1000", "car-n50000"])
def test_maximize_kernels_run_at_few_events(monkeypatch, params, m, t, most):
    # Two calls per event evaluate both rates; a bracket with no lower
    # rate bound leaves 5,211 calls at car-n1000 and 13,679 at car-n50000.
    calls = _counting_kernels(monkeypatch)
    config = auto_config("maximize", m, t, params, seed=0)
    trace, _, _ = run_partition("maximize", params, m, t, config, record=False)
    assert calls["cdf"] == {}
    assert 1 <= sum(calls["pmf"].values()) <= most * trace.capacity_count


@pytest.mark.parametrize("n, m, t", [(1000, 120, 215), (5000, 545, 1040),
                                     (10000, 1060, 2065), (50000, 5150, 10200)],
                         ids=["car-n1000", "car-n5000", "car-n10000", "car-n50000"])
def test_summed_kernels_run_the_same_aimd(monkeypatch, n, m, t):
    # The command line's partition computes with _binom's kernels at
    # N <= N_MAX: the runs of criterion 4's rows are the same bit for bit
    # as on scipy's, and the QoS of q_star prints the same.
    params = ScenarioParams(n, 0.1, 0.3, 0.01)
    runs = []
    assert qos_module.betainc is not _binom.betainc
    for summed in (False, True):
        if summed:
            for name in ("bdtr", "bdtrc", "betainc"):
                monkeypatch.setattr(qos_module, name, getattr(_binom, name))
        for problem, seed in (("maximize", 0), ("equalize", 0), ("equalize", 1)):
            config = auto_config(problem, m, t, params, seed=seed)
            trace, q_star, rep = run_partition(problem, params, m, t, config, record=False)
            runs.append((q_star, trace.z_avg.hex(), trace.q_avg.hex(), trace.capacity_count,
                         trace.total_iterations, f"{rep.qos_s:.4f} {rep.qos_b:.4f}"))
    assert runs[:3] == runs[3:]


def test_summed_betainc_keeps_its_relative_bound_in_aimd(monkeypatch):
    # _binom.betainc beyond its switch, x >= (a + 1) / (a + b + 2), returns
    # 1 minus a complement; only for b >= 1 is that complement small enough
    # for the relative bound to hold.  The command line's AIMD brackets on
    # criterion 4's rows never ask for b < 1 there.
    beyond = []

    def recorded(a, b, x):
        if x * (a + b + 2.0) >= a + 1.0:
            beyond.append(b)
        return _binom.betainc(a, b, x)
    for name in ("bdtr", "bdtrc"):
        monkeypatch.setattr(qos_module, name, getattr(_binom, name))
    monkeypatch.setattr(qos_module, "betainc", recorded)
    for n, m, t in ((1000, 120, 215), (5000, 545, 1040), (10000, 1060, 2065),
                    (50000, 5150, 10200)):
        params = ScenarioParams(n, 0.1, 0.3, 0.01)
        for problem in PROBLEMS:
            config = auto_config(problem, m, t, params, seed=0)
            run_partition(problem, params, m, t, config, record=False)
    assert beyond and min(beyond) >= 1.0


@pytest.mark.parametrize("problem", PROBLEMS)
@pytest.mark.parametrize("params, m, t", [
    (CAR_1000, 120, 215),
    (ScenarioParams(5000, 0.1, 0.3, 0.01), 545, 1040),
], ids=["car-n1000", "car-n5000"])
@pytest.mark.parametrize("seed", [0, 7, 12345])
def test_recorded_series_match_per_iteration_reference(problem, params, m, t, seed, tmp_path,
                                                       monkeypatch, reference_trace_csv):
    # The auto_config regimes the CLI records, cut to 30k iterations:
    # every array of the trace, and the claims of every iteration rebuilt
    # from them, must equal what the per-iteration loop appends.  The
    # car-n5000 runs end inside an additive phase and the maximize runs
    # have long ones: the CSV of each prints as the reference writer,
    # which spreads the events row by row, prints it.  Blocks of 4096
    # rows put phases across block edges.
    monkeypatch.setattr(aimd, "_BLOCK_ROWS", 4096)
    config = dataclasses.replace(auto_config(problem, m, t, params, seed=seed),
                                 max_iterations=30_000)
    trace, _, _ = run_partition(problem, params, m, t, config)
    series = (trace.events, trace.z_starts, trace.q_starts, trace.z_avg_events,
              trace.q_avg_events)
    assert [type(s) for s in series] == [array] * 5
    assert [s.typecode for s in series] == list("qdddd")
    assert trace.capacity_count > 0
    hist = _reference_run(problem, params, m, t, config, True)[0]
    assert [c.tolist() for c in trace.claims()] + [list(s) for s in series] == hist
    aimd.write_trace_csv(tmp_path / "trace.csv", trace)
    assert (tmp_path / "trace.csv").read_bytes() == reference_trace_csv(trace)


def _trace_of(rows, alpha=0.0):
    # Rows of (z, q, flag, z_avg, q_avg).  A row that opens an additive
    # phase, the first or one after an event, gives the claims the phase
    # starts from, and alpha is added from there: so with alpha = 0 every
    # row of a phase prints those claims, or 0.0 for a start of -0.0,
    # unless it is the phase's first row and an event, which prints them
    # as they are.  A row with a true flag is a capacity event and sets
    # the averages; the averages of any other row are ignored, as the CSV
    # prints the last event's there.
    events = [(l, za, qa) for l, (_, _, flag, za, qa) in enumerate(rows) if flag]
    ev, za, qa = zip(*events) if events else ((),) * 3
    opens = [rows[l + 1] if l + 1 < len(rows) else rows[l] for l in ev]
    zs, qs = zip(*((row[0], row[1]) for row in (rows[:1] or [(0.0, 0.0)]) + opens))
    return AimdTrace(array("q", ev), array("d", zs), array("d", qs), array("d", za),
                     array("d", qa), alpha=alpha, capacity_count=len(ev), z_avg=0.0,
                     q_avg=0.0, converged_at=None, total_iterations=len(rows))


def _ulps_from(x, steps):
    for _ in range(abs(steps)):
        x = math.nextafter(x, math.copysign(math.inf, steps))
    return x


_TIE = 0.0078125  # 1/128 = 7812.5 millionths exactly; prints 0.007812
_HALF = 2.5e-6  # the double nearest a .5-millionth boundary
# Doubles within a few ulps of a .5-millionth boundary, where the scaled
# product can round to either side of the half.
_near_half = st.builds(_ulps_from, st.integers(-10**10, 10**10).map(lambda k: (k + 0.5) / 1e6),
                       st.integers(-3, 3))
_values = st.one_of(st.floats(), st.floats(-1e3, 1e3), _near_half)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_values, _values, st.booleans(), _values, _values), max_size=40),
       st.integers(1, 8), st.one_of(st.just(0.0), _values))
@example([], 4, 0.0)  # the header alone
@example([(_TIE, -_TIE, 1, 3 * _TIE, 0.5)], 1, 0.0)  # exact ties round to even
@example([(math.nextafter(_TIE, 0.0), math.nextafter(_TIE, 1.0),
           1, math.nextafter(_HALF, 0.0), math.nextafter(_HALF, 1.0))], 1, 0.0)
@example([(-0.0, -1e-9, 1, -123.4567895, 2.0**53 / 1e6),
          (1e20, -1.7e308, 1, 5e-324, 9.1e9)], 1, 0.0)
# A non-event row prints the last event's averages, here -inf and NaN.
@example([(math.nan, math.inf, 1, -math.inf, -math.nan),
          (1.0, 2.0, 0, 3.0, 4.0)], 1, 0.0)
# Clear sign bits: only the test s = v * 1e6 < 2**50 sends NaN, +inf,
# 2**53 / 1e6 and the double above it, whose s rounds to the wrong
# millionth, to the slow path.
@example([(math.nan, 1.0, 1, 2.0, 3.0), (1.0, math.inf, 1, 2.0, 3.0),
          (2.0**53 / 1e6, math.nextafter(2.0**53 / 1e6, math.inf), 1, 1.0, 0.5)], 1, 0.0)
# Integer parts at a power of ten and just above one: every digit of
# them prints, and only the padding of the shorter ones is blanked.
@example([(10.0, 12.5, 1, 100.0, 150.25), (1.0, 9.75, 1, 1000.0, 17.0)], 2, 0.0)
# Events on the first and last rows of blocks, and rows before the first
# event, which print averages of 0.0.
@example([(1.0, 1.0, l in (2, 3, 5, 6), l + 0.5, l + 0.25) for l in range(7)], 3, 0.0)
# Additive phases across block edges: each block goes on from the claims
# the block before left.
@example([(0.5, 0.25, l in (5, 6), 1.0, 2.0) for l in range(11)], 2, 0.1)
def test_write_trace_csv_matches_reference_writer(reference_trace_csv, rows, block, alpha):
    # Blocks of 1 to 8 rows put block edges everywhere, with a slow-path
    # block next to a fast one, and events anywhere in a block.
    trace = _trace_of(rows, alpha)
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(aimd, "_BLOCK_ROWS", block)
        path = os.path.join(tmp, "trace.csv")
        aimd.write_trace_csv(path, trace)
        with open(path, "rb") as fh:
            assert fh.read() == reference_trace_csv(trace)


def test_write_trace_csv_prints_only_a_tied_row_by_f_string(tmp_path, monkeypatch,
                                                           reference_trace_csv):
    # One exact tie in the middle of a block: that row alone goes to the
    # f-string, the rows around it are printed from digits.
    rows = [(1.0 + i, 2.5, i % 2, 0.25, 3.0) for i in range(9)]
    rows[4] = (5.0, _TIE, 1, 0.25, 3.0)
    trace = _trace_of(rows)
    slow_calls = []
    slow_rows = aimd._slow_rows

    def spy(start, *columns):
        slow_calls.append((start, [list(c) for c in columns]))
        return slow_rows(start, *columns)
    monkeypatch.setattr(aimd, "_slow_rows", spy)
    aimd.write_trace_csv(tmp_path / "trace.csv", trace)
    assert slow_calls == [(4, [[5.0], [_TIE], [1], [0.25], [3.0]])]
    assert (tmp_path / "trace.csv").read_bytes() == reference_trace_csv(trace)


def _malformed(change):
    # Three rows, events at iterations 0 and 2, then one change.
    trace = _trace_of([(1.0, 2.0, 1, 1.0, 2.0), (1.5, 2.5, 0, 0.0, 0.0),
                       (2.0, 3.0, 1, 1.5, 2.5)])
    change(trace)
    return trace


def _set_events(*events):
    return lambda trace: setattr(trace, "events", array("q", events))


def test_write_trace_csv_rejects_ragged_traces(tmp_path, reference_trace_csv):
    # Each malformed trace would otherwise drop or shift rows, misplace a
    # flag or an average, or fail half-written; the writer refuses before
    # it creates the file.
    events = "trace events must rise strictly within [0, 3)"
    cases = [
        (lambda trace: trace.q_starts.pop(), "2 events, 3 and 2 starts"),
        (lambda trace: trace.z_starts.append(3.0), "2 events, 4 and 3 starts"),
        (_set_events(-1, 2), events),
        (_set_events(0, 3), events),
        (_set_events(2, 2), events),
        (_set_events(2, 0), events),
        (lambda trace: trace.z_avg_events.pop(), "2 events, 1 and 2 averages"),
        (lambda trace: trace.q_avg_events.append(3.0), "2 events, 2 and 3 averages"),
        (lambda trace: setattr(trace, "events", [0.0, 2.0]), "events must be integers"),
        (lambda trace: setattr(trace, "events", [False, True]), "events must be integers"),
    ]
    path = tmp_path / "trace.csv"
    for change, message in cases:
        with pytest.raises(ValueError, match=re.escape(message)):
            aimd.write_trace_csv(path, _malformed(change))
        assert not path.exists()
        with pytest.raises(ValueError, match=re.escape(message)):
            _malformed(change).claims()
    # Traces the writer accepts: events at either end, or none.
    for events in [(0, 2), (0,), (2,), ()]:
        trace = _trace_of([(1.0 + l, 2.0 + l, l in events, 0.5, 0.5) for l in range(3)], 0.25)
        aimd.write_trace_csv(path, trace)
        assert path.read_bytes() == reference_trace_csv(trace)
    # No events given as an empty list of any type: as its array("q") twin.
    want = path.read_bytes(), [a.tolist() for a in trace.claims()]
    for empty in ([], array("d"), np.array([])):
        trace.events = empty
        aimd.write_trace_csv(path, trace)
        assert (path.read_bytes(), [a.tolist() for a in trace.claims()]) == want
