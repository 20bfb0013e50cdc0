"""Unit tests for the AIMD partitioning simulation."""

import math

import numpy as np
import pytest

from surgeshare import (
    AimdConfig,
    ScenarioParams,
    auto_config,
    binom_cdf,
    run_partition,
    scan_oracle,
)

CAR_1000 = ScenarioParams(1000, 0.1, 0.3, 0.01)


def make_config(**overrides):
    base = dict(alpha=1.0, beta=0.85, z_init=50.0, q_init=5.0,
                gamma=1.0, seed=0)
    base.update(overrides)
    return AimdConfig(**base)


def test_additive_phase_grows_both_agents():
    config = make_config(max_iterations=1)
    trace, _, _ = run_partition("maximize", CAR_1000, 120, 215, config)
    assert list(trace.z) == [51.0] and list(trace.q) == [6.0]
    assert list(trace.capacity_event) == [0]
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
    assert list(trace.capacity_event) == [0, 1, 0]
    assert trace.z[1] == 105.0 and trace.q[1] == 15.0
    assert trace.z[2] == pytest.approx(0.85 * 105.0 + 5.0)
    assert trace.q[2] == pytest.approx(0.85 * 15.0 + 5.0)
    assert trace.capacity_count == 1


def test_vanishing_gain_rarely_backs_off():
    # With gamma ~ 0 the backoff probability sits at its floor, so the
    # claims oscillate right at the capacity boundary.
    config = make_config(z_init=109.0, q_init=10.0, gamma=1e-300,
                         max_iterations=501)
    trace, _, _ = run_partition("equalize", CAR_1000, 120, 215, config)
    # Backoffs happen with probability lam_min = 1e-4 per event, so the
    # claims shrink by at most a couple of beta factors in 500 events.
    assert trace.capacity_count >= 450
    assert min(trace.z) >= 110.0 * config.beta ** 3


def test_symmetric_agents_stay_equal():
    # Equal initial claims and backoff probabilities both clamped at 1
    # make both agents back off at every event, whatever the draws, so
    # the two agents stay identical.
    config = make_config(gamma=1e12, z_init=55.0, q_init=55.0,
                         max_iterations=2000)
    trace, _, _ = run_partition("equalize", CAR_1000, 120, 215, config)
    assert trace.capacity_count > 0
    assert trace.z == trace.q
    assert trace.z_avg_series == trace.q_avg_series


def test_trace_capacity_bound_and_positivity():
    config = auto_config("maximize", 120, 215, CAR_1000, seed=5)
    trace, _, _ = run_partition("maximize", CAR_1000, 120, 215, config)
    first_event = next(l for l in range(len(trace.z)) if trace.capacity_event[l])
    for l in range(first_event, len(trace.z)):
        assert trace.z[l] + trace.q[l] < 120 + 2 * config.alpha
    assert all(z > 0 for z in trace.z)
    assert all(q > 0 for q in trace.q)


def test_trace_average_recursions():
    config = auto_config("maximize", 120, 215, CAR_1000, seed=2)
    trace, _, _ = run_partition("maximize", CAR_1000, 120, 215, config)
    events = [l for l in range(len(trace.z)) if trace.capacity_event[l]]
    assert len(events) == trace.capacity_count
    z_bar = q_bar = 0.0
    for k, l in enumerate(events, start=1):
        z_bar += (trace.z[l] - z_bar) / k
        q_bar += (trace.q[l] - q_bar) / k
        assert trace.z_avg_series[l] == pytest.approx(z_bar, abs=1e-9)
        assert trace.q_avg_series[l] == pytest.approx(q_bar, abs=1e-9)
    # The recursion equals the arithmetic mean of the event states.
    assert trace.z_avg == pytest.approx(
        math.fsum(trace.z[l] for l in events) / len(events), abs=1e-9)
    assert trace.q_avg == pytest.approx(
        math.fsum(trace.q[l] for l in events) / len(events), abs=1e-9)


def test_seeded_runs_are_bit_identical():
    config = auto_config("maximize", 120, 215, CAR_1000, seed=11)
    t1, q1, _ = run_partition("maximize", CAR_1000, 120, 215, config)
    t2, q2, _ = run_partition("maximize", CAR_1000, 120, 215, config)
    assert q1 == q2
    assert t1.z == t2.z and t1.q == t2.q
    assert t1.converged_at == t2.converged_at
    other = auto_config("maximize", 120, 215, CAR_1000, seed=12)
    t3, _, _ = run_partition("maximize", CAR_1000, 120, 215, other)
    assert t3.z != t1.z


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
    # A seed must be a non-negative integer before numpy sees it.
    for seed in (1.5, True, "3"):
        with pytest.raises(TypeError, match="seed"):
            make_config(seed=seed)
    with pytest.raises(ValueError, match="seed"):
        make_config(seed=-1)


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
