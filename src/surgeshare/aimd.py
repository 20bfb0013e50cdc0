"""Problem 2: AIMD partitioning of a fixed shared pool.

Two logical agents -- the consumer population holding Z = M - Q items
and the prosumer population holding the reserve Q -- grow their claims
additively until the pool is saturated (a *capacity event*), at which
point each independently backs off multiplicatively with a probability
tied to the objective: the QoS-sum gradient for the maximization
problem, or the QoS level itself for the equalization problem.  The
only shared information is the single-bit capacity signal.

``run_partition`` runs both problems in one loop; the problem only
picks the backoff-rate functions, built once per run with their
constants hoisted.  The loop is event-driven: each pass of it is one
capacity event, preceded by a tight additive phase that grows both
claims until the pool saturates, so the random draws (taken in blocks)
and the convergence test run once per event, not once per iteration.

The rate kernels mostly do not run at all.  A backoff only needs the
sign of u - lam for the event's draw u, not lam itself, so each agent
keeps a bracket of its running average a, [a - h, a + h] with h a
per-problem fraction of its population's sigma (``_BRACKET``), and the
clamped probabilities lam_lo <= lam <= lam_hi that hold anywhere in it;
two kernel calls (three for maximize) build them when the average
leaves the bracket.  A draw below lam_lo backs off, one at or above
lam_hi holds, and only a draw in between evaluates the rate.  The
equalize numerator, a continuous cdf, rises with a, so the ends of the
bracket bound it.  The maximize denominator a * pmf(a + off) is
log-concave, so its least value lies at an end, and secants of its log
through the ends and the centre bound its largest (``_agent``).
Each kernel value is widened by 2**-10, far above the kernels' own
relative error, and a cdf by 1e-200 more, far above the values where
``betainc`` fails.  Rounding, the product with gamma and the clamp are
monotone, so every decision equals the one of the full rate: the result
is bit-identical to a per-iteration loop that adds alpha one step at a
time, draws one uniform at a time and calls both kernels every event,
for every seed.  The optional trace is the run's event log: per event,
its iteration, the running averages it set and the claims it left after
its backoff, from which ``AimdTrace.claims`` and ``write_trace_csv``
rebuild the claims of every iteration.
On car-n1000 seed 0 the kernels run 0.011 times per equalize event and
0.13 times per maximize event (0.40 at car-n50000), where evaluating
both rates would take 2.  The first event still evaluates both rates,
to calibrate gamma.

The loop and the kernels hold the pool M, the event count, the shift
T and the population n as floats, so that each comparison and each
piece of arithmetic on the hot path has two float operands: CPython
3.11+ specializes an operation only then (PEP 659), and with an int M
the additive phase's test ``z + q < M`` stays on the generic compare.
Each such value is an event count or at most ``qos._COUNT_MAX``, far
below 2**53, where Python converts an int to the same double and
compares ints and floats exactly, so every result is the same bit for
bit; the trace still reports its counts as ints.  On py3.11 the
benchmark's ``partition`` op_s_gmean fell to 0.84 of the int loop's.

A centralized ``scan_oracle`` provides ground truth for both problems.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Optional, Tuple

from .qos import (PROBLEMS, QosReport, ScenarioParams, _cdf_cont, _check_field,
                  _integer, _normal_reserve, _pmf_cont, _real, qos_all)

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

TRACE_CSV_COLUMNS = ("iter", "z", "q", "capacity_event", "z_avg", "q_avg")
_DRAW_BLOCK = 4096  # uniform draws per Generator call; even, two per event
# A bracket's half-width in standard deviations of the agent's population,
# per problem: wide enough that an average, which moves by
# (claim - average) / k per event, leaves it rarely, and narrow enough that
# the rate barely moves across it, so few draws fall between its two
# probabilities.  Of sigma/64, /32, /16 and /8, sigma/16 made the fewest
# maximize kernel calls on the four best-effort rows (seeds 0-2): 0.13 per
# event at car-n1000 and 0.38 at car-n50000, against 0.25 and 0.79 at
# sigma/64.
_BRACKET = {"maximize": 1.0 / 16, "equalize": 1.0 / 64}
# The relative slack on a kernel value at a bracket end: about three
# digits, where scipy's cdf kernel is good to 3e-16, ``_binom.betainc``
# (the command line's, n <= 5e4) to ``_binom.BETA_REL_ERR`` (1e-11) and
# the pmf to 1e-11 (n <= 10,200, against mpmath).
_SLACK = 2.0**-10
# The absolute slack on a cdf value.  Below about 1e-258 scipy's
# ``betainc`` can return 0 or values off by a factor of 2, not monotone
# in x: the largest such value in a scan of 15,000 random n <= 2**31 - 1
# and p was 1.9e-259.  ``_binom.betainc`` keeps its relative bound down
# to 1e-290 only.
_CDF_FLOOR = 1e-200
_BLOCK_ROWS = 1 << 14  # trace CSV rows built per numpy pass


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
        # Counts and the seed must be integers before they are compared or
        # handed to numpy: scenario files can carry any float, NaN and inf.
        _check_field(self, "max_iterations", _integer, 1)
        _check_field(self, "convergence_window", _integer, 1)
        _check_field(self, "seed", _integer)
        _check_field(self, "alpha", _real, 0.0, math.inf, "()")
        _check_field(self, "beta", _real, 0.0, 1.0, "()")
        _check_field(self, "z_init", _real, 0.0, math.inf, "[)")
        _check_field(self, "q_init", _real, 0.0, math.inf, "[)")
        if self.gamma is not None:
            _check_field(self, "gamma", _real, 0.0, math.inf, "()")
        _check_field(self, "gamma_target", _real, 0.0, 1.0, "(]")
        _check_field(self, "lam_min", _real, 0.0, 1.0, "[]")
        _check_field(self, "convergence_tol", _real, 0.0, math.inf, "()")


@dataclass
class AimdTrace:
    """Recorded run history, one entry per capacity event: ``events``
    holds the iteration of each event, rising; ``z_avg_events`` and
    ``q_avg_events`` the running averages it set, which move only at an
    event; and ``z_starts`` and ``q_starts`` the claims each additive
    phase starts from, the initial claims and then those each event left
    after its backoff, one more than there are events.  Those and
    ``alpha`` give the claims of every iteration (``claims``).  All five
    arrays are empty when the run was executed without recording."""

    events: array
    z_starts: array
    q_starts: array
    z_avg_events: array
    q_avg_events: array
    alpha: float
    capacity_count: int
    z_avg: float
    q_avg: float
    converged_at: Optional[int]
    total_iterations: int

    def claims(self):
        """The claims (z, q) of each of the ``total_iterations``
        iterations, as two float64 arrays, bit for bit those of the run.

        ``ValueError`` as ``write_trace_csv`` raises it: also for a run
        executed without recording, whose trace has no starts."""
        import numpy as np

        claims = np.empty((2, self.total_iterations))
        for start, z, q in _claim_blocks(self, _BLOCK_ROWS):
            claims[:, start:start + len(z)] = z, q
        return claims[0], claims[1]


def _check_pool(problem: str, params: ScenarioParams, m: int, t: int,
                config: Optional[AimdConfig] = None) -> Tuple[int, int]:
    # The inputs every entry point shares: a known problem, a pool of
    # 0 <= M <= N items and 1 <= T <= N prosumers; and, given a config,
    # initial states that fit in the pool.  Returns M and T as checked.
    if problem not in PROBLEMS:
        raise ValueError(f"problem must be one of {PROBLEMS}")
    t = _integer("t", t, 1)
    m = _integer("m", m)
    if m > params.n_consumers:
        raise ValueError("m cannot exceed the consumer population")
    if t > params.n_consumers:
        raise ValueError("t cannot exceed the consumer population")
    if config is not None and config.z_init + config.q_init >= m:
        raise ValueError("initial states must satisfy z_init + q_init < M")
    return m, t


def auto_config(problem: str, m: int, t: int, params: ScenarioParams,
                seed: int = 0) -> AimdConfig:
    """Problem-specific defaults, checked on the four best-effort rows.

    Those rows are the built-in car scenarios at N = 1e3, 5e3, 1e4 and
    5e4 with (M, T) = (120, 215), (545, 1040), (1060, 2065) and
    (5150, 10200).  For each row and problem, over seeds 0-19, the
    median q_star lies within one item of ``scan_oracle`` and every run
    converges (acceptance criterion 4).  Other inputs are not checked:
    at extreme request probabilities some runs converge to a reserve
    far from the oracle's.

    Both problems warm-start near the expected operating point (reserve
    at the normal-approximation estimate, consumers taking the rest).
    The maximization run uses a classic coarse AIMD regime; the
    equalization run needs a quasi-fluid regime (beta close to 1, small
    steps) because its backoff law saturates when the reserve average
    overshoots, leaving only a weak restoring force.
    """
    m, t = _check_pool(problem, params, m, t)
    _integer("m", m, 2)
    p_b = params.p_bad
    q_hat = _normal_reserve(t, p_b, 2.33)
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


def _agent(problem: str, n: int, p: float, off: int):
    """One agent of a run, a population of n requesting with probability
    p, its kernels taken at the average claim plus off, as
    ``(rate, bounds, h)``: the raw backoff rate at an average claim, with
    every constant of the rate law computed once; ``bounds(lo, hi)``,
    a pair that holds the computed rate at every float in [lo, hi]; and
    the half-width of the agent's brackets.

    Maximization uses the gradient of the QoS sum: the pmf of the
    population at its average claim (the consumers' surge argument
    shifted by T, as in QoS_s), inverted.  Equalization uses the QoS
    level over the average claim, so the better-served agent backs off
    more often and the two QoS values are pushed together.

    The bounds are ``_SLACK`` wider than the kernel values they come
    from, and a cdf's ``_CDF_FLOOR`` wider again.  Equalize: the cdf
    I_{1-p}(n - x, x + 1) rises with x, and fl(x + off) with x, so over
    the bracket the rate lies in
    [cdf(lo + off) / hi', cdf(hi + off) / lo'], with x' = max(x, 1e-12)
    as in the rate.

    Maximize: log a and the log of the pmf, whose second derivative is
    -psi'(x + 1) - psi'(n - x + 1) < 0, are concave, so
    D(a) = a * pmf(a + off) is log-concave.  Its least value on the
    bracket lies at an end and bounds the rate from above; a least value
    at or below 1e-300 bounds it by inf, as the rate itself is inf
    there.  For the computed centre c with lo < c < hi, and
    w = (c - lo) / (hi - c), concavity puts log D on [lo, c] below the
    secant through c and hi, extended, and on [c, hi] below the one
    through lo and c, so

        max D on [lo, hi] <= U = D(c) * max(1, (D(c) / D(hi))**w,
                                            (D(c) / D(lo))**(1 / w)),

    and 1 / ((1 + _SLACK) * U) bounds the rate from below.  D(c) is at
    least the least end value, so each log taken is finite, and U is
    formed in logs, so that a U past the float range gives a bound at or
    near 0, not an overflow.  The ends lie evenly around a, so w is 1
    but for rounding, and the kernels' relative errors enter U about
    three-fold, far inside ``_SLACK``.  The lower bound is 0 with the
    upper bound inf, as past a support edge, where D is 0, and when c
    rounds onto an end, as when h is below an ulp of a.
    """
    h = _BRACKET[problem] * math.sqrt(n * p * (1.0 - p))
    # A float shift keeps a + off on the float/float add; off <= _COUNT_MAX
    # < 2**53, so the sum is the same bit for bit.
    off = float(off)
    if problem == "maximize":
        pmf = _pmf_cont(n, p)

        def rate(a: float) -> float:
            d = a * pmf(a + off)
            return 1.0 / d if d > 1e-300 else math.inf

        def bounds(lo: float, hi: float) -> Tuple[float, float]:
            d_lo, d_hi = lo * pmf(lo + off), hi * pmf(hi + off)
            least = (1.0 - _SLACK) * min(d_lo, d_hi)
            if least <= 1e-300:
                return 0.0, math.inf
            c = 0.5 * (lo + hi)
            if not lo < c < hi:
                return 0.0, 1.0 / least
            w = (c - lo) / (hi - c)
            log_c = math.log(c * pmf(c + off))
            log_u = log_c + max(0.0, w * (log_c - math.log(d_hi)),
                                (log_c - math.log(d_lo)) / w)
            return math.exp(-log_u) / (1.0 + _SLACK), 1.0 / least
        return rate, bounds, h

    cdf = _cdf_cont(n, p)

    def rate(a: float) -> float:
        return cdf(a + off) / (1e-12 if a < 1e-12 else a)

    def bounds(lo: float, hi: float) -> Tuple[float, float]:
        least = cdf(lo + off) * (1.0 - _SLACK) - _CDF_FLOOR
        most = cdf(hi + off) * (1.0 + _SLACK) + _CDF_FLOOR
        return (least / (1e-12 if hi < 1e-12 else hi),
                most / (1e-12 if lo < 1e-12 else lo))
    return rate, bounds, h


def _clamp(lam: float, lam_min: float) -> float:
    # A backoff probability: lam clamped to [lam_min, 1], an infinite
    # rate to 1.
    return lam_min if lam < lam_min else 1.0 if lam > 1.0 else lam


def _bracket(bounds, a: float, h: float, gamma: float,
             lam_min: float) -> Tuple[float, float, float, float]:
    """The bracket [lo, hi] = [a - h, a + h] of an agent's average a
    and the clamped probabilities lam_lo <= lam_hi that hold its backoff
    probability anywhere in it."""
    lo, hi = a - h, a + h
    r_lo, r_hi = bounds(lo, hi)
    return lo, hi, _clamp(gamma * r_lo, lam_min), _clamp(gamma * r_hi, lam_min)


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
    not as an exception.  With ``record`` the trace keeps the event log
    (``AimdTrace``); recording costs work at each event only, none in
    the additive phases.
    """
    if config is None:
        config = auto_config(problem, m, t, params)
    m, t = _check_pool(problem, params, m, t, config)

    import numpy as np

    rate_c, bounds_c, h_c = _agent(problem, params.n_consumers, params.p_surge, t)
    rate_p, bounds_p, h_p = _agent(problem, t, params.p_bad, 0)
    rng = np.random.Generator(np.random.Philox(config.seed))
    alpha, beta = config.alpha, config.beta
    lam_min, target, gamma = config.lam_min, config.gamma_target, config.gamma
    limit = config.max_iterations
    z, q = config.z_init, config.q_init
    # The pool, the event count k and min_events are floats too, so the
    # pool test, the running-average quotients and the convergence test
    # take CPython's float/float paths; an int operand keeps a comparison
    # off its specialized form.  All are below 2**53, where int and float
    # compare and convert exactly, so every result is the same bit for bit.
    pool = float(m)
    z_avg = q_avg = 0.0
    k = 0.0  # capacity events so far
    l = 0  # iterations so far
    # A block of uniform draws and the next one to use; d == _DRAW_BLOCK
    # asks for a new block.
    draws, d = [], _DRAW_BLOCK

    # Every run logs the averages of each event: the windowed convergence
    # test compares them with their values ``window`` events back.  A
    # recorded run also keeps the iteration of every event and the claims
    # each additive phase starts from, and hands all five logs to its
    # trace.
    za_ev = array("d")
    qa_ev = array("d")
    ev_at = array("q")
    z_starts = array("d", [z] if record else [])
    q_starts = array("d", [q] if record else [])
    window = config.convergence_window
    back = -1 - window  # the averages ``window`` events back, from the end
    min_events = float(5 * window)  # a float, as k is
    tol = config.convergence_tol
    converged_at = None
    # Each agent's bracket [lo, hi] and the clamped probabilities
    # lam_lo <= lam_hi that hold its backoff probability there; the
    # empty bracket [inf, -inf] is built at the first event.
    lo_c = lo_p = math.inf
    hi_c = hi_p = -math.inf
    lam_lo_c = lam_hi_c = lam_lo_p = lam_hi_p = 0.0

    # Each pass is one capacity event, at iteration l.
    while True:
        # Additive-increase phase: both agents grow by alpha until the
        # pool saturates.  Repeated addition, not z + j*alpha, keeps the
        # rounding of a per-iteration loop.
        while z + q < pool and l < limit:
            z += alpha
            q += alpha
            l += 1
        if l == limit:
            break
        # Capacity event: fold the saturated claims into the running
        # averages.  The trace's row of this iteration shows these claims;
        # the backoff outcome shows from the next iteration on.
        k += 1.0
        z_avg += (z - z_avg) / k
        q_avg += (q - q_avg) / k
        za_ev.append(z_avg)
        qa_ev.append(q_avg)
        # Probabilistic multiplicative backoff, two draws per event,
        # consumers first; a block gives the same stream as scalar draws.
        # The agent that does not back off holds its claim, which keeps
        # the pool occupancy below M + 2*alpha at all times.
        if d == _DRAW_BLOCK:
            draws, d = rng.random(_DRAW_BLOCK).tolist(), 0
        if gamma is None:
            # A worst rate that is zero, infinite or so small that the
            # quotient overflows cannot be scaled to the target; the gain
            # is then the target itself, so it is always finite.
            worst = max(rate_c(z_avg), rate_p(q_avg))
            gamma = target / worst if 0.0 < worst < math.inf else target
            if gamma == math.inf:
                gamma = target
        if not lo_c <= z_avg <= hi_c:
            lo_c, hi_c, lam_lo_c, lam_hi_c = _bracket(bounds_c, z_avg, h_c, gamma, lam_min)
        if not lo_p <= q_avg <= hi_p:
            lo_p, hi_p, lam_lo_p, lam_hi_p = _bracket(bounds_p, q_avg, h_p, gamma, lam_min)
        # The draw backs off below lam_lo and holds at or above lam_hi,
        # as it does against the clamped full rate, which lies between
        # them; only a draw in between evaluates the rate.
        u = draws[d]
        if u < lam_lo_c or u < lam_hi_c and u < _clamp(gamma * rate_c(z_avg), lam_min):
            z *= beta
        u = draws[d + 1]
        if u < lam_lo_p or u < lam_hi_p and u < _clamp(gamma * rate_p(q_avg), lam_min):
            q *= beta
        d += 2
        if record:
            ev_at.append(l)
            z_starts.append(z)
            q_starts.append(q)
        if k >= min_events:
            dz = abs(z_avg - za_ev[back])
            dq = abs(q_avg - qa_ev[back])
            if (dz <= tol * max(abs(z_avg), 1.0)
                    and dq <= tol * max(abs(q_avg), 1.0)):
                converged_at = l
                break
        l += 1

    total = limit if converged_at is None else converged_at + 1
    trace = AimdTrace(
        events=ev_at, z_starts=z_starts, q_starts=q_starts,
        z_avg_events=za_ev if record else array("d"),
        q_avg_events=qa_ev if record else array("d"),
        alpha=alpha, capacity_count=len(za_ev), z_avg=z_avg, q_avg=q_avg,
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
    m, t = _check_pool(problem, params, m, t)
    q = _best_reserve(problem, params, m, t, range(0, min(m, t) + 1))
    return q, abs(_objective(problem, params, m, t, q))


def _digits(mag, decimals: int = 0):
    """The text of the integers mag >= 0 divided by 10**decimals,
    right-aligned in a uint8 matrix padded with spaces: the writer
    strips them."""
    import numpy as np

    # Digits come from // and a product: numpy's divmod by a scalar took
    # several times longer than both together (numpy 2.4).
    whole = mag // 10 ** decimals
    int_w = len(str(int(whole.max())))
    width = int_w + (decimals + 1 if decimals else 0)
    out = np.empty((len(mag), width), np.uint8)
    col = width
    rest = mag
    for _ in range(decimals):
        col -= 1
        head = rest // 10
        out[:, col] = rest - head * 10 + ord("0")
        rest = head
    if decimals:
        col -= 1
        out[:, col] = ord(".")
    for k in range(int_w):
        col -= 1
        head = rest // 10
        digit = rest - head * 10 + ord("0")
        rest = head
        if k:
            digit[whole < 10 ** k] = ord(" ")
        out[:, col] = digit
    return out


def _slow_rows(start: int, z, q, ev, za, qa) -> bytes:
    """The rows from iteration ``start`` on, printed one by one by the
    reference writer's f-string."""
    rows = zip(range(start, start + len(z)), z.tolist(), q.tolist(), ev.tolist(),
               za.tolist(), qa.tolist())
    return "".join(f"{l},{z:.6f},{q:.6f},{ev},{za:.6f},{qa:.6f}\n"
                   for l, z, q, ev, za, qa in rows).encode()


def _event_log(trace: AimdTrace):
    """Views of the trace's event iterations, starts and averages as
    numpy arrays, in that order; empty events of any type are no events.
    ``ValueError`` unless the iterations are integers that rise strictly
    within [0, total_iterations), and there is one z and one q average
    per event and one z and one q start more than events."""
    import numpy as np

    ev, zs, qs, za, qa = (np.asarray(a) for a in (trace.events, trace.z_starts, trace.q_starts,
                                                  trace.z_avg_events, trace.q_avg_events))
    if not len(ev):
        ev = ev.astype(np.int64)
    elif ev.dtype.kind not in "iu":
        raise ValueError(f"trace events must be integers, not {ev.dtype}")
    rows = trace.total_iterations
    if len(ev) and not (ev[0] >= 0 and ev[-1] < rows and (np.diff(ev) > 0).all()):
        raise ValueError(f"trace events must rise strictly within [0, {rows})")
    if not len(za) == len(qa) == len(ev):
        raise ValueError("trace needs one z and one q average per event: "
                         f"{len(ev)} events, {len(za)} and {len(qa)} averages")
    if not len(zs) == len(qs) == len(ev) + 1:
        raise ValueError("trace needs one z and one q start more than events: "
                         f"{len(ev)} events, {len(zs)} and {len(qs)} starts")
    return ev, zs, qs, za, qa


def _claim_blocks(trace: AimdTrace, size: int):
    """Yield (start, z, q): the claims of the iterations from ``start``
    on, ``size`` at a time, rebuilt from the trace's ``_event_log``.

    Additive phase j starts from the j-th starts at iteration f, one
    past event j - 1, and adds alpha at each iteration up to event j,
    whose row keeps the claims reached, or up to the end of the run.  So
    iteration r holds the starts plus min(r + 1 - f, a) additions, a the
    phase's iterations before its event.  A block sums them in a table,
    a row per phase: the starts, then alpha repeated, summed
    cumulatively, which makes the loop's ``z += alpha`` adds in its
    order.  Phases whose most additions in the block lie below the same
    power of two share a slab of rows that long, so the table is at most
    twice as long as the block and no array grows with the run.
    """
    import numpy as np

    ev, zs, qs = _event_log(trace)[:3]
    rows = trace.total_iterations
    # Phase j runs from iteration bounds[j] + 1 to bounds[j + 1], its
    # event; the last phase runs to the end, bounds[-1] - 1.
    bounds = np.concatenate(([-1], ev, [rows]))
    for start in range(0, rows, size):
        stop = min(start + size, rows)
        lo, hi = np.searchsorted(ev, [start, stop - 1]).tolist()  # the phases in the block
        f, end = bounds[lo:hi + 1] + 1, bounds[lo + 1:hi + 2]
        a = end - f
        base = np.stack((zs[lo:hi + 1], qs[lo:hi + 1]))
        if f[0] < start:
            a[0] -= start - f[0]
            f[0] = start
            base[:, 0] = claims[:, -1]  # the last of the block before
        count = np.minimum(end, stop - 1) - f + 1  # each phase's rows here
        power = np.frexp(np.minimum(count, a))[1]  # its most additions lie below 2**power
        order = np.argsort(power, kind="stable")
        width = np.left_shift(1, power[order])
        offset = np.empty_like(width)
        offset[order] = np.cumsum(width) - width
        slabs, done = [], 0
        for e, members in zip(*np.unique(power[order], return_counts=True)):
            slab = np.full((2, members, 1 << int(e)), trace.alpha)
            slab[:, :, 0] = base[:, order[done:done + members]]
            # Silent, as a float add overflows to inf or makes NaN.
            with np.errstate(over="ignore", invalid="ignore"):
                slabs.append(np.cumsum(slab, axis=2).reshape(2, -1))
            done += members
        at = np.minimum(np.arange(start, stop) + np.repeat(offset + 1 - f, count),
                        np.repeat(offset + a, count))
        claims = np.concatenate(slabs, axis=1).take(at, axis=1)
        yield start, claims[0], claims[1]


def write_trace_csv(path, trace: AimdTrace) -> None:
    """Export the per-iteration history for downstream plotting.

    One row per iteration: ``TRACE_CSV_COLUMNS``, the iteration number
    and the event flag as integers, the four claims and averages with
    six decimals, exactly as ``f"{v:.6f}"`` prints them.  Everything
    comes from the trace's event log: the claims are rebuilt a block at
    a time (``_claim_blocks``), a row's flag is 1 at an iteration in
    ``trace.events`` and 0 elsewhere, and its averages are those of the
    last event at or before it, 0.0 before the first.

    The rows are built in blocks of ``_BLOCK_ROWS`` with numpy.  For
    v >= 0, ``f"{v:.6f}"`` prints the exact product P = v * 10**6
    rounded half to even and divided by 10**6.  The computed product
    s = fl(v * 1e6) is the double nearest P.  Below 2**50 every
    half-integer is a double, so none lies strictly between P and s,
    and were P one, s would equal it.  So unless s is itself a
    half-integer, ``np.rint(s)`` is the rounding of P, and its int64
    digits are exact.  A block is printed from those digits when every
    value has a clear sign bit and an s below 2**50, which also rules
    out NaN and the infinities; only its rows with an exact tie, a
    value whose s - floor(s) == 0.5 such as 1/128 = 0.0078125, are
    printed by ``_slow_rows`` with the f-string itself.  The claims and
    averages that ``run_partition`` records are non-negative, so their
    blocks take this path.  Any other block, one with a negative value,
    -0.0, NaN, an infinity or an s of 2**50 or more, is printed row by
    row by ``_slow_rows``.

    ``ValueError``, raised before the file is opened, unless the event
    iterations are integers that rise strictly and lie in
    [0, total_iterations), and there is one z and one q average per
    event and one z and one q start more than events: a trace of a run
    executed without recording has none.
    """
    import numpy as np

    ev_at, _, _, za_ev, qa_ev = _event_log(trace)
    # Indexed by the count of events at or before a row.
    za_at, qa_at = (np.concatenate(([0.0], a)) for a in (za_ev, qa_ev))
    last = 0  # events before the block
    with open(path, "wb") as fh:
        fh.write((",".join(TRACE_CSV_COLUMNS) + "\n").encode())
        for start, z, q in _claim_blocks(trace, _BLOCK_ROWS):
            stop = start + len(z)
            first, last = last, int(np.searchsorted(ev_at, stop))
            ev = np.zeros(stop - start, np.int64)
            ev[ev_at[first:last] - start] = 1
            seen = np.cumsum(ev) + first
            za, qa = za_at[seen], qa_at[seen]
            values = [x.astype(np.float64, copy=False) for x in (z, q, za, qa)]
            with np.errstate(over="ignore", invalid="ignore"):
                scaled = [x * 1e6 for x in values]
                fast = (not any(np.signbit(x).any() for x in values)
                        and all((s < 2.0**50).all() for s in scaled))
            if not fast:
                fh.write(_slow_rows(start, z, q, ev, za, qa))
                continue
            tied = np.logical_or.reduce([s - np.floor(s) == 0.5 for s in scaled])
            zd, qd, zad, qad = (_digits(np.rint(s).astype(np.int64), 6) for s in scaled)
            fields = [_digits(np.arange(start, stop, dtype=np.int64)), zd, qd, _digits(ev),
                      zad, qad]
            comma = np.full((stop - start, 1), ord(","), np.uint8)
            block = np.hstack([part for f in fields for part in (f, comma)])
            block[:, -1] = ord("\n")
            # A tied row's digits may be a millionth off: the f-string
            # prints it, between the digit rows around it.
            done = 0
            for i in np.flatnonzero(tied).tolist():
                fh.write(block[done:i].tobytes().replace(b" ", b""))
                fh.write(_slow_rows(start + i, *(c[i:i + 1] for c in (z, q, ev, za, qa))))
                done = i + 1
            fh.write(block[done:].tobytes().replace(b" ", b""))
