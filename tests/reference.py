"""Reference forms that the tests compare the library against.

The library evaluates each quantity only as a series over a grid of times.
These evaluate one point, one binomial mass or one polynomial at a time, or
the fit's full five-column Jacobian, so that a test can check the library
point by point. Also here: the damped-sinusoid fit and the nested table's
earlier forms, a Monte Carlo estimate of the nested predictor, and the SVG
frame's earlier ranges and ticks.
"""
import itertools
import math

import numpy as np

from rabideco.core import (InvalidEntryError, ProbabilitySeries, RabiSystem, _laguerre_l1_terms,
                           time_grid)
from rabideco.fitting import (_EXTREME_TOL, _LAMBDA_MAX, _MAX_ITER, _NON_PHYSICAL, _ON_EXTREMES,
                              PARAM_ORDER, DampedSinusoidFit, FitConvergenceError, _solve,
                              check_fit_window)
from rabideco.svgfig import _widened

# Above this n the direct comb/power product risks overflow; switch to logs.
BINOM_DIRECT_MAX_N = 60


def born_ground_prob(system: RabiSystem, t: float) -> float:
    """Probability to find the system in the ground state after evolving for t:
    `InitialState.born_ground` at omega t. t is a duration since the (active or
    passive) preparation, valid for `time_grid`.
    """
    (t,) = time_grid([t])
    return float(system.initial_state.born_ground(system.omega * t))


def binomial_weight(n: int, k: int, beta: float) -> float:
    """Probability mass C(n,k) beta^k (1-beta)^(n-k).

    Exact comb/power product for n <= 60, log-gamma form above so that
    n ~ 10^4 neither overflows nor underflows. beta = 0 is rejected: the
    coordinate-time rescaling divides by beta.
    """
    if not (isinstance(n, (int, np.integer)) and isinstance(k, (int, np.integer))):
        raise ValueError("n and k must be integers")
    if n < 0 or k < 0 or k > n:
        raise ValueError(f"need 0 <= k <= n, got n={n}, k={k}")
    if not (0.0 < beta <= 1.0):
        raise ValueError(f"beta must be in (0, 1], got {beta}")
    if beta == 1.0:
        return 1.0 if k == n else 0.0
    if n <= BINOM_DIRECT_MAX_N:
        return math.comb(n, k) * beta**k * (1.0 - beta) ** (n - k)
    log_mass = (
        math.lgamma(n + 1)
        - math.lgamma(k + 1)
        - math.lgamma(n - k + 1)
        + k * math.log(beta)
        + (n - k) * math.log1p(-beta)
    )
    return math.exp(log_mass)


def laguerre_l1(n: int, x: float) -> float:
    """Generalized Laguerre polynomial L^(1)_n(x) by three-term recurrence."""
    if n < 0:
        raise ValueError(f"polynomial order must be non-negative, got {n}")
    if not math.isfinite(x):
        raise ValueError(f"x must be finite, got {x}")
    return next(itertools.islice(_laguerre_l1_terms(x), n, None))


def damped_sinusoid_jacobian(t: np.ndarray, params: np.ndarray) -> np.ndarray:
    """Analytic Jacobian, columns in PARAM_ORDER."""
    neg_t, two_t = -t, 2.0 * t
    _, decay, arg, cos_a = _terms(params, neg_t, two_t)
    rows = np.empty((5, t.size))
    _jacobian_into(rows, range(5), neg_t, two_t, params[2], decay, cos_a, np.sin(arg))
    return rows.T


# The damped-sinusoid fit before it evaluated its trials into preallocated buffers,
# verbatim but for the name and the later start check (every sample on an extreme of
# the hinted oscillation): each trial allocates its own arrays.
def _terms(params, neg_t, two_t) -> tuple:
    """Model values, exp(-gamma t), the phase 2 omega t + phase, and its cosine."""
    gamma, omega, amp, off, phase = params
    arg = omega * two_t + phase
    decay, cos_a = np.exp(gamma * neg_t), np.cos(arg)
    return off + amp * decay * cos_a, decay, arg, cos_a


def _jacobian_into(rows, columns, neg_t, two_t, amp, decay, cos_a, sin_a) -> None:
    """Overwrite row j of `rows` with the derivative by parameter `columns[j]`,
    its factors multiplied left to right."""
    factors = ((neg_t, amp, decay, cos_a), (two_t, -amp, decay, sin_a), (decay, cos_a),
               (1.0, 1.0), (decay, -amp, sin_a))
    for row, i in zip(rows, columns):
        first, second, *rest = factors[i]
        np.multiply(first, second, out=row)
        for factor in rest:
            row *= factor


def previous_solve(a: list, b: list) -> list | None:
    """x with a x = b by Gaussian elimination with partial pivoting on Python
    floats, `fitting._solve` before it stopped pivoting; a and b are overwritten.
    None on a zero pivot."""
    k = len(b)
    for c in range(k):
        p = max(range(c, k), key=lambda r: abs(a[r][c]))
        if a[p][c] == 0.0:
            return None
        a[c], a[p], b[c], b[p] = a[p], a[c], b[p], b[c]
        for r in range(c + 1, k):
            f = a[r][c] / a[c][c]
            for j in range(c + 1, k):
                a[r][j] -= f * a[c][j]
            b[r] -= f * b[c]
    for r in reversed(range(k)):
        b[r] = (b[r] - sum(a[r][j] * b[j] for j in range(r + 1, k))) / a[r][r]
    return b



@np.errstate(over="ignore")  # overflow makes a step or its SSE non-finite: rejected
def previous_fit(
    series: ProbabilitySeries,
    omega_hint: float,
    free_params: frozenset | set | None = None,
) -> DampedSinusoidFit:
    """Least-squares fit of the damped sinusoid to a probability series.

    By default gamma and omega are free (gamma starts at 0, omega at
    omega_hint) while offset = 1/2, phase = 0 and the amplitude stay fixed:
    +1/2 when the first sample is above 1/2 (ground preparation), else -1/2.
    The series must pass `check_fit_window`: at least MIN_FIT_POINTS points
    spanning two oscillation periods of the hinted frequency. A constant
    series yields a flat fit flagged degenerate with gamma = nan.
    """
    if omega_hint <= 0.0 or not math.isfinite(omega_hint):
        raise ValueError(f"omega_hint must be positive and finite, got {omega_hint}")
    free = frozenset(free_params) if free_params is not None else frozenset({"gamma", "omega"})
    unknown = free - set(PARAM_ORDER)
    if unknown:
        raise ValueError(f"unknown fit parameters: {sorted(unknown)}")
    if not free:
        raise ValueError("at least one parameter must be free")

    t = time_grid(series.times)
    y = np.asarray(series.probs, dtype=float)
    bad = np.flatnonzero(~np.isfinite(y))
    if bad.size:
        raise InvalidEntryError("probs", "finite", y, int(bad[0]))
    check_fit_window(t.size, float(t[-1] - t[0]) if t.size else 0.0, omega_hint)

    if float(np.ptp(y)) < 1e-12:
        return DampedSinusoidFit(
            gamma=math.nan,
            omega_fit=math.nan,
            amplitude=0.0,
            offset=float(np.mean(y)),
            phase=0.0,
            residual_rms=float(np.std(y)),
            free_params=free,
            degenerate=True,
        )

    params = [0.0, float(omega_hint), 0.5 if y[0] > 0.5 else -0.5, 0.5, 0.0]
    free_idx = [i for i, name in enumerate(PARAM_ORDER) if name in free]
    neg_t, two_t = -t, 2.0 * t
    rows = np.empty((len(free_idx), t.size))  # J^T, one row per free parameter

    model, *terms = _terms(params, neg_t, two_t)
    resid = model - y
    sse = float(resid @ resid)
    if free & {"omega", "phase"} and np.abs(np.sin(terms[1])).max() <= _EXTREME_TOL:
        raise FitConvergenceError(_ON_EXTREMES, dict(zip(PARAM_ORDER, params)),
                                  math.sqrt(sse / t.size))
    lam = 1e-3
    iterations = 0
    normal = None  # J^T J, -J^T r and the clipped diagonal at `params`, as lists
    while iterations < _MAX_ITER:
        iterations += 1
        if normal is None:
            decay, arg, cos_a = terms
            _jacobian_into(rows, free_idx, neg_t, two_t, params[2], decay, cos_a, np.sin(arg))
            jtj = (rows @ rows.T).tolist()
            normal = (jtj, [-v for v in (rows @ resid).tolist()],
                      [1e-30 if row[j] <= 0.0 else row[j] for j, row in enumerate(jtj)])
        jtj, rhs, diag = normal
        damped = [row[:] for row in jtj]
        for j, d in enumerate(diag):
            damped[j][j] += lam * d
        step = _solve(damped, rhs[:])  # the library's: this holds the loop, not the solve
        trial_sse, last = math.inf, False
        if step is not None and all(map(math.isfinite, step)):
            trial = params[:]
            for i, s in zip(free_idx, step):
                trial[i] += s
            trial_model, *trial_terms = _terms(trial, neg_t, two_t)
            trial_resid = trial_model - y
            trial_sse = float(trial_resid @ trial_resid)
            # a step below tolerance is the last: more damping only shrinks it. The
            # tolerance 1e-9 and floor 1e-6 are literals, not the library's `_STEP_TOL`
            # and `_STEP_FLOOR`, so that a change to those shows as a difference
            last = math.isfinite(trial_sse) and max(
                abs(s) / (abs(params[i]) + 1e-6) for i, s in zip(free_idx, step)) < 1e-9
        if math.isfinite(trial_sse) and trial_sse <= sse:
            if trial[1] <= 0.0:  # only a free omega moves
                raise FitConvergenceError(_NON_PHYSICAL, dict(zip(PARAM_ORDER, params)),
                                          math.sqrt(sse / t.size))
            params, resid, sse, terms = trial, trial_resid, trial_sse, trial_terms
            normal = None
            lam = max(lam / 10.0, 1e-12)
        elif not last:
            lam *= 10.0
            if lam > _LAMBDA_MAX:
                raise FitConvergenceError(
                    "damping exhausted without residual decrease",
                    dict(zip(PARAM_ORDER, params)),
                    math.sqrt(sse / t.size),
                )
        if last:
            break

    gamma = float(params[0])
    if -1e-9 < gamma < 0.0:
        gamma = 0.0  # exactly undamped inputs may round a hair negative
    return DampedSinusoidFit(
        gamma=gamma,
        omega_fit=float(params[1]),
        amplitude=float(params[2]),
        offset=float(params[3]),
        phase=float(params[4]),
        residual_rms=math.sqrt(sse / t.size),
        free_params=free,
        iterations=iterations,
    )


# The deep nested table and its binomial rows before they were taken by Pascal's
# rule, verbatim but for the names.
def previous_binomial_weights_row(n: int, beta: float) -> np.ndarray:
    """All masses C(n,k) beta^k (1-beta)^(n-k) for k = 0..n as one array.

    Exact comb/power product for n <= 60, log-gamma form above so that
    n ~ 10^4 neither overflows nor underflows. beta = 0 is rejected: the
    coordinate-time rescaling divides by beta.
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    if not (0.0 < beta <= 1.0):
        raise ValueError(f"beta must be in (0, 1], got {beta}")
    k = np.arange(n + 1)
    if beta == 1.0:
        return (k == n).astype(float)
    if n <= BINOM_DIRECT_MAX_N:
        return _COMBS[n, : n + 1] * beta**k * (1.0 - beta) ** (n - k)
    log_fact = _log_factorials(n)
    log_mass = (
        log_fact[n] - log_fact[k] - log_fact[n - k]
        + k * math.log(beta) + (n - k) * math.log1p(-beta)
    )
    return np.exp(log_mass)


# C(n, k) as floats for the direct form, n, k <= BINOM_DIRECT_MAX_N.
_COMBS = np.array([[math.comb(n, k) for k in range(BINOM_DIRECT_MAX_N + 1)]
                   for n in range(BINOM_DIRECT_MAX_N + 1)], dtype=float)

# log(m!) = lgamma(m + 1) for m = 0..len - 1, grown on demand.
_LOG_FACTORIALS = np.zeros(1)


def _log_factorials(n: int) -> np.ndarray:
    global _LOG_FACTORIALS
    table = _LOG_FACTORIALS
    if len(table) <= n:
        table = np.array([math.lgamma(m + 1) for m in range(2 * n + 1)])
        _LOG_FACTORIALS = table  # one rebinding: readers see an old or a full table
    return table


def previous_matrix_form(g: np.ndarray, levels: int, phase: float, beta: float) -> np.ndarray:
    """Level `levels` from the Born row g by g <- S + M g, one binomial row per n.

    M is lower triangular with (n_max + 1)^2 entries; this path is taken
    only when the table is narrower than the exponential sum is long.
    """
    n_cols = len(g)
    lags = np.arange(n_cols)
    cos_lag = np.cos(2.0 * phase * lags)
    sin2_lag = np.sin(phase * lags) ** 2
    mat = np.zeros((n_cols, n_cols))
    shift = np.empty(n_cols)
    for n in range(n_cols):
        w = previous_binomial_weights_row(n, beta)
        mat[n, : n + 1] = w * cos_lag[n::-1]
        shift[n] = w @ sin2_lag[n::-1]
    for _ in range(levels):
        g = shift + mat @ g
    return g


def nested_chain_estimate(system: RabiSystem, beta: float, dt: float, levels: int,
                          ns: np.ndarray, chains: int, seed: int) -> tuple:
    """Monte Carlo estimate of the nested table's top level at the columns `ns`, and the
    standard error of each estimate.

    A chain starts at column n and draws k_1 ~ Bin(n, beta), then k_2 ~ Bin(k_1, beta),
    and so on, `levels` times. With each step's lag d = k_(m-1) - k_m, s = sin^2(phase d)
    and c = cos(2 phase d), phase = omega dt, level `levels` at n is the mean of
    s_1 + c_1 (s_2 + c_2 (... (s_i + c_i P_g(k_i)))), P_g the Born law: the nested sum's
    recursion, sampled one collapse count at a time. It shares no algebra with the
    exponential sum or the rows form, so it tests that algebra and its code, not the
    physics of the recursion.
    """
    phase = system.omega * dt
    rng = np.random.default_rng(seed)
    k = np.repeat(np.asarray(ns, dtype=np.int64)[:, None], chains, axis=1)
    total, weight = np.zeros(k.shape), np.ones(k.shape)
    for _ in range(levels):
        drawn = rng.binomial(k, beta)
        lag = k - drawn
        total += weight * np.sin(phase * lag) ** 2
        weight *= np.cos(2.0 * phase * lag)
        k = drawn
    total += weight * system.initial_state.born_ground(phase * k)
    return total.mean(axis=1), total.std(axis=1, ddof=1) / math.sqrt(chains)


# The SVG frame's ranges and ticks before they were worked out on Python floats.
def previous_ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    raw = np.linspace(lo, hi, n)
    return [float(v) for v in raw]


def previous_range(*arrays: np.ndarray) -> tuple[float, float]:
    """`_widened` min and max of the arrays as if concatenated (NaN wins), without
    the copy; [0, 1] when all are empty."""
    arrays = [a for a in arrays if a.size] or [np.array([0.0, 1.0])]
    return _widened(float(np.min([a.min() for a in arrays])),
                    float(np.max([a.max() for a in arrays])))
