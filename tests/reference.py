"""Reference forms that the tests compare the library against.

The library evaluates each quantity only as a series over a grid of times.
These evaluate one point, one binomial mass or one polynomial at a time, or
the fit's full five-column Jacobian, so that a test can check the library
point by point. Also here: the nested table's earlier deep form, and a
Monte Carlo estimate of the nested predictor.
"""
import itertools
import math

import numpy as np

from rabideco.core import RabiSystem, _laguerre_l1_terms, time_grid
from rabideco.fitting import _jacobian_into, _terms

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
