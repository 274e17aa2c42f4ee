"""Reference forms that the tests compare the library against.

The library evaluates each quantity only as a series over a grid of times.
These evaluate one point, one binomial mass or one polynomial at a time, or
the fit's full five-column Jacobian, so that a test can check the library
point by point.
"""
import itertools
import math

import numpy as np

from rabideco.core import BINOM_DIRECT_MAX_N, RabiSystem, _laguerre_l1_terms, time_grid
from rabideco.fitting import _jacobian_into, _terms


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
