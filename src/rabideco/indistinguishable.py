"""Binomial-weighted nested predictor for indistinguishable interference events.

When neither the ensemble members nor the epochs at which the environment
collapses them can be told apart, the ground-state probability after n
epochs of length dt, allowing at most i collapses, obeys

    P_g^(j)(n dt) = sum_k b(n, k, beta) * ( cos^2(omega (n-k) dt) * P_g^(j-1)(k dt)
                                          + sin^2(omega (n-k) dt) * P_e^(j-1)(k dt) )

with the plain Born probabilities as level 0 and b the binomial mass with
interval probability beta. With P_e = 1 - P_g this is the affine map
g_j = S + M g_{j-1}, M[n, k] = b(n, k) cos(2 omega (n-k) dt) and
S[n] = sum_k b(n, k) sin^2(omega (n-k) dt).

Level 0 is 1/2 + Re(a u^n), a = `InitialState.amplitude` (-1/2 excited,
+1/2 ground), u = exp(2 i omega dt). The constant 1/2 passes through every
level unchanged, and the binomial generating function
sum_k b(n, k) x^k y^(n-k) = (beta x + (1-beta) y)^n sends each term a z^n
to the two terms (a/2) (beta z + (1-beta) u)^n and
(a/2) (beta z + (1-beta) conj(u))^n.
Level j is therefore an exact sum of 2^j exponentials, every node on the
chord between u and conj(u). The table holds level i alone, at O(2^i n) with
no binomial masses; deep truncations (2^(i+1) > n_max + 1) apply g <- S + M g
i times instead, at O(i n^2). The literal nested sum would cost O(n^i).

Coordinate time enters through the mean of the binomial distribution:
after stepping to n dt, on average beta*n intervals precede the last
collapse, so a clock reading t maps to the continuous index
n* = t / (beta dt), linearly interpolated between table columns.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    ProbabilitySeries,
    RabiSystem,
    binomial_weights_row,
    clamp_probability_array,
    series_meta,
    time_grid,
)


@dataclass(frozen=True)
class IndistinguishableEnv:
    """Interference scale dt, interval probability beta, truncation order.

    beta is the probability that a randomly chosen interval of length dt
    precedes an interference event; beta = 1 is perfect isolation. beta = 0
    and dt = 0 are rejected because the time rescaling divides by beta*dt.
    max_events is the largest number of collapses a member may suffer.
    """

    dt: float
    beta: float
    max_events: int = 5

    def __post_init__(self) -> None:
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if not (0.0 < self.beta <= 1.0):
            raise ValueError(f"beta must be in (0, 1], got {self.beta}")
        if self.max_events < 0:
            raise ValueError(f"max_events must be >= 0, got {self.max_events}")


@dataclass(frozen=True, eq=False)
class NestedTable:
    """The top truncation level at the discrete times k dt.

    ground[k] is the ground probability at k dt allowing at most
    env.max_events collapses, k = 0..n_max; the excited probability is
    1 - ground. A lower level is its own table. Immutable; concurrent
    queries are safe.
    """

    system: RabiSystem
    env: IndistinguishableEnv
    n_max: int
    ground: np.ndarray


# Terms x columns evaluated at once by the exponential sum.
_BLOCK = 1 << 16
# Work in member collapses: an exponential-sum term (12-44 ns); a matrix form entry, filled
# once (15-54 ns), then in each product `shift + mat @ g` (0.2-0.8 ns, 1-2 BLAS threads).
_TERM_COLLAPSES, _FILL_COLLAPSES, _PRODUCT_COLLAPSES = 0.5, 0.5, 1.0 / 60.0


def table_n_max(t_end: float, beta: float, dt: float):
    """ceil(t_end / (beta dt)) + 1: the last column a table read to clock time t_end needs."""
    index = t_end / (beta * dt) if beta * dt else math.inf
    return math.ceil(index) + 1 if index < math.inf else math.inf


def table_plan(levels, beta: float, n_max) -> tuple[str, float, float]:
    """How `build_nested_table` builds columns 0..n_max: (path, words held, work in member
    collapses). "born" (no collapse) holds a row of 3 words per column (tracemalloc peak)
    and prices a term per column; "sum", while 2^(levels + 1) <= n_max + 1, holds a 6-word
    row and sums 2^levels terms per column; "matrix" holds 2 words per entry of its
    (n_max + 1)^2 matrix M, plus 3 per column for each of its levels + 1 rows (the Born
    row, then one product with M each), and fills M once and takes levels products."""
    n_cols = n_max + 1.0
    if beta == 1.0 or not levels:
        return "born", 3.0 * n_cols, _TERM_COLLAPSES * n_cols
    if levels < 1023 and 2.0 ** (levels + 1) <= n_cols:
        return "sum", 6.0 * n_cols, _TERM_COLLAPSES * 2.0 ** levels * n_cols
    return ("matrix", (2.0 * n_cols + 3.0 * (levels + 1.0)) * n_cols,
            (_FILL_COLLAPSES + _PRODUCT_COLLAPSES * levels) * n_cols * n_cols)


def build_nested_table(
    system: RabiSystem, env: IndistinguishableEnv, n_max: int
) -> NestedTable:
    """The truncation level max_events at the times k dt, k = 0..n_max.

    Takes whichever exact form does less work (`table_plan`): the exponential
    sum, 2^i nodes by n_max + 1 columns, or the matrix form, whose M has
    (n_max + 1)^2 entries. At beta = 1 no collapse ever happens: every level is Born.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be non-negative, got {n_max}")
    levels = env.max_events
    phase = system.omega * env.dt
    ks = np.arange(n_max + 1)
    ground = system.initial_state.born_ground(phase * ks)
    path = table_plan(levels, env.beta, n_max)[0]
    if path == "sum":
        ground = _exponential_sum(ks, levels, phase, env.beta, system.initial_state.amplitude)
    elif path == "matrix":
        ground = _matrix_form(ground, levels, phase, env.beta)
    return NestedTable(system, env, n_max, clamp_probability_array(ground))


def _exponential_sum(ns: np.ndarray, levels: int, phase: float, beta: float,
                     amplitude: float) -> np.ndarray:
    """Level `levels` as 1/2 + (amplitude / 2^levels) Re sum_m z_m^n.

    Every node is z = cos(2 phase) + i s sin(2 phase) with s in [-1, 1]:
    level 0 has s = 1, and the two images of a node have
    s -> 1 - beta (1 - s) and s -> beta (1 + s) - 1.
    """
    cos_2p, sin_2p = math.cos(2.0 * phase), math.sin(2.0 * phase)
    s = np.ones(1)
    for _ in range(levels):
        s = np.concatenate((1.0 - beta * (1.0 - s), beta * (1.0 + s) - 1.0))
    # log|z| from 1 - |z|^2 while that is small (exact 0 at s = 1), else
    # from |z|^2 itself, which stays positive: cos(2 phase) is never 0
    q = (1.0 - s) * (1.0 + s) * sin_2p**2
    log_abs = 0.5 * np.where(q < 0.5, np.log1p(-np.minimum(q, 0.5)),
                             np.log(cos_2p**2 + (s * sin_2p) ** 2))
    arg = np.arctan2(s * sin_2p, cos_2p)
    total = np.zeros(len(ns))
    step = max(1, _BLOCK // len(ns))
    for lo in range(0, len(s), step):
        blk = slice(lo, lo + step)
        total += (np.exp(np.outer(log_abs[blk], ns))
                  * np.cos(np.outer(arg[blk], ns))).sum(axis=0)
    return 0.5 + amplitude / 2**levels * total


def _matrix_form(g: np.ndarray, levels: int, phase: float, beta: float) -> np.ndarray:
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
        w = binomial_weights_row(n, beta)
        mat[n, : n + 1] = w * cos_lag[n::-1]
        shift[n] = w @ sin2_lag[n::-1]
    for _ in range(levels):
        g = shift + mat @ g
    return g


def sample_rescaled_series(
    table: NestedTable, env: IndistinguishableEnv, grid
) -> ProbabilitySeries:
    """Top-level ground probability at the clock times of a `time_grid`.

    Linear interpolation between the columns floor(n*) and ceil(n*) of the
    continuous index n* = t / (beta dt); exact table value when n* is
    integral. Nothing smoother is justified: the index is an ensemble mean.
    `env` must be the table's own.
    """
    if env != table.env:
        raise ValueError(f"env {env} differs from the table's {table.env}")
    times = time_grid(grid)
    meta = series_meta("indistinguishable", table.system, dt=env.dt, beta=env.beta,
                       max_events=env.max_events)
    n_star = times / (env.beta * env.dt)
    # tolerate the last point landing epsilon past the edge: np.interp holds ground[-1]
    if times.size and n_star[-1] > table.n_max * (1.0 + 1e-12) + 1e-12:
        raise ValueError(
            f"t={times[-1]} maps to index {n_star[-1]:.3f} beyond the table "
            f"(n_max={table.n_max}); rebuild with a larger n_max"
        )
    probs = np.interp(n_star, np.arange(table.n_max + 1), table.ground)
    return ProbabilitySeries(times, clamp_probability_array(probs), meta)


def approx_closed_form(
    system: RabiSystem, env: IndistinguishableEnv, grid
) -> ProbabilitySeries:
    """Dominant-term closed form of the nested predictor on a `time_grid`.

    Keeping only the k = n binomial weight and summing the remaining
    geometric series gives

        P_g(t) ~ 1/2 + a Re z^(t/(beta dt)),
        z = 1 - beta * (1 - exp(-2 i dt omega)),

    with a = `InitialState.amplitude`. Good for beta near 1 and 2 omega dt < pi
    (the principal branch of the complex power); elsewhere it is only indicative.
    """
    times = time_grid(grid)
    meta = series_meta("approx-closed-form", system, dt=env.dt, beta=env.beta)
    z = 1.0 - env.beta * (1.0 - np.exp(-2.0j * env.dt * system.omega))
    probs = 0.5 + system.initial_state.amplitude * (z ** (times / (env.beta * env.dt))).real
    return ProbabilitySeries(times, clamp_probability_array(probs), meta)


def approx_gamma(system: RabiSystem, env: IndistinguishableEnv) -> float:
    """Leading-order decay rate of the closed form: 2 (1-beta) omega^2 dt."""
    return 2.0 * (1.0 - env.beta) * system.omega**2 * env.dt
