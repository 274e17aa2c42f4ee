"""Binomial-weighted nested predictor for indistinguishable interference events.

When neither the ensemble members nor the epochs at which the environment
collapses them can be told apart, the ground-state probability after n
epochs of length dt, allowing at most i collapses, obeys

    P_g^(j)(n dt) = sum_k b(n, k, beta) * ( cos^2(omega (n-k) dt) * P_g^(j-1)(k dt)
                                          + sin^2(omega (n-k) dt) * P_e^(j-1)(k dt) )

with the plain Born probabilities as level 0 and b the binomial mass with
interval probability beta. With P_e = 1 - P_g and h = P_g - 1/2 the shift
drops out: h_j[n] = sum_k b(n, k) cos(2 omega (n-k) dt) h_(j-1)[k].

Level 0 is 1/2 + Re(a u^n), a = `InitialState.amplitude` (-1/2 excited,
+1/2 ground), u = exp(2 i omega dt). The constant 1/2 passes through every
level unchanged, and the binomial generating function
sum_k b(n, k) x^k y^(n-k) = (beta x + (1-beta) y)^n sends each term a z^n
to the two terms (a/2) (beta z + (1-beta) u)^n and
(a/2) (beta z + (1-beta) conj(u))^n.
Level j is therefore an exact sum of 2^j exponentials, every node on the
chord between u and conj(u). The table holds level i alone, at O(2^i n) with
no binomial masses; deep truncations (2^(i+1) > n_max + 1) take the rows form
instead, at O(i n^2): column by column, each binomial row from the one before
by Pascal's rule, and every level of the column at once. The literal nested
sum would cost O(n^i).

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
# Work in member collapses: an exponential-sum term (12-44 ns); in the rows form, a column's
# fixed numpy calls (10-13 us), a term of its product (0.4-0.5 ns) and a level step (115-250 ns).
_TERM_COLLAPSES = 0.5
_COLUMN_COLLAPSES, _PRODUCT_COLLAPSES, _LEVEL_COLLAPSES = 250.0, 1.0 / 100.0, 2.0


def table_n_max(t_end: float, beta: float, dt: float):
    """ceil(t_end / (beta dt)) + 1: the last column a table read to clock time t_end needs."""
    index = t_end / (beta * dt) if beta * dt else math.inf
    return math.ceil(index) + 1 if index < math.inf else math.inf


def table_plan(levels, beta: float, n_max) -> tuple[str, float, float]:
    """How `build_nested_table` builds columns 0..n_max: (path, words held, work in member
    collapses). "born" (no collapse) holds a row of 3 words per column (tracemalloc peak)
    and prices a term per column; "sum", while 2^(levels + 1) <= n_max + 1, sums 2^levels
    terms per column and holds 4 words per column and per term, two block buffers and
    numpy's two iterator buffers for their outer products; "rows" holds levels + 6 words per
    column (every level, the binomial row and a Pascal step's temporaries) and 10 per level
    (a column's product and its level steps as Python floats), and prices a fixed cost and
    `levels` level steps per column, and levels (n_max + 1)^2 / 2 product terms in all."""
    n_cols = n_max + 1.0
    if beta == 1.0 or not levels:
        return "born", 3.0 * n_cols, _TERM_COLLAPSES * n_cols
    if levels < 1023 and 2.0 ** (levels + 1) <= n_cols:
        block = min(2.0 ** levels, max(1.0, _BLOCK // n_cols))
        return ("sum", (4.0 + 2.0 * block) * n_cols + 4.0 * 2.0 ** levels + 2.0 * np.getbufsize(),
                _TERM_COLLAPSES * 2.0 ** levels * n_cols)
    return ("rows", (levels + 6.0) * n_cols + 10.0 * levels,
            (_COLUMN_COLLAPSES + _LEVEL_COLLAPSES * levels
             + _PRODUCT_COLLAPSES * levels * n_cols / 2.0) * n_cols)


def build_nested_table(
    system: RabiSystem, env: IndistinguishableEnv, n_max: int
) -> NestedTable:
    """The truncation level max_events at the times k dt, k = 0..n_max.

    Takes whichever exact form does less work (`table_plan`): the exponential
    sum, 2^i nodes by n_max + 1 columns, or the rows form, i levels by
    (n_max + 1)^2 / 2 binomial masses. At beta = 1 no collapse ever happens:
    every level is Born.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be non-negative, got {n_max}")
    levels = env.max_events
    phase = system.omega * env.dt
    ns = np.arange(n_max + 1.0)  # floats: an outer product with them casts nothing
    path = table_plan(levels, env.beta, n_max)[0]
    if path == "born":
        ground = system.initial_state.born_ground(phase * ns)
    else:
        form = _exponential_sum if path == "sum" else _rows_form
        ground = form(ns, levels, phase, env.beta, system.initial_state.amplitude)
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
    blocks = np.empty((2, min(step, len(s)), len(ns)))  # a block's |z|^n and cos(n arg z)
    for lo in range(0, len(s), step):
        mag, osc = blocks[:, :min(step, len(s) - lo)]
        np.exp(np.multiply.outer(log_abs[lo:lo + step], ns, out=mag), out=mag)
        np.cos(np.multiply.outer(arg[lo:lo + step], ns, out=osc), out=osc)
        total += np.multiply(mag, osc, out=mag).sum(axis=0)
    return 0.5 + amplitude / 2**levels * total


def _rows_form(ns: np.ndarray, levels: int, phase: float, beta: float,
               amplitude: float) -> np.ndarray:
    """Level `levels` as 1/2 + h_levels, every level column by column.

    h_0[n] = amplitude cos(2 phase n) and h_j[n] = sum_k b(n, k) c(n - k) h_(j-1)[k],
    c(d) = cos(2 phase d). Column n takes binomial row n from row n - 1, every level's
    terms k < n in one product, then the diagonal b(n, n) = beta^n level by level.
    """
    # 2 phase reduced to (-pi, pi] first, as the exponential sum's nodes are: the
    # product with n then rounds at n pi, not at 2 n phase
    cos_lag = np.cos(math.atan2(math.sin(2.0 * phase), math.cos(2.0 * phase)) * ns)
    h = np.empty((len(ns), levels + 1))  # h[n, j]: level j at column n
    h[:, 0] = amplitude * cos_lag
    row = np.empty(0)
    for n in range(len(ns)):
        row = binomial_weights_row(row, beta)
        earlier = (row[:n] * cos_lag[n:0:-1]) @ h[:n, :levels]
        diag, level = float(row[n]), float(h[n, 0])
        column = [level]
        for part in earlier.tolist():
            level = part + diag * level
            column.append(level)
        h[n] = column
    return 0.5 + h[:, levels]


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
