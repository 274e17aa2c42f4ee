"""Closed-form primitives for driven two-level systems, and binomial masses by Pascal's rule.

Angular frequencies are in radians per unit coordinate time. This module is
the one place that decides, for every predictor, the oracle and the fit, what
a valid time is (`time_grid`: finite, non-negative, ascending), what a valid
probability is (`clamp_probability_array` absorbs rounding of at most PROB_TOL
and raises on anything worse, NaN included) and how the system was prepared
(`InitialState`: its Born law and the amplitude a of P_g = 1/2 + a cos(2 omega t)).
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

# Rounding slack for values that are probabilities in exact arithmetic.
PROB_TOL = 1e-12

# Checked before anything is built: 8-byte words one stage holds (about 800 MB), and the run's
# work in member collapses of the Monte Carlo oracle (30-60 ns each, so about 6 s in all).
WORK_BUDGET = 1e8

# Lamb-Dicke parameter of the trapped-ion frequency ladder.
LAMB_DICKE = 0.202


class InitialState(enum.Enum):
    EXCITED = "excited"
    GROUND = "ground"

    @property
    def amplitude(self) -> float:
        """a in the Born law P_g(t) = 1/2 + a cos(2 omega t): -1/2 excited, +1/2 ground."""
        return -0.5 if self is InitialState.EXCITED else 0.5

    def born_ground(self, phase):
        """P_g at phase omega t, float or array: sin^2, or 1 - sin^2 for ground."""
        s2 = np.sin(phase) ** 2
        return s2 if self is InitialState.EXCITED else 1.0 - s2


@dataclass(frozen=True)
class RabiSystem:
    """A resonantly driven two-level system and how it was prepared."""

    omega: float
    initial_state: InitialState = InitialState.EXCITED

    def __post_init__(self) -> None:
        if not (math.isfinite(self.omega) and self.omega > 0.0):
            raise ValueError(f"omega must be positive and finite, got {self.omega}")


@dataclass(frozen=True, eq=False)
class ProbabilitySeries:
    """A sampled probability curve plus metadata naming its producer."""

    times: np.ndarray
    probs: np.ndarray
    meta: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.times)


def series_meta(predictor: str, system: RabiSystem, **params) -> dict:
    """A series' metadata: its predictor, the system's omega and preparation, `params`."""
    return {"predictor": predictor, "omega": system.omega,
            "initial_state": system.initial_state.value, **params}


class InvalidEntryError(ValueError):
    """`values[index]` is the first entry of an array that is not `rule`."""

    def __init__(self, name: str, rule: str, values: np.ndarray, index: int):
        super().__init__(f"{name} must be {rule}: {name}[{index}] = {values[index]}")
        self.index = index


def time_grid(grid) -> np.ndarray:
    """`grid` as a 1-D float array; raises at its first NaN, inf, negative or descending time."""
    times = np.asarray(grid, dtype=float)
    if times.ndim != 1:
        raise ValueError(f"times must be a 1-D sequence, got shape {times.shape}")
    bad = np.flatnonzero(~(np.isfinite(times) & (times >= np.append(0.0, times[:-1]))))
    if bad.size:
        raise InvalidEntryError("times", "finite, non-negative and sorted ascending", times,
                                int(bad[0]))
    return times


def clamp_probability_array(values: np.ndarray) -> np.ndarray:
    """Snap a float array to [0, 1] in place and return it; NaN or a PROB_TOL overshoot raises."""
    lo = float(values.min(initial=0.0))
    hi = float(values.max(initial=0.0))
    if not (lo >= -PROB_TOL and hi <= 1.0 + PROB_TOL):  # NaN fails both
        raise ValueError(f"not probabilities (beyond {PROB_TOL} slack): range [{lo}, {hi}]")
    return np.clip(values, 0.0, 1.0, out=values)


def binomial_weights_row(prev: np.ndarray, beta: float) -> np.ndarray:
    """Binomial masses C(n,k) beta^k (1-beta)^(n-k), k = 0..n, of row n = len(prev).

    Row n comes from row n - 1 = prev by Pascal's rule
    b(n, k) = (1-beta) b(n-1, k) + beta b(n-1, k-1), and row 0 (from the empty
    row) is [1]. Each mass is a convex combination of two, so rounding does not
    grow along the rows and nothing overflows; beta = 1 gives [0, ..., 0, 1]
    exactly. beta = 0 is rejected: the coordinate-time rescaling divides by beta.
    """
    if not (0.0 < beta <= 1.0):
        raise ValueError(f"beta must be in (0, 1], got {beta}")
    if not len(prev):
        return np.ones(1)
    row = np.zeros(len(prev) + 1)
    row[:-1] = prev
    row *= 1.0 - beta
    row[1:] += beta * prev
    return row


def _laguerre_l1_terms(x: float):
    """L^(1)_0(x), L^(1)_1(x), ... : L^(1)_0 = 1, L^(1)_{-1} = 0 and, for m >= 1,
    L^(1)_m = ((2m - x) L^(1)_{m-1} - m L^(1)_{m-2}) / m (so L^(1)_1 = 2 - x)."""
    prev, cur, m = 0.0, 1.0, 0
    while True:
        yield cur
        m += 1
        prev, cur = cur, ((2.0 * m - x) * cur - m * prev) / m


@dataclass(frozen=True)
class FrequencyLadder:
    """Rabi frequencies between successive internal/vibrational level pairs."""

    base_omega: float
    lamb_dicke: float
    entries: tuple[tuple[int, float], ...]

    def omega_n(self, n: int) -> float:
        return self.entries[n][1]


def rabi_frequency_ladder(
    base_omega: float, n_max: int, lamb_dicke: float = LAMB_DICKE
) -> FrequencyLadder:
    """Ladder omega_n = base * eta * exp(-eta^2/2) * L^(1)_n(eta^2) / sqrt(n+1).

    eta is the Lamb-Dicke parameter (0.202 for the trap this ladder models;
    configurable for sensitivity studies). L^(1)_n(eta^2) changes sign at
    large n (first at n = 89 for eta = 0.202), and a ladder holds only
    positive frequencies: the first omega_n <= 0 raises ValueError, before
    any level above it is computed.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be non-negative, got {n_max}")
    # eta^2 overflows beyond 1.3e154; exp(-eta^2/2) is 0 from eta = 39 on anyway
    x = lamb_dicke**2 if abs(lamb_dicke) < 1e150 else math.inf
    prefactor = lamb_dicke * math.exp(-x / 2.0)
    entries = []
    for n, l1 in zip(range(n_max + 1), _laguerre_l1_terms(x)):
        omega_n = base_omega * prefactor * l1 / math.sqrt(n + 1)
        if not omega_n > 0.0:
            raise ValueError(f"omega_{n} = {omega_n:.6g} is not > 0 at lamb_dicke "
                             f"{lamb_dicke}, so n_max must be below {n}")
        entries.append((n, omega_n))
    return FrequencyLadder(base_omega, lamb_dicke, tuple(entries))
