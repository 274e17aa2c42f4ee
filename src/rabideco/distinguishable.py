"""Piecewise predictive probability for distinguishable interference events.

At every multiple of the interference time scale dt a fraction (1 - eta)
of the ensemble is passively measured: collapsed to ground or excited with
the Born weights of its current state, and its evolution clock reset to
zero. Between those epochs everything evolves unitarily, so the predicted
ground-state probability is piecewise: on [n dt, (n+1) dt) it is p_n, with

    p_0(t) = Born ground probability,
    p_n(t) = eta * p_{n-1}(t)
             + (1 - eta) * (cos^2(omega (t - n dt)) * b_n
                            + sin^2(omega (t - n dt)) * (1 - b_n)),

where b_n = p_{n-1}(n dt). Every level oscillates about 1/2 at 2 omega,

    p_n(t) = 1/2 + Re(E_n e^{2i omega (t - n dt)}),   E_0 = `InitialState.amplitude`.

Let F = E_{n-1} e^{2i omega dt}, so that b_n = 1/2 + Re F. The survivors go on
as 1/2 + Re(F e^{2i omega (t - n dt)}), and the collapsed part's cos^2/sin^2
mix is 1/2 + Re((b_n - 1/2) e^{2i omega (t - n dt)}), hence

    E_n = eta F + (1 - eta) Re F = Re F + i eta Im F.

As a real 2-vector that is one fixed map per epoch, E_n = A E_{n-1}, with

    A = diag(1, eta) R(2 omega dt),   tr A = (1 + eta) cos(2 omega dt),   det A = eta,

so E_n = A^n E_0, and by Cayley-Hamilton the boundary values obey
b_{n+1} - 1/2 = tr A (b_n - 1/2) - det A (b_{n-1} - 1/2). While
(tr A)^2 < 4 det A both eigenvalues have modulus sqrt(eta), and the envelope
contracts by sqrt(eta) per epoch; otherwise both are real, nothing oscillates
about 1/2 at long times, and the larger one sets the decay
(`epoch_map_spectrum`).

`build_predictor` forms the squarings A^(2^k), one per bit of n_max, and a
query multiplies those that the bits of its n select: O(log n_max) per point,
with no loop over epochs and nothing stored per epoch. The squarings are
formed in numpy.longdouble and rounded once, so their rounding does not double
at every squaring (where long double is plain double, as on Windows or Apple
silicon, the error grows like n eps, to 3e-12 at 1e5 epochs). The Born part of E_n,
B_n = Q^n E_0 with Q = eta R(2 omega dt), is powered alongside, and a level is
evaluated as

    p_n(t) = eta^n born(t) + (1 - eta^n) / 2 + Re((E_n - B_n) e^{2i omega (t - n dt)}),

so the Born law keeps the phase omega t of the query itself. On the first
interval, and everywhere at eta = 1 (where A = Q), E_n - B_n is exactly 0 and
the Born law comes out bit for bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import (
    ProbabilitySeries,
    RabiSystem,
    clamp_probability_array,
    series_meta,
    time_grid,
)

MAX_EPOCHS = 1e7  # the most a config may ask for: the error above grows like n eps


@dataclass(frozen=True)
class DistinguishableEnv:
    """Interference time scale dt and per-epoch survival probability eta.

    eta = 1 is a perfectly isolated ensemble; eta = 0 collapses everything
    at every epoch.
    """

    dt: float
    eta: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if not (0.0 <= self.eta <= 1.0):
            raise ValueError(f"eta must be in [0, 1], got {self.eta}")


@dataclass(frozen=True, eq=False)
class PiecewisePredictor:
    """Immutable; safe to query from many threads at once.

    squarings[k] holds the pair (A^(2^k), Q^(2^k)) of the module's epoch maps,
    for every bit k of n_max.
    """

    system: RabiSystem
    env: DistinguishableEnv
    n_max: int
    squarings: np.ndarray  # shape (n_max.bit_length(), 2, 2, 2)


class EpochMapSpectrum(NamedTuple):
    """Eigenvalues of the epoch map A and the asymptotic decay rate they fix."""

    regime: str  # "complex": an envelope decaying at gamma; "real": no oscillation left
    roots: tuple  # the larger modulus first
    gamma: float


def epoch_map_spectrum(system: RabiSystem, env: DistinguishableEnv) -> EpochMapSpectrum:
    """Roots of lambda^2 - (1 + eta) cos(2 omega dt) lambda + eta, A's characteristic
    polynomial. Complex roots have modulus sqrt(eta), so gamma = -ln(eta) / (2 dt);
    real roots give gamma = -ln|lambda_max| / dt."""
    trace = (1.0 + env.eta) * math.cos(2.0 * system.omega * env.dt)
    disc = trace * trace - 4.0 * env.eta
    if disc < 0.0:
        root = complex(trace, math.sqrt(-disc)) / 2.0
        return EpochMapSpectrum("complex", (root, root.conjugate()),
                                -math.log(env.eta) / (2.0 * env.dt))
    # the trace is never 0, as no double's cosine is; like signs do not cancel
    big = (trace + math.copysign(math.sqrt(disc), trace)) / 2.0
    return EpochMapSpectrum("real", (big, env.eta / big), -math.log(abs(big)) / env.dt)


def build_predictor(
    system: RabiSystem, env: DistinguishableEnv, n_max: int
) -> PiecewisePredictor:
    """Square the epoch maps once per bit of n_max, for queries up to (n_max + 1) dt."""
    if n_max < 0:
        raise ValueError(f"n_max must be non-negative, got {n_max}")
    theta = 2 * np.longdouble(system.omega) * np.longdouble(env.dt)
    c, s, eta = np.cos(theta), np.sin(theta), np.longdouble(env.eta)
    power = np.array([[[c, -s], [eta * s, eta * c]],
                      [[eta * c, -eta * s], [eta * s, eta * c]]])
    squarings = np.empty((int(n_max).bit_length(), 2, 2, 2))
    for k in range(len(squarings)):
        squarings[k] = power  # rounded to double once
        power = power @ power
    return PiecewisePredictor(system, env, n_max, squarings)


def _ground(pred: PiecewisePredictor, times: np.ndarray) -> np.ndarray:
    """p_n(t) for times inside the built range, unclamped."""
    dt, omega, prepared = pred.env.dt, pred.system.omega, pred.system.initial_state
    n = np.floor(times / dt)
    # rows E_n, B_n; both start at E_0
    state = np.zeros((2, 2, times.size))
    state[:, 0] = prepared.amplitude
    bits = (n.astype(np.int64) >> np.arange(len(pred.squarings))[:, None] & 1).astype(bool)
    for power, selected in zip(pred.squarings, bits):
        state = np.where(selected, power @ state, state)
    # t - n dt in long double: rounding n dt to double would shift the phase by eps t
    phase = 2.0 * omega * (times - n * np.longdouble(dt)).astype(float)
    (ex, ey), (bx, by) = state
    w = pred.env.eta ** n
    return (w * prepared.born_ground(omega * times) + 0.5 * (1.0 - w)
            + ((ex - bx) * np.cos(phase) - (ey - by) * np.sin(phase)))


def sample_series(pred: PiecewisePredictor, grid) -> ProbabilitySeries:
    """Evaluate the ground-state predictor on a `time_grid` inside the built range."""
    times = time_grid(grid)
    meta = series_meta("distinguishable", pred.system, dt=pred.env.dt, eta=pred.env.eta)
    n = int(math.floor(times[-1] / pred.env.dt)) if times.size else 0
    if n > pred.n_max:
        raise ValueError(
            f"t={times[-1]} lies beyond the built range "
            f"[0, {(pred.n_max + 1) * pred.env.dt}); rebuild with n_max >= {n}"
        )
    return ProbabilitySeries(times, clamp_probability_array(_ground(pred, times)), meta)
