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

where b_n = p_{n-1}(n dt). The collapsed part equals
1/2 + Re((b_n - 1/2) e^{2i omega (t - n dt)}), so every level has the
two-coefficient form

    p_n(t) = eta^n * born(t) + (1 - eta^n) / 2 + Re(c_n e^{2i omega t}),
    c_n = eta * c_{n-1} + (1 - eta) * (b_n - 1/2) * e^{-2i omega n dt},  c_0 = 0.

`build_predictor` runs this affine update once per epoch, in O(n_max), and
a query is O(1). The Born term keeps its own weight so that eta = 1 leaves
every c_n exactly 0 and reproduces the Born law bit for bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    ProbabilitySeries,
    RabiSystem,
    born_ground_prob,
    clamp_probability,
    clamp_probability_array,
)


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
    """Immutable coefficient table; safe to query from many threads at once.

    boundary_values[n] holds p_{n-1}(n dt) for n >= 1 (entry 0 is the
    freshly prepared value at time zero). born_weights[n] = eta^n and
    coeffs[n] = c_n are the level-n coefficients of the module's
    two-coefficient form, for n = 0..n_max.
    """

    system: RabiSystem
    env: DistinguishableEnv
    n_max: int
    boundary_values: np.ndarray
    born_weights: np.ndarray
    coeffs: np.ndarray


def _born_ground_array(system: RabiSystem, t: np.ndarray) -> np.ndarray:
    s2 = np.sin(system.omega * t) ** 2
    if system.initial_state.value == "excited":
        return s2
    return 1.0 - s2


_CHUNK = 4096  # epochs per pass of build_predictor's scalar loop


def build_predictor(
    system: RabiSystem, env: DistinguishableEnv, n_max: int
) -> PiecewisePredictor:
    """Run the epoch recursion for n = 1..n_max in one O(n_max) pass."""
    if n_max < 0:
        raise ValueError(f"n_max must be non-negative, got {n_max}")
    dt, eta, omega = env.dt, env.eta, system.omega
    weights = eta ** np.arange(n_max + 1, dtype=float)
    boundary = np.empty(n_max + 1)
    coeffs = np.empty(n_max + 1, dtype=complex)
    boundary[0], coeffs[0] = born_ground_prob(system, 0.0), 0j
    # c_n = cr + i ci in real floats. With e^{2i omega n dt} = x + i y,
    # Re(c_{n-1} e^{2i omega n dt}) = cr x - ci y, and c_n = eta c_{n-1} + k e^{-2i omega n dt}
    # has the parts eta cr + k x and eta ci - k y: the operations of Python's
    # complex arithmetic, except that before Python 3.14 a float times a complex
    # also adds a signed 0 to each part. That can only change the sign of a
    # zero, so a zero part is recomputed in complex numbers.
    cr = ci = 0.0
    collapsed = 1.0 - eta
    # epochs in chunks, so the Python lists the loop builds stay small
    for start in range(1, n_max + 1, _CHUNK):
        stop = min(start + _CHUNK, n_max + 1)
        epochs = np.arange(start, stop, dtype=float)
        w = weights[start - 1:stop - 1]  # level n-1's weight for epoch n
        base = w * _born_ground_array(system, dt * epochs) + 0.5 * (1.0 - w)
        turns = np.exp(2j * omega * dt * epochs)  # e^{2i omega n dt}
        chunk_b, chunk_r, chunk_i = [], [], []
        for a, x, y in zip(base.tolist(), turns.real.tolist(), turns.imag.tolist()):
            b = a + (cr * x - ci * y)
            k = collapsed * (b - 0.5)
            r, i = eta * cr + k * x, eta * ci - k * y
            if r and i:
                cr, ci = r, i
            else:
                c = eta * complex(cr, ci) + k * complex(x, -y)
                cr, ci = c.real, c.imag
            chunk_b.append(b)
            chunk_r.append(cr)
            chunk_i.append(ci)
        boundary[start:stop] = chunk_b
        coeffs.real[start:stop] = chunk_r
        coeffs.imag[start:stop] = chunk_i
    return PiecewisePredictor(
        system, env, n_max, clamp_probability_array(boundary), weights, coeffs,
    )


def _interval_index(pred: PiecewisePredictor, t_coord: float) -> int:
    if t_coord < 0.0:
        raise ValueError(f"coordinate time must be non-negative, got {t_coord}")
    n = int(math.floor(t_coord / pred.env.dt))
    if n > pred.n_max:
        raise ValueError(
            f"t={t_coord} lies beyond the built range "
            f"[0, {(pred.n_max + 1) * pred.env.dt}); rebuild with n_max >= {n}"
        )
    return n


def _level_value(pred: PiecewisePredictor, t, n, born):
    """p_n(t) from the level-n coefficients; scalars or aligned arrays."""
    w = pred.born_weights[n]
    rotated = pred.coeffs[n] * np.exp(2j * pred.system.omega * t)
    return w * born + 0.5 * (1.0 - w) + rotated.real


def predict_ground_prob(pred: PiecewisePredictor, t_coord: float) -> float:
    """Predicted probability to find a member in the ground state at t_coord."""
    n = _interval_index(pred, t_coord)
    born = born_ground_prob(pred.system, t_coord)
    return clamp_probability(float(_level_value(pred, t_coord, n, born)))


def predict_excited_prob(pred: PiecewisePredictor, t_coord: float) -> float:
    """Complement of `predict_ground_prob`."""
    return 1.0 - predict_ground_prob(pred, t_coord)


def sample_series(pred: PiecewisePredictor, grid) -> ProbabilitySeries:
    """Evaluate the ground-state predictor on a sorted, non-negative grid."""
    times = np.asarray(grid, dtype=float)
    meta = {
        "predictor": "distinguishable",
        "omega": pred.system.omega,
        "initial_state": pred.system.initial_state.value,
        "dt": pred.env.dt,
        "eta": pred.env.eta,
    }
    if times.size == 0:
        return ProbabilitySeries(times, np.empty(0), meta)
    if np.any(np.diff(times) < 0.0):
        raise ValueError("grid must be sorted ascending")
    _interval_index(pred, float(times[0]))
    _interval_index(pred, float(times[-1]))
    levels = np.floor(times / pred.env.dt).astype(int)
    probs = _level_value(pred, times, levels, _born_ground_array(pred.system, times))
    return ProbabilitySeries(times, clamp_probability_array(probs), meta)
