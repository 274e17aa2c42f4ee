"""Master-equation baseline and all parameter estimation.

The damped-sinusoid fitter is a small Levenberg-Marquardt loop with an
analytic Jacobian: the model is offset + amplitude * exp(-gamma t) *
cos(2 omega t + phase), any subset of the five parameters free. Damping is
multiplied by 10 on a rejected step and divided by 10 on an accepted one, so
the residual decreases monotonically. The fit ends after 200 iterations or
at its first proposed step below 1e-9 relative to the parameters, each
floored at 1e-6 so that one tending to 0 stops it too (MINPACK's step-size
test, More 1978), kept unless it raises the residual: more damping would
only shrink it. A step with a non-finite residual is a plain rejection. A
step it would accept that takes a free omega to <= 0 ends the fit with
FitConvergenceError at the last iterate. So does a start that puts every sample
on an extreme of the hinted cos(2 omega t), as two samples per oscillation do,
when omega or the phase is free: their Jacobian columns, and so the first step
in them, are rounding noise (a first step to omega ~ 1e11 is typical).
Each iteration solves the k x k damped normal equations on Python floats by
elimination without pivoting (their matrix is symmetric positive definite) and
evaluates its trial step's phase, exp(-gamma t), cosine and residual in place, into
the spare one of two preallocated sets of rows; an accepted step swaps the sets and
rewrites the free rows of one preallocated J^T from them, one sine row and the leads
(-t) amp and (2t) (-amp), formed once per fit unless the amplitude is free, as are -t,
2t and the offset's row of ones. A rejected step reuses J^T J and J^T r.

A free gamma starts at `gamma_hint`. The pipelines pass the predictor's exact
envelope rate: Fig2's epoch map fixes -ln(eta)/(2 dt) when its roots are complex
(0 when they are real) and the master equation 3 gamma_se/4, which takes the
Fig2 and master-equation presets' fits from 6-9 iterations to 4-5. The nested
predictor starts at 0: its `approx_gamma` lies about 5.6x below the fitted rate
at max_events 5 and costs iterations there. `rabideco fit` knows no predictor
and starts at 0 too.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import InvalidEntryError, ProbabilitySeries, clamp_probability_array, time_grid

PARAM_ORDER = ("gamma", "omega", "amplitude", "offset", "phase")

# a fitted series needs this many points, spanning two periods of the hint
MIN_FIT_POINTS = 10
# a step ends the fit when |s| < _STEP_TOL (|p| + _STEP_FLOOR) for every free parameter p;
# the floor lets a parameter that tends to 0 (gamma when undamped, a free phase) stop it
_STEP_TOL, _STEP_FLOOR = 1e-9, 1e-6
_MAX_ITER = 200
_LAMBDA_MAX = 1e12
# the model is even under (omega, phase) -> (-omega, -phase): omega > 0 is never a restriction
_NON_PHYSICAL = "a step would take omega to a non-physical value <= 0"
# a start whose |sin(2 omega t)| is at most _EXTREME_TOL at every sample fixes no omega or phase
_ON_EXTREMES = "every sample is on an extreme of the hinted oscillation, fixing no omega or phase"
_EXTREME_TOL = 1e-9


class FitConvergenceError(RuntimeError):
    """Raised when the damped-sinusoid fit cannot make progress.

    Carries the last iterate and its residual RMS for diagnosis.
    """

    def __init__(self, message: str, params: dict, residual_rms: float):
        super().__init__(f"{message} (last iterate {params}, residual rms {residual_rms:.3e})")
        self.params = params
        self.residual_rms = residual_rms


class FitWindowError(ValueError):
    """A series too short to fit; `part` names what is short: "points" or "span"."""

    def __init__(self, message: str, part: str):
        super().__init__(message)
        self.part = part


def check_fit_window(n_points: int, span: float, omega_hint: float) -> None:
    """Raise FitWindowError unless MIN_FIT_POINTS or more points span two
    periods of the hinted frequency, as `fit_damped_sinusoid` demands."""
    if n_points < MIN_FIT_POINTS:
        raise FitWindowError(f"need at least {MIN_FIT_POINTS} points, got {n_points}", "points")
    if span * omega_hint < 2.0 * math.pi:
        raise FitWindowError(
            f"series spans {span * omega_hint / math.pi:.2f} half-periods of the "
            f"hinted frequency; need at least two full periods", "span")


@dataclass(frozen=True)
class MasterEqParams:
    """On-resonance driving omega and spontaneous-emission rate gamma_se.

    Restricted to the underdamped regime gamma_se < 8 omega, where
    mu = sqrt(4 omega^2 - (gamma_se/4)^2) is real; the overdamped branch is
    out of scope.
    """

    omega: float
    gamma_se: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.omega) and self.omega > 0.0):
            raise ValueError(f"omega must be positive and finite, got {self.omega}")
        if not (0.0 <= self.gamma_se < 8.0 * self.omega):
            raise ValueError(
                f"unsupported regime: need 0 <= gamma_se < 8*omega, "
                f"got gamma_se={self.gamma_se}, omega={self.omega}"
            )


def master_eq_series(params: MasterEqParams, grid) -> ProbabilitySeries:
    """Ground-state probability of the on-resonance master equation on a
    `time_grid`, prepared excited:

    (4 O^2 / (G^2 + 8 O^2)) * (1 - exp(-3Gt/4) (cos mu t + (3G/4mu) sin mu t))

    with mu = sqrt(4 O^2 - (G/4)^2). Reduces to sin^2(O t) at G = 0.
    """
    times = time_grid(grid)
    omega, g = params.omega, params.gamma_se
    mu = math.sqrt(4.0 * omega**2 - (g / 4.0) ** 2)
    pref = 4.0 * omega**2 / (g**2 + 8.0 * omega**2)
    vals = pref * (
        1.0
        - np.exp(-0.75 * g * times)
        * (np.cos(mu * times) + (3.0 * g / (4.0 * mu)) * np.sin(mu * times))
    )
    meta = {"predictor": "master-eq", "omega": omega, "gamma_se": g}
    return ProbabilitySeries(times, clamp_probability_array(vals), meta)


@dataclass(frozen=True)
class DampedSinusoidFit:
    """Result of fitting offset + amplitude e^{-gamma t} cos(2 omega t + phase)."""

    gamma: float
    omega_fit: float
    amplitude: float
    offset: float
    phase: float
    residual_rms: float
    free_params: frozenset = field(default_factory=frozenset)
    iterations: int = 0
    degenerate: bool = False


def _evaluate(params, neg_t, two_t, y, out) -> np.ndarray:
    """Overwrite the rows of `out` with the phase 2 omega t + phase, exp(-gamma t), the
    phase's cosine and the model values less `y`; returns the last row."""
    gamma, omega, amp, off, phase = params
    arg, decay, cos_a, resid = out
    np.add(np.multiply(omega, two_t, arg), phase, arg)
    np.exp(np.multiply(gamma, neg_t, decay), decay)
    np.cos(arg, cos_a)
    np.multiply(amp, decay, resid)
    resid *= cos_a
    resid += off
    resid -= y
    return resid


def _jacobian_into(rows, columns, leads, amp, decay, cos_a, sin_a) -> None:
    """Overwrite row j of `rows` with the derivative by parameter `columns[j]`, factors
    multiplied left to right from the `leads`; the offset's row of ones stays as it is."""
    factors = ((leads[0], decay, cos_a), (leads[1], decay, sin_a), (decay, cos_a), (),
               (decay, -amp, sin_a))
    for row, i in zip(rows, columns):
        if factors[i]:
            first, second, *rest = factors[i]
            np.multiply(first, second, row)
            for factor in rest:
                row *= factor


def _solve(a: list, b: list) -> list | None:
    """x with a x = b by Gaussian elimination without pivoting on Python floats, for the
    fit's k <= 5; a and b are overwritten. None on a pivot that is not > 0 (zero or NaN).
    On the damped J^T J, symmetric positive definite, this is Cholesky's LDL^T form:
    backward stable and blind to diagonal scaling (Higham 2002, ch. 10), where partial
    pivoting on its unscaled rows missed a componentwise residual bound of 1e-12."""
    k = len(b)
    for c in range(k):
        if not a[c][c] > 0.0:
            return None
        for r in range(c + 1, k):
            f = a[r][c] / a[c][c]
            for j in range(c + 1, k):
                a[r][j] -= f * a[c][j]
            b[r] -= f * b[c]
    for r in reversed(range(k)):
        b[r] = (b[r] - sum(a[r][j] * b[j] for j in range(r + 1, k))) / a[r][r]
    return b


def damped_sinusoid_model(t: np.ndarray, params: np.ndarray) -> np.ndarray:
    """Model values for params ordered (gamma, omega, amplitude, offset, phase)."""
    return _evaluate(params, -t, 2.0 * t, 0.0, np.empty((4, *t.shape)))  # x - 0.0 is x


@np.errstate(over="ignore", invalid="ignore")  # a non-finite pivot, step or SSE: rejected
def fit_damped_sinusoid(
    series: ProbabilitySeries,
    omega_hint: float,
    free_params: frozenset | set | None = None,
    gamma_hint: float = 0.0,
) -> DampedSinusoidFit:
    """Least-squares fit of the damped sinusoid to a probability series.

    By default gamma and omega are free (gamma starts at gamma_hint, omega at
    omega_hint) while offset = 1/2, phase = 0 and the amplitude stay fixed:
    +1/2 when the first sample is above 1/2 (ground preparation), else -1/2.
    Fig2 passes its epoch map's exact rate and the master equation 3 gamma_se/4;
    the nested predictor, whose leading-order rate is far from the fitted one, and
    `rabideco fit`, which has no predictor, start at 0 (see the module docstring).
    A fixed gamma stays at 0 whatever the hint. A free gamma that ends exactly
    on a non-zero hint, returned or in a FitConvergenceError's last iterate, was
    never moved by the series (a window where exp(-gamma t) is 0 but at t = 0,
    or rates far below 1/t): the start is never reported as a fitted value, so
    the fit runs again from gamma = 0 and that outcome is the result.
    The series must pass `check_fit_window`: at least MIN_FIT_POINTS points
    spanning two oscillation periods of the hinted frequency. A constant
    series yields a flat fit flagged degenerate with gamma = nan.
    """
    if omega_hint <= 0.0 or not math.isfinite(omega_hint):
        raise ValueError(f"omega_hint must be positive and finite, got {omega_hint}")
    if not (0.0 <= gamma_hint < math.inf):
        raise ValueError(f"gamma_hint must be non-negative and finite, got {gamma_hint}")
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
    if gamma_hint and "gamma" in free:
        hint = float(gamma_hint)
        try:
            fit = _levenberg_marquardt(t, y, free, [hint, *params[1:]])
        except FitConvergenceError as exc:
            if exc.params["gamma"] != hint:
                raise
        else:
            if fit.gamma != hint:
                return fit
    return _levenberg_marquardt(t, y, free, params)


def _levenberg_marquardt(t: np.ndarray, y: np.ndarray, free: frozenset,
                         params: list) -> DampedSinusoidFit:
    """The fit's loop from the start `params`, ordered as PARAM_ORDER."""
    free_idx = [i for i, name in enumerate(PARAM_ORDER) if name in free]
    neg_t, two_t = -t, 2.0 * t
    rows = np.ones((len(free_idx), t.size))  # J^T, one row per free parameter
    sin_a = np.empty(t.size)
    terms, trial_terms = (list(block) for block in np.empty((2, 4, t.size)))  # params, trial
    resid = _evaluate(params, neg_t, two_t, y, terms)
    sse = float(resid @ resid)
    if free & {"omega", "phase"} and np.abs(np.sin(terms[0], sin_a), sin_a).max() <= _EXTREME_TOL:
        raise FitConvergenceError(_ON_EXTREMES, dict(zip(PARAM_ORDER, params)),
                                  math.sqrt(sse / t.size))
    lam = 1e-3
    iterations = 0
    normal = None  # J^T J, -J^T r and the clipped diagonal at `params`, as lists
    while iterations < _MAX_ITER:
        iterations += 1
        if normal is None:
            if iterations == 1 or "amplitude" in free:
                leads = neg_t * params[2], two_t * -params[2]
            arg, decay, cos_a, _ = terms
            _jacobian_into(rows, free_idx, leads, params[2], decay, cos_a, np.sin(arg, sin_a))
            jtj = (rows @ rows.T).tolist()
            normal = (jtj, [-v for v in (rows @ resid).tolist()],
                      [1e-30 if row[j] <= 0.0 else row[j] for j, row in enumerate(jtj)])
        jtj, rhs, diag = normal
        damped = [row[:] for row in jtj]
        for j, d in enumerate(diag):
            damped[j][j] += lam * d
        step = _solve(damped, rhs[:])
        trial_sse, last = math.inf, False
        if step is not None and all(map(math.isfinite, step)):
            trial = params[:]
            for i, s in zip(free_idx, step):
                trial[i] += s
            trial_resid = _evaluate(trial, neg_t, two_t, y, trial_terms)
            trial_sse = float(trial_resid @ trial_resid)
            # a step below tolerance is the last: more damping only shrinks it
            last = math.isfinite(trial_sse) and max(
                abs(s) / (abs(params[i]) + _STEP_FLOOR) for i, s in zip(free_idx, step)) < _STEP_TOL
        if math.isfinite(trial_sse) and trial_sse <= sse:
            if trial[1] <= 0.0:  # only a free omega moves
                raise FitConvergenceError(_NON_PHYSICAL, dict(zip(PARAM_ORDER, params)),
                                          math.sqrt(sse / t.size))
            params, resid, sse = trial, trial_resid, trial_sse
            terms, trial_terms = trial_terms, terms
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


@dataclass(frozen=True)
class PowerLawFit:
    """Exponent p of ratio = (1+n)^p, fit in log space."""

    exponent: float
    residual_rms: float
    degenerate: bool = False


def fit_power_law(ratios) -> PowerLawFit:
    """Least squares of log(ratio) against p * log(1+n).

    `ratios` is a sequence of (n, ratio) pairs with positive ratios; the
    model passes through ratio = 1 at n = 0 by construction. A single
    n = 0 point leaves the exponent undetermined (flagged degenerate).
    """
    pairs = list(ratios)
    if not pairs:
        raise ValueError("need at least one (n, ratio) pair")
    ns = np.array([p[0] for p in pairs], dtype=float)
    rs = np.array([p[1] for p in pairs], dtype=float)
    if np.any(rs <= 0.0):
        raise ValueError("ratios must be positive for a log-space fit")
    x = np.log1p(ns)
    y = np.log(rs)
    sxx = float(x @ x)
    if sxx == 0.0:
        return PowerLawFit(exponent=math.nan, residual_rms=0.0, degenerate=True)
    exponent = float(x @ y) / sxx
    resid = y - exponent * x
    return PowerLawFit(exponent=exponent, residual_rms=float(np.sqrt(np.mean(resid**2))))
