import dataclasses
import functools
import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rabideco import fitting
from rabideco.core import InvalidEntryError, ProbabilitySeries, RabiSystem, rabi_frequency_ladder
from rabideco.distinguishable import epoch_map_spectrum
from rabideco.experiments import config_from_dict, predictor_series
from rabideco.fitting import (
    PARAM_ORDER,
    DampedSinusoidFit,
    FitConvergenceError,
    MasterEqParams,
    damped_sinusoid_model,
    fit_damped_sinusoid,
    fit_power_law,
    master_eq_series,
)

from .reference import born_ground_prob, damped_sinusoid_jacobian, previous_fit, previous_solve

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def series_from(func, t_max=30.0, n=400):
    t = np.linspace(0.0, t_max, n)
    return ProbabilitySeries(t, func(t), {})


class TestMasterEq:
    def test_dissipation_free_limit_is_born(self):
        params = MasterEqParams(omega=1.3, gamma_se=0.0)
        system = RabiSystem(1.3)
        grid = np.linspace(0.0, 20.0, 201)
        for t, p in zip(grid, master_eq_series(params, grid).probs):
            assert abs(p - born_ground_prob(system, float(t))) < 1e-12

    def test_long_time_prefactor(self):
        # gamma_se = omega: limit 4 omega^2 / (gamma^2 + 8 omega^2) = 4/9
        params = MasterEqParams(omega=1.0, gamma_se=1.0)
        assert master_eq_series(params, [80.0]).probs[0] == pytest.approx(4.0 / 9.0, abs=1e-12)

    def test_strong_driving_limit(self):
        # 2 omega = 100 * (gamma/4): compare against (1/2)(1 - e^{-3gt/4} cos 2wt)
        omega = 1.0
        g = 8.0 * omega / 100.0
        params = MasterEqParams(omega=omega, gamma_se=g)
        ts = np.linspace(0.0, 4.0 / g, 500)
        strong = 0.5 * (1.0 - np.exp(-0.75 * g * ts) * np.cos(2.0 * omega * ts))
        full = master_eq_series(params, ts).probs
        assert float(np.max(np.abs(full - strong))) < 0.02

    def test_overdamped_rejected(self):
        with pytest.raises(ValueError, match="regime"):
            MasterEqParams(omega=1.0, gamma_se=8.0)

    @pytest.mark.parametrize("omega", [0.0, math.inf])
    def test_omega_must_be_positive_and_finite(self, omega):
        with pytest.raises(ValueError, match="omega must be positive and finite"):
            MasterEqParams(omega=omega, gamma_se=0.0)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            master_eq_series(MasterEqParams(1.0, 0.1), [-1.0])

    def test_series_matches_scalar(self):
        params = MasterEqParams(omega=0.8, gamma_se=0.3)
        grid = np.linspace(0.0, 15.0, 77)
        series = master_eq_series(params, grid)
        for t, p in zip(grid, series.probs):
            assert p == pytest.approx(master_eq_series(params, [t]).probs[0], abs=1e-14)


class TestDampedSinusoidFit:
    def test_round_trip_reference(self):
        series = series_from(lambda t: 0.5 * (1.0 - np.exp(-0.05 * t) * np.cos(2.0 * t)))
        fit = fit_damped_sinusoid(series, omega_hint=1.0)
        assert fit.gamma == pytest.approx(0.05, abs=1e-6)
        assert fit.omega_fit == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("gamma", [0.005, 0.02, 0.1, 0.2])
    def test_round_trip_sweep(self, gamma):
        series = series_from(lambda t: 0.5 * (1.0 - np.exp(-gamma * t) * np.cos(2.0 * t)))
        fit = fit_damped_sinusoid(series, omega_hint=1.0)
        assert fit.gamma == pytest.approx(gamma, rel=1e-6)

    def test_undamped_input(self):
        series = series_from(lambda t: np.sin(t) ** 2)
        fit = fit_damped_sinusoid(series, omega_hint=1.0)
        assert abs(fit.gamma) < 1e-6

    @pytest.mark.parametrize("n_points", [400, 15000])
    @pytest.mark.parametrize("free", [{"gamma", "omega"}, {"gamma", "phase"},
                                      {"gamma", "omega", "phase"}],
                             ids=lambda f: "+".join(sorted(f)))
    def test_undamped_fig2_stops(self, n_points, free):
        # at eta 1 nothing collapses, so gamma (and a free phase) tend to 0: the
        # step test's floor under |p| must still stop the fit, which ran all 200
        # iterations at 15000 points with a floor of 1e-12
        data = json.loads((CONFIG_DIR / "fig2a.json").read_text())
        data["env"]["eta"], data["grid"]["n_points"] = 1.0, n_points
        fit = fit_damped_sinusoid(predictor_series(config_from_dict(data)), 1.0, free)
        assert fit.iterations < 20
        assert abs(fit.gamma) <= 1e-9

    def test_ground_prepared_mirror_fits_the_same(self):
        # 1 - y starts at 1 > 1/2, so its fit starts from amplitude +1/2 and
        # mirrors the fit of y step for step
        series, omega = preset_series("fig2a")
        mirror = ProbabilitySeries(series.times, 1.0 - series.probs, {})
        got, want = (fit_damped_sinusoid(s, omega) for s in (mirror, series))
        assert got.amplitude == -want.amplitude == 0.5
        assert got.gamma == pytest.approx(want.gamma, rel=1e-12, abs=0.0)
        assert got.omega_fit == pytest.approx(want.omega_fit, rel=1e-12, abs=0.0)

    def test_hint_need_not_be_exact(self):
        series = series_from(lambda t: 0.5 * (1.0 - np.exp(-0.03 * t) * np.cos(2.0 * 1.1 * t)))
        fit = fit_damped_sinusoid(series, omega_hint=1.0)
        assert fit.omega_fit == pytest.approx(1.1, rel=1e-6)
        assert fit.gamma == pytest.approx(0.03, rel=1e-5)

    def test_noise_robustness(self):
        rng = np.random.default_rng(99)
        t = np.linspace(0.0, 30.0, 400)
        clean = 0.5 * (1.0 - np.exp(-0.05 * t) * np.cos(2.0 * t))
        noisy = clean + rng.uniform(-0.01, 0.01, t.size)
        fit = fit_damped_sinusoid(ProbabilitySeries(t, noisy, {}), omega_hint=1.0)
        assert fit.gamma == pytest.approx(0.05, rel=0.10)

    def test_extended_parameters(self):
        t = np.linspace(0.0, 25.0, 500)
        y = 0.52 - 0.45 * np.exp(-0.04 * t) * np.cos(2.0 * t + 0.1)
        fit = fit_damped_sinusoid(
            ProbabilitySeries(t, y, {}),
            omega_hint=1.0,
            free_params={"gamma", "omega", "amplitude", "offset", "phase"},
        )
        assert fit.gamma == pytest.approx(0.04, rel=1e-4)
        assert fit.amplitude == pytest.approx(-0.45, rel=1e-4)
        assert fit.offset == pytest.approx(0.52, rel=1e-4)
        assert fit.phase == pytest.approx(0.1, abs=1e-4)

    def test_degenerate_constant_series(self):
        t = np.linspace(0.0, 30.0, 50)
        fit = fit_damped_sinusoid(ProbabilitySeries(t, np.full(50, 0.5), {}), omega_hint=1.0)
        assert fit.degenerate
        assert math.isnan(fit.gamma)
        assert fit.offset == 0.5

    def test_preconditions(self):
        short = ProbabilitySeries(np.linspace(0, 30, 5), np.zeros(5), {})
        with pytest.raises(ValueError, match="10 points"):
            fit_damped_sinusoid(short, omega_hint=1.0)
        narrow = series_from(lambda t: np.sin(t) ** 2, t_max=3.0)
        with pytest.raises(ValueError, match="periods"):
            fit_damped_sinusoid(narrow, omega_hint=1.0)
        good = series_from(lambda t: np.sin(t) ** 2)
        with pytest.raises(ValueError):
            fit_damped_sinusoid(good, omega_hint=-1.0)
        with pytest.raises(ValueError, match="unknown"):
            fit_damped_sinusoid(good, omega_hint=1.0, free_params={"decay"})

    def test_no_free_parameter(self):
        good = series_from(lambda t: np.sin(t) ** 2)
        with pytest.raises(ValueError, match="at least one parameter must be free"):
            fit_damped_sinusoid(good, omega_hint=1.0, free_params=set())

    def test_nonconvergence_diagnostics(self):
        # times up to 1e300 overflow J^T J, so no step is ever accepted
        t = np.linspace(0.0, 1e300, 60)
        with pytest.raises(FitConvergenceError) as err:
            fit_damped_sinusoid(ProbabilitySeries(t, np.sin(t) ** 2, {}), omega_hint=1.0)
        assert set(err.value.params) == set(PARAM_ORDER)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_sample_raises_before_iterating(self, bad):
        t = np.linspace(0.0, 30.0, 60)
        y = np.sin(t) ** 2
        y[10] = bad
        with pytest.raises(InvalidEntryError, match=r"^probs must be finite: probs\[10\] = ") as err:
            fit_damped_sinusoid(ProbabilitySeries(t, y, {}), omega_hint=1.0)
        assert err.value.index == 10

    def test_jacobian_matches_central_differences(self):
        rng = np.random.default_rng(7)
        t = np.linspace(0.1, 10.0, 40)
        h = 1e-6
        for _ in range(10):
            params = np.array([
                rng.uniform(0.01, 0.2),   # gamma
                rng.uniform(0.5, 2.0),    # omega
                rng.uniform(-0.6, -0.3),  # amplitude
                rng.uniform(0.4, 0.6),    # offset
                rng.uniform(-0.5, 0.5),   # phase
            ])
            jac = damped_sinusoid_jacobian(t, params)
            for i in range(5):
                bump = np.zeros(5)
                bump[i] = h
                numeric = (damped_sinusoid_model(t, params + bump)
                           - damped_sinusoid_model(t, params - bump)) / (2.0 * h)
                scale = np.maximum(np.abs(numeric), 1e-3)
                assert float(np.max(np.abs(jac[:, i] - numeric) / scale)) < 1e-5


class TestPowerLawFit:
    def test_exact_recovery(self):
        data = [(n, (1.0 + n) ** 0.7) for n in range(9)]
        fit = fit_power_law(data)
        assert fit.exponent == pytest.approx(0.7, abs=1e-9)
        assert fit.residual_rms < 1e-12

    def test_constant_ratios(self):
        fit = fit_power_law([(n, 1.0) for n in range(9)])
        assert fit.exponent == pytest.approx(0.0, abs=1e-12)

    def test_single_point_degenerate(self):
        fit = fit_power_law([(0, 1.0)])
        assert fit.degenerate

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            fit_power_law([])
        with pytest.raises(ValueError, match="positive"):
            fit_power_law([(0, 1.0), (1, -2.0)])


# ---- the fit as it was before its loop reused its work: the reference of the
# differential tests below, kept verbatim but for the three function names ----
_STEP_TOL = 1e-9
_MAX_ITER = 200
_LAMBDA_MAX = 1e12


def reference_model(t: np.ndarray, params: np.ndarray) -> np.ndarray:
    """Model values for params ordered (gamma, omega, amplitude, offset, phase)."""
    gamma, omega, amp, off, phase = params
    return off + amp * np.exp(-gamma * t) * np.cos(2.0 * omega * t + phase)


def reference_jacobian(t: np.ndarray, params: np.ndarray) -> np.ndarray:
    """Analytic Jacobian, columns in PARAM_ORDER."""
    gamma, omega, amp, off, phase = params
    decay = np.exp(-gamma * t)
    arg = 2.0 * omega * t + phase
    cos_a, sin_a = np.cos(arg), np.sin(arg)
    jac = np.empty((t.size, 5))
    jac[:, 0] = -t * amp * decay * cos_a
    jac[:, 1] = -2.0 * t * amp * decay * sin_a
    jac[:, 2] = decay * cos_a
    jac[:, 3] = 1.0
    jac[:, 4] = -amp * decay * sin_a
    return jac


def reference_fit(
    series: ProbabilitySeries,
    omega_hint: float,
    free_params: frozenset | set | None = None,
) -> DampedSinusoidFit:
    """Least-squares fit of the damped sinusoid to a probability series.

    By default gamma and omega are free (gamma starts at 0, omega at
    omega_hint) while offset = 1/2, phase = 0 and the amplitude stay fixed:
    +1/2 when the first sample is above 1/2 (ground preparation), else -1/2.
    The series must have at least 10 points spanning two oscillation
    periods of the hinted frequency. A constant series yields a flat fit
    flagged degenerate with gamma = nan.
    """
    if omega_hint <= 0.0 or not math.isfinite(omega_hint):
        raise ValueError(f"omega_hint must be positive and finite, got {omega_hint}")
    free = frozenset(free_params) if free_params is not None else frozenset({"gamma", "omega"})
    unknown = free - set(PARAM_ORDER)
    if unknown:
        raise ValueError(f"unknown fit parameters: {sorted(unknown)}")
    if not free:
        raise ValueError("at least one parameter must be free")

    t = np.asarray(series.times, dtype=float)
    y = np.asarray(series.probs, dtype=float)
    if t.size < 10:
        raise ValueError(f"need at least 10 points, got {t.size}")
    span = float(t[-1] - t[0])
    if span * omega_hint < 2.0 * math.pi:
        raise ValueError(
            f"series spans {span * omega_hint / math.pi:.2f} half-periods of the "
            f"hinted frequency; need at least two full periods"
        )

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

    params = np.array([0.0, omega_hint, 0.5 if y[0] > 0.5 else -0.5, 0.5, 0.0])
    free_idx = [i for i, name in enumerate(PARAM_ORDER) if name in free]

    resid = reference_model(t, params) - y
    sse = float(resid @ resid)
    if free & {"omega", "phase"} and np.max(np.abs(np.sin(2.0 * omega_hint * t))) <= 1e-9:
        raise FitConvergenceError(
            "every sample is on an extreme of the hinted oscillation, fixing no omega or phase",
            dict(zip(PARAM_ORDER, (float(p) for p in params))),
            math.sqrt(sse / t.size),
        )
    lam = 1e-3
    iterations = 0
    while iterations < _MAX_ITER:
        iterations += 1
        jac = reference_jacobian(t, params)[:, free_idx]
        jtj = jac.T @ jac
        jtr = jac.T @ resid
        diag = np.diag(jtj).copy()
        diag[diag <= 0.0] = 1e-30
        try:
            step = np.linalg.solve(jtj + lam * np.diag(diag), -jtr)
        except np.linalg.LinAlgError:
            step = None
        if step is not None and np.all(np.isfinite(step)):
            trial = params.copy()
            trial[free_idx] += step
            trial_resid = reference_model(t, trial) - y
            trial_sse = float(trial_resid @ trial_resid)
        else:
            trial_sse = math.inf
        if math.isfinite(trial_sse) and trial_sse <= sse:
            if trial[1] <= 0.0:
                raise FitConvergenceError(
                    "a step would take omega to a non-physical value <= 0",
                    dict(zip(PARAM_ORDER, (float(p) for p in params))),
                    math.sqrt(sse / t.size),
                )
            rel_step = float(
                np.max(np.abs(step) / (np.abs(params[free_idx]) + 1e-12))
            )
            params, resid, sse = trial, trial_resid, trial_sse
            lam = max(lam / 10.0, 1e-12)
            if rel_step < _STEP_TOL:
                break
        else:
            lam *= 10.0
            if lam > _LAMBDA_MAX:
                raise FitConvergenceError(
                    "damping exhausted without residual decrease",
                    dict(zip(PARAM_ORDER, (float(p) for p in params))),
                    math.sqrt(sse / t.size),
                )

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


FIT_PARAMS = ("gamma", "omega_fit", "amplitude", "offset", "phase")  # PARAM_ORDER's fields
FREE_SUBSETS = [frozenset(c) for r in range(1, 6) for c in itertools.combinations(PARAM_ORDER, r)]


def assert_close_params(got: dict, want: dict, free) -> None:
    """Free parameters within 1e-7 relative (1e-12 absolute near 0), that is
    100 times the step tolerance; fixed ones exactly equal."""
    for name in PARAM_ORDER:
        g, w = got[name], want[name]
        if name in free:
            assert abs(g - w) <= max(1e-7 * abs(w), 1e-12), (name, g, w)
        else:
            assert g == w, (name, g, w)


def assert_close_fit(series, omega_hint=1.0, free_params=None):
    """The fit ends as the reference does: converged, with a residual no
    larger (to 1e-9 relative) and `assert_close_params`, or raising the same
    FitConvergenceError. Returns both fits, or None when both raised.

    A failed fit's message names its last iterate, whose bits may differ: the
    two solve the damped normal equations with different rounding, and on the
    long walks that end in "damping exhausted" (1 in 2000 random series) that
    moves the last iterate by about 1e-12. So the reason must match exactly,
    the residual to the message's digits, and the last iterate to
    `assert_close_params`."""
    free = frozenset(free_params) if free_params is not None else frozenset({"gamma", "omega"})
    try:
        want = reference_fit(series, omega_hint, free_params)
    except FitConvergenceError as exc:
        with pytest.raises(FitConvergenceError) as err:
            fit_damped_sinusoid(series, omega_hint, free_params)
        reason = str(exc).split(" (last iterate")[0]
        assert str(err.value).split(" (last iterate")[0] == reason
        assert f"{err.value.residual_rms:.3e}" == f"{exc.residual_rms:.3e}"
        assert_close_params(err.value.params, exc.params, free)
        return None
    got = fit_damped_sinusoid(series, omega_hint, free_params)
    assert (got.free_params, got.degenerate) == (want.free_params, want.degenerate)
    assert got.residual_rms <= want.residual_rms * (1.0 + 1e-9) + 1e-15
    assert_close_params(*({name: getattr(fit, field_name)
                           for name, field_name in zip(PARAM_ORDER, FIT_PARAMS)}
                          for fit in (got, want)), free)
    return got, want


def rich_series(n=300, noise=0.0, seed=5):
    t = np.linspace(0.0, 25.0, n)
    y = 0.52 - 0.45 * np.exp(-0.04 * t) * np.cos(2.0 * 1.03 * t + 0.1)
    return ProbabilitySeries(t, y + noise * np.random.default_rng(seed).standard_normal(n), {})


def preset_series(name):
    cfg = config_from_dict(json.loads((CONFIG_DIR / f"{name}.json").read_text()))
    return predictor_series(cfg), cfg.system.omega


def noisy_series():
    rng = np.random.default_rng(99)
    t = np.linspace(0.0, 30.0, 400)
    y = 0.5 * (1.0 - np.exp(-0.05 * t) * np.cos(2.0 * t)) + rng.uniform(-0.01, 0.01, t.size)
    return ProbabilitySeries(t, y, {})


def overshooting_series():
    # fitted with a hint 25% off the true frequency, the first steps overshoot
    return series_from(lambda t: 0.5 * (1.0 - np.exp(-0.05 * t) * np.cos(2.0 * t))), 1.25


def deterministic_cases():
    """(series, omega_hint, free_params) of every deterministic differential case."""
    cases = [(rich_series(noise=0.003), 1.0, free) for free in FREE_SUBSETS]
    cases += [(*preset_series(name), None) for name in ("fig2a", "fig2b", "fig3", "master_eq")]
    cases += [(master_eq_series(MasterEqParams(omega_n, 0.01),
                                np.linspace(0.0, 40.0 / omega_n, 300)), omega_n, None)
              for omega_n in (1.0, 0.81, 0.43)]
    return cases + [(noisy_series(), 1.0, None), (*overshooting_series(), None)]


class TestAgainstReferenceFit:
    """The fit ends where the loop that rebuilt the full Jacobian and both
    exponentials at every iteration ends, to within 100 times the step
    tolerance (`assert_close_fit`), and in fewer iterations overall."""

    @pytest.mark.parametrize("free", FREE_SUBSETS, ids=lambda f: "+".join(sorted(f)))
    def test_every_free_subset(self, free):
        assert_close_fit(rich_series(noise=0.003), free_params=free)

    @pytest.mark.parametrize("preset", ["fig2a", "fig2b", "fig3", "master_eq"])
    def test_preset_series(self, preset):
        series, omega = preset_series(preset)
        assert_close_fit(series, omega)

    def test_master_eq_predictor_in_fig5(self):
        for omega_n in (1.0, 0.81, 0.43):
            series = master_eq_series(MasterEqParams(omega_n, 0.01),
                                      np.linspace(0.0, 40.0 / omega_n, 300))
            assert_close_fit(series, omega_n)

    def test_noisy_series(self):
        assert_close_fit(noisy_series())

    def test_fewer_iterations_in_total(self):
        # not per case: on random series the new loop now and then takes a few more
        got = want = 0
        for series, hint, free in deterministic_cases():
            new, ref = assert_close_fit(series, hint, free)
            got, want = got + new.iterations, want + ref.iterations
        assert got < want

    def test_rejected_steps_reuse_the_normal_equations(self, monkeypatch):
        series, hint = overshooting_series()
        builds = []
        real = fitting._jacobian_into
        monkeypatch.setattr(fitting, "_jacobian_into",
                            lambda *args: builds.append(1) or real(*args))
        got, _ = assert_close_fit(series, omega_hint=hint)
        assert 1 <= len(builds) < got.iterations  # some steps were rejected

    @staticmethod
    def first_step_below_tolerance(monkeypatch, series, omega):
        """The fit, and the 1-based iteration that proposed its first step of
        relative size below the step tolerance."""
        steps, trials = [], []
        real_solve, real_evaluate = fitting._solve, fitting._evaluate
        monkeypatch.setattr(fitting, "_solve",
                            lambda *args: steps.append(real_solve(*args)) or steps[-1])
        monkeypatch.setattr(fitting, "_evaluate",
                            lambda params, *args: trials.append(list(params))
                            or real_evaluate(params, *args))
        fit = fit_damped_sinusoid(series, omega)
        assert len(trials) == len(steps) + 1 == fit.iterations + 1  # every step finite
        free_idx = [PARAM_ORDER.index(name) for name in ("gamma", "omega")]
        # the step was taken from trial - step
        floor = fitting._STEP_FLOOR
        rel = [max(abs(s) / (abs(trial[i] - s) + floor) for i, s in zip(free_idx, step))
               for step, trial in zip(steps, trials[1:])]
        return fit, next(j for j, r in enumerate(rel, start=1) if r < fitting._STEP_TOL)

    def test_fig3_stops_at_its_first_step_below_tolerance(self, monkeypatch):
        fit, first = self.first_step_below_tolerance(monkeypatch, *preset_series("fig3"))
        assert fit.iterations <= first + 1

    def test_rejected_tail_below_tolerance_is_cut(self, monkeypatch):
        # a Fig5 master-eq level, where the reference goes on rejecting steps
        series = master_eq_series(MasterEqParams(1.0, 0.01), np.linspace(0.0, 40.0, 300))
        fit, first = self.first_step_below_tolerance(monkeypatch, series, 1.0)
        assert fit.iterations <= first + 1 < reference_fit(series, 1.0).iterations - 1

    def test_convergence_error(self):
        # times up to 1e300 overflow J^T J in both fits
        t = np.linspace(0.0, 1e300, 60)
        series = ProbabilitySeries(t, np.sin(t) ** 2, {})
        with np.errstate(over="ignore"):
            assert assert_close_fit(series) is None
        with pytest.raises(FitConvergenceError, match="^damping exhausted"):
            fit_damped_sinusoid(series, 1.0)

    def test_stops_before_a_non_physical_frequency(self):
        # 10 points over four periods alias cos(2 omega t); the fit heads for omega <= 0
        omega = 0.375
        t = np.linspace(0.0, 8.0 * math.pi / omega, 10)
        y = 0.5 * (1.0 - np.exp(-0.0234375 * omega * t) * np.cos(2.0 * omega * t))
        series = ProbabilitySeries(t, y, {})
        assert assert_close_fit(series, omega_hint=0.8 * omega) is None
        with pytest.raises(FitConvergenceError, match="^a step would take omega to") as err:
            fit_damped_sinusoid(series, 0.8 * omega)
        assert err.value.params["omega"] > 0.0

    @pytest.mark.parametrize("free", FREE_SUBSETS, ids=lambda f: "+".join(sorted(f)))
    def test_samples_on_the_extremes_fix_no_frequency(self, free):
        # 17 points over 8 oscillations put every sample of cos(2 omega t) on +-1, where
        # sin(2 omega t), a factor of the omega and phase columns, is rounding noise: the
        # first step took omega to ~1e11, and the fits then parted ("converged" to gamma
        # 4e159 against "a step would take omega to a non-physical value")
        omega = 0.3
        t = np.linspace(0.0, 8.0 * math.pi / omega, 17)
        y = 0.5 * (1.0 + np.exp(-0.25 * omega * t) * np.cos(2.0 * omega * t))
        series = ProbabilitySeries(t, y, {})
        got = assert_close_fit(series, omega, free)
        if free & {"omega", "phase"}:
            assert got is None
            with pytest.raises(FitConvergenceError, match="^every sample is on an extreme") as err:
                fit_damped_sinusoid(series, omega, free)
            assert err.value.params == {"gamma": 0.0, "omega": omega, "amplitude": 0.5,
                                        "offset": 0.5, "phase": 0.0}
        else:
            assert got is not None

    def test_samples_off_the_extremes_fix_the_frequency(self):
        # half as many points again, three per oscillation: the fit finds the true omega
        omega = 0.3
        t = np.linspace(0.0, 8.0 * math.pi / omega, 25)
        y = 0.5 * (1.0 + np.exp(-0.25 * omega * t) * np.cos(2.0 * omega * t))
        got, _ = assert_close_fit(ProbabilitySeries(t, y, {}), omega)
        assert got.omega_fit == pytest.approx(omega, rel=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(gamma=st.floats(0.0, 0.3), omega=st.floats(0.3, 3.0),
           n=st.integers(10, 400), noise=st.floats(0.0, 0.05),
           hint=st.floats(0.8, 1.2), seed=st.integers(0, 2**32 - 1),
           sign=st.sampled_from([-1.0, 1.0]))
    def test_property(self, gamma, omega, n, noise, hint, seed, sign):
        # sign -1 (excited) starts at 0, sign +1 (ground) at 1
        t = np.linspace(0.0, 8.0 * math.pi / omega, n)
        y = 0.5 * (1.0 + sign * np.exp(-gamma * omega * t) * np.cos(2.0 * omega * t))
        y += noise * np.random.default_rng(seed).standard_normal(n)
        assert_close_fit(ProbabilitySeries(t, y, {}), omega_hint=hint * omega)


def fit_outcome(fit, series, omega_hint, free_params):
    """Every field of the fit, each float by its repr so that NaN and -0.0 compare too;
    or the exception's type, message and last iterate."""
    try:
        got = fit(series, omega_hint, free_params)
    except (RuntimeError, ValueError) as exc:  # FitConvergenceError, or a rejected input
        return type(exc), str(exc), repr(getattr(exc, "params", None))
    return {f.name: getattr(got, f.name) if f.name == "free_params" else repr(getattr(got, f.name))
            for f in dataclasses.fields(got)}


def non_physical_case():
    # 10 points over four periods alias cos(2 omega t); the default fit heads for omega <= 0
    omega = 0.375
    t = np.linspace(0.0, 8.0 * math.pi / omega, 10)
    y = 0.5 * (1.0 - np.exp(-0.0234375 * omega * t) * np.cos(2.0 * omega * t))
    return ProbabilitySeries(t, y, {}), 0.8 * omega


def overflow_case():
    # times up to 1e300 overflow J^T J
    t = np.linspace(0.0, 1e300, 60)
    with np.errstate(over="ignore"):
        return ProbabilitySeries(t, np.sin(t) ** 2, {}), 1.0


PREVIOUS_CASES = {"fig2a": lambda: preset_series("fig2a"), "fig2b": lambda: preset_series("fig2b"),
                  "fig3": lambda: preset_series("fig3"),
                  "master_eq": lambda: preset_series("master_eq"),
                  "noisy": lambda: (noisy_series(), 1.0), "overshooting": overshooting_series,
                  "non_physical": non_physical_case, "overflow": overflow_case}


class TestAgainstPreviousFit:
    """The fit against `reference.previous_fit`, the loop before it evaluated its trials
    into preallocated rows: the same bits in every field, iterations included, or the
    same exception, message and last iterate."""

    @pytest.mark.parametrize("case", PREVIOUS_CASES)
    def test_every_free_subset(self, case):
        series, hint = PREVIOUS_CASES[case]()
        for free in FREE_SUBSETS:
            want = fit_outcome(previous_fit, series, hint, free)
            assert fit_outcome(fit_damped_sinusoid, series, hint, free) == want, sorted(free)

    def test_cases_reach_every_ending(self):
        # converged, the iteration cap, a non-physical omega and exhausted damping
        endings = set()
        for case in PREVIOUS_CASES.values():
            series, hint = case()
            for free in FREE_SUBSETS:
                got = fit_outcome(fit_damped_sinusoid, series, hint, free)
                endings.add(got[1].split(" (")[0] if isinstance(got, tuple)
                            else got["iterations"] == "200")
        assert endings >= {False, True, fitting._NON_PHYSICAL,
                           "damping exhausted without residual decrease"}

    @settings(max_examples=60, deadline=None)
    @given(gamma=st.floats(0.0, 0.3), omega=st.floats(0.3, 3.0),
           n=st.integers(10, 600), noise=st.floats(0.0, 0.05),
           hint=st.floats(0.8, 1.2), seed=st.integers(0, 2**32 - 1),
           free=st.sampled_from(FREE_SUBSETS))
    def test_property(self, gamma, omega, n, noise, hint, seed, free):
        # n odd and even: the rows' offsets in their buffers, and so BLAS's alignment, differ
        t = np.linspace(0.0, 8.0 * math.pi / omega, n)
        y = 0.5 * (1.0 - np.exp(-gamma * omega * t) * np.cos(2.0 * omega * t))
        y += noise * np.random.default_rng(seed).standard_normal(n)
        series = ProbabilitySeries(t, y, {})
        assert (fit_outcome(fit_damped_sinusoid, series, hint * omega, free)
                == fit_outcome(previous_fit, series, hint * omega, free))


class TestSolve:
    """`fitting._solve` against numpy's LAPACK solve, which the fit used before."""

    @settings(max_examples=200, deadline=None)
    @given(k=st.integers(1, 5), seed=st.integers(0, 2**32 - 1),
           scale=st.floats(0.0, 8.0), lam=st.floats(1e-12, 1e12))
    @example(k=4, seed=46158137, scale=6.0, lam=1529.0)  # partial pivoting missed the bound
    def test_matches_lapack(self, k, seed, scale, lam):
        # the fit's systems: J^T J plus lam times its diagonal, J of k columns
        rng = np.random.default_rng(seed)
        jac = rng.standard_normal((3 * k, k)) * 10.0 ** rng.uniform(-scale, scale, k)
        a = jac.T @ jac
        a += lam * np.diag(a.diagonal())
        b = rng.standard_normal(k)
        got = np.array(fitting._solve(a.tolist(), b.tolist()))
        want = np.linalg.solve(a, b)
        # both are backward stable: compare residuals against the system's scale
        bound = 1e-12 * (np.abs(a) @ np.abs(want) + np.abs(b))
        assert np.all(np.abs(a @ got - b) <= bound)
        assert np.all(np.abs(a @ want - b) <= bound)

    def test_well_conditioned_to_1e_12(self):
        rng = np.random.default_rng(3)
        for k in range(1, 6):
            a = rng.standard_normal((k, k)) + 4.0 * np.eye(k)
            b = rng.standard_normal(k)
            got = fitting._solve(a.tolist(), b.tolist())
            np.testing.assert_allclose(got, np.linalg.solve(a, b), rtol=1e-12, atol=1e-15)

    def test_no_row_swap(self):
        # partial pivoting swapped these rows; in order, every step is exact
        # (np.linalg.solve gives [4.0000000000000036, -1.000000000000001])
        assert fitting._solve([[1.0, 3.0], [3.0, 10.0]], [1.0, 2.0]) == [4.0, -1.0]

    @settings(max_examples=200, deadline=None)
    @given(k=st.integers(1, 5), seed=st.integers(0, 2**32 - 1), scale=st.floats(0.0, 8.0),
           margin=st.floats(1e-3, 1e3))
    def test_as_previous_where_it_never_swapped(self, k, seed, scale, margin):
        # strictly diagonally dominant and symmetric, so positive definite: partial
        # pivoting keeps every row in place, and both do the same operations in order
        rng = np.random.default_rng(seed)
        off = rng.standard_normal((k, k)) * 10.0 ** rng.uniform(-scale, scale, (k, k))
        a = np.triu(off, 1) + np.triu(off, 1).T
        a += np.diag((1.0 + margin) * np.abs(a).sum(axis=1) + 10.0 ** rng.uniform(-scale, scale, k))
        b = rng.standard_normal(k).tolist()
        assert fitting._solve(a.tolist(), b[:]) == previous_solve(a.tolist(), b[:])

    def test_pivot_not_positive_is_none(self):
        assert fitting._solve([[-1.0]], [1.0]) is None
        assert fitting._solve([[math.nan, 0.0], [0.0, 1.0]], [1.0, 1.0]) is None

    def test_zero_pivot_is_none(self):
        assert fitting._solve([[0.0]], [1.0]) is None
        assert fitting._solve([[1.0, 2.0], [2.0, 4.0]], [1.0, 1.0]) is None
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve([[1.0, 2.0], [2.0, 4.0]], [1.0, 1.0])


class TestModelAndJacobianBits:
    @pytest.mark.parametrize("seed", range(8))
    def test_equal_to_reference(self, seed):
        rng = np.random.default_rng(seed)
        t = np.linspace(0.0, rng.uniform(1.0, 100.0), int(rng.integers(1, 600)))
        params = rng.uniform(-2.0, 2.0, 5)
        params[rng.random(5) < 0.3] = 0.0
        got, want = damped_sinusoid_model(t, params), reference_model(t, params)
        assert got.tobytes() == want.tobytes()
        got, want = damped_sinusoid_jacobian(t, params), reference_jacobian(t, params)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def fig2_series(omega_dt, eta, epochs, n_points):
    """A Fig2 predictor series at omega 1 and its epoch map's exact envelope rate."""
    cfg = config_from_dict({"experiment": "Fig2Distinguishable", "system": {"omega": 1.0},
                            "env": {"dt": omega_dt, "eta": eta},
                            "grid": {"t_max": epochs * omega_dt, "n_points": n_points}})
    return predictor_series(cfg), epoch_map_spectrum(cfg.system, cfg.env).gamma


def fig5_master_eq_levels(gamma_se, omega_t_span):
    """(series, omega_n) of each level of fig5_master_eq.json's ladder and window, with
    its gamma_se and omega_t_span replaced."""
    cfg = json.loads((CONFIG_DIR / "fig5_master_eq.json").read_text())
    ladder = rabi_frequency_ladder(cfg["system"]["omega"], cfg["ladder"]["n_max"],
                                   cfg["ladder"]["lamb_dicke"])
    n_points = cfg["fit_window"]["n_points"]
    with np.errstate(over="ignore"):
        return [(master_eq_series(MasterEqParams(omega_n, gamma_se),
                                  np.linspace(0.0, omega_t_span / omega_n, n_points)), omega_n)
                for _, omega_n in ladder.entries]


def assert_same_rates(got, want):
    # ten times the step tolerance: two starts of one fit stop within it of each other
    assert got.gamma == pytest.approx(want.gamma, rel=1e-8, abs=0.0)
    assert got.omega_fit == pytest.approx(want.omega_fit, rel=1e-8, abs=0.0)


class TestGammaHint:
    """The fit from the predictor's exact rate, as the pipelines start it, against
    the fit from 0; and the start that a series cannot move, never reported."""

    @settings(max_examples=100, deadline=None)
    @given(omega_dt=st.sampled_from([0.05, 0.08, 0.1]), eta=st.floats(0.99, 0.999),
           epochs=st.integers(1000, 4000), n_points=st.integers(300, 1100))
    def test_fig2_from_its_rate(self, omega_dt, eta, epochs, n_points):
        series, rate = fig2_series(omega_dt, eta, epochs, n_points)
        assert_same_rates(fit_damped_sinusoid(series, 1.0, gamma_hint=rate),
                          fit_damped_sinusoid(series, 1.0))

    @settings(max_examples=100, deadline=None)
    @given(omega=st.floats(0.19, 1.0), gamma_se=st.floats(0.005, 0.1),
           omega_t_span=st.floats(40.0, 60.0), n_points=st.integers(300, 400))
    def test_master_eq_from_its_rate(self, omega, gamma_se, omega_t_span, n_points):
        # the master-equation presets' and workload items' frequencies, rates and windows
        series = master_eq_series(MasterEqParams(omega, gamma_se),
                                  np.linspace(0.0, omega_t_span / omega, n_points))
        assert_same_rates(fit_damped_sinusoid(series, omega, gamma_hint=0.75 * gamma_se),
                          fit_damped_sinusoid(series, omega))

    @settings(max_examples=20, deadline=None)
    @given(hint=st.floats(5e-324, 7.5e-21))
    @example(hint=7.5e-21)  # 3 gamma_se / 4, the pipeline's start
    def test_unmoved_start_at_a_negligible_rate(self, hint):
        # gamma_se 1e-20: from any start up to 3 gamma_se / 4 the first step is below
        # tolerance, so the fit would end on its start; it fits from 0 instead, to 0
        for series, omega_n in fig5_master_eq_levels(1e-20, 40.0):
            want = fit_outcome(fit_damped_sinusoid, series, omega_n, None)
            assert want["gamma"] == "0.0"
            hinted = functools.partial(fit_damped_sinusoid, gamma_hint=hint)
            assert fit_outcome(hinted, series, omega_n, None) == want

    @settings(max_examples=20, deadline=None)
    @given(hint=st.floats(5e-324, 1.7976931348623157e308))
    @example(hint=0.0075)  # 3 gamma_se / 4 at the preset's gamma_se 0.01
    def test_unmoved_start_over_an_overflowing_window(self, hint):
        # omega t up to 1e300: exp(-gamma t) is 0 past t = 0 from any start, so no
        # column of J moves; from 0, J^T J overflows and the fit fails
        for series, omega_n in fig5_master_eq_levels(0.01, 1e300):
            want = fit_outcome(fit_damped_sinusoid, series, omega_n, None)
            assert want[0] is FitConvergenceError
            hinted = functools.partial(fit_damped_sinusoid, gamma_hint=hint)
            assert fit_outcome(hinted, series, omega_n, None) == want

    def test_moved_start_that_fails_is_reported(self):
        # uniform noise: from the hint, gamma moves to 4.54 before the damping runs out;
        # that failure is reported, though the fit from 0 would end (at gamma 0.249)
        y = np.random.default_rng(8).uniform(0.0, 1.0, 28)
        series = ProbabilitySeries(np.linspace(0.0, 4.0 * math.pi, 28), y, {})
        with pytest.raises(FitConvergenceError, match="damping exhausted") as err:
            fit_damped_sinusoid(series, 1.97, gamma_hint=2.72)
        assert err.value.params["gamma"] == pytest.approx(4.5414095, rel=1e-6)

    def test_fixed_gamma_ignores_the_hint(self):
        series, rate = fig2_series(0.08, 0.99, 750, 400)
        hinted = functools.partial(fit_damped_sinusoid, gamma_hint=rate)
        for free in FREE_SUBSETS:
            if "gamma" not in free:
                assert (fit_outcome(hinted, series, 1.0, free)
                        == fit_outcome(fit_damped_sinusoid, series, 1.0, free)), sorted(free)

    @pytest.mark.parametrize("hint", [-1e-3, -math.inf, math.inf, math.nan])
    def test_bad_hint_raises(self, hint):
        series, _ = fig2_series(0.08, 0.99, 750, 400)
        with pytest.raises(ValueError, match="gamma_hint must be non-negative and finite"):
            fit_damped_sinusoid(series, 1.0, gamma_hint=hint)
