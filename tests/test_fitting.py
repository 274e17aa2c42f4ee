import dataclasses
import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rabideco import fitting
from rabideco.core import ProbabilitySeries, RabiSystem, born_ground_prob
from rabideco.experiments import config_from_dict, predictor_series
from rabideco.fitting import (
    PARAM_ORDER,
    DampedSinusoidFit,
    FitConvergenceError,
    MasterEqParams,
    damped_sinusoid_jacobian,
    damped_sinusoid_model,
    fit_damped_sinusoid,
    fit_power_law,
    master_eq_prob,
    master_eq_series,
)

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def series_from(func, t_max=30.0, n=400):
    t = np.linspace(0.0, t_max, n)
    return ProbabilitySeries(t, func(t), {})


class TestMasterEq:
    def test_dissipation_free_limit_is_born(self):
        params = MasterEqParams(omega=1.3, gamma_se=0.0)
        system = RabiSystem(1.3)
        for t in np.linspace(0.0, 20.0, 201):
            assert abs(master_eq_prob(params, float(t)) - born_ground_prob(system, float(t))) < 1e-12

    def test_long_time_prefactor(self):
        # gamma_se = omega: limit 4 omega^2 / (gamma^2 + 8 omega^2) = 4/9
        params = MasterEqParams(omega=1.0, gamma_se=1.0)
        assert master_eq_prob(params, 80.0) == pytest.approx(4.0 / 9.0, abs=1e-12)

    def test_strong_driving_limit(self):
        # 2 omega = 100 * (gamma/4): compare against (1/2)(1 - e^{-3gt/4} cos 2wt)
        omega = 1.0
        g = 8.0 * omega / 100.0
        params = MasterEqParams(omega=omega, gamma_se=g)
        ts = np.linspace(0.0, 4.0 / g, 500)
        strong = 0.5 * (1.0 - np.exp(-0.75 * g * ts) * np.cos(2.0 * omega * ts))
        full = np.array([master_eq_prob(params, float(t)) for t in ts])
        assert float(np.max(np.abs(full - strong))) < 0.02

    def test_overdamped_rejected(self):
        with pytest.raises(ValueError, match="regime"):
            MasterEqParams(omega=1.0, gamma_se=8.0)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            master_eq_prob(MasterEqParams(1.0, 0.1), -1.0)

    def test_series_matches_scalar(self):
        params = MasterEqParams(omega=0.8, gamma_se=0.3)
        grid = np.linspace(0.0, 15.0, 77)
        series = master_eq_series(params, grid)
        for t, p in zip(grid, series.probs):
            assert p == pytest.approx(master_eq_prob(params, float(t)), abs=1e-14)


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

    def test_nonconvergence_diagnostics(self):
        t = np.linspace(0.0, 30.0, 60)
        y = np.sin(t) ** 2
        y[10] = math.nan
        with pytest.raises(FitConvergenceError) as err:
            fit_damped_sinusoid(ProbabilitySeries(t, y, {}), omega_hint=1.0)
        assert set(err.value.params) == set(PARAM_ORDER)

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
    omega_hint) while amplitude = -1/2, offset = 1/2, phase = 0 stay fixed.
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

    params = np.array([0.0, omega_hint, -0.5, 0.5, 0.0])
    free_idx = [i for i, name in enumerate(PARAM_ORDER) if name in free]

    resid = reference_model(t, params) - y
    sse = float(resid @ resid)
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


def fit_outcome(fit, series, omega_hint, free_params):
    """Every field of the fit, or of its FitConvergenceError, for an `==` check."""
    try:
        return dataclasses.astuple(fit(series, omega_hint, free_params))
    except FitConvergenceError as exc:
        return str(exc), exc.params, exc.residual_rms.hex()


def assert_same_fit(series, omega_hint=1.0, free_params=None):
    got = fit_outcome(fit_damped_sinusoid, series, omega_hint, free_params)
    assert got == fit_outcome(reference_fit, series, omega_hint, free_params)
    return got


def rich_series(n=300, noise=0.0, seed=5):
    t = np.linspace(0.0, 25.0, n)
    y = 0.52 - 0.45 * np.exp(-0.04 * t) * np.cos(2.0 * 1.03 * t + 0.1)
    return ProbabilitySeries(t, y + noise * np.random.default_rng(seed).standard_normal(n), {})


def preset_series(name):
    cfg = config_from_dict(json.loads((CONFIG_DIR / f"{name}.json").read_text()))
    return predictor_series(cfg), cfg.system.omega


FIT_FIELDS = [field.name for field in dataclasses.fields(DampedSinusoidFit)]
FREE_SUBSETS = [frozenset(c) for r in range(1, 6) for c in itertools.combinations(PARAM_ORDER, r)]


class TestAgainstReferenceFit:
    """The fit equals, bit for bit and in its iteration count, the loop that
    rebuilt the full Jacobian and both exponentials at every iteration."""

    @pytest.mark.parametrize("free", FREE_SUBSETS, ids=lambda f: "+".join(sorted(f)))
    def test_every_free_subset(self, free):
        assert_same_fit(rich_series(noise=0.003), free_params=free)

    @pytest.mark.parametrize("preset", ["fig2a", "fig2b", "fig3", "master_eq"])
    def test_preset_series(self, preset):
        series, omega = preset_series(preset)
        assert_same_fit(series, omega)

    def test_master_eq_predictor_in_fig5(self):
        for omega_n in (1.0, 0.81, 0.43):
            series = master_eq_series(MasterEqParams(omega_n, 0.01),
                                      np.linspace(0.0, 40.0 / omega_n, 300))
            assert_same_fit(series, omega_n)

    def test_noisy_series(self):
        rng = np.random.default_rng(99)
        t = np.linspace(0.0, 30.0, 400)
        y = 0.5 * (1.0 - np.exp(-0.05 * t) * np.cos(2.0 * t)) + rng.uniform(-0.01, 0.01, t.size)
        assert_same_fit(ProbabilitySeries(t, y, {}))

    def test_rejected_steps_reuse_the_normal_equations(self, monkeypatch):
        # a hint 25% off the true frequency makes the first steps overshoot
        series = series_from(lambda t: 0.5 * (1.0 - np.exp(-0.05 * t) * np.cos(2.0 * t)))
        builds = []
        real = fitting._jacobian_into
        monkeypatch.setattr(fitting, "_jacobian_into",
                            lambda *args: builds.append(1) or real(*args))
        got = assert_same_fit(series, omega_hint=1.25)
        iterations = got[FIT_FIELDS.index("iterations")]
        assert 1 <= len(builds) < iterations  # some steps were rejected

    def test_convergence_error(self):
        t = np.linspace(0.0, 30.0, 60)
        y = np.sin(t) ** 2
        y[10] = math.nan
        got = assert_same_fit(ProbabilitySeries(t, y, {}))
        assert got[0].startswith("damping exhausted")

    @settings(max_examples=60, deadline=None)
    @given(gamma=st.floats(0.0, 0.3), omega=st.floats(0.3, 3.0),
           n=st.integers(10, 400), noise=st.floats(0.0, 0.05),
           hint=st.floats(0.8, 1.2), seed=st.integers(0, 2**32 - 1))
    def test_property(self, gamma, omega, n, noise, hint, seed):
        t = np.linspace(0.0, 8.0 * math.pi / omega, n)
        y = 0.5 * (1.0 - np.exp(-gamma * omega * t) * np.cos(2.0 * omega * t))
        y += noise * np.random.default_rng(seed).standard_normal(n)
        assert_same_fit(ProbabilitySeries(t, y, {}), omega_hint=hint * omega)


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
