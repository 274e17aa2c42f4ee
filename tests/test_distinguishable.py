import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rabideco.core import InitialState, RabiSystem, born_ground_prob, clamp_probability_array
from rabideco.distinguishable import (
    _CHUNK,
    DistinguishableEnv,
    PiecewisePredictor,
    _born_ground_array,
    build_predictor,
    predict_excited_prob,
    predict_ground_prob,
    sample_series,
)
from rabideco.fitting import fit_damped_sinusoid

SYSTEM = RabiSystem(omega=1.0)


def sweep_reference(system, env, n_max, grid):
    """Level-by-level sweep of the recursion: O(n_max^2) reference.

    Returns the boundary values p_{n-1}(n dt) and the predictor on `grid`,
    each level promoted from the one below it with cos^2/sin^2 weights.
    """
    dt, eta, omega = env.dt, env.eta, system.omega

    def born(t):
        s2 = np.sin(omega * t) ** 2
        return s2 if system.initial_state is InitialState.EXCITED else 1.0 - s2

    def promote(v, t, j, b_j):
        phase = omega * (t - j * dt)
        collapsed = np.cos(phase) ** 2 * b_j + np.sin(phase) ** 2 * (1.0 - b_j)
        return eta * v + (1.0 - eta) * collapsed

    boundary = np.empty(n_max + 1)
    boundary[0] = born_ground_prob(system, 0.0)
    times = dt * np.arange(1, n_max + 1)
    v = born(times)
    for j in range(1, n_max + 1):
        boundary[j] = v[j - 1]
        v[j:] = promote(v[j:], times[j:], j, boundary[j])

    grid = np.asarray(grid, dtype=float)
    probs = born(grid)
    for j in range(1, n_max + 1):
        start = int(np.searchsorted(grid, j * dt, side="left"))
        probs[start:] = promote(probs[start:], grid[start:], j, boundary[j])
    return boundary, probs


def assert_matches_sweep(eta, omega_dt, state, n_max, n_points=301):
    system = RabiSystem(omega=1.0, initial_state=state)
    env = DistinguishableEnv(dt=omega_dt, eta=eta)
    pred = build_predictor(system, env, n_max)
    grid = np.linspace(0.0, (n_max + 1) * omega_dt * (1.0 - 1e-9), n_points)
    boundary, probs = sweep_reference(system, env, n_max, grid)
    series = sample_series(pred, grid)
    assert float(np.max(np.abs(pred.boundary_values - boundary))) <= 1e-12
    assert float(np.max(np.abs(series.probs - probs))) <= 1e-12
    assert np.all((series.probs >= 0.0) & (series.probs <= 1.0))


def make(eta=0.99, dt=0.08, t_max=60.0, omega=1.0, state=InitialState.EXCITED):
    system = RabiSystem(omega=omega, initial_state=state)
    env = DistinguishableEnv(dt=dt, eta=eta)
    return build_predictor(system, env, math.ceil(t_max / dt) + 1)


class TestEnv:
    def test_invalid_fields(self):
        with pytest.raises(ValueError):
            DistinguishableEnv(dt=0.0, eta=0.5)
        with pytest.raises(ValueError):
            DistinguishableEnv(dt=1.0, eta=1.5)
        with pytest.raises(ValueError):
            DistinguishableEnv(dt=1.0, eta=-0.1)


class TestIsolatedReduction:
    def test_boundary_values_are_born(self):
        pred = make(eta=1.0, dt=0.3, t_max=30.0)
        for n in range(1, pred.n_max + 1):
            assert pred.boundary_values[n] == math.sin(n * 0.3) ** 2

    def test_predict_equals_born_exactly(self):
        pred = make(eta=1.0, dt=0.3, t_max=30.0)
        for t in np.linspace(0.0, 25.0, 173):
            assert predict_ground_prob(pred, float(t)) == born_ground_prob(SYSTEM, float(t))

    def test_series_equals_born_on_grid(self):
        pred = make(eta=1.0, dt=0.3, t_max=30.0)
        grid = np.linspace(0.0, 25.0, 100)
        series = sample_series(pred, grid)
        expected = np.sin(grid) ** 2
        np.testing.assert_array_equal(series.probs, expected)


class TestRecursion:
    def test_first_boundary_is_undisturbed_born(self):
        # nothing can have interfered before the first epoch
        pred = make(eta=0.93, dt=0.4)
        assert pred.boundary_values[1] == pytest.approx(math.sin(0.4) ** 2, abs=1e-15)

    def test_first_interval_is_plain_born(self):
        pred = make(eta=0.93, dt=0.4)
        for t in (0.0, 0.1, 0.39):
            assert predict_ground_prob(pred, t) == born_ground_prob(SYSTEM, t)

    def test_explicit_three_term_expression(self):
        # one epoch past: eta * p0(t) + (1-eta) * (cos^2(w(t-dt)) p0(dt)
        #                                          + sin^2(w(t-dt)) (1 - p0(dt)))
        eta, dt = 0.9, 0.4
        pred = make(eta=eta, dt=dt)
        t = 1.5 * dt
        p0_dt = math.sin(dt) ** 2
        expected = eta * math.sin(t) ** 2 + (1.0 - eta) * (
            math.cos(t - dt) ** 2 * p0_dt + math.sin(t - dt) ** 2 * (1.0 - p0_dt)
        )
        assert predict_ground_prob(pred, t) == pytest.approx(expected, abs=1e-15)

    def test_boundary_continuity(self):
        pred = make(eta=0.97, dt=0.11, t_max=40.0)
        for n in range(1, pred.n_max + 1):
            t = n * 0.11
            assert abs(predict_ground_prob(pred, t) - pred.boundary_values[n]) < 1e-12

    def test_complementarity(self):
        pred = make(eta=0.95, dt=0.17)
        for t in np.linspace(0.0, 40.0, 311):
            total = predict_ground_prob(pred, float(t)) + predict_excited_prob(pred, float(t))
            assert abs(total - 1.0) < 1e-12

    def test_ground_preparation_swaps_base_case(self):
        pred_e = make(eta=0.95, dt=0.2)
        pred_g = make(eta=0.95, dt=0.2, state=InitialState.GROUND)
        for t in np.linspace(0.0, 30.0, 97):
            # two-level completeness ties the two preparations together
            assert predict_ground_prob(pred_g, float(t)) == pytest.approx(
                predict_excited_prob(pred_e, float(t)), abs=1e-12
            )

    def test_outputs_in_unit_interval(self):
        pred = make(eta=0.5, dt=0.13)
        series = sample_series(pred, np.linspace(0.0, 50.0, 700))
        assert np.all(series.probs >= 0.0) and np.all(series.probs <= 1.0)

    def test_scale_invariance(self):
        c = 3.0
        pred = make(eta=0.97, dt=0.1, omega=1.0)
        pred_scaled = make(eta=0.97, dt=0.1 / c, omega=c)
        for t in np.linspace(0.0, 30.0, 50):
            assert predict_ground_prob(pred_scaled, float(t) / c) == pytest.approx(
                predict_ground_prob(pred, float(t)), abs=1e-12
            )


class TestAgainstSweep:
    @pytest.mark.parametrize("state", [InitialState.EXCITED, InitialState.GROUND])
    @pytest.mark.parametrize("omega_dt", [0.05, 0.08, 0.3, 1.0, 2.3])
    @pytest.mark.parametrize("eta", [0.0, 0.5, 0.99, 1.0])
    def test_matches_sweep(self, eta, omega_dt, state):
        assert_matches_sweep(eta, omega_dt, state, n_max=800)

    @settings(max_examples=60, deadline=None)
    @given(
        eta=st.floats(0.0, 1.0),
        omega_dt=st.floats(0.0, 3.0, exclude_min=True, allow_subnormal=False),
        state=st.sampled_from(list(InitialState)),
        n_max=st.integers(0, 500),
    )
    def test_matches_sweep_property(self, eta, omega_dt, state, n_max):
        assert_matches_sweep(eta, omega_dt, state, n_max, n_points=97)


class TestRangeHandling:
    def test_beyond_built_range(self):
        pred = make(eta=0.99, dt=0.5, t_max=5.0)
        with pytest.raises(ValueError, match="n_max"):
            predict_ground_prob(pred, (pred.n_max + 1) * 0.5 + 0.1)

    def test_negative_time(self):
        pred = make()
        with pytest.raises(ValueError):
            predict_ground_prob(pred, -0.5)

    def test_unsorted_grid(self):
        pred = make()
        with pytest.raises(ValueError, match="sorted"):
            sample_series(pred, [1.0, 0.5])


class TestSeries:
    def test_empty_grid(self):
        series = sample_series(make(), [])
        assert len(series) == 0

    def test_singleton_zero(self):
        series = sample_series(make(), [0.0])
        assert series.times[0] == 0.0 and series.probs[0] == 0.0

    def test_metadata(self):
        series = sample_series(make(eta=0.98, dt=0.25), [0.0, 1.0])
        assert series.meta["predictor"] == "distinguishable"
        assert series.meta["eta"] == 0.98
        assert series.meta["dt"] == 0.25

    def test_series_matches_pointwise_predict(self):
        pred = make(eta=0.96, dt=0.21)
        grid = np.linspace(0.0, 35.0, 140)
        series = sample_series(pred, grid)
        for t, p in zip(grid, series.probs):
            assert p == pytest.approx(predict_ground_prob(pred, float(t)), abs=1e-12)


class TestLongRunBehaviour:
    def test_steady_state_offset_is_half(self):
        pred = make(eta=0.99, dt=0.08, t_max=200.0)
        series = sample_series(pred, np.linspace(0.0, 200.0, 1200))
        tail = series.probs[series.times >= 160.0]
        assert abs(float(tail.mean()) - 0.5) < 0.02

    def test_no_early_time_frequency_shift(self):
        pred = make(eta=0.99, dt=0.08, t_max=12.0)
        fit = fit_damped_sinusoid(
            sample_series(pred, np.linspace(0.0, 10.0, 200)), omega_hint=1.0
        )
        assert fit.omega_fit == pytest.approx(1.0, rel=0.01)

    @pytest.mark.parametrize(
        "eta,dt",
        [(0.99, 0.1), (0.997, 0.1), (0.99, 0.08), (0.95, 0.2)],
    )
    def test_fitted_decay_matches_envelope_rate(self, eta, dt):
        # the recursion's asymptotic envelope contracts by sqrt(eta) per
        # epoch, so the fitted decay factor is -ln(eta) / (2 dt)
        pred = make(eta=eta, dt=dt, t_max=60.0)
        fit = fit_damped_sinusoid(
            sample_series(pred, np.linspace(0.0, 60.0, 400)), omega_hint=1.0
        )
        assert fit.gamma == pytest.approx(-math.log(eta) / (2.0 * dt), rel=5e-3)

    @pytest.mark.parametrize("state", [InitialState.EXCITED, InitialState.GROUND])
    @pytest.mark.parametrize("eta", [0.99, 0.997])
    def test_envelope_recurrence_without_fitter(self, eta, state):
        # The oscillating part of the recursion follows the epoch map
        # R(2 omega dt) diag(1, eta), with trace (1 + eta) cos(2 omega dt) and
        # determinant eta, so the boundary values obey
        #   b_{n+1} - 1/2 = (1 + eta) cos(2 omega dt) (b_n - 1/2) - eta (b_{n-1} - 1/2).
        # With complex eigenvalues both have modulus sqrt(eta): the envelope
        # contracts by sqrt(eta) per epoch, i.e. gamma = -ln(eta) / (2 dt).
        dt = 0.08
        trace = (1.0 + eta) * math.cos(2.0 * dt)
        assert trace ** 2 < 4.0 * eta
        x = make(eta=eta, dt=dt, state=state).boundary_values - 0.5
        residual = x[2:] - trace * x[1:-1] + eta * x[:-2]
        assert float(np.max(np.abs(residual))) <= 1e-12

    def test_published_decay_factors(self):
        # eta = 0.99 -> gamma/omega = 0.05, eta = 0.997 -> 0.015, both at
        # an interference scale of one tenth of a Rabi period unit
        for eta, expected, tol in ((0.99, 0.05, 0.005), (0.997, 0.015, 0.003)):
            pred = make(eta=eta, dt=0.1, t_max=60.0)
            fit = fit_damped_sinusoid(
                sample_series(pred, np.linspace(0.0, 60.0, 400)), omega_hint=1.0
            )
            assert abs(fit.gamma - expected) < tol


def previous_build_predictor(system, env, n_max):
    """`build_predictor` as it was before its loop kept c in a local (verbatim)."""
    if n_max < 0:
        raise ValueError(f"n_max must be non-negative, got {n_max}")
    dt, eta, omega = env.dt, env.eta, system.omega
    epochs = np.arange(n_max + 1, dtype=float)
    weights = eta**epochs
    born = _born_ground_array(system, dt * epochs)
    turns = np.exp(2j * omega * dt * epochs)  # e^{2i omega n dt}
    boundary = [born_ground_prob(system, 0.0)]
    coeffs = [0j]
    # zip pairs level n-1's weight with epoch n's Born value and phase
    for w, born_n, turn in zip(weights.tolist(), born[1:].tolist(), turns[1:].tolist()):
        c = coeffs[-1]
        b = w * born_n + 0.5 * (1.0 - w) + (c * turn).real
        boundary.append(b)
        coeffs.append(eta * c + (1.0 - eta) * (b - 0.5) * turn.conjugate())
    return PiecewisePredictor(
        system, env, n_max, clamp_probability_array(np.array(boundary)),
        weights, np.array(coeffs),
    )


class TestAgainstPreviousLoop:
    @pytest.mark.parametrize("state", list(InitialState))
    @pytest.mark.parametrize("eta", [0.0, 0.5, 0.99, 0.997, 1.0])
    @pytest.mark.parametrize("omega_dt,n_max", [(0.08, 2500), (1.3, 300), (0.7, 0), (0.1, 1)])
    def test_bit_identical(self, eta, omega_dt, n_max, state):
        system, env = RabiSystem(omega_dt / 0.25, state), DistinguishableEnv(dt=0.25, eta=eta)
        new, old = build_predictor(system, env, n_max), previous_build_predictor(system, env, n_max)
        for field in ("boundary_values", "born_weights", "coeffs"):
            assert getattr(new, field).tobytes() == getattr(old, field).tobytes(), field

    @pytest.mark.parametrize("state", list(InitialState))
    @pytest.mark.parametrize("eta", [0.0, 0.99, 1.0])
    @pytest.mark.parametrize("n_max", [_CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 17])
    def test_bit_identical_across_chunks(self, eta, n_max, state):
        system, env = RabiSystem(0.08 / 0.25, state), DistinguishableEnv(dt=0.25, eta=eta)
        new, old = build_predictor(system, env, n_max), previous_build_predictor(system, env, n_max)
        for field in ("boundary_values", "born_weights", "coeffs"):
            assert getattr(new, field).tobytes() == getattr(old, field).tobytes(), field

    @settings(max_examples=60, deadline=None)
    @given(eta=st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 5e-324, 1e-300, 1.0])),
           omega_dt=st.one_of(st.floats(1e-3, 3.0), st.integers(1, 48).map(lambda m: m / 16)),
           n_max=st.integers(0, 300), state=st.sampled_from(list(InitialState)))
    def test_bit_identical_property(self, eta, omega_dt, n_max, state):
        # eta 0 or tiny make zero parts of c_n, whose sign must match too
        system, env = RabiSystem(omega_dt / 0.25, state), DistinguishableEnv(dt=0.25, eta=eta)
        new, old = build_predictor(system, env, n_max), previous_build_predictor(system, env, n_max)
        for field in ("boundary_values", "born_weights", "coeffs"):
            assert getattr(new, field).tobytes() == getattr(old, field).tobytes(), field

    def test_transient_memory_per_epoch(self):
        # the returned arrays take 4 words per epoch (boundary clamped in place)
        n_max = 200_000
        system, env = RabiSystem(1.0), DistinguishableEnv(dt=0.08, eta=0.99)
        build_predictor(system, env, 10)
        tracemalloc.start()
        try:
            build_predictor(system, env, n_max)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / 8.0 / (n_max + 1) <= 5.0
