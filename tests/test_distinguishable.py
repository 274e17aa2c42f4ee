import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rabideco.core import InitialState, RabiSystem, clamp_probability_array
from rabideco.distinguishable import (
    DistinguishableEnv,
    build_predictor,
    epoch_map_spectrum,
    sample_series,
)
from rabideco.fitting import fit_damped_sinusoid

from .reference import born_ground_prob

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
    # p is continuous at each epoch, so the query at n dt meets p_{n-1}(n dt)
    at_epochs = sample_series(pred, omega_dt * np.arange(n_max + 1)).probs
    assert float(np.max(np.abs(at_epochs - boundary))) <= 1e-12
    assert float(np.max(np.abs(series.probs - probs))) <= 1e-12
    assert np.all((series.probs >= 0.0) & (series.probs <= 1.0))


def interval_edges(dt, n):
    """The last float of interval n - 1 and the first float of interval n."""
    right = n * dt
    while math.floor(right / dt) < n:
        right = math.nextafter(right, math.inf)
    left = math.nextafter(right, 0.0)
    while math.floor(left / dt) >= n:
        left = math.nextafter(left, 0.0)
    right = math.nextafter(left, math.inf)
    return left, right


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
        ns = range(1, pred.n_max + 1)
        for n, p in zip(ns, sample_series(pred, [n * 0.3 for n in ns]).probs):
            assert p == math.sin(n * 0.3) ** 2

    def test_predict_equals_born_exactly(self):
        pred = make(eta=1.0, dt=0.3, t_max=30.0)
        grid = np.linspace(0.0, 25.0, 173)
        for t, p in zip(grid, sample_series(pred, grid).probs):
            assert p == born_ground_prob(SYSTEM, float(t))

    @pytest.mark.parametrize("state", list(InitialState))
    @pytest.mark.parametrize("dt,n_max", [(0.3, 101), (0.08, 100_000), (2.9, 100_000)])
    def test_series_equals_born_on_grid(self, dt, n_max, state):
        system = RabiSystem(omega=1.0, initial_state=state)
        pred = build_predictor(system, DistinguishableEnv(dt=dt, eta=1.0), n_max)
        grid = np.linspace(0.0, n_max * dt, 1001)
        series = sample_series(pred, grid)
        expected = np.sin(grid) ** 2
        if state is InitialState.GROUND:
            expected = 1.0 - expected
        np.testing.assert_array_equal(series.probs, expected)


class TestRecursion:
    def test_first_boundary_is_undisturbed_born(self):
        # nothing can have interfered before the first epoch
        pred = make(eta=0.93, dt=0.4)
        assert sample_series(pred, [0.4]).probs[0] == pytest.approx(math.sin(0.4) ** 2, abs=1e-15)

    def test_first_interval_is_plain_born(self):
        pred = make(eta=0.93, dt=0.4)
        for t, p in zip((0.0, 0.1, 0.39), sample_series(pred, [0.0, 0.1, 0.39]).probs):
            assert p == born_ground_prob(SYSTEM, t)

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
        assert sample_series(pred, [t]).probs[0] == pytest.approx(expected, abs=1e-15)

    def test_boundary_continuity(self):
        pred = make(eta=0.97, dt=0.11, t_max=40.0)
        for n in range(1, pred.n_max + 1):
            p_left, p_right = sample_series(pred, interval_edges(0.11, n)).probs
            assert abs(p_right - p_left) < 1e-12

    def test_ground_preparation_swaps_base_case(self):
        pred_e = make(eta=0.95, dt=0.2)
        pred_g = make(eta=0.95, dt=0.2, state=InitialState.GROUND)
        grid = np.linspace(0.0, 30.0, 97)
        # two-level completeness ties the two preparations together
        for p_g, p_e in zip(sample_series(pred_g, grid).probs, sample_series(pred_e, grid).probs):
            assert p_g == pytest.approx(1.0 - p_e, abs=1e-12)

    def test_outputs_in_unit_interval(self):
        pred = make(eta=0.5, dt=0.13)
        series = sample_series(pred, np.linspace(0.0, 50.0, 700))
        assert np.all(series.probs >= 0.0) and np.all(series.probs <= 1.0)

    def test_scale_invariance(self):
        c = 3.0
        pred = make(eta=0.97, dt=0.1, omega=1.0)
        pred_scaled = make(eta=0.97, dt=0.1 / c, omega=c)
        grid = np.linspace(0.0, 30.0, 50)
        scaled, plain = sample_series(pred_scaled, grid / c).probs, sample_series(pred, grid).probs
        for p_scaled, p in zip(scaled, plain):
            assert p_scaled == pytest.approx(p, abs=1e-12)


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
    def test_negative_n_max(self):
        with pytest.raises(ValueError, match="n_max must be non-negative, got -1"):
            build_predictor(SYSTEM, DistinguishableEnv(dt=0.08, eta=0.99), -1)

    def test_beyond_built_range(self):
        pred = make(eta=0.99, dt=0.5, t_max=5.0)
        with pytest.raises(ValueError, match="n_max"):
            sample_series(pred, [(pred.n_max + 1) * 0.5 + 0.1])

    def test_negative_time(self):
        pred = make()
        with pytest.raises(ValueError):
            sample_series(pred, [-0.5])

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
        # a point's value does not depend on the rest of its grid
        pred = make(eta=0.96, dt=0.21)
        grid = np.linspace(0.0, 35.0, 140)
        series = sample_series(pred, grid)
        for t, p in zip(grid, series.probs):
            assert p == pytest.approx(sample_series(pred, [t]).probs[0], abs=1e-12)


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
        pred = make(eta=eta, dt=dt, state=state)
        x = sample_series(pred, dt * np.arange(pred.n_max + 1)).probs - 0.5
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


class TestEpochMapSpectrum:
    @pytest.mark.parametrize("eta,omega_dt", [(0.99, 0.08), (0.5, 0.08), (0.9, 0.7), (0.0, 0.3),
                                              (0.3, 1.4), (0.5, 2.9), (1.0, 0.08)])
    def test_roots_are_the_eigenvalues_of_a(self, eta, omega_dt):
        env = DistinguishableEnv(omega_dt, eta)
        spectrum = epoch_map_spectrum(SYSTEM, env)
        matrix = build_predictor(SYSTEM, env, 1).squarings[0][0]  # A, rounded once
        want = sorted(np.linalg.eigvals(matrix), key=lambda z: (-abs(z), -z.imag))
        np.testing.assert_allclose(spectrum.roots, want, rtol=0.0, atol=1e-12)
        assert spectrum.regime == ("complex" if np.iscomplexobj(spectrum.roots[0]) else "real")

    @pytest.mark.parametrize("eta,dt", [(0.99, 0.08), (0.997, 0.1), (0.9, 0.3)])
    def test_complex_roots_have_modulus_sqrt_eta(self, eta, dt):
        spectrum = epoch_map_spectrum(SYSTEM, DistinguishableEnv(dt, eta))
        assert spectrum.regime == "complex"
        assert [abs(root) for root in spectrum.roots] == pytest.approx([math.sqrt(eta)] * 2,
                                                                          rel=1e-14)
        assert spectrum.gamma == -math.log(eta) / (2.0 * dt)

    @pytest.mark.parametrize("state", [InitialState.EXCITED, InitialState.GROUND])
    @pytest.mark.parametrize("eta,dt", [(0.5, 0.08), (0.2, 0.3), (0.6, 0.05)])
    def test_real_rate_is_the_log_slope_of_the_predictor(self, eta, dt, state):
        # with real roots b_n - 1/2 ~ c lambda_max^n, the slower root alone at large n
        env = DistinguishableEnv(dt, eta)
        spectrum = epoch_map_spectrum(SYSTEM, env)
        assert spectrum.regime == "real"
        pred = build_predictor(RabiSystem(1.0, state), env, 402)
        n = next(n for n in range(10, 400) if (spectrum.roots[1] / spectrum.roots[0]) ** n < 1e-17)
        x0, x1 = sample_series(pred, [n * dt, (n + 1) * dt]).probs - 0.5
        assert -math.log(x1 / x0) / dt == pytest.approx(spectrum.gamma, rel=1e-9)

    def test_fig2_eta_half(self):
        spectrum = epoch_map_spectrum(SYSTEM, DistinguishableEnv(0.08, 0.5))
        assert spectrum.regime == "real"
        assert spectrum.roots == pytest.approx((0.96002, 0.52082), abs=1e-5)
        assert spectrum.gamma == pytest.approx(0.5101, abs=1e-4)

    def test_total_collapse(self):
        # eta = 0 at cos(2 omega dt) = 0 maps every state to 1/2 in one epoch
        spectrum = epoch_map_spectrum(RabiSystem(math.pi / 4.0), DistinguishableEnv(1.0, 0.0))
        assert spectrum.regime == "real" and spectrum.roots[1] == 0.0
        assert spectrum.gamma > 30.0


PREVIOUS_CHUNK = 4096  # epochs per pass of the previous build_predictor's scalar loop


def previous_build_predictor(system, env, n_max):
    """`build_predictor` as it was before the squarings, verbatim but for its
    return: the epoch loop's (boundary_values, born_weights, coeffs) arrays."""
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
    for start in range(1, n_max + 1, PREVIOUS_CHUNK):
        stop = min(start + PREVIOUS_CHUNK, n_max + 1)
        epochs = np.arange(start, stop, dtype=float)
        w = weights[start - 1:stop - 1]  # level n-1's weight for epoch n
        base = w * system.initial_state.born_ground(omega * (dt * epochs)) + 0.5 * (1.0 - w)
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
    return clamp_probability_array(boundary), weights, coeffs


def previous_sample_series(system, env, n_max, grid):
    """The previous `sample_series` on the previous loop's arrays: its boundary
    values and the probabilities on `grid`."""
    boundary, weights, coeffs = previous_build_predictor(system, env, n_max)
    times = np.asarray(grid, dtype=float)
    n = np.floor(times / env.dt).astype(int)
    rotated = coeffs[n] * np.exp(2j * system.omega * times)
    born = system.initial_state.born_ground(system.omega * times)
    probs = weights[n] * born + 0.5 * (1.0 - weights[n]) + rotated.real
    return boundary, clamp_probability_array(probs)


def against_previous(eta, omega_dt, n_max, state, omega=1.0, n_points=501):
    """(system, env, times, new, previous): the probabilities at `times`, a grid
    across the built range followed by every epoch n dt, where the previous
    path gives its boundary values p_{n-1}(n dt)."""
    system = RabiSystem(omega, state)
    env = DistinguishableEnv(dt=omega_dt / omega, eta=eta)
    pred = build_predictor(system, env, n_max)
    grid = np.linspace(0.0, (n_max + 1) * env.dt * (1.0 - 1e-9), n_points)
    boundary, probs = previous_sample_series(system, env, n_max, grid)
    epochs = env.dt * np.arange(n_max + 1)
    new = [sample_series(pred, grid).probs, sample_series(pred, epochs).probs]
    return system, env, np.concatenate([grid, epochs]), np.concatenate(new), np.concatenate([probs, boundary])


def max_deviation_from_previous(eta, omega_dt, n_max, state, omega=1.0, n_points=501):
    *_, new, previous = against_previous(eta, omega_dt, n_max, state, omega, n_points)
    return float(np.max(np.abs(new - previous)))


def worst_deviations(times, new, previous, count=20):
    """Indices of the `count` largest |new - previous|, in time order."""
    worst = np.argsort(np.abs(new - previous))[-count:]
    return worst[np.argsort(times[worst], kind="stable")]


def exact_probs(system, env, times):
    """p(t) from the epoch map E_n = A E_{n-1} run in 40-digit arithmetic on the
    exact values of the float inputs, at sorted `times`."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        omega, dt = mpmath.mpf(system.omega), mpmath.mpf(env.dt)
        c, s, eta = mpmath.cos(2 * omega * dt), mpmath.sin(2 * omega * dt), mpmath.mpf(env.eta)
        x = mpmath.mpf(-0.5 if system.initial_state is InitialState.EXCITED else 0.5)
        y, n, out = mpmath.mpf(0), 0, []
        for t in times.tolist():
            while (n + 1) * dt <= t:
                x, y, n = c * x - s * y, eta * (s * x + c * y), n + 1
            phase = 2 * omega * (mpmath.mpf(t) - n * dt)
            out.append(float(0.5 + x * mpmath.cos(phase) - y * mpmath.sin(phase)))
    return np.array(out)


class TestAgainstPreviousLoop:
    # omega = 1 keeps omega t and 2 omega t exact in floating point, so the
    # previous loop is exact to ~1e-15 (checked against mpmath below) and
    # a deviation is the new path's; at other omega both carry the rounding
    # of omega t, about eps omega t, which reaches 1e-11 at 1e5 epochs of
    # omega dt = 3 (see test_no_further_from_exact_than_previous)
    @pytest.mark.parametrize("state", list(InitialState))
    @pytest.mark.parametrize("eta", [0.0, 0.5, 0.99, 0.997, 1.0 - 1e-5, 1.0])
    @pytest.mark.parametrize("omega_dt,n_max", [(0.08, 2500), (1.3, 300), (2.9, 100_000),
                                                (0.7, 0), (0.1, 1), (0.05, 2 * PREVIOUS_CHUNK + 1)])
    def test_matches(self, eta, omega_dt, n_max, state):
        assert max_deviation_from_previous(eta, omega_dt, n_max, state) <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(eta=st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 5e-324, 1.0 - 2**-53, 1.0])),
           omega_dt=st.floats(0.0, 3.0, exclude_min=True, allow_subnormal=False),
           n_max=st.integers(0, 100_000), state=st.sampled_from(list(InitialState)))
    def test_matches_property(self, eta, omega_dt, n_max, state):
        system, env, times, new, previous = against_previous(eta, omega_dt, n_max, state,
                                                             n_points=97)
        if float(np.max(np.abs(new - previous))) > 1e-12:
            # the previous loop rounds b_n once per epoch; where A's slower
            # eigenvalue is near 1 that drift adds up (test_previous_loop_drifts),
            # so the exact values decide at the largest deviations
            worst = worst_deviations(times, new, previous)
            exact = exact_probs(system, env, times[worst])
            assert float(np.max(np.abs(new[worst] - exact))) <= 1e-12

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= 2.0**-52,
                        reason="long double is plain double on this platform")
    def test_squarings_in_extended_precision(self):
        # squared in double, A and Q round apart and each A^(2^k) carries
        # 2^k roundings: 2.8e-12 from the exact value here
        assert max_deviation_from_previous(1.0 - 2**-53, 2.5387058540895575, 80226,
                                           InitialState.GROUND) <= 1e-12

    def test_previous_loop_drifts(self):
        # eta = 0 and a tiny omega dt: A = [[cos, -sin], [0, 0]] has the
        # eigenvalue cos(2 omega dt) = 1 - 2.8e-14, and the previous loop's
        # rounding of b_n to double adds up over the 93963 epochs
        system, env, times, new, previous = against_previous(
            0.0, 2.385268306785017e-07, 93963, InitialState.GROUND, n_points=97)
        worst = worst_deviations(times, new, previous)
        exact = exact_probs(system, env, times[worst])
        assert float(np.max(np.abs(previous[worst] - exact))) > 2e-12
        assert float(np.max(np.abs(new[worst] - exact))) <= 1e-15

    @pytest.mark.parametrize("state", list(InitialState))
    @pytest.mark.parametrize("omega_dt", [0.0005, 0.08, 0.7, 1.5])
    def test_double_eigenvalue(self, omega_dt, state):
        # (1 + eta)^2 cos^2(2 omega dt) = 4 eta: sqrt(eta) = (1 - |sin|) / |cos|,
        # where A is a Jordan block and A^n grows like n lambda^n
        theta = 2.0 * omega_dt
        eta = ((1.0 - abs(math.sin(theta))) / abs(math.cos(theta))) ** 2
        assert abs((1.0 + eta) ** 2 * math.cos(theta) ** 2 - 4.0 * eta) <= 1e-14
        assert max_deviation_from_previous(eta, omega_dt, 20_000, state) <= 1e-12

    def test_no_further_from_exact_than_previous(self):
        # omega = 1.37: omega t and the epoch phase round, in both paths
        system, env, n_max = RabiSystem(1.37), DistinguishableEnv(dt=3.0 / 1.37, eta=0.99999), 20_000
        grid = np.linspace(0.0, n_max * env.dt, 201)
        new = sample_series(build_predictor(system, env, n_max), grid).probs
        _, previous = previous_sample_series(system, env, n_max, grid)
        exact = exact_probs(system, env, grid)
        assert float(np.max(np.abs(new - exact))) <= float(np.max(np.abs(previous - exact))) + 1e-13
        assert float(np.max(np.abs(new - exact))) <= 1e-11

    def test_transient_memory_per_epoch(self):
        # one 2x2x2 squaring per bit of n_max, 64 bytes each; nothing per epoch
        system, env = RabiSystem(1.0), DistinguishableEnv(dt=0.08, eta=0.99)
        build_predictor(system, env, 10)
        peaks = {}
        for n_max in (1_000, 200_000):
            tracemalloc.start()
            try:
                build_predictor(system, env, n_max)
                peaks[n_max] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        extra_bits = (200_000).bit_length() - (1_000).bit_length()
        assert peaks[200_000] <= peaks[1_000] + 64 * extra_bits
        assert peaks[200_000] < 8192
