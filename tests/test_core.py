import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from rabideco.core import (
    PROB_TOL,
    InitialState,
    InvalidEntryError,
    ProbabilitySeries,
    RabiSystem,
    binomial_weights_row,
    clamp_probability_array,
    rabi_frequency_ladder,
    time_grid,
)
from rabideco.distinguishable import (
    DistinguishableEnv,
    build_predictor,
    sample_series,
)
from rabideco.fitting import MasterEqParams, fit_damped_sinusoid, master_eq_series
from rabideco.indistinguishable import (
    IndistinguishableEnv,
    approx_closed_form,
    build_nested_table,
    sample_rescaled_series,
)
from rabideco.montecarlo import EnsembleConfig, simulate_distinguishable

from .reference import laguerre_l1

X_LD = 0.202**2  # 0.040804


def laguerre_series(n: int, x: float) -> float:
    # independent oracle: L^(1)_n(x) = sum_j (-1)^j C(n+1, n-j) x^j / j!
    return sum(
        (-1.0) ** j * math.comb(n + 1, n - j) * x**j / math.factorial(j)
        for j in range(n + 1)
    )


class TestRabiSystem:
    def test_rejects_nonpositive_omega(self):
        with pytest.raises(ValueError):
            RabiSystem(omega=0.0)
        with pytest.raises(ValueError):
            RabiSystem(omega=-1.0)
        with pytest.raises(ValueError):
            RabiSystem(omega=math.inf)

    def test_defaults_to_excited(self):
        assert RabiSystem(1.0).initial_state is InitialState.EXCITED


def born_law(system, grid):
    """The Born law on a grid, by the isolated predictor (eta = 1), which is
    `InitialState.born_ground` at omega t bit for bit."""
    pred = build_predictor(system, DistinguishableEnv(dt=1.0, eta=1.0),
                           math.ceil(max(grid, default=0.0)))
    return sample_series(pred, grid).probs


class TestBornProb:
    def test_freshly_prepared_excited(self):
        assert born_law(RabiSystem(1.0), [0.0])[0] == 0.0

    def test_half_period_transfer(self):
        assert born_law(RabiSystem(1.0), [math.pi / 2])[0] == pytest.approx(1.0)

    def test_omega2_eighth_period(self):
        assert born_law(RabiSystem(2.0), [math.pi / 8])[0] == pytest.approx(0.5)

    def test_ground_preparation_is_cos2(self):
        sys_g = RabiSystem(1.3, InitialState.GROUND)
        for t, p in zip((0.0, 0.4, 2.2), born_law(sys_g, [0.0, 0.4, 2.2])):
            assert p == pytest.approx(math.cos(1.3 * t) ** 2)

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            born_law(RabiSystem(1.0), [-0.1])

    @pytest.mark.parametrize("state", list(InitialState))
    def test_born_law_oscillates_with_the_amplitude(self, state):
        # P_g = 1/2 + a cos(2 phase); the array law is the scalar one elementwise,
        # and the isolated predictor gives it bit for bit
        phase = np.linspace(0.0, 20.0, 101)
        law = state.born_ground(phase)
        assert state.amplitude == (-0.5 if state is InitialState.EXCITED else 0.5)
        np.testing.assert_allclose(law, 0.5 + state.amplitude * np.cos(2.0 * phase),
                                   rtol=0.0, atol=1e-15)
        assert law.tolist() == [float(state.born_ground(t)) for t in phase.tolist()]
        assert law.tolist() == born_law(RabiSystem(1.0, state), phase).tolist()


def pascal_rows(beta: float, n_max: int):
    """The binomial rows 0..n_max, each taken from the one before."""
    row = np.empty(0)
    for _ in range(n_max + 1):
        row = binomial_weights_row(row, beta)
        yield row


class TestBinomialWeightsRow:
    def test_first_rows(self):
        assert binomial_weights_row(np.empty(0), 0.3).tolist() == [1.0]
        assert binomial_weights_row(np.ones(1), 0.25).tolist() == [0.75, 0.25]
        # C(4,2) * 0.5^4 = 6/16
        assert list(pascal_rows(0.5, 4))[-1].tolist() == [1 / 16, 4 / 16, 6 / 16, 4 / 16, 1 / 16]

    @pytest.mark.parametrize("beta", [0.01, 0.37, 0.5, 0.995, 1.0 - 2.0**-50])
    def test_matches_exact_rationals(self, beta):
        # every row to n = 200 against C(n,k) b^k (1-b)^(n-k) in exact arithmetic, b the
        # float beta: a step rounds twice at most, and 1 - beta once. Masses under the
        # normal range keep fewer bits, so only those above it are compared
        num, den = Fraction(beta).as_integer_ratio()
        for n, row in enumerate(pascal_rows(beta, 200)):
            assert row.shape == (n + 1,)
            exact = np.array([math.comb(n, k) * num**k * (den - num) ** (n - k) / den**n
                              for k in range(n + 1)])
            normal = exact >= sys.float_info.min
            np.testing.assert_allclose(row[normal], exact[normal], rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("beta", [0.01, 0.5, 0.995, 1.0])
    @pytest.mark.parametrize("n", [0, 1, 60, 61, 500, 10_000])
    def test_matches_mpmath(self, n, beta):
        # deep rows against 40-digit masses, each from its neighbour by the ratio
        # C(n,k+1)/C(n,k) b/(1-b), starting at (1-b)^n, which floats underflow
        mpmath = pytest.importorskip("mpmath")
        *_, row = pascal_rows(beta, n)
        with mpmath.workdps(40):
            b = mpmath.mpf(beta)
            q = 1 - b
            if q:
                mass, exact = q**n, []
                for k in range(n + 1):
                    exact.append(float(mass))
                    mass *= b * (n - k) / ((k + 1) * q)
            else:
                exact = [0.0] * n + [1.0]
        exact = np.array(exact)
        normal = exact >= sys.float_info.min
        assert row.shape == (n + 1,)
        np.testing.assert_allclose(row[normal], exact[normal], rtol=1e-13, atol=0.0)
        assert (row[~normal] < sys.float_info.min).all()

    def test_certain_survival_is_exact(self):
        for n, row in enumerate(pascal_rows(1.0, 50)):
            assert row.tolist() == [0.0] * n + [1.0]

    @pytest.mark.parametrize("beta", [0.25, 0.5, 0.625, 2.0**-40])
    def test_reflection_symmetry_exact_for_dyadic_beta(self, beta):
        # 1 - beta is exact for dyadic beta, and each mass adds the same two products
        for row, mirror in zip(pascal_rows(beta, 120), pascal_rows(1.0 - beta, 120)):
            assert row.tolist() == mirror[::-1].tolist()

    @pytest.mark.parametrize("n,k,beta", [(9, 2, 0.3), (75, 30, 0.995), (40, 17, 0.77)])
    def test_reflection_symmetry_generic(self, n, k, beta):
        *_, row = pascal_rows(beta, n)
        *_, mirror = pascal_rows(1.0 - beta, n)
        assert row[k] == pytest.approx(mirror[n - k], rel=1e-12)

    @pytest.mark.parametrize("n", [10, 60, 61, 500, 3000, 10_000])
    @pytest.mark.parametrize("beta", [1e-9, 0.01, 0.5, 0.995, 1.0 - 2.0**-50, 1.0])
    def test_normalization(self, beta, n):
        *_, row = pascal_rows(beta, n)
        assert abs(math.fsum(row) - 1.0) <= 1e-12

    def test_domain_errors(self):
        for beta in (0.0, -0.5, 1.2, math.nan):
            with pytest.raises(ValueError):
                binomial_weights_row(np.ones(3), beta)
            with pytest.raises(ValueError):
                binomial_weights_row(np.empty(0), beta)


class TestLaguerre:
    def test_order_zero_is_one(self):
        assert laguerre_l1(0, X_LD) == 1.0

    def test_order_one_closed_form(self):
        assert laguerre_l1(1, X_LD) == pytest.approx(2.0 - X_LD, rel=1e-15)
        assert laguerre_l1(1, X_LD) == pytest.approx(1.959196, abs=1e-12)

    def test_order_four_matches_series(self):
        assert laguerre_l1(4, X_LD) == pytest.approx(laguerre_series(4, X_LD), rel=1e-12)

    @pytest.mark.parametrize("x", [-1.0, -0.25, 0.040804, 0.3, 1.0])
    def test_recurrence_matches_series_oracle(self, x):
        for n in range(31):
            assert laguerre_l1(n, x) == pytest.approx(laguerre_series(n, x), rel=1e-10)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            laguerre_l1(-1, 0.0)
        with pytest.raises(ValueError):
            laguerre_l1(2, math.nan)


class TestFrequencyLadder:
    def test_base_entry(self):
        ladder = rabi_frequency_ladder(3.0, 0)
        expected = 3.0 * 0.202 * math.exp(-X_LD / 2.0)
        assert ladder.omega_n(0) == pytest.approx(expected, rel=1e-14)
        assert ladder.omega_n(0) / 3.0 == pytest.approx(0.19792, abs=5e-6)

    def test_first_ratio(self):
        ladder = rabi_frequency_ladder(1.0, 1)
        ratio = ladder.omega_n(1) / ladder.omega_n(0)
        assert ratio == pytest.approx((2.0 - X_LD) / math.sqrt(2.0), rel=1e-14)
        assert ratio == pytest.approx(1.38536, abs=1e-5)

    def test_entries_match_formula_exactly(self):
        ladder = rabi_frequency_ladder(2.3, 10)
        pref = 0.202 * math.exp(-X_LD / 2.0)
        for n, omega_n in ladder.entries:
            assert omega_n == 2.3 * pref * laguerre_l1(n, X_LD) / math.sqrt(n + 1)

    def test_all_entries_positive(self):
        ladder = rabi_frequency_ladder(1.0, 20)
        assert all(omega > 0.0 for _, omega in ladder.entries)
        # backed by the series oracle for the polynomial factor
        assert all(laguerre_series(n, X_LD) > 0.0 for n in range(21))

    @pytest.mark.parametrize("c", [2.0, 3.7])
    def test_scaling_invariance(self, c):
        base = rabi_frequency_ladder(1.1, 12)
        scaled = rabi_frequency_ladder(c * 1.1, 12)
        for (n, omega), (_, omega_c) in zip(base.entries, scaled.entries):
            assert omega_c == pytest.approx(c * omega, rel=1e-12)

    def test_negative_n_max_rejected(self):
        with pytest.raises(ValueError):
            rabi_frequency_ladder(1.0, -1)

    def test_first_non_positive_frequency_ends_the_ladder(self):
        # L1_88(X_LD) = 0.394 > 0 > L1_89(X_LD) = -0.0174
        assert rabi_frequency_ladder(1.0, 88).omega_n(88) > 0.0
        with pytest.raises(ValueError, match="omega_89 = -0.000363"):
            rabi_frequency_ladder(1.0, 200)
        with pytest.raises(ValueError, match="omega_0 = 0 "):
            rabi_frequency_ladder(1.0, 3, lamb_dicke=1e200)  # exp(-eta^2/2) underflows


class TestClamp:
    def test_passthrough_and_snap(self):
        assert clamp_probability_array(np.array([0.5]))[0] == 0.5
        assert clamp_probability_array(np.array([-1e-13]))[0] == 0.0
        assert clamp_probability_array(np.array([1.0 + 1e-13]))[0] == 1.0

    def test_larger_violations_raise(self):
        with pytest.raises(ValueError):
            clamp_probability_array(np.array([-1e-9]))
        with pytest.raises(ValueError):
            clamp_probability_array(np.array([1.0 + 1e-9]))

    def test_slack_is_exactly_prob_tol(self):
        # an overshoot of PROB_TOL is snapped and one of twice that raises, on either side
        np.testing.assert_array_equal(
            clamp_probability_array(np.array([-PROB_TOL, 1.0 + PROB_TOL])), [0.0, 1.0])
        for value in (-2 * PROB_TOL, 1.0 + 2 * PROB_TOL):
            with pytest.raises(ValueError, match="not probabilities"):
                clamp_probability_array(np.array([value]))

    def test_nan_raises(self):
        with pytest.raises(ValueError, match="not probabilities"):
            clamp_probability_array(np.array([math.nan]))
        with pytest.raises(ValueError, match="not probabilities"):
            clamp_probability_array(np.array([0.2, math.nan, 0.7]))

    def test_array_snaps_in_place(self):
        values = np.array([-1e-13, 0.5, 1.0 + 1e-13])
        assert clamp_probability_array(values) is values
        np.testing.assert_array_equal(values, [0.0, 0.5, 1.0])


# Every public function that takes a grid, fed a bad grid or a bad single time.
# Each must reject it with the one error of `time_grid`.
_SYSTEM = RabiSystem(omega=1.0)
_DIST = DistinguishableEnv(dt=0.5, eta=0.9)
_NESTED = IndistinguishableEnv(dt=0.5, beta=0.9, max_events=2)
_MASTER = MasterEqParams(omega=1.0, gamma_se=0.1)
GRID_FUNCTIONS = {
    "time_grid": time_grid,
    "sample_series": lambda g: sample_series(build_predictor(_SYSTEM, _DIST, 40), g),
    "sample_rescaled_series": lambda g: sample_rescaled_series(
        build_nested_table(_SYSTEM, _NESTED, 40), _NESTED, g),
    "master_eq_series": lambda g: master_eq_series(_MASTER, g),
    "approx_closed_form": lambda g: approx_closed_form(_SYSTEM, _NESTED, g),
    "simulate_distinguishable": lambda g: simulate_distinguishable(
        _SYSTEM, _DIST, EnsembleConfig(n_systems=10, seed=1, grid=tuple(g))),
    "fit_damped_sinusoid": lambda g: fit_damped_sinusoid(
        ProbabilitySeries(np.array(g), np.full(len(g), 0.5)), omega_hint=1.0),
}
# (grid, index of its first bad time)
BAD_GRIDS = {"nan": ([0.0, math.nan], 1), "inf": ([0.0, math.inf], 1),
             "minus_inf": ([-math.inf, 1.0], 0), "negative": ([-0.5, 1.0], 0),
             "descending": ([1.0, 0.5], 1)}
BAD_TIMES = {"nan": math.nan, "inf": math.inf, "minus_inf": -math.inf, "negative": -0.5}


def shared_error(index):
    return rf"^times must be finite, non-negative and sorted ascending: times\[{index}\] = "


class TestTimeContract:
    @pytest.mark.parametrize("bad", BAD_GRIDS)
    @pytest.mark.parametrize("name", GRID_FUNCTIONS)
    def test_bad_grid_raises_the_shared_error(self, name, bad):
        grid, index = BAD_GRIDS[bad]
        with pytest.raises(InvalidEntryError, match=shared_error(index)) as err:
            GRID_FUNCTIONS[name](grid)
        assert err.value.index == index

    @pytest.mark.parametrize("bad", BAD_TIMES)
    @pytest.mark.parametrize("name", GRID_FUNCTIONS)
    def test_bad_time_raises_the_shared_error(self, name, bad):
        with pytest.raises(InvalidEntryError, match=shared_error(0)) as err:
            GRID_FUNCTIONS[name]([BAD_TIMES[bad]])
        assert err.value.index == 0

    def test_valid_grids_pass_unchanged(self):
        for grid in ([], [0.0], [0.0, 0.0, 2.5], np.linspace(0.0, 1e6, 7)):
            times = time_grid(grid)
            assert times.dtype == float and times.ndim == 1
            np.testing.assert_array_equal(times, np.asarray(grid, dtype=float))

    def test_not_one_dimensional(self):
        for grid in (1.0, [[0.0, 1.0]]):
            with pytest.raises(ValueError, match="1-D"):
                time_grid(grid)
