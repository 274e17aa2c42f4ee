import dataclasses
import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rabideco import indistinguishable
from rabideco.core import InitialState, RabiSystem, clamp_probability_array
from rabideco.fitting import fit_damped_sinusoid
from rabideco.indistinguishable import (
    IndistinguishableEnv,
    NestedTable,
    approx_closed_form,
    approx_gamma,
    build_nested_table,
    sample_rescaled_series,
    table_plan,
)

from .reference import binomial_weight, nested_chain_estimate, previous_matrix_form


def single_event_formula(omega, dt, beta, n):
    # explicit one-collapse sum with the Born base case
    total = 0.0
    for k in range(n + 1):
        w = binomial_weight(n, k, beta)
        total += w * (
            math.cos(omega * (n - k) * dt) ** 2 * math.sin(omega * k * dt) ** 2
            + math.sin(omega * (n - k) * dt) ** 2 * math.cos(omega * k * dt) ** 2
        )
    return total


def nested_sum_enumeration(omega, dt, beta, i, n):
    """Literal nested sum by exponential enumeration over (k_1, ..., k_i).

    Chains run k_i ~ outermost down to k_1 ~ innermost; non-increasing
    chains carry a product of binomial weights and a 2x2 cos^2/sin^2
    transfer applied to the Born base vector. Independent of the dynamic
    programming implementation.
    """
    if i == 0:
        return math.sin(omega * n * dt) ** 2
    total = 0.0
    for chain in itertools.product(range(n + 1), repeat=i):
        ks = (n,) + chain  # ks[0] outermost count, ks[-1] base-case index
        if any(ks[j + 1] > ks[j] for j in range(i)):
            continue
        weight = 1.0
        for j in range(i):
            weight *= binomial_weight(ks[j], ks[j + 1], beta)
        vg = math.sin(omega * ks[-1] * dt) ** 2
        ve = math.cos(omega * ks[-1] * dt) ** 2
        for j in range(i - 1, -1, -1):
            c2 = math.cos(omega * (ks[j] - ks[j + 1]) * dt) ** 2
            s2 = math.sin(omega * (ks[j] - ks[j + 1]) * dt) ** 2
            vg, ve = c2 * vg + s2 * ve, c2 * ve + s2 * vg
        total += weight * vg
    return total


def every_level(system, env, n_max):
    """Rows of the levels 0..env.max_events, one table per level."""
    return np.array([
        build_nested_table(system, dataclasses.replace(env, max_events=j), n_max).ground
        for j in range(env.max_events + 1)])


class TestEnv:
    def test_invalid_fields(self):
        with pytest.raises(ValueError):
            IndistinguishableEnv(dt=0.0, beta=0.5)
        with pytest.raises(ValueError):
            IndistinguishableEnv(dt=1.0, beta=0.0)
        with pytest.raises(ValueError):
            IndistinguishableEnv(dt=1.0, beta=1.2)
        with pytest.raises(ValueError):
            IndistinguishableEnv(dt=1.0, beta=0.5, max_events=-1)


class TestTable:
    def test_isolated_reduction_all_levels(self):
        env = IndistinguishableEnv(dt=0.45, beta=1.0, max_events=4)
        ground = every_level(RabiSystem(1.0), env, 25)
        for j in range(5):
            for k in range(26):
                assert ground[j, k] == math.sin(k * 0.45) ** 2

    def test_negative_n_max(self):
        env = IndistinguishableEnv(dt=0.3, beta=0.6, max_events=2)
        with pytest.raises(ValueError, match="n_max must be non-negative, got -1"):
            build_nested_table(RabiSystem(1.0), env, -1)

    def test_level_zero_is_born(self):
        env = IndistinguishableEnv(dt=0.3, beta=0.6, max_events=0)
        table = build_nested_table(RabiSystem(1.4), env, 12)
        for k in range(13):
            assert table.ground[k] == pytest.approx(math.sin(1.4 * 0.3 * k) ** 2, abs=1e-15)

    def test_worked_single_event_case_term_by_term(self):
        # at most one collapse in four epochs: the five-term expansion
        omega, dt, beta = 1.0, 0.5, 0.8
        env = IndistinguishableEnv(dt=dt, beta=beta, max_events=1)
        table = build_nested_table(RabiSystem(omega), env, 4)
        expected = sum(
            binomial_weight(4, k, beta)
            * (
                math.cos(omega * (4 - k) * dt) ** 2 * math.sin(omega * k * dt) ** 2
                + math.sin(omega * (4 - k) * dt) ** 2 * math.cos(omega * k * dt) ** 2
            )
            for k in range(5)
        )
        assert table.ground[4] == pytest.approx(expected, abs=1e-14)

    @pytest.mark.parametrize("n", [0, 1, 3, 7, 12])
    def test_single_event_general_row(self, n):
        omega, dt, beta = 0.9, 0.35, 0.7
        env = IndistinguishableEnv(dt=dt, beta=beta, max_events=1)
        table = build_nested_table(RabiSystem(omega), env, 12)
        assert table.ground[n] == pytest.approx(
            single_event_formula(omega, dt, beta, n), abs=1e-13
        )

    @pytest.mark.parametrize("beta", [0.3, 0.7, 0.995])
    @pytest.mark.parametrize("i", [0, 1, 2])
    def test_matches_nested_sum_enumeration(self, beta, i):
        omega, dt = 1.3, 0.4
        env = IndistinguishableEnv(dt=dt, beta=beta, max_events=i)
        table = build_nested_table(RabiSystem(omega), env, 6)
        for n in range(7):
            assert abs(
                table.ground[n] - nested_sum_enumeration(omega, dt, beta, i, n)
            ) < 1e-12

    def test_preparation_mirror_every_level(self):
        # P_g prepared excited + P_g prepared ground = 1 at every level
        env = IndistinguishableEnv(dt=0.6, beta=0.9, max_events=5)
        ground = every_level(RabiSystem(1.0), env, 40)
        mirror = every_level(RabiSystem(1.0, InitialState.GROUND), env, 40)
        np.testing.assert_allclose(ground + mirror, 1.0, atol=1e-12)

    @pytest.mark.parametrize("beta", [0.99, 0.995])
    @pytest.mark.parametrize("dt", [0.015, 0.1, 0.5])
    def test_truncation_differences_shrink(self, beta, dt):
        env = IndistinguishableEnv(dt=dt, beta=beta, max_events=6)
        ground = every_level(RabiSystem(1.0), env, 20)
        diffs = [float(np.max(np.abs(ground[j + 1] - ground[j]))) for j in range(6)]
        assert all(a >= b for a, b in zip(diffs, diffs[1:]))

    def test_truncation_converged_at_small_phase(self):
        # successive-level differences scale like 2 (1-beta) (n omega dt)^2,
        # so for interference scales well inside a Rabi period the order-5
        # truncation is settled to better than 1e-3 over the first 20 steps
        env = IndistinguishableEnv(dt=0.015, beta=0.995, max_events=6)
        ground = every_level(RabiSystem(1.0), env, 20)
        assert float(np.max(np.abs(ground[6] - ground[5]))) < 1e-3

    def test_scale_invariance(self):
        c = 2.5
        env = IndistinguishableEnv(dt=0.4, beta=0.9, max_events=3)
        env_scaled = IndistinguishableEnv(dt=0.4 / c, beta=0.9, max_events=3)
        np.testing.assert_allclose(every_level(RabiSystem(1.0), env, 15),
                                   every_level(RabiSystem(c), env_scaled, 15), atol=1e-12)


@functools.lru_cache(maxsize=8)
def _binomial_rows(n_max, beta):
    return tuple(np.array([binomial_weight(n, k, beta) for k in range(n + 1)])
                 for n in range(n_max + 1))


def dp_reference(system, env, n_max):
    """Ground rows of every level by the O(i n^2) dynamic program.

    Fills ground and excited rows bottom-up over the whole k range with one
    scalar binomial mass per (n, k) pair; unclamped. Independent of the
    exponential sum and of the rows form.
    """
    ks = np.arange(n_max + 1)
    s2 = np.sin(system.omega * env.dt * ks) ** 2
    c2 = np.cos(system.omega * env.dt * ks) ** 2
    ground = np.empty((env.max_events + 1, n_max + 1))
    excited = np.empty_like(ground)
    if system.initial_state is InitialState.EXCITED:
        ground[0], excited[0] = s2, c2
    else:
        ground[0], excited[0] = c2, s2
    weights = _binomial_rows(n_max, env.beta)
    for j in range(1, env.max_events + 1):
        g_prev, e_prev = ground[j - 1], excited[j - 1]
        for n in range(n_max + 1):
            w = weights[n]
            outer_c2, outer_s2 = c2[n::-1], s2[n::-1]
            ground[j, n] = w @ (outer_c2 * g_prev[: n + 1] + outer_s2 * e_prev[: n + 1])
            excited[j, n] = w @ (outer_c2 * e_prev[: n + 1] + outer_s2 * g_prev[: n + 1])
    return ground


def mp_top_level(omega, dt, beta, i, ns, state):
    """Top level at the indices ns as a 40-digit exponential sum.

    Level 0 is 1/2 + Re(a u^n), a = -1/2 (excited) or +1/2 (ground),
    u = exp(2 i omega dt); each level sends a node z to
    beta z + (1 - beta) u and beta z + (1 - beta) conj(u), halving a.
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        u = mpmath.expj(2 * mpmath.mpf(omega) * mpmath.mpf(dt))
        b = mpmath.mpf(beta)
        nodes = [u]
        for _ in range(i):
            nodes = [b * z + (1 - b) * v for z in nodes for v in (u, mpmath.conj(u))]
        a = (-1 if state is InitialState.EXCITED else 1) * mpmath.mpf(2) ** -(i + 1)
        return [float(mpmath.mpf(1) / 2 + a * mpmath.re(mpmath.fsum(z**n for z in nodes)))
                for n in ns]


# The table builder before it kept the top level alone, verbatim but for the
# names and its deep tables, which took `reference.previous_matrix_form`: every
# level 0..max_events in a (max_events + 1, n_max + 1) array.
_PREVIOUS_BLOCK = 1 << 16


def previous_build_nested_table(
    system: RabiSystem, env: IndistinguishableEnv, n_max: int
) -> NestedTable:
    """Every truncation level 0..max_events at the times k dt, k = 0..n_max.

    Takes the exponential sum, about 2^(i+1) (n_max + 1) terms over all
    levels, while 2^(i+1) <= n_max + 1; deeper tables are not built here.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be non-negative, got {n_max}")
    levels = env.max_events
    phase = system.omega * env.dt
    ks = np.arange(n_max + 1)
    ground = np.empty((levels + 1, n_max + 1))
    ground[0] = system.initial_state.born_ground(phase * ks)

    if env.beta == 1.0:
        ground[1:] = ground[0]  # no collapse ever happens: every level is Born
    elif 2 ** (levels + 1) <= n_max + 1:
        _previous_fill_exponential_sum(ground, phase, env.beta, system.initial_state.amplitude)
    elif levels:
        raise ValueError("a deep table: see reference.previous_matrix_form")
    return NestedTable(system, env, n_max, clamp_probability_array(ground))


def _previous_fill_exponential_sum(ground: np.ndarray, phase: float, beta: float,
                                   amplitude: float) -> None:
    """Levels 1.. as 1/2 + (amplitude / 2^j) Re sum_m z_m^n.

    Every node is z = cos(2 phase) + i s sin(2 phase) with s in [-1, 1]:
    level 0 has s = 1, and the two images of a node have
    s -> 1 - beta (1 - s) and s -> beta (1 + s) - 1.
    """
    ns = np.arange(ground.shape[1])
    cos_2p, sin_2p = math.cos(2.0 * phase), math.sin(2.0 * phase)
    s = np.ones(1)
    for j in range(1, ground.shape[0]):
        s = np.concatenate((1.0 - beta * (1.0 - s), beta * (1.0 + s) - 1.0))
        # log|z| from 1 - |z|^2 while that is small (exact 0 at s = 1), else
        # from |z|^2 itself, which stays positive: cos(2 phase) is never 0
        q = (1.0 - s) * (1.0 + s) * sin_2p**2
        log_abs = 0.5 * np.where(q < 0.5, np.log1p(-np.minimum(q, 0.5)),
                                 np.log(cos_2p**2 + (s * sin_2p) ** 2))
        arg = np.arctan2(s * sin_2p, cos_2p)
        total = np.zeros(len(ns))
        step = max(1, _PREVIOUS_BLOCK // len(ns))
        for lo in range(0, len(s), step):
            blk = slice(lo, lo + step)
            total += (np.exp(np.outer(log_abs[blk], ns))
                      * np.cos(np.outer(arg[blk], ns))).sum(axis=0)
        ground[j] = 0.5 + amplitude / 2**j * total


def _row_calls(monkeypatch):
    calls = []
    row = indistinguishable.binomial_weights_row

    def counting(prev, beta):
        calls.append(len(prev))
        return row(prev, beta)

    monkeypatch.setattr(indistinguishable, "binomial_weights_row", counting)
    return calls


class TestAgainstDynamicProgram:
    # (i, n_max) on both sides of the cost rule 2^(i+1) <= n_max + 1:
    # (5, 400) and (6, 127) take the exponential sum, (6, 126) and (9, 60)
    # the rows form
    @pytest.mark.parametrize("i, n_max", [(5, 400), (6, 127), (6, 126), (9, 60)])
    @pytest.mark.parametrize("state", list(InitialState))
    @pytest.mark.parametrize("omega_dt", [0.05, 0.7, 2.3])
    @pytest.mark.parametrize("beta", [0.3, 0.9, 0.99, 0.998])
    def test_every_level(self, beta, omega_dt, state, i, n_max):
        system = RabiSystem(1.0, state)
        env = IndistinguishableEnv(dt=omega_dt, beta=beta, max_events=i)
        ground = every_level(system, env, n_max)
        ref = dp_reference(system, env, n_max)
        assert float(np.max(np.abs(ground - ref))) <= 1e-12

    def test_node_near_the_origin(self):
        # beta = 1/2 and 2 omega dt = pi/2 put a level-1 node at
        # z = cos(pi/2) ~ 6e-17, where 1 - |z|^2 rounds to 1
        system = RabiSystem(1.0)
        env = IndistinguishableEnv(dt=math.pi / 4, beta=0.5, max_events=2)
        with np.errstate(divide="raise", invalid="raise"):
            ground = every_level(system, env, 40)
        assert float(np.max(np.abs(ground - dp_reference(system, env, 40)))) <= 1e-12

    @pytest.mark.parametrize("beta, i, n_max, rows", [
        (0.9, 6, 127, 0), (0.9, 6, 126, 127), (0.9, 1, 3, 0), (0.9, 1, 2, 3),
        (0.9, 0, 0, 0), (1.0, 8, 100, 0)])
    def test_cost_rule_picks_the_path(self, monkeypatch, beta, i, n_max, rows):
        # only the rows form needs binomial rows, each from the one before; beta = 1
        # needs none
        calls = _row_calls(monkeypatch)
        env = IndistinguishableEnv(dt=0.4, beta=beta, max_events=i)
        build_nested_table(RabiSystem(1.0), env, n_max)
        assert calls == list(range(rows))

    @settings(max_examples=40, deadline=None)
    @given(
        beta=st.floats(0.0, 1.0, exclude_min=True, allow_subnormal=False),
        omega_dt=st.floats(0.0, 3.0, exclude_min=True, allow_subnormal=False),
        i=st.integers(0, 6),
        n_max=st.integers(0, 200),
        state=st.sampled_from(list(InitialState)),
    )
    def test_property(self, beta, omega_dt, i, n_max, state):
        system = RabiSystem(1.0, state)
        env = IndistinguishableEnv(dt=omega_dt, beta=beta, max_events=i)
        ground = every_level(system, env, n_max)
        assert np.all((ground >= 0.0) & (ground <= 1.0))
        ref = dp_reference(system, env, n_max)
        assert float(np.max(np.abs(ground - ref))) <= 1e-12

    @pytest.mark.parametrize("state", list(InitialState))
    @pytest.mark.parametrize("beta, omega_dt", [(0.995, 0.7), (0.9, 0.05), (0.998, 1.9)])
    def test_against_mpmath_at_1600(self, beta, omega_dt, state):
        env = IndistinguishableEnv(dt=omega_dt, beta=beta, max_events=5)
        table = build_nested_table(RabiSystem(1.0, state), env, 1600)
        ns = list(range(0, 1601, 50)) + [1599]
        want = mp_top_level(1.0, omega_dt, beta, 5, ns, state)
        got = table.ground[ns]
        assert float(np.max(np.abs(got - np.array(want)))) <= 1e-13


class TestTablePlan:
    @settings(max_examples=100, deadline=None)
    @given(i=st.integers(0, 20), n_max=st.integers(0, 5000),
           beta=st.sampled_from([0.3, 0.995, 1.0]))
    @example(i=11, n_max=4095, beta=0.995)  # 2^(i+1) = n_max + 1: the sum
    @example(i=11, n_max=4094, beta=0.995)  # one column fewer: the rows form
    def test_cost_and_build_take_one_path(self, i, n_max, beta):
        taken = []

        def spy(name):
            def stub(*args):
                taken.append(name)
                return np.full(n_max + 1, 0.5)
            return stub

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(indistinguishable, "_exponential_sum", spy("sum"))
            patch.setattr(indistinguishable, "_rows_form", spy("rows"))
            build_nested_table(RabiSystem(1.0), IndistinguishableEnv(0.4, beta, i), n_max)
        want = ("born" if beta == 1.0 or i == 0
                else "sum" if 2 ** (i + 1) <= n_max + 1 else "rows")
        path, words, work = table_plan(i, beta, n_max)
        assert path == want
        assert taken == ([] if want == "born" else [want])
        # the held row: 3 words per column; the sum holds 4 words per column and per term,
        # two blocks of at most 2^16 / cols terms (at least one) by every column, and numpy's
        # two 8192-word iterator buffers; the rows form holds every level and 6 more words
        # per column, and 10 words per level
        cols = n_max + 1
        block = min(2**i, max(1, 2**16 // cols))
        assert words == {"born": 3 * cols, "sum": (4 + 2 * block) * cols + 4 * 2**i + 2 * 8192,
                         "rows": (i + 6) * cols + 10 * i}[want]
        # in member collapses: half a collapse a term; in the rows form 250 a column, 2 a
        # level step and a 100th of one a product term, i cols^2 / 2 of them
        assert work == pytest.approx({"born": cols / 2, "sum": 2**i * cols / 2,
                                      "rows": (250 + 2 * i) * cols + i * cols * cols / 200}[want],
                                     rel=1e-12)

    @pytest.mark.parametrize("levels, n_max", [(10**9, 100.0), (1e300, 1e300), (1022, math.inf)])
    def test_huge_order_stays_in_floats(self, levels, n_max):
        path, words, work = table_plan(levels, 0.5, n_max)
        assert max(words, work) > 1e8
        assert path == ("sum" if n_max == math.inf else "rows")


class TestAgainstPreviousTable:
    @settings(max_examples=100, deadline=None)
    @given(
        beta=st.floats(0.0, 1.0, exclude_min=True, allow_subnormal=False),
        omega_dt=st.floats(0.0, 3.0, exclude_min=True, allow_subnormal=False),
        i=st.integers(0, 8),
        n_max=st.integers(0, 300),
        state=st.sampled_from(list(InitialState)),
    )
    # both sides of the path rule 2^(i+1) <= n_max + 1, and beta = 1
    @example(beta=0.9, omega_dt=0.7, i=5, n_max=63, state=InitialState.EXCITED)
    @example(beta=0.9, omega_dt=0.7, i=5, n_max=62, state=InitialState.GROUND)
    @example(beta=0.3, omega_dt=2.9, i=8, n_max=300, state=InitialState.EXCITED)
    @example(beta=0.6, omega_dt=1.1, i=7, n_max=300, state=InitialState.GROUND)
    @example(beta=1.0, omega_dt=0.4, i=6, n_max=200, state=InitialState.EXCITED)
    def test_top_row(self, beta, omega_dt, i, n_max, state):
        # the sum and the Born row bit for bit; the rows form within the matrix
        # form's own rounding, which reaches 2.3e-12 at 3000 columns
        system = RabiSystem(1.0, state)
        env = IndistinguishableEnv(dt=omega_dt, beta=beta, max_events=i)
        table = build_nested_table(system, env, n_max)
        assert table.ground.shape == (n_max + 1,)
        if table_plan(i, beta, n_max)[0] == "rows":
            born = state.born_ground(omega_dt * np.arange(n_max + 1))
            previous = previous_matrix_form(born, i, omega_dt, beta)
            np.testing.assert_allclose(table.ground, previous, rtol=0.0, atol=1e-11)
        else:
            np.testing.assert_array_equal(
                table.ground, previous_build_nested_table(system, env, n_max).ground[-1])


EPS = np.finfo(float).eps


def rows_and_sum(i, n_max, omega_dt, beta, state):
    """The rows form and the exponential sum of level i at columns 0..n_max, unclamped."""
    args = (np.arange(n_max + 1), i, omega_dt, beta, state.amplitude)
    return indistinguishable._rows_form(*args), indistinguishable._exponential_sum(*args)


class TestRowsForm:
    """The deep path against the exponential sum, the matrix form it replaced, 40-digit
    arithmetic and a Monte Carlo estimate of the nested sum."""

    @settings(max_examples=60, deadline=None)
    @given(
        beta=st.one_of(st.floats(0.0, 1.0, exclude_min=True, allow_subnormal=False),
                       st.sampled_from([1.0 - 2.0**-50, 1e-300, 1.0])),
        omega_dt=st.floats(0.0, 3.0, exclude_min=True, allow_subnormal=False),
        i=st.integers(1, 9),
        offset=st.integers(-3, 3),
        state=st.sampled_from(list(InitialState)),
    )
    # a one-column table, and the widest tables on the rows' side of 2^(i+1) <= n_max + 1
    @example(beta=0.5, omega_dt=0.7, i=1, offset=-3, state=InitialState.EXCITED)
    @example(beta=0.9, omega_dt=1.3, i=6, offset=-1, state=InitialState.GROUND)
    @example(beta=1.0 - 2.0**-50, omega_dt=0.7, i=9, offset=-1, state=InitialState.EXCITED)
    @example(beta=1e-300, omega_dt=2.9, i=9, offset=-1, state=InitialState.GROUND)
    @example(beta=1.0, omega_dt=0.4, i=9, offset=-1, state=InitialState.EXCITED)
    def test_across_the_path_rule(self, beta, omega_dt, i, offset, state):
        # n_max + 1 within 3 columns of 2^(i+1), where the table changes path. Both forms
        # take cosines of phases up to n pi, rounded at that size: with 1 - beta near eps
        # and omega dt near 2 each is 1e-13 off 40-digit values at 500-1000 columns
        n_max = max(0, 2 ** (i + 1) - 1 + offset)
        rows, exact = rows_and_sum(i, n_max, omega_dt, beta, state)
        assert float(np.max(np.abs(rows - exact))) <= 1e-13 + 8.0 * n_max * EPS
        born = state.born_ground(omega_dt * np.arange(n_max + 1))
        previous = previous_matrix_form(born, i, omega_dt, beta)
        assert float(np.max(np.abs(rows - previous))) <= 1e-11
        env = IndistinguishableEnv(dt=omega_dt, beta=beta, max_events=i)
        table = build_nested_table(RabiSystem(1.0, state), env, n_max).ground
        built = born if beta == 1.0 else rows if 2 ** (i + 1) > n_max + 1 else exact
        np.testing.assert_array_equal(table, clamp_probability_array(built))

    @pytest.mark.parametrize("i, n_max, beta, omega_dt", [
        (16, 150, 0.995, 0.7), (12, 3000, 0.995, 0.7), (14, 1000, 0.9, 1.1),
        (12, 2999, 0.3, 2.9)])
    def test_deep_against_exact_and_previous(self, i, n_max, beta, omega_dt):
        # the matrix form is 5.8e-14 off the exact sum at 16 x 150 and 2.3e-12 at 12 x 3000
        rows, exact = rows_and_sum(i, n_max, omega_dt, beta, InitialState.EXCITED)
        assert float(np.max(np.abs(rows - exact))) <= 1e-13
        born = InitialState.EXCITED.born_ground(omega_dt * np.arange(n_max + 1))
        previous = previous_matrix_form(born, i, omega_dt, beta)
        assert float(np.max(np.abs(rows - previous))) <= 1e-11

    @pytest.mark.parametrize("i, n_max, beta, omega_dt, state", [
        (10, 1500, 0.995, 0.7, InitialState.EXCITED),
        (12, 3000, 0.99, 0.3, InitialState.GROUND),
        (13, 400, 0.9, 1.1, InitialState.EXCITED)])
    def test_deep_against_mpmath(self, i, n_max, beta, omega_dt, state):
        assert table_plan(i, beta, n_max)[0] == "rows"
        env = IndistinguishableEnv(dt=omega_dt, beta=beta, max_events=i)
        table = build_nested_table(RabiSystem(1.0, state), env, n_max)
        ns = [1, n_max // 3, n_max]
        want = mp_top_level(1.0, omega_dt, beta, i, ns, state)
        assert float(np.max(np.abs(table.ground[ns] - np.array(want)))) <= 1e-13

    @pytest.mark.parametrize("i, n_max", [(12, 2999), (40, 999), (300, 199), (20000, 4)])
    def test_peak_within_held_words(self, i, n_max):
        # tracemalloc's peak over the build, in 8-byte words, within the plan's count
        # and 512 words of array headers and the like
        env = IndistinguishableEnv(dt=0.7, beta=0.995, max_events=i)
        path, words, _ = table_plan(i, env.beta, n_max)
        assert path == "rows"
        build_nested_table(RabiSystem(1.0), env, 10)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            build_nested_table(RabiSystem(1.0), env, n_max)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak / 8.0 <= words + 512.0

    @pytest.mark.parametrize("i, n_max", [(2, 9999), (5, 800), (10, 4000), (6, 127), (8, 600),
                                          (12, 8191), (1, 70000)])
    def test_sum_peak_within_held_words(self, i, n_max):
        # as the rows form's test below: the block buffers, once per build, and not one
        # set of outer products, exponentials and cosines per block
        env = IndistinguishableEnv(dt=0.7, beta=0.995, max_events=i)
        path, words, _ = table_plan(i, env.beta, n_max)
        assert path == "sum"
        build_nested_table(RabiSystem(1.0), env, 10)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            build_nested_table(RabiSystem(1.0), env, n_max)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak / 8.0 <= words + 512.0

    def test_against_monte_carlo_chains(self):
        # 16 levels on 151 columns, as in the benchmark's deep items: 38 columns of 10^4
        # chains each. With a fixed seed the draw is fixed; over seeds, 38 normal z-scores
        # pass 4.5 in absolute value with odds of about 3e-4. Columns of zero variance
        # (every chain lands on the same value) must match to rounding. Level 15 fails it
        system, beta, dt, i = RabiSystem(1.0), 0.995, 0.7, 16
        table = build_nested_table(system, IndistinguishableEnv(dt, beta, i), 150)
        lower = build_nested_table(system, IndistinguishableEnv(dt, beta, i - 1), 150)
        assert table_plan(i, beta, 150)[0] == "rows"
        ns = np.arange(0, 151, 4)
        mean, stderr = nested_chain_estimate(system, beta, dt, i, ns, 10_000, seed=1)
        exact = stderr < 1e-12
        assert 1 <= exact.sum() < 3
        assert float(np.max(np.abs(table.ground[ns] - mean)[exact])) <= 1e-12
        z = (table.ground[ns] - mean)[~exact] / stderr[~exact]
        assert float(np.max(np.abs(z))) <= 4.5
        z_lower = (lower.ground[ns] - mean)[~exact] / stderr[~exact]
        assert float(np.max(np.abs(z_lower))) > 4.5


class TestRescale:
    def make(self, dt=0.7, beta=0.995, i=5, n_max=80, omega=1.0):
        env = IndistinguishableEnv(dt=dt, beta=beta, max_events=i)
        return build_nested_table(RabiSystem(omega), env, n_max), env

    def test_zero_time(self):
        table, env = self.make()
        assert sample_rescaled_series(table, env, [0.0]).probs[0] == 0.0

    def test_exact_at_integral_index(self):
        table, env = self.make()
        ks = (1, 5, 33)
        series = sample_rescaled_series(table, env, [k * env.beta * env.dt for k in ks])
        for k, p in zip(ks, series.probs):
            assert p == table.ground[k]

    def test_linear_between_columns(self):
        table, env = self.make()
        t = 7.5 * env.beta * env.dt
        mid = 0.5 * (table.ground[7] + table.ground[8])
        assert sample_rescaled_series(table, env, [t]).probs[0] == pytest.approx(mid, abs=1e-12)

    def test_isolated_curve_is_born(self):
        table, env = self.make(beta=1.0, i=3, dt=0.4)
        grid = [k * env.dt for k in range(20)]
        for t, p in zip(grid, sample_rescaled_series(table, env, grid).probs):
            # t/(beta dt) can land an ulp off the integer column
            assert p == pytest.approx(math.sin(t) ** 2, abs=1e-13)

    def test_out_of_range(self):
        table, env = self.make(n_max=10)
        with pytest.raises(ValueError, match="n_max"):
            sample_rescaled_series(table, env, [11.0 * env.beta * env.dt])

    def test_edge_slack(self):
        # rounding may put the last time just past column n_max, not 1e-10 past it
        table, env = self.make(n_max=10)
        series = sample_rescaled_series(table, env, [10.0 * (1.0 + 1e-13) * env.beta * env.dt])
        assert series.probs[0] == table.ground[10]
        with pytest.raises(ValueError, match="n_max"):
            sample_rescaled_series(table, env, [10.0 * (1.0 + 1e-10) * env.beta * env.dt])

    def test_env_must_be_the_tables(self):
        table, env = self.make(beta=0.995)
        with pytest.raises(ValueError, match="differs from the table's"):
            sample_rescaled_series(table, dataclasses.replace(env, beta=0.9), [0.0, 1.0])

    def test_series_matches_scalar(self):
        table, env = self.make()
        grid = np.linspace(0.0, 50.0, 173)
        series = sample_rescaled_series(table, env, grid)
        for t, p in zip(grid, series.probs):
            assert p == pytest.approx(sample_rescaled_series(table, env, [t]).probs[0], abs=1e-14)

    def test_series_metadata(self):
        table, env = self.make()
        series = sample_rescaled_series(table, env, [0.0, 1.0])
        assert series.meta["predictor"] == "indistinguishable"
        assert series.meta["beta"] == env.beta

    def test_published_decay_factor(self):
        # beta=0.995, omega*dt=0.7, order-5 truncation: fitted decay 0.039
        table, env = self.make(dt=0.7, beta=0.995, i=5)
        series = sample_rescaled_series(table, env, np.linspace(0.0, 50.0, 300))
        fit = fit_damped_sinusoid(series, omega_hint=1.0)
        assert abs(fit.gamma - 0.039) < 0.005


class TestClosedFormApprox:
    def test_isolated_reduces_to_born(self):
        env = IndistinguishableEnv(dt=0.05, beta=1.0, max_events=5)
        system = RabiSystem(1.0)
        grid = np.linspace(0.0, 20.0, 57)
        for t, p in zip(grid, approx_closed_form(system, env, grid).probs):
            assert p == pytest.approx(math.sin(t) ** 2, abs=1e-12)

    def test_zero_time(self):
        env = IndistinguishableEnv(dt=0.05, beta=0.999, max_events=5)
        assert approx_closed_form(RabiSystem(1.0), env, [0.0]).probs[0] == 0.0

    def test_series_metadata(self):
        env = IndistinguishableEnv(dt=0.05, beta=0.99, max_events=5)
        series = approx_closed_form(RabiSystem(1.0), env, [0.0, 1.0])
        np.testing.assert_array_equal(series.times, [0.0, 1.0])
        assert series.meta["predictor"] == "approx-closed-form"
        assert series.meta["beta"] == env.beta

    def test_ground_preparation_complement(self):
        env = IndistinguishableEnv(dt=0.05, beta=0.99, max_events=5)
        sys_e = RabiSystem(1.0)
        sys_g = RabiSystem(1.0, InitialState.GROUND)
        grid = [0.0, 1.7, 9.3]
        total = (approx_closed_form(sys_e, env, grid).probs
                 + approx_closed_form(sys_g, env, grid).probs)
        for p in total:
            assert p == pytest.approx(1.0, abs=1e-14)

    def test_envelope_decay_matches_quadratic_rate(self):
        # fitted decay of the closed form itself vs 2 (1-beta) omega^2 dt
        env = IndistinguishableEnv(dt=0.05, beta=0.999, max_events=5)
        system = RabiSystem(1.0)
        grid = np.linspace(0.0, 40.0, 600)
        fit = fit_damped_sinusoid(approx_closed_form(system, env, grid), omega_hint=1.0)
        assert fit.gamma == pytest.approx(approx_gamma(system, env), rel=0.10)


class TestApproxGamma:
    def test_isolated_is_zero(self):
        env = IndistinguishableEnv(dt=0.1, beta=1.0, max_events=5)
        assert approx_gamma(RabiSystem(2.0), env) == 0.0

    def test_quadratic_in_omega(self):
        env = IndistinguishableEnv(dt=0.1, beta=0.99, max_events=5)
        g1 = approx_gamma(RabiSystem(1.0), env)
        g2 = approx_gamma(RabiSystem(2.0), env)
        assert g2 == pytest.approx(4.0 * g1, rel=1e-14)

    def test_reference_value(self):
        env = IndistinguishableEnv(dt=0.05, beta=0.995, max_events=5)
        assert approx_gamma(RabiSystem(1.0), env) == pytest.approx(5.0e-4, rel=1e-12)
