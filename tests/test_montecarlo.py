import json
import math
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rabideco import experiments, montecarlo
from rabideco.core import WORK_BUDGET, InitialState, ProbabilitySeries, RabiSystem, time_grid
from rabideco.distinguishable import DistinguishableEnv, build_predictor, sample_series
from rabideco.experiments import config_from_dict
from rabideco.indistinguishable import IndistinguishableEnv, build_nested_table
from rabideco.montecarlo import (
    BLOCK_SIZE,
    MAX_SYSTEMS,
    EnsembleConfig,
    _block_rng,
    _waiting_epochs,
    simulate_distinguishable,
)

SYSTEM = RabiSystem(omega=1.0)
CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
PATHS = ["members", "chain"]


def forced(path):
    """The oracle on `path`, per member or per epoch, whatever the plan: the other path
    is priced out."""
    price = montecarlo.path_work
    return mock.patch.object(montecarlo, "path_work", lambda chain, *args: (
        price(chain, *args) if chain == (path == "chain") else math.inf))


@pytest.fixture(params=PATHS)
def oracle_path(request):
    with forced(request.param):
        yield request.param


@pytest.fixture
def members():
    with forced("members"):
        yield


def stepped_reference(system, env, cfg):
    """Per-epoch stepper: every member draws at every epoch (reference process).

    Per block, in time order with epochs before grid times at ties: an epoch
    draws a collapse-occurrence vector and an outcome vector for the whole
    block, a grid time draws a measurement vector. Returns ground fractions.
    """
    times = np.asarray(cfg.grid, dtype=float)
    n_epochs = int(math.floor(float(times[-1]) / env.dt + 1e-9))
    events = [(n * env.dt, 0, n) for n in range(1, n_epochs + 1)]
    events += [(float(t), 1, i) for i, t in enumerate(times)]
    events.sort(key=lambda e: (e[0], e[1]))
    counts = np.zeros(times.size, dtype=np.int64)
    for block in range(0, cfg.n_systems, BLOCK_SIZE):
        size = min(BLOCK_SIZE, cfg.n_systems - block)
        rng = _block_rng(cfg.seed, block // BLOCK_SIZE)
        in_ground = np.full(size, system.initial_state is InitialState.GROUND)
        t_reset = np.zeros(size)
        for t_event, is_grid, payload in events:
            draw = rng.random(size)
            phase = system.omega * (t_event - t_reset)
            p_ground = np.where(in_ground, np.cos(phase) ** 2, np.sin(phase) ** 2)
            if is_grid:
                counts[payload] += int(np.count_nonzero(draw < p_ground))
            else:
                hit = draw < 1.0 - env.eta
                outcome = rng.random(size) < p_ground
                in_ground[hit] = outcome[hit]
                t_reset[hit] = t_event
    return counts / float(cfg.n_systems)


def previous_simulate_distinguishable(system, env, cfg):
    """`simulate_distinguishable` as it was before it kept the occupancy across
    grid times, recounting every key at each one (verbatim, but for the two
    lines that split the ensemble into equal blocks, larger first)."""
    times = time_grid(cfg.grid)
    meta = {
        "predictor": "monte-carlo-distinguishable",
        "omega": system.omega,
        "initial_state": system.initial_state.value,
        "dt": env.dt,
        "eta": env.eta,
        "n_systems": cfg.n_systems,
        "seed": cfg.seed,
    }
    if times.size == 0:
        return ProbabilitySeries(times, np.empty(0), meta)

    n_epochs = int(math.floor(float(times[-1]) / env.dt + 1e-9))
    # epochs handled before each grid time; an epoch at n dt == t comes first
    last_epoch = np.searchsorted(env.dt * np.arange(1, n_epochs + 1), times, side="right")
    epoch_phase = 2.0 * system.omega * env.dt * np.arange(n_epochs + 1)
    epoch_cos, epoch_sin = np.cos(epoch_phase), np.sin(epoch_phase)
    # lag_bias[2m] = -cos(2w dt m) (excited), lag_bias[2m - 1] = +cos(2w dt m) (ground)
    lag_bias = np.empty(2 * n_epochs + 1)
    lag_bias[0::2] = -epoch_cos
    lag_bias[1::2] = epoch_cos[1:]
    grid_cos, grid_sin = np.cos(2.0 * system.omega * times), np.sin(2.0 * system.omega * times)
    rate = -math.log(env.eta) if env.eta > 0.0 else math.inf
    initial_key = 1 if system.initial_state is InitialState.GROUND else 0

    counts = np.zeros(times.size, dtype=np.int64)
    for block in range(blocks := (cfg.n_systems + BLOCK_SIZE - 1) // BLOCK_SIZE):
        size = (cfg.n_systems + blocks - 1 - block) // blocks
        rng = _block_rng(cfg.seed, block)
        key = np.full(size, initial_key, dtype=np.int64)
        if rate > 0.0:
            nxt = _waiting_epochs(rng, rate, size)
        else:  # eta == 1: no member ever collapses
            nxt = np.full(size, np.iinfo(np.int64).max)
        for i, limit in enumerate(last_epoch):
            due = np.flatnonzero(nxt <= limit)
            while due.size:
                n = nxt[due]
                ground = rng.uniform(-1.0, 1.0, due.size) < lag_bias[2 * n - key[due]]
                key[due] = 2 * n + ground
                n += _waiting_epochs(rng, rate, due.size)
                nxt[due] = n
                due = due[n <= limit]
            occupancy = np.bincount(key)
            state = np.flatnonzero(occupancy)
            r = state >> 1
            sign = 2.0 * (state & 1) - 1.0
            p = 0.5 + 0.5 * sign * (epoch_cos[r] * grid_cos[i] + epoch_sin[r] * grid_sin[i])
            counts[i] += rng.binomial(occupancy[state], np.clip(p, 0.0, 1.0)).sum()
    probs = counts / float(cfg.n_systems)
    return ProbabilitySeries(times, probs, meta)


class _CountedAt:
    def __init__(self, ufunc):
        self.ufunc, self.calls = ufunc, 0

    def at(self, *args):
        self.calls += 1
        self.ufunc.at(*args)


class OccupancySpy:
    """numpy as the sampler sees it, counting bincounts and add.at / subtract.at calls."""

    def __init__(self):
        self.add = _CountedAt(np.add)
        self.subtract = _CountedAt(np.subtract)
        self.bincounts = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def bincount(self, *args, **kwargs):
        self.bincounts += 1
        return np.bincount(*args, **kwargs)


def assert_two_sample_close(p_new, p_ref, n):
    """|p_new - p_ref| <= 5 sqrt(2 p (1 - p) / n), p pooled, at every grid point.

    The two runs use different seeds: on one seed the two samplers read the
    same stream, and correlated samples would narrow the difference.
    """
    p = 0.5 * (p_new + p_ref)
    bound = 5.0 * np.sqrt(2.0 * p * (1.0 - p) / n)
    worst = int(np.argmax(np.abs(p_new - p_ref) - bound))
    assert np.all(np.abs(p_new - p_ref) <= bound), (worst, p_new[worst], p_ref[worst])


def mixed_grid(dt, n_epochs):
    """Epoch multiples n dt (exact ties) and points between them: one per
    interval up to n_epochs / 3, then gaps of several epochs."""
    dense = n_epochs // 3
    return tuple(np.sort(np.concatenate([
        dt * np.arange(dense + 1),
        dt * (np.arange(dense) + 0.37),
        dt * (np.arange(dense + 2, n_epochs, 4) + 0.37),
        dt * np.arange(dense + 4, n_epochs + 1, 4),
    ])))


def analytic_series(env, grid):
    pred = build_predictor(SYSTEM, env, math.ceil(float(grid[-1]) / env.dt) + 1)
    return sample_series(pred, grid)


class TestEnsembleConfig:
    def test_zero_systems_rejected(self):
        with pytest.raises(ValueError):
            EnsembleConfig(n_systems=0, seed=1, grid=(0.0,))

    def test_past_member_limit_rejected(self):
        EnsembleConfig(n_systems=2**53, seed=1, grid=(0.0,))  # every count / N exact
        with pytest.raises(ValueError):
            EnsembleConfig(n_systems=2**53 + 1, seed=1, grid=(0.0,))


@pytest.mark.usefixtures("oracle_path")
class TestDistinguishableEnsemble:
    def test_seed_determinism(self):
        env = DistinguishableEnv(dt=0.2, eta=0.95)
        cfg = EnsembleConfig(n_systems=5000, seed=42, grid=tuple(np.linspace(0.0, 8.0, 17)))
        a = simulate_distinguishable(SYSTEM, env, cfg)
        b = simulate_distinguishable(SYSTEM, env, cfg)
        np.testing.assert_array_equal(a.probs, b.probs)

    def test_seeds_differ(self):
        env = DistinguishableEnv(dt=0.2, eta=0.95)
        grid = tuple(np.linspace(0.0, 8.0, 17))
        a = simulate_distinguishable(SYSTEM, env, EnsembleConfig(5000, 1, grid))
        b = simulate_distinguishable(SYSTEM, env, EnsembleConfig(5000, 2, grid))
        assert not np.array_equal(a.probs, b.probs)

    def test_isolated_matches_born(self):
        env = DistinguishableEnv(dt=0.2, eta=1.0)
        grid = np.linspace(0.0, 10.0, 26)
        n = 40_000
        mc = simulate_distinguishable(SYSTEM, env, EnsembleConfig(n, 7, tuple(grid)))
        expected = np.sin(grid) ** 2
        assert np.max(np.abs(mc.probs - expected)) < 5.0 / math.sqrt(n)

    def test_matches_recursion_within_five_sigma(self):
        env = DistinguishableEnv(dt=0.08, eta=0.99)
        grid = np.linspace(0.0, 15.0, 61)
        n = 20_000
        mc = simulate_distinguishable(SYSTEM, env, EnsembleConfig(n, 123, tuple(grid)))
        ana = analytic_series(env, grid)
        sigma = np.sqrt(ana.probs * (1.0 - ana.probs) / n)
        dev = np.abs(mc.probs - ana.probs)
        assert np.all(dev <= np.maximum(5.0 * sigma, 1e-12))

    def test_empty_grid(self):
        env = DistinguishableEnv(dt=0.2, eta=0.9)
        series = simulate_distinguishable(SYSTEM, env, EnsembleConfig(10, 0, ()))
        assert len(series) == 0

    def test_grid_on_epoch_boundaries(self):
        # measurements landing exactly on collapse epochs: the epoch is
        # processed first, which the recursion's continuity makes harmless
        env = DistinguishableEnv(dt=0.25, eta=0.9)
        grid = 0.25 * np.arange(41)
        n = 20_000
        mc = simulate_distinguishable(SYSTEM, env, EnsembleConfig(n, 17, tuple(grid)))
        ana = analytic_series(env, grid)
        sigma = np.sqrt(ana.probs * (1.0 - ana.probs) / n)
        assert np.all(np.abs(mc.probs - ana.probs) <= np.maximum(5.0 * sigma, 1e-12))

    def test_ground_preparation(self):
        system_g = RabiSystem(omega=1.0, initial_state=InitialState.GROUND)
        env = DistinguishableEnv(dt=0.3, eta=0.95)
        grid = np.linspace(0.0, 12.0, 25)
        n = 20_000
        mc = simulate_distinguishable(system_g, env, EnsembleConfig(n, 23, tuple(grid)))
        pred = build_predictor(system_g, env, math.ceil(12.0 / env.dt) + 1)
        ana = sample_series(pred, grid)
        sigma = np.sqrt(ana.probs * (1.0 - ana.probs) / n)
        assert np.all(np.abs(mc.probs - ana.probs) <= np.maximum(5.0 * sigma, 1e-12))

    def test_fresh_preparation_exact(self):
        env = DistinguishableEnv(dt=0.2, eta=0.9)
        series = simulate_distinguishable(SYSTEM, env, EnsembleConfig(1000, 3, (0.0,)))
        assert series.probs[0] == 0.0

    def test_standardized_deviation_statistics(self):
        # 100 seeds at one grid point: mean near 0, variance near 1
        env = DistinguishableEnv(dt=0.25, eta=0.97)
        t_probe, n = 9.0, 4000
        ana = analytic_series(env, np.array([t_probe])).probs[0]
        sigma = math.sqrt(ana * (1.0 - ana) / n)
        zs = []
        for seed in range(100):
            mc = simulate_distinguishable(SYSTEM, env, EnsembleConfig(n, seed, (t_probe,)))
            zs.append((mc.probs[0] - ana) / sigma)
        zs = np.array(zs)
        assert abs(float(zs.mean())) < 0.5
        assert 0.5 < float(zs.var()) < 2.0

    def test_rms_error_scales_inverse_sqrt(self):
        env = DistinguishableEnv(dt=0.2, eta=0.98)
        grid = np.linspace(0.0, 10.0, 41)
        ana = analytic_series(env, grid).probs
        rms = {}
        for n in (1_000, 10_000, 100_000):
            mc = simulate_distinguishable(SYSTEM, env, EnsembleConfig(n, 5, tuple(grid)))
            rms[n] = float(np.sqrt(np.mean((mc.probs - ana) ** 2)))
        for n_small, n_big in ((1_000, 10_000), (10_000, 100_000)):
            shrink = rms[n_small] / rms[n_big]
            expected = math.sqrt(n_big / n_small)
            assert expected / 2.0 < shrink < expected * 2.0

    @pytest.mark.parametrize("eta,omega_dt,state", [
        (0.9, 1.3, InitialState.EXCITED),
        (0.5, 0.25, InitialState.GROUND),
    ])
    def test_high_statistics_matches_recursion(self, eta, omega_dt, state):
        # N = 4e5 resolves a 3% error in the collapse rate or a 1% phase skew
        dt, n = 0.25, 400_000
        system = RabiSystem(omega=omega_dt / dt, initial_state=state)
        env = DistinguishableEnv(dt=dt, eta=eta)
        grid = np.array(mixed_grid(dt, 60))
        mc = simulate_distinguishable(system, env, EnsembleConfig(n, 5, tuple(grid)))
        ana = sample_series(build_predictor(system, env, 61), grid).probs
        sigma = np.sqrt(ana * (1.0 - ana) / n)
        assert np.all(np.abs(mc.probs - ana) <= np.maximum(5.0 * sigma, 1e-12))


class TestAgainstSteppedReference:
    @pytest.mark.usefixtures("oracle_path")
    @pytest.mark.parametrize("state", [InitialState.EXCITED, InitialState.GROUND])
    @pytest.mark.parametrize("omega_dt", [0.08, 0.25, 1.3])
    @pytest.mark.parametrize("eta", [0.0, 0.5, 0.9, 0.99, 1.0])
    def test_matches_reference(self, eta, omega_dt, state):
        dt, n = 0.25, 20_000
        system = RabiSystem(omega=omega_dt / dt, initial_state=state)
        env = DistinguishableEnv(dt=dt, eta=eta)
        grid = mixed_grid(dt, 60)
        new = simulate_distinguishable(system, env, EnsembleConfig(n, 2027, grid)).probs
        ref = stepped_reference(system, env, EnsembleConfig(n, 2028, grid))
        assert_two_sample_close(new, ref, n)

    @pytest.mark.usefixtures("oracle_path")
    def test_matches_reference_across_blocks(self):
        n = BLOCK_SIZE + 5000
        system = RabiSystem(omega=0.32)
        env = DistinguishableEnv(dt=0.25, eta=0.9)
        grid = mixed_grid(0.25, 12)
        new = simulate_distinguishable(system, env, EnsembleConfig(n, 404, grid)).probs
        ref = stepped_reference(system, env, EnsembleConfig(n, 405, grid))
        assert_two_sample_close(new, ref, n)

    @pytest.mark.usefixtures("members")
    def test_blocks_are_independent_streams(self):
        # m <= BLOCK_SIZE < 2m: a run of 2m is two blocks of m, the first of
        # them the whole run of m, so the second block adds 0..m
        m = BLOCK_SIZE // 2 + 50
        env = DistinguishableEnv(dt=0.2, eta=0.9)
        grid = mixed_grid(0.2, 20)
        counts = {
            n: simulate_distinguishable(SYSTEM, env, EnsembleConfig(n, 99, grid)).probs * n
            for n in (m, 2 * m)
        }
        extra = np.round(counts[2 * m] - counts[m])
        assert np.all((extra >= 0) & (extra <= m))

    @pytest.mark.parametrize("path", PATHS)
    @settings(max_examples=40, deadline=None)
    @given(
        eta=st.floats(0.0, 1.0),
        omega_dt=st.floats(0.0, 3.0, exclude_min=True, allow_subnormal=False),
        dt=st.floats(0.01, 2.0),
        state=st.sampled_from(list(InitialState)),
        n=st.integers(1, 3000),
        epochs=st.lists(st.integers(0, 80), max_size=10),
        offsets=st.lists(st.floats(0.0, 80.0), max_size=10),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_properties(self, path, eta, omega_dt, dt, state, n, epochs, offsets, seed):
        system = RabiSystem(omega=omega_dt / dt, initial_state=state)
        env = DistinguishableEnv(dt=dt, eta=eta)
        grid = tuple(sorted([0.0] + [k * dt for k in epochs] + [x * dt for x in offsets]))
        cfg = EnsembleConfig(n, seed, grid)
        with forced(path):
            probs = simulate_distinguishable(system, env, cfg).probs
            again = simulate_distinguishable(system, env, cfg).probs
        assert np.all((probs >= 0.0) & (probs <= 1.0))
        np.testing.assert_allclose(probs * n, np.round(probs * n), rtol=0.0, atol=1e-6)
        at_zero = probs[np.asarray(grid) == 0.0]
        assert np.all(at_zero == (1.0 if state is InitialState.GROUND else 0.0))
        np.testing.assert_array_equal(probs, again)


class TestChainAgainstMembers:
    """The per-epoch chain draws the per-member sampler's law from another stream."""

    @pytest.mark.parametrize("eta,omega_dt,state,n", [
        (0.0, 0.25, InitialState.EXCITED, 20_000),
        (0.5, 0.3, InitialState.GROUND, 100_000),
        (0.9, 1.3, InitialState.EXCITED, 100_000),
        (0.99, 0.08, InitialState.GROUND, 50_000),
    ])
    def test_two_sample_close(self, eta, omega_dt, state, n):
        dt = 0.25
        system = RabiSystem(omega=omega_dt / dt, initial_state=state)
        env, grid = DistinguishableEnv(dt, eta), mixed_grid(dt, 120)
        with forced("chain"):
            chain = simulate_distinguishable(system, env, EnsembleConfig(n, 61, grid)).probs
        with forced("members"):
            members = simulate_distinguishable(system, env, EnsembleConfig(n, 62, grid)).probs
        assert_two_sample_close(chain, members, n)

    def test_chain_reads_the_first_stream(self):
        # the whole ensemble is one stream, (seed, 0), as the first block is
        env, grid = DistinguishableEnv(0.25, 0.5), mixed_grid(0.25, 40)
        calls = []

        def recording(seed, block):
            calls.append((seed, block))
            return rng(seed, block)

        rng = montecarlo._block_rng
        with forced("chain"), mock.patch.object(montecarlo, "_block_rng", recording):
            simulate_distinguishable(SYSTEM, env, EnsembleConfig(3 * BLOCK_SIZE, 7, grid))
        assert calls == [(7, 0)]


def assert_as_previous(system, env, cfg, monkeypatch=None):
    """Same probabilities, bit for bit, as the sampler that recounted every
    key; with `monkeypatch`, also check that each grid time of each block
    updated its occupancy with two bincounts, one off and one on, and no
    add.at or subtract.at."""
    spy = OccupancySpy()
    if monkeypatch is not None:
        monkeypatch.setattr(montecarlo, "np", spy)
    new = simulate_distinguishable(system, env, cfg)
    if monkeypatch is not None:
        monkeypatch.undo()
    old = previous_simulate_distinguishable(system, env, cfg)
    assert np.array_equal(new.times, old.times)
    assert np.array_equal(new.probs, old.probs)
    assert new.meta == old.meta
    if monkeypatch is not None:
        blocks = (cfg.n_systems + BLOCK_SIZE - 1) // BLOCK_SIZE
        assert spy.bincounts == 2 * blocks * len(cfg.grid)
        assert spy.add.calls == spy.subtract.calls == 0


@pytest.mark.usefixtures("members")
class TestAgainstPreviousSampler:
    """Keeping the occupancy up to date draws exactly what recounting drew."""

    @pytest.mark.parametrize("n", [1, 1000, BLOCK_SIZE + 5000])
    @pytest.mark.parametrize("state", list(InitialState))
    @pytest.mark.parametrize("eta", [0.0, 0.5, 0.9, 0.99, 0.997, 1.0])
    def test_bit_identical(self, monkeypatch, eta, state, n):
        dt = 0.25
        system = RabiSystem(omega=0.3 / dt, initial_state=state)
        repeats = (5 * dt, 5 * dt, 7.37 * dt, 7.37 * dt, 40 * dt)
        grid = tuple(sorted(mixed_grid(dt, 40) + repeats))
        assert_as_previous(system, DistinguishableEnv(dt, eta), EnsembleConfig(n, 31, grid),
                           monkeypatch)

    def test_unequal_blocks_larger_first(self, monkeypatch):
        # three blocks of 43692, 43692 and 43691, one after another
        cfg = EnsembleConfig(2 * BLOCK_SIZE + 3, 4, tuple(mixed_grid(0.25, 24)))
        assert_as_previous(SYSTEM, DistinguishableEnv(0.25, 0.5), cfg, monkeypatch)

    @pytest.mark.parametrize("eta", [0.5, 0.99])
    def test_epoch_multiples(self, monkeypatch, eta):
        grid = tuple(0.2 * np.arange(41))
        assert_as_previous(SYSTEM, DistinguishableEnv(0.2, eta), EnsembleConfig(1000, 8, grid),
                           monkeypatch)

    @pytest.mark.parametrize("grid", [(), (0.0,), (0.0, 0.0)])
    def test_empty_and_zero_only_grids(self, monkeypatch, grid):
        assert_as_previous(SYSTEM, DistinguishableEnv(0.2, 0.9), EnsembleConfig(1000, 8, grid),
                           monkeypatch)

    @pytest.mark.parametrize("eta", [0.99, 0.997])
    def test_3750_epochs(self, monkeypatch, eta):
        grid = tuple(np.linspace(0.0, 300.0, 121))  # dt 0.08: 3750 epochs
        assert_as_previous(SYSTEM, DistinguishableEnv(0.08, eta), EnsembleConfig(20_000, 9, grid),
                           monkeypatch)

    @pytest.mark.parametrize("eta,n", [(0.99, 200), (0.9999, 200), (0.9999, 5000)])
    def test_1e5_epochs_few_members(self, monkeypatch, eta, n):
        grid = tuple(np.linspace(0.0, 8000.0, 121))  # dt 0.08: 1e5 epochs
        assert_as_previous(SYSTEM, DistinguishableEnv(0.08, eta), EnsembleConfig(n, 10, grid),
                           monkeypatch)

    @settings(max_examples=60, deadline=None)
    @given(
        eta=st.one_of(st.floats(0.0, 1.0), st.floats(0.99, 1.0)),  # few members move
        omega_dt=st.floats(0.0, 3.0, exclude_min=True, allow_subnormal=False),
        dt=st.floats(0.01, 2.0),
        state=st.sampled_from(list(InitialState)),
        n=st.one_of(st.integers(1, 3000), st.integers(3000, 12_000)),  # few and many per key
        # gaps in epochs: whole ones keep grid times on epochs, 0 repeats one
        gaps=st.lists(st.one_of(st.integers(0, 8), st.floats(0.0, 8.0)), max_size=30),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_properties(self, eta, omega_dt, dt, state, n, gaps, seed):
        system = RabiSystem(omega=omega_dt / dt, initial_state=state)
        grid = tuple(dt * np.cumsum(gaps))
        assert_as_previous(system, DistinguishableEnv(dt, eta), EnsembleConfig(n, seed, grid))


class PlanSpy(Exception):
    """Raised by a stand-in for `_chain` or `_block` once it has recorded the run."""


@st.composite
def oracle_configs(draw):
    """(n_systems, eta, dt, t_max, n_points) of small oracle runs, half of them with N
    within a few members of where `path_work` prices the two paths alike."""
    eta = draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0),
                         st.integers(1, 2**20).map(lambda k: 1.0 - k / 2**50)))
    # t_max / dt is 374.9999999996 at the first dt, which counts 375 epochs
    dt = draw(st.one_of(st.just(0.08000000000008533), st.floats(0.01, 30.0)))
    t_max = draw(st.one_of(st.just(30.0), st.floats(0.0, 30.0)))
    n_points = draw(st.integers(0, 4))
    n = draw(st.integers(1, MAX_SYSTEMS))
    if draw(st.booleans()):
        n_epochs = math.floor((t_max / dt if n_points > 1 else 0.0) + 1e-9)

        def chain_cheaper(m):
            return (montecarlo.path_work(True, m, eta, n_epochs, n_points)
                    < montecarlo.path_work(False, m, eta, n_epochs, n_points))

        lo, hi = 1, MAX_SYSTEMS  # bisect for the least N that the chain runs
        if chain_cheaper(hi) and not chain_cheaper(lo):
            while hi - lo > 1:
                mid = (lo + hi) // 2
                lo, hi = (lo, mid) if chain_cheaper(mid) else (mid, hi)
            n = min(max(hi + draw(st.integers(-4, 4)), 1), MAX_SYSTEMS)
    return n, eta, dt, t_max, n_points


class TestPathRule:
    """`run_work` runs the path that `path_work` prices cheaper."""

    @pytest.mark.parametrize("n,eta,n_epochs,chain", [
        (100_000, 0.5, 375, True),  # mc_dense
        (100_000, 0.99, 375, True),  # oracle_check and mc_sparse: a step scans 376 keys
        (10_000, 0.99, 375, False),
        (100_000, 0.99, 3750, False),  # a step scans 1943 keys
        (10**9, 0.5, 375, True),
        (10**9, 0.0, 375, True),  # a step scans the 2 keys of the last epoch
        (500, 0.0, 375, True),  # each member collapses every epoch: a tie when timed
        (10**9, 1.0, 375, True),  # no member ever collapses, but each is scanned
    ])
    def test_rule(self, n, eta, n_epochs, chain):
        assert montecarlo.run_work(n, eta, n_epochs, 121)[0] is chain

    @settings(max_examples=200, deadline=None)
    @given(config=oracle_configs())
    def test_plan_is_never_the_dearer_path(self, config):
        n, eta, dt, t_max, n_points = config
        chain, n_epochs, work = montecarlo.run_work(n, eta, t_max / dt, n_points)
        if not n_points:
            assert work == 0.0
            return
        assert work == montecarlo.path_work(chain, n, eta, n_epochs, n_points)
        assert work <= montecarlo.path_work(not chain, n, eta, n_epochs, n_points)

    def test_largest_config_on_members(self):
        # oracle_check stretched to 1e7 epochs, with few enough members that its
        # 5e7 collapses and their 1e5 rounds pass the work budget, and few enough grid
        # times that its scans of 2e7 keys each do: 5 collapses per epoch, so one block
        data = json.loads((CONFIG_DIR / "oracle_check.json").read_text())
        data["env"]["dt"] = data["grid"]["t_max"] / 9_999_990
        data["mc"]["n_systems"] = 500
        data["grid"]["n_points"] = 4
        cfg = config_from_dict(data)
        chain, n_epochs, work = montecarlo.run_work(
            500, cfg.env.eta, cfg.grid.t_max / cfg.env.dt, 4)
        assert n_epochs >= 9_999_990
        assert not chain
        assert work <= WORK_BUDGET

    @pytest.mark.parametrize("n", [1, 10, 10**4, 10**5, 10**9])
    @pytest.mark.parametrize("eta", [0.0, 0.5, 0.9, 0.99, 0.999])
    def test_mean_keys_is_its_definition(self, n, eta):
        # the mean over steps m = 1..E of min(2 m, W), summed term by term
        window = montecarlo._window(n, eta)
        for n_epochs in (1, 2, 7, 375, 3750, 10**5):
            want = math.fsum(min(2.0 * m, window) for m in range(1, n_epochs + 1)) / n_epochs
            assert montecarlo._mean_keys(n, eta, n_epochs) == pytest.approx(want, rel=1e-12)

    def test_chain_work_does_not_grow_with_members(self):
        # the keys a step scans, and so the work, grow like ln N: 9e9 times the
        # members cost less than twice the work
        plans = [montecarlo.run_work(n, 0.5, 375, 121) for n in (10**6, 10**9, 2**53)]
        assert [plan[:2] for plan in plans] == [(True, 375)] * 3
        assert max(plan[2] for plan in plans) < 2.0 * plans[0][2] < WORK_BUDGET / 100.0

    @settings(max_examples=200, deadline=None)
    @given(config=oracle_configs(), flip=st.booleans(), skew=st.integers(0, 2))
    def test_run_follows_the_plan(self, config, flip, skew):
        # the config check prices a plan; the run asks `run_work` for the same plan
        # from its own numbers, and takes whatever path and epoch count it is handed
        n, eta, dt, t_max, n_points = config
        data = json.loads((CONFIG_DIR / "oracle_check.json").read_text())
        data["env"].update(dt=dt, eta=eta)
        data["grid"].update(t_max=t_max, n_points=n_points)
        data["mc"]["n_systems"] = n
        plan_of = montecarlo.run_work
        priced, asked, built = [], [], []

        def pricing(*args):
            priced.append(plan_of(*args))
            return priced[-1]

        def handed(*args):  # the run's plan with its path flipped and epochs skewed
            asked.append(plan_of(*args))
            chain, n_epochs, *work = asked[-1]
            return (chain != flip, n_epochs + skew, *work)

        def spy(path):
            def run(*args):
                built.append((path, args[-2].size))  # lag_bias: 2 n_epochs + 1 lags
                raise PlanSpy
            return run

        with mock.patch.object(experiments, "run_work", pricing), \
                mock.patch.object(experiments, "WORK_BUDGET", math.inf):
            cfg = config_from_dict(data)
        with mock.patch.object(montecarlo, "run_work", handed), \
                mock.patch.object(montecarlo, "_chain", spy("chain")), \
                mock.patch.object(montecarlo, "_block", spy("members")):
            try:
                experiments.run_oracle_check(cfg)
            except PlanSpy:
                pass
        (plan,) = priced
        if not n_points:  # nothing to measure: the run returns before it plans
            assert (asked, built) == ([], [])
            return
        assert asked == [plan]
        chain, n_epochs = plan[0] != flip, plan[1] + skew
        assert built == [("chain" if chain else "members", 2 * n_epochs + 1)]


def held_words(n_epochs, block_size, window=0.0) -> float:
    """The oracle's memory model: 20000 words for any run (5000 of temporaries, 12000 of
    the 2000 freed 1-tuples CPython keeps); 5 words per epoch for the shared cosine, sine
    and lag tables and the temporary that builds them; 4 per epoch for the occupancy and
    one bincount; 10 per member of a block (keys, next collapses, collapse temporaries)
    or 9 per key of a chain step's window (its draws, a measurement's). The work budget
    prices no words for the oracle: 9.07e7 at MAX_EPOCHS per member, and on the chain
    fewer than its draws."""
    return 20_000.0 + 9.0 * n_epochs + 10.0 * block_size + 9.0 * window


class TestMemoryModel:
    """The words a run holds at its peak stay within `held_words`."""

    @pytest.mark.parametrize("n,eta,n_epochs,path", [
        (20, 0.99, 10_000, "members"),  # a run's fixed words count against few members
        (200, 0.99, 100_000, "members"),  # the per-epoch tables dominate
        (5000, 0.9999, 100_000, "members"),  # almost every member alone in its key
        # two blocks of 50000, one after another; the plan sends this run to the chain
        (100_000, 0.5, 375, "members"),
        (BLOCK_SIZE, 0.9999, 500_000, "members"),  # one full block over many epochs
        (10**9, 0.9, 3750, "chain"),  # the occupancy alone, 395 keys a step
        (10**15, 0.999, 1000, "chain"),  # every key of the 2002 in a step's window held
    ])
    def test_peak_within_held_words(self, n, eta, n_epochs, path):
        dt = 0.08
        grid = tuple(np.linspace(0.0, n_epochs * dt, 121))
        if (n, eta) != (100_000, 0.5):
            assert montecarlo.run_work(n, eta, n_epochs, 121)[0] is (path == "chain")
        if path == "chain":
            held = held_words(n_epochs, 0, min(2.0 * n_epochs + 2.0, montecarlo._window(n, eta)))
        else:
            held = held_words(n_epochs, -(-n // -(-n // BLOCK_SIZE)))
        montecarlo._block_rng(0, 0)  # a first Generator imports modules: not the run's words
        with forced(path):
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                simulate_distinguishable(SYSTEM, DistinguishableEnv(dt, eta),
                                         EnsembleConfig(n, 5, grid))
                peak = tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()
        assert peak / 8.0 <= held


def count_covariance(counts: np.ndarray) -> tuple[float, float]:
    """Sample covariance of the two columns of `counts` (one row per seed) and
    its standard error, from the spread of the per-seed products."""
    centred = counts - counts.mean(axis=0)
    products = centred[:, 0] * centred[:, 1]
    seeds = len(counts)
    return (float(products.sum()) / (seeds - 1),
            float(products.std(ddof=1)) / math.sqrt(seeds))


@pytest.mark.usefixtures("oracle_path")
class TestJointLaw:
    def test_neighbouring_counts_covary_as_reference(self):
        # A member's hidden state links its measurements at neighbouring grid
        # times: the exact count covariance is 5.63 here (the hidden states
        # enumerated), and 0 if each grid time measured a fresh ensemble.
        system, env, n, seeds = SYSTEM, DistinguishableEnv(dt=0.3, eta=0.5), 50, 1000
        grid = (1.0, 1.3)
        new = np.array([simulate_distinguishable(system, env, EnsembleConfig(n, seed, grid)).probs
                        for seed in range(seeds)]) * n
        ref = np.array([stepped_reference(system, env, EnsembleConfig(n, seeds + seed, grid))
                        for seed in range(seeds)]) * n
        (cov_new, se_new), (cov_ref, se_ref) = count_covariance(new), count_covariance(ref)
        assert abs(cov_new - cov_ref) <= 5.0 * math.hypot(se_new, se_ref), (cov_new, cov_ref)


def chain_samples(
    system: RabiSystem, env: IndistinguishableEnv, n: int, cfg: EnsembleConfig
) -> np.ndarray:
    """Per-sample unbiased estimates of the nested predictor at n dt (test oracle).

    Each sample draws the interval-count chain k_1 ~ Binomial(n, beta),
    k_2 ~ Binomial(k_1, beta), ... (max_events draws) and multiplies the
    corresponding cos^2/sin^2 transfer factors down to the Born base case,
    exactly mirroring the nested sum. This estimates the formula; it is not
    a per-system physical history.
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    rng = _block_rng(cfg.seed, 0)
    size = cfg.n_systems
    ks = [np.full(size, n, dtype=np.int64)]
    for _ in range(env.max_events):
        ks.append(rng.binomial(ks[-1], env.beta))

    base_phase = system.omega * env.dt * ks[-1]
    s2 = np.sin(base_phase) ** 2
    if system.initial_state is InitialState.EXCITED:
        vg, ve = s2, 1.0 - s2
    else:
        vg, ve = 1.0 - s2, s2
    for level in range(env.max_events - 1, -1, -1):
        gap_phase = system.omega * env.dt * (ks[level] - ks[level + 1])
        c2 = np.cos(gap_phase) ** 2
        s2 = np.sin(gap_phase) ** 2
        vg, ve = c2 * vg + s2 * ve, c2 * ve + s2 * vg
    return vg


def simulate_indistinguishable_chain(
    system: RabiSystem, env: IndistinguishableEnv, n: int, cfg: EnsembleConfig
) -> float:
    """Mean of `chain_samples`: Monte Carlo estimate of the table entry at n dt."""
    return float(np.mean(chain_samples(system, env, n, cfg)))


class TestIndistinguishableChain:
    def test_isolated_every_sample_exact(self):
        env = IndistinguishableEnv(dt=0.4, beta=1.0, max_events=3)
        vals = chain_samples(SYSTEM, env, 9, EnsembleConfig(2000, 1, ()))
        assert np.all(vals == math.sin(9 * 0.4) ** 2)

    def test_zero_steps(self):
        env = IndistinguishableEnv(dt=0.4, beta=0.5, max_events=2)
        assert simulate_indistinguishable_chain(SYSTEM, env, 0, EnsembleConfig(500, 9, ())) == 0.0

    def test_seed_determinism(self):
        env = IndistinguishableEnv(dt=0.4, beta=0.8, max_events=2)
        cfg = EnsembleConfig(10_000, 77, ())
        a = simulate_indistinguishable_chain(SYSTEM, env, 6, cfg)
        b = simulate_indistinguishable_chain(SYSTEM, env, 6, cfg)
        assert a == b

    def test_worked_single_event_case(self):
        # i=1, n=4, beta=0.5 against the explicit five-term expansion
        from .reference import binomial_weight

        omega, dt, beta = 1.0, 0.3, 0.5
        expected = sum(
            binomial_weight(4, k, beta)
            * (
                math.cos(omega * (4 - k) * dt) ** 2 * math.sin(omega * k * dt) ** 2
                + math.sin(omega * (4 - k) * dt) ** 2 * math.cos(omega * k * dt) ** 2
            )
            for k in range(5)
        )
        env = IndistinguishableEnv(dt=dt, beta=beta, max_events=1)
        vals = chain_samples(RabiSystem(omega), env, 4, EnsembleConfig(1_000_000, 13, ()))
        se = float(vals.std(ddof=1)) / math.sqrt(vals.size)
        assert abs(float(vals.mean()) - expected) < 5.0 * se

    @pytest.mark.parametrize("n,i,beta", [(8, 2, 0.9), (15, 5, 0.995), (5, 3, 0.5)])
    def test_converges_to_table(self, n, i, beta):
        env = IndistinguishableEnv(dt=0.35, beta=beta, max_events=i)
        table = build_nested_table(SYSTEM, env, n)
        vals = chain_samples(SYSTEM, env, n, EnsembleConfig(100_000, 31, ()))
        se = float(vals.std(ddof=1)) / math.sqrt(vals.size)
        assert abs(float(vals.mean()) - table.ground[n]) < 5.0 * max(se, 1e-12)
