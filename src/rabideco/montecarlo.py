"""Seeded stochastic oracle for the distinguishable predictor, recursion-free.

`simulate_distinguishable` plays out the collapse scenario: at every multiple
of dt each member suffers, with probability 1 - eta, a passive measurement
that collapses it to ground or excited with its current Born weights and
resets its evolution clock, under the plain unitary Born law in between (no
effective non-Hermitian Hamiltonian anywhere). A member's state is one key
2r + g: r is the epoch of its last preparation (0 for the initial one), g = 1
if it was prepared in ground. Members with equal keys are i.i.d., so a
measurement draws one binomial per occupied key, in ascending key order, from
the occupancy (members per key); a grid time after l epochs can reach only
the first 2 l + 2 keys. The occupancy is stepped in one of two exact ways,
each keeping the joint law of all grid times.

Per member (`_block`), after the waiting-time method of quantum-jump Monte
Carlo (Dalibard, Castin & Molmer, PRL 68, 580 (1992)): the epochs up to a
member's next collapse are geometric with success probability 1 - eta, drawn
directly, so epochs without a collapse cost nothing. Before each grid time
every member due (an epoch at n dt == t comes first) is collapsed, possibly
several times, and the occupancy moves by two bincounts. The ensemble splits
into ceil(N / BLOCK_SIZE) blocks, the larger (by one) first, run in turn on
streams spawned from (seed, block index), counts summed in block order. A
block draws one exponential vector for the first waiting times (none at eta =
1); then per grid time, while some are due, an outcome and an exponential
vector over the members due, in ascending order; then the measurement.

Per epoch (`_chain`): the occupancy is itself a Markov chain. At epoch n each
occupied key loses Binomial(count, 1 - eta) members, and Binomial(lost,
(1 + lag_bias[2n - key]) / 2) of them go to key 2n + 1, the rest to 2n. No key
below the lowest occupied one fills again, so a step scans the keys from there
to 2n, about W = min(2 epochs + 2, 2 (1 + ln N / -ln eta)). The ensemble draws
from the (seed, 0) stream: per epoch one collapse-binomial and one
outcome-binomial vector over the scanned keys in ascending order, per grid
time the measurement. Its cost grows like ln N: row one takes as long at N = 1e9.

`run_work` is the one plan, priced by the config check and followed by the run, in member
collapses (53-63 ns), the work unit of `core.WORK_BUDGET`: `path_work` prices both paths
and the cheaper one runs. A chain step costs _STEP_COLLAPSES of fixed calls (a 2-key step
31-40 us), as does each grid time on either path (per member 40 us: a due scan, two
bincounts, a measurement), plus its draws over the keys it scans, on average
(1 / E) sum over n <= E of min(2 n, 2 (1 + ln N / -ln eta)): about W / 2 when the epochs
cap the window.
121 grid times, median of 3 runs, 1 for 7.9 s (numpy 2.4, a 2-core VM):

    N, eta, epochs     per member    chain   plan
    1e5, 0.5, 375          803 ms    14 ms   chain
    1e5, 0.9, 3750        1675 ms   215 ms   chain
    1e5, 0.99, 375          50 ms    31 ms   chain
    1e4, 0.99, 375          15 ms    27 ms   member
    1e5, 0.99, 3750        179 ms   501 ms   member
    200, 0.99, 1e5         129 ms    7.9 s   member
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import InitialState, ProbabilitySeries, RabiSystem, series_meta, time_grid
from .distinguishable import DistinguishableEnv

BLOCK_SIZE = 65536
# The chain's members are counts: at most 2^53 keeps every count / N exact.
MAX_SYSTEMS = 2**53
# Work in member collapses: a chain step's or grid time's fixed numpy calls, a round of
# `_block`'s collapse loop (14-15 us), a member or key scanned at a grid time (1-4 ns).
_STEP_COLLAPSES, _ROUND_COLLAPSES, _SCAN_COLLAPSES = 600.0, 250.0, 1.0 / 15.0


@dataclass(frozen=True, eq=False)
class EnsembleConfig:
    """Ensemble size, master seed, and the measurement grid."""

    n_systems: int
    seed: int
    grid: tuple = ()

    def __post_init__(self) -> None:
        if not 1 <= self.n_systems <= MAX_SYSTEMS:
            raise ValueError(f"n_systems must be in [1, 2^53], got {self.n_systems}")


def _block_rng(seed: int, block: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(block,))))


def _rate(eta: float) -> float:
    """-ln(eta): a member's collapse rate per epoch."""
    return -math.log(eta) if eta > 0.0 else math.inf


def _window(n_systems, eta: float) -> float:
    """Keys a chain step scans at most, W: N eta^m members are left m epochs after a
    collapse, fewer than one past m = ln N / -ln eta, at two keys per epoch."""
    rate = _rate(eta)
    return 2.0 + 2.0 * math.log(n_systems) / rate if rate else math.inf


def _mean_keys(n_systems, eta: float, n_epochs) -> float:
    """Keys a chain step scans on average over a run, (1 / E) sum over n <= E of
    min(2 n, W): step n scans at most the 2 n keys below 2 n."""
    window = _window(n_systems, eta)
    if window >= 2.0 * n_epochs:
        return n_epochs + 1.0
    full = math.floor(window / 2.0)  # steps that scan every key below them
    return window - full * (window - full - 1.0) / n_epochs


def path_work(chain: bool, n_systems, eta: float, n_epochs, n_points) -> float:
    """Work in member collapses of a run of `n_epochs` on the chain or per member. An epoch
    costs a collapse for the shared tables, a grid time or chain step _STEP_COLLAPSES. The
    chain draws twice per key a step scans on average, and once per key at each grid time;
    members once, once per expected collapse (a lone member's rounds too), and at each grid
    time once per occupied key, scanning the members and the reachable keys."""
    steps = n_epochs + _STEP_COLLAPSES * (n_points + chain * n_epochs)
    if chain:
        keys = _mean_keys(n_systems, eta, n_epochs)
        draws, scanned = keys * (2.0 * n_epochs + n_points), keys * (n_epochs + n_points)
    else:
        keys, collapses = 2.0 * n_epochs + 2.0, (1.0 - eta) * n_epochs
        steps += _ROUND_COLLAPSES * collapses
        draws = n_systems * (1.0 + collapses) + min(n_systems, keys) * n_points
        scanned = (n_systems + keys) * n_points
    return steps + draws + _SCAN_COLLAPSES * scanned


def run_work(n_systems, eta: float, epochs: float, n_points) -> tuple:
    """The plan `simulate_distinguishable` runs for `epochs` = t_end / dt over `n_points`
    grid times, at least one: (chain, n_epochs, work in member collapses), the path
    `path_work` prices cheaper (members on a tie)."""
    n_epochs = math.floor(epochs + 1e-9)  # one that rounding puts just past t_end counts
    work = [path_work(chain, n_systems, eta, n_epochs, n_points) for chain in (False, True)]
    chain = work[True] < work[False]
    return chain, n_epochs, work[chain]


def simulate_distinguishable(
    system: RabiSystem, env: DistinguishableEnv, cfg: EnsembleConfig
) -> ProbabilitySeries:
    """Fraction of the ensemble found in the ground state at each grid time.

    A member prepared at epoch r in ground (sign +1) or excited (sign -1)
    is found in ground at t with probability
    1/2 + 1/2 sign cos(2w (t - r dt)). So a collapse at epoch n finds ground
    when a uniform on [-1, 1) falls below bias = sign cos(2w dt (n - r)),
    tabulated once per lag as lag_bias[2n - key]. A measurement expands the
    cosine about the preparation epoch,
    p = 1/2 + 1/2 sign (cos 2w dt r cos 2wt + sin 2w dt r sin 2wt),
    which is exactly 0 or 1 at t = 0.
    """
    times = time_grid(cfg.grid)
    meta = series_meta("monte-carlo-distinguishable", system, dt=env.dt, eta=env.eta,
                       n_systems=cfg.n_systems, seed=cfg.seed)
    if times.size == 0:
        return ProbabilitySeries(times, np.empty(0), meta)
    chain, n_epochs = run_work(cfg.n_systems, env.eta, float(times[-1]) / env.dt, times.size)[:2]
    # epochs handled before each grid time; an epoch at n dt == t comes first
    last_epoch = np.searchsorted(env.dt * np.arange(1, n_epochs + 1), times, side="right")
    epoch_phase = 2.0 * system.omega * env.dt * np.arange(n_epochs + 1)
    epoch_cos = np.cos(epoch_phase)
    epoch_sin = np.sin(epoch_phase, out=epoch_phase)  # no phase table held over the run
    # lag_bias[2m] = -cos(2w dt m) (excited), lag_bias[2m - 1] = +cos(2w dt m) (ground)
    lag_bias = np.empty(2 * n_epochs + 1)
    lag_bias[0::2] = -epoch_cos
    lag_bias[1::2] = epoch_cos[1:]
    born = (epoch_cos, epoch_sin, np.cos(2.0 * system.omega * times),
            np.sin(2.0 * system.omega * times))
    initial_key = 1 if system.initial_state is InitialState.GROUND else 0

    if chain:
        counts = _chain(_block_rng(cfg.seed, 0), cfg.n_systems, initial_key, env.eta,
                        last_epoch, lag_bias, born)
    else:
        n_blocks = -(-cfg.n_systems // BLOCK_SIZE)
        size, larger = divmod(cfg.n_systems, n_blocks)  # blocks 0 .. larger - 1 hold one more
        counts = sum(_block(_block_rng(cfg.seed, block), size + (block < larger), initial_key,
                            _rate(env.eta), last_epoch, lag_bias, born)
                     for block in range(n_blocks))
    return ProbabilitySeries(times, counts / float(cfg.n_systems), meta)


def _measure(rng: np.random.Generator, occupancy: np.ndarray, lo: int, reach: int,
             born: tuple, i: int) -> int:
    """Members found in ground at grid time i, none of them in a key outside lo..reach - 1:
    one binomial per occupied key, in ascending key order."""
    epoch_cos, epoch_sin, grid_cos, grid_sin = born
    state = lo + np.flatnonzero(occupancy[lo:reach])
    r = state >> 1
    sign = 2.0 * (state & 1) - 1.0
    p = 0.5 + 0.5 * sign * (epoch_cos[r] * grid_cos[i] + epoch_sin[r] * grid_sin[i])
    return rng.binomial(occupancy[state], np.clip(p, 0.0, 1.0)).sum()


def _chain(rng: np.random.Generator, n_systems: int, initial_key: int, eta: float,
           last_epoch: np.ndarray, lag_bias: np.ndarray, born: tuple) -> np.ndarray:
    """Ground counts at each grid time of all `n_systems` members, stepped per epoch."""
    counts = np.empty(last_epoch.size, dtype=np.int64)
    occupancy = np.zeros(lag_bias.size + 1, dtype=np.int64)
    occupancy[initial_key] = n_systems
    lo, done = initial_key, 0  # no key below lo is occupied; epochs 1 .. done are stepped
    for i, limit in enumerate(last_epoch):
        for n in range(done + 1, limit + 1):
            held = occupancy[lo:2 * n]
            lost = rng.binomial(held, 1.0 - eta)
            held -= lost
            ground = rng.binomial(lost, 0.5 + 0.5 * lag_bias[2 * n - lo:0:-1])
            occupancy[2 * n + 1] = to_ground = ground.sum()
            occupancy[2 * n] = lost.sum() - to_ground
            lo += int(np.flatnonzero(occupancy[lo:2 * n + 2])[0])
        done = limit
        counts[i] = _measure(rng, occupancy, lo, 2 * limit + 2, born, i)
    return counts


def _block(
    rng: np.random.Generator, size: int, initial_key: int, rate: float,
    last_epoch: np.ndarray, lag_bias: np.ndarray, born: tuple,
) -> np.ndarray:
    """Ground counts at each grid time for one block of `size` members drawing from `rng`."""
    counts = np.empty(last_epoch.size, dtype=np.int64)
    key = np.full(size, initial_key, dtype=np.int64)
    if rate > 0.0:
        nxt = _waiting_epochs(rng, rate, size)
    else:  # eta == 1: no member ever collapses
        nxt = np.full(size, np.iinfo(np.int64).max)
    occupancy = np.zeros(lag_bias.size + 1, dtype=np.int64)
    occupancy[initial_key] = size
    for i, limit in enumerate(last_epoch):
        reach = 2 * limit + 2  # no key exceeds 2 limit + 1 yet
        due = np.flatnonzero(nxt <= limit)
        moved = due  # only these members can change key
        occupancy[:reach] -= np.bincount(key[moved], minlength=reach)
        while due.size:
            n = nxt[due]
            ground = rng.uniform(-1.0, 1.0, due.size) < lag_bias[2 * n - key[due]]
            key[due] = 2 * n + ground
            n += _waiting_epochs(rng, rate, due.size)
            nxt[due] = n
            due = due[n <= limit]
        occupancy[:reach] += np.bincount(key[moved], minlength=reach)
        counts[i] = _measure(rng, occupancy, 0, reach, born, i)
    return counts


def _waiting_epochs(rng: np.random.Generator, rate: float, size: int) -> np.ndarray:
    """Epochs up to the next collapse, Geometric(1 - eta) with rate = -ln(eta).

    Inverts an exponential draw: P(1 + floor(E / rate) > k) = eta^k.
    """
    return 1 + (rng.standard_exponential(size) / rate).astype(np.int64)
