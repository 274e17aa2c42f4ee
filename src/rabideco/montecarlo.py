"""Seeded stochastic oracle for the distinguishable predictor, recursion-free.

`simulate_distinguishable` plays out the collapse scenario trajectory by
trajectory: at every multiple of dt each member suffers, with probability
1 - eta, a passive measurement that collapses it to ground or excited with
its current Born weights and resets its evolution clock. Between collapses
the evolution is the plain unitary Born law with the reset clock; there is
no effective non-Hermitian Hamiltonian anywhere.

The sampler is event-driven, after the waiting-time method of quantum-jump
Monte Carlo (Dalibard, Castin & Molmer, PRL 68, 580 (1992)): the number of
epochs up to a member's next collapse is geometric with success probability
1 - eta, so it is drawn directly and epochs without a collapse cost nothing.
The grid times are stepped in order; before each one, every member whose
next collapse falls at or before it (an epoch at n dt == t comes first) is
collapsed, possibly several times, and then the whole ensemble is measured.

A member's whole state is one integer key 2r + g: r is the epoch of its
last preparation (0 for the initial one) and g = 1 if it was prepared in
ground, 0 in excited. Each member's trajectory is tracked, so every
correlation between grid times is kept, but members in equal states are
i.i.d. at a measurement: each grid time draws one binomial per occupied
state instead of one uniform per member. A block keeps its occupancy, the
number of members per key, in one table of all 2 epochs + 2 keys from one
grid time to the next. Only the members due before a grid time can change
key, and a grid time after l epochs can reach only the first 2 l + 2 keys:
a bincount of the due members' old keys over those is taken off the table
before the collapses, one of their new keys is added after, and the
occupied states are looked for there.

Cost model, per block of N members (`run_work`): N first waiting times, and
the collapses cost O(N (1 - eta) epochs) draws. A grid time costs one scan of
the block for the members due (a comparison per member), O(moved) to gather
their keys, scans of the keys reachable so far to update the occupancy and
find the occupied states, and one binomial per occupied state, of which
there are at most min(N, 2 epochs + 2). A binomial takes
60-170 ns (numpy 2.4, 2-core Xeon VM), as long as a uniform, bias and
comparison for each of 10-25 members, so counting pays above about that many
members per occupied state; every preset and benchmark item has at least 45
per possible state. Against one uniform per member, over 121 grid times
(same VM), it took 0.9x the time at N = 2e4, eta = 0.99 over 3750 epochs and
0.7x at N = 3e5, eta = 0.997 over 3750 epochs, but 1.5-3.0x at N = 1e5-3e5,
eta = 0.9999 over 1e5 epochs, where almost every member is alone in its
state (up to +1.1 s at N = 3e5).

The ensemble is split into ceil(N / BLOCK_SIZE) blocks whose sizes differ by
at most one, the larger first. Each block draws from its own stream spawned
from (seed, block index) and the ground counts are summed in block order, so
a run gives the same bits however many blocks run at once. Blocks run at
once on plain threads, worker k of w taking blocks k, k + w, ..., and the
calling thread is worker 0; a one-block run (N <= BLOCK_SIZE) starts no
thread. The collapse loop is almost all of a dense block, and numpy runs it
with the GIL released: timed alone on a 50000-member block over 375 epochs
and 121 grid times (numpy 2.4, 2-core Xeon VM), it is 85% of 433 ms at
eta = 0.5, so two dense blocks take about 1.6x less time on two cores. At
eta = 0.99 the 36 ms split into 26% scans for the members due, 29%
collapses, 34% binomials and 7% occupancy updates: many small numpy calls,
between which two threads hand the GIL back and forth (on the oracle_check
preset, about 2700 context switches per run instead of none, up to 1.3x the
wall time and 1.9x the CPU time of one thread). So blocks run
one at a time while a member is expected to collapse fewer than
_PARALLEL_COLLAPSES times over the run.

Within a block the draw order is: one exponential vector for the first
waiting times (none at eta = 1); then per grid time, while some members
are due, an outcome vector and an exponential vector (next waiting times)
over just those members, in ascending member order; then one binomial
vector over the occupied states, in ascending key order.
"""
from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .core import (WORK_BUDGET, InitialState, ProbabilitySeries, RabiSystem, series_meta,
                   time_grid)
from .distinguishable import DistinguishableEnv

BLOCK_SIZE = 65536
# Blocks run one at a time while a member collapses fewer times than this over
# a run: the collapse loop is then a small part of a block, and a second thread
# mostly adds GIL hand-offs. At N = 1e5, 121 grid times, two threads ran
# 0.83-1.03x as fast at 3.75 collapses per member (eta 0.99, 375 epochs),
# 1.1-1.2x at 7.5 and 1.9x at 187 (numpy 2.4, 2-core Xeon VM).
_PARALLEL_COLLAPSES = 5.0


@dataclass(frozen=True, eq=False)
class EnsembleConfig:
    """Ensemble size, master seed, and the measurement grid."""

    n_systems: int
    seed: int
    grid: tuple = ()

    def __post_init__(self) -> None:
        if self.n_systems < 1:
            raise ValueError(f"n_systems must be >= 1, got {self.n_systems}")


def _block_rng(seed: int, block: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(block,))))


def _usable_cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _held_words(n_epochs, block_size, live: int) -> float:
    """The oracle's memory model: 5 words per epoch for the shared cosine, sine and lag
    tables and the temporary that builds them; per live block, 4 per epoch for the
    occupancy table and one bincount taken off or added to it, and about 10 per member
    (keys, next collapses, collapse temporaries)."""
    return 5.0 * n_epochs + live * (4.0 * n_epochs + 10.0 * block_size)


def _live_blocks(n_blocks: int, n_epochs: int, block_size: int, collapses: float) -> int:
    """How many blocks run at once: one below _PARALLEL_COLLAPSES expected `collapses`
    per member, else as many as the usable cores, the blocks and WORK_BUDGET allow."""
    if collapses < _PARALLEL_COLLAPSES:
        return 1
    shared = _held_words(n_epochs, block_size, 0)
    budget = int((WORK_BUDGET - shared) // (_held_words(n_epochs, block_size, 1) - shared))
    return max(1, min(_usable_cores(), n_blocks, budget))


def run_work(n_systems, eta: float, n_epochs, n_points) -> tuple[float, float, float]:
    """Words held, one block live, draws made and members and keys scanned by
    `simulate_distinguishable`, after the cost model above: one draw per expected
    collapse, and at every grid time one scan of the members for those due and one of
    the keys reachable by the last epoch. An empty grid costs nothing."""
    if not n_points:
        return 0.0, 0.0, 0.0
    keys = 2.0 * n_epochs + 2.0
    draws = n_systems * (1.0 + (1.0 - eta) * n_epochs) + min(n_systems, keys) * n_points
    scanned = (n_systems + keys) * n_points
    return _held_words(n_epochs, min(n_systems, BLOCK_SIZE), 1), draws, scanned


def simulate_distinguishable(
    system: RabiSystem, env: DistinguishableEnv, cfg: EnsembleConfig
) -> ProbabilitySeries:
    """Fraction of the ensemble found in the ground state at each grid time.

    Each member is measured independently at every grid time (a Bernoulli
    draw with its current Born probability); the collapse epochs at
    multiples of dt advance its hidden state. Deterministic per seed.

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
    n_epochs = int(math.floor(float(times[-1]) / env.dt + 1e-9))
    # epochs handled before each grid time; an epoch at n dt == t comes first
    last_epoch = np.searchsorted(env.dt * np.arange(1, n_epochs + 1), times, side="right")
    epoch_phase = 2.0 * system.omega * env.dt * np.arange(n_epochs + 1)
    epoch_cos = np.cos(epoch_phase)
    epoch_sin = np.sin(epoch_phase, out=epoch_phase)  # no phase table held over the run
    # lag_bias[2m] = -cos(2w dt m) (excited), lag_bias[2m - 1] = +cos(2w dt m) (ground)
    lag_bias = np.empty(2 * n_epochs + 1)
    lag_bias[0::2] = -epoch_cos
    lag_bias[1::2] = epoch_cos[1:]
    grid_cos, grid_sin = np.cos(2.0 * system.omega * times), np.sin(2.0 * system.omega * times)
    rate = -math.log(env.eta) if env.eta > 0.0 else math.inf
    initial_key = 1 if system.initial_state is InitialState.GROUND else 0

    n_blocks = -(-cfg.n_systems // BLOCK_SIZE)
    size, larger = divmod(cfg.n_systems, n_blocks)  # blocks 0 .. larger - 1 hold one more
    workers = _live_blocks(n_blocks, n_epochs, size + (larger > 0), (1.0 - env.eta) * n_epochs)
    block_counts = [None] * n_blocks
    errors = []

    def run_share(first: int) -> None:
        """Blocks first, first + workers, ...; stops at the first error of any share."""
        try:
            for block in range(first, n_blocks, workers):
                if errors:
                    return
                block_counts[block] = _block(
                    _block_rng(cfg.seed, block), size + (block < larger), initial_key, rate,
                    n_epochs, last_epoch, lag_bias, epoch_cos, epoch_sin, grid_cos, grid_sin)
        except BaseException as exc:  # raised again on the calling thread
            errors.append(exc)

    threads = []
    try:
        for first in range(1, workers):
            thread = threading.Thread(target=run_share, args=(first,))
            thread.start()
            threads.append(thread)
        run_share(0)
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]
    probs = np.sum(block_counts, axis=0) / float(cfg.n_systems)
    return ProbabilitySeries(times, probs, meta)


def _block(
    rng: np.random.Generator, size: int, initial_key: int, rate: float, n_epochs: int,
    last_epoch: np.ndarray, lag_bias: np.ndarray, epoch_cos: np.ndarray, epoch_sin: np.ndarray,
    grid_cos: np.ndarray, grid_sin: np.ndarray,
) -> np.ndarray:
    """Ground counts at each grid time for one block of `size` members drawing from `rng`."""
    counts = np.empty(last_epoch.size, dtype=np.int64)
    key = np.full(size, initial_key, dtype=np.int64)
    if rate > 0.0:
        nxt = _waiting_epochs(rng, rate, size)
    else:  # eta == 1: no member ever collapses
        nxt = np.full(size, np.iinfo(np.int64).max)
    occupancy = np.zeros(2 * n_epochs + 2, dtype=np.int64)
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
        state = np.flatnonzero(occupancy[:reach])
        r = state >> 1
        sign = 2.0 * (state & 1) - 1.0
        p = 0.5 + 0.5 * sign * (epoch_cos[r] * grid_cos[i] + epoch_sin[r] * grid_sin[i])
        counts[i] = rng.binomial(occupancy[state], np.clip(p, 0.0, 1.0)).sum()
    return counts


def _waiting_epochs(rng: np.random.Generator, rate: float, size: int) -> np.ndarray:
    """Epochs up to the next collapse, Geometric(1 - eta) with rate = -ln(eta).

    Inverts an exponential draw: P(1 + floor(E / rate) > k) = eta^k.
    """
    return 1 + (rng.standard_exponential(size) / rate).astype(np.int64)
