"""Seeded item lists for the four benchmark workloads.

An item is one experiment config that the worker runs in-process through
`rabideco.cli.main(["experiment", ...])`. The seed picks parameters inside
fixed ranges; the program only ever sees the generated config files.

Sizes that set the cost of an item (epochs, table size, truncation order,
ensemble size) are stratified: item i of a group draws from the i-th of
`count` equal slices of the range. Every seed therefore gets the same spread
of costs, and the batch wall time depends on the code, not on the seed.
Parameters that do not change the cost (eta, beta, dt, grid jitter) are
drawn freely.

On the two large workloads about a third of the items share a typical size
(a narrow slice in the middle of the range). The median item is then one of
many alike, so `item_p50_ms` does not jump between sizes when run-to-run
noise reorders items of neighbouring cost.

Standard library only: the set-up process imports this module, and its time
is part of `setup_s`.
"""
from __future__ import annotations

import json
import random
from pathlib import Path

WORKLOADS = ("dist_long", "nested_mix", "mc_sparse", "mc_dense")

FORMATS = ("csv", "json", "svg")

# Why each workload exists, its item count and its parameter ranges. run.py
# prints the entry of the workload it runs; perfbench/README.md repeats it.
PROVENANCE = {
    "dist_long": {
        "why": "build_predictor's O(n^2) level sweep does most of the work; "
               "this is where a faster distinguishable recursion shows",
        "items": 104,
        "ranges": {
            "presets": "configs/fig2a, fig2a_consistent, fig2b, fig2b_consistent",
            "epochs": "50 items stratified over [1000, 4000], 50 over [2300, 2700]",
            "omega_dt": "one of 0.05, 0.08, 0.1 (omega = 1)",
            "eta": "uniform [0.99, 0.999]",
            "n_points": "uniform integer [950, 1050]",
        },
    },
    "nested_mix": {
        "why": "build_nested_table and its per-(n, k) binomial_weights_row "
               "calls dominate; deep truncations sit on the other side of the "
               "exponential-sum vs matrix choice",
        "items": 100,
        "ranges": {
            "presets": "configs/fig3, fig5, fig5_master_eq, master_eq",
            "shallow Fig3 (60)": "max_events 5, table size stratified over "
                                 "[300, 800] (30 items) and [400, 440] (30), dt "
                                 "uniform [0.1, 0.7], beta uniform [0.99, 0.998], "
                                 "n_points [400, 600]",
            "deep Fig3 (24)": "max_events cycling 10..16, table size "
                              "stratified over [60, 150], same dt and beta",
            "Fig5 (6)": "omega0_dt stratified over [0.1, 0.14], beta 0.995, "
                        "max_events 5, target of configs/fig5",
            "Fig5 master-eq (3)": "gamma_se stratified over [0.005, 0.05], "
                                  "target of configs/fig5_master_eq",
            "MasterEqBaseline (3)": "gamma_se stratified over [0.01, 0.1]",
        },
    },
    "mc_sparse": {
        "why": "Monte Carlo oracle at eta = 0.99: one draw in 100 collapses, "
               "the wasted work an event-driven sampler removes",
        "items": 2,
        "ranges": {
            "preset": "configs/oracle_check (eta 0.99, omega dt 0.08, "
                      "N 1e5, 121 points, 375 epochs)",
            "seed": "derived from the workload seed, one per item",
        },
    },
    "mc_dense": {
        "why": "the same oracle at eta = 0.5: half of all draws collapse, so a "
               "skip-ahead sampler saves little; guards mc_sparse gains and memory",
        "items": 2,
        "ranges": {
            "preset": "configs/oracle_check with eta 0.5",
            "seed": "derived from the workload seed, one per item",
        },
    },
}


# How strongly each workload's item times follow the calibration kernel's:
# the power of the kernel's slowdown they are scaled by (see calibrate.py).
# Fitted on the 2-core machine this was tuned on, from Monte Carlo items
# interleaved with kernel readings over the host's slow and fast spells.
CALIBRATION_EXPONENT = {
    "dist_long": 1.0,
    "nested_mix": 1.0,
    "mc_sparse": 0.4,
    "mc_dense": 0.4,
}

# The span (tracing.TARGETS) doing the work each workload exists to measure.
# A traced run in which it is never called is refused: the program would be
# doing that work under another name, and its per-layer figures would read 0.
MAIN_SPAN = {
    "dist_long": "distinguishable.build_predictor",
    "nested_mix": "indistinguishable.build_nested_table",
    "mc_sparse": "montecarlo.simulate_distinguishable",
    "mc_dense": "montecarlo.simulate_distinguishable",
}


def _strata(rng: random.Random, count: int, lo: float, hi: float) -> list[float]:
    """One draw from each of `count` equal slices of [lo, hi], in slice order."""
    width = (hi - lo) / count
    return [lo + width * (i + rng.random()) for i in range(count)]


def _preset(root: Path, name: str) -> dict:
    return json.loads((root / "configs" / f"{name}.json").read_text(encoding="utf-8"))


def _dist_long(rng: random.Random, root: Path) -> list[dict]:
    configs = [_preset(root, name) for name in
               ("fig2a", "fig2a_consistent", "fig2b", "fig2b_consistent")]
    for epochs in _strata(rng, 50, 1000.0, 4000.0) + _strata(rng, 50, 2300.0, 2700.0):
        dt = rng.choice((0.05, 0.08, 0.1))
        configs.append({
            "experiment": "Fig2Distinguishable",
            "system": {"omega": 1.0, "initial_state": "excited"},
            "env": {"dt": dt, "eta": rng.uniform(0.99, 0.999)},
            "grid": {"t_max": round(epochs) * dt, "n_points": rng.randint(950, 1050)},
        })
    return configs


def _fig3(rng: random.Random, n_table: float, max_events: int) -> dict:
    beta = rng.uniform(0.99, 0.998)
    # omega dt (omega = 1) down to the smallest omega_n dt of the Fig5 ladders
    # (level 0 at omega0_dt 0.1), so the nested-curve reference check covers
    # what the Fig5 items run on pool threads; dt leaves the cost unchanged
    dt = rng.uniform(0.1, 0.7)
    return {
        "experiment": "Fig3Indistinguishable",
        "system": {"omega": 1.0, "initial_state": "excited"},
        "env": {"dt": dt, "beta": beta, "max_events": max_events},
        # t_max / (beta dt) is the table size the program builds
        "grid": {"t_max": round(n_table) * beta * dt, "n_points": rng.randint(400, 600)},
    }


def _nested_mix(rng: random.Random, root: Path) -> list[dict]:
    fig5 = _preset(root, "fig5")
    fig5_me = _preset(root, "fig5_master_eq")
    master = _preset(root, "master_eq")
    configs = [_preset(root, "fig3"), fig5, fig5_me, master]
    configs += [_fig3(rng, n, 5)
                for n in _strata(rng, 30, 300.0, 800.0) + _strata(rng, 30, 400.0, 440.0)]
    configs += [_fig3(rng, n, 10 + i % 7)
                for i, n in enumerate(_strata(rng, 24, 60.0, 150.0))]
    for omega0_dt in _strata(rng, 6, 0.1, 0.14):
        cfg = json.loads(json.dumps(fig5))
        cfg["env"]["omega0_dt"] = omega0_dt
        configs.append(cfg)
    for gamma_se in _strata(rng, 3, 0.005, 0.05):
        cfg = json.loads(json.dumps(fig5_me))
        cfg["master_eq"]["gamma_se"] = gamma_se
        configs.append(cfg)
    for gamma_se in _strata(rng, 3, 0.01, 0.1):
        cfg = json.loads(json.dumps(master))
        cfg["env"]["gamma_se"] = gamma_se
        configs.append(cfg)
    return configs


def _oracle(rng: random.Random, root: Path, eta: float) -> list[dict]:
    configs = []
    for _ in range(2):  # 2 items of ~3 s: three rounds, and their median, fit a 24 s run
        cfg = _preset(root, "oracle_check")
        cfg["env"]["eta"] = eta
        cfg["seed"] = rng.randrange(2**31)
        configs.append(cfg)
    return configs


def generate(workload: str, seed: int, root: Path) -> list[dict]:
    """The workload's items in run order: dicts with `id` and `config`.

    `root` is the checkout whose `configs/` presets seed the lists. Each
    config's output prefix is set to the item id, so outputs never collide.
    """
    rng = random.Random(f"{workload}:{seed}")
    if workload == "dist_long":
        configs = _dist_long(rng, root)
    elif workload == "nested_mix":
        configs = _nested_mix(rng, root)
    elif workload == "mc_sparse":
        configs = _oracle(rng, root, 0.99)
    elif workload == "mc_dense":
        configs = _oracle(rng, root, 0.5)
    else:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng.shuffle(configs)
    items = []
    for idx, cfg in enumerate(configs):
        item_id = f"{idx:03d}-{cfg['experiment']}"
        cfg["output"] = {"prefix": item_id}
        items.append({"id": item_id, "config": cfg})
    return items


def write_configs(items: list[dict], config_dir: Path, out_dir: Path) -> list[list[str]]:
    """Write each item's config file; return the CLI argv that runs it."""
    config_dir.mkdir(parents=True, exist_ok=True)
    argvs = []
    for item in items:
        path = config_dir / f"{item['id']}.json"
        path.write_text(json.dumps(item["config"], indent=2), encoding="utf-8")
        argv = ["experiment", "--config", str(path), "--out", str(out_dir)]
        for fmt in FORMATS:
            argv += ["--format", fmt]
        argvs.append(argv)
    return argvs
