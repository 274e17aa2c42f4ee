"""Acceptance gate: every criterion at its stated tolerance and runtime.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion. Criteria 1 and 2 fit the distinguishable predictor at
omega*dt = 0.08 (eta = 0.99 and 0.997) and check the fitted decay factor
against the recursion's exact envelope rate -ln(eta) / (2 dt), 0.0628 and
0.0188, to 1%. The published factors 0.05 and 0.015 are what that rate gives
at omega*dt = 0.1; they are checked there by
tests/test_distinguishable.py::TestLongRunBehaviour::test_published_decay_factors
and by the configs/fig2*_consistent.json presets.
"""
import itertools
import math
import time

import numpy as np
import pytest

from rabideco.core import (
    InitialState,
    ProbabilitySeries,
    RabiSystem,
    binomial_weights_row,
)
from rabideco.distinguishable import (
    DistinguishableEnv,
    build_predictor,
    sample_series,
)
from rabideco.fitting import (
    MasterEqParams,
    damped_sinusoid_model,
    fit_damped_sinusoid,
    master_eq_series,
)
from rabideco.indistinguishable import (
    IndistinguishableEnv,
    approx_closed_form,
    approx_gamma,
    build_nested_table,
    sample_rescaled_series,
)
from rabideco.montecarlo import EnsembleConfig, simulate_distinguishable
from rabideco.experiments import config_from_dict, run_gamma_ratio_experiment

from .reference import binomial_weight, born_ground_prob, damped_sinusoid_jacobian


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")


def _fitted_gamma_distinguishable(eta: float, omega_dt: float, t_max: float = 60.0) -> float:
    system = RabiSystem(omega=1.0)
    env = DistinguishableEnv(dt=omega_dt, eta=eta)
    pred = build_predictor(system, env, math.ceil(t_max / env.dt) + 1)
    series = sample_series(pred, np.linspace(0.0, t_max, 400))
    return fit_damped_sinusoid(series, omega_hint=1.0).gamma


def _check_fig2_decay_factor(criterion: int, panel: str, eta: float, published: float) -> None:
    omega_dt = 0.08
    start = time.monotonic()
    gamma = _fitted_gamma_distinguishable(eta=eta, omega_dt=omega_dt)
    elapsed = time.monotonic() - start
    # The recursion's envelope contracts by exactly sqrt(eta) per epoch (the
    # epoch map has determinant eta and complex eigenvalues here), so the
    # decay factor is -ln(eta) / (2 dt), derived here, not read from the program.
    envelope = -math.log(eta) / (2.0 * omega_dt)
    ok = abs(gamma - envelope) <= 0.01 * envelope and elapsed < 5.0
    detail = (f"gamma/omega = {gamma:.5f} vs -ln(eta)/(2 dt) = {envelope:.5f} "
              f"+- 1% ({elapsed:.2f}s); the published {published} corresponds "
              f"to omega*dt = {-math.log(eta) / (2.0 * published):.4f}")
    _report(f"criterion {criterion} (fig2{panel}, eta={eta}, omega*dt={omega_dt})", ok, detail)
    assert elapsed < 5.0
    assert gamma == pytest.approx(envelope, rel=0.01), detail


def test_criterion_1_fig2a_decay_factor():
    _check_fig2_decay_factor(1, "a", eta=0.99, published=0.05)


def test_criterion_2_fig2b_decay_factor():
    _check_fig2_decay_factor(2, "b", eta=0.997, published=0.015)


def test_criterion_3_fig3_decay_factor():
    start = time.monotonic()
    system = RabiSystem(omega=1.0)
    env = IndistinguishableEnv(dt=0.7, beta=0.995, max_events=5)
    n_max = math.ceil(50.0 / (env.beta * env.dt)) + 1
    table = build_nested_table(system, env, n_max)
    series = sample_rescaled_series(table, env, np.linspace(0.0, 50.0, 300))
    gamma = fit_damped_sinusoid(series, omega_hint=1.0).gamma
    elapsed = time.monotonic() - start
    ok = abs(gamma - 0.039) <= 0.005 and elapsed < 10.0
    detail = f"gamma/omega = {gamma:.5f} vs 0.039 +- 0.005 ({elapsed:.2f}s)"
    _report("criterion 3 (fig3, beta=0.995, omega*dt=0.7, i=5)", ok, detail)
    assert elapsed < 10.0
    assert abs(gamma - 0.039) <= 0.005, detail


def test_criterion_4_fig5_gamma_ratio_exponent():
    start = time.monotonic()
    base = {
        "experiment": "Fig5GammaRatio",
        "system": {"omega": 1.0},
        "env": {"beta": 0.995, "max_events": 5, "omega0_dt": 0.2},
        "ladder": {"n_max": 8},
        "fit_window": {"omega_t_span": 40.0, "n_points": 300},
    }
    _, power_law = run_gamma_ratio_experiment(config_from_dict(dict(base)))
    me_cfg = dict(base)
    me_cfg["predictor"] = "master-eq"
    me_cfg["master_eq"] = {"gamma_se": 0.01}
    _, me_power_law = run_gamma_ratio_experiment(config_from_dict(me_cfg))
    elapsed = time.monotonic() - start
    ok = (abs(power_law.exponent - 0.7) <= 0.1
          and abs(me_power_law.exponent) <= 0.02
          and elapsed < 60.0)
    detail = (f"exponent = {power_law.exponent:.4f} vs 0.7 +- 0.1; master-eq "
              f"baseline exponent = {me_power_law.exponent:.5f} vs 0 +- 0.02 "
              f"({elapsed:.2f}s)")
    _report("criterion 4 (fig5 ladder, omega0*dt=0.2)", ok, detail)
    assert elapsed < 60.0
    assert abs(power_law.exponent - 0.7) <= 0.1, detail
    assert abs(me_power_law.exponent) <= 0.02, detail


def test_criterion_5_oracle_equivalence():
    start = time.monotonic()
    system = RabiSystem(omega=1.0)
    env = DistinguishableEnv(dt=0.08, eta=0.99)
    grid = np.linspace(0.0, 30.0, 121)
    n = 100_000
    mc = simulate_distinguishable(system, env, EnsembleConfig(n, 20260809, tuple(grid)))
    pred = build_predictor(system, env, math.ceil(30.0 / env.dt) + 1)
    ana = sample_series(pred, grid)
    sigma = np.sqrt(ana.probs * (1.0 - ana.probs) / n)
    dev = np.abs(mc.probs - ana.probs)
    bad = int(np.sum(dev > np.maximum(5.0 * sigma, 1e-15)))
    worst = float(np.max(np.where(sigma > 0, dev / np.maximum(sigma, 1e-300), 0.0)))
    elapsed = time.monotonic() - start
    ok = bad == 0 and elapsed < 30.0
    detail = f"max |z| = {worst:.2f}, points beyond 5 sigma: {bad}/121 ({elapsed:.2f}s)"
    _report("criterion 5 (Monte Carlo vs recursion, N=1e5)", ok, detail)
    assert elapsed < 30.0
    assert bad == 0, detail


def _nested_sum_enumeration(omega, dt, beta, i, n):
    if i == 0:
        return math.sin(omega * n * dt) ** 2
    total = 0.0
    for chain in itertools.product(range(n + 1), repeat=i):
        ks = (n,) + chain
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


def test_criterion_6_brute_force_equivalence():
    start = time.monotonic()
    omega, dt = 1.3, 0.4
    system = RabiSystem(omega=omega)
    worst = 0.0
    for beta in (0.3, 0.7, 0.995):
        for i in (0, 1, 2):
            env = IndistinguishableEnv(dt=dt, beta=beta, max_events=i)
            table = build_nested_table(system, env, 6)
            for n in range(7):
                brute = _nested_sum_enumeration(omega, dt, beta, i, n)
                worst = max(worst, abs(table.ground[n] - brute))
    elapsed = time.monotonic() - start
    ok = worst <= 1e-12 and elapsed < 5.0
    detail = f"max |DP - enumeration| = {worst:.2e} over n<=6, i<=2 ({elapsed:.2f}s)"
    _report("criterion 6 (nested-sum brute force)", ok, detail)
    assert elapsed < 5.0
    assert worst <= 1e-12, detail


def test_criterion_7_property_suite():
    start = time.monotonic()
    failures = []
    system = RabiSystem(omega=1.0)

    # preparation mirror, both predictors: P_g[excited] + P_g[ground] = 1
    system_g = RabiSystem(omega=1.0, initial_state=InitialState.GROUND)
    env_d = DistinguishableEnv(dt=0.17, eta=0.95)
    pred = build_predictor(system, env_d, 250)
    ts = np.linspace(0.0, 40.0, 121)
    mirror = (sample_series(pred, ts).probs
              + sample_series(build_predictor(system_g, env_d, 250), ts).probs)
    if float(np.max(np.abs(mirror - 1.0))) > 1e-12:
        failures.append("distinguishable preparation mirror")
    env_i = IndistinguishableEnv(dt=0.6, beta=0.9, max_events=5)
    table = build_nested_table(system, env_i, 40)
    if float(np.max(np.abs(table.ground + build_nested_table(system_g, env_i, 40).ground
                           - 1.0))) > 1e-12:
        failures.append("nested preparation mirror")

    # binomial normalization, row n taken step by step from row 0
    for n, beta in ((500, 0.5), (10_000, 0.995), (10_000, 0.01)):
        row = np.empty(0)
        for _ in range(n + 1):
            row = binomial_weights_row(row, beta)
        if abs(math.fsum(row) - 1.0) >= 1e-10:
            failures.append(f"binomial normalization n={n}")

    # boundary continuity: the first float of interval n against the last of n - 1
    for n in range(1, pred.n_max + 1):
        right = n * env_d.dt
        while math.floor(math.nextafter(right, 0.0) / env_d.dt) >= n:
            right = math.nextafter(right, 0.0)
        while math.floor(right / env_d.dt) < n:
            right = math.nextafter(right, math.inf)
        left = math.nextafter(right, 0.0)
        p_left, p_right = sample_series(pred, [left, right]).probs
        if abs(p_right - p_left) > 1e-12:
            failures.append("boundary continuity")
            break

    # isolation reductions, exact
    pred_iso = build_predictor(system, DistinguishableEnv(dt=0.3, eta=1.0), 100)
    ts = np.linspace(0.0, 29.0, 57)
    if any(p != born_ground_prob(system, float(t))
           for t, p in zip(ts, sample_series(pred_iso, ts).probs)):
        failures.append("eta=1 reduction")
    env_b1 = IndistinguishableEnv(dt=0.3, beta=1.0, max_events=4)
    table_b1 = build_nested_table(system, env_b1, 30)
    if any(table_b1.ground[k] != math.sin(0.3 * k) ** 2 for k in range(31)):
        failures.append("beta=1 reduction")

    # master equation dissipation-free reduction
    params0 = MasterEqParams(omega=1.0, gamma_se=0.0)
    ts = np.linspace(0.0, 20.0, 101)
    if any(abs(p - born_ground_prob(system, float(t))) > 1e-12
           for t, p in zip(ts, master_eq_series(params0, ts).probs)):
        failures.append("master-eq gamma=0 reduction")

    # fitter round trips
    t = np.linspace(0.0, 30.0, 400)
    for gamma in (0.005, 0.05, 0.2):
        y = 0.5 * (1.0 - np.exp(-gamma * t) * np.cos(2.0 * t))
        fit = fit_damped_sinusoid(ProbabilitySeries(t, y, {}), omega_hint=1.0)
        if abs(fit.gamma - gamma) > 1e-6 * gamma:
            failures.append(f"fit round trip gamma={gamma}")

    # analytic jacobian vs central differences
    rng = np.random.default_rng(3)
    ts = np.linspace(0.1, 10.0, 40)
    for _ in range(10):
        p = np.array([rng.uniform(0.01, 0.2), rng.uniform(0.5, 2.0),
                      rng.uniform(-0.6, -0.3), rng.uniform(0.4, 0.6),
                      rng.uniform(-0.5, 0.5)])
        jac = damped_sinusoid_jacobian(ts, p)
        for i in range(5):
            bump = np.zeros(5)
            bump[i] = 1e-6
            numeric = (damped_sinusoid_model(ts, p + bump)
                       - damped_sinusoid_model(ts, p - bump)) / 2e-6
            if float(np.max(np.abs(jac[:, i] - numeric) / np.maximum(np.abs(numeric), 1e-3))) > 1e-5:
                failures.append(f"jacobian column {i}")

    # scale invariance under (omega, dt, t) -> (c omega, dt/c, t/c)
    c = 2.5
    pred_s = build_predictor(RabiSystem(c), DistinguishableEnv(dt=0.17 / c, eta=0.95), 250)
    t_probe = np.linspace(0.0, 40.0, 41)
    if float(np.max(np.abs(sample_series(pred_s, t_probe / c).probs
                           - sample_series(pred, t_probe).probs))) > 1e-12:
        failures.append("distinguishable scale invariance")
    table_s = build_nested_table(RabiSystem(c),
                                 IndistinguishableEnv(dt=0.6 / c, beta=0.9, max_events=5), 40)
    if float(np.max(np.abs(table_s.ground - table.ground))) > 1e-12:
        failures.append("nested scale invariance")

    elapsed = time.monotonic() - start
    ok = not failures
    detail = f"all properties hold ({elapsed:.2f}s)" if ok else f"failed: {failures}"
    _report("criterion 7 (property suite)", ok, detail)
    assert ok, detail


def test_criterion_8_approximation_consistency():
    start = time.monotonic()
    system = RabiSystem(omega=1.0)
    worst = 0.0
    for omega_dt in (0.05, 0.03):
        env = IndistinguishableEnv(dt=omega_dt, beta=0.999, max_events=5)
        grid = np.linspace(0.0, 40.0, 600)
        fit = fit_damped_sinusoid(approx_closed_form(system, env, grid), omega_hint=1.0)
        ref = approx_gamma(system, env)
        worst = max(worst, abs(fit.gamma - ref) / ref)
    elapsed = time.monotonic() - start
    ok = worst <= 0.10
    detail = f"max relative gamma error = {worst:.3%} vs 2(1-beta) omega^2 dt ({elapsed:.2f}s)"
    _report("criterion 8 (closed-form approximation)", ok, detail)
    assert worst <= 0.10, detail
