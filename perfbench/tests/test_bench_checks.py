import math

import numpy as np
import pytest

import checks
from rabideco import (DistinguishableEnv, IndistinguishableEnv, RabiSystem,
                      build_nested_table, build_predictor, fit_damped_sinusoid,
                      sample_rescaled_series, sample_series)

FIG2 = {"experiment": "Fig2Distinguishable", "system": {"omega": 1.0},
        "env": {"dt": 0.08, "eta": 0.99}, "grid": {"t_max": 120.0, "n_points": 500}}
FIG3 = {"experiment": "Fig3Indistinguishable", "system": {"omega": 1.0},
        "env": {"dt": 0.5, "beta": 0.995, "max_events": 5},
        "grid": {"t_max": 100.0, "n_points": 300}}
ORACLE = {"experiment": "OracleCrossCheck", "system": {"omega": 1.0},
          "env": {"dt": 0.08, "eta": 0.99}, "grid": {"t_max": 30.0, "n_points": 121},
          "mc": {"n_systems": 100000}, "target": {"max_abs_z": 5.0}}


def _fig2_outputs():
    env = DistinguishableEnv(dt=FIG2["env"]["dt"], eta=FIG2["env"]["eta"])
    grid = np.linspace(0.0, FIG2["grid"]["t_max"], FIG2["grid"]["n_points"])
    pred = build_predictor(RabiSystem(1.0), env, math.ceil(grid[-1] / env.dt) + 1)
    series = sample_series(pred, grid)
    fit = fit_damped_sinusoid(series, omega_hint=1.0)
    return np.column_stack([series.times, series.probs]), {"fit": {"gamma": fit.gamma}}


def test_distinguishable_check_accepts_the_program_and_flags_1e_6():
    table, summary = _fig2_outputs()
    assert checks.check_fig2(FIG2, table, summary) == []
    table[250, 1] += 1e-6
    assert any("p_predicted" in e for e in checks.check_fig2(FIG2, table, summary))


def test_distinguishable_check_flags_a_decay_rate_off_by_more_than_one_percent():
    table, summary = _fig2_outputs()
    summary["fit"]["gamma"] *= 1.02
    assert any("gamma" in e for e in checks.check_fig2(FIG2, table, summary))


def test_nested_check_accepts_the_program_and_flags_1e_6():
    env = IndistinguishableEnv(dt=0.5, beta=0.995, max_events=5)
    grid = np.linspace(0.0, FIG3["grid"]["t_max"], FIG3["grid"]["n_points"])
    table = build_nested_table(RabiSystem(1.0), env, math.ceil(grid[-1] / (0.995 * 0.5)) + 1)
    series = sample_rescaled_series(table, env, grid)
    out = np.column_stack([series.times, series.probs])
    assert checks.check_fig3(FIG3, out, {}) == []
    out[100, 1] -= 1e-6
    assert checks.check_fig3(FIG3, out, {}) != []


@pytest.mark.parametrize("excited", [True, False])
def test_distinguishable_reference_starts_from_the_born_law(excited):
    times = np.linspace(0.0, 0.079, 9)  # inside the first epoch: no collapse yet
    want = np.sin(times) ** 2 if excited else np.cos(times) ** 2
    got = checks.distinguishable_reference(1.0, 0.08, 0.9, excited, times)
    assert np.max(np.abs(got - want)) < 1e-15


def _oracle_table(shift_sigmas: float):
    grid = np.linspace(0.0, 30.0, 121)
    p = checks.distinguishable_reference(1.0, 0.08, 0.99, True, grid)
    n = ORACLE["mc"]["n_systems"]
    p_mc = np.round(p * n) / n
    sigma = math.sqrt(p[60] * (1.0 - p[60]) / n)
    p_mc[60] = round((p[60] + shift_sigmas * sigma) * n) / n
    z = checks.max_abs_z(p_mc, p, n)
    return np.column_stack([grid, p_mc, p, np.zeros_like(p), np.zeros_like(p)]), z


def test_oracle_check_flags_z_above_five():
    table, z = _oracle_table(3.0)
    assert z < 5.0
    assert checks.check_oracle(ORACLE, table, {"max_abs_z": z}) == []
    table, z = _oracle_table(6.0)
    assert z > 5.0
    errors = checks.check_oracle(ORACLE, table, {"max_abs_z": 1.0})
    assert any("max |z|" in e for e in errors)
    assert checks.check_oracle(ORACLE, _oracle_table(3.0)[0], {"max_abs_z": 5.5}) != []
