"""Output checks against references computed here from the paper's equations.

Nothing in this module calls rabideco: each reference is an independent
evaluation of the equation the program implements, so a wrong fast path in
the program cannot agree with it by construction.

- Distinguishable curves: on [n dt, (n+1) dt) the recursion
  p_n(t) = eta p_{n-1}(t) + (1-eta)(cos^2 w(t-n dt) b_n + sin^2 w(t-n dt)(1-b_n))
  with b_n = p_{n-1}(n dt) keeps every level of the form
  a_n + Re(c_n e^{2iwt}), so it is evaluated exactly in O(n) by the affine
  update of (a_n, c_n). The fitted decay rate must match the envelope rate
  -ln(eta)/(2 dt) within 1%.
- Nested curves: the binomial dynamic program over truncation levels, with
  masses built from math.lgamma, as dense matrix-vector products.
- Master-equation curves: the closed form.
- Fig5 ladders: the frequency ladder from the Laguerre sum, ratios, the
  log-log slope of the ratios, and the preset's exponent target.
- Monte Carlo: the analytic column against the recursion above and every
  z-score recomputed from the CSV within the config's bound. Digests are not
  compared, so a sampler that changes the random stream still passes.

Every checker returns a list of failure messages; empty means the item passed.
"""
from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

CURVE_TOL = 1e-9  # far above rounding, far below any real defect (1e-6 is flagged)
GAMMA_REL_TOL = 0.01
DEFAULT_MAX_ABS_Z = 5.0


def _excited(cfg: dict) -> bool:
    return cfg["system"].get("initial_state", "excited") == "excited"


def distinguishable_reference(omega: float, dt: float, eta: float, excited: bool,
                              times: np.ndarray) -> np.ndarray:
    """Ground probability of the distinguishable recursion at `times`."""
    n_last = int(math.floor(float(times[-1]) / dt)) + 1 if times.size else 0
    a = np.empty(n_last + 1)
    c = np.empty(n_last + 1, dtype=complex)
    a[0], c[0] = 0.5, (-0.5 if excited else 0.5)  # sin^2 / cos^2 of w t
    for n in range(1, n_last + 1):
        rot = complex(math.cos(2.0 * omega * n * dt), math.sin(2.0 * omega * n * dt))
        b = a[n - 1] + (c[n - 1] * rot).real
        a[n] = eta * a[n - 1] + 0.5 * (1.0 - eta)
        c[n] = eta * c[n - 1] + (1.0 - eta) * (b - 0.5) / rot
    idx = np.minimum(np.floor(times / dt).astype(int), n_last)
    return a[idx] + (c[idx] * np.exp(2j * omega * times)).real


def nested_reference(omega: float, dt: float, beta: float, max_events: int,
                     excited: bool, times: np.ndarray) -> np.ndarray:
    """Top truncation level of the nested predictor at clock times `times`."""
    if not 0.0 < beta < 1.0:
        raise ValueError(f"reference needs 0 < beta < 1, got {beta}")
    n_max = int(math.ceil(float(times[-1]) / (beta * dt))) + 1
    lg = np.array([math.lgamma(m + 1) for m in range(n_max + 1)])
    n = np.arange(n_max + 1)[:, None]
    k = np.arange(n_max + 1)[None, :]
    gap = np.where(k <= n, n - k, 0)
    log_mass = (lg[n] - lg[k] - lg[gap]
                + k * math.log(beta) + gap * math.log1p(-beta))
    mass = np.where(k <= n, np.exp(log_mass), 0.0)
    phase = omega * dt * np.arange(n_max + 1)
    c2, s2 = np.cos(phase) ** 2, np.sin(phase) ** 2
    stay, flip = mass * c2[gap], mass * s2[gap]
    ground, excited_row = (s2, c2) if excited else (c2, s2)
    for _ in range(max_events):
        ground, excited_row = (stay @ ground + flip @ excited_row,
                               stay @ excited_row + flip @ ground)
    n_star = np.minimum(times / (beta * dt), float(n_max))
    return np.interp(n_star, np.arange(n_max + 1), ground)


def master_eq_reference(omega: float, gamma_se: float, times: np.ndarray) -> np.ndarray:
    mu = math.sqrt(4.0 * omega**2 - (gamma_se / 4.0) ** 2)
    pref = 4.0 * omega**2 / (gamma_se**2 + 8.0 * omega**2)
    return pref * (1.0 - np.exp(-0.75 * gamma_se * times)
                   * (np.cos(mu * times) + (3.0 * gamma_se / (4.0 * mu)) * np.sin(mu * times)))


def ladder_reference(base_omega: float, n_max: int, lamb_dicke: float) -> np.ndarray:
    """omega_n = base eta e^{-eta^2/2} L^(1)_n(eta^2) / sqrt(n+1), L from its sum."""
    x = lamb_dicke**2
    out = []
    for n in range(n_max + 1):
        lag = sum((-1) ** m * math.comb(n + 1, n - m) * x**m / math.factorial(m)
                  for m in range(n + 1))
        out.append(base_omega * lamb_dicke * math.exp(-x / 2.0) * lag / math.sqrt(n + 1))
    return np.array(out)


def compare_curve(label: str, got: np.ndarray, want: np.ndarray, tol: float = CURVE_TOL) -> list[str]:
    if got.shape != want.shape:
        return [f"{label}: {got.shape[0]} points, expected {want.shape[0]}"]
    worst = float(np.max(np.abs(got - want))) if got.size else 0.0
    if not worst <= tol:
        return [f"{label}: max deviation {worst:.3e} from the reference exceeds {tol:.0e}"]
    return []


def max_abs_z(p_mc: np.ndarray, p_analytic: np.ndarray, n_systems: int) -> float:
    """Largest |p_mc - p| / sqrt(p (1-p) / N).

    Where p(1-p) vanishes the ensemble cannot deviate, so any deviation
    beyond rounding there is infinite.
    """
    sigma = np.sqrt(np.clip(p_analytic * (1.0 - p_analytic), 0.0, None) / n_systems)
    dev = np.abs(p_mc - p_analytic)
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(sigma > 0.0, dev / sigma, np.where(dev > 1e-12, np.inf, 0.0))
    return float(np.max(z)) if z.size else 0.0


def _read_csv(path: Path) -> np.ndarray:
    """The data rows of a CSV with a header row, as a float table."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return np.array(rows[1:], dtype=float).reshape(len(rows) - 1, len(rows[0]))


def _grid(cfg: dict) -> np.ndarray:
    return np.linspace(0.0, cfg["grid"]["t_max"], cfg["grid"]["n_points"])


def check_fig2(cfg: dict, table: np.ndarray, summary: dict) -> list[str]:
    env, omega = cfg["env"], cfg["system"]["omega"]
    times = table[:, 0]
    errors = compare_curve("times", times, _grid(cfg), tol=1e-12)
    want = distinguishable_reference(omega, env["dt"], env["eta"], _excited(cfg), _grid(cfg))
    errors += compare_curve("p_predicted", table[:, 1], want)
    gamma = summary["fit"]["gamma"]
    envelope = -math.log(env["eta"]) / (2.0 * env["dt"])
    if not abs(gamma / envelope - 1.0) <= GAMMA_REL_TOL:
        errors.append(f"fitted gamma {gamma:.6g} is not within 1% of "
                      f"-ln(eta)/(2 dt) = {envelope:.6g}")
    return errors


def check_fig3(cfg: dict, table: np.ndarray, summary: dict) -> list[str]:
    env, omega = cfg["env"], cfg["system"]["omega"]
    grid = _grid(cfg)
    want = nested_reference(omega, env["dt"], env["beta"], env.get("max_events", 5),
                            _excited(cfg), grid)
    return (compare_curve("times", table[:, 0], grid, tol=1e-12)
            + compare_curve("p_predicted", table[:, 1], want))


def check_master_eq(cfg: dict, table: np.ndarray, summary: dict) -> list[str]:
    grid = _grid(cfg)
    want = master_eq_reference(cfg["system"]["omega"], cfg["env"]["gamma_se"], grid)
    return (compare_curve("times", table[:, 0], grid, tol=1e-12)
            + compare_curve("p_predicted", table[:, 1], want))


def check_fig5(cfg: dict, table: np.ndarray, summary: dict) -> list[str]:
    ladder = cfg.get("ladder", {})
    want_omega = ladder_reference(cfg["system"]["omega"], ladder.get("n_max", 8),
                                  ladder.get("lamb_dicke", 0.202))
    ns, omega_n, gamma_n, ratio = table.T
    errors = compare_curve("omega_n", omega_n, want_omega, tol=1e-12)
    errors += compare_curve("ratio", ratio, gamma_n / gamma_n[0], tol=1e-12)
    x, y = np.log1p(ns), np.log(ratio)
    slope = float(x @ y) / float(x @ x)
    exponent = summary["power_law"]["exponent"]
    if not abs(exponent - slope) <= 1e-9:
        errors.append(f"power-law exponent {exponent!r} is not the log-log slope "
                      f"{slope!r} of the ratios")
    target = cfg["target"]
    if not abs(exponent - target["exponent"]) <= target["tol"]:
        errors.append(f"exponent {exponent:.4f} misses the target "
                      f"{target['exponent']} +- {target['tol']}")
    return errors


def check_oracle(cfg: dict, table: np.ndarray, summary: dict) -> list[str]:
    env, omega = cfg["env"], cfg["system"]["omega"]
    grid = _grid(cfg)
    n_systems = cfg["mc"]["n_systems"]
    _, p_mc, p_analytic, _, _ = table.T
    errors = compare_curve("times", table[:, 0], grid, tol=1e-12)
    want = distinguishable_reference(omega, env["dt"], env["eta"], _excited(cfg), grid)
    errors += compare_curve("p_analytic", p_analytic, want)
    counts = p_mc * n_systems
    if not np.all(np.abs(counts - np.round(counts)) <= 1e-6):
        errors.append("p_mc is not a count over n_systems")
    bound = cfg.get("target", {}).get("max_abs_z", DEFAULT_MAX_ABS_Z)
    worst = max_abs_z(p_mc, want, n_systems)
    if not worst <= bound:
        errors.append(f"Monte Carlo max |z| = {worst:.3f} exceeds {bound}")
    if not summary["max_abs_z"] <= bound:
        errors.append(f"reported max_abs_z = {summary['max_abs_z']:.3f} exceeds {bound}")
    return errors


CHECKERS = {
    "Fig2Distinguishable": check_fig2,
    "Fig3Indistinguishable": check_fig3,
    "MasterEqBaseline": check_master_eq,
    "Fig5GammaRatio": check_fig5,
    "OracleCrossCheck": check_oracle,
}


def check_item(cfg: dict, out_dir: Path) -> list[str]:
    """Check one item's CSV and JSON outputs; the SVG must exist and be an SVG."""
    prefix = out_dir / cfg["output"]["prefix"]
    try:
        table = _read_csv(prefix.with_suffix(".csv"))
        summary = json.loads(prefix.with_suffix(".json").read_text(encoding="utf-8"))
        svg_head = prefix.with_suffix(".svg").read_text(encoding="utf-8")[:200]
    except (OSError, ValueError, IndexError) as exc:
        return [f"unreadable outputs: {exc}"]
    errors = [] if "<svg" in svg_head else ["svg output has no <svg> element"]
    try:
        return errors + CHECKERS[cfg["experiment"]](cfg, table, summary)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return errors + [f"malformed outputs: {exc!r}"]
