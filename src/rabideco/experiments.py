"""Named experiment pipelines, JSON config handling, and file outputs.

Each experiment is described by a JSON config (schema in the README).
Validation is total and happens before any computation: every invalid or
unknown field raises `ConfigError` naming the offending key and, when it
can be located, its line in the config file. Outputs are deterministic:
rerunning the same config and seed reproduces byte-identical CSV/JSON.
"""
from __future__ import annotations

import csv
import enum
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import (
    InitialState,
    LAMB_DICKE,
    ProbabilitySeries,
    RabiSystem,
    rabi_frequency_ladder,
)
from .distinguishable import DistinguishableEnv, build_predictor, sample_series
from .fitting import (
    PARAM_ORDER,
    DampedSinusoidFit,
    MasterEqParams,
    PowerLawFit,
    damped_sinusoid_model,
    fit_damped_sinusoid,
    fit_power_law,
    master_eq_series,
)
from .indistinguishable import (
    IndistinguishableEnv,
    build_nested_table,
    sample_rescaled_series,
)
from .montecarlo import EnsembleConfig, simulate_distinguishable
from .svgfig import series_overlay_svg


class ConfigError(ValueError):
    """Invalid experiment configuration; knows which key and config line."""

    def __init__(self, message: str, key_path: str = "", line: int | None = None):
        loc = key_path or "<config>"
        if line is not None:
            loc += f" (line {line})"
        super().__init__(f"{loc}: {message}")
        self.key_path = key_path
        self.line = line


class ExperimentKind(enum.Enum):
    FIG2_DISTINGUISHABLE = "Fig2Distinguishable"
    FIG3_INDISTINGUISHABLE = "Fig3Indistinguishable"
    FIG5_GAMMA_RATIO = "Fig5GammaRatio"
    MASTER_EQ_BASELINE = "MasterEqBaseline"
    ORACLE_CROSS_CHECK = "OracleCrossCheck"


@dataclass(frozen=True)
class GridSpec:
    t_max: float
    n_points: int

    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.t_max, self.n_points)


@dataclass(frozen=True)
class LadderSpec:
    n_max: int = 8
    lamb_dicke: float = LAMB_DICKE


@dataclass(frozen=True)
class FitWindowSpec:
    """Per-level window for the gamma-ratio pipeline: each level n is
    sampled over omega_n * t in [0, omega_t_span]."""

    omega_t_span: float = 40.0
    n_points: int = 300


@dataclass
class ExperimentConfig:
    experiment: ExperimentKind
    system: RabiSystem
    seed: int = 0
    output_prefix: str = "experiment"
    grid: GridSpec | None = None
    dist_env: DistinguishableEnv | None = None
    indist_env: IndistinguishableEnv | None = None
    master_params: MasterEqParams | None = None
    ladder: LadderSpec | None = None
    fit_window: FitWindowSpec | None = None
    predictor: str = "indistinguishable"  # gamma-ratio baseline swap
    gamma_se: float | None = None  # spontaneous emission for the swap
    fit_free_params: frozenset = frozenset({"gamma", "omega"})
    n_systems: int | None = None
    target: dict | None = None


@dataclass(frozen=True)
class FitConfig:
    """Validated `rabideco fit` config: which series to fit, and how."""

    series_csv: Path
    omega_hint: float
    free_params: frozenset
    output_prefix: str


@dataclass(frozen=True, eq=False)
class FigureResult:
    """Predictor series, the fitted curve on the same grid, and the fit."""

    series: ProbabilitySeries
    fit: DampedSinusoidFit | None
    fit_curve: np.ndarray


@dataclass(frozen=True)
class GammaRatioRow:
    n: int
    omega_n: float
    gamma_n: float
    ratio: float


@dataclass(frozen=True, eq=False)
class OracleCheckResult:
    mc_series: ProbabilitySeries
    analytic_series: ProbabilitySeries
    sigma: np.ndarray
    z_scores: np.ndarray
    max_abs_z: float


# --------------------------------------------------------------------------
# config parsing


def _line_of(raw_text: str | None, key_path: str) -> int | None:
    """Config line of a dotted key path such as `env.gamma_se`.

    Each key is the first match at or after the line of the section that
    holds it, so a key that repeats in several sections resolves correctly.
    """
    if raw_text is None or not key_path:
        return None
    lines = raw_text.splitlines()
    found = 0
    for key in key_path.split("."):
        needle = f'"{key}"'
        found = next((i for i in range(found, len(lines)) if needle in lines[i]), None)
        if found is None:
            return None
    return found + 1


def _config_error(message: str, key_path: str, raw_text: str | None) -> ConfigError:
    return ConfigError(message, key_path, _line_of(raw_text, key_path))


class _Section:
    """One config mapping: tracked key set, typed getters, leftover check."""

    def __init__(self, data: dict, path: str, raw_text: str | None):
        if not isinstance(data, dict):
            raise ConfigError(f"expected an object, got {type(data).__name__}", path)
        self.data = data
        self.path = path
        self.raw = raw_text
        self.seen: set[str] = set()

    def _key_path(self, key: str) -> str:
        return f"{self.path}.{key}" if self.path else key

    def get(self, key: str, kind, required: bool = True, default=None):
        self.seen.add(key)
        if key not in self.data:
            if required:
                raise ConfigError("missing required key", self._key_path(key),
                                  _line_of(self.raw, self.path))
            return default
        value = self.data[key]
        line = _line_of(self.raw, self._key_path(key))
        if kind is float:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ConfigError(f"expected a number, got {value!r}", self._key_path(key), line)
            if not math.isfinite(value):
                raise ConfigError(f"expected a finite number, got {value!r}",
                                  self._key_path(key), line)
            return float(value)
        if kind is int:
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"expected an integer, got {value!r}", self._key_path(key), line)
            return value
        if kind is str:
            if not isinstance(value, str):
                raise ConfigError(f"expected a string, got {value!r}", self._key_path(key), line)
            return value
        if kind is list:
            if not isinstance(value, list):
                raise ConfigError(f"expected a list, got {value!r}", self._key_path(key), line)
            return value
        if kind is dict:
            if not isinstance(value, dict):
                raise ConfigError(f"expected an object, got {value!r}", self._key_path(key), line)
            return value
        raise AssertionError(f"unhandled kind {kind}")

    def section(self, key: str, required: bool = True) -> "_Section | None":
        sub = self.get(key, dict, required=required)
        if sub is None:
            return None
        return _Section(sub, self._key_path(key), self.raw)

    def reject_unknown(self) -> None:
        unknown = set(self.data) - self.seen
        if unknown:
            key = sorted(unknown)[0]
            raise _config_error("unknown key", self._key_path(key), self.raw)


def _build(path: str, raw: str | None, factory, /, **kwargs):
    """Construct a domain object, converting its ValueError to ConfigError."""
    try:
        return factory(**kwargs)
    except ValueError as exc:
        raise _config_error(str(exc), path, raw) from exc


def _parse_system(sec: _Section | None, raw: str | None) -> RabiSystem:
    if sec is None:
        raise ConfigError("missing required key", "system")
    omega = sec.get("omega", float)
    state_name = sec.get("initial_state", str, required=False, default="excited")
    sec.reject_unknown()
    try:
        state = InitialState(state_name)
    except ValueError:
        raise _config_error(
            f"initial_state must be 'excited' or 'ground', got {state_name!r}",
            f"{sec.path}.initial_state", raw) from None
    return _build(sec.path, raw, RabiSystem, omega=omega, initial_state=state)


def _parse_grid(sec: _Section, raw: str | None) -> GridSpec:
    t_max = sec.get("t_max", float)
    n_points = sec.get("n_points", int)
    sec.reject_unknown()
    if t_max < 0.0:
        raise _config_error(f"t_max must be >= 0, got {t_max}", f"{sec.path}.t_max", raw)
    if n_points < 0:
        raise _config_error(f"n_points must be >= 0, got {n_points}",
                            f"{sec.path}.n_points", raw)
    return GridSpec(t_max=t_max, n_points=n_points)


def _parse_target(sec: _Section | None, allowed: tuple[str, ...]) -> dict | None:
    if sec is None:
        return None
    out = {}
    for key in allowed:
        val = sec.get(key, float, required=False)
        if val is not None:
            out[key] = val
    sec.reject_unknown()
    return out or None


def _parse_fit(sec: _Section | None) -> frozenset:
    if sec is None:
        return frozenset({"gamma", "omega"})
    names = sec.get("free_params", list, required=False, default=["gamma", "omega"])
    sec.reject_unknown()
    free = frozenset(str(n) for n in names)
    unknown = free - set(PARAM_ORDER)
    if unknown or not free:
        raise _config_error(
            f"free_params must be a non-empty subset of {list(PARAM_ORDER)}, "
            f"got {sorted(free)}", sec._key_path("free_params"), sec.raw)
    return free


def _parse_output_prefix(top: _Section, default: str) -> str:
    out_sec = top.section("output", required=False)
    if out_sec is None:
        return default
    prefix = out_sec.get("prefix", str, required=False, default=default)
    out_sec.reject_unknown()
    if not prefix or prefix != Path(prefix).name:
        raise _config_error(f"prefix must be a bare file name, got {prefix!r}",
                            "output.prefix", top.raw)
    return prefix


def config_from_dict(data: dict, raw_text: str | None = None) -> ExperimentConfig:
    """Validate a parsed JSON object and build the typed config (fail fast)."""
    top = _Section(data, "", raw_text)
    kind_name = top.get("experiment", str)
    try:
        kind = ExperimentKind(kind_name)
    except ValueError:
        choices = ", ".join(k.value for k in ExperimentKind)
        raise _config_error(f"unknown experiment {kind_name!r}; expected one of {choices}",
                            "experiment", raw_text) from None

    system = _parse_system(top.section("system"), raw_text)
    seed = top.get("seed", int, required=False, default=0)

    prefix = _parse_output_prefix(top, "experiment")

    cfg = ExperimentConfig(experiment=kind, system=system, seed=seed, output_prefix=prefix)
    env = top.section("env")

    if kind is ExperimentKind.FIG2_DISTINGUISHABLE:
        dt = env.get("dt", float)
        eta = env.get("eta", float)
        env.reject_unknown()
        cfg.dist_env = _build("env", raw_text, DistinguishableEnv, dt=dt, eta=eta)
    elif kind is ExperimentKind.FIG3_INDISTINGUISHABLE:
        dt = env.get("dt", float)
        beta = env.get("beta", float)
        max_events = env.get("max_events", int, required=False, default=5)
        env.reject_unknown()
        cfg.indist_env = _build("env", raw_text, IndistinguishableEnv,
                                dt=dt, beta=beta, max_events=max_events)
    elif kind is ExperimentKind.MASTER_EQ_BASELINE:
        gamma_se = env.get("gamma_se", float)
        env.reject_unknown()
        cfg.master_params = _build("env", raw_text, MasterEqParams,
                                   omega=system.omega, gamma_se=gamma_se)
    elif kind is ExperimentKind.FIG5_GAMMA_RATIO:
        beta = env.get("beta", float)
        max_events = env.get("max_events", int, required=False, default=5)
        dt = env.get("dt", float, required=False)
        omega0_dt = env.get("omega0_dt", float, required=False)
        env.reject_unknown()
        if (dt is None) == (omega0_dt is None):
            raise _config_error("exactly one of dt and omega0_dt must be given", "env", raw_text)
        lad = top.section("ladder", required=False)
        if lad is None:
            cfg.ladder = LadderSpec()
        else:
            n_max = lad.get("n_max", int, required=False, default=8)
            lamb_dicke = lad.get("lamb_dicke", float, required=False, default=LAMB_DICKE)
            lad.reject_unknown()
            if n_max < 0:
                raise _config_error(f"n_max must be >= 0, got {n_max}", "ladder.n_max", raw_text)
            if lamb_dicke <= 0.0:
                raise _config_error(f"lamb_dicke must be > 0, got {lamb_dicke}",
                                    "ladder.lamb_dicke", raw_text)
            cfg.ladder = LadderSpec(n_max=n_max, lamb_dicke=lamb_dicke)
        if omega0_dt is not None:
            omega0 = rabi_frequency_ladder(system.omega, 0, cfg.ladder.lamb_dicke).omega_n(0)
            dt = omega0_dt / omega0
        cfg.indist_env = _build("env", raw_text, IndistinguishableEnv,
                                dt=dt, beta=beta, max_events=max_events)
        win = top.section("fit_window", required=False)
        if win is None:
            cfg.fit_window = FitWindowSpec()
        else:
            span = win.get("omega_t_span", float, required=False, default=40.0)
            n_points = win.get("n_points", int, required=False, default=300)
            win.reject_unknown()
            if span <= 0.0 or n_points < 10:
                raise _config_error("need omega_t_span > 0 and n_points >= 10",
                                    "fit_window", raw_text)
            cfg.fit_window = FitWindowSpec(omega_t_span=span, n_points=n_points)
        cfg.predictor = top.get("predictor", str, required=False, default="indistinguishable")
        if cfg.predictor not in ("indistinguishable", "master-eq"):
            raise _config_error(
                f"predictor must be 'indistinguishable' or 'master-eq', got {cfg.predictor!r}",
                "predictor", raw_text)
        me = top.section("master_eq", required=False)
        if cfg.predictor == "master-eq":
            if me is None:
                raise _config_error("master_eq.gamma_se is required for the master-eq predictor",
                                    "master_eq", raw_text)
            cfg.gamma_se = me.get("gamma_se", float)
            me.reject_unknown()
            if cfg.gamma_se < 0.0:
                raise _config_error(f"gamma_se must be >= 0, got {cfg.gamma_se}",
                                    "master_eq.gamma_se", raw_text)
        elif me is not None:
            me.get("gamma_se", float, required=False)
            me.reject_unknown()
        cfg.fit_free_params = _parse_fit(top.section("fit", required=False))
        cfg.target = _parse_target(top.section("target", required=False),
                                   ("exponent", "tol"))
    elif kind is ExperimentKind.ORACLE_CROSS_CHECK:
        dt = env.get("dt", float)
        eta = env.get("eta", float)
        env.reject_unknown()
        cfg.dist_env = _build("env", raw_text, DistinguishableEnv, dt=dt, eta=eta)
        cfg.grid = _parse_grid(top.section("grid"), raw_text)
        mc = top.section("mc")
        cfg.n_systems = mc.get("n_systems", int)
        mc.reject_unknown()
        if cfg.n_systems < 1:
            raise _config_error(f"n_systems must be >= 1, got {cfg.n_systems}",
                                "mc.n_systems", raw_text)
        cfg.target = _parse_target(top.section("target", required=False),
                                   ("max_abs_z",))

    if kind in (ExperimentKind.FIG2_DISTINGUISHABLE, ExperimentKind.FIG3_INDISTINGUISHABLE,
                ExperimentKind.MASTER_EQ_BASELINE):
        cfg.grid = _parse_grid(top.section("grid"), raw_text)
        cfg.fit_free_params = _parse_fit(top.section("fit", required=False))
        cfg.target = _parse_target(top.section("target", required=False),
                                   ("gamma_over_omega", "tol"))

    top.reject_unknown()
    return cfg


def _read_json_object(path) -> tuple[dict, str]:
    raw_text = Path(path).read_text(encoding="utf-8")
    try:
        data = json.loads(raw_text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON: {exc.msg}", "", exc.lineno) from exc
    if not isinstance(data, dict):
        raise ConfigError("top level must be a JSON object")
    return data, raw_text


def load_config(path) -> ExperimentConfig:
    return config_from_dict(*_read_json_object(path))


def load_fit_config(path) -> FitConfig:
    """Validate a `rabideco fit` config; series_csv resolves against its directory."""
    data, raw_text = _read_json_object(path)
    top = _Section(data, "", raw_text)
    series_csv = Path(top.get("series_csv", str))
    omega_hint = top.get("omega_hint", float)
    if omega_hint <= 0.0:
        raise _config_error(f"omega_hint must be > 0, got {omega_hint}",
                            "omega_hint", raw_text)
    prefix = _parse_output_prefix(top, "fit")
    free_params = _parse_fit(top)  # last: it also rejects the keys not read above
    if not series_csv.is_absolute():
        series_csv = Path(path).parent / series_csv
    return FitConfig(series_csv, omega_hint, free_params, prefix)


# --------------------------------------------------------------------------
# pipelines


def predictor_series(cfg: ExperimentConfig, grid: np.ndarray | None = None) -> ProbabilitySeries:
    """The configured experiment's analytic series on its grid (no fitting)."""
    if grid is None:
        if cfg.grid is None:
            raise ConfigError("experiment has no grid", "grid")
        grid = cfg.grid.times()
    if cfg.experiment is ExperimentKind.FIG2_DISTINGUISHABLE:
        n_max = math.ceil(float(grid[-1]) / cfg.dist_env.dt) + 1 if grid.size else 0
        pred = build_predictor(cfg.system, cfg.dist_env, n_max)
        return sample_series(pred, grid)
    if cfg.experiment is ExperimentKind.FIG3_INDISTINGUISHABLE:
        env = cfg.indist_env
        n_max = math.ceil(float(grid[-1]) / (env.beta * env.dt)) + 1 if grid.size else 0
        table = build_nested_table(cfg.system, env, n_max)
        return sample_rescaled_series(table, env, grid)
    if cfg.experiment is ExperimentKind.MASTER_EQ_BASELINE:
        return master_eq_series(cfg.master_params, grid)
    raise ConfigError(f"{cfg.experiment.value} has no single predictor series", "experiment")


def run_figure_experiment(cfg: ExperimentConfig) -> FigureResult:
    """Series plus damped-sinusoid fit for the single-curve experiments."""
    series = predictor_series(cfg)
    if len(series) == 0:
        return FigureResult(series=series, fit=None, fit_curve=np.empty(0))
    fit = fit_damped_sinusoid(series, omega_hint=cfg.system.omega,
                              free_params=cfg.fit_free_params)
    params = np.array([fit.gamma, fit.omega_fit, fit.amplitude, fit.offset, fit.phase])
    curve = damped_sinusoid_model(series.times, params)
    return FigureResult(series=series, fit=fit, fit_curve=curve)


def _gamma_for_level(cfg: ExperimentConfig, omega_n: float) -> float:
    system_n = RabiSystem(omega=omega_n, initial_state=cfg.system.initial_state)
    t_max = cfg.fit_window.omega_t_span / omega_n
    grid = np.linspace(0.0, t_max, cfg.fit_window.n_points)
    if cfg.predictor == "master-eq":
        series = master_eq_series(MasterEqParams(omega=omega_n, gamma_se=cfg.gamma_se), grid)
    else:
        env = cfg.indist_env
        n_max = math.ceil(t_max / (env.beta * env.dt)) + 1
        table = build_nested_table(system_n, env, n_max)
        series = sample_rescaled_series(table, env, grid)
    return fit_damped_sinusoid(series, omega_hint=omega_n,
                               free_params=cfg.fit_free_params).gamma


def run_gamma_ratio_experiment(cfg: ExperimentConfig) -> tuple[list[GammaRatioRow], PowerLawFit]:
    """Fit gamma_n across the frequency ladder and the power law of the ratios.

    Levels share dt, beta, and the truncation order; only omega_n varies.
    They run one after another in level order.
    """
    ladder = rabi_frequency_ladder(cfg.system.omega, cfg.ladder.n_max, cfg.ladder.lamb_dicke)
    gammas = []
    for n, omega_n in ladder.entries:
        try:
            gammas.append(_gamma_for_level(cfg, omega_n))
        except Exception as exc:
            raise RuntimeError(f"gamma-ratio level n={n} failed: {exc}") from exc

    rows = [GammaRatioRow(n=n, omega_n=omega_n, gamma_n=g, ratio=g / gammas[0])
            for (n, omega_n), g in zip(ladder.entries, gammas)]
    power_law = fit_power_law([(row.n, row.ratio) for row in rows])
    return rows, power_law


def run_oracle_check(cfg: ExperimentConfig) -> OracleCheckResult:
    """Monte Carlo ensemble vs the recursion, with per-point z-scores."""
    grid = cfg.grid.times()
    mc_cfg = EnsembleConfig(n_systems=cfg.n_systems, seed=cfg.seed, grid=tuple(grid))
    mc = simulate_distinguishable(cfg.system, cfg.dist_env, mc_cfg)
    n_max = math.ceil(float(grid[-1]) / cfg.dist_env.dt) + 1 if grid.size else 0
    pred = build_predictor(cfg.system, cfg.dist_env, n_max)
    analytic = sample_series(pred, grid)
    sigma = np.sqrt(analytic.probs * (1.0 - analytic.probs) / cfg.n_systems)
    dev = np.abs(mc.probs - analytic.probs)
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(sigma > 0.0, dev / sigma, np.where(dev > 0.0, np.inf, 0.0))
    max_abs_z = float(np.max(z)) if z.size else 0.0
    return OracleCheckResult(mc_series=mc, analytic_series=analytic,
                             sigma=sigma, z_scores=z, max_abs_z=max_abs_z)


def run_experiment(cfg: ExperimentConfig):
    if cfg.experiment is ExperimentKind.FIG5_GAMMA_RATIO:
        return run_gamma_ratio_experiment(cfg)
    if cfg.experiment is ExperimentKind.ORACLE_CROSS_CHECK:
        return run_oracle_check(cfg)
    return run_figure_experiment(cfg)


# --------------------------------------------------------------------------
# outputs


def _fmt(x) -> str:
    # repr of a Python float is its shortest round-trip representation
    return repr(float(x))


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)


def _write_json(path: Path, summary: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _fit_summary(fit: DampedSinusoidFit | None, omega: float) -> dict | None:
    if fit is None:
        return None
    return {
        "gamma": fit.gamma,
        "omega_fit": fit.omega_fit,
        "amplitude": fit.amplitude,
        "offset": fit.offset,
        "phase": fit.phase,
        "gamma_over_omega": fit.gamma / omega if not fit.degenerate else None,
        "residual_rms": fit.residual_rms,
        "free_params": sorted(fit.free_params),
        "degenerate": fit.degenerate,
    }


def _figure_summary(result: FigureResult, cfg: ExperimentConfig) -> dict:
    summary = {
        "experiment": cfg.experiment.value,
        "seed": cfg.seed,
        "parameters": dict(result.series.meta),
        "n_points": len(result.series),
        "fit": _fit_summary(result.fit, cfg.system.omega),
    }
    if cfg.target and result.fit is not None:
        want = cfg.target.get("gamma_over_omega")
        tol = cfg.target.get("tol", 0.0)
        got = result.fit.gamma / cfg.system.omega
        summary["target"] = {"gamma_over_omega": want, "tol": tol}
        summary["pass"] = bool(want is not None and abs(got - want) <= tol)
    return summary


def emit_outputs(result, cfg: ExperimentConfig | FitConfig, out_dir,
                 formats=("csv", "json")) -> list[Path]:
    """Write the result as CSV/JSON/SVG files named by the config prefix.

    `result` is what `run_experiment` or `run_oracle_check` returns, a bare
    predictor series (`rabideco simulate`), or a `DampedSinusoidFit` with
    its `FitConfig` (`rabideco fit`, JSON only).
    """
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OSError(f"cannot create output directory {out}: {exc}") from exc
    formats = list(dict.fromkeys(formats))
    unknown = set(formats) - {"csv", "json", "svg"}
    if unknown:
        raise ConfigError(f"unknown output format(s): {sorted(unknown)}", "format")
    paths: list[Path] = []

    def emit(fmt: str, name: str, write) -> None:
        if fmt not in formats:
            return
        path = out / name
        try:
            write(path)
        except OSError as exc:
            raise OSError(f"cannot write {path}: {exc}") from exc
        paths.append(path)

    prefix = cfg.output_prefix
    if isinstance(result, FigureResult):
        rows = [[_fmt(t), _fmt(p), _fmt(f)] for t, p, f in
                zip(result.series.times, result.series.probs, result.fit_curve)]
        emit("csv", f"{prefix}.csv",
             lambda p: _write_csv(p, ["t_coord", "p_predicted", "p_fit"], rows))
        emit("json", f"{prefix}.json",
             lambda p: _write_json(p, _figure_summary(result, cfg)))
        emit("svg", f"{prefix}.svg",
             lambda p: p.write_text(series_overlay_svg(
                 dots=(result.series.times, result.series.probs),
                 line=(result.series.times, result.fit_curve),
                 title=cfg.experiment.value, xlabel="t", ylabel="P(ground)"),
                 encoding="utf-8"))
    elif isinstance(result, tuple) and len(result) == 2 and isinstance(result[1], PowerLawFit):
        rows_, power_law = result
        csv_rows = [[str(r.n), _fmt(r.omega_n), _fmt(r.gamma_n), _fmt(r.ratio)] for r in rows_]
        emit("csv", f"{prefix}.csv",
             lambda p: _write_csv(p, ["n", "omega_n", "gamma_n", "ratio"], csv_rows))
        summary = {
            "experiment": cfg.experiment.value,
            "seed": cfg.seed,
            "parameters": {
                "omega": cfg.system.omega,
                "predictor": cfg.predictor,
                "beta": cfg.indist_env.beta if cfg.indist_env else None,
                "dt": cfg.indist_env.dt if cfg.indist_env else None,
                "max_events": cfg.indist_env.max_events if cfg.indist_env else None,
                "gamma_se": cfg.gamma_se,
                "ladder_n_max": cfg.ladder.n_max,
                "lamb_dicke": cfg.ladder.lamb_dicke,
                "omega_t_span": cfg.fit_window.omega_t_span,
            },
            "rows": [{"n": r.n, "omega_n": r.omega_n, "gamma_n": r.gamma_n, "ratio": r.ratio}
                     for r in rows_],
            "power_law": {"exponent": power_law.exponent,
                          "residual_rms": power_law.residual_rms,
                          "degenerate": power_law.degenerate},
        }
        if cfg.target:
            want = cfg.target.get("exponent")
            tol = cfg.target.get("tol", 0.0)
            summary["target"] = {"exponent": want, "tol": tol}
            summary["pass"] = bool(want is not None and not power_law.degenerate
                                   and abs(power_law.exponent - want) <= tol)
        emit("json", f"{prefix}.json", lambda p: _write_json(p, summary))
        ns = np.array([r.n for r in rows_], dtype=float)
        ratios = np.array([r.ratio for r in rows_])
        if not power_law.degenerate:
            xs = np.linspace(0.0, float(ns[-1]), 100) if len(rows_) > 1 else ns
            curve = (1.0 + xs) ** power_law.exponent
        else:
            xs, curve = ns, ratios
        emit("svg", f"{prefix}.svg",
             lambda p: p.write_text(series_overlay_svg(
                 dots=(ns, ratios), line=(xs, curve),
                 title=cfg.experiment.value, xlabel="n", ylabel="gamma_n / gamma_0"),
                 encoding="utf-8"))
    elif isinstance(result, OracleCheckResult):
        rows = [[_fmt(t), _fmt(m), _fmt(a), _fmt(s), _fmt(z)] for t, m, a, s, z in
                zip(result.mc_series.times, result.mc_series.probs,
                    result.analytic_series.probs, result.sigma, result.z_scores)]
        emit("csv", f"{prefix}.csv",
             lambda p: _write_csv(p, ["t_coord", "p_mc", "p_analytic", "sigma", "z"], rows))
        bound = (cfg.target or {}).get("max_abs_z", 5.0)
        summary = {
            "experiment": cfg.experiment.value,
            "seed": cfg.seed,
            "parameters": dict(result.mc_series.meta),
            "max_abs_z": result.max_abs_z,
            "bound": bound,
            "pass": bool(result.max_abs_z <= bound),
        }
        emit("json", f"{prefix}.json", lambda p: _write_json(p, summary))
        emit("svg", f"{prefix}.svg",
             lambda p: p.write_text(series_overlay_svg(
                 dots=(result.mc_series.times, result.mc_series.probs),
                 line=(result.analytic_series.times, result.analytic_series.probs),
                 title=cfg.experiment.value, xlabel="t", ylabel="P(ground)"),
                 encoding="utf-8"))
    elif isinstance(result, ProbabilitySeries):
        rows = [[_fmt(t), _fmt(p)] for t, p in zip(result.times, result.probs)]
        emit("csv", f"{prefix}.csv",
             lambda p: _write_csv(p, ["t_coord", "p_predicted"], rows))
        emit("json", f"{prefix}.json",
             lambda p: _write_json(p, {"experiment": cfg.experiment.value, "seed": cfg.seed,
                                       "parameters": dict(result.meta),
                                       "n_points": len(result)}))
        emit("svg", f"{prefix}.svg",
             lambda p: p.write_text(series_overlay_svg(
                 dots=(result.times, result.probs), line=((), ()),
                 title=cfg.experiment.value, xlabel="t", ylabel="P(ground)"),
                 encoding="utf-8"))
    elif isinstance(result, DampedSinusoidFit) and isinstance(cfg, FitConfig):
        summary = {
            "series_csv": str(cfg.series_csv),
            "omega_hint": cfg.omega_hint,
            "gamma": result.gamma,
            "omega_fit": result.omega_fit,
            "amplitude": result.amplitude,
            "offset": result.offset,
            "phase": result.phase,
            "residual_rms": result.residual_rms,
            "free_params": sorted(result.free_params),
            "degenerate": result.degenerate,
        }
        emit("json", f"{prefix}.json", lambda p: _write_json(p, summary))
    else:
        raise TypeError(f"cannot emit outputs for {type(result).__name__}")
    return paths
