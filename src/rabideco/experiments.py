"""Named experiment pipelines, JSON config handling, and file outputs.

A JSON config (schema in the README) is checked against one spec table, `_SPECS`,
before any computation: an invalid or unknown field raises `ConfigError` with its
key path and config line. Each result type writes its own CSV, JSON summary and
SVG plot, byte-identical per config and seed."""
from __future__ import annotations

import enum
import json
import math
import os
import stat
import sys
from dataclasses import asdict, dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, NamedTuple

import numpy as np
import orjson

from .core import (WORK_BUDGET, InitialState, LAMB_DICKE, ProbabilitySeries, RabiSystem,
                   rabi_frequency_ladder)
from .distinguishable import (MAX_EPOCHS, DistinguishableEnv, build_predictor,
                              epoch_map_spectrum, sample_series)
from .fitting import (MIN_FIT_POINTS, PARAM_ORDER, DampedSinusoidFit, FitConvergenceError,
                      FitWindowError, MasterEqParams, PowerLawFit, check_fit_window,
                      damped_sinusoid_model, fit_damped_sinusoid, fit_power_law,
                      master_eq_series)
from .indistinguishable import (IndistinguishableEnv, build_nested_table,
                                sample_rescaled_series, table_n_max, table_plan)
from .montecarlo import MAX_SYSTEMS, EnsembleConfig, run_work, simulate_distinguishable
from .svgfig import series_overlay_svg


class ConfigError(ValueError):
    """Invalid experiment configuration; knows which key and config line."""

    def __init__(self, message: str, key_path: str = "", line: int | None = None):
        where = (key_path or "<config>") + ("" if line is None else f" (line {line})")
        super().__init__(f"{where}: {message}")
        self.key_path, self.line = key_path, line


class ExperimentKind(enum.Enum):
    FIG2_DISTINGUISHABLE = "Fig2Distinguishable"
    FIG3_INDISTINGUISHABLE = "Fig3Indistinguishable"
    FIG5_GAMMA_RATIO = "Fig5GammaRatio"
    MASTER_EQ_BASELINE = "MasterEqBaseline"
    ORACLE_CROSS_CHECK = "OracleCrossCheck"


class ExperimentConfig(SimpleNamespace):
    """A validated config: an attribute per key of its kind's spec, sections as
    namespaces (`cfg.grid.t_max`); `experiment`, `system`, `env` and Fig5's
    `ladder` are domain objects, `target` a dict of the keys given."""


class FitConfig(SimpleNamespace):
    """A validated `rabideco fit` config, one attribute per key of `_FIT_SPEC`."""


# ---- config schema: per kind, each key's JSON type, default and bound ----
_REQUIRED = object()


class _Key(NamedTuple):  # a scalar: JSON type, default, and the bound `check` tests
    kind: type
    default: object = _REQUIRED
    check: Callable | None = None
    rule: str = ""  # what `check` demands, for the error message


class _Section(NamedTuple):  # an object; with default {}, optional and keys defaulted
    keys: dict
    default: object = _REQUIRED


def _at_least(lo, kind=float, default=_REQUIRED) -> _Key:
    return _Key(kind, default, lambda v: v >= lo, f"a value >= {lo}")


def _positive(default=_REQUIRED) -> _Key:
    return _Key(float, default, lambda v: v > 0.0, "a value > 0")


def _one_of(*choices: str, default=_REQUIRED) -> _Key:
    return _Key(str, default, choices.__contains__, f"one of {', '.join(map(repr, choices))}")


def _output(default: str) -> _Section:
    prefix = _Key(str, default, lambda v: bool(v) and v == Path(v).name and "\0" not in v,
                  "a bare file name")
    return _Section({"prefix": prefix}, {})


def _target(*keys: str) -> _Section:
    return _Section({key: _Key(float, None) for key in keys}, {})


_FREE_PARAMS = _Key(list, ["gamma", "omega"],
                    lambda v: bool(v) and {str(n) for n in v} <= set(PARAM_ORDER),
                    f"a non-empty subset of {list(PARAM_ORDER)}")
_ETA = _Key(float, _REQUIRED, lambda v: 0.0 <= v <= 1.0, "a value in [0, 1]")
_DIST_ENV = _Section({"dt": _positive(), "eta": _ETA})
_BETA = _Key(float, _REQUIRED, lambda v: 0.0 < v <= 1.0, "a value in (0, 1]")
_UINT64 = _Key(int, 0, lambda v: 0 <= v < 2**64, "a value in [0, 2^64 - 1]")  # as orjson writes
_MAX_EVENTS = _UINT64._replace(default=5)
_GRID = _Section({"t_max": _at_least(0), "n_points": _at_least(0, int)})
_FIT = _Section({"free_params": _FREE_PARAMS}, {})
_FIGURE = {"grid": _GRID, "fit": _FIT, "target": _target("gamma_over_omega", "tol")}

_COMMON = {
    "experiment": _one_of(*(kind.value for kind in ExperimentKind)),
    "system": _Section({"omega": _positive(),
                        "initial_state": _one_of("excited", "ground", default="excited")}),
    "seed": _UINT64,
    "output": _output("experiment"),
}

# ---- work budget: what a config asks for, sized from the config alone ----
# checked against core.WORK_BUDGET; each module prices its own work in member collapses
_POINT_COLLAPSES = 220.0  # a grid point's series, output and fit to the 200-iteration cap: 13 us


def _size(value) -> float:
    """A count as a float; an integer beyond float range saturates."""
    return float(min(value, 1e300))


def _grid_sizes(cfg) -> list:
    points = _size(cfg.grid.n_points)
    return [(0.0, _POINT_COLLAPSES * points, {"grid.n_points": points})]


def _t_end(grid) -> float:
    return grid.t_max if grid.n_points > 1 else 0.0  # one point sits at t = 0


def _epochs(cfg) -> tuple:
    t_end, dt = _t_end(cfg.grid), cfg.env.dt
    return t_end / dt, {"grid.t_max": t_end, "env.dt": 1.0 / dt}


def _oracle_sizes(cfg) -> list:
    n, points = _size(cfg.mc.n_systems), _size(cfg.grid.n_points)
    epochs, factors = _epochs(cfg)
    chain, _, work = run_work(n, cfg.env.eta, _size(epochs), points)
    # the chain's work grows like ln N, so N never names it
    factors.update({"grid.n_points": points, "mc.n_systems": 0.0 if chain else n})
    return [(0.0, work + _POINT_COLLAPSES * points, factors)]


def _table_size(t_end: float, env, t_key: str, dt_key: str = "env.dt") -> tuple:
    levels = _size(env.max_events)
    _, words, work = table_plan(levels, env.beta, table_n_max(t_end, env.beta, env.dt))
    return words, work, {t_key: t_end, dt_key: 1.0 / env.dt, "env.beta": 1.0 / env.beta,
                         "env.max_events": levels}


def _gamma_ratio_sizes(cfg) -> list:  # the tables wait for the ladder
    levels, points = _size(cfg.ladder.n_max) + 1.0, _size(cfg.fit_window.n_points)
    return [(0.0, _POINT_COLLAPSES * levels * points,
             {"ladder.n_max": levels, "fit_window.n_points": points})]


def _over(size: float, factors: dict, limit: float, what: str, raw: str | None) -> None:
    """ConfigError at the key of the largest of `factors` when `size` is over `limit`."""
    if size > limit:
        raise _config_error(f"the run needs about {size:.3g} {what} of {limit:.0e}",
                            max(factors, key=factors.get), raw)


def _within_budget(sizes: list, raw: str | None) -> None:
    """Each stage's words, then all stages' work, named by the stage over or the busiest."""
    for words, _, factors in sizes:
        _over(words, factors, WORK_BUDGET, "words held, over the work budget", raw)
    _over(sum(size[1] for size in sizes), max(sizes, key=lambda size: size[1])[2],
          WORK_BUDGET, "member collapses of work, over the work budget", raw)


# kind -> (type built from the env section, the kind's own sections and keys,
# the sizes it asks for)
_SPECS = {
    ExperimentKind.FIG2_DISTINGUISHABLE: (DistinguishableEnv, {"env": _DIST_ENV, **_FIGURE},
                                          _grid_sizes),
    ExperimentKind.FIG3_INDISTINGUISHABLE: (IndistinguishableEnv, {
        "env": _Section({"dt": _positive(), "beta": _BETA, "max_events": _MAX_EVENTS}),
        **_FIGURE}, lambda cfg: _grid_sizes(cfg) + [
            _table_size(_t_end(cfg.grid), cfg.env, "grid.t_max")]),
    ExperimentKind.MASTER_EQ_BASELINE: (MasterEqParams, {
        "env": _Section({"gamma_se": _at_least(0)}), **_FIGURE}, _grid_sizes),
    ExperimentKind.FIG5_GAMMA_RATIO: (IndistinguishableEnv, {
        "env": _Section({"beta": _BETA, "max_events": _MAX_EVENTS,
                         "dt": _positive(None), "omega0_dt": _positive(None)}),
        "ladder": _Section({"n_max": _at_least(0, int, 8),
                            "lamb_dicke": _positive(LAMB_DICKE)}, {}),
        "fit_window": _Section({"omega_t_span": _positive(40.0),
                                "n_points": _at_least(MIN_FIT_POINTS, int, 300)}, {}),
        "predictor": _one_of("indistinguishable", "master-eq", default="indistinguishable"),
        "master_eq": _Section({"gamma_se": _at_least(0, float, None)}, {}),
        "fit": _FIT,
        "target": _target("exponent", "tol"),
    }, _gamma_ratio_sizes),
    ExperimentKind.ORACLE_CROSS_CHECK: (DistinguishableEnv, {
        "env": _DIST_ENV, "grid": _GRID, "mc": _Section({"n_systems": _Key(
            int, check=lambda v: 1 <= v <= MAX_SYSTEMS, rule="a value in [1, 2^53]")}),
        "target": _target("max_abs_z")}, _oracle_sizes),
}

# the closed form models excited preparation only, and it squares omega:
# 8 omega^2 + gamma_se^2 must stay finite
_MASTER_EQ_SYSTEM = {
    "initial_state": _Key(str, check="excited".__eq__, rule="'excited' (the master-equation "
                          "baseline models excited preparation only)"),
    "omega": _Key(float, check=lambda v: v <= 1e150, rule="a value <= 1e+150")}

_FIT_SPEC = {"series_csv": _Key(str), "omega_hint": _positive(),
             "free_params": _FREE_PARAMS, "output": _output("fit")}
# the resolved series_csv: a path that opens, and text that the summary can write
_SERIES_PATH = _Key(str, check=lambda v: "\0" not in v and v == v.encode(errors="ignore").decode(),
                    rule="a path without NUL, in valid UTF-8")

_TYPE_NAMES = {float: "a number", int: "an integer", str: "a string", list: "a list"}


def _line_of(raw_text: str | None, key_path: str) -> int | None:
    """Config line of a dotted key path such as `env.gamma_se`: each key is the
    first match at or after its section's line, so repeated keys resolve."""
    if raw_text is None or not key_path:
        return None
    lines, found = raw_text.splitlines(), 0
    for key in key_path.split("."):
        found = next((i for i in range(found, len(lines)) if f'"{key}"' in lines[i]), None)
        if found is None:
            return None
    return found + 1


def _config_error(message: str, key_path: str, raw_text: str | None) -> ConfigError:
    return ConfigError(message, key_path, _line_of(raw_text, key_path))


def _checked(rule: _Key, value, key_path: str, raw: str | None):
    """`value` if it has the key's type and bound; a float comes back as float."""
    kind = rule.kind
    if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else kind):
        raise _config_error(f"expected {_TYPE_NAMES[kind]}, got {value!r}", key_path, raw)
    if kind is float:
        if not abs(value) <= sys.float_info.max:  # NaN, inf, or an int beyond float
            raise _config_error(f"expected a finite number, got {value!r}", key_path, raw)
        value = float(value)
    if rule.check is not None and not rule.check(value):
        raise _config_error(f"expected {rule.rule}, got {value!r}", key_path, raw)
    return value


def _walk(spec: dict, data, raw: str | None, path: str = "") -> dict:
    """Each key of `spec` from the object `data` at `path`, sections as namespaces."""
    if not isinstance(data, dict):
        raise _config_error(f"expected an object, got {data!r}", path, raw)
    out = {}
    for key, rule in spec.items():
        key_path = f"{path}.{key}" if path else key
        if key not in data and rule.default is _REQUIRED:
            raise ConfigError("missing required key", key_path, _line_of(raw, path))
        value = data.get(key, rule.default)
        if isinstance(rule, _Section):
            out[key] = SimpleNamespace(**_walk(rule.keys, value, raw, key_path))
        else:
            out[key] = _checked(rule, value, key_path, raw) if key in data else value
    unknown = sorted(set(data) - set(spec))
    if unknown:
        raise _config_error("unknown key", f"{path}.{unknown[0]}" if path else unknown[0], raw)
    return out


def _build(path: str, raw: str | None, factory, /, *args, **kwargs):
    """Construct a domain object, converting its ValueError to ConfigError."""
    try:
        return factory(*args, **kwargs)
    except ValueError as exc:
        raise _config_error(str(exc), path, raw) from exc


def _fit_window_rule(n_points: int, span: float, omega: float, keys: dict,
                     raw: str | None) -> None:
    """The fit's `check_fit_window`, failing as a ConfigError at `keys[part]`."""
    try:
        check_fit_window(n_points, span, omega)
    except FitWindowError as exc:
        raise _config_error(str(exc), keys[exc.part], raw) from None


def _gamma_ratio_rules(cfg: ExperimentConfig, raw: str | None) -> None:
    """Fig5's cross-key rules: one time scale, excited preparation and gamma_se
    for the master-eq swap (in the closed form's regime at every level), every
    ladder omega_n > 0. Sets `cfg.ladder` and `cfg.env.dt`."""
    env, lad, sizes = cfg.env, cfg.ladder, _gamma_ratio_sizes(cfg)
    if (env.dt is None) == (env.omega0_dt is None):
        raise _config_error("exactly one of dt and omega0_dt must be given", "env", raw)
    if cfg.predictor == "master-eq":
        if not cfg.master_eq.gamma_se:  # None or 0
            raise _config_error("a value > 0 is required by the master-eq predictor",
                                "master_eq.gamma_se", raw)
        _walk(_MASTER_EQ_SYSTEM, vars(cfg.system), raw, "system")
    cfg.ladder = _build("ladder.n_max", raw, rabi_frequency_ladder,
                        cfg.system.omega, lad.n_max, lad.lamb_dicke)
    omega0_dt, span = vars(env).pop("omega0_dt"), cfg.fit_window.omega_t_span
    if omega0_dt is not None:
        env.dt = omega0_dt / cfg.ladder.omega_n(0)
    dt_key = "env.dt" if omega0_dt is None else "env.omega0_dt"
    for _, omega_n in cfg.ladder.entries:  # each level fits omega_n t over [0, span]
        _fit_window_rule(cfg.fit_window.n_points, span / omega_n, omega_n,
                         {"points": "fit_window.n_points", "span": "fit_window.omega_t_span"},
                         raw)
        if cfg.predictor != "master-eq":  # and builds its own table
            sizes.append(_table_size(span / omega_n, env, "fit_window.omega_t_span", dt_key))
    _within_budget(sizes, raw)
    if cfg.predictor == "master-eq":  # the slowest level bounds gamma_se the most
        _build("master_eq.gamma_se", raw, MasterEqParams,
               min(omega for _, omega in cfg.ladder.entries), cfg.master_eq.gamma_se)


def config_from_dict(data: dict, raw_text: str | None = None) -> ExperimentConfig:
    """Validate a parsed JSON object against its kind's spec (fail fast)."""
    if not isinstance(data, dict):
        raise ConfigError("top level must be a JSON object")
    common = _walk(_COMMON, {k: x for k, x in data.items() if k in _COMMON}, raw_text)
    kind = common["experiment"] = ExperimentKind(common["experiment"])
    env_type, spec, sizes = _SPECS[kind]
    cfg = ExperimentConfig(**common, **_walk(
        spec, {k: x for k, x in data.items() if k not in _COMMON}, raw_text))
    _within_budget(sizes(cfg), raw_text)
    if env_type is DistinguishableEnv:  # Fig2, and the oracle's reference curve
        _over(*_epochs(cfg), MAX_EPOCHS, "epochs, over the epoch limit", raw_text)
    if {"grid", "fit"} <= spec.keys() and cfg.grid.n_points:  # an empty grid fits nothing
        _fit_window_rule(cfg.grid.n_points, cfg.grid.t_max, cfg.system.omega,
                         {"points": "grid.n_points", "span": "grid.t_max"}, raw_text)
    if kind is ExperimentKind.FIG5_GAMMA_RATIO:
        _gamma_ratio_rules(cfg, raw_text)
    if kind is ExperimentKind.MASTER_EQ_BASELINE:
        cfg.env.omega = _walk(_MASTER_EQ_SYSTEM, vars(cfg.system), raw_text, "system")["omega"]
    cfg.system = _build("system", raw_text, RabiSystem, cfg.system.omega,
                        InitialState(cfg.system.initial_state))
    cfg.env = _build("env", raw_text, env_type, **vars(cfg.env))
    cfg.target = {key: x for key, x in vars(cfg.target).items() if x is not None}
    return cfg


def _read_json_object(path) -> tuple[dict, str]:
    try:
        raw_text = Path(path).read_text(encoding="utf-8")
        data = json.loads(raw_text)
    except UnicodeDecodeError as exc:
        raise ConfigError(f"not UTF-8 text: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON: {exc.msg}", "", exc.lineno) from exc
    except (OSError, ValueError) as exc:  # missing, a directory, unreadable, a NUL in the path
        raise ConfigError(f"{getattr(exc, 'strerror', None) or exc}: {path}") from None
    return data, raw_text


def load_config(path, seed: int | None = None) -> ExperimentConfig:
    """Validated config of a file; `seed` (the CLI's --seed) replaces its seed."""
    cfg = config_from_dict(*_read_json_object(path))
    if seed is not None:
        cfg.seed = _checked(_COMMON["seed"], seed, "seed", None)
    return cfg


def load_fit_config(path) -> FitConfig:
    """Validate a `rabideco fit` config; series_csv resolves against its directory."""
    data, raw = _read_json_object(path)
    cfg = FitConfig(**_walk(_FIT_SPEC, data, raw))
    resolved = str(Path(path).parent / cfg.series_csv)  # an absolute path stays as it is
    cfg.series_csv = Path(_checked(_SERIES_PATH, resolved, "series_csv", raw))
    return cfg


# ---- results, each writing its own outputs ----
def _csv(header: str, rows) -> bytes:
    """Header line plus one line per row of a C-contiguous 2-D float array or of tuples
    (Fig5's `n` is an int): orjson writes the rows as one flat list, and one numpy pass
    turns each row's last comma into a newline. A row with a NaN or inf, which orjson
    writes as null, is written with %r instead."""
    array = isinstance(rows, np.ndarray)
    rows = rows if array else [tuple(row) for row in rows]
    if not len(rows):
        return header.encode() + b"\n"
    values, head = np.asarray(rows, dtype=float), header.encode()
    body = bytearray(head) + orjson.dumps(rows.ravel() if array else [
        x for row in rows for x in row], option=orjson.OPT_SERIALIZE_NUMPY)
    text, width = np.frombuffer(body, dtype=np.uint8)[len(head):], values.shape[1]
    text[np.flatnonzero(text == ord(","))[width - 1::width]] = ord("\n")
    text[0] = text[-1] = ord("\n")  # the brackets: the header's line end and the last row's
    finite = np.isfinite(values)
    if finite.all():
        return bytes(body)
    lines, line = body.split(b"\n"), ",".join(["%r"] * width)
    for i in np.flatnonzero(~finite.all(axis=1)).tolist():  # line 0 is the header
        lines[i + 1] = (line % tuple(rows[i].tolist() if array else rows[i])).encode()
    return b"\n".join(lines)


def _json(summary: dict) -> bytes:
    """Sorted-key, two-space-indented JSON, NaN and inf as null. The config check keeps
    the summary in orjson's range: ints below 2^64 and text in valid UTF-8."""
    return orjson.dumps(summary, option=orjson.OPT_INDENT_2 | orjson.OPT_SORT_KEYS
                        | orjson.OPT_APPEND_NEWLINE)


def _fit_fields(fit: DampedSinusoidFit) -> dict:
    return {"gamma": fit.gamma, "omega_fit": fit.omega_fit, "amplitude": fit.amplitude,
            "offset": fit.offset, "phase": fit.phase, "residual_rms": fit.residual_rms,
            "free_params": sorted(fit.free_params), "degenerate": fit.degenerate,
            "iterations": fit.iterations}


def _verdict(summary: dict, target: dict, key: str, got: float) -> None:
    """Adds the target and a pass flag to `summary`; a NaN result never passes."""
    want, tol = target.get(key), target.get("tol", 0.0)
    summary["target"] = {key: want, "tol": tol}
    summary["pass"] = bool(want is not None and abs(got - want) <= tol)


@dataclass(frozen=True, eq=False)
class SeriesResult:
    """A bare predictor series, unfitted (`rabideco simulate`)."""

    series: ProbabilitySeries

    def csv(self) -> bytes:
        series = self.series
        return _csv("t_coord,p_predicted", np.column_stack((series.times, series.probs)))

    def summary(self, cfg: ExperimentConfig) -> dict:
        return {"experiment": cfg.experiment.value, "seed": cfg.seed,
                "parameters": dict(self.series.meta), "n_points": len(self.series)}

    def svg(self, cfg: ExperimentConfig) -> bytes:
        return series_overlay_svg((self.series.times, self.series.probs), ((), ()),
                                  cfg.experiment.value)


@dataclass(frozen=True, eq=False)
class FigureResult(SeriesResult):
    """Predictor series, the fitted curve on the same grid, and the fit."""

    fit: DampedSinusoidFit | None
    fit_curve: np.ndarray

    def csv(self) -> bytes:
        series = self.series
        return _csv("t_coord,p_predicted,p_fit",
                    np.column_stack((series.times, series.probs, self.fit_curve)))

    def summary(self, cfg: ExperimentConfig) -> dict:
        fit, omega = self.fit, cfg.system.omega
        summary = super().summary(cfg)
        summary["fit"] = None if fit is None else {
            **_fit_fields(fit), "gamma_over_omega": fit.gamma / omega}
        if cfg.target and fit is not None:
            _verdict(summary, cfg.target, "gamma_over_omega", fit.gamma / omega)
        return summary

    def svg(self, cfg: ExperimentConfig) -> bytes:
        times = self.series.times
        return series_overlay_svg((times, self.series.probs), (times, self.fit_curve),
                                  cfg.experiment.value)


GammaRatioRow = NamedTuple("GammaRatioRow",
                           [("n", int), ("omega_n", float), ("gamma_n", float), ("ratio", float)])


class GammaRatioResult(NamedTuple):
    """Fitted gamma_n per ladder level and the power law of their ratios."""

    rows: list[GammaRatioRow]
    power_law: PowerLawFit

    def csv(self) -> bytes:
        return _csv("n,omega_n,gamma_n,ratio", self.rows)

    def summary(self, cfg: ExperimentConfig) -> dict:
        env, swap = cfg.env, cfg.predictor == "master-eq"
        parameters = {"omega": cfg.system.omega, "predictor": cfg.predictor, "beta": env.beta,
                      "dt": env.dt, "max_events": env.max_events,
                      "gamma_se": cfg.master_eq.gamma_se if swap else None,
                      "ladder_n_max": len(cfg.ladder.entries) - 1,
                      "lamb_dicke": cfg.ladder.lamb_dicke,
                      "omega_t_span": cfg.fit_window.omega_t_span}
        summary = {"experiment": cfg.experiment.value, "seed": cfg.seed,
                   "parameters": parameters, "rows": [row._asdict() for row in self.rows],
                   "power_law": asdict(self.power_law)}
        if cfg.target:
            _verdict(summary, cfg.target, "exponent", self.power_law.exponent)
        return summary

    def svg(self, cfg: ExperimentConfig) -> bytes:
        ns = np.array([row.n for row in self.rows], dtype=float)
        ratios, law = np.array([row.ratio for row in self.rows]), self.power_law
        xs = ns if law.degenerate else np.linspace(0.0, float(ns[-1]), 100)
        curve = ratios if law.degenerate else (1.0 + xs) ** law.exponent
        return series_overlay_svg((ns, ratios), (xs, curve), cfg.experiment.value,
                                  xlabel="n", ylabel="gamma_n / gamma_0")


@dataclass(frozen=True, eq=False)
class OracleCheckResult:
    mc_series: ProbabilitySeries
    analytic_series: ProbabilitySeries
    sigma: np.ndarray
    z_scores: np.ndarray
    max_abs_z: float

    def csv(self) -> bytes:
        return _csv("t_coord,p_mc,p_analytic,sigma,z", np.column_stack((
            self.mc_series.times, self.mc_series.probs, self.analytic_series.probs, self.sigma,
            self.z_scores)))

    def summary(self, cfg: ExperimentConfig) -> dict:
        bound = cfg.target.get("max_abs_z", 5.0)
        return {"experiment": cfg.experiment.value, "seed": cfg.seed,
                "parameters": dict(self.mc_series.meta), "max_abs_z": self.max_abs_z,
                "bound": bound, "pass": bool(self.max_abs_z <= bound)}

    def svg(self, cfg: ExperimentConfig) -> bytes:
        return series_overlay_svg((self.mc_series.times, self.mc_series.probs),
                                  (self.analytic_series.times, self.analytic_series.probs),
                                  cfg.experiment.value)


@dataclass(frozen=True)
class FitResult:
    """A damped-sinusoid fit of a series CSV (`rabideco fit`): JSON only."""

    fit: DampedSinusoidFit

    def summary(self, cfg: FitConfig) -> dict:
        return {"series_csv": str(cfg.series_csv), "omega_hint": cfg.omega_hint,
                **_fit_fields(self.fit)}


# ---- pipelines ----
def predictor_series(cfg: ExperimentConfig) -> ProbabilitySeries:
    """The configured env's analytic series on its grid, unfitted; a
    distinguishable env (Fig2, the oracle's reference) runs the recursion."""
    grid = np.linspace(0.0, cfg.grid.t_max, cfg.grid.n_points)
    env = cfg.env
    if isinstance(env, MasterEqParams):
        return master_eq_series(env, grid)
    if isinstance(env, DistinguishableEnv):
        n_max = math.ceil(float(grid[-1]) / env.dt) + 1 if grid.size else 0
        return sample_series(build_predictor(cfg.system, env, n_max), grid)
    n_max = table_n_max(float(grid[-1]), env.beta, env.dt) if grid.size else 0
    return sample_rescaled_series(build_nested_table(cfg.system, env, n_max), env, grid)


def _regime_note(spectrum) -> str:
    """The epoch map's regime and exact rate, for a failed Fig2 fit's message."""
    roots = " and ".join(f"{root:#.3g}" for root in spectrum.roots)
    if spectrum.regime == "complex":
        return (f"the epoch map has complex roots {roots}, so the envelope decays at "
                f"gamma = -ln(eta)/(2 dt) = {spectrum.gamma:#.3g}")
    return (f"the epoch map has real roots {roots}, so there is no oscillation to fit; "
            f"the exact rate is gamma = -ln|lambda_max|/dt = {spectrum.gamma:#.3g}")


def run_figure_experiment(cfg: ExperimentConfig) -> FigureResult:
    """Series plus damped-sinusoid fit for the single-curve experiments. The fit's
    gamma starts at the predictor's exact envelope rate where it has one: the epoch
    map's -ln(eta)/(2 dt) when its roots are complex, 3 gamma_se/4 for the master
    equation; elsewhere (real roots, the nested predictor) at 0."""
    series = predictor_series(cfg)
    if len(series) == 0:
        return FigureResult(series=series, fit=None, fit_curve=np.empty(0))
    env, spectrum, gamma_hint = cfg.env, None, 0.0
    if isinstance(env, DistinguishableEnv):
        spectrum = epoch_map_spectrum(cfg.system, env)
        gamma_hint = spectrum.gamma if spectrum.regime == "complex" else 0.0
    elif isinstance(env, MasterEqParams):
        gamma_hint = 0.75 * env.gamma_se
    try:
        fit = fit_damped_sinusoid(series, omega_hint=cfg.system.omega,
                                  free_params=cfg.fit.free_params, gamma_hint=gamma_hint)
    except FitConvergenceError as exc:
        if spectrum is not None:
            exc.args = (f"{exc}; {_regime_note(spectrum)}",)
        raise
    params = np.array([fit.gamma, fit.omega_fit, fit.amplitude, fit.offset, fit.phase])
    return FigureResult(series, fit, damped_sinusoid_model(series.times, params))


def run_gamma_ratio_experiment(cfg: ExperimentConfig) -> GammaRatioResult:
    """Fit gamma_n across the frequency ladder and the power law of the ratios.
    Each level, in order, is a figure run at omega_n over its own window."""
    gammas, window = [], cfg.fit_window
    for n, omega_n in cfg.ladder.entries:
        try:
            level = ExperimentConfig(**{
                **vars(cfg), "system": RabiSystem(omega_n, cfg.system.initial_state),
                "env": (MasterEqParams(omega_n, cfg.master_eq.gamma_se)
                        if cfg.predictor == "master-eq" else cfg.env),
                "grid": SimpleNamespace(t_max=window.omega_t_span / omega_n,
                                        n_points=window.n_points)})
            gammas.append(run_figure_experiment(level).fit.gamma)
        except Exception as exc:
            raise RuntimeError(f"gamma-ratio level n={n} failed: {exc}") from exc
    if gammas[0] == 0.0:
        raise RuntimeError("gamma-ratio level n=0 fitted gamma 0: the ratios are undefined")
    rows = [GammaRatioRow(n, omega_n, g, g / gammas[0])
            for (n, omega_n), g in zip(cfg.ladder.entries, gammas)]
    return GammaRatioResult(rows, fit_power_law([(row.n, row.ratio) for row in rows]))


def run_oracle_check(cfg: ExperimentConfig) -> OracleCheckResult:
    """Monte Carlo ensemble vs the recursion, with per-point z-scores."""
    analytic = predictor_series(cfg)
    n_systems = cfg.mc.n_systems
    mc = simulate_distinguishable(cfg.system, cfg.env, EnsembleConfig(
        n_systems=n_systems, seed=cfg.seed, grid=tuple(analytic.times)))
    sigma = np.sqrt(analytic.probs * (1.0 - analytic.probs) / n_systems)
    dev = np.abs(mc.probs - analytic.probs)
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(sigma > 0.0, dev / sigma, np.where(dev > 0.0, np.inf, 0.0))
    return OracleCheckResult(mc, analytic, sigma, z, float(np.max(z)) if z.size else math.nan)


def run_experiment(cfg: ExperimentConfig):
    runs = {ExperimentKind.FIG5_GAMMA_RATIO: run_gamma_ratio_experiment,
            ExperimentKind.ORACLE_CROSS_CHECK: run_oracle_check}
    return runs.get(cfg.experiment, run_figure_experiment)(cfg)


def _rewrite(path: Path, body: bytes) -> None:
    """`path.write_bytes(body)` without first truncating the old file to zero:
    overwrite from the start, then cut a regular file at the new length."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with os.fdopen(fd, "wb") as file:
        file.write(body)
        if stat.S_ISREG(os.fstat(fd).st_mode):
            file.truncate()


def emit_outputs(result, cfg: ExperimentConfig | FitConfig, out_dir,
                 formats=("csv", "json")) -> list[Path]:
    """Write a result of this module in the formats asked for, and only those (a `FitResult`
    has JSON alone), as files named by the config prefix, each rewritten in place; returns
    their paths in the order csv, json, svg. Every body is built as bytes, its numbers written
    by orjson (`_csv`, `_json`, and `series_overlay_svg`'s whole hundredths of a pixel)."""
    unknown = set(formats) - {"csv", "json", "svg"}
    if unknown:
        raise ConfigError(f"unknown output format(s): {sorted(unknown)}", "format")
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as exc:  # a NUL in the path is a ValueError
        raise OSError(f"cannot create output directory {out}: {exc}") from exc
    writers = {"csv": lambda: result.csv(), "json": lambda: _json(result.summary(cfg)),
               "svg": lambda: result.svg(cfg)}
    paths: list[Path] = []
    for fmt in (fmt for fmt in writers if fmt in formats):
        body, path = writers[fmt](), out / f"{cfg.output.prefix}.{fmt}"
        try:
            _rewrite(path, body)
        except OSError as exc:
            raise OSError(f"cannot write {path}: {exc}") from exc
        paths.append(path)
    return paths
