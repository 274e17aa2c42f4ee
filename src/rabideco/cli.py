"""Command line front end.

Subcommands:
    simulate      predictor/baseline series only, no fitting
    fit           damped-sinusoid fit of a series CSV
    experiment    full pipeline: series, fit, summary, optional plot
    oracle-check  Monte Carlo ensemble vs the recursion

Every subcommand takes --config <path> plus --out, --seed and repeatable
--format flags. Exit codes: 0 success, 2 config error, 3 numerical failure.
"""
from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

import numpy as np

from .core import ProbabilitySeries
from .experiments import (
    ConfigError,
    ExperimentKind,
    emit_outputs,
    load_config,
    load_fit_config,
    predictor_series,
    run_experiment,
    run_oracle_check,
    _fmt,
    _write_csv,
    _write_json,
)
from .fitting import FitConvergenceError, fit_damped_sinusoid
from .svgfig import series_overlay_svg


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rabideco",
        description="Decoherence of Rabi oscillations from passively measured ensembles",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("simulate", "produce the configured predictor series (no fit)"),
        ("fit", "fit a damped sinusoid to a series CSV"),
        ("experiment", "run the configured experiment end to end"),
        ("oracle-check", "compare the Monte Carlo ensemble with the recursion"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="JSON config file")
        cmd.add_argument("--out", default=".", help="output directory (default: .)")
        cmd.add_argument("--seed", type=int, default=None, help="override the config seed")
        cmd.add_argument(
            "--format",
            action="append",
            choices=("csv", "json", "svg"),
            default=None,
            help="output format, repeatable (default: csv and json)",
        )
    return parser


def _read_series_csv(path: Path) -> ProbabilitySeries:
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or len(header) < 2:
            raise ConfigError(f"{path} has no usable header row", "series_csv")
        try:
            rows = [(float(r[0]), float(r[1])) for r in reader]
        except (IndexError, ValueError):
            raise ConfigError(f"{path} line {reader.line_num}: expected two numbers",
                              "series_csv") from None
    times = np.array([r[0] for r in rows])
    probs = np.array([r[1] for r in rows])
    return ProbabilitySeries(times, probs, {"source": str(path)})


def _cmd_simulate(cfg, out_dir: Path, formats) -> int:
    if cfg.experiment is ExperimentKind.FIG5_GAMMA_RATIO:
        raise ConfigError(
            "simulate does not apply to Fig5GammaRatio (it is a fit pipeline); "
            "use the experiment subcommand", "experiment")
    if cfg.experiment is ExperimentKind.ORACLE_CROSS_CHECK:
        result = run_oracle_check(cfg)
        series = result.mc_series
    else:
        series = predictor_series(cfg)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    if "csv" in formats:
        path = out_dir / f"{cfg.output_prefix}.csv"
        _write_csv(path, ["t_coord", "p_predicted"],
                   [[_fmt(t), _fmt(p)] for t, p in zip(series.times, series.probs)])
        paths.append(path)
    if "json" in formats:
        path = out_dir / f"{cfg.output_prefix}.json"
        _write_json(path, {"experiment": cfg.experiment.value, "seed": cfg.seed,
                           "parameters": dict(series.meta), "n_points": len(series)})
        paths.append(path)
    if "svg" in formats:
        path = out_dir / f"{cfg.output_prefix}.svg"
        path.write_text(series_overlay_svg(
            dots=(series.times, series.probs), line=((), ()),
            title=cfg.experiment.value, xlabel="t", ylabel="P(ground)"),
            encoding="utf-8")
        paths.append(path)
    for p in paths:
        print(p)
    return 0


def _cmd_fit(config_path: Path, out_dir: Path, formats) -> int:
    cfg = load_fit_config(config_path)
    series = _read_series_csv(cfg.series_csv)
    fit = fit_damped_sinusoid(series, omega_hint=cfg.omega_hint, free_params=cfg.free_params)
    out_dir.mkdir(parents=True, exist_ok=True)
    summary = {
        "series_csv": str(cfg.series_csv),
        "omega_hint": cfg.omega_hint,
        "gamma": fit.gamma,
        "omega_fit": fit.omega_fit,
        "amplitude": fit.amplitude,
        "offset": fit.offset,
        "phase": fit.phase,
        "residual_rms": fit.residual_rms,
        "free_params": sorted(fit.free_params),
        "degenerate": fit.degenerate,
    }
    path = out_dir / f"{cfg.output_prefix}.json"
    _write_json(path, summary)
    print(path)
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    out_dir = Path(args.out)
    formats = tuple(args.format) if args.format else ("csv", "json")
    try:
        if args.command == "fit":
            return _cmd_fit(Path(args.config), out_dir, formats)
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg.seed = args.seed
        if args.command == "simulate":
            return _cmd_simulate(cfg, out_dir, formats)
        if args.command == "oracle-check":
            if cfg.experiment is not ExperimentKind.ORACLE_CROSS_CHECK:
                raise ConfigError(
                    f"oracle-check needs an OracleCrossCheck config, got "
                    f"{cfg.experiment.value}", "experiment")
            result = run_oracle_check(cfg)
        else:
            result = run_experiment(cfg)
        for path in emit_outputs(result, cfg, out_dir, formats):
            print(path)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (FitConvergenceError, FloatingPointError, np.linalg.LinAlgError,
            RuntimeError, ValueError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
