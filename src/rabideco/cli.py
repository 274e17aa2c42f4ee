"""Command line front end.

Subcommands:
    simulate      predictor/baseline series only, no fitting
    fit           damped-sinusoid fit of a series CSV
    experiment    full pipeline: series, fit, summary, optional plot
    oracle-check  Monte Carlo ensemble vs the recursion

Every subcommand takes --config <path> and --out. All but fit also take
--seed and repeatable --format flags; fit writes only its JSON summary and
rejects both. Exit codes: 0 success, 1 an output that cannot be written, 2 config
error (argparse usage errors and unreadable input files included), 3 numerical failure.
"""
from __future__ import annotations

import argparse
import csv
import functools
import sys
from pathlib import Path

import numpy as np

from .core import InvalidEntryError, ProbabilitySeries
from .experiments import (
    ConfigError,
    ExperimentKind,
    FitResult,
    SeriesResult,
    emit_outputs,
    load_config,
    load_fit_config,
    predictor_series,
    run_experiment,
    run_oracle_check,
)
from .fitting import FitWindowError, fit_damped_sinusoid


@functools.cache
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
        if name == "fit":
            continue  # fit draws no random numbers and writes only its JSON summary
        cmd.add_argument("--seed", type=int, default=None, help="override the config seed")
        cmd.add_argument(
            "--format",
            action="append",
            choices=("csv", "json", "svg"),
            default=None,
            help="output format, repeatable (default: csv and json)",
        )
    return parser


def _read_series_csv(path: Path) -> tuple[ProbabilitySeries, list]:
    """The series in a CSV file and the line each of its rows came from."""
    rows, lines = [], []
    try:
        fh = open(path, encoding="utf-8", newline="")
    except OSError as exc:  # missing, a directory, unreadable
        raise ConfigError(f"{exc.strerror or exc}: {path}", "series_csv") from None
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            for r in reader:
                rows.append((float(r[0]), float(r[1])))
                lines.append(reader.line_num)
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path} is not UTF-8 text: {exc}", "series_csv") from None
        except (IndexError, ValueError, csv.Error):
            raise ConfigError(f"{path} line {reader.line_num}: expected two numbers",
                              "series_csv") from None
    if header is None or len(header) < 2:
        raise ConfigError(f"{path} has no usable header row", "series_csv")
    times, probs = np.array(rows).reshape(-1, 2).T.copy()  # two contiguous rows
    return ProbabilitySeries(times, probs, {"source": str(path)}), lines


def _simulate(cfg) -> SeriesResult:
    if cfg.experiment is ExperimentKind.FIG5_GAMMA_RATIO:
        raise ConfigError(
            "simulate does not apply to Fig5GammaRatio (it is a fit pipeline); "
            "use the experiment subcommand", "experiment")
    if cfg.experiment is ExperimentKind.ORACLE_CROSS_CHECK:
        return SeriesResult(run_oracle_check(cfg).mc_series)
    return SeriesResult(predictor_series(cfg))


def _fit(cfg) -> FitResult:
    series, lines = _read_series_csv(cfg.series_csv)
    try:
        return FitResult(fit_damped_sinusoid(series, omega_hint=cfg.omega_hint,
                                             free_params=cfg.free_params))
    except InvalidEntryError as exc:  # a time or sample of the file
        raise ConfigError(f"{cfg.series_csv} line {lines[exc.index]}: {exc}",
                          "series_csv") from None
    except FitWindowError as exc:  # too few rows, or too short a span, to fit
        raise ConfigError(f"{cfg.series_csv}: {exc}", "series_csv") from None


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "fit":
            cfg = load_fit_config(args.config)
            result, formats = _fit(cfg), ("json",)
        else:
            cfg = load_config(args.config, seed=args.seed)
            formats = tuple(args.format) if args.format else ("csv", "json")
            if args.command == "simulate":
                result = _simulate(cfg)
            elif args.command == "experiment":
                result = run_experiment(cfg)
            elif cfg.experiment is ExperimentKind.ORACLE_CROSS_CHECK:
                result = run_oracle_check(cfg)
            else:
                raise ConfigError(f"oracle-check needs an OracleCrossCheck config, got "
                                  f"{cfg.experiment.value}", "experiment")
        for path in emit_outputs(result, cfg, Path(args.out), formats):
            print(path)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ArithmeticError, RuntimeError, ValueError) as exc:  # a failed fit, an overflow
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:  # an output that cannot be written
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
