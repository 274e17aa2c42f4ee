"""Run-to-run spread of the end-to-end metrics over seeds.

    python3 perfbench/steady.py --workload mc_dense --runs 10 [--first-seed 1]

Runs the benchmark command from BENCHMARK.json once per seed, one run at a
time, and prints each metric's median and quartile spread (Q3 - Q1 over the
median) next to its bound. Run from the root of a checkout.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import stats


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, action="append")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    status = 0
    for workload in args.workload:
        values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            for name, metric in result["metrics"].items():
                values[name].append(metric["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)
        for metric in spec["end_to_end"]:
            vals = values[metric["name"]]
            spread = stats.quartile_spread(vals)
            ok = metric["name"] == "setup_s" or spread <= metric["bound"] / 3.0
            status |= not ok
            print(f"{workload} {metric['name']}: median {stats.median(vals):.6g} "
                  f"{metric['unit']}, spread {spread:.4f} (bound {metric['bound']}, "
                  f"{'ok' if ok else 'above a third of the bound'})")
    return status


if __name__ == "__main__":
    sys.exit(main())
