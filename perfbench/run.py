"""rabideco benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload dist_long --seed 1 --seconds 24 --trace 0

Run from the root of a checkout; the program is imported from its `src/`.
Every process is fresh, and all of them run one after another (no threads of
the benchmark's own; the machine this was tuned on has 2 cores):

- set-up, SETUP_RUNS times: start an interpreter, `import rabideco.cli`,
  generate and write the workload's configs. `setup_s` is the median time
  from starting the process to the end of that work.
- --trace 0: one worker runs the item batch in rounds for --seconds
  (see worker.py). End-to-end metrics: `setup_s`, `wall_s` (median round),
  `item_p50_ms` (median item), `peak_rss_mb` (the worker's ru_maxrss). The
  three times are in reference seconds, scaled by the calibration kernel
  timed next to the work (see calibrate.py); measured seconds are printed
  alongside.
- --trace 1: one untraced round, then one traced round followed by the
  scaling sweep. Per-layer metrics come from the traced worker;
  `trace.overhead_ratio` is traced wall over untraced wall, minus 1. The
  traced run is refused (exit 2) if a traced function is missing, a counter
  fails, the workload's main layer is never called, or the spans leave more
  than REMAINDER_SHARE of the round's clock unaccounted for.

After the workers exit, every item's CSV/JSON/SVG output is checked against
references computed in checks.py. An item execution fails on an exception, a
non-zero exit, outputs that differ from the last round's, or a failed check.
The metrics, with units and sample counts, are printed one per line, then
the result as one JSON object on the last line. The exit code is 1 if
anything failed, and 2 (with no result) if the benchmark could not run.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import checks
import stats
import workloads

HERE = Path(__file__).resolve().parent
SETUP_RUNS = 9
REMAINDER_SHARE = 0.01  # of the traced round's clock, outside every top-level span
DEADLINE_S = 170.0  # every process this command starts ends within this


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


class Runner:
    def __init__(self, root: Path, args) -> None:
        self.root = root
        self.args = args
        self.run_dir = root / ".perfbench_runs" / args.workload
        self.deadline = time.monotonic() + DEADLINE_S
        paths = [str(root / "src")] + ([os.environ["PYTHONPATH"]]
                                       if os.environ.get("PYTHONPATH") else [])
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))

    def worker(self, name: str, *extra: str) -> dict:
        """Run worker.py into run_dir/name; return what it wrote there."""
        out = self.run_dir / name
        out.mkdir(parents=True)
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", self.args.workload,
               "--seed", str(self.args.seed), "--dir", str(out), *extra]
        with open(out / "worker.err", "w+", encoding="utf-8") as err:
            cmd += ["--spawned-at", repr(time.time())]
            try:
                proc = subprocess.run(cmd, cwd=self.root, env=self.env,
                                      stdout=subprocess.DEVNULL, stderr=err,
                                      timeout=max(1.0, self.deadline - time.monotonic()))
            except subprocess.TimeoutExpired:  # run() has killed and reaped it
                raise BenchError(f"worker {name} overran the {DEADLINE_S:.0f} s budget") from None
            if proc.returncode != 0:
                err.seek(0)
                raise BenchError(f"worker {name} exited {proc.returncode}:\n"
                                 + err.read()[-2000:])
        result = json.loads((out / "setup.json").read_text(encoding="utf-8"))
        if (out / "worker.json").exists():
            result.update(json.loads((out / "worker.json").read_text(encoding="utf-8")))
        result["out"] = out / "out"
        return result

    def outcomes(self, result: dict, items: list[dict]) -> tuple[int, int, list]:
        """(attempted, failed, messages) over every item execution of a worker."""
        attempted = failed = 0
        messages = []
        for item in items:
            item_id = item["id"]
            problems = checks.check_item(item["config"], result["out"])
            final = result["digests"][item_id][-1]
            for rnd, (error, digest) in enumerate(zip(result["errors"][item_id],
                                                      result["digests"][item_id])):
                attempted += 1
                why = error or problems or (
                    None if digest == final else ["outputs differ from the last round"])
                if why:
                    failed += 1
                    messages.append(f"{item_id} round {rnd}: {why}")
        return attempted, failed, messages


def end_to_end(runner: Runner, items: list[dict]) -> tuple[dict, dict, tuple]:
    setups, readings = [], [calibrate.sample()]
    for k in range(SETUP_RUNS):
        setups.append(runner.worker(f"setup{k}", "--setup-only")["ready_s"])
        readings.append(calibrate.sample())
    setups_ref = calibrate.to_reference(setups, readings)
    result = runner.worker("run", "--seconds", repr(runner.args.seconds))
    item_ms = [1000.0 * t for times in result["item_s"].values() for t in times]
    item_ref_ms = [1000.0 * t for times in result["item_ref_s"].values() for t in times]
    p90 = stats.percentile(item_ref_ms, 0.9)
    values = {
        "setup_s": stats.median(setups_ref),
        "wall_s": stats.median(result["round_ref_s"]),
        "item_p50_ms": stats.median(item_ref_ms),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    raw = "reference seconds; measured"
    notes = {
        "setup_s": f"median of {len(setups)} fresh processes; {raw} {stats.median(setups):.4f} s",
        "wall_s": f"median of {len(result['round_s'])} rounds of {len(items)} items; "
                  f"{raw} {stats.median(result['round_s']):.4f} s",
        "item_p50_ms": f"median of {len(item_ms)} item runs; {raw} {stats.median(item_ms):.4f} ms",
        "peak_rss_mb": "ru_maxrss of the worker",
        "item_p90_ms": (f"{p90:.4f} ms over {len(item_ms)} item runs, in reference seconds"
                        if p90 is not None
                        else f"not reported: {len(item_ms)} item runs leave fewer than "
                             f"{stats.MIN_BEYOND} beyond the 90th percentile"),
    }
    return values, notes, runner.outcomes(result, items)


def per_layer(runner: Runner, items: list[dict]) -> tuple[dict, dict, tuple]:
    plain = runner.worker("untraced")  # a worker runs one round by default
    traced = runner.worker("traced", "--trace")
    values = dict(traced["layers"])
    values["process.cpu_s"] = traced["round_cpu_s"][0]
    values["trace.overhead_ratio"] = traced["round_ref_s"][0] / plain["round_ref_s"][0] - 1.0
    notes = {}
    for name, sweep in traced["sweep"].items():
        values[f"{name}.size_exponent"] = sweep["size_exponent"]
        notes[f"{name}.size_exponent"] = ", ".join(
            f"{size}: {secs:.3f} s" for size, secs in zip(sweep["sizes"], sweep["seconds"]))
    main_span = workloads.MAIN_SPAN[runner.args.workload]
    if not values.get(f"{main_span}.calls"):
        raise BenchError(f"{main_span} was never called on {runner.args.workload}; "
                         "the program may do that work under another name")
    # spans against the round's own clock: a lost, doubled or misplaced
    # top-level span moves the remainder out of [0, REMAINDER_SHARE]
    remainder, wall = values["trace.remainder_s"], values["trace.wall_s"]
    if not 0.0 <= remainder <= REMAINDER_SHARE * wall:
        raise BenchError(f"trace accounting: {remainder!r} s of the traced round's "
                         f"{wall!r} s lie outside top-level spans")
    a1, f1, m1 = runner.outcomes(plain, items)
    a2, f2, m2 = runner.outcomes(traced, items)
    return values, notes, (a1 + a2, f1 + f2, m1 + m2)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    try:
        if not (root / "src" / "rabideco" / "cli.py").is_file():
            raise BenchError(f"no src/rabideco/cli.py under {root}; "
                             "run from the root of a rabideco checkout")
        spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
        declared = spec["per_layer"] if args.trace else spec["end_to_end"]
        runner = Runner(root, args)
        shutil.rmtree(runner.run_dir, ignore_errors=True)
        items = workloads.generate(args.workload, args.seed, root)
        measure = per_layer if args.trace else end_to_end
        values, notes, (attempted, failed, messages) = measure(runner, items)
        missing = [m["name"] for m in declared if m["name"] not in values]
        if missing:
            raise BenchError(f"metrics declared but not measured: {missing}")
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2

    provenance = workloads.PROVENANCE[args.workload]
    print(f"workload {args.workload} seed {args.seed}: {len(items)} items, "
          f"closed loop with 1 client, nproc {os.cpu_count()}")
    print(f"why: {provenance['why']}")
    for group, spread in provenance["ranges"].items():
        print(f"  {group}: {spread}")
    for metric in declared:
        name = metric["name"]
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} = {values[name]!r} {metric['unit']}{note}")
    for name, note in notes.items():
        if name not in values:
            print(f"{name}: {note}")
    print(f"fail_ratio = {failed / attempted!r} ({failed} of {attempted} item runs)")
    for message in messages[:20]:
        print(f"FAILED {message}", file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
