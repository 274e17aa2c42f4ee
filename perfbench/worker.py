"""Fresh-process side of the benchmark: set up one workload and run its items.

    python3 perfbench/worker.py --workload W --seed S --dir D --spawned-at T
        [--setup-only] [--seconds R] [--trace]

The checkout root is the working directory and `src/` must be on
PYTHONPATH (run.py arranges both). Set-up is `import rabideco.cli` plus
generating and writing the item configs; the time from T (the parent's
clock just before starting this process) to the end of set-up goes to
D/setup.json. The timed region is a closed loop with one client: items run
one after another in this process through `rabideco.cli.main`, in rounds of
the whole batch; another round starts only if it would end within R seconds
(default 0), and at least one round runs. Results go to D/worker.json; with
--trace, spans go to D/spans.jsonl.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import sys
import time
from pathlib import Path

import calibrate
import workloads


def _digest(out_dir: Path, item_id: str) -> str | None:
    h = hashlib.sha256()
    for suffix in workloads.FORMATS:
        path = out_dir / f"{item_id}.{suffix}"
        if not path.exists():
            return None
        h.update(path.read_bytes())
    return h.hexdigest()


def _run_rounds(cli, items, argvs, out_dir: Path, seconds: float, exponent: float,
                recorder=None) -> dict:
    """Run the batch in rounds. Per item: seconds, reference seconds, error.

    A calibration reading sits between consecutive items (see calibrate.py).
    A round's wall time is the sum of its item times, so it leaves out the
    calibrations. Each round is also clocked as a whole, less the time spent
    calibrating: the traced run checks its spans against that clock.
    """
    ids = [item["id"] for item in items]
    item_s = {i: [] for i in ids}
    errors = {i: [] for i in ids}
    digests = {i: [] for i in ids}
    rounds, round_cpu, round_clock = [], [], []
    readings = [calibrate.sample()]  # one timeline: a reading between any two items
    start = time.perf_counter()
    while True:
        elapsed_s, cpu, calibrating = [], 0.0, 0.0
        round_start = time.perf_counter()
        for item_id, argv in zip(ids, argvs):
            if recorder is not None:
                recorder.item = item_id
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                rc = cli.main(argv)
            except (Exception, SystemExit) as exc:  # an item failure, not a crash
                rc = repr(exc)
            elapsed_s.append(time.perf_counter() - t0)
            cpu += time.process_time() - c0
            k0 = time.perf_counter()
            readings.append(calibrate.sample(share_of=elapsed_s[-1]))
            calibrating += time.perf_counter() - k0
            item_s[item_id].append(elapsed_s[-1])
            errors[item_id].append(None if rc == 0 else f"exit {rc}")
        round_clock.append(time.perf_counter() - round_start - calibrating)
        rounds.append(sum(elapsed_s))
        round_cpu.append(cpu)
        for item_id in ids:  # outside the timed region
            digests[item_id].append(_digest(out_dir, item_id))
        if time.perf_counter() - start + rounds[-1] > seconds:
            break
    # items ran round by round, in batch order, between consecutive readings
    n = len(ids)
    refs = calibrate.to_reference(
        [item_s[i][r] for r in range(len(rounds)) for i in ids], readings, exponent)
    item_ref_s = {i: refs[k::n] for k, i in enumerate(ids)}
    rounds_ref = [sum(refs[r * n:(r + 1) * n]) for r in range(len(rounds))]
    return {"round_s": rounds, "round_ref_s": rounds_ref, "round_cpu_s": round_cpu,
            "round_clock_s": round_clock,
            "item_s": item_s, "item_ref_s": item_ref_s, "calibration_s": readings,
            "errors": errors, "digests": digests}


def _slope(sizes, seconds) -> float:
    x = [math.log(s) for s in sizes]
    y = [math.log(t) for t in seconds]
    mx, my = sum(x) / len(x), sum(y) / len(y)
    return (sum((a - mx) * (b - my) for a, b in zip(x, y))
            / sum((a - mx) ** 2 for a in x))


def scaling_sweep() -> dict:
    """Time each layer alone at growing sizes; report sizes, times, log-log slopes.

    n = 6400 for the nested table is left out: about 27 s and O(n^2) memory.
    """
    import numpy as np
    from rabideco import (DistinguishableEnv, EnsembleConfig, IndistinguishableEnv,
                          RabiSystem, build_nested_table, build_predictor,
                          simulate_distinguishable)

    system = RabiSystem(omega=1.0)
    dist_env = DistinguishableEnv(dt=0.08, eta=0.99)
    cases = {
        "distinguishable.build_predictor": (
            (1000, 4000, 16000), lambda n: build_predictor(system, dist_env, n)),
        "indistinguishable.build_nested_table": (
            (400, 1600),
            lambda n: build_nested_table(system, IndistinguishableEnv(0.7, 0.995, 5), n)),
        "montecarlo.simulate_distinguishable": (
            (10_000, 100_000),
            lambda n: simulate_distinguishable(system, dist_env, EnsembleConfig(
                n_systems=n, seed=1, grid=tuple(np.linspace(0.0, 30.0, 121))))),
    }
    out = {}
    for name, (sizes, call) in cases.items():
        times = []
        for size in sizes:
            t0 = time.perf_counter()
            call(size)
            times.append(time.perf_counter() - t0)
        out[name] = {"sizes": list(sizes), "seconds": times,
                     "size_exponent": _slope(sizes, times)}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True, type=Path)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="parent's time.time() just before starting this process")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    root = Path.cwd()
    import rabideco.cli as cli
    src = (root / "src").resolve()
    if src not in Path(cli.__file__).resolve().parents:
        print(f"rabideco imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    items = workloads.generate(args.workload, args.seed, root)
    out_dir = args.dir / "out"
    argvs = workloads.write_configs(items, args.dir / "configs", out_dir)
    ready_s = time.time() - args.spawned_at
    (args.dir / "setup.json").write_text(json.dumps({"ready_s": ready_s}), encoding="utf-8")
    if args.setup_only:
        return 0

    recorder = saved = None
    if args.trace:
        import rabideco.experiments
        import rabideco.indistinguishable
        import tracing
        recorder = tracing.Recorder()
        saved = tracing.install(recorder, {m: sys.modules[m] for m in (
            "rabideco.cli", "rabideco.experiments", "rabideco.indistinguishable")})
    result = _run_rounds(cli, items, argvs, out_dir, args.seconds,
                         workloads.CALIBRATION_EXPONENT[args.workload], recorder)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if recorder is not None:
        tracing.uninstall(saved)
        if recorder.errors:
            print("\n".join(recorder.errors[:10]), file=sys.stderr)
            return 2
        result["layers"] = tracing.summarize(recorder.spans, recorder.counts, recorder.names,
                                             sum(result["round_clock_s"]),
                                             recorder.main_thread)
        with open(args.dir / "spans.jsonl", "w", encoding="utf-8") as fh:
            for span in recorder.spans:
                fh.write(json.dumps(span._asdict()) + "\n")
        result["sweep"] = scaling_sweep()
    (args.dir / "worker.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
