"""oscgrid benchmark: run one workload and print its metrics as JSON.

    python3 perfbench/run.py --workload oned-all --seed 1 --seconds 5 --trace 0

Run from anywhere; the program is imported from `src/` of the checkout
that holds this file.  One run:

1. set-up, at least SETUPS times and SETUP_S seconds, each in a fresh
   process: import oscgrid and write the workload's input files from the
   seed (perfbench/inputs.py);
2. prepare the parameters that come from independent computations
   (checks.prepare);
3. run the command list in one process (perfbench/runner.py): one
   untimed warm-up step, then whole rounds until --seconds have passed;
4. check round 1's reports against the independent computations, and
   every later round's reports against round 1's bytes;
5. print, as the last line of stdout, {"correct", "attempted", "failed",
   "metrics"}: the end-to-end metrics with --trace 0, the per-layer ones
   with --trace 1.

Exits 2 without a result when the checkout holds no oscgrid sources, and
1 when a stage of the benchmark itself fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
# set-up repeats at least SETUPS times and for at least SETUP_S seconds, so
# the cheap set-ups (~0.2 s, mostly importing numpy) get a steadier median
SETUPS = 3
SETUP_S = 2.0
DEADLINE_S = 170.0  # every run ends well inside 180 s
CHECK_RESERVE_S = 25.0

sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import inputs  # noqa: E402
import workloads  # noqa: E402


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    return env


def _child(args: list, timeout: float) -> subprocess.CompletedProcess:
    """Run a benchmark child process to its end; raise if it fails."""
    proc = subprocess.run([sys.executable, *args], env=_child_env(), capture_output=True,
                          text=True, timeout=max(timeout, 1.0))
    if proc.returncode != 0:
        raise RuntimeError(f"{args[0]} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    return proc


def _units() -> dict:
    """Unit of every metric, as BENCHMARK.json lists it."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def load_round(out_dir: Path, ctx: dict) -> tuple[dict, dict]:
    """(summary, round 1's parsed reports of the steps that exited 0) of a
    command process's output; ctx gets the parameters that process added."""
    summary = json.loads((out_dir / "summary.json").read_text())
    ctx["params"] = summary["params"]
    reports = {}
    for i, name in enumerate(summary["steps"]):
        if summary["rounds"][0]["codes"][i] == 0:
            reports[name] = json.loads((out_dir / f"r1-{i:02d}-{name}.json").read_text())
    return summary, reports


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="oscgrid benchmark")
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    if not (SRC / "oscgrid" / "__init__.py").is_file():
        print(f"no oscgrid sources under {SRC}", file=sys.stderr)
        return 2

    work = WORK / args.workload
    input_dir, out_dir = work / "inputs", work / "out"
    shutil.rmtree(work, ignore_errors=True)
    input_dir.mkdir(parents=True)

    setups = []
    setup_started = time.perf_counter()
    while len(setups) < SETUPS or time.perf_counter() - setup_started < SETUP_S:
        proc = _child([str(HERE / "inputs.py"), "--workload", args.workload, "--seed", str(args.seed),
                       "--dir", str(input_dir)], DEADLINE_S - (time.perf_counter() - started))
        setups.append(json.loads(proc.stdout.strip().splitlines()[-1]))

    params, ctx = checks.prepare(args.workload, args.seed, input_dir)
    params_file = work / "params.json"
    params_file.write_text(json.dumps(params))
    budget = DEADLINE_S - CHECK_RESERVE_S - (time.perf_counter() - started)
    _child([str(HERE / "runner.py"), "--workload", args.workload, "--inputs", str(input_dir),
            "--params", str(params_file), "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--out", str(out_dir)], budget)
    summary, reports = load_round(out_dir, ctx)
    failures = checks.check(ctx, reports)
    steps = workloads.steps(args.workload, str(input_dir), ctx["params"])

    # a step that exits 0 and passes its checks answers its family cubes;
    # one that fails or is wrong makes the run incorrect, unless it is the
    # known fault, which counts as failed
    rounds = summary["rounds"]
    first = rounds[0]
    correct = True
    failed = 0
    answered = []
    for i, step in enumerate(steps):
        for msg in failures.get(step.name, []):
            print(f"check {step.name}: {msg}", file=sys.stderr)
        step_failed = first["codes"][i] != 0 or bool(failures.get(step.name))
        if step_failed and not step.known_fault:
            correct = False
        for r in rounds:
            if r["codes"][i] != first["codes"][i] or r["digests"][i] != first["digests"][i]:
                print(f"{step.name}: a later round's report differs from round 1's", file=sys.stderr)
                correct = False
        failed += len(rounds) if step_failed else 0
        if not step_failed:
            answered.append(step)
    attempted = len(rounds) * len(steps)
    cubes_answered = workloads.cubes_answered(answered)

    walls = [r["wall_s"] for r in rounds]
    wall = statistics.median(walls)
    print(f"{args.workload} seed {args.seed}: {len(rounds)} round(s), wall_s {walls}, "
          f"correct {correct}, failed {failed}/{attempted}", file=sys.stderr)
    if args.trace:
        values = {key: statistics.median(r["trace"][key] for r in rounds) for key in first["trace"]}
        scanned = values.pop("scan.cubes")
        values["oscillation.useful_cube_ratio"] = cubes_answered / scanned if scanned else 0.0
        values["generators.generate_s"] = statistics.median(s["generate_s"] for s in setups)
    else:
        values = {
            "wall_s": wall,
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "peak_rss_mb": summary["peak_rss_mb"],
            "cubes_per_s": cubes_answered / wall,
        }
    units = _units()
    metrics = {key: {"value": value, "unit": units[key]} for key, value in values.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
