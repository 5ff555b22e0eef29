"""The process that runs a workload's commands; started by run.py.

It runs the workload's warm-up step once, untimed, then whole rounds of
the command list through `oscgrid.cli.main`, each command's stdout going to
a file: at least `workloads.MIN_ROUNDS`, and until `--seconds` have passed
since the first round began.  A
round's wall time is the sum of its commands' times.  Round 1's reports are
kept for the checks; later rounds keep only their digests.  With
`--trace 1` the per-layer tracer is installed before the warm-up and reset
at the start of every round.  The summary (per-round walls, exit codes,
digests, per-layer metrics, peak RSS of this process) is written as JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

import workloads


def _digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _run(cli, argv, out_path: Path):
    """(exit code, seconds) of one command; stdout goes to out_path."""
    err = io.StringIO()
    t0 = time.perf_counter()
    with open(out_path, "w") as fh, contextlib.redirect_stdout(fh), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception as exc:  # a traceback is a failed command, not a failed run
            code = f"{type(exc).__name__}: {exc}"
    return code, time.perf_counter() - t0, err.getvalue()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--params", required=True, help="JSON file of prepared parameters")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    import oscgrid.cli as cli

    params = json.loads(Path(args.params).read_text())
    workloads.prepare(args.workload, params)
    steps = workloads.steps(args.workload, args.inputs, params)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer().install()
        for name in tracer.missing:
            print(f"trace: {name} not found, its metrics read 0", file=sys.stderr)

    warm = next(s for s in steps if s.name == workloads.WARMUP[args.workload])
    code, _, err = _run(cli, warm.argv({}), out / "warmup.json")
    if code != 0:
        print(f"warm-up {warm.name} exited {code}: {err.strip()}", file=sys.stderr)

    rounds = []
    start = time.perf_counter()
    while len(rounds) < workloads.MIN_ROUNDS[args.workload] or time.perf_counter() - start < args.seconds:
        first = not rounds
        if tracer is not None:
            tracer.reset()
        reports, record = {}, {"wall_s": 0.0, "codes": [], "digests": []}
        report_bytes = 0
        for i, step in enumerate(steps):
            try:
                step_argv = step.argv(reports)
            except KeyError:  # an earlier step it reads from failed
                record["codes"].append("skipped")
                record["digests"].append(None)
                continue
            path = out / (f"r1-{i:02d}-{step.name}.json" if first else "current.json")
            code, seconds, err = _run(cli, step_argv, path)
            if code != 0:
                print(f"{step.name} exited {code}: {err.strip()[-500:]}", file=sys.stderr)
            record["wall_s"] += seconds
            record["codes"].append(code)
            record["digests"].append(_digest(path))
            report_bytes += path.stat().st_size
            if step.feeds and code == 0:
                reports[step.name] = json.loads(path.read_text())
        if tracer is not None:
            record["trace"] = tracer.metrics(report_bytes)
        rounds.append(record)

    summary = {
        "steps": [s.name for s in steps],
        "params": params,
        "rounds": rounds,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    (out / "summary.json").write_text(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
