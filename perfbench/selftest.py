"""Self-test of the benchmark's checks: each one rejects a perturbed answer.

    python3 perfbench/selftest.py

For every workload it runs the benchmark once (`run.py`, one round, seed
SEED), which must come out correct with only the known 1e12-atom fault
failed.  It then loads that round's reports from `.bench_work/<workload>/`
and rebuilds the checks' context, so the checks are tested on the
benchmark's own inputs.  The atom report must pass once it carries the
oracle's values.  Each perturbation below is applied to a copy of the
reports, and the named check must report a failure on that step.  Exits 1
if any expectation is not met.
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import inputs  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SEED = 1
P = checks.PERTURB


def up(x):
    return x * (1 + P) if x else P


def down(x):
    return x * (1 - P) if x else -P


def const(value):
    return lambda x: value


def reverse(x):
    return list(reversed(x))


def shift_witness(cube):
    origin = list(cube["origin"])
    origin[0] += 1 if origin[0] == 0 else -1
    return {"origin": origin, "side": cube["side"]}


G = ("payload", "gr")
A0 = ("payload", "alpha_profile", 0)
R = ("payload", "rearrangement")
T1 = ("payload", "report")
AUTO = ("payload", "auto")
T2 = ("payload",)
PT = ("payload", "per_t", 0)

# (workload, step, path to the perturbed field, change, text of the check that must fire)
PERTURBATIONS = [
    ("oned-all", "analyze-random", G + ("epsilon",), up, "epsilon at its witness"),
    ("oned-all", "analyze-random", G + ("epsilon",), lambda x: x / 2, "exceeds epsilon"),
    ("oned-all", "analyze-random", G + ("witness",), shift_witness, "epsilon at its witness"),
    ("oned-all", "analyze-random", G + ("cubes_scanned",), lambda x: x + 1, "cubes_scanned"),
    ("oned-all", "analyze-random", A0 + ("alpha_star",), down, "at its witness"),
    ("oned-all", "analyze-random", ("payload", "alpha_profile", 2, "alpha_star"), const(0.5), "below alpha*"),
    ("oned-all", "analyze-random", R + ("levels",), reverse, "strictly decrease"),
    ("oned-all", "analyze-random", R + ("breakpoints", -1), up, "last breakpoint"),
    ("oned-all", "analyze-random", R + ("total_mass",), up, "total_mass"),
    ("oned-all", "analyze-random", R + ("levels", 0), up, "sum level*width"),
    ("oned-all", "theorem1-fwd-1", T1 + ("holds",), const(False), "does not hold"),
    ("oned-all", "theorem1-fwd-2", T1 + ("worst_margin",), up, "worst margin at its witness"),
    ("oned-all", "theorem1-fwd-2", T1 + ("worst_margin",), const(10.0), "below 0 or the reported worst"),
    ("oned-all", "theorem1-rev", T1 + ("holds",), const(False), "does not hold"),
    ("oned-all", "theorem1-rev", T1 + ("worst_margin",), up, "worst margin at its witness"),
    ("oned-all", "theorem1-rev", T1 + ("worst_margin",), const(-1.0), "negative worst margin"),
    ("oned-all", "theorem1-rev", ("payload", "alpha"), const(0.99), "is not below alpha*"),
    ("oned-all", "theorem1-rev", ("payload", "alpha"), const(0.999), "exceeds the bound"),
    ("oned-all", "theorem1-rev", ("payload", "beta"), up, "beta is not the analyze grid's"),
    ("oned-all", "rh-p2", ("payload", "c_hat"), up, "c_hat at its witness"),
    ("oned-all", "rh-p2", ("payload", "c_hat"), const(0.5), "< 1"),
    ("oned-all", "rh-p2", ("payload", "c_hat"), lambda x: 1 + (x - 1) / 2, "above c_hat"),
    ("oned-all", "rh-auto", AUTO + ("p_star",), up, "p_star"),
    ("oned-all", "rh-auto", AUTO + ("measured_epsilon",), up, "measured epsilon"),
    ("oned-all", "rh-auto", ("payload", "p"), up, "not measured at p_star"),
    ("oned-all", "analyze-power", G + ("epsilon",), up, "monotone oracle"),
    ("twod-dyadic", "analyze", G + ("epsilon",), up, "epsilon vs the block oracle"),
    ("twod-dyadic", "analyze", ("payload", "alpha_profile", 1, "alpha_star"), up, "vs the block oracle"),
    ("twod-dyadic", "analyze", R + ("levels",), reverse, "strictly decrease"),
    ("twod-dyadic", "analyze", R + ("breakpoints", -1), up, "last breakpoint"),
    ("twod-dyadic", "analyze", R + ("levels", 0), up, "sum level*width"),
    ("twod-dyadic", "rh-p2", ("payload", "c_hat"), up, "c_hat vs the block oracle"),
    ("twod-dyadic", "theorem1-rev", T1 + ("worst_margin",), up, "worst margin at its witness"),
    ("twod-dyadic", "theorem1-rev", T1 + ("holds",), const(False), "does not hold"),
    ("cover-2d", "theorem2", T2 + ("holds",), const(False), "theorem2 does not hold"),
    ("cover-2d", "theorem2", PT + ("holds",), const(False), "does not hold"),
    ("cover-2d", "theorem2", PT + ("fstar",), up, "fstar("),
    ("cover-2d", "theorem2", PT + ("fstarstar",), up, "fstarstar("),
    ("cover-2d", "theorem2", PT + ("rho_hi",), const(0.999), "rho_hi"),
    ("cover-2d", "theorem2", PT + ("k_achieved",), const(1e-3), "exceeds K_achieved"),
    ("cover-2d", "theorem2", T2 + ("measured_epsilon",), up, "measured epsilon vs the block oracle"),
    ("cover-2d", "theorem2", T2 + ("covering_constants", "rho_hi"), const(0.999), "covering rho_hi"),
    ("cover-2d", "rh-auto-covering", AUTO + ("p_star",), up, "p_star"),
    ("cover-2d", "rh-auto-covering", AUTO + ("measured_epsilon",), up, "measured epsilon"),
    ("cover-2d", "rh-auto-covering", ("payload", "covering", "rho_hi"), const(0.999), "lambda*/2"),
    ("cover-2d", "rh-auto-covering", AUTO + ("overlap",), lambda x: x + 1, "overlap not the covering's"),
    ("cover-2d", "rh-auto-covering", ("payload", "c_hat"), up, "c_hat vs the block oracle"),
    ("sampled", "analyze-power", G + ("cubes_scanned",), lambda x: x - 1, "cubes_scanned"),
    ("sampled", "analyze-power", G + ("epsilon",), up, "epsilon at its witness"),
    ("sampled", "analyze-power", G + ("epsilon",), const(1.99), "above the all-family"),
    ("sampled", "theorem1-fwd", T1 + ("holds",), const(False), "does not hold"),
    ("sampled", "theorem1-fwd", T1 + ("cubes_scanned",), lambda x: x + 1, "cubes_scanned"),
    ("sampled", "analyze-random2d", G + ("epsilon",), up, "epsilon at its witness"),
    ("sampled", "analyze-small2d", G + ("epsilon",), up, "vs the per-cube loop"),
    ("sampled", "analyze-small3d", A0 + ("alpha_star",), up, "vs the per-cube loop"),
]


def _set(report: dict, path: tuple, change) -> None:
    node = report
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = change(node[path[-1]])


def run_workload(workload: str) -> tuple[dict, dict, list]:
    """(context, round 1's reports, unmet expectations) of one benchmark run."""
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
                           "--seconds", "0", "--trace", "0"], capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"run.py {workload} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    work = run.WORK / workload
    _, ctx = checks.prepare(workload, SEED, work / "inputs")
    _, reports = run.load_round(work / "out", ctx)
    known = sum(s.known_fault for s in workloads.steps(workload, str(work / "inputs"), ctx["params"]))
    ok = result["correct"] and result["failed"] == known
    print(f"{'ok  ' if ok else 'FAIL'} {workload}: run correct {result['correct']}, "
          f"failed {result['failed']}/{result['attempted']} (known faults {known})")
    return ctx, reports, [] if ok else [f"{workload} run"]


def main() -> int:
    bad = []
    for workload in inputs.WORKLOADS:
        ctx, reports, unmet = run_workload(workload)
        bad += unmet
        if "analyze-atom" in reports:  # the check accepts the right answer
            fixed = dict(reports, **{"analyze-atom": copy.deepcopy(reports["analyze-atom"])})
            p = fixed["analyze-atom"]["payload"]
            w, v = inputs.atom_arrays()
            oracle = oracles.naive_all_family(w, v, [r["beta"] for r in p["alpha_profile"]], exact=True)
            p["gr"]["epsilon"] = oracle["epsilon"]
            for row, alpha in zip(p["alpha_profile"], oracle["alphas"]):
                row["alpha_star"] = alpha
            ok = not checks.check(ctx, fixed).get("analyze-atom")
            print(f"{'ok  ' if ok else 'FAIL'} {workload}/analyze-atom: oracle answer accepted")
            bad += [] if ok else ["analyze-atom oracle"]
        for wl, step, path, change, expect in PERTURBATIONS:
            if wl != workload:
                continue
            changed = dict(reports)
            changed[step] = copy.deepcopy(reports[step])
            _set(changed[step], path, change)
            hits = [m for m in checks.check(ctx, changed).get(step, []) if expect in m]
            label = f"{workload}/{step} {'.'.join(map(str, path[1:]))} -> '{expect}'"
            print(f"{'ok  ' if hits else 'FAIL'} {label}")
            bad += [] if hits else [label]
    print(f"{len(bad)} unmet expectation(s)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
