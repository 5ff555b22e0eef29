"""The ordered `oscgrid` command list of every workload.

A step's arguments may depend on the parameters the benchmark prepared
before the run (`params`) and on reports of earlier steps of the same round
(`reports`, parsed only for steps marked `feeds`).  Every command runs with
`--threads 1`.

`cubes_answered` counts the family-wide quantities a round reports, each
weighted by the size of its cube family, as computed here from the shape and
the mode (never from the program's counters): epsilon, each alpha*(beta),
c_hat, a theorem1 margin and theorem2's measured epsilon.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from inputs import SAMPLE_COUNT, SAMPLE_SEED

T_VALUES = 10  # theorem2's t-values


@dataclass(frozen=True)
class Step:
    name: str
    argv: Callable[[dict], list]
    shape: tuple
    mode: str
    quantities: int
    feeds: bool = False
    known_fault: bool = False


def family_size(shape, mode: str) -> int:
    if mode.startswith("sample:"):
        return int(mode.split(":")[1])
    if mode == "dyadic":
        n = shape[0]
        total, side = 0, 1
        while side <= n:
            total += (n // side) ** len(shape)
            side *= 2
        return total
    return sum(int(np.prod([n - s + 1 for n in shape])) for s in range(1, min(shape) + 1))


def cubes_answered(steps) -> int:
    return sum(s.quantities * family_size(s.shape, s.mode) for s in steps)


def _fixed(*argv):
    return lambda reports: [str(a) for a in argv]


def _gr(report) -> float:
    return report["payload"]["gr"]["epsilon"]


def steps(workload: str, inputs: str, params: dict) -> list:
    """The command list of one round; `inputs` is the directory of the input files."""

    def f(name):
        return f"{inputs}/{name}"

    common = ["--threads", "1"]
    if workload == "oned-all":
        n = 1024
        rnd, pw = f("random1d.json"), f("power1d.json")

        def fwd(k):
            def argv(reports):
                eps = _gr(reports["analyze-random"])
                lam = eps + k * (2.0 - eps) / 3.0
                return ["theorem1", rnd, "--mode", "all", "--direction", "fwd",
                        "--epsilon", repr(eps), "--lambda", repr(lam), *common]
            return argv

        def rev(reports):
            row = reports["analyze-random"]["payload"]["alpha_profile"][1]
            return ["theorem1", rnd, "--mode", "all", "--direction", "rev",
                    "--alpha", repr(row["alpha_star"] / 2), "--beta", repr(row["beta"]), *common]

        return [
            Step("analyze-random", _fixed("analyze", rnd, "--mode", "all", "--beta-grid", 3, *common),
                 (n,), "all", 4, feeds=True),
            Step("theorem1-fwd-1", fwd(1), (n,), "all", 1),
            Step("theorem1-fwd-2", fwd(2), (n,), "all", 1),
            Step("theorem1-rev", rev, (n,), "all", 1),
            Step("rh-p2", _fixed("rh", rnd, "--mode", "all", "--p", 2, *common), (n,), "all", 1),
            Step("rh-auto", _fixed("rh", rnd, "--mode", "all", "--auto", *common), (n,), "all", 2),
            Step("analyze-power", _fixed("analyze", pw, "--mode", "all", *common), (n,), "all", 20),
            Step("analyze-atom",
                 _fixed("analyze", f("atom1d.json"), "--mode", "all", "--beta-grid", 19, *common),
                 (64,), "all", 20, known_fault=True),
        ]
    if workload == "twod-dyadic":
        n = 1024
        g = f("random2d.json")
        mode = ["--mode", "dyadic"]
        return [
            Step("analyze", _fixed("analyze", g, *mode, "--beta-grid", 3, *common), (n, n), "dyadic", 4),
            Step("rh-p2", _fixed("rh", g, *mode, "--p", 2, *common), (n, n), "dyadic", 1),
            Step("theorem1-rev",
                 _fixed("theorem1", g, *mode, "--direction", "rev", "--alpha", repr(params["rev_alpha"]),
                        "--beta", repr(params["rev_beta"]), *common),
                 (n, n), "dyadic", 1),
        ]
    if workload == "cover-2d":
        n = 256
        g = f("cover2d.json")
        mode = ["--mode", "dyadic"]
        # t up to a quarter of rho * mu(Q_0): away from the cap, where the
        # covering size swings with the data
        top = params["rho"] * params["total_mass"] / 4
        ts = [repr(top * k / T_VALUES) for k in range(1, T_VALUES + 1)]
        return [
            Step("theorem2",
                 _fixed("theorem2", g, *mode, "--epsilon", repr(params["epsilon"]),
                        "--lambda", repr(params["lambda"]), "--rho", repr(params["rho"]),
                        "--t", *ts, *common),
                 (n, n), "dyadic", 1),
            Step("rh-auto-covering", _fixed("rh", g, *mode, "--auto", "--B-from-covering", *common),
                 (n, n), "dyadic", 2),
        ]
    if workload == "sampled":
        sample = f"sample:{SAMPLE_COUNT}:{SAMPLE_SEED}"
        pw = f("power1d.json")

        def fwd(reports):
            eps = _gr(reports["analyze-power"])
            return ["theorem1", pw, "--mode", sample, "--direction", "fwd", "--epsilon", repr(eps),
                    "--lambda", repr(eps + (2.0 - eps) / 2.0), *common]

        return [
            Step("analyze-power", _fixed("analyze", pw, "--mode", sample, *common),
                 (4096,), sample, 20, feeds=True),
            Step("theorem1-fwd", fwd, (4096,), sample, 1),
            Step("analyze-random2d", _fixed("analyze", f("random2d.json"), "--mode", sample, *common),
                 (256, 256), sample, 20),
            Step("analyze-small2d", _fixed("analyze", f("small2d.json"), "--mode", "all", *common),
                 (32, 32), "all", 20),
            Step("analyze-small3d", _fixed("analyze", f("small3d.json"), "--mode", "all", *common),
                 (16, 16, 16), "all", 20),
        ]
    raise ValueError(f"unknown workload {workload!r}")


# the step run once, untimed, before the first round: same code paths and
# input sizes as the round, so allocator growth and first-call costs are paid
WARMUP = {
    "oned-all": "rh-auto",
    "twod-dyadic": "rh-p2",
    "cover-2d": "rh-auto-covering",
    "sampled": "analyze-small2d",
}


# the fewest rounds a run measures, whatever --seconds says.  Round times
# drift by about 15% from one round to the next on a shared host; the two
# workloads with the shortest rounds (about 8 s) report the median of
# several, so that their spread between runs stays near the longer ones'.
MIN_ROUNDS = {
    "oned-all": 1,
    "twod-dyadic": 1,
    "cover-2d": 2,
    "sampled": 3,
}


def prepare(workload: str, params: dict) -> None:
    """Fill in parameters that come from the program's own optimizer; runs
    in the command process before tracing starts, so it is never measured."""
    if workload == "cover-2d":
        from oscgrid.holder import optimize_rh_exponent

        params["lambda"], params["rho"], _ = optimize_rh_exponent(params["epsilon"])
