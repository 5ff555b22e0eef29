"""Checks of every report against computations made apart from the program.

`prepare` runs before the command process starts: it loads the inputs,
computes what the command list and the checks need from the independent
oracles (module `oracles`), and returns the parameters handed to the
commands plus a context for `check`.  `check` returns, per step, the list of
failed checks; an empty list means the report passed.

Tolerances.  The oracles sum exactly (math.fsum) or with plain numpy sums,
which agree to far below RTOL.  The program takes a cube's mass, Sum w*v and
Sum w*v^p from float64 prefix tables (`grids._prefix_table`, `box_sums`):
every table entry is within half an ulp of the grid total T of its
quantity, and a box sum adds 2^dim of them in float64, so its error is below
ULPS * EPS * T with ULPS = 4^dim.  On a cube whose own sum is S that is a
relative error of ULPS * EPS * T / S: nothing on heavy cubes, many digits
on light ones.  `Data.rounding(s)` adds this bound over the sums a quantity
uses, and each check allows the reported value that much error, scaled as
the quantity propagates it (see `Data`), on top of RTOL.  Where a reported
extreme is compared with an oracle's, the allowance is the larger of the
two cubes' (the program's witness and the oracle's); a report that names no
witness gets the bound of the lightest cell.

The 1e12-atom command is checked at RTOL alone: its cubes after the atom
carry no digits under the bound above, and the exact answer is what the
method must give (the known fault).  Cumulative sums over up to n = 1M
positive cells (breakpoints, totals) are compared at REL_SUM, above the
n * EPS = 2.3e-10 bound on a recursive float64 sum of positive terms.  The
self-test perturbs answers by PERTURB, above every allowance it meets.
"""

from __future__ import annotations

import math
from collections import defaultdict
from pathlib import Path

import numpy as np

import inputs as inputs_mod
import oracles
import workloads

EPS = float(np.finfo(np.float64).eps)
RTOL = 1e-12
REL_SUM = 1e-9
P_STAR_RTOL = 1e-9  # the program finds lambda* by golden-section search to 1e-9
DELTA = 1e-6  # the CLI's default --delta, which no workload overrides
SAMPLE_CUBES = 300
COVER_SIDE = 8
PERTURB = 1e-4


class Checker:
    def __init__(self):
        self.failures = defaultdict(list)

    def require(self, step: str, ok, message: str) -> None:
        if not ok:
            self.failures[step].append(message)

    def close(self, step: str, what: str, got, want, slack: float = 0.0, rtol: float = RTOL) -> None:
        """|got - want| <= rtol |want| + slack."""
        ok = got is not None and math.isfinite(got) and abs(got - want) <= rtol * abs(want) + slack
        self.require(step, ok, f"{what}: report {got!r}, independent {want!r}")


class Data:
    """One input grid, its exact totals and the prefix-table rounding bound.

    With r = rounding(s) for a cube's fsum stats s, a reported quantity of
    that cube is off by at most: osc/mean (1 + ratio) r <= 3 r; a level
    fraction r; c_hat 2 r relative; a theorem1 fwd margin (level mass minus
    alpha mu(Q)) mass * r; a theorem1 rev margin (bound mean - osc)
    (bound + 1 + ratio) mean r <= 5 mean r.
    """

    def __init__(self, w, v):
        self.w, self.v = w, v
        self.ulps = 4**w.ndim
        self.mass = math.fsum(w.ravel())
        self.wv = math.fsum((w * v).ravel())
        self._wvp = {}

    def wvp(self, p) -> float:
        if p not in self._wvp:
            self._wvp[p] = math.fsum((self.w * self.v**p).ravel())
        return self._wvp[p]

    def stats(self, cube, betas=(), p=None) -> dict:
        return oracles.fsum_stats(self.w, self.v, *cube, betas, p)

    def rounding(self, s: dict, p=None) -> float:
        """Relative error bound of the box sums behind a cube with stats s."""
        terms = self.mass / s["mass"] + self.wv / s["wv"]
        if p is not None:
            terms += self.wvp(p) / s["wvp"]
        return self.ulps * EPS * terms

    def rounding_at(self, cube, p=None) -> float:
        return self.rounding(self.stats(cube, p=p), p)

    def worst_rounding(self) -> float:
        """The bound on the lightest cell, which no cube undercuts."""
        wv = self.w * self.v
        return self.ulps * EPS * (self.mass / self.w[self.w > 0].min() + self.wv / wv[wv > 0].min())


def _cube(obj) -> tuple:
    return tuple(obj["origin"]), obj["side"]


def _sample_cubes(shape, seed: int, count: int = SAMPLE_CUBES) -> list:
    """Seeded cubes of every side, uniform side then uniform origin."""
    rng = np.random.default_rng([seed, 7])
    out = []
    for _ in range(count):
        side = int(rng.integers(1, min(shape) + 1))
        out.append((tuple(int(rng.integers(0, n - side + 1)) for n in shape), side))
    return out


def _gr(ck, step, gr, d, family) -> None:
    ck.require(step, gr["cubes_scanned"] == family,
               f"cubes_scanned {gr['cubes_scanned']} != family size {family}")
    s = d.stats(_cube(gr["witness"]))
    ck.close(step, "epsilon at its witness", gr["epsilon"], s["ratio"], 3 * d.rounding(s))


def _alphas(ck, step, rows, d) -> None:
    for row in rows:
        s = d.stats(_cube(row["witness"]), [row["beta"]])
        ck.close(step, f"alpha*({row['beta']}) at its witness", row["alpha_star"], s["levels"][0], d.rounding(s))


def _bounds_on_sample(ck, step, payload, d, cubes) -> None:
    """osc/mean <= epsilon and level fraction >= alpha* on every sampled cube."""
    eps = payload["gr"]["epsilon"]
    rows = payload["alpha_profile"]
    betas = [r["beta"] for r in rows]
    for cube in cubes:
        s = d.stats(cube, betas)
        r = d.rounding(s)
        ck.require(step, s["ratio"] <= eps * (1 + RTOL) + 3 * r,
                   f"cube {cube}: osc/mean {s['ratio']!r} exceeds epsilon {eps!r}")
        for row, level in zip(rows, s["levels"]):
            ck.require(step, level >= row["alpha_star"] * (1 - RTOL) - r,
                       f"cube {cube}: level fraction {level!r} below alpha* {row['alpha_star']!r}")


def _rearrangement(ck, step, r, d) -> None:
    levels = np.asarray(r["levels"])
    bps = np.asarray(r["breakpoints"])
    ck.require(step, levels.size == bps.size and bool(np.all(np.diff(levels) < 0)),
               "rearrangement levels do not strictly decrease")
    total = d.mass
    ck.close(step, "last breakpoint", float(bps[-1]), total, rtol=REL_SUM)
    ck.close(step, "total_mass", r["total_mass"], total, rtol=REL_SUM)
    widths = np.diff(bps, prepend=0.0)
    ck.close(step, "sum level*width", math.fsum(levels * widths), d.wv, rtol=REL_SUM)


def _analyze(ck, step, rep, d, family, cubes=()) -> None:
    p = rep["payload"]
    _gr(ck, step, p["gr"], d, family)
    _alphas(ck, step, p["alpha_profile"], d)
    _bounds_on_sample(ck, step, p, d, cubes)
    _rearrangement(ck, step, p["rearrangement"], d)


def _fwd(ck, step, rep, d, family, cubes) -> None:
    """Forward theorem: level mass >= (1 - lambda/2) mu(Q) on every cube."""
    p = rep["payload"]
    r = p["report"]
    lam, eps = p["lambda"], p["epsilon"]
    alpha, beta = 1.0 - lam / 2.0, 1.0 - eps / lam
    ck.require(step, r["holds"] is True, "theorem1 fwd does not hold")
    ck.require(step, r["cubes_scanned"] == family, f"cubes_scanned {r['cubes_scanned']} != {family}")
    s = d.stats(_cube(r["witness"]), [beta])
    ck.close(step, "worst margin at its witness", r["worst_margin"],
             (s["levels"][0] - alpha) * s["mass"], s["mass"] * d.rounding(s))
    for cube in cubes:
        s = d.stats(cube, [beta])
        margin = (s["levels"][0] - alpha) * s["mass"]
        ck.require(step, margin >= max(r["worst_margin"], 0.0) - s["mass"] * (RTOL + d.rounding(s)),
                   f"cube {cube}: margin {margin!r} below 0 or the reported worst")


def _rev(ck, step, rep, d, family, alpha_star, epsilon) -> None:
    """Reverse theorem: osc <= 2(1 - alpha*beta) mean on every cube when alpha < alpha*."""
    p = rep["payload"]
    r = p["report"]
    alpha, beta = p["alpha"], p["beta"]
    bound = 2.0 * (1.0 - alpha * beta)
    ck.require(step, alpha < alpha_star, f"alpha {alpha!r} is not below alpha* {alpha_star!r}")
    ck.require(step, r["holds"] is True, "theorem1 rev does not hold")
    ck.require(step, r["cubes_scanned"] == family, f"cubes_scanned {r['cubes_scanned']} != {family}")
    ck.require(step, epsilon <= bound, f"epsilon {epsilon!r} exceeds the bound {bound!r}")
    s = d.stats(_cube(r["witness"]))
    ck.close(step, "worst margin at its witness", r["worst_margin"],
             (bound - s["ratio"]) * s["mean"], 5 * s["mean"] * d.rounding(s))
    ck.require(step, r["worst_margin"] >= -r["tolerance"] * s["mean"], "negative worst margin")


def _rh(ck, step, rep, d, cubes=(), oracle=None) -> None:
    """c_hat >= 1, at its witness and, given the oracle's (c_hat, cube), equal to it."""
    p = rep["payload"]
    c_hat, at = p["c_hat"], _cube(p["witness"])
    ck.require(step, c_hat >= 1.0, f"c_hat {c_hat!r} < 1")
    s = d.stats(at, p=p["p"])
    ck.close(step, "c_hat at its witness", c_hat, s["rh"], 0.0, RTOL + 2 * d.rounding(s, p["p"]))
    if oracle is not None:
        r = max(d.rounding(s, p["p"]), d.rounding_at(oracle[1], p["p"]))
        ck.close(step, "c_hat vs the block oracle", c_hat, oracle[0], 0.0, RTOL + 2 * r)
    for cube in cubes:
        s = d.stats(cube, p=p["p"])
        ck.require(step, s["rh"] <= c_hat * (1 + RTOL + 2 * d.rounding(s, p["p"])),
                   f"cube {cube}: ratio {s['rh']!r} above c_hat")


def _auto(ck, step, rep, epsilon, slack) -> None:
    """The measured epsilon is `epsilon`; p_star is the exponent bound at the closed-form lambda*."""
    a = rep["payload"]["auto"]
    ck.close(step, "measured epsilon", a["measured_epsilon"], epsilon, slack)
    lam = oracles.lambda_star(a["measured_epsilon"], DELTA)
    rho = (1.0 - lam / 2.0) * (1.0 - DELTA)
    ck.close(step, "p_star", a["p_star"],
             oracles.exponent_bound(a["measured_epsilon"], lam, rho, a["overlap"]), rtol=P_STAR_RTOL)
    ck.require(step, rep["payload"]["p"] == a["p_star"], "c_hat not measured at p_star")


def prepare(workload: str, seed: int, inputs: Path) -> tuple[dict, dict]:
    """(params for the command list, context for `check`)."""
    ctx = {"workload": workload, "seed": seed, "inputs": Path(inputs)}
    params: dict = {}
    if workload == "twod-dyadic":
        d = Data(*oracles.load_arrays(ctx["inputs"] / "random2d.json"))
        betas = [float(b) for b in np.linspace(0.05, 0.95, 3)]
        ctx.update(data=d, betas=betas, oracle=oracles.dyadic_family(d.w, d.v, betas, p=2.0))
        params["rev_beta"] = betas[1]
        params["rev_alpha"] = ctx["oracle"]["alphas"][1] / 2.0
    elif workload == "cover-2d":
        d = Data(*oracles.load_arrays(ctx["inputs"] / "cover2d.json"))
        ctx.update(data=d, oracle=oracles.dyadic_family(d.w, d.v))
        # theorem2 re-checks GR(epsilon) on its covering cubes, which need not
        # be dyadic: take epsilon over the dyadic family and over every cube
        # of side <= COVER_SIDE (where the largest ratios of this data sit),
        # rounded up by 1e-9 so the program's own sums stay inside GR(epsilon)
        eps = max(ctx["oracle"]["epsilon"], oracles.small_cube_epsilon(d.w, d.v, COVER_SIDE))
        params["epsilon"] = eps * (1 + 1e-9)
        params["total_mass"] = d.mass
    ctx["params"] = params
    return params, ctx


def check(ctx: dict, reports: dict) -> dict:
    """{step: [failed checks]} for the reports present (name -> parsed JSON)."""
    ck = Checker()
    workload, seed, folder = ctx["workload"], ctx["seed"], ctx["inputs"]
    steps = {s.name: s for s in workloads.steps(workload, str(folder), ctx["params"])}

    def family(name):
        return workloads.family_size(steps[name].shape, steps[name].mode)

    def have(name):
        return reports.get(name) is not None

    def load(name):
        return Data(*oracles.load_arrays(folder / name))

    if workload == "oned-all":
        d = load("random1d.json")
        cubes = _sample_cubes(d.w.shape, seed)
        if have("analyze-random"):
            ar = reports["analyze-random"]
            _analyze(ck, "analyze-random", ar, d, family("analyze-random"), cubes)
            gr = ar["payload"]["gr"]
            rows = ar["payload"]["alpha_profile"]
            for name in ("theorem1-fwd-1", "theorem1-fwd-2"):
                if have(name):
                    _fwd(ck, name, reports[name], d, family(name), cubes)
            if have("theorem1-rev"):
                row = rows[1]  # the beta the workload passes to theorem1 rev
                ck.require("theorem1-rev", reports["theorem1-rev"]["payload"]["beta"] == row["beta"],
                           "beta is not the analyze grid's")
                _rev(ck, "theorem1-rev", reports["theorem1-rev"], d, family("theorem1-rev"),
                     row["alpha_star"], gr["epsilon"])
            if have("rh-auto"):
                _auto(ck, "rh-auto", reports["rh-auto"], gr["epsilon"],
                      3 * d.rounding_at(_cube(gr["witness"])))
        if have("rh-p2"):
            _rh(ck, "rh-p2", reports["rh-p2"], d, cubes)
        if have("rh-auto"):
            _rh(ck, "rh-auto", reports["rh-auto"], d, cubes)
        if have("analyze-power"):
            pd = load("power1d.json")
            gr = reports["analyze-power"]["payload"]["gr"]
            _analyze(ck, "analyze-power", reports["analyze-power"], pd, family("analyze-power"),
                     _sample_cubes(pd.w.shape, seed))
            eps, at = oracles.monotone_epsilon(pd.w, pd.v)
            r = max(pd.rounding_at(_cube(gr["witness"])), pd.rounding_at(at))
            ck.close("analyze-power", "epsilon vs the monotone oracle", gr["epsilon"], eps, 3 * r)
        if have("analyze-atom"):
            aw, av = inputs_mod.atom_arrays()
            p = reports["analyze-atom"]["payload"]
            oracle = oracles.naive_all_family(aw, av, [r["beta"] for r in p["alpha_profile"]], exact=True)
            ck.close("analyze-atom", "epsilon vs the fsum oracle", p["gr"]["epsilon"], oracle["epsilon"])
            for row, alpha in zip(p["alpha_profile"], oracle["alphas"]):
                ck.close("analyze-atom", f"alpha*({row['beta']}) vs the fsum oracle", row["alpha_star"], alpha)

    elif workload == "twod-dyadic":
        d, oracle = ctx["data"], ctx["oracle"]
        if have("analyze"):
            p = reports["analyze"]["payload"]
            _analyze(ck, "analyze", reports["analyze"], d, family("analyze"))
            r = max(d.rounding_at(_cube(p["gr"]["witness"])), d.rounding_at(oracle["epsilon_at"]))
            ck.close("analyze", "epsilon vs the block oracle", p["gr"]["epsilon"], oracle["epsilon"], 3 * r)
            ck.require("analyze", [r["beta"] for r in p["alpha_profile"]] == ctx["betas"], "beta grid")
            for row, alpha, at in zip(p["alpha_profile"], oracle["alphas"], oracle["alphas_at"]):
                r = max(d.rounding_at(_cube(row["witness"])), d.rounding_at(at))
                ck.close("analyze", f"alpha*({row['beta']}) vs the block oracle", row["alpha_star"], alpha, r)
        if have("rh-p2"):
            _rh(ck, "rh-p2", reports["rh-p2"], d, oracle=(oracle["c_hat"], oracle["c_hat_at"]))
        if have("theorem1-rev"):
            _rev(ck, "theorem1-rev", reports["theorem1-rev"], d, family("theorem1-rev"),
                 oracle["alphas"][1], oracle["epsilon"])

    elif workload == "cover-2d":
        d, oracle = ctx["data"], ctx["oracle"]
        # neither report names the cube of its measured epsilon
        eps_slack = 3 * d.worst_rounding()
        if have("theorem2"):
            p = reports["theorem2"]["payload"]
            ck.require("theorem2", p["holds"] is True, "theorem2 does not hold")
            ck.close("theorem2", "measured epsilon vs the block oracle", p["measured_epsilon"],
                     oracle["epsilon"], eps_slack)
            cap = 1.0 - p["lambda"] / 2.0
            rows = p["per_t"]
            fstar, fss = oracles.star_values(d.w, d.v, [r["t"] for r in rows])
            for row, fs, fa in zip(rows, fstar, fss):
                t = row["t"]
                ck.require("theorem2", row["holds"] is True and not row["degenerate"], f"t={t} does not hold")
                ck.close("theorem2", f"fstar({t})", row["fstar"], fs)
                ck.close("theorem2", f"fstarstar({t})", row["fstarstar"], fa, rtol=REL_SUM)
                ck.require("theorem2", row["rho_hi"] is not None and row["rho_hi"] <= cap,
                           f"t={t}: rho_hi {row['rho_hi']!r} above 1 - lambda/2 = {cap!r}")
                ck.require("theorem2", fa <= row["k_achieved"] * fs * (1 + RTOL),
                           f"t={t}: fstarstar exceeds K_achieved * fstar")
            ck.require("theorem2", p["covering_constants"]["rho_hi"] <= cap, "covering rho_hi above the cap")
        if have("rh-auto-covering"):
            rep = reports["rh-auto-covering"]
            _auto(ck, "rh-auto-covering", rep, oracle["epsilon"], eps_slack)
            a, cov = rep["payload"]["auto"], rep["payload"]["covering"]
            ck.require("rh-auto-covering", cov["rho_hi"] <= 1.0 - a["lambda_star"] / 2.0,
                       "covering rho_hi above 1 - lambda*/2")
            ck.require("rh-auto-covering", a["overlap"] == cov["overlap"], "overlap not the covering's")
            at_p = oracles.dyadic_family(d.w, d.v, p=rep["payload"]["p"])
            _rh(ck, "rh-auto-covering", rep, d, oracle=(at_p["c_hat"], at_p["c_hat_at"]))

    elif workload == "sampled":
        count = inputs_mod.SAMPLE_COUNT
        pd = load("power1d.json")
        if have("analyze-power"):
            p = reports["analyze-power"]["payload"]
            _analyze(ck, "analyze-power", reports["analyze-power"], pd, count)
            all_eps, at = oracles.monotone_epsilon(pd.w, pd.v)
            ck.require("analyze-power", p["gr"]["epsilon"] <= all_eps * (1 + RTOL) + 3 * pd.rounding_at(at),
                       f"sampled epsilon {p['gr']['epsilon']!r} above the all-family {all_eps!r}")
        if have("theorem1-fwd"):
            _fwd(ck, "theorem1-fwd", reports["theorem1-fwd"], pd, count, ())
        if have("analyze-random2d"):
            _analyze(ck, "analyze-random2d", reports["analyze-random2d"], load("random2d.json"), count)
        for name, file in (("analyze-small2d", "small2d.json"), ("analyze-small3d", "small3d.json")):
            if have(name):
                d = load(file)
                p = reports[name]["payload"]
                _analyze(ck, name, reports[name], d, family(name))
                oracle = oracles.naive_all_family(d.w, d.v, [r["beta"] for r in p["alpha_profile"]])
                r = max(d.rounding_at(_cube(p["gr"]["witness"])), d.rounding_at(oracle["epsilon_at"]))
                ck.close(name, "epsilon vs the per-cube loop", p["gr"]["epsilon"], oracle["epsilon"], 3 * r)
                for row, alpha, at in zip(p["alpha_profile"], oracle["alphas"], oracle["alphas_at"]):
                    r = max(d.rounding_at(_cube(row["witness"])), d.rounding_at(at))
                    ck.close(name, f"alpha*({row['beta']}) vs the per-cube loop", row["alpha_star"], alpha, r)
    return dict(ck.failures)
