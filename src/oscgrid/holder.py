"""Rearrangement-average bounds, reverse Holder exponents, and empirical RH constants.

For data in GR(epsilon) and parameters epsilon < lambda < 2,
0 < rho < 1 - lambda/2, the running average of the rearrangement is
controlled at every t <= rho * mu(Q_0) by

    fstarstar(t) <= K * fstar(t),
    K = B * (lambda/rho + 1) * epsilon / (lambda - epsilon) + 1,

where B is the overlap constant and rho the per-cube density floor of a
covering of E_t = {f > fstar(t)} with density cap 1 - lambda/2.  The
verification here is honest about discreteness: it builds the covering,
measures the achieved (rho_lo, overlap), and asserts the bound with the
achieved constant K_achieved; the nominal-rho constant is reported for
comparison only.  Two per-cube facts make the chain work and are checked
with margins:

    mean(Q_i) <= lambda/(lambda - epsilon) * fstar(t)        (mean margin)
    osc(Q_i)  <= epsilon*lambda/(lambda - epsilon) * fstar(t) (osc margin)

both requiring osc(Q_i) <= epsilon * mean(Q_i) on each covering cube, which
is re-checked cube by cube.

By a classical argument the average bound yields the reverse Holder
inequality for every exponent

    p < 1 + (lambda - epsilon) / (B * (lambda/rho + 1) * epsilon),

which is what rh_exponent_bound returns; the identity
(p_max - 1) * (K - 1) = 1 ties the two constants together.
optimize_rh_exponent maximizes the exponent over lambda in closed form,
with rho(lambda) = (1 - lambda/2)(1 - delta) pinned a safety gap below its
open constraint.  rh_constant measures the best empirical RH constant

    c_hat = max_Q (p-mean of f over Q) / (mean of f over Q)

over the enumerated family only; it certifies nothing beyond that family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ainfty import DEFAULT_TOL, _check_open_interval
from .covering import CoveringResult, build_covering, check_square
from .errors import DomainError, PreconditionError
from .grids import Cube, EnumerationMode, PrefixTable, Report, WeightedGrid, box_sums, default_mode
from .oscillation import _cube_moments, gr_epsilon, require_gr
from .rearrangement import StepFunction, average, evaluate, rearrangement
from . import scan

__all__ = [
    "TailBoundParams",
    "TailCheck",
    "TailBoundReport",
    "rearrangement_bound",
    "rh_exponent_bound",
    "optimize_rh_exponent",
    "tail_covering",
    "verify_rearrangement_bound",
    "rh_constant",
]

DEFAULT_DELTA = 1e-6  # optimize_rh_exponent's gap below the open constraint on rho


def _check_bound_params(epsilon: float, lam: float, rho: float, overlap: float):
    _check_open_interval(epsilon, lam)
    if not (0 < rho < 1 - lam / 2):
        raise DomainError(f"need 0 < rho < 1 - lambda/2, got rho={rho} lambda={lam}")
    if not overlap >= 1:
        raise DomainError(f"overlap constant must be >= 1, got {overlap}")


def _k_formula(epsilon: float, lam: float, rho: float, overlap: float) -> float:
    return overlap * (lam / rho + 1.0) * epsilon / (lam - epsilon) + 1.0


def rearrangement_bound(epsilon: float, lam: float, rho: float, overlap: float = 1.0) -> float:
    """K with fstarstar <= K * fstar: B*(lambda/rho + 1)*eps/(lambda - eps) + 1."""
    _check_bound_params(epsilon, lam, rho, overlap)
    return _k_formula(epsilon, lam, rho, overlap)


def rh_exponent_bound(epsilon: float, lam: float, rho: float, overlap: float = 1.0) -> float:
    """Supremum exponent 1 + (lambda - eps)/(B*(lambda/rho + 1)*eps) of the implied RH range."""
    _check_bound_params(epsilon, lam, rho, overlap)
    return 1.0 + (lam - epsilon) / (overlap * (lam / rho + 1.0) * epsilon)


def optimize_rh_exponent(
    epsilon: float, overlap: float = 1.0, delta: float = DEFAULT_DELTA
) -> tuple[float, float, float]:
    """Maximize the exponent bound over lambda in (epsilon, 2).

    rho is tied to lambda as (1 - lambda/2)*c with c = 1 - delta, a safety
    gap below the open constraint.  Then p - 1 is proportional to
    (lambda - eps)(2 - lambda)/((2 - c)*lambda + 2c), whatever the overlap,
    and its one critical point in (eps, 2) is the positive root of
    (2 - c)*lambda^2 + 4c*lambda - 4(c + eps) = 0.  lambda_star is kept at
    least max(1e-12*(2 - eps), 1e-15) inside the open interval.
    Returns (lambda_star, rho_star, p_star).
    """
    if not (0 < epsilon < 2):
        raise DomainError(f"need 0 < epsilon < 2, got {epsilon}")
    c = 1.0 - delta
    if not (0 < c < 1):  # not delta > 0: a delta below float resolution leaves c = 1
        raise DomainError(f"need 0 < delta < 1, got {delta} (and 1 - delta must round below 1)")
    lam_star = 2.0 * (math.sqrt(c * c + (2.0 - c) * (c + epsilon)) - c) / (2.0 - c)
    gap = max(1e-12 * (2.0 - epsilon), 1e-15)
    lam_star = min(max(lam_star, epsilon + gap), 2.0 - gap)
    rho_star = (1.0 - lam_star / 2.0) * c
    return lam_star, rho_star, rh_exponent_bound(epsilon, lam_star, rho_star, overlap)


@dataclass(frozen=True)
class TailBoundParams:
    """Admissible parameter set: eps < lambda < 2, 0 < rho < 1 - lambda/2,
    every t in (0, rho * mu(Q_0)] (the mass bound is checked against the data)."""

    epsilon: float
    lam: float
    rho: float
    t_values: tuple[float, ...]

    def __post_init__(self):
        _check_bound_params(self.epsilon, self.lam, self.rho, 1.0)
        ts = tuple(float(t) for t in self.t_values)
        if not ts or any(not (t > 0) for t in ts):
            raise DomainError("t values must be positive")
        object.__setattr__(self, "t_values", ts)


@dataclass(frozen=True)
class TailCheck(Report):
    """One t: rearrangement values, nominal and achieved constants, worst
    per-cube margins of the two covering-cube inequalities, and the verdict."""

    t: float
    fstar: float
    fstarstar: float
    k_nominal: float
    k_achieved: float
    mean_margin: float | None
    osc_margin: float | None
    rho_lo: float | None
    rho_hi: float | None
    overlap: int
    n_cubes: int
    holds: bool
    degenerate: bool


@dataclass(frozen=True)
class TailBoundReport(Report):
    epsilon: float
    lam: float
    rho: float
    measured_epsilon: float
    mode: EnumerationMode
    checks: tuple[TailCheck, ...]
    holds: bool

    def to_json(self) -> dict:
        out = super().to_json()
        out["lambda"], out["per_t"] = out.pop("lam"), out.pop("checks")
        worst = [c for c in self.checks if c.rho_lo is not None]
        out["covering_constants"] = {
            "rho_lo": min((c.rho_lo for c in worst), default=None),
            "rho_hi": max((c.rho_hi for c in worst), default=None),
            "overlap": max((c.overlap for c in self.checks), default=1),
        }
        return out


def tail_covering(
    wg: WeightedGrid, sf: StepFunction, t: float, lam: float, rho: float
) -> tuple[float, CoveringResult]:
    """fstar(t) and the covering of E_t = {value > fstar(t)} with density cap
    1 - lambda/2, empty when fstar(t) is 0.  E_t is strict, matching the
    right-continuous rearrangement, so mu(E_t) <= t holds with atoms."""
    fstar = float(evaluate(sf, t))
    if fstar == 0.0:
        return 0.0, CoveringResult((), None, None, 1, True)
    return fstar, build_covering(wg, wg.values > fstar, rho=rho, rho_cap=1 - lam / 2)


def verify_rearrangement_bound(
    wg: WeightedGrid,
    params: TailBoundParams,
    mode: EnumerationMode | None = None,
    tol: float = DEFAULT_TOL,
) -> TailBoundReport:
    """Run the full average-vs-rearrangement verification at each t.

    Per t: cover E_t (see tail_covering), re-check the oscillation
    inequality on every covering cube, record the worst of the two per-cube
    margins, and assert fstarstar(t) <= K_achieved * fstar(t).  A zero
    fstar(t) has the empty covering and is recorded as degenerate; it holds
    exactly when fstarstar(t) is 0.  The mean and oscillation of a cube that
    recurs in the coverings of several t are computed once.  The grid shape
    and the t range are checked before the epsilon scan.
    """
    check_square(wg.grid)
    total = wg.total_mass
    for t in params.t_values:
        if t > params.rho * total * (1 + 1e-12):
            raise DomainError(f"t={t} exceeds rho * mu(Q_0) = {params.rho * total}")
    mode = mode or default_mode(wg.grid)
    measured = require_gr(gr_epsilon(wg, mode), params.epsilon)

    sf = rearrangement(wg)
    eps, lam, rho = params.epsilon, params.lam, params.rho
    checks = []
    cube_stats: dict[Cube, tuple[float, float]] = {}  # (mean, osc); cubes recur across t
    for t in params.t_values:
        fstar, cover = tail_covering(wg, sf, t, lam, rho)
        fss = float(average(sf, t))
        for cube in cover.cubes:
            if cube not in cube_stats:
                cube_stats[cube] = _cube_moments(wg, cube)[3:]
        stats = [cube_stats[cube] for cube in cover.cubes]
        failed = [i for i, (m, osc) in enumerate(stats) if osc > eps * m * (1 + 1e-12)]
        if failed:
            ratios = [osc / m for m, osc in stats]
            raise PreconditionError(
                f"input not in GR({eps}) on covering cube {cover.cubes[failed[0]]}: "
                f"osc/mean = {ratios[failed[0]]}; the largest over the {len(stats)} "
                f"covering cubes at t={t} is {max(ratios)}"
                + ("" if mode.tag == "all" else f"; epsilon was measured over the "
                   f"{mode.label()} family, which does not contain the covering cubes"),
                witness=cover.cubes[failed[0]],
            )
        # c - max(x) is the least margin c - x, as rounding is monotone
        top = [max(column) for column in zip(*stats)]  # (mean, osc); [] if no cube
        rho_eff = cover.rho_lo if cover.rho_lo is not None and cover.rho_lo > 0 else rho
        k_achieved = _k_formula(eps, lam, rho_eff, cover.overlap)
        checks.append(
            TailCheck(
                t=t, fstar=fstar, fstarstar=fss,
                k_nominal=_k_formula(eps, lam, rho, cover.overlap), k_achieved=k_achieved,
                mean_margin=lam / (lam - eps) * fstar - top[0] if top else None,
                osc_margin=eps * lam / (lam - eps) * fstar - top[1] if top else None,
                rho_lo=cover.rho_lo, rho_hi=cover.rho_hi,
                overlap=cover.overlap, n_cubes=len(cover.cubes),
                holds=bool(k_achieved * fstar - fss >= -tol * fstar),
                degenerate=fstar == 0.0,
            )
        )
    return TailBoundReport(
        epsilon=eps, lam=lam, rho=rho,
        measured_epsilon=measured.epsilon, mode=mode,
        checks=tuple(checks), holds=all(c.holds for c in checks),
    )


def rh_constant(
    wg: WeightedGrid, p: float, mode: EnumerationMode | None = None
) -> tuple[float, Cube]:
    """Empirical reverse Holder constant over the enumerated family.

    c_hat = max over positive-mass, positive-mean cubes of
    (Sum w*v^p / mu(Q))^(1/p) / mean(Q); always >= 1 by the power-mean
    inequality, with equality exactly for constant data.
    """
    if not 1 < p < math.inf:
        raise DomainError(f"exponent must be finite and satisfy p > 1, got {p}")
    mode = mode or default_mode(wg.grid)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow shows up as a non-finite c_hat
        wvp = np.where(wg.weights > 0, wg.weights * wg.values**p, 0.0)  # no mass, no 0 * inf
    wvp_prefix = PrefixTable(wvp)
    inv_p = 1.0 / p

    def ratio(s: scan.CubeStats) -> np.ndarray:  # a ratio past float64 is refused below
        psum = box_sums(wvp_prefix, s.origins, s.sides)
        return (psum / s.mass) ** inv_p / s.mean

    (best,) = scan.reduce_family(wg, mode, (scan.Reduction(ratio, maximize=True),))
    if not math.isfinite(best.value):
        raise DomainError(
            f"c_hat is not finite at p={p}: Sum w*v^p or the ratio overflows on cube {best.witness}"
        )
    lost = np.argwhere((wvp < np.finfo(np.float64).tiny) & (wg.weights > 0) & (wg.values > 0))
    if lost.size:
        cell = tuple(lost[0].tolist())
        raise DomainError(f"c_hat is not measurable at p={p}: w*v^p underflows on cell {cell}")
    return best.value, best.witness
