"""Muckenhoupt A-infinity level-set certificates and both implication directions.

A pair (alpha, beta) in (0,1)^2 certifies the A-infinity condition when

    mu{ x in Q : f(x) > beta * mean(Q) } > alpha * mu(Q)   for every cube Q.

The inequality is kept strict exactly as defined; ties count as failures,
so certificates stay valid under perturbation.  Cubes with mean 0 are
skipped: there f = 0 mu-a.e., no alpha > 0 can certify them, yet they
satisfy the oscillation condition vacuously; skipping keeps the two class
memberships consistent on finite data.  Every report records how many
cubes were skipped.

The two directions of the equivalence with the Gurov-Reshetnyak condition
come with explicit constants:

* from gr_epsilon eps, for any eps < lambda < 2, the pair
  (alpha, beta) = (1 - lambda/2, 1 - eps/lambda) works, with the level-set
  bound holding in the non-strict form >= (1 - lambda/2) * mu(Q);
* from a strict (alpha, beta) certificate, osc(Q) <= 2(1 - alpha*beta) * mean(Q)
  on every cube, i.e. the data lies in GR(2(1 - alpha*beta)).

Composing the two yields roundtrip_epsilon, which strictly dominates the
starting eps: the equivalence costs a constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PreconditionError
from .grids import Cube, EnumerationMode, Report, WeightedGrid
from .oscillation import GR_RATIO, GRResult, _cube_moments, gr_result, require_gr
from . import scan

__all__ = [
    "LevelParams",
    "MarginReport",
    "level_fraction",
    "alpha_profile",
    "epsilon_and_profile",
    "gr_to_ainfty_params",
    "ainfty_to_gr_bound",
    "roundtrip_epsilon",
    "verify_gr_to_ainfty",
    "verify_ainfty_to_gr",
]

DEFAULT_TOL = 1e-12


@dataclass(frozen=True)
class LevelParams(Report):
    alpha: float
    beta: float

    def __post_init__(self):
        if not (0 < self.alpha < 1 and 0 < self.beta < 1):
            raise DomainError(f"alpha and beta must lie in (0,1), got ({self.alpha}, {self.beta})")


@dataclass(frozen=True)
class MarginReport(Report):
    """Worst-case margin of an inequality over a scanned family.

    worst_margin is the raw minimum of LHS - RHS; holds is true when every
    per-cube margin clears -tol times its natural scale (the cube mass for
    measure inequalities, the cube mean for oscillation inequalities).
    """

    worst_margin: float
    witness: Cube
    mode: EnumerationMode
    holds: bool
    cubes_scanned: int
    skipped_zero_mean: int
    tolerance: float


def level_fraction(wg: WeightedGrid, cube: Cube, beta: float) -> float:
    """mu{cells in Q with value > beta*mean(Q)} / mu(Q), strict inequality."""
    _check_beta(beta)
    w, v, mass, m, _ = _cube_moments(wg, cube)
    return math.fsum(w[v > beta * m]) / mass


def _check_open_interval(epsilon: float, lam: float):
    if not (0 < epsilon < lam < 2):
        raise DomainError(f"need 0 < epsilon < lambda < 2, got epsilon={epsilon} lambda={lam}")


def gr_to_ainfty_params(epsilon: float, lam: float) -> LevelParams:
    """Certificate guaranteed by GR(epsilon): alpha = 1 - lambda/2, beta = 1 - epsilon/lambda.

    The guarantee is the non-strict bound >= alpha * mu(Q); any alpha
    strictly below 1 - lambda/2 is then a strict certificate.  An alpha or
    beta that rounds to 1 is refused, naming epsilon and lambda.
    """
    _check_open_interval(epsilon, lam)
    try:
        return LevelParams(alpha=1.0 - lam / 2.0, beta=1.0 - epsilon / lam)
    except DomainError as err:
        raise DomainError(f"no certificate from epsilon={epsilon} lambda={lam}, as "
                          f"(1 - lambda/2, 1 - epsilon/lambda): {err}") from None


def ainfty_to_gr_bound(params: LevelParams) -> float:
    """GR parameter guaranteed by a strict (alpha, beta) certificate."""
    return 2.0 * (1.0 - params.alpha * params.beta)


def roundtrip_epsilon(epsilon: float, lam: float) -> float:
    """GR parameter after composing both directions; equals lambda + 2*eps/lambda - eps
    and strictly exceeds eps everywhere in the admissible range."""
    return ainfty_to_gr_bound(gr_to_ainfty_params(epsilon, lam))


def alpha_profile(wg: WeightedGrid, beta: float, mode: EnumerationMode) -> tuple[float, Cube]:
    """Largest certifiable level fraction at this beta.

    Returns (alpha_star, witness) where alpha_star is the minimum of
    level_fraction over positive-mass, positive-mean cubes; (alpha, beta)
    is a valid strict certificate for every alpha < alpha_star.
    """
    (res,) = scan.reduce_family(wg, mode, (_alpha_star(beta),))
    return res.value, res.witness


def epsilon_and_profile(
    wg: WeightedGrid, betas, mode: EnumerationMode
) -> tuple[GRResult, list[tuple[float, Cube]]]:
    """gr_epsilon and alpha_profile at every beta, from one walk over the family."""
    reds = tuple(_alpha_star(float(beta)) for beta in betas)
    gr, *alphas = scan.reduce_family(wg, mode, (GR_RATIO, *reds))
    return gr_result(gr, mode), [(res.value, res.witness) for res in alphas]


def _check_beta(beta: float) -> None:
    if not (0 < beta < 1):
        raise DomainError(f"beta must lie in (0,1), got {beta}")


def _alpha_star(beta: float) -> scan.Reduction:
    _check_beta(beta)
    return scan.Reduction(_level_fraction, maximize=False, level=beta)


def _level_fraction(s: scan.CubeStats) -> np.ndarray:
    return s.lvl / s.mass


def _margins(value, scale, tol: float, **sums) -> tuple[scan.Reduction, scan.Reduction]:
    """The least margin, and the least margin + tol*scale: the margin clears
    -tol*scale on every cube exactly when the second is >= 0, since a float
    sum has the sign of the exact sum."""
    return (scan.Reduction(value, maximize=False, **sums),
            scan.Reduction(lambda s: value(s) + tol * scale(s), maximize=False, **sums))


def _margin_report(res, slack, mode: EnumerationMode, tol: float) -> MarginReport:
    return MarginReport(
        worst_margin=res.value,
        witness=res.witness,
        mode=mode,
        holds=slack.value >= 0,
        cubes_scanned=res.cubes,
        skipped_zero_mean=res.skipped_zero_mean,
        tolerance=tol,
    )


def verify_gr_to_ainfty(
    wg: WeightedGrid,
    epsilon: float,
    lam: float,
    mode: EnumerationMode,
    tol: float = DEFAULT_TOL,
) -> MarginReport:
    """Check mu{f > (1 - eps/lambda) mean} >= (1 - lambda/2) mu(Q) on every cube.

    Measures gr_epsilon in the same walk and refuses data outside
    GR(epsilon).  The margin per cube is level-set mass minus
    (1 - lambda/2) mu(Q); given the precondition it is nonnegative up to
    rounding, and holds applies the -tol*mu(Q) noise floor per cube.
    """
    params = gr_to_ainfty_params(epsilon, lam)
    margins = _margins(lambda s: s.lvl - params.alpha * s.mass, lambda s: s.mass, tol,
                       level=params.beta)
    gr, *res = scan.reduce_family(wg, mode, (GR_RATIO, *margins))
    require_gr(gr_result(gr, mode), epsilon)
    return _margin_report(*res, mode, tol)


def verify_ainfty_to_gr(
    wg: WeightedGrid,
    params: LevelParams,
    mode: EnumerationMode,
    tol: float = DEFAULT_TOL,
) -> MarginReport:
    """Check osc(Q) <= 2(1 - alpha*beta) mean(Q) on every cube.

    The same walk measures alpha*(beta), the least level fraction over the
    positive-mean cubes: the strict level-set condition with (alpha, beta)
    holds exactly when alpha < alpha*(beta).  Otherwise the input is
    refused, naming alpha*(beta) and its witness, the first cube in
    canonical order of least level fraction.
    """
    bound = ainfty_to_gr_bound(params)

    def margin(s: scan.CubeStats) -> np.ndarray:
        return bound * s.mean - s.osc / s.mass

    reds = (_alpha_star(params.beta), *_margins(margin, lambda s: s.mean, tol, osc=True))
    star, *res = scan.reduce_family(wg, mode, reds)
    if star.value <= params.alpha:
        raise PreconditionError(
            f"input not in A_inf(alpha={params.alpha}, beta={params.beta}): "
            f"alpha*(beta) = {star.value} <= alpha, on cube {star.witness}",
            witness=star.witness,
        )
    return _margin_report(*res, mode, tol)
