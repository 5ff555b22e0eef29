"""Properties of the measured constants that the paper fixes, on generated grids.

Family inclusion: the dyadic and sampled families are subsets of `all`,
and a sub-family cannot raise a sup or lower an inf, so epsilon over a
subset is at most epsilon over `all` and each alpha*(beta) is at least
alpha* over `all`.  A cube's value does not depend on the batch it comes
in, so the same cube gives the same bits in every family and the
comparison is exact.

Power-of-two scaling: multiplying w by 2^k and v by 2^j changes no bit of
a float ratio or comparison on these grids (no subnormal or overflowing
value appears), so epsilon and every alpha* are bit-identical.

Flips and transposes: flipping an axis or reversing the axes maps each
family onto itself, so epsilon and every alpha* are invariant; the prefix
tables then sum in another order, so they move by rounding only, within a
stated relative radius.

Theorem 1 holds cube by cube, in both directions, and c_hat >= 1 by the
power-mean inequality: theorem1 fwd holds at the measured epsilon for any
lambda in (epsilon, 2), theorem1 rev below the measured alpha*(beta), and
these hold under every family.  Through the CLI, the same properties hold
on grid files, and a 1D grid's JSON and CSV files give the same payloads.
Theorem 2 holds at the measured epsilon, and rh --auto's exponent p* gives
c_hat >= 1.

Grids are 1D, 2D and 3D with power-of-two sides, log-normal weights
(sigma 2) and values (sigma 1); every fourth seed puts a 1e10 atom on one
cell.  The theorem properties scale one cell's weight by 10^k instead, k
up to 12 in 1D, 10 in 2D and 7 in 3D: heavier atoms break them today,
and two such grids are kept as expected failures.
"""

import contextlib
import io
import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscgrid import (
    DomainError,
    EnumerationMode,
    Grid,
    LevelParams,
    TailBoundParams,
    WeightedGrid,
    epsilon_and_profile,
    gr_epsilon,
    optimize_rh_exponent,
    oscillation,
    rearrangement,
    rh_constant,
    rh_exponent_bound,
    verify_ainfty_to_gr,
    verify_gr_to_ainfty,
    verify_rearrangement_bound,
)
from oscgrid.cli import main
from oscgrid.holder import tail_covering
from oscgrid.wgrid_io import save_wgrid

BETAS = (0.25, 0.5, 0.75)
# power-of-two sides per dimension, up to 64, 16^2 and 8^3 cells
_SIDES = {1: (16, 32, 64), 2: (4, 8, 16), 3: (2, 4, 8)}


def _seeded(shape, seed):
    rng = np.random.default_rng(seed)
    return rng, np.exp(2.0 * rng.standard_normal(shape)), np.exp(rng.standard_normal(shape))


def _shape_and_seed(draw):
    dim = draw(st.integers(1, 3))
    return (draw(st.sampled_from(_SIDES[dim])),) * dim, draw(st.integers(0, 2**16))


@st.composite
def _grids(draw):
    shape, seed = _shape_and_seed(draw)
    rng, w, v = _seeded(shape, seed)
    if seed % 4 == 0:
        w.flat[int(rng.integers(0, w.size))] *= 1e10
    return seed, w, v


def _with_atom(shape, seed, exponent):
    rng, w, v = _seeded(shape, seed)
    w.flat[int(rng.integers(0, w.size))] *= 10.0**exponent
    return WeightedGrid(Grid(shape), w, v)


# per dimension, the heaviest atom (a power of ten) under which the theorem
# properties held on every one of 20,160 seeded cases; past it a light
# cube's prefix-table sums lose their digits next to the atom
_ATOM_EXPONENT = {1: 12, 2: 10, 3: 7}


@st.composite
def _atom_grids(draw):
    shape, seed = _shape_and_seed(draw)
    return seed, _with_atom(shape, seed, draw(st.integers(0, _ATOM_EXPONENT[len(shape)])))


def _measure(shape, w, v, mode):
    gr, alphas = epsilon_and_profile(WeightedGrid(Grid(shape), w, v), BETAS, mode)
    return gr.epsilon, [alpha for alpha, _ in alphas]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_grids())
def test_subfamilies_neither_raise_epsilon_nor_lower_alpha_star(grid):
    seed, w, v = grid
    eps_all, alphas_all = _measure(w.shape, w, v, EnumerationMode("all"))
    for mode in (EnumerationMode("dyadic"), EnumerationMode.sample(200, seed)):
        eps, alphas = _measure(w.shape, w, v, mode)
        assert eps <= eps_all, mode.label()
        for beta, alpha, alpha_all in zip(BETAS, alphas, alphas_all):
            assert alpha_all <= alpha, (mode.label(), beta)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_grids())
def test_power_of_two_scaling_keeps_every_bit(grid):
    _, w, v = grid
    for mode in (EnumerationMode("all"), EnumerationMode("dyadic")):
        base = _measure(w.shape, w, v, mode)
        for k, j in ((3, -2), (-5, 7)):
            assert _measure(w.shape, w * 2.0**k, v * 2.0**j, mode) == base, (mode.label(), k, j)


def _flips_and_transpose(a):
    return [np.flip(a, axis) for axis in range(a.ndim)] + [a.T]


@pytest.mark.parametrize("exponent, radius", [(0, 1e-11), (6, 1e-7)])
def test_flips_and_transposes_move_epsilon_and_alpha_star_by_rounding_only(exponent, radius):
    # largest relative moves seen: 2.6e-13 without an atom, 1.8e-9 with 1e6
    for dim, sides in _SIDES.items():
        for side, seed in itertools.product(sides, range(8)):
            wg = _with_atom((side,) * dim, seed, exponent)
            for mode in (EnumerationMode("all"), EnumerationMode("dyadic")):
                eps, alphas = _measure(wg.grid.shape, wg.weights, wg.values, mode)
                turned = zip(_flips_and_transpose(wg.weights), _flips_and_transpose(wg.values))
                for i, (w, v) in enumerate(turned):
                    eps_t, alphas_t = _measure(w.shape, w, v, mode)
                    for a, b in zip([eps, *alphas], [eps_t, *alphas_t]):
                        assert abs(a - b) <= radius * max(a, b), (side, dim, seed, mode.label(), i)


def _check_theorem_properties(wg, mode):
    gr, alphas = epsilon_and_profile(wg, BETAS, mode)
    for k in (1, 2):
        lam = gr.epsilon + k * (2 - gr.epsilon) / 3
        assert verify_gr_to_ainfty(wg, gr.epsilon, lam, mode).holds, (mode.label(), k)
    for beta, (alpha_star, _) in zip(BETAS, alphas):
        params = LevelParams(alpha=alpha_star / 2, beta=beta)
        assert verify_ainfty_to_gr(wg, params, mode).holds, (mode.label(), beta)
    for p in (1.5, 2.0):
        assert rh_constant(wg, p, mode)[0] >= 1, (mode.label(), p)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(_atom_grids())
def test_theorem1_holds_at_the_measured_constants_and_c_hat_is_at_least_one(grid):
    seed, wg = grid
    modes = (EnumerationMode("all"), EnumerationMode("dyadic"), EnumerationMode.sample(200, seed))
    for mode in modes:
        _check_theorem_properties(wg, mode)


@pytest.mark.xfail(strict=True, raises=(AssertionError, DomainError),
                   reason="a light cube's prefix-table sums lose their digits next to the atom")
@pytest.mark.parametrize("shape, seed, exponent", [
    ((2, 2, 2), 11, 8),  # fwd: epsilon 8.6e-7 on a single cell, whose exact osc is 0
    ((16, 16), 5, 12),  # rev: alpha*(0.75) reads 0 on a single cell, exactly 1
])
def test_theorem1_fails_next_to_heavier_atoms(shape, seed, exponent):
    _check_theorem_properties(_with_atom(shape, seed, exponent), EnumerationMode("all"))


@pytest.mark.parametrize("shape", [(32,), (64,), (8, 8), (16, 16), (4, 4, 4)])
def test_theorem2_and_rh_auto_hold_at_the_measured_epsilon(shape):
    """theorem2 at the measured epsilon, with lambda halfway from epsilon to
    2 and rho half its bound 1 - lambda/2, holds at every t with
    k_achieved >= 1; within the atom caps above, rh --auto's p* exceeds 1
    and c_hat at p* is at least 1.  So does rh --auto --B-from-covering's
    exponent, at the overlap B of the covering at t = rho* mu(Q_0), which
    lies in GR(epsilon) cube by cube."""
    mode = EnumerationMode("all")
    for exponent, seed in itertools.product((0, 6, 9, 12, 14, 16), range(6)):
        wg = _with_atom(shape, seed, exponent)
        eps = gr_epsilon(wg, mode).epsilon
        lam = eps + (2 - eps) / 2
        rho = (1 - lam / 2) / 2
        ts = tuple(f * rho * wg.total_mass for f in (0.01, 0.1, 0.5, 1))
        report = verify_rearrangement_bound(wg, TailBoundParams(eps, lam, rho, ts), mode)
        assert report.holds, (exponent, seed)
        assert all(check.k_achieved >= 1 for check in report.checks), (exponent, seed)
        if exponent <= _ATOM_EXPONENT[len(shape)]:
            lam_star, rho_star, p_star = optimize_rh_exponent(eps)
            assert p_star > 1, (exponent, seed)
            assert rh_constant(wg, p_star, mode)[0] >= 1, (exponent, seed)
            _, cover = tail_covering(wg, rearrangement(wg), rho_star * wg.total_mass,
                                     lam_star, rho_star)
            p = rh_exponent_bound(eps, lam_star, rho_star, cover.overlap)
            assert cover.overlap >= 1 and 1 < p <= p_star, (exponent, seed)
            assert rh_constant(wg, p, mode)[0] >= 1, (exponent, seed)
            for cube in cover.cubes:
                stats = oscillation(wg, cube)
                assert stats.osc / stats.mean <= eps * (1 + 1e-12), (exponent, seed, cube)


def _cli(*argv):
    """(exit code, stdout) of one in-process run of the command line."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main([str(arg) for arg in argv])
    return code, out.getvalue()


def _theorem_properties_through_the_cli(path):
    """Assert the theorem-1 properties and c_hat >= 1 on the grid file at
    `path` through the command line; return the stdout of every command."""
    code, report = _cli("analyze", path)
    assert code == 0
    payload, outs = json.loads(report)["payload"], [report]
    eps = payload["gr"]["epsilon"]
    for k in (1, 2):
        code, out = _cli("theorem1", path, "--epsilon", repr(eps),
                         "--lambda", repr(eps + k * (2 - eps) / 3))
        assert code == 0, (path, k)
        outs.append(out)
    for row in payload["alpha_profile"][4::5]:  # beta 0.25, 0.5 and 0.75
        code, out = _cli("theorem1", path, "--direction", "rev",
                         "--alpha", repr(row["alpha_star"] / 2), "--beta", repr(row["beta"]))
        assert code == 0, (path, row["beta"])
        outs.append(out)
    code, out = _cli("rh", path, "--p", "2")
    assert code == 0 and json.loads(out)["payload"]["c_hat"] >= 1, path
    return outs + [out]


@pytest.mark.parametrize("shape, seed, exponent", [
    ((32,), 3, 12), ((8, 8), 4, 10), ((4, 4, 4), 5, 7)])
def test_theorem1_holds_through_the_cli_on_json_and_csv_files(tmp_path, shape, seed, exponent):
    wg = _with_atom(shape, seed, exponent)
    save_wgrid(wg, tmp_path / "grid.json")
    outs = _theorem_properties_through_the_cli(tmp_path / "grid.json")
    if len(shape) == 1:
        rows = enumerate(zip(wg.weights.tolist(), wg.values.tolist()))
        (tmp_path / "grid.csv").write_text(
            "index,weight,value\n" + "".join(f"{i},{w!r},{v!r}\n" for i, (w, v) in rows))
        from_csv = _theorem_properties_through_the_cli(tmp_path / "grid.csv")
        # byte-identical payloads: only the digest of the input file differs
        json_digest, csv_digest = (json.loads(o[0])["input_digest"] for o in (outs, from_csv))
        assert json_digest != csv_digest
        assert [out.replace(csv_digest, json_digest) for out in from_csv] == outs
