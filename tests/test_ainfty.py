import numpy as np
import pytest

from oscgrid import (
    Cube,
    DomainError,
    EnumerationMode,
    Grid,
    LevelParams,
    PreconditionError,
    WeightedGrid,
    ainfty_to_gr_bound,
    alpha_profile,
    gr_epsilon,
    gr_to_ainfty_params,
    rh_constant,
    level_fraction,
    roundtrip_epsilon,
    verify_ainfty_to_gr,
    verify_gr_to_ainfty,
)

from oscgrid import grids, scan
from conftest import random_float_grid, random_integer_grid
from reference import (
    naive_alpha_profile,
    naive_cubes,
    naive_gr_epsilon,
    naive_rh_constant,
    naive_verify_ainfty_to_gr,
    naive_verify_gr_to_ainfty,
)

ALL = EnumerationMode("all")


def spike4(height=1.0):
    return WeightedGrid(Grid((4,)), np.ones(4), [0.0, 0.0, 0.0, height])


def test_level_fraction_constant():
    wg = WeightedGrid(Grid((3,)), [1.0, 2.0, 3.0], np.full(3, 2.0))
    assert level_fraction(wg, Cube((0,), 3), 0.5) == 1.0


def test_level_fraction_two_cell(two_cell):
    # mean 1; only the value-2 cell exceeds 1/3
    assert level_fraction(two_cell, Cube((0,), 2), 1 / 3) == 0.5


def test_level_fraction_spike():
    # mean M/4; only the spike exceeds M/8
    assert level_fraction(spike4(), Cube((0,), 4), 0.5) == 0.25


def test_level_fraction_validates():
    with pytest.raises(DomainError):
        level_fraction(spike4(), Cube((0,), 4), 1.5)
    with pytest.raises(DomainError, match="does not fit"):
        level_fraction(spike4(), Cube((3,), 5), 0.5)


def test_alpha_profile_constant():
    wg = WeightedGrid(Grid((4,)), np.ones(4), np.full(4, 3.0))
    for beta in (0.1, 0.5, 0.9):
        alpha_star, _ = alpha_profile(wg, beta, ALL)
        assert alpha_star == 1.0


def test_alpha_profile_two_cell(two_cell):
    # zero-mean cell skipped; fractions are 1 (single cell) and 0.5 (pair)
    alpha_star, witness = alpha_profile(two_cell, 1 / 3, ALL)
    assert alpha_star == 0.5
    assert witness == Cube((0,), 2)


def test_alpha_profile_spike():
    alpha_star, witness = alpha_profile(spike4(), 0.5, ALL)
    assert alpha_star == 0.25
    assert witness == Cube((0,), 4)


def test_alpha_profile_always_positive():
    rng = np.random.default_rng(20)
    for _ in range(30):
        n = int(rng.integers(1, 24))
        wg = random_float_grid(rng, (n,), log_sigma=2.0)
        for beta in (0.1, 0.9):
            alpha_star, _ = alpha_profile(wg, beta, ALL)
            assert alpha_star > 0.0


def test_alpha_profile_matches_naive():
    rng = np.random.default_rng(21)
    for trial in range(30):
        shape = (int(rng.integers(1, 25)),) if trial % 2 == 0 else (int(rng.integers(1, 8)),) * 2
        w = rng.integers(0, 5, size=shape).astype(float)
        v = rng.integers(0, 7, size=shape).astype(float)
        if w.sum() == 0 or (w * v).sum() == 0:
            w.ravel()[0] = 1.0
            v.ravel()[0] = 2.0
        wg = WeightedGrid(Grid(shape), w, v)
        got = alpha_profile(wg, 0.37, ALL)
        ref = naive_alpha_profile(wg, 0.37, ALL)
        assert got[0] == ref[0] and got[1] == ref[1]


def test_alpha_profile_matches_naive_4d_dyadic():
    rng = np.random.default_rng(22)
    dyadic = EnumerationMode("dyadic")
    for _ in range(3):
        wg = random_integer_grid(rng, (4, 4, 4, 4))
        for beta in (0.2, 0.37, 0.9):
            assert alpha_profile(wg, beta, dyadic) == naive_alpha_profile(wg, beta, dyadic)


@pytest.mark.parametrize("chunk", [1 << 13, 29])
def test_sampled_2d_3d_scans_batch_draws_by_side(monkeypatch, chunk):
    # draws of every side share a batch; results and witnesses still follow
    # draw order through repeated draws and tied values
    monkeypatch.setattr(grids, "_CHUNK_CUBES", chunk)
    rng = np.random.default_rng(23)
    for shape in [(6, 5), (4, 3, 4)]:
        mode = EnumerationMode.sample(300, seed=int(rng.integers(100)))
        drawn = naive_cubes(Grid(shape), mode)
        assert len(set(drawn)) < len(drawn) and len({c.side for c in drawn}) > 2
        wg = random_integer_grid(rng, shape, max_weight=3, max_value=4)
        eps = gr_epsilon(wg, mode)
        assert (eps.epsilon, eps.witness) == naive_gr_epsilon(wg, mode)
        for beta in (0.2, 0.5):
            assert alpha_profile(wg, beta, mode) == naive_alpha_profile(wg, beta, mode)
        assert rh_constant(wg, 2.0, mode) == naive_rh_constant(wg, 2.0, mode)

        fractions = []  # (level fraction at beta 1/2, cube) of the valid draws
        for cube in drawn:
            w, v = wg.weights[cube.slices()].ravel(), wg.values[cube.slices()].ravel()
            mass, wv = float(np.sum(w)), float(np.sum(w * v))
            if mass > 0 and wv > 0:
                fractions.append((float(np.sum(w * (v > 0.5 * (wv / mass)))) / mass, cube))
        for alpha in sorted({f for f, _ in fractions})[:2]:  # the refusal names alpha*'s witness
            with pytest.raises(PreconditionError) as err:
                verify_ainfty_to_gr(wg, LevelParams(alpha, 0.5), mode)
            assert err.value.witness == naive_alpha_profile(wg, 0.5, mode)[1]


def test_theorem1_verifications_equal_their_naive_oracles():
    # integer grids keep every sum exact, so the walk and the per-cube loops
    # agree bit for bit: reports, refusals and their witnesses.  Each
    # direction also runs at the tolerance where holds is decided at a
    # cube's margin/scale, and one ulp to either side: fwd's margin/mass is
    # the level fraction minus alpha, least at alpha*'s witness; rev's
    # margin/mean is the bound minus osc/mean, least near epsilon's witness
    def outcome(fn, *args):
        try:
            return fn(*args)
        except PreconditionError as err:
            return "refused", err.witness

    rng = np.random.default_rng(37)
    decided = {"fwd": set(), "rev": set()}
    for shape in [(16,), (8, 8), (4, 4, 4)]:
        for mode in (ALL, EnumerationMode("dyadic"), EnumerationMode.sample(150, seed=4)):
            wg = random_integer_grid(rng, shape, max_weight=4, max_value=6)
            eps = naive_gr_epsilon(wg, mode)[0]
            params = gr_to_ainfty_params(eps, 1.5)
            at_beta = naive_alpha_profile(wg, params.beta, mode)[0]
            half = LevelParams(naive_alpha_profile(wg, 0.5, mode)[0] / 2, 0.5)
            runs = [("fwd", verify_gr_to_ainfty, naive_verify_gr_to_ainfty, (wg, e, 1.5, mode), tol)
                    for e, tol in ((eps, 1e-12), (eps * 0.99, 1e-12), (eps, params.alpha - at_beta))]
            runs += [("rev", verify_ainfty_to_gr, naive_verify_ainfty_to_gr, (wg, p, mode), tol)
                     for p, tol in ((half, 1e-12), (LevelParams(2 * half.alpha, 0.5), 1e-12),
                                    (half, eps - ainfty_to_gr_bound(half)))]
            for direction, fn, naive, args, tol in runs:
                for t in (np.nextafter(tol, -1), tol, np.nextafter(tol, 1)):
                    got = outcome(fn, *args, float(t))
                    assert got == outcome(naive, *args, float(t)), (direction, mode, tol)
                    if tol < 0:
                        decided[direction].add(got.holds)
    assert decided == {"fwd": {True, False}, "rev": {True, False}}


def test_whole_cubes_have_level_fraction_exactly_one(monkeypatch):
    # values in [1, 2), so every cell of every cube is above 0.4 times its
    # mean: every level fraction is exactly 1 and the first cube attains it,
    # on the screened 1D path, the full kernel and 2D scans alike
    rng = np.random.default_rng(0)
    line = WeightedGrid(Grid((64,)), np.exp(rng.standard_normal(64)), 1 + rng.random(64))
    square = WeightedGrid(
        Grid((16, 16)), np.exp(rng.standard_normal((16, 16))), 1 + rng.random((16, 16))
    )
    sample = EnumerationMode.sample(200, seed=3)

    def check(wg, mode):
        expected = (1.0, naive_cubes(wg.grid, mode)[0])
        assert alpha_profile(wg, 0.4, mode) == expected == naive_alpha_profile(wg, 0.4, mode)

    for wg, mode in [(line, ALL), (line, sample), (square, EnumerationMode("dyadic")),
                     (square, sample)]:
        check(wg, mode)
    monkeypatch.setattr(scan, "_screen_index", lambda *_: None)
    for mode in (ALL, sample):
        check(line, mode)


def test_forward_params_paper_constants():
    p = gr_to_ainfty_params(1.0, 1.5)
    assert p.beta == pytest.approx(1 / 3, rel=1e-15)
    assert p.alpha == pytest.approx(1 / 4, rel=1e-15)
    p2 = gr_to_ainfty_params(0.5, 1.0)
    assert p2.beta == pytest.approx(0.5, rel=1e-15)
    assert p2.alpha == pytest.approx(0.5, rel=1e-15)


def test_forward_params_limits():
    p = gr_to_ainfty_params(0.3, 2 - 1e-12)
    assert p.alpha == pytest.approx(0.0, abs=1e-12)
    p2 = gr_to_ainfty_params(0.3, 0.3 + 1e-12)
    assert p2.beta == pytest.approx(0.0, abs=1e-11)
    with pytest.raises(DomainError):
        gr_to_ainfty_params(1.5, 1.0)


def test_forward_params_that_round_onto_one_name_epsilon_and_lambda():
    # 1 - 1e-17/2 and 1 - 5e-17 round to 1: no strict certificate in float64
    for epsilon, lam, got in ((5e-18, 1e-17, "(1.0, 0.5)"), (5e-17, 1.0, "(0.5, 1.0)")):
        with pytest.raises(DomainError) as err:
            gr_to_ainfty_params(epsilon, lam)
        assert str(err.value).startswith(f"no certificate from epsilon={epsilon} lambda={lam}")
        assert str(err.value).endswith(f"got {got}")


def test_reverse_bound_paper_constants():
    assert ainfty_to_gr_bound(LevelParams(0.25, 1 / 3)) == pytest.approx(11 / 6, rel=1e-15)
    assert ainfty_to_gr_bound(LevelParams(0.5, 0.5)) == pytest.approx(1.5, rel=1e-15)
    near_one = ainfty_to_gr_bound(LevelParams(1 - 1e-9, 1 - 1e-9))
    assert near_one == pytest.approx(0.0, abs=1e-8)


def test_roundtrip_epsilon_value_and_identity():
    assert roundtrip_epsilon(1.0, 1.5) == pytest.approx(11 / 6, rel=1e-15)
    assert roundtrip_epsilon(1.0, 1.5) == ainfty_to_gr_bound(gr_to_ainfty_params(1.0, 1.5))
    # algebraic form lambda + 2 eps/lambda - eps
    rng = np.random.default_rng(22)
    for _ in range(100):
        eps = float(rng.uniform(0.01, 1.9))
        lam = float(rng.uniform(eps + 0.01, 1.99))
        assert roundtrip_epsilon(eps, lam) == pytest.approx(lam + 2 * eps / lam - eps, rel=1e-13)


def test_roundtrip_epsilon_small_eps_limit():
    for eps in (1e-4, 1e-6, 1e-8):
        lam = np.sqrt(2 * eps)
        assert roundtrip_epsilon(eps, lam) == pytest.approx(2 * np.sqrt(2 * eps) - eps, rel=1e-10)


def test_roundtrip_dominates():
    rng = np.random.default_rng(23)
    for _ in range(200):
        eps = float(rng.uniform(0.01, 1.98))
        lam = float(rng.uniform(eps * 1.001, 1.999))
        if not eps < lam < 2:
            continue
        assert roundtrip_epsilon(eps, lam) > eps


def test_verify_forward_constant():
    wg = WeightedGrid(Grid((4,)), np.ones(4), np.full(4, 2.0))
    rep = verify_gr_to_ainfty(wg, 0.5, 1.0, ALL)
    assert rep.holds
    # every level set is the whole cube: worst margin (lam/2)*mu over the
    # smallest cube
    assert rep.worst_margin == pytest.approx(0.5, rel=1e-14)


def test_verify_forward_two_cell(two_cell):
    rep = verify_gr_to_ainfty(two_cell, 1.0, 1.5, ALL)
    assert rep.holds
    assert rep.worst_margin == pytest.approx(0.5, rel=1e-14)
    assert rep.witness == Cube((0,), 2)
    assert rep.skipped_zero_mean == 1


def test_verify_forward_spike():
    wg = spike4()
    rep = verify_gr_to_ainfty(wg, 1.5, 1.75, ALL)
    assert rep.holds


def test_verify_forward_rejects_small_epsilon(two_cell):
    with pytest.raises(PreconditionError, match="not in GR"):
        verify_gr_to_ainfty(two_cell, 0.5, 1.0, ALL)


def test_verify_forward_validates_params(two_cell):
    with pytest.raises(DomainError):
        verify_gr_to_ainfty(two_cell, 1.5, 1.2, ALL)


def test_verify_reverse_constant():
    wg = WeightedGrid(Grid((4,)), np.ones(4), np.full(4, 2.0))
    rep = verify_ainfty_to_gr(wg, LevelParams(0.5, 0.5), ALL)
    assert rep.holds
    assert rep.worst_margin == pytest.approx(2 * (1 - 0.25) * 2.0, rel=1e-14)


def test_verify_reverse_two_cell(two_cell):
    rep = verify_ainfty_to_gr(two_cell, LevelParams(0.4, 1 / 3), ALL)
    assert rep.holds
    assert rep.worst_margin == pytest.approx(11 / 15, rel=1e-14)


def test_verify_reverse_precondition_names_cube(two_cell):
    with pytest.raises(PreconditionError) as err:
        verify_ainfty_to_gr(two_cell, LevelParams(0.6, 1 / 3), ALL)
    assert err.value.witness == Cube((0,), 2)


def test_verify_end_to_end_randomized():
    # forward with measured epsilon and a lambda grid; reverse with the
    # measured alpha profile shaved by 1e-9
    rng = np.random.default_rng(24)
    for _ in range(10):
        n = int(rng.integers(2, 24))
        wg = random_float_grid(rng, (n,), log_sigma=1.5, weight_ratio=1e6)
        eps = gr_epsilon(wg, ALL).epsilon
        for lam in np.linspace(eps + 1e-3, 2 - 1e-3, 5):
            rep = verify_gr_to_ainfty(wg, eps, float(lam), ALL)
            assert rep.holds
        for beta in (0.2, 0.5, 0.8):
            alpha_star, _ = alpha_profile(wg, beta, ALL)
            alpha = alpha_star * (1 - 1e-9)
            if not 0 < alpha < 1:
                continue
            rep = verify_ainfty_to_gr(wg, LevelParams(alpha, beta), ALL)
            assert rep.holds
            assert eps <= ainfty_to_gr_bound(LevelParams(alpha, beta)) + 1e-12


def test_witness_scale_invariance():
    rng = np.random.default_rng(25)
    wg = random_float_grid(rng, (20,), log_sigma=1.0)
    a1 = alpha_profile(wg, 0.4, ALL)
    scaled = WeightedGrid(wg.grid, wg.weights, 1e6 * wg.values)
    a2 = alpha_profile(scaled, 0.4, ALL)
    assert a1[1] == a2[1]
    assert a1[0] == pytest.approx(a2[0], rel=1e-13)
