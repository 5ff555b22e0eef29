import importlib
from fractions import Fraction

import numpy as np
import pytest

from oscgrid import (
    ConfigurationError,
    Cube,
    DomainError,
    EnumerationMode,
    GenSpec,
    Grid,
    TailBoundParams,
    WeightedGrid,
    build_covering,
    evaluate,
    generate,
    gr_epsilon,
    optimize_rh_exponent,
    oscillation,
    rearrangement,
    rearrangement_bound,
    rh_constant,
    rh_exponent_bound,
    verify_rearrangement_bound,
)

from oscgrid import holder

from conftest import random_float_grid
from reference import naive_rh_constant

ALL = EnumerationMode("all")


def test_bound_formula_constants():
    assert rearrangement_bound(1.0, 1.5, 0.2, 1.0) == pytest.approx(18.0, rel=1e-15)
    assert rearrangement_bound(0.5, 1.0, 0.4, 1.0) == pytest.approx(4.5, rel=1e-15)


def test_bound_small_epsilon_limit():
    assert rearrangement_bound(1e-12, 1.5, 0.2, 1.0) == pytest.approx(1.0, rel=1e-10)


def test_exponent_formula_constants():
    assert rh_exponent_bound(1.0, 1.5, 0.2, 1.0) == pytest.approx(1 + 0.5 / 8.5, rel=1e-15)
    assert rh_exponent_bound(0.5, 1.0, 0.4, 1.0) == pytest.approx(1 + 0.5 / 1.75, rel=1e-15)


def test_exponent_asymptotic_order():
    # eps * (p_max - 1) -> 1/3.5 as eps -> 0 at lambda=1, rho=0.4, B=1
    for eps in (1e-1, 1e-2, 1e-3, 1e-4):
        scaled = eps * (rh_exponent_bound(eps, 1.0, 0.4, 1.0) - 1.0)
        assert scaled == pytest.approx((1 - eps) / 3.5, rel=1e-12)


def test_bound_parameter_validation():
    with pytest.raises(DomainError):
        rearrangement_bound(1.0, 0.9, 0.2, 1.0)
    with pytest.raises(DomainError):
        rearrangement_bound(1.0, 1.5, 0.3, 1.0)  # rho >= 1 - lam/2
    with pytest.raises(DomainError):
        rh_exponent_bound(1.0, 1.5, 0.2, 0.5)


def test_bound_monotonicity():
    eps_grid = np.linspace(0.2, 1.2, 6)
    rho_grid = np.linspace(0.05, 0.35, 6)
    for lam in (1.4, 1.6):
        rho = 0.8 * (1 - lam / 2)
        for B in (1.0, 3.0):
            ks = [rearrangement_bound(e, lam, rho, B) for e in eps_grid if e < lam]
            assert all(a < b for a, b in zip(ks, ks[1:]))
            ps = [rh_exponent_bound(e, lam, rho, B) for e in eps_grid if e < lam]
            assert all(a > b for a, b in zip(ps, ps[1:]))
        ks_rho = [rearrangement_bound(0.5, lam, r, 1.0) for r in rho_grid if r < 1 - lam / 2]
        assert all(a > b for a, b in zip(ks_rho, ks_rho[1:]))
        ps_rho = [rh_exponent_bound(0.5, lam, r, 1.0) for r in rho_grid if r < 1 - lam / 2]
        assert all(a < b for a, b in zip(ps_rho, ps_rho[1:]))
        # B monotonicity at fixed (eps, lam, rho)
        assert rearrangement_bound(0.5, lam, rho, 4.0) > rearrangement_bound(0.5, lam, rho, 1.0)
        assert rh_exponent_bound(0.5, lam, rho, 4.0) < rh_exponent_bound(0.5, lam, rho, 1.0)


def test_exponent_times_bound_identity():
    rng = np.random.default_rng(40)
    for _ in range(100):
        eps = float(rng.uniform(0.05, 1.8))
        lam = float(rng.uniform(eps + 0.01, 1.99))
        rho = float(rng.uniform(1e-3, (1 - lam / 2) * 0.999))
        B = float(rng.uniform(1, 5))
        p = rh_exponent_bound(eps, lam, rho, B)
        k = rearrangement_bound(eps, lam, rho, B)
        assert (p - 1) * (k - 1) == pytest.approx(1.0, rel=1e-12)


def test_optimizer_matches_grid_oracle():
    lam_star, rho_star, p_star = optimize_rh_exponent(1.0, 1.0, delta=1e-9)
    assert lam_star == pytest.approx(1.4641, abs=1e-3)
    assert p_star == pytest.approx(1.0718, abs=1e-3)
    # dense grid oracle
    lams = np.linspace(1.0 + 1e-6, 2 - 1e-6, 200_001)
    rhos = (1 - lams / 2) * (1 - 1e-9)
    ps = 1 + (lams - 1) / ((lams / rhos + 1) * 1.0)
    assert p_star == pytest.approx(float(ps.max()), rel=1e-9)
    assert lam_star == pytest.approx(float(lams[np.argmax(ps)]), abs=1e-4)


def test_optimizer_dominates_hand_picked():
    rng = np.random.default_rng(41)
    for eps in (0.2, 0.7, 1.3):
        _, _, p_star = optimize_rh_exponent(eps, 1.0, delta=1e-9)
        for _ in range(50):
            lam = float(rng.uniform(eps + 1e-6, 2 - 1e-9))
            rho = float(rng.uniform(1e-9, (1 - lam / 2) * (1 - 1e-9)))
            assert p_star >= rh_exponent_bound(eps, lam, rho, 1.0) - 1e-9


def test_lambda_star_closed_form():
    # c = 1 - delta -> 1: the root of lambda^2 + 4*lambda - 8 = 0
    lam, _, _ = optimize_rh_exponent(1.0, delta=1e-15)
    assert lam == pytest.approx(2 * np.sqrt(3) - 2, rel=1e-14)
    for delta in (1e-9, 1e-6, 0.1, 0.5, 0.999):
        c = Fraction(1.0 - delta)
        for eps in (1e-6, 1e-3, 0.3, 1.0, 1.7, 1.99):
            lam, rho, _ = optimize_rh_exponent(eps, 1.0, delta)
            # the exact residual of (2-c)x^2 + 4cx - 4(c+eps) at the float
            # lambda, against its slope times one ulp of lambda
            x = Fraction(lam)
            residual = (2 - c) * x * x + 4 * c * x - 4 * (c + Fraction(eps))
            slope = 2 * (2 - c) * x + 4 * c
            assert abs(residual) <= 4 * slope * Fraction(np.spacing(lam))
            assert optimize_rh_exponent(eps, 3.0, delta)[:2] == (lam, rho)


@pytest.mark.parametrize("eps", [1e-12, 2 - 1e-12])
def test_lambda_star_stays_inside_the_open_interval(eps):
    for delta in (1e-9, 1e-6, 0.5):
        lam, rho, p = optimize_rh_exponent(eps, 1.0, delta)
        assert eps < lam < 2
        assert rho > 0 and p >= 1


@pytest.mark.parametrize("eps", [0.0, 2.0, -1.0, float("nan")])
def test_optimizer_refuses_epsilon_outside_the_open_interval(eps):
    with pytest.raises(DomainError, match=f"^need 0 < epsilon < 2, got {eps}$"):
        optimize_rh_exponent(eps)


def test_optimizer_refuses_a_rho_that_rounds_onto_its_open_constraint():
    # c = 1 - 1e-17 rounds to 1, so rho_star would be exactly 1 - lambda_star/2:
    # the refusal names delta
    with pytest.raises(DomainError, match=r"^need 0 < delta < 1, got 1e-17 \(and 1 - delta"):
        optimize_rh_exponent(0.3, delta=1e-17)


@pytest.mark.parametrize("eps, overlap, expected", [
    (0.3, 1.0, (1.0331500235235846, 0.4834245048132194, 1.7789982851779729)),
    (0.3, 2.5, (1.0331500235235846, 0.4834245048132194, 1.3115993140711892)),
    (1.5, 1.0, (1.741657377855312, 0.12917118190103297, 1.0111234739459471)),
    (1e-3, 1.0, (0.8291339008736539, 0.5854324641301234, 343.73151278898104)),
])
def test_optimizer_values_at_the_default_delta(eps, overlap, expected):
    # bit for bit the values of the optimizer's earlier inline exponent formula
    assert holder.DEFAULT_DELTA == 1e-6
    assert optimize_rh_exponent(eps, overlap) == expected
    assert optimize_rh_exponent(eps, overlap, delta=1e-6) == expected


def test_optimizer_collapses_near_two():
    _, _, p_star = optimize_rh_exponent(2 - 1e-9, 1.0)
    assert p_star == pytest.approx(1.0, abs=1e-8)


def test_rh_constant_constant_data():
    wg = WeightedGrid(Grid((6,)), np.ones(6), np.full(6, 3.0))
    for p in (1.5, 2.0, 4.0):
        c_hat, _ = rh_constant(wg, p, ALL)
        assert c_hat == 1.0


def test_rh_constant_two_cell(two_cell):
    c_hat, witness = rh_constant(two_cell, 2.0, ALL)
    assert c_hat == pytest.approx(np.sqrt(2), rel=1e-15)
    assert witness == Cube((0,), 2)


def test_rh_constant_at_least_one():
    rng = np.random.default_rng(42)
    for _ in range(30):
        n = int(rng.integers(1, 20))
        wg = random_float_grid(rng, (n,), log_sigma=2.0)
        c_hat, _ = rh_constant(wg, float(rng.uniform(1.1, 4)), ALL)
        assert c_hat >= 1.0 - 1e-15


def test_rh_constant_requires_p_above_one(two_cell):
    with pytest.raises(DomainError):
        rh_constant(two_cell, 1.0, ALL)


def test_rh_constant_matches_naive():
    rng = np.random.default_rng(43)
    for trial in range(20):
        shape = (int(rng.integers(1, 25)),) if trial % 2 == 0 else (int(rng.integers(1, 8)),) * 2
        w = rng.integers(0, 5, size=shape).astype(float)
        v = rng.integers(0, 6, size=shape).astype(float)
        if w.sum() == 0 or (w * v).sum() == 0:
            w.ravel()[0] = 1.0
            v.ravel()[0] = 2.0
        wg = WeightedGrid(Grid(shape), w, v)
        got = rh_constant(wg, 2.0, ALL)
        ref = naive_rh_constant(wg, 2.0, ALL)
        assert got[0] == ref[0] and got[1] == ref[1]


def test_verify_tail_bound_constant_data():
    wg = WeightedGrid(Grid((8,)), np.full(8, 0.125), np.full(8, 5.0))
    params = TailBoundParams(epsilon=0.5, lam=1.0, rho=0.3, t_values=(0.1, 0.2, 0.3))
    report = verify_rearrangement_bound(wg, params, ALL)
    assert report.holds
    for check in report.checks:
        assert check.fstar == check.fstarstar == 5.0
        assert check.n_cubes == 0  # E_t empty for constant data


def test_verify_tail_bound_spike():
    wg = WeightedGrid(Grid((4,)), np.full(4, 0.25), [0.0, 0.0, 0.0, 1.0])
    params = TailBoundParams(epsilon=1.5, lam=1.75, rho=0.1, t_values=(0.04,))
    report = verify_rearrangement_bound(wg, params, ALL)
    assert report.holds
    check = report.checks[0]
    assert check.fstar == 1.0 and check.fstarstar == 1.0
    assert check.n_cubes == 0  # nothing exceeds fstar


def test_verify_tail_bound_power_pipeline():
    wg = generate(GenSpec("power", (4096,), {"a": 0.3}))
    eps = gr_epsilon(wg, EnumerationMode("dyadic")).epsilon * (1 + 1e-6)
    lam = (eps + 2) / 2
    rho = (1 - lam / 2) / 2
    params = TailBoundParams(eps, lam, rho, (rho * wg.total_mass / 2,))
    report = verify_rearrangement_bound(wg, params, EnumerationMode("dyadic"))
    assert report.holds
    check = report.checks[0]
    assert check.n_cubes >= 1
    assert check.mean_margin > 0 and check.osc_margin > 0
    assert check.k_achieved >= 1.0
    assert check.fstarstar <= check.k_achieved * check.fstar


def test_verify_tail_bound_degenerate_zero_function():
    wg = WeightedGrid(Grid((4,)), np.full(4, 0.25), np.zeros(4))
    params = TailBoundParams(epsilon=0.5, lam=1.0, rho=0.25, t_values=(0.2,))
    report = verify_rearrangement_bound(wg, params, ALL)
    assert report.checks[0].degenerate
    assert report.checks[0].holds  # fstarstar is 0 as well
    k = rearrangement_bound(0.5, 1.0, 0.25)
    expected = {
        "t": 0.2, "fstar": 0.0, "fstarstar": 0.0, "k_nominal": k, "k_achieved": k,
        "mean_margin": None, "osc_margin": None, "rho_lo": None, "rho_hi": None,
        "overlap": 1, "n_cubes": 0, "holds": True, "degenerate": True,
    }
    got = report.checks[0].to_json()
    assert list(got) == list(expected)
    for field, value in expected.items():  # repr tells 0.0 from -0.0 and 1 from 1.0
        assert repr(got[field]) == repr(value), field
    assert report.to_json()["covering_constants"] == {"rho_lo": None, "rho_hi": None, "overlap": 1}


def test_verify_tail_bound_rejects_large_t(two_cell):
    params = TailBoundParams(epsilon=1.0, lam=1.5, rho=0.2, t_values=(1.0,))
    with pytest.raises(DomainError, match="exceeds rho"):
        verify_rearrangement_bound(two_cell, params, ALL)


def test_tail_params_validation():
    with pytest.raises(DomainError):
        TailBoundParams(1.0, 1.5, 0.25, (0.1,))  # rho >= 1 - lam/2
    with pytest.raises(DomainError):
        TailBoundParams(1.0, 1.5, 0.2, ())
    with pytest.raises(DomainError):
        TailBoundParams(1.0, 1.5, 0.2, (-0.1,))


def test_each_distinct_covering_cube_is_rechecked_once(monkeypatch):
    """Timing-free guard on a 64 x 64 grid: a cube's moments are summed once
    per distinct covering cube across the t-values, and every t's margins
    equal a fresh per-cube loop."""
    rng = np.random.default_rng(80)
    wg = random_float_grid(rng, (64, 64), log_sigma=0.1)
    eps = 0.5
    lam, rho, _ = optimize_rh_exponent(eps)
    ts = tuple(k * rho * wg.total_mass / 20 for k in range(1, 7))
    seen = []

    moments = holder._cube_moments

    def counted(wg_, cube):
        seen.append(cube)
        return moments(wg_, cube)

    monkeypatch.setattr(holder, "_cube_moments", counted)
    params = TailBoundParams(eps, lam, rho, ts)
    report = verify_rearrangement_bound(wg, params, EnumerationMode("dyadic"))
    sf = rearrangement(wg)
    coverings = []
    for t, check in zip(ts, report.checks):
        fstar = float(evaluate(sf, t))
        cubes = build_covering(wg, wg.values > fstar, rho, 1 - lam / 2).cubes
        stats = [oscillation(wg, cube) for cube in cubes]
        assert check.mean_margin == min(lam / (lam - eps) * fstar - s.mean for s in stats)
        assert check.osc_margin == min(eps * lam / (lam - eps) * fstar - s.osc for s in stats)
        coverings.append(cubes)
    distinct = set().union(*coverings)
    assert len(seen) == len(set(seen)) == len(distinct)
    assert set(seen) == distinct
    assert len(seen) < sum(len(cubes) for cubes in coverings)


def test_tail_bound_checks_shape_and_t_before_the_epsilon_scan(two_cell, monkeypatch):
    def no_scan(*args):
        raise AssertionError("the epsilon scan ran first")

    monkeypatch.setattr(importlib.import_module("oscgrid.oscillation"), "gr_epsilon", no_scan)
    monkeypatch.setattr("oscgrid.holder.gr_epsilon", no_scan)
    wg = WeightedGrid(Grid((4, 6)), np.ones((4, 6)), np.ones((4, 6)))
    params = TailBoundParams(epsilon=1.0, lam=1.5, rho=0.2, t_values=(0.1,))
    with pytest.raises(ConfigurationError, match="equal-sided"):
        verify_rearrangement_bound(wg, params, ALL)
    params = TailBoundParams(epsilon=1.0, lam=1.5, rho=0.2, t_values=(0.1, 1.0))
    with pytest.raises(DomainError, match="exceeds rho"):
        verify_rearrangement_bound(two_cell, params, ALL)
