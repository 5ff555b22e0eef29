"""Two bit-exact properties of the measured constants on generated grids.

Family inclusion: the dyadic and sampled families are subsets of `all`,
and a sub-family cannot raise a sup or lower an inf, so epsilon over a
subset is at most epsilon over `all` and each alpha*(beta) is at least
alpha* over `all`.  A cube's value does not depend on the batch it comes
in, so the same cube gives the same bits in every family and the
comparison is exact.

Power-of-two scaling: multiplying w by 2^k and v by 2^j changes no bit of
a float ratio or comparison on these grids (no subnormal or overflowing
value appears), so epsilon and every alpha* are bit-identical.

Grids are 1D, 2D and 3D with power-of-two sides, log-normal weights
(sigma 2) and values (sigma 1); every fourth seed puts a 1e10 atom on one
cell.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from oscgrid import EnumerationMode, Grid, WeightedGrid, epsilon_and_profile

BETAS = (0.25, 0.5, 0.75)
# power-of-two sides per dimension, up to 64, 16^2 and 8^3 cells
_SIDES = {1: (16, 32, 64), 2: (4, 8, 16), 3: (2, 4, 8)}


@st.composite
def _grids(draw):
    dim = draw(st.integers(1, 3))
    shape = (draw(st.sampled_from(_SIDES[dim])),) * dim
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    w = np.exp(2.0 * rng.standard_normal(shape))
    v = np.exp(rng.standard_normal(shape))
    if seed % 4 == 0:
        w.flat[int(rng.integers(0, w.size))] *= 1e10
    return seed, w, v


def _measure(shape, w, v, mode):
    gr, alphas = epsilon_and_profile(WeightedGrid(Grid(shape), w, v), BETAS, mode)
    return gr.epsilon, [alpha for alpha, _ in alphas]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_grids())
def test_subfamilies_neither_raise_epsilon_nor_lower_alpha_star(grid):
    seed, w, v = grid
    eps_all, alphas_all = _measure(w.shape, w, v, EnumerationMode.all())
    for mode in (EnumerationMode.dyadic(), EnumerationMode.sample(200, seed)):
        eps, alphas = _measure(w.shape, w, v, mode)
        assert eps <= eps_all, mode.label()
        for beta, alpha, alpha_all in zip(BETAS, alphas, alphas_all):
            assert alpha_all <= alpha, (mode.label(), beta)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_grids())
def test_power_of_two_scaling_keeps_every_bit(grid):
    _, w, v = grid
    for mode in (EnumerationMode.all(), EnumerationMode.dyadic()):
        base = _measure(w.shape, w, v, mode)
        for k, j in ((3, -2), (-5, 7)):
            assert _measure(w.shape, w * 2.0**k, v * 2.0**j, mode) == base, (mode.label(), k, j)
