"""Computations made apart from the program, used to check its reports.

Nothing here imports oscgrid or uses a sliding window: cube quantities
come from per-cube loops (math.fsum or numpy sums), dyadic families from
block reshapes, the 1D monotone oracle from its closed form over exactly
rounded (fsum) prefix sums, the rearrangement from a sort, and lambda* from
the closed form of the exponent bound's maximum.
"""

from __future__ import annotations

import itertools
import json
import math
from pathlib import Path

import numpy as np


def load_arrays(path) -> tuple[np.ndarray, np.ndarray]:
    """(weights, values) of a wgrid JSON file, in grid shape."""
    obj = json.loads(Path(path).read_text())
    shape = tuple(obj["shape"])
    w = np.asarray(obj["weights"], dtype=np.float64).reshape(shape)
    v = np.asarray(obj["values"], dtype=np.float64).reshape(shape)
    return w, v


def cube_slices(origin, side) -> tuple:
    return tuple(slice(o, o + side) for o in origin)


def fsum_stats(w, v, origin, side, betas=(), p=None) -> dict:
    """mass, Sum w*v, mean, osc/mean, level fractions at each beta and, at
    p, Sum w*v^p and the p-mean ratio of one cube; every sum exact (math.fsum)."""
    sl = cube_slices(origin, side)
    cw = w[sl].ravel()
    cv = v[sl].ravel()
    mass = math.fsum(cw)
    wv = math.fsum(cw * cv)
    mean = wv / mass
    out = {
        "mass": mass,
        "wv": wv,
        "mean": mean,
        "ratio": math.fsum(cw * np.abs(cv - mean)) / wv if wv > 0 else 0.0,
        "levels": [math.fsum(cw[cv > b * mean]) / mass for b in betas],
    }
    if p is not None:
        out["wvp"] = math.fsum(cw * cv**p)
        out["rh"] = (out["wvp"] / mass) ** (1.0 / p) / mean
    return out


def all_cubes(shape):
    """Every cell-aligned cube (origin, side), ascending side then origin."""
    for side in range(1, min(shape) + 1):
        for origin in itertools.product(*(range(n - side + 1) for n in shape)):
            yield origin, side


def naive_all_family(w, v, betas, exact=False) -> dict:
    """epsilon and alpha*(beta) for each beta over the whole `all` family by
    a per-cube loop, with the cube that attains each ("epsilon_at",
    "alphas_at"); `exact` sums with math.fsum, otherwise with numpy."""
    betas = np.asarray(betas, dtype=np.float64)
    eps, eps_at = 0.0, None
    alphas = np.full(betas.size, np.inf)
    alphas_at = [None] * betas.size
    for cube in all_cubes(w.shape):
        if exact:
            s = fsum_stats(w, v, *cube, betas)
            if not s["wv"] > 0:
                continue
            ratio, levels = s["ratio"], np.asarray(s["levels"])
        else:
            sl = cube_slices(*cube)
            cw = w[sl].ravel()
            cv = v[sl].ravel()
            mass = cw.sum()
            wv = (cw * cv).sum()
            if not mass > 0 or not wv > 0:
                continue
            mean = wv / mass
            ratio = float((cw * np.abs(cv - mean)).sum() / wv)
            above = cv[None, :] > betas[:, None] * mean
            levels = (above * cw[None, :]).sum(axis=1) / mass
        if ratio > eps:
            eps, eps_at = ratio, cube
        for j in np.flatnonzero(levels < alphas):
            alphas[j], alphas_at[j] = levels[j], cube
    return {"epsilon": eps, "epsilon_at": eps_at,
            "alphas": [float(a) for a in alphas], "alphas_at": alphas_at}


def _blocks(a: np.ndarray, side: int) -> np.ndarray:
    """Cells of every dyadic cube of this side as rows, by reshape alone."""
    n, dim = a.shape[0], a.ndim
    k = n // side
    split = a.reshape(sum(((k, side) for _ in range(dim)), ()))
    order = tuple(range(0, 2 * dim, 2)) + tuple(range(1, 2 * dim, 2))
    return split.transpose(order).reshape(k**dim, side**dim)


def dyadic_family(w, v, betas=(), p=None) -> dict:
    """epsilon, alpha*(beta) for each beta and c_hat at p over the dyadic
    family, from block reshapes and plain numpy sums, with the cube that
    attains each ("epsilon_at", "alphas_at", "c_hat_at")."""
    n, dim = w.shape[0], w.ndim
    best = {"epsilon": (0.0, None), "c_hat": (0.0, None)}
    alphas = [(math.inf, None)] * len(betas)

    def cube(side, ok, row):
        index = np.unravel_index(np.flatnonzero(ok)[row], (n // side,) * dim)
        return tuple(int(i) * side for i in index), side

    side = 1
    while side <= n:
        bw, bv = _blocks(w, side), _blocks(v, side)
        mass = bw.sum(axis=1)
        wv = (bw * bv).sum(axis=1)
        ok = (mass > 0) & (wv > 0)
        bw, bv, mass, wv = bw[ok], bv[ok], mass[ok], wv[ok]
        mean = wv / mass
        found = {"epsilon": (bw * np.abs(bv - mean[:, None])).sum(axis=1) / wv}
        if p is not None:
            found["c_hat"] = ((bw * bv**p).sum(axis=1) / mass) ** (1.0 / p) / mean
        for key, values in found.items():
            row = int(values.argmax())
            if values[row] > best[key][0]:
                best[key] = (float(values[row]), cube(side, ok, row))
        for j, beta in enumerate(betas):
            frac = (bw * (bv > beta * mean[:, None])).sum(axis=1) / mass
            row = int(frac.argmin())
            if frac[row] < alphas[j][0]:
                alphas[j] = (float(frac[row]), cube(side, ok, row))
        side *= 2
    return {
        "epsilon": best["epsilon"][0], "epsilon_at": best["epsilon"][1],
        "c_hat": best["c_hat"][0], "c_hat_at": best["c_hat"][1],
        "alphas": [a for a, _ in alphas], "alphas_at": [at for _, at in alphas],
    }


def small_cube_epsilon(w, v, max_side: int) -> float:
    """GR epsilon over every cube (any origin) of side <= max_side, summed
    cell offset by cell offset over all origins at once."""
    best = 0.0
    for side in range(1, min(max_side, min(w.shape)) + 1):
        span = tuple(n - side + 1 for n in w.shape)
        offsets = list(itertools.product(range(side), repeat=w.ndim))
        cells = [tuple(slice(o, o + k) for o, k in zip(off, span)) for off in offsets]
        mass = sum(w[c] for c in cells)
        wv = sum(w[c] * v[c] for c in cells)
        ok = (mass > 0) & (wv > 0)
        mean = np.where(ok, wv / np.where(ok, mass, 1.0), 0.0)
        dev = sum(w[c] * np.abs(v[c] - mean) for c in cells)
        best = max(best, float(np.where(ok, dev / np.where(ok, wv, 1.0), 0.0).max()))
    return best


def _fsum_prefix(x: np.ndarray) -> np.ndarray:
    """[0, x0, x0+x1, ...], each entry the exactly rounded sum."""
    return np.array([math.fsum(x[:i]) for i in range(x.size + 1)])


def monotone_epsilon(w: np.ndarray, v: np.ndarray) -> tuple[float, tuple]:
    """(epsilon, the cube that attains it) over the 1D `all` family of
    non-increasing data, in O(N^2 log N).

    On a window the cells above the mean form a prefix, so
    Sum w|v - m| = 2 (S_k - m W_k) with k found by binary search.
    """
    if np.any(np.diff(v) > 0):
        raise ValueError("values must be non-increasing")
    n = v.size
    wp = _fsum_prefix(w)
    wvp = _fsum_prefix(w * v)
    best = (0.0, None)
    for side in range(1, n + 1):
        i = np.arange(0, n - side + 1)
        mass = wp[i + side] - wp[i]
        wv = wvp[i + side] - wvp[i]
        ok = (mass > 0) & (wv > 0)
        mean = np.where(ok, wv / np.where(ok, mass, 1.0), 0.0)
        k = np.clip(np.searchsorted(-v, -mean, side="left"), i, i + side)
        upper = (wvp[k] - wvp[i]) - mean * (wp[k] - wp[i])
        ratio = np.where(ok, 2.0 * upper / np.where(ok, wv, 1.0), 0.0)
        row = int(ratio.argmax())
        if ratio[row] > best[0]:
            best = (float(ratio[row]), ((row,), side))
    return best


def star_values(w, v, ts) -> tuple[list, list]:
    """(fstar(t), fstarstar(t)) for each t from a sort of the cells.

    fstar(t) is the least cell value s with mu{v > s} <= t (0 when every
    value qualifies); fstarstar(t) is (1/t) times the integral of fstar over
    (0, t], summed exactly over the cells above fstar(t) plus the partial
    atom at fstar(t).
    """
    w = w.ravel()
    v = v.ravel()
    keep = w > 0
    w, v = w[keep], v[keep]
    levels = np.unique(v)[::-1]  # descending
    order = np.argsort(-v, kind="stable")
    cum = np.cumsum(w[order])
    vs = v[order]
    # mu{v > s} for each distinct level s: cumulative mass of strictly larger values
    above = np.concatenate([[0.0], cum])[np.searchsorted(-vs, -levels, side="left")]
    fstar, fss = [], []
    for t in ts:
        ok = np.flatnonzero(above <= t)
        s = float(levels[ok[-1]]) if ok.size else 0.0
        top = v > s
        tail = math.fsum(w[top])
        fstar.append(s)
        fss.append((math.fsum(w[top] * v[top]) + (t - tail) * s) / t)
    return fstar, fss


def lambda_star(epsilon: float, delta: float) -> float:
    """Exact maximizer of the exponent bound with rho = (1 - lambda/2)(1 - delta)."""
    c = 1.0 - delta
    return (-2 * c + 2 * math.sqrt(c * c + (2 - c) * (c + epsilon))) / (2 - c)


def exponent_bound(epsilon: float, lam: float, rho: float, overlap: float) -> float:
    return 1.0 + (lam - epsilon) / (overlap * (lam / rho + 1.0) * epsilon)
