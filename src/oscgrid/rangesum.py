"""Range-threshold sums over a 1D grid: a wavelet matrix with weighted levels.

For cell ranges [lo, hi) and thresholds theta the index answers

    B = Sum_{lo <= i < hi, v_i > theta} w_i,
    A = Sum_{lo <= i < hi, v_i > theta} w_i * v_i

in O(log N) table lookups per query, vectorized over many queries (the
wavelet matrix, Information Systems 47, 2015, pp. 15-32).  Values are replaced by their ranks in a stable sort, so the cells
with v > theta are exactly those of rank >= k, where k is the number of
values <= theta (`searchsorted(..., side="right")`); ties need no special
care.  Level l stably partitions the cells by bit L-1-l of the rank, zeros
first, and keeps the running count of zero bits and prefix sums of w and
w*v in the partitioned order.

One query serves both per-cube sums of the window kernel in scan.py:

    Sum w*[v > theta]   = B(theta),
    Sum w*|v - m|       = 2*(A(m) - m*B(m)) - (Sum w*v - m*Sum w),

the last term vanishing up to the rounding of m.  The sums come from
float64 prefix tables, so they are estimates; each comes with a radius that
rigorously bounds its distance from the kernel's float result (see
`_radii`), so the estimates can screen a cube family and leave only the
cubes that could matter to the kernel.
"""

from __future__ import annotations

import numpy as np

from .grids import PrefixTable

__all__ = ["RangeThresholdIndex"]

U = float(np.finfo(np.float64).eps) / 2  # unit roundoff of float64


def _gamma(n):
    """gamma_n = n*u/(1 - n*u): relative error of any float sum of n+1 terms."""
    return n * U / (1 - n * U)


class RangeThresholdIndex:
    """Wavelet matrix over the value ranks of a 1D grid, weighted by w and w*v."""

    def __init__(self, weights: np.ndarray, values: np.ndarray):
        n = weights.size
        order = np.argsort(values, kind="stable")
        self.sorted_values = values[order]
        rank = np.empty(n, dtype=np.int64)
        rank[order] = np.arange(n)
        self.levels = max(1, n.bit_length())  # 2**levels > n >= any threshold rank
        with np.errstate(over="ignore"):  # an overflow leaves `finite` false
            w, wv = weights, weights * values
        # one row per level: the count of zero bits before each position,
        # where the ones start, and prefix sums of w and w*v in the order
        # after the partition
        self._zeros_before = np.zeros((self.levels, n + 1), dtype=np.int64)
        self._zeros = np.empty(self.levels, dtype=np.int64)
        self._w = np.empty((self.levels, n + 1))
        self._wv = np.empty((self.levels, n + 1))
        for level in range(self.levels):
            bits = (rank >> (self.levels - 1 - level)) & 1
            np.cumsum(1 - bits, out=self._zeros_before[level, 1:])
            self._zeros[level] = self._zeros_before[level, -1]
            perm = np.argsort(bits, kind="stable")
            rank, w, wv = rank[perm], w[perm], wv[perm]
            self._w[level] = PrefixTable(w).entries
            self._wv[level] = PrefixTable(wv).entries
        self._entry_err = U + 1.01 * n * PrefixTable.ACC_U
        # totals of w and fl(w*v), grown by the rounding of the tables
        self.total_w = float(self._w[-1][-1]) * (1 + 2 * self._entry_err)
        self.total_wv = float(self._wv[-1][-1]) * (1 + 2 * self._entry_err)
        self.finite = bool(np.isfinite(self.total_wv * 64) and np.isfinite(
            self.total_w * max(float(self.sorted_values[-1]), 1.0) * 64))

    def upper_sums(self, lo: np.ndarray, hi: np.ndarray, thresholds: np.ndarray, with_wv: bool):
        """(count, B, A) over the cells lo <= i < hi with v > theta; A is None
        unless with_wv.  The count is exact."""
        k = np.searchsorted(self.sorted_values, thresholds, side="right")
        ends = np.stack([lo, hi])  # the range [a, b) at the current level
        count = np.zeros(lo.shape[0], dtype=np.int64)
        acc_w = np.zeros(lo.shape[0])
        acc_wv = np.zeros(lo.shape[0]) if with_wv else None
        for level in range(self.levels):
            one = (k & (1 << (self.levels - 1 - level))) != 0
            zeros = self._zeros_before[level][ends]
            ones = ends - zeros + self._zeros[level]
            # bit of k is 0: every cell with a 1 here ranks above k, so its
            # sum is added and the search goes on among the 0s; bit 1: the
            # search goes on among the 1s and nothing is added
            start = np.where(one, ones[1], ones[0])
            count += ones[1] - start
            acc_w += self._w[level][ones[1]] - self._w[level][start]
            if with_wv:
                acc_wv += self._wv[level][ones[1]] - self._wv[level][start]
            ends = np.where(one, ones, zeros)
        # what is left has rank exactly k
        count += ends[1] - ends[0]
        acc_w += self._w[-1][ends[1]] - self._w[-1][ends[0]]
        if with_wv:
            acc_wv += self._wv[-1][ends[1]] - self._wv[-1][ends[0]]
        return count, acc_w, acc_wv

    def _radii(self) -> tuple[float, float]:
        """Bounds on |B - exact Sum w| and |A - exact Sum w*v| for any query.

        Every table entry is within e = u + n*ACC_U of its exact value,
        relative to the table total T (see PrefixTable).  A query adds at most levels+1 range
        differences: each is off by at most 2eT from its two entries plus
        one rounding, and adding them up rounds levels+1 more times.  The
        exact products w*v differ from the tabulated fl(w*v) by u each.
        """
        terms = self.levels + 1
        c = 1.01 * (2 * terms * self._entry_err + (terms + 2) * U)
        return c * self.total_w, (c + 1.01 * U) * self.total_wv

    def level_mass(self, lo, hi, thresholds):
        """(estimate, radius, count) of the window kernel's Sum w*[v > theta]
        per range, count being the number of cells above theta.

        The kernel sums exactly the terms w_i of the cells above theta, in
        some float order: within gamma_{side-1} of their exact sum.
        """
        count, est, _ = self.upper_sums(lo, hi, thresholds, with_wv=False)
        e_w, _ = self._radii()
        gamma = _gamma(hi - lo - 1)
        return est, _widen((1 + gamma) * e_w + gamma * np.abs(est), est), count

    def abs_deviation(self, lo, hi, means):
        """(estimate, radius) of the window kernel's Sum w*|v - m| per range.

        The estimate is 2*(A - m*B) at theta = m.  Its distance from the
        exact Sum w*|v - m| collects 2*(err A + m*err B); the dropped term
        Sum w*v - m*Sum w, which the prefix-table mean m leaves within
        (2e + 2u)*(T_wv + m*T_w) + u*T_wv; and the three roundings of the
        estimate.  The kernel's terms fl(fl(|fl(v - m)|)*w) carry 2u each
        and their float sum gamma_{side-1}, so it is within gamma_{side+1}
        of the exact sum.
        """
        _, b, a = self.upper_sums(lo, hi, means, with_wv=True)
        est = 2 * (a - means * b)
        e_w, e_wv = self._radii()
        scale = self.total_wv + means * self.total_w
        from_exact = 2 * (e_wv + means * e_w) + 8 * (self._entry_err + U) * scale
        gamma = _gamma(hi - lo + 1)
        return est, _widen((1 + gamma) * from_exact + gamma * np.abs(est), est)


def _widen(radius, est):
    """Double a radius and add 4u|est|, so that est -/+ radius, evaluated in
    float64, still brackets the exact interval despite its own roundings."""
    return 2 * radius + 4 * U * np.abs(est)
