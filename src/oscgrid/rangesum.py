"""Range-threshold sums over a 1D grid: a radix-4 wavelet matrix with
weighted levels, and range minima.

For cell ranges [lo, hi) and thresholds theta the index answers

    B = Sum_{lo <= i < hi, v_i > theta} w_i,
    A = Sum_{lo <= i < hi, v_i > theta} w_i * v_i

in O(log N) table lookups per query, vectorized over many queries (the
wavelet matrix, Information Systems 47, 2015, pp. 15-32).  Values are
replaced by their ranks r in a stable sort, counted from 1, so the cells
with v > theta are exactly those with r > k, where k is the number of
values <= theta (`searchsorted(..., side="right")`); ties need no special
care.  Level l stably partitions the cells by base-4 digit L-1-l of r (the
rank's next 2 bits, so L = ceil(bit_length(N)/2) levels), and keeps two
kinds of table, each one row of N+1 entries per digit d:

  - next positions: where digit d's cells start after the partition, plus
    the count of digit-d cells before each position (int32);
  - prefix sums of w and of w*v over the cells whose digit is above d, in
    the order before the partition (two float64 PrefixTable rows).

A query adds, per level, the range difference of the cells whose digit is
above k's and follows those whose digit equals k's to the next level.
With a sparse table of range minima of v (min(v[i : i+2^j]) for every
2^j <= N) and the sorted values, the index takes about 80*L + 8*b + 16
bytes per cell, b the bit length of N: 584 at N = 1,024, 680 at 4,096
and 1,064 at 2^20, about twice a 1-bit matrix's, for half its levels.

One query serves both per-cube sums of the window kernel in scan.py:

    Sum w*[v > theta]   = B(theta),
    Sum w*|v - m|       = 2*(A(m) - m*B(m)) - (Sum w*v - m*Sum w),

the last term vanishing up to the rounding of m.  The sums come from
float64 prefix tables, so they are estimates; each comes with a radius that
rigorously bounds its distance from the kernel's float result (see
`_radii`), so the estimates can screen a cube family and leave only the
cubes that could matter to the kernel.  The range minimum is exact: a
range whose minimum is above theta has every cell above it.
"""

from __future__ import annotations

import numpy as np

from .grids import PrefixTable, WeightedGrid

__all__ = ["RangeThresholdIndex"]

U = float(np.finfo(np.float64).eps) / 2  # unit roundoff of float64
_DIGIT_BITS = 2  # rank bits per wavelet level
_RADIX = 1 << _DIGIT_BITS


def _gamma(n):
    """gamma_n = n*u/(1 - n*u): relative error of any float sum of n+1 terms."""
    return n * U / (1 - n * U)


class RangeThresholdIndex:
    """Radix-4 wavelet matrix over the value ranks of a 1D grid, weighted by
    w and w*v, with a sparse table of range minima of v.  Its radii read
    the grid's own totals of w and w*v (WeightedGrid's prefix tables)."""

    def __init__(self, wg: WeightedGrid):
        values, n = wg.values, wg.values.size
        order = np.argsort(values, kind="stable")
        self.sorted_values = values[order]
        rank = np.empty(n, dtype=np.int64)
        rank[order] = np.arange(1, n + 1)
        self.levels = -(-n.bit_length() // _DIGIT_BITS)  # _RADIX**levels > n >= any rank
        with np.errstate(over="ignore"):  # an overflow leaves `finite` false
            w, wv = wg.weights, wg.weights * values
        self._entry_err = U + 1.01 * n * PrefixTable.ACC_U
        # totals of w and fl(w*v), grown by the rounding of the tables
        self.total_w = wg.total_mass * (1 + 2 * self._entry_err)
        self.total_wv = wg.wv_prefix.total * (1 + 2 * self._entry_err)
        self.finite = bool(np.isfinite(self.total_wv * 64) and np.isfinite(
            self.total_w * max(float(self.sorted_values[-1]), 1.0) * 64))
        # per level and digit d, a row of n+1 entries in each table, read
        # with `take` at d*(n+1) + position
        self._next = np.zeros((self.levels, _RADIX, n + 1), dtype=np.int32)
        self._w = np.zeros((self.levels, _RADIX, n + 1))
        self._wv = np.zeros((self.levels, _RADIX, n + 1))
        for level in range(self.levels):
            digits = (rank >> _DIGIT_BITS * (self.levels - 1 - level)) & (_RADIX - 1)
            start = 0
            for d in range(_RADIX):
                np.cumsum(digits == d, out=self._next[level, d, 1:])
                self._next[level, d] += start
                start = self._next[level, d, -1]
                if d < _RADIX - 1:  # no digit is above the last
                    self._w[level, d] = PrefixTable(np.where(digits > d, w, 0.0)).entries
                    self._wv[level, d] = PrefixTable(np.where(digits > d, wv, 0.0)).entries
            perm = np.argsort(digits, kind="stable")
            rank, w, wv = rank[perm], w[perm], wv[perm]
        # row j of the range minima holds min(v[i : i + 2**j]); _log2[s] = floor(log2(s))
        self._min = np.full((n.bit_length(), n), np.inf)
        self._min[0] = values
        self._log2 = np.zeros(n + 1, dtype=np.intp)
        for j in range(1, self._min.shape[0]):
            half = 1 << (j - 1)
            np.minimum(self._min[j - 1, : n - 2 * half + 1], self._min[j - 1, half : n - half + 1],
                       out=self._min[j, : n - 2 * half + 1])
            self._log2[1 << j :] = j

    def range_min(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Exact min(v[lo:hi]) per range: the smaller of the minima of its
        first and last 2^j cells, 2^j <= hi - lo < 2^(j+1)."""
        j = self._log2[hi - lo]
        row = j * self._min.shape[1]
        return np.minimum(self._min.take(row + lo), self._min.take(row + hi - (1 << j)))

    def upper_sums(self, lo: np.ndarray, hi: np.ndarray, thresholds: np.ndarray, with_wv: bool):
        """(B, A) over the cells lo <= i < hi with v > theta; A is None
        unless with_wv."""
        k = np.searchsorted(self.sorted_values, thresholds, side="right")
        ends = np.stack([lo, hi])  # the range [a, b) at the current level
        acc_w = np.zeros(lo.shape[0])
        acc_wv = np.zeros(lo.shape[0]) if with_wv else None
        for level in range(self.levels):
            # the cells whose digit is above k's rank above k: their sums
            # are added; the search goes on among those whose digit is k's
            digit = (k >> _DIGIT_BITS * (self.levels - 1 - level)) & (_RADIX - 1)
            at = ends + digit * self._next.shape[2]
            w = self._w[level].take(at)
            acc_w += w[1] - w[0]
            if with_wv:
                wv = self._wv[level].take(at)
                acc_wv += wv[1] - wv[0]
            ends = self._next[level].take(at)
        return acc_w, acc_wv

    def _radii(self) -> tuple[float, float]:
        """Bounds on |B - exact Sum w| and |A - exact Sum w*v| for any query.

        Every table entry is within e = u + n*ACC_U of its exact value,
        relative to its table's total, which is at most the total T (see
        PrefixTable).  A query adds one range difference per level: each is
        off by at most 2eT from its two entries plus one rounding, and
        adding them up rounds once per level more.  The exact products w*v
        differ from the tabulated fl(w*v) by u each.
        """
        terms = self.levels
        c = 1.01 * (2 * terms * self._entry_err + (terms + 2) * U)
        return c * self.total_w, (c + 1.01 * U) * self.total_wv

    def level_mass(self, lo, hi, thresholds):
        """(estimate, radius) of the window kernel's Sum w*[v > theta] per
        range.

        The kernel sums exactly the terms w_i of the cells above theta, in
        some float order: within gamma_{side-1} of their exact sum.
        """
        est, _ = self.upper_sums(lo, hi, thresholds, with_wv=False)
        e_w, _ = self._radii()
        gamma = _gamma(hi - lo - 1)
        return est, _widen((1 + gamma) * e_w + gamma * np.abs(est), est)

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
        b, a = self.upper_sums(lo, hi, means, with_wv=True)
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
