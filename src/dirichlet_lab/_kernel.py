"""The Dirichlet-polynomial kernel: sum_n c_n n^{-s} at each point of an array
or at each node of a VerticalLine.

One block loop serves every call.  It splits the terms into blocks whose
size depends only on the number of points, never on the worker count,
builds c_n n^{-points} for each block, and reduces it by the column sum or,
given vertical shifts, by the matrix product exp(-i shifts log n) @
(c_n n^{-points}), since n^{-(s + it)} = n^{-it} n^{-s}.  A VerticalLine is
such a table: its nodes are bases + offsets, the offsets are the points and
the bases the shifts, one matrix product instead of one complex exp per
(node, term); _cis builds each of its exp tables from square-root-sized
factors.  The caller states the line, so nothing is detected and no node
needs a correction.  A caller that needs only a reduction of each shifted
row (the recurrence scan's disc integrals) passes a reduce function: the
loop hands it the rows _ROW_POINTS entries at a time, while they are in
cache, and a polynomial within one term block never holds more than one
such chunk.  `disc_sum` folds an array of points into the coefficients:
sum_p f(p + s) is the polynomial with coefficients c_n sum_p n^{-p}, whose
values bound the scan's disc integrals from below at O(terms) per shift.
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["DirichletPolynomial", "VerticalLine"]

# Desk-scale cap on the terms of a polynomial or a dense coefficient table
# (about 1 GB of tables); larger term counts are refused before allocating.
_MAX_TERMS = 20_000_000

# Elementwise work arrays (terms x points, or terms x table rows) are capped
# at this many entries.
_CAP = 4_000_000

# Rows handed to a reduce function go this many table entries (at least one
# row) at a time: 1 MB of complex values.
_ROW_POINTS = 1 << 16


@dataclass(frozen=True)
class VerticalLine:
    """The count nodes sigma + i t_j, j = 0..count-1, of a vertical line with
    t_j = t0 + j h up to a few ulps.

    Node j = a m + c, with m = ceil(sqrt(count)) and c < m, has its offset
    index c = qc ko + rc and its base index a = qa kb + ra, where ko and kb
    are the ceilings of the square roots of m and of the number of bases.
    t_j is defined as the exact sum of four floats,

        fl(t0 + fl(qa kb m h)) + fl(ra m h) + fl(qc ko h) + fl(rc h),

    the factors of the kernel's exp tables (_cis).  So t_0 is t0, and t_j is
    within 2^-53 (|t0| + 3 j |h|) of t0 + j h.  `np.asarray(line)` gives the
    nodes as a complex array, each t_j rounded to a float (within one ulp),
    and `size` is their count.  A line is a plain value: a slice or an
    arithmetic result goes through that array and is no longer a line.
    """

    sigma: float
    t0: float
    h: float
    count: int

    @property
    def size(self) -> int:
        return self.count

    def _digits(self):
        """((hi, lo, m), (hi, lo, nb)): the offset and the base digits, with
        node a m + c at the sum of hi[qc] + lo[rc] and hi[qa] + lo[ra]."""
        m = math.isqrt(max(self.count - 1, 0)) + 1
        nb = -(-self.count // m)
        ko, kb = math.isqrt(m - 1) + 1, math.isqrt(max(nb - 1, 0)) + 1

        def times_h(stop, step):  # fl(index h) for index = 0, step, ... < stop
            return np.arange(0, stop, step, dtype=np.float64) * self.h

        offsets = times_h(m, ko), times_h(ko, 1), m
        return offsets, (self.t0 + times_h(nb * m, kb * m), times_h(kb * m, m), nb)

    def __array__(self, dtype=None, copy=None):
        # The offsets and the bases as sums and rounding errors (_two_sum);
        # a node is the rounded sum of its two sums and three errors, within
        # one ulp of the exact sum.
        sums = []
        for hi, lo, rows in self._digits():
            s, e = _two_sum(hi[:, None], lo[None, :])
            sums.append((s.ravel()[:rows], e.ravel()[:rows]))
        (o, oe), (b, be) = sums
        t, te = _two_sum(b[:, None], o[None, :])
        t += te + (be[:, None] + oe[None, :])
        out = np.empty(self.count, np.complex128)
        out.real = self.sigma
        out.imag = t.ravel()[: self.count]
        return out if dtype is None else out.astype(dtype, copy=False)


def _two_sum(a, b):
    """(s, e) with s = fl(a + b) and s + e = a + b exactly (Knuth)."""
    s = a + b
    v = s - a
    return s, (a - (s - v)) + (b - v)


class DirichletPolynomial:
    """sum_n c_n n^{-s} over fixed indices; zero coefficients are dropped."""

    def __init__(self, indices, coeffs):
        coeffs = np.asarray(coeffs, dtype=np.complex128)
        keep = coeffs != 0
        self.coeffs = coeffs[keep]
        self.logs = np.log(np.asarray(indices, dtype=np.float64)[keep])

    def __call__(self, s):
        """Values at every point of s: a complex for a scalar, otherwise an
        array of the shape of s.  A VerticalLine gives its count values, at
        its exact nodes, by the factored matrix product when its two tables
        (m offsets and nb bases) are smaller than the line (nb + m < count),
        and otherwise by the column sum at np.asarray(s).

        Overflow to inf or nan is left in the result; callers guard
        non-finite values.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            if isinstance(s, VerticalLine):
                (_, _, m), (_, _, nb) = s._digits()
                if nb + m < s.count:
                    return self._table(None, line=s).ravel()[: s.count]
            arr = np.asarray(s, dtype=np.complex128)
            out = self._table(arr.ravel())[0]
        if arr.ndim == 0:
            return complex(out[0])
        return out.reshape(arr.shape)

    def shifted(self, points, shifts, reduce=None) -> np.ndarray:
        """(shifts x points) table of sum_n c_n n^{-(points[j] + i shifts[k])}.

        The term blocks depend on the number of points only, and a row's
        bits do not depend on the rows computed with it, so they do not
        depend on how many shifts come with it.  With reduce, the table goes
        to reduce(rows) in chunks of its rows, which reduce may overwrite,
        and the concatenated results are returned instead.
        """
        points = np.asarray(points, dtype=np.complex128)
        shifts = np.asarray(shifts, dtype=np.float64)
        with np.errstate(over="ignore", invalid="ignore"):
            return self._table(points, shifts, reduce=reduce)

    def weights(self, sigma: float):
        """(F, L, R) at real part sigma: F = sum_n |c_n| n^{-sigma},
        L = sum_n |c_n| |log n| n^{-sigma} and R^2 = sum_n |c_n|^2 n^{-2 sigma}.
        Every index is at least 1, so each term falls as sigma grows: on
        Re s >= sigma, F bounds |f(s)| and L bounds |f'(s)|, which makes L a
        Lipschitz constant of f there.  R^2 is the mean of |f(sigma + it)|^2
        over t, the typical size of f on the line.  An overflow leaves them
        non-finite."""
        with np.errstate(over="ignore", invalid="ignore"):
            mags = np.abs(self.coeffs) * np.exp(-sigma * self.logs)
            return (
                float(mags.sum()),
                float(mags @ np.abs(self.logs)),
                math.sqrt(float(mags @ mags)),
            )

    def disc_sum(self, points):
        """(g, weight) for the sum over an array of points p of the shifted
        polynomial: g(s) = sum_p f(p + s), the polynomial over the same logs
        with coefficients c_n S_n, S_n = sum_p n^{-p}, and

            weight = sum_n |c_n| sum_p max(n^{-Re p}, tiny) + K P tiny,

        with K terms, P points and tiny the smallest normal float.  The
        weight is the sum of the moduli of the K P terms c_n n^{-p}, which
        scales every rounding error of this kernel's values of f at the
        points (shifted or not); the floors make each underflow a relative
        error of it too.  S_n is summed in term blocks of _CAP / P terms, so
        g costs one pass over the terms x points table, and g at s = i t for
        every t of ts is one matrix product per term block,
        `g.shifted(np.zeros(1), ts)`.  An overflow leaves the weight or
        coefficients non-finite.
        """
        points = np.asarray(points, dtype=np.complex128)
        sums = np.empty_like(self.coeffs)
        mags = np.empty(self.logs.size)
        blk = max(1, _CAP // max(1, points.size))
        tiny = np.finfo(np.float64).tiny
        with np.errstate(over="ignore", invalid="ignore"):
            for lo in range(0, self.logs.size, blk):
                terms = np.exp(np.multiply.outer(-self.logs[lo : lo + blk], points))
                sums[lo : lo + blk] = terms.sum(axis=1)
                mags[lo : lo + blk] = np.maximum(np.abs(terms), tiny).sum(axis=1)
            weight = float(np.abs(self.coeffs) @ mags) + self.logs.size * points.size * tiny
            # Same indices: keep the logs rather than exp and log them again.
            g = DirichletPolynomial.__new__(DirichletPolynomial)
            g.logs, g.coeffs = self.logs, self.coeffs * sums
        return g, weight

    def _table(self, points, shifts=None, reduce=None, line=None) -> np.ndarray:
        """The one block loop: the (shifts x points) table, or with no
        shifts the (1 x points) row of sums.  Given a VerticalLine, the
        (bases x offsets) table of its nodes instead (points and shifts
        unused): the points are sigma + i offsets and the shifts the bases,
        both exp tables from _cis over its digits.

        Given shifts and reduce, the rows go to reduce _ROW_POINTS // width
        at a time, as soon as their last term block is added.  Within one
        term block every chunk is built in the same buffer, so the whole
        table never exists."""
        if line is None:
            width, n = points.size, 1 if shifts is None else shifts.size
        else:
            offsets, bases = line._digits()
            width, n = offsets[2], bases[2]
        terms = self.logs.size
        blk = max(1, _CAP // max(1, width))
        chunk = max(1, _ROW_POINTS // max(1, width))
        reuse = reduce is not None and terms <= blk
        out = np.empty((min(chunk, n) if reuse else n, width), np.complex128)
        reduced = []
        # An empty polynomial still runs one empty block, which writes zeros.
        for lo in range(0, max(1, terms), blk):
            logs, coeffs = self.logs[lo : lo + blk], self.coeffs[lo : lo + blk]
            if line is None:
                right = np.multiply.outer(-logs, points)
                np.exp(right, out=right)
                right *= coeffs[:, None]
            else:
                right = _cis(*offsets, logs, coeffs * np.exp(-line.sigma * logs)).T
            if line is None and shifts is None:
                out[0] = out[0] + right.sum(axis=0) if lo else right.sum(axis=0)
                continue
            # Given a line, rows >= width >= n: the left table is built whole.
            rows = chunk if reduce is not None else _CAP // max(1, logs.size)
            for r in range(0, n, rows):
                if line is None:
                    left = np.exp(-1j * np.multiply.outer(shifts[r : r + rows], logs))
                else:
                    left = _cis(*bases, logs)
                part = out[: left.shape[0]] if reuse else out[r : r + rows]
                _product(left, right, part, add=lo > 0)
                if reduce is not None and lo + blk >= terms:
                    reduced.append(reduce(part))
        return out if reduce is None else np.concatenate(reduced)


def _cis(hi, lo, rows, logs, amp=1.0) -> np.ndarray:
    """The (rows x terms) table amp_n exp(-i (hi[q] + lo[r]) log n) at row
    q lo.size + r: each entry the product of one of a hi table and one of a
    lo table, both of square-root size."""
    left = np.exp(-1j * np.multiply.outer(hi, logs))
    right = np.exp(-1j * np.multiply.outer(lo, logs)) * amp
    out = np.empty((hi.size, lo.size, logs.size), np.complex128)
    np.multiply(left[:, None], right, out=out)
    return out.reshape(-1, logs.size)[:rows]


def _product(left: np.ndarray, right: np.ndarray, out: np.ndarray, add: bool):
    """out = left @ right, or out += left @ right, by the matrix-matrix kernel.

    numpy hands a one-row product to BLAS's matrix-vector kernel, whose
    rounding differs from the matrix-matrix one; a copied second row keeps
    the bits of a row the same whatever its neighbours.  That row is added
    to zeros, not assigned, so an exact zero sum reads +0.0 (0 + -0.0).
    """
    if left.shape[0] == 1:
        if not add:
            out[...] = 0
        out += (np.concatenate((left, left)) @ right)[:1]
    elif add:
        out += left @ right
    else:
        np.matmul(left, right, out=out)
