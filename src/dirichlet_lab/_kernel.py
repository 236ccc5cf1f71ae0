"""The Dirichlet-polynomial kernel: sum_n c_n n^{-s} at each point of an array.

One block loop serves every call.  It splits the terms into blocks whose
size depends only on the number of points, never on the worker count,
builds c_n n^{-points} for each block, and reduces it by the column sum or,
given vertical shifts, by the matrix product exp(-i shifts log n) @
(c_n n^{-points}), since n^{-(s + it)} = n^{-it} n^{-s}.  Points on one
vertical line whose imaginary parts form a base + offset grid (checked on
every point) are such a table: the offsets are the points and the bases the
shifts, one matrix product instead of one complex exp per (point, term);
_cis builds each of its exp tables from square-root-sized factors.  A
caller that needs only a reduction of each shifted row (the recurrence scan's
disc integrals) passes a reduce function: the loop hands it the rows
_ROW_POINTS entries at a time, while they are in cache, and a polynomial
within one term block never holds more than one such chunk.  `disc_sum`
folds an array of points into the coefficients: sum_p f(p + s) is the
polynomial with coefficients c_n sum_p n^{-p}, whose values bound the
scan's disc integrals from below at O(terms) per shift.
"""

import math

import numpy as np

__all__ = ["DirichletPolynomial"]

# Desk-scale cap on the terms of a polynomial or a dense coefficient table
# (about 1 GB of tables); larger term counts are refused before allocating.
_MAX_TERMS = 20_000_000

# Elementwise work arrays (terms x points, or terms x table rows) are capped
# at this many entries.
_CAP = 4_000_000

# Rows handed to a reduce function go this many table entries (at least one
# row) at a time: 1 MB of complex values.
_ROW_POINTS = 1 << 16

# How far t[a m + c] may sit from t[a m] + (t[c] - t[0]) for the points to
# count as a base + offset grid, in ulps of max |t|.  Rounded uniform grids
# such as t = j h miss the exact sum by about one ulp.
_GRID_ULPS = 2.0


class DirichletPolynomial:
    """sum_n c_n n^{-s} over fixed indices; zero coefficients are dropped."""

    def __init__(self, indices, coeffs):
        coeffs = np.asarray(coeffs, dtype=np.complex128)
        keep = coeffs != 0
        self.coeffs = coeffs[keep]
        self.logs = np.log(np.asarray(indices, dtype=np.float64)[keep])

    def __call__(self, s):
        """Values at every point of s: a complex for a scalar, otherwise an
        array of the shape of s.

        Overflow to inf or nan is left in the result; callers guard
        non-finite values.
        """
        arr = np.asarray(s, dtype=np.complex128)
        flat = arr.ravel()
        with np.errstate(over="ignore", invalid="ignore"):
            grid = _vertical_grid(flat)
            if grid is None:
                out = self._table(flat)[0]
            else:
                # Point a m + c sits at t = bases[a] + offsets[c] + resid.
                # To first order in resid log n, which is no larger than the
                # rounding of t log n in the column sum, its sum is
                # F - i resid G, where G weights every term by log n.
                sigma, offsets, bases, ks, resid = grid
                m, P = offsets.size, flat.size
                table = self._table(offsets, bases, grid=(sigma, *ks))
                out = table[:, :m].ravel()[:P] - 1j * resid[:P] * table[:, m:].ravel()[:P]
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

    def _table(self, points, shifts=None, reduce=None, grid=None) -> np.ndarray:
        """The one block loop: the (shifts x points) table, or with no
        shifts the (1 x points) row of sums.  Given grid = (sigma, k, kb),
        the points are sigma + i offsets, both exp tables come from _cis, and
        as many companion columns again weight every term by log n.

        Given shifts and reduce, the rows go to reduce _ROW_POINTS // width
        at a time, as soon as their last term block is added.  Within one
        term block every chunk is built in the same buffer, so the whole
        table never exists."""
        width = points.size * (1 if grid is None else 2)
        n = 1 if shifts is None else shifts.size
        terms = self.logs.size
        blk = max(1, _CAP // max(1, width))
        chunk = max(1, _ROW_POINTS // max(1, width))
        reuse = reduce is not None and terms <= blk
        out = np.empty((min(chunk, n) if reuse else n, width), np.complex128)
        reduced = []
        # An empty polynomial still runs one empty block, which writes zeros.
        for lo in range(0, max(1, terms), blk):
            logs, coeffs = self.logs[lo : lo + blk], self.coeffs[lo : lo + blk]
            if grid is None:
                right = np.multiply.outer(-logs, points)
                np.exp(right, out=right)
                right *= coeffs[:, None]
            else:
                # Transposed, so that the factors' products run along terms.
                right = np.empty((width, logs.size), np.complex128)
                _cis(points, grid[1], logs, coeffs * np.exp(-grid[0] * logs), right)
                np.multiply(right[: points.size], logs, out=right[points.size :])
                right = right.T
            if shifts is None:
                out[0] = out[0] + right.sum(axis=0) if lo else right.sum(axis=0)
                continue
            # Given grid, rows >= width > n: the left table is built whole.
            rows = chunk if reduce is not None else _CAP // max(1, logs.size)
            for r in range(0, n, rows):
                if grid is None:
                    left = np.exp(-1j * np.multiply.outer(shifts[r : r + rows], logs))
                else:
                    left = _cis(shifts, grid[2], logs)
                part = out[: left.shape[0]] if reuse else out[r : r + rows]
                _product(left, right, part, add=lo > 0)
                if reduce is not None and lo + blk >= terms:
                    reduced.append(reduce(part))
        return out if reduce is None else np.concatenate(reduced)


def _cis(x, k, logs, amp=1.0, out=None) -> np.ndarray:
    """The (x.size x terms) table amp_n exp(-i x log n), row q k + r the product
    of those of x[q k] and x[r] - x[0] (_split), in the first rows of out."""
    hi = np.exp(-1j * np.multiply.outer(x[::k], logs))
    lo = np.exp(-1j * np.multiply.outer(x[:k] - x[0], logs)) * amp
    if out is None:
        out = np.empty((hi.shape[0] * k, logs.size), np.complex128)
    np.multiply(hi[:, None], lo, out=out[: hi.shape[0] * k].reshape(hi.shape[0], k, -1))
    return out[: x.size]


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


def _vertical_grid(s: np.ndarray):
    """(sigma, offsets, bases, ks, resid) when every point is
    sigma + i(bases[a] + offsets[c] + resid[a m + c]) at index a m + c, with
    m = ceil(sqrt(P)) and every |resid| within 2 ulps of max |t|; None
    otherwise.  ks splits offsets and bases (_cis) at ceil(sqrt(size)) where
    that passes the same check, its residuals added to resid (zero-padded to
    nb m), and at 1 where not, as for the irregular bases of refinements.

    The grid pays only when its two tables (bases + offsets rows) are
    smaller than the P rows of the column sum.
    """
    P = s.size
    if P < 2:
        return None
    m = math.isqrt(P - 1) + 1
    nb = -(-P // m)
    if nb + m >= P:
        return None
    re = s.real
    if not np.all(re == re[0]):
        return None
    t = s.imag
    tol = _GRID_ULPS * np.spacing(np.abs(t).max())
    resid = _split(t, m, tol)
    if resid is None:
        return None
    offsets, bases, rows, ks = t[:m] - t[0], t[::m], resid.reshape(nb, m), []
    for x, view in ((offsets, rows), (bases, rows.T)):
        ks.append(math.isqrt(x.size - 1) + 1)
        r = _split(x, ks[-1], tol)
        if r is None:
            ks[-1] = 1
        else:
            view += r[: x.size]
    return re[0], offsets, bases, ks, resid


def _split(x: np.ndarray, k: int, tol: float):
    """The residuals x[q k + r] - (x[q k] + (x[r] - x[0])), zero-padded to a
    multiple of k entries; None unless every one is within tol."""
    resid = np.add.outer(x[::k], x[:k] - x[0]).ravel()
    np.subtract(x, resid[: x.size], out=resid[: x.size])
    resid[x.size :] = 0
    return resid if np.all(np.abs(resid) <= tol) else None
