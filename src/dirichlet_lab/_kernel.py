"""The Dirichlet-polynomial kernel: sum_n c_n n^{-s} at each point of an array.

One block loop serves every call.  It splits the terms into blocks whose
size depends only on the number of points, never on the worker count,
builds c_n n^{-points} for each block, and reduces it by the column sum or,
given vertical shifts, by the matrix product exp(-i shifts log n) @
(c_n n^{-points}), since n^{-(s + it)} = n^{-it} n^{-s}.  Points on one
vertical line whose imaginary parts form a base + offset grid (checked on
every point) are such a table: the offsets are the points and the bases the
shifts, one matrix product instead of one complex exp per (point, term).
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
                bases, offsets, resid = grid
                m, P = offsets.size, flat.size
                line = flat.real[0] + 1j * offsets
                table = self._table(line, bases, weighted=True)
                out = table[:, :m].ravel()[:P] - 1j * resid * table[:, m:].ravel()[:P]
        if arr.ndim == 0:
            return complex(out[0])
        return out.reshape(arr.shape)

    def shifted(self, points, shifts) -> np.ndarray:
        """(shifts x points) table of sum_n c_n n^{-(points[j] + i shifts[k])}.

        The shifts are taken _CAP // (block terms) rows at a time, and the
        blocks depend on the number of points only, so the bits of a row do
        not depend on how many shifts come with it.
        """
        points = np.asarray(points, dtype=np.complex128)
        shifts = np.asarray(shifts, dtype=np.float64)
        with np.errstate(over="ignore", invalid="ignore"):
            return self._table(points, shifts)

    def _table(self, points, shifts=None, weighted=False) -> np.ndarray:
        """The one block loop: the (shifts x points) table, or with no
        shifts the (1 x points) row of sums.  A weighted table has as many
        companion columns again, with every term weighted by log n."""
        width = points.size * (2 if weighted else 1)
        out = np.zeros((1 if shifts is None else shifts.size, width), np.complex128)
        blk = max(1, _CAP // max(1, width))
        for lo in range(0, self.logs.size, blk):
            logs = self.logs[lo : lo + blk]
            right = np.multiply.outer(-logs, points)
            np.exp(right, out=right)
            right *= self.coeffs[lo : lo + blk, None]
            if weighted:
                right = np.concatenate((right, right * logs[:, None]), axis=1)
            if shifts is None:
                out[0] = out[0] + right.sum(axis=0) if lo else right.sum(axis=0)
            else:
                rows = _CAP // logs.size
                for r in range(0, shifts.size, rows):
                    left = np.exp(-1j * np.multiply.outer(shifts[r : r + rows], logs))
                    _product(left, right, out[r : r + rows], add=lo > 0)
        return out


def _product(left: np.ndarray, right: np.ndarray, out: np.ndarray, add: bool):
    """out = left @ right, or out += left @ right, by the matrix-matrix kernel.

    numpy hands a one-row product to BLAS's matrix-vector kernel, whose
    rounding differs from the matrix-matrix one; a copied second row keeps
    the bits of a row the same whatever its neighbours.  out must start at
    zero, so that the one-row case can always add.
    """
    if left.shape[0] == 1:
        out += (np.concatenate((left, left)) @ right)[:1]
    elif add:
        out += left @ right
    else:
        np.matmul(left, right, out=out)


def _vertical_grid(s: np.ndarray):
    """(bases, offsets, resid) when every point is
    sigma + i(bases[a] + offsets[c] + resid[a m + c]) at index a m + c, with
    m = ceil(sqrt(P)) and every |resid| within 2 ulps of max |t|; None
    otherwise.

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
    bases = t[::m]
    offsets = t[:m] - t[0]
    grid = (bases[:, None] + offsets[None, :]).ravel()[:P]
    resid = t - grid
    if not np.all(np.abs(resid) <= _GRID_ULPS * np.spacing(np.abs(t).max())):
        return None
    return bases, offsets, resid
