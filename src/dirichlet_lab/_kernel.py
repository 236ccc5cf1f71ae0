"""The Dirichlet-polynomial kernel: sum_n c_n n^{-s} at each point of an array.

Two evaluation paths, chosen from the points alone:

- separable: the points lie on one vertical line and their imaginary parts
  form a base + offset grid (checked on every point).  Then
  n^{-(sigma + i(b + o))} = n^{-(sigma + ib)} n^{-io}, so the sum is one
  complex matrix product of a (bases x terms) table with a (terms x offsets)
  table, instead of one complex exp per (point, term).
- direct: every other input, as a blocked outer product of terms x points.

Both paths split the terms into fixed blocks whose size depends only on the
number of points, never on the worker count.

`shifted` tabulates the sum at every point moved by every vertical shift:
n^{-(s + it)} = n^{-it} n^{-s}, so the (shifts x points) table is one complex
matrix product per term block.
"""

import math

import numpy as np

__all__ = ["DirichletPolynomial"]

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

    def __call__(self, s) -> np.ndarray:
        """Values at every point of the 1-D array s.

        Overflow to inf or nan is left in the result; callers guard
        non-finite values.
        """
        s = np.asarray(s, dtype=np.complex128)
        with np.errstate(over="ignore", invalid="ignore"):
            grid = _vertical_grid(s)
            if grid is None:
                return self._direct(s)
            return self._separable(s.real[0], *grid)

    def _blocks(self, width: int):
        blk = max(1, _CAP // max(1, width))
        for lo in range(0, self.logs.size, blk):
            yield slice(lo, lo + blk)

    def shifted(self, points, shifts) -> np.ndarray:
        """(shifts x points) table of sum_n c_n n^{-(points[j] + i shifts[k])}.

        Each term block is exp(-i shifts log n) @ (c_n n^{-points}), with
        the shifts taken _CAP // (block terms) rows at a time.  The blocks
        depend on the number of points only, so the bits of a row do not
        depend on how many shifts come with it.
        """
        points = np.asarray(points, dtype=np.complex128)
        shifts = np.asarray(shifts, dtype=np.float64)
        out = np.zeros((shifts.size, points.size), dtype=np.complex128)
        with np.errstate(over="ignore", invalid="ignore"):
            for i, b in enumerate(self._blocks(points.size)):
                logs = self.logs[b]
                right = self.coeffs[b, None] * np.exp(-logs[:, None] * points[None, :])
                rows = _CAP // logs.size
                for lo in range(0, shifts.size, rows):
                    left = np.exp(-1j * np.multiply.outer(shifts[lo : lo + rows], logs))
                    _product(left, right, out[lo : lo + rows], add=i > 0)
        return out

    def _direct(self, s: np.ndarray) -> np.ndarray:
        out = None
        for b in self._blocks(s.size):
            terms = np.multiply.outer(-self.logs[b], s)
            np.exp(terms, out=terms)
            terms *= self.coeffs[b, None]
            if out is None:
                out = terms.sum(axis=0)
            else:
                out += terms.sum(axis=0)
        return np.zeros(s.shape, dtype=np.complex128) if out is None else out

    def _separable(self, sigma, bases, offsets, resid) -> np.ndarray:
        # Point a m + c sits at t = bases[a] + offsets[c] + resid, and its
        # terms are left[a, n] right[n, c] exp(-i resid log n).  To first
        # order in resid log n, which is no larger than the rounding of
        # t log n that the direct path makes, the sum is F - i resid G, where
        # G weights every term by log n.  One product gives both F and G.
        rows = sigma + 1j * bases
        nb = bases.size
        out = np.zeros((2 * nb, offsets.size), dtype=np.complex128)
        for b in self._blocks(2 * nb + offsets.size):
            left = self.coeffs[None, b] * np.exp(-rows[:, None] * self.logs[None, b])
            right = np.exp(-1j * (self.logs[b, None] * offsets[None, :]))
            out += np.concatenate((left, left * self.logs[None, b])) @ right
        P = resid.size
        return out[:nb].ravel()[:P] - 1j * resid * out[nb:].ravel()[:P]


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
    smaller than the P rows of the direct product.
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
