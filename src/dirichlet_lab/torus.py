"""Kronecker flow on the torus: box-hitting fractions along the flow.

The flow is t -> ({t l_1}, ..., {t l_m}) with default frequencies
l_n = log(p_n) / 2 pi over the first m primes.  Time is sampled on the
right-endpoint grid t = step, 2 step, ..., T, so a box's hitting fraction is
the time average of its indicator.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError
from .parallel import finite_steps, map_spans
from .primes import log_frequencies

__all__ = [
    "Box",
    "FlowConfig",
    "TorusPoint",
    "box_hitting_fraction",
    "box_hitting_fractions",
    "standard_box_suite",
]

# Time-grid work proceeds in fixed windows of this many steps; the split is a
# function of the grid alone, so results cannot depend on the worker count.
_TIME_CHUNK = 1_000_000
# Each window is walked in blocks of this many steps, one coordinate row at a
# time, through buffers reused by every block (about 2.7 MB for the ten-box
# suite).  Counts are exact integers, so the size moves no byte.
_BLOCK = 1 << 16


@dataclass(frozen=True, eq=False)
class TorusPoint:
    """A finite truncation of a torus point; coords[i] pairs with the
    (i+1)-th prime in flow contexts."""

    coords: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "coords", np.asarray(self.coords, dtype=np.float64)
        )


@dataclass(frozen=True)
class FlowConfig:
    """Flow parameters: dimension, frequencies, horizon, and grid step."""

    dims: int
    T: float
    step: float = 0.01
    lam: tuple = None  # default: log p_n / 2 pi over the first dims primes

    def __post_init__(self):
        if self.dims < 1:
            raise PreconditionError("flow dimension must be >= 1")
        if self.T <= 0:
            raise PreconditionError("flow horizon must be positive")
        if self.step <= 0:
            raise PreconditionError("flow step must be positive")
        finite_steps(self.T, self.step, "flow grid")
        lam = log_frequencies(self.dims) if self.lam is None else self.lam
        lam = tuple(float(x) for x in lam)
        if len(lam) != self.dims:
            raise PreconditionError("frequency vector length must equal dims")
        object.__setattr__(self, "lam", lam)

    def grid_size(self) -> int:
        return int(round(self.T / self.step))


@dataclass(frozen=True)
class Box:
    """Axis-aligned half-open box prod [lo_i, hi_i) inside the unit cube."""

    lo: tuple
    hi: tuple

    def __post_init__(self):
        lo = tuple(float(x) for x in self.lo)
        hi = tuple(float(x) for x in self.hi)
        if len(lo) != len(hi) or not lo:
            raise PreconditionError("box needs matching nonempty lo/hi")
        for u, v in zip(lo, hi):
            if not (0.0 <= u < v <= 1.0):
                raise PreconditionError("box intervals must satisfy 0 <= u < v <= 1")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def dims(self) -> int:
        return len(self.lo)

    @property
    def volume(self) -> float:
        return math.prod(v - u for u, v in zip(self.lo, self.hi))

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Boolean mask for points (k, m) with m >= dims; extra coordinates
        are unconstrained (cylinder-set semantics)."""
        pts = np.atleast_2d(points)
        if pts.shape[1] < self.dims:
            raise PreconditionError("points have fewer coordinates than the box")
        inside = np.ones(pts.shape[0], dtype=bool)
        for i, (u, v) in enumerate(zip(self.lo, self.hi)):
            inside &= (pts[:, i] >= u) & (pts[:, i] < v)
        return inside


def _block_times(cfg: FlowConfig, lo: int, hi: int):
    """Grid times for steps lo+1..hi, _BLOCK steps at a time, each a view
    of one buffer allocated per call, which the next block overwrites."""
    size = min(_BLOCK, hi - lo)
    steps = np.arange(1, size + 1, dtype=np.float64)
    ts = np.empty(size)
    for start in range(lo, hi, _BLOCK):
        k = min(_BLOCK, hi - start)
        # Right endpoints (start+1..start+k) * step, from exact integer
        # floats; t=0 is deliberately excluded.
        t = np.add(steps[:k], start, out=ts[:k])
        t *= cfg.step
        yield t


def _flow_row(t, lam: float, out=None, scratch=None) -> np.ndarray:
    """The flow coordinate {t lam} over the times t, into out."""
    x = np.multiply(t, lam, out=out)
    # Exact, and equal to np.mod(x, 1.0), for every finite value.
    return np.subtract(x, np.floor(x, out=scratch), out=x)


def _flow_columns(cfg: FlowConfig, lo: int, hi: int) -> np.ndarray:
    """Flow points for grid steps lo+1..hi as one (dims, k) array whose row
    i is the coordinate {t lam_i}."""
    blocks = _block_times(cfg, lo, hi)
    rows = [np.stack([_flow_row(t, lam) for lam in cfg.lam]) for t in blocks]
    return np.concatenate(rows, axis=1)


def _row_tests(boxes) -> dict:
    """Each coordinate's tests [(box j, ufunc, edge, first)], keys ascending.

    first marks a box's first test, which writes the box's mask; its others
    are and-ed in.  A lower edge at 0 is dropped: x - floor(x) >= 0 for every
    finite x, and a NaN still fails the `< v` test, which every coordinate
    keeps.  An upper edge at 1 is kept, because a tiny negative x rounds
    x - floor(x) up to 1.0.
    """
    rows = {}
    for j, box in enumerate(boxes):
        for i, (u, v) in enumerate(zip(box.lo, box.hi)):
            tests = rows.setdefault(i, [])
            if u > 0.0:
                tests.append((j, np.greater_equal, u, i == 0))
            tests.append((j, np.less, v, i == 0 and u == 0.0))
    return rows


def box_hitting_fractions(cfg: FlowConfig, boxes, threads=None) -> list:
    """Fraction of grid times in (0, T] whose flow point lies in each box.

    The grid is walked once for all boxes, in blocks of _BLOCK steps and one
    coordinate row at a time; a row is built only if a box tests it.  The
    buffers are allocated once per window, so memory does not grow with the
    window.  The grid resolution limit is step/T.  Window counts are
    integers below 2^53, so their fsum is exact: each result is count / npts.
    """
    boxes = list(boxes)
    if any(box.dims > cfg.dims for box in boxes):
        raise PreconditionError("box dimension exceeds flow dimension")
    npts = cfg.grid_size()
    if npts < 1:
        raise PreconditionError("horizon shorter than one step")
    row_tests = _row_tests(boxes)

    def counts(lo, hi):
        size = min(_BLOCK, hi - lo)
        x, floor = np.empty(size), np.empty(size)
        masks = np.empty((len(boxes), size), dtype=bool)
        edge = np.empty(size, dtype=bool)
        totals = [0] * len(boxes)
        for t in _block_times(cfg, lo, hi):
            k = t.size
            mask, tmp = masks[:, :k], edge[:k]
            for i, tests in row_tests.items():
                row = _flow_row(t, cfg.lam[i], x[:k], floor[:k])
                for j, op, e, first in tests:
                    if first:
                        op(row, e, out=mask[j])
                    else:
                        mask[j] &= op(row, e, out=tmp)
            totals = [n + int(np.count_nonzero(m)) for n, m in zip(totals, mask)]
        return totals

    windows = map_spans(counts, npts, _TIME_CHUNK, threads=threads)
    return [math.fsum(column) / npts for column in zip(*windows)]


def box_hitting_fraction(cfg: FlowConfig, box: Box, threads=None) -> float:
    """Fraction of grid times in (0, T] whose flow point lies in the box:
    the one-box case of box_hitting_fractions."""
    return box_hitting_fractions(cfg, [box], threads)[0]


def standard_box_suite():
    """Fixed ten-box suite (dims 1..4) used by the equidistribution checks."""
    raw = [
        ((0.0,), (0.5,)),
        ((0.25,), (0.75,)),
        ((0.0, 0.0), (0.5, 0.5)),
        ((0.1, 0.2), (0.9, 0.7)),
        ((0.3, 0.3), (0.4, 0.8)),
        ((0.0, 0.0, 0.0), (0.5, 0.5, 0.5)),
        ((0.2, 0.2, 0.2), (0.8, 0.8, 0.8)),
        ((0.0, 0.5, 0.25), (0.25, 1.0, 0.75)),
        ((0.0, 0.0, 0.0, 0.0), (0.5, 0.5, 0.5, 0.5)),
        ((0.1, 0.1, 0.1, 0.1), (0.6, 0.9, 0.7, 0.35)),
    ]
    return [Box(lo=lo, hi=hi) for lo, hi in raw]
