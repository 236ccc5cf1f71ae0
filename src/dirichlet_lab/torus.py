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
# Each window is counted in blocks of this many steps.  A block holds only
# its own change points (a tracemalloc peak of about 1.2 MB for the ten-box
# suite at step 0.01).  Counts are exact integers, so the size moves no byte.
_BLOCK = 1 << 18
# A block with many changes takes its cells at every step, in chunks of this
# many steps, whose arrays stay in cache.
_CHUNK = 1 << 16


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


def _split(n, step: float, lam: float):
    """floor(x) and x - floor(x), which is np.mod(x, 1.0), for the flow
    coordinate x = (n step) lam at the steps n (integral floats)."""
    x = n * step
    x *= lam
    level = np.floor(x)
    x -= level
    return level, x


def _first_steps(pred, n, lo: float, hi: float):
    """The least step in (lo, hi] at which pred(steps, idx) holds for each
    threshold idx, given that it fails at lo, holds at hi and is monotone
    between.  Each estimate n is checked with its left neighbour; bisection
    finds the few that are off."""
    n = np.fmax(np.fmin(n, hi), lo + 1.0)  # a NaN estimate -> hi
    every = slice(None)
    off = np.flatnonzero(pred(n - 1.0, every) | ~pred(n, every))
    below, above = np.full(off.size, lo), np.full(off.size, hi)
    while off.size and (above - below).max() > 1.0:
        mid = (below + above) // 2
        hit = pred(mid, off)
        above = np.where(hit, mid, above)
        below = np.where(hit, below, mid)
    n[off] = above
    return n


def _cells(frac, edges):
    """The cell of each fractional part: the number of edges <= it."""
    cells = np.zeros(frac.size, np.min_scalar_type(edges.size))
    for e in edges:
        cells += frac >= e
    return cells


def _end_ranks(step: float, lam: float, edges, first: float, last: float):
    """One coordinate's keys (floor x, x - floor x) at steps first and last,
    ranked among the thresholds (m, e) in lexicographic order: the start of
    level m (e = 0; no edge is 0) and then each edge of it.

    Threshold q counts from the first level's start (q = 0), so the key in
    cell c of level m has passed those up to (m - level[0]) * width + c.
    Returns level[0] and the two ranks, or None when the levels pass exact
    integers.
    """
    level, frac = _split(np.array([first, last]), step, lam)
    cells = np.searchsorted(edges, frac, "right")  # the edges <= frac, as in _cells
    if max(abs(level)) >= 2.0**52:
        return None
    width = edges.size + 1
    return level[0], int(cells[0]), int(level[1] - level[0]) * width + int(cells[1])


def _cell_changes(step: float, lam: float, edges, first: float, last: float, ranks):
    """One coordinate's cells over the steps first..last, from its end ranks.

    x_n is monotone in n, so (floor x_n, x_n - floor x_n) is monotone too,
    even where a tiny negative x rounds its part up to 1.0: the block
    crosses exactly the thresholds between its end ranks, each once.
    Returns the cell at step first, the later steps at which the cell
    changes, ascending, and the cell after each change (a step may repeat;
    the cells between its changes are cells too).
    """
    level, start, end = ranks
    width = edges.size + 1
    rising = lam > 0.0
    # In crossing order: upwards when rising, downwards when falling.
    q = np.arange(start + 1, end + 1) if rising else np.arange(start, end, -1)
    tm, j = np.divmod(q, width)
    tm = tm + level
    te = np.concatenate(([0.0], edges))[j]

    def pred(n, idx):
        level, frac = _split(n, step, lam)
        m = tm[idx]
        return ((level > m) | ((level == m) & (frac >= te[idx]))) == rising

    # The first step at or past (m + e) / (step lam) when rising, past it
    # when falling.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        guess = (tm + te) / (step * lam)
    guess = np.ceil(guess) if rising else np.floor(guess) + 1.0
    steps = _first_steps(pred, guess, first, last)
    # Passing an edge adds 1 to the cell; passing a level start resets it
    # from the top cell, edges.size, to 0.  A falling flow runs backwards.
    jumps = np.where(j == 0, -edges.size, 1)
    return start, steps, start + np.cumsum(jumps if rising else -jumps)


def _tallies(boxes, edges) -> list:
    """How runs of cells are tallied, as [(weights, reads)]: a run's code is
    the sum over coordinates i of weights[i][cell_i], and box j's count is
    the sum of the entries reads[j] of the tally's table."""
    shape = [e.size + 1 for e in edges]
    cuts = []  # on coordinate i, the cells of parts f with lo_i <= f < hi_i
    for box in boxes:
        cut = [slice(None)] * len(edges)
        for i, (u, v) in enumerate(zip(box.lo, box.hi)):
            start = np.searchsorted(edges[i], u) + 1 if u > 0.0 else 0
            cut[i] = slice(start, np.searchsorted(edges[i], v) + 1)
        cuts.append(tuple(cut))
    if math.prod(shape) <= _BLOCK:
        # One table with an entry per joint cell, in row-major order.
        strides = [math.prod(shape[i + 1 :]) for i in range(len(shape))]
        weights = [np.arange(n) * stride for n, stride in zip(shape, strides)]
        codes = np.arange(math.prod(shape)).reshape(shape)
        return [(weights, {j: codes[cut].ravel() for j, cut in enumerate(cuts)})]
    # A joint table larger than a block: a table per box instead, whose
    # code counts the coordinates on which the point lies in the box.
    tallies = []
    for j, cut in enumerate(cuts):
        weights = [np.zeros(n, dtype=np.int64) for n in shape]
        for w, c in zip(weights, cut):
            w[c] = 1
        tallies.append((weights, {j: len(shape)}))
    return tallies


def _tally_runs(tallies, tables, changes, first: float, last: float) -> None:
    """Adds to each tally's table the length of every run of codes over the
    steps first..last, from each coordinate's cell changes."""
    steps = np.concatenate([at for _, at, _ in changes])
    # Stable, so each coordinate's changes at one step keep their order and
    # every partial code is a code of the table.
    order = np.argsort(steps, kind="stable")
    starts = np.concatenate(([first], steps[order]))
    runs = np.diff(starts, append=last + 1.0)
    for (weights, _), table in zip(tallies, tables):
        code = sum(w[cell] for w, (cell, _, _) in zip(weights, changes))
        jumps = [np.diff(w[cells], prepend=w[cell]) for w, (cell, _, cells) in zip(weights, changes)]
        codes = np.cumsum(np.concatenate(([code], np.concatenate(jumps)[order])))
        table += np.bincount(codes, runs, table.size)


def box_hitting_fractions(cfg: FlowConfig, boxes, threads=None) -> list:
    """Fraction of grid times in (0, T] whose flow point lies in each box.

    The box edges cut coordinate i's [0, 1] into cells, and the grid is
    counted in blocks of _BLOCK steps by runs of cells, not step by step.
    In a block x_n = (n step) lam_i is monotone in n, so the pair
    (floor x_n, x_n - floor x_n) is monotone too, also where a tiny negative
    x rounds x - floor(x) up to 1.0, since that rounding is monotone in x.
    A coordinate's cell therefore changes only where the pair passes a level
    start or an edge: each such step is estimated as (m + e) / (step lam_i)
    and then found exactly by evaluating the same float expression at
    neighbouring steps until the test flips.  The changes of all
    coordinates, merged in step order, give one code per run, tallied by
    np.bincount into a table with an entry per joint cell; a box's count is
    the sum of its slice.  A block whose crossings would cost more than its
    cells (|step lam_i| times the cell count above about 1/8) takes every
    coordinate's cell at every step instead, in chunks of _CHUNK steps, and
    tallies each step's code.  A joint table larger than a block gives way
    to a table per box.  A block holds only its own change points, so
    memory does not grow with the window.  The grid resolution limit is
    step/T.  Counts are exact integers below 2^53, so their fsum is exact:
    each result is count / npts.

    Raises PreconditionError when a coordinate that some box tests has a
    non-finite lam_i or T lam_i.
    """
    boxes = list(boxes)
    if any(box.dims > cfg.dims for box in boxes):
        raise PreconditionError("box dimension exceeds flow dimension")
    npts = cfg.grid_size()
    if npts < 1:
        raise PreconditionError("horizon shorter than one step")
    tested = max((box.dims for box in boxes), default=0)
    t_end = max(cfg.T, npts * cfg.step)
    if not all(math.isfinite(t_end * lam) for lam in cfg.lam[:tested]):
        raise PreconditionError(
            "flow coordinates tested by a box need finite lam_i and T lam_i"
        )
    if not boxes:
        return []
    # A lower edge at 0 is never a cell boundary: x - floor(x) >= 0 for
    # every finite x.  An upper edge at 1 is one, because a tiny negative x
    # rounds x - floor(x) up to 1.0.
    edges = [set() for _ in range(tested)]
    for box in boxes:
        for i, (u, v) in enumerate(zip(box.lo, box.hi)):
            edges[i].update((u, v) if u > 0.0 else (v,))
    edges = [np.array(sorted(e)) for e in edges]
    tallies = _tallies(boxes, edges)

    def counts(lo, hi):
        tables = [np.zeros(sum(w.max() for w in weights) + 1) for weights, _ in tallies]
        for start in range(lo, hi, _BLOCK):
            first, last = start + 1.0, float(min(start + _BLOCK, hi))
            ranks = [_end_ranks(cfg.step, lam, e, first, last) for lam, e in zip(cfg.lam, edges)]
            # Finding a crossing costs about as much as eight steps' cells of
            # one coordinate, so a block with more crossings than that takes
            # the cells at every step.
            crossings = sum(math.inf if r is None else abs(r[2] - r[1]) for r in ranks)
            if crossings * 8 <= (last - first) * len(edges):
                changes = [
                    _cell_changes(cfg.step, lam, e, first, last, r)
                    for lam, e, r in zip(cfg.lam, edges, ranks)
                ]
                _tally_runs(tallies, tables, changes, first, last)
                continue
            for a in np.arange(first, last + 1.0, _CHUNK):
                ns = np.arange(a, min(a + _CHUNK - 1.0, last) + 1.0)
                cells = [_cells(_split(ns, cfg.step, lam)[1], e) for lam, e in zip(cfg.lam, edges)]
                for (weights, _), table in zip(tallies, tables):
                    codes = sum(w[c.astype(np.intp)] for w, c in zip(weights, cells))
                    table += np.bincount(codes, minlength=table.size)
        found = [0] * len(boxes)
        for (_, reads), table in zip(tallies, tables):
            for j, at in reads.items():
                found[j] = int(table[at].sum())
        return found

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
