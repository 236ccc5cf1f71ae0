"""Kronecker flow on the torus: equidistribution, time averages, and
Tychonoff-metric geometry.

The flow is t -> ({t l_1}, ..., {t l_m}) with default frequencies
l_n = log(p_n) / 2 pi over the first m primes.  Time integrals are
discretized on the right-endpoint grid t = step, 2 step, ..., T, so an
indicator's time average coincides exactly with its hitting fraction.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, PreconditionError
from .parallel import finite_steps, map_spans
from .primes import log_frequencies

__all__ = [
    "Box",
    "FlowConfig",
    "TorusPoint",
    "TychonoffBall",
    "ball_measure_mc",
    "ball_time_average",
    "box_from_json",
    "box_hitting_fraction",
    "box_hitting_fractions",
    "flow_config_from_json",
    "flow_point",
    "standard_box_suite",
    "time_average",
    "tychonoff_distance",
]

# Time-grid work proceeds in fixed windows of this many steps; the split is a
# function of the grid alone, so results cannot depend on the worker count.
_TIME_CHUNK = 1_000_000

# Monte Carlo draws happen in fixed batches, each with its own (seed, batch)
# generator, so the sample stream is independent of scheduling.
_MC_BATCH = 65536


@dataclass(frozen=True, eq=False)
class TorusPoint:
    """A finite truncation of a torus point; coords[i] pairs with the
    (i+1)-th prime in flow contexts."""

    coords: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "coords", np.asarray(self.coords, dtype=np.float64)
        )

    def __len__(self) -> int:
        return len(self.coords)


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
        lam = self.lam
        if lam is None:
            lam = tuple(float(x) for x in log_frequencies(self.dims))
        else:
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
        out = 1.0
        for u, v in zip(self.lo, self.hi):
            out *= v - u
        return out

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Boolean mask for points (k, m) with m >= dims; extra coordinates
        are unconstrained (cylinder-set semantics)."""
        pts = np.atleast_2d(points)
        if pts.shape[1] < self.dims:
            raise PreconditionError("points have fewer coordinates than the box")
        inside = np.ones(pts.shape[0], dtype=bool)
        for i, (u, v) in enumerate(zip(self.lo, self.hi)):
            col = pts[:, i]
            inside &= (col >= u) & (col < v)
        return inside


@dataclass(frozen=True)
class TychonoffBall:
    """Metric ball around a truncated torus point."""

    center: TorusPoint
    radius: float
    dims: int

    def __post_init__(self):
        if self.radius <= 0:
            raise PreconditionError("ball radius must be positive")
        if len(self.center) != self.dims:
            raise PreconditionError("ball center length must equal dims")


def _metric_weights(dims: int) -> np.ndarray:
    return np.exp(-np.arange(1, dims + 1, dtype=np.float64))


def flow_point(cfg: FlowConfig, t: float) -> TorusPoint:
    """The flow at time t: coordinate-wise fractional parts of t * lam."""
    lam = np.asarray(cfg.lam, dtype=np.float64)
    return TorusPoint(coords=np.mod(t * lam, 1.0))


def _flow_columns(cfg: FlowConfig, lo: int, hi: int) -> np.ndarray:
    """Flow points for grid steps lo+1..hi as a C-contiguous (dims, k) array:
    row i is the coordinate {t lam_i} over the window, built in place."""
    # Right endpoints (lo+1..hi) * step; t=0 is deliberately excluded.
    ts = np.arange(lo + 1, hi + 1, dtype=np.float64) * cfg.step
    lam = np.asarray(cfg.lam, dtype=np.float64)
    x = lam[:, None] * ts[None, :]
    x -= np.floor(x)  # exact, and equal to np.mod(x, 1.0), for every finite x
    return x


def _flow_means(cfg: FlowConfig, chunk_sums, threads) -> list:
    """[(1/npts) sum over the time grid] for each output of chunk_sums(lo, hi),
    which returns one partial per output for the grid window [lo, hi).

    Each output's window partials are fsum'd part by part in window order,
    so the means do not depend on the worker count.  A mean is a float when
    its imaginary part is exactly 0, else the complex value.
    """
    npts = cfg.grid_size()
    if npts < 1:
        raise PreconditionError("horizon shorter than one step")
    partials = map_spans(
        lambda lo, hi: [complex(v) for v in chunk_sums(lo, hi)],
        npts,
        _TIME_CHUNK,
        threads=threads,
    )
    means = []
    for column in zip(*partials):
        mean = complex(
            math.fsum(v.real for v in column), math.fsum(v.imag for v in column)
        ) / npts
        means.append(mean.real if mean.imag == 0.0 else mean)
    return means


def box_hitting_fractions(cfg: FlowConfig, boxes, threads=None) -> list:
    """Fraction of grid times in (0, T] whose flow point lies in each box.

    Every box is tested against one shared point cloud per window, so the
    grid is walked once for the whole list.  The grid resolution limit is
    step/T.  Window counts are integers below 2^53, so their fsum is exact
    and each result is the exact count / npts.
    """
    boxes = list(boxes)
    if any(box.dims > cfg.dims for box in boxes):
        raise PreconditionError("box dimension exceeds flow dimension")

    def chunk_sums(lo, hi):
        pts = _flow_columns(cfg, lo, hi).T  # each column read is contiguous
        return [np.count_nonzero(box.contains(pts)) for box in boxes]

    return _flow_means(cfg, chunk_sums, threads)


def box_hitting_fraction(cfg: FlowConfig, box: Box, threads=None) -> float:
    """Fraction of grid times in (0, T] whose flow point lies in the box:
    the one-box case of box_hitting_fractions."""
    return box_hitting_fractions(cfg, [box], threads)[0]


def _apply_pointwise(F, pts: np.ndarray) -> np.ndarray:
    """Evaluate F on points (k, m); F that takes only single points (a wrong
    shape, TypeError or ValueError on the array) is called once per point."""
    try:
        vals = np.asarray(F(pts))
        if vals.shape == (pts.shape[0],):
            return vals
    except (PreconditionError, NumericalError):
        raise
    except (TypeError, ValueError):
        pass
    return np.asarray([F(p) for p in pts])


def time_average(cfg: FlowConfig, F, threads=None):
    """(1/T) integral of F along the flow, by the right-endpoint rule.

    Returns a float for real-valued F and a complex value otherwise.
    """
    def chunk_sums(lo, hi):
        # F sees C-contiguous (k, dims) rows: on a strided view a BLAS-backed
        # F such as exp(2 pi i pts @ k) can round differently.
        pts = np.ascontiguousarray(_flow_columns(cfg, lo, hi).T)
        return [np.sum(_apply_pointwise(F, pts))]

    return _flow_means(cfg, chunk_sums, threads)[0]


def ball_time_average(cfg: FlowConfig, ball: TychonoffBall, F, threads=None):
    """(1/T) integral of F over the times whose flow point lies in the ball.

    Normalized by the full horizon T, not by the time spent inside, so
    F = 1 recovers the ball's hitting fraction.
    """
    if ball.dims > cfg.dims:
        raise PreconditionError("ball dimension exceeds flow dimension")
    w = _metric_weights(ball.dims)
    center = ball.center.coords

    def chunk_sums(lo, hi):
        # C-contiguous rows for F, as in time_average.
        pts = np.ascontiguousarray(_flow_columns(cfg, lo, hi).T)
        dist = (np.abs(pts[:, : ball.dims] - center[None, :]) * w).sum(axis=1)
        mask = dist <= ball.radius
        return [np.sum(_apply_pointwise(F, pts[mask])) if mask.any() else 0]

    return _flow_means(cfg, chunk_sums, threads)[0]


def tychonoff_distance(x: TorusPoint, y: TorusPoint) -> float:
    """Weighted coordinate distance sum e^{-n} |x_n - y_n|, n from 1."""
    if len(x) != len(y):
        raise PreconditionError("dimension mismatch")
    w = _metric_weights(len(x))
    return math.fsum(w * np.abs(x.coords - y.coords))


def ball_measure_mc(ball: TychonoffBall, samples: int, seed: int, threads=None):
    """Monte Carlo volume of the ball: (estimate, binomial standard error).

    Sampling is split into fixed batches with per-batch generators seeded by
    (seed, batch index), so the estimate depends only on (samples, seed).
    """
    if samples < 10_000:
        raise PreconditionError("ball_measure_mc requires samples >= 10000")
    if seed < 0:
        raise PreconditionError("seed must be a nonnegative integer")
    w = _metric_weights(ball.dims)
    center = ball.center.coords

    def work(lo, hi):
        rng = np.random.default_rng([int(seed), lo // _MC_BATCH])
        pts = rng.random((hi - lo, ball.dims))
        dist = (np.abs(pts - center[None, :]) * w).sum(axis=1)
        return int((dist <= ball.radius).sum())

    hits = sum(map_spans(work, samples, _MC_BATCH, threads=threads))
    est = hits / samples
    se = math.sqrt(max(est * (1.0 - est), 0.0) / samples)
    return est, se


def _json_doc(doc):
    if isinstance(doc, dict):
        return doc
    with open(doc, "r", encoding="utf-8") as fh:
        return json.load(fh)


def flow_config_from_json(doc) -> FlowConfig:
    """FlowConfig from a dict or a JSON file path.

    Keys: dims (int), T (real), optional step (default 0.01) and lam (list of
    frequencies, default log p_n / 2 pi).
    """
    d = _json_doc(doc)
    try:
        dims = int(d["dims"])
        T = float(d["T"])
    except KeyError as exc:
        raise PreconditionError("flow config needs keys dims and T") from exc
    lam = d.get("lam")
    return FlowConfig(
        dims=dims,
        T=T,
        step=float(d.get("step", 0.01)),
        lam=None if lam is None else tuple(float(x) for x in lam),
    )


def box_from_json(doc) -> Box:
    """Box from a dict or a JSON file path with keys lo and hi (lists)."""
    d = _json_doc(doc)
    try:
        return Box(lo=tuple(d["lo"]), hi=tuple(d["hi"]))
    except KeyError as exc:
        raise PreconditionError("box jsons need keys lo and hi") from exc


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
