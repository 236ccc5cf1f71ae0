"""Mean values of |f(sigma+it)|^{2k}: quadrature estimates, exact polynomial
means, divisor-sum targets, and max-modulus scans.
"""

import math
from dataclasses import dataclass

import numpy as np

from .coefficients import ExplicitSource, SeriesSpec, _is_zeta
from .convolution import convolution_power
from .errors import NumericalError, PreconditionError
from .parallel import finite_steps, map_spans
from .series import default_evaluator
from .zeta import zeta_eval

__all__ = [
    "MomentReport",
    "OrderScanReport",
    "QuadratureConfig",
    "estimate_moment",
    "lindelof_product",
    "order_scan",
    "polynomial_mean_exact",
    "theoretical_target",
]

# Quadrature nodes are processed in fixed windows of this many grid points;
# the split depends only on the grid, so totals are worker-count independent.
_NODE_CHUNK = 20000


@dataclass(frozen=True)
class QuadratureConfig:
    """Composite-rule parameters."""

    step: float = 0.01
    rule: str = "simpson"

    def __post_init__(self):
        if self.step <= 0:
            raise PreconditionError("quadrature step must be positive")
        if self.rule not in ("simpson", "trapezoid"):
            raise PreconditionError("rule must be simpson or trapezoid")


@dataclass(frozen=True)
class MomentReport:
    """Result of one mean-value experiment over t in [0, T]."""

    sigma: float
    k: int
    T: float
    step: float
    estimate: float
    target: float = None
    rel_error: float = None
    rule: str = "simpson"
    window: str = "0..T"


@dataclass(frozen=True)
class OrderScanReport:
    """Running maxima of |f| and the fitted log-log growth slope."""

    sigma: float
    points: tuple  # ((T, max |f| for |t| <= T), ...)
    slope: float


def _simpson_weights(idx: np.ndarray, npts: int) -> np.ndarray:
    w = np.where(idx % 2 == 1, 4.0, 2.0)
    w[idx == 0] = 1.0
    w[idx == npts] = 1.0
    return w


def _trapezoid_weights(idx: np.ndarray, npts: int) -> np.ndarray:
    w = np.ones(idx.shape, dtype=np.float64)
    w[idx == 0] = 0.5
    w[idx == npts] = 0.5
    return w


def estimate_moment(
    spec: SeriesSpec,
    sigma: float,
    k: int,
    T: float,
    cfg: QuadratureConfig = None,
    evaluator=None,
    threads=None,
) -> MomentReport:
    """Composite quadrature of |f(sigma+it)|^{2k} over [0, T], divided by T.

    Node chunks evaluate concurrently; chunk partials are combined with
    math.fsum, so the estimate is bit-identical for every worker count.

    Raises:
        NumericalError: the estimate is not finite (|f|^{2k} or its sum
            passes the float range).
    """
    if sigma <= spec.sigma_m:
        raise PreconditionError("sigma must exceed sigma_m of the series")
    if T <= 0:
        raise PreconditionError("moment horizon T must be positive")
    if int(k) < 1:
        raise PreconditionError("moment half-power k must be >= 1")
    k = int(k)
    cfg = cfg if cfg is not None else QuadratureConfig()
    if _is_zeta(spec) and cfg.step > 0.05:
        raise PreconditionError("step must be <= 0.05 for zeta integrands")
    if evaluator is None:
        evaluator = default_evaluator(spec)
    npts = int(round(finite_steps(T, cfg.step, "quadrature grid")))
    if npts < 2:
        raise PreconditionError("horizon shorter than two quadrature steps")
    if cfg.rule == "simpson" and npts % 2 == 1:
        npts += 1
    h = T / npts
    weight_fn = (
        _simpson_weights if cfg.rule == "simpson" else _trapezoid_weights
    )

    def work(lo, hi):
        idx = np.arange(lo, hi, dtype=np.int64)
        s = np.full(hi - lo, sigma, dtype=np.complex128)
        s += 1j * (idx.astype(np.float64) * h)
        vals = evaluator(s)
        # A power past the float range becomes inf and is refused below.
        with np.errstate(over="ignore"):
            powers = np.abs(vals) ** (2 * k)
            return float(np.sum(weight_fn(idx, npts) * powers))

    partials = map_spans(work, npts + 1, _NODE_CHUNK, threads=threads)
    try:
        total = math.fsum(partials)
    except OverflowError:  # finite partials whose sum passes the float range
        total = math.inf
    integral = total * (h / 3.0 if cfg.rule == "simpson" else h)
    estimate = integral / T
    if not math.isfinite(estimate):
        raise NumericalError("the moment estimate is not a finite float")
    target = theoretical_target(spec, sigma, k)
    rel = abs(estimate - target) / target if target else None
    return MomentReport(
        sigma=float(sigma),
        k=k,
        T=float(T),
        step=h,
        estimate=estimate,
        target=target,
        rel_error=rel,
        rule=cfg.rule,
    )


def theoretical_target(spec: SeriesSpec, sigma: float, k: int):
    """Known limit of the 2k-th mean, when one exists at desk scale.

    zeta: zeta(2s) for k=1 and zeta(2s)^4/zeta(4s) for k=2.  Finite explicit
    series: the exact polynomial mean of the k-th convolution power.  None
    otherwise.
    """
    if _is_zeta(spec):
        if k in (1, 2) and 2.0 * sigma - 1.0 >= 1e-9:
            return lindelof_product(k, sigma)
        return None
    if isinstance(spec.coeffs, ExplicitSource):
        m = spec.coeffs.max_index()
        if m**k > 2_000_000:
            return None
        dense = spec.coeffs.dense(m)
        powered = convolution_power(dense, k, N=m**k)
        return polynomial_mean_exact(powered, sigma)
    return None


def polynomial_mean_exact(coeffs, sigma: float) -> float:
    """Exact large-T mean of |sum a_n n^{-sigma-it}|^2: sum |a_n|^2 n^{-2 sigma}.

    coeffs is a 1-based dense array (index 0 ignored).
    """
    arr = np.asarray(coeffs, dtype=np.complex128)
    if arr.ndim != 1 or arr.size < 2:
        raise PreconditionError("coefficient arrays are 1-based with length >= 2")
    ns = np.arange(1, arr.size, dtype=np.float64)
    return math.fsum(np.abs(arr[1:]) ** 2 * ns ** (-2.0 * sigma))


# ---------------------------------------------------------------------------
# Divisor-sum targets


def lindelof_product(k: int, sigma: float) -> float:
    """The limit value via zeta identities (k = 1, 2 only).

    k=1: zeta(2s).  k=2: zeta(2s)^4 / zeta(4s), the classical divisor-square
    identity.
    """
    if 2.0 * sigma <= 1.0:
        raise PreconditionError("need 2 sigma > 1 for the divisor sum")
    if k == 1:
        return float(zeta_eval(2.0 * sigma).real)
    if k == 2:
        return float(zeta_eval(2.0 * sigma).real ** 4 / zeta_eval(4.0 * sigma).real)
    raise PreconditionError("closed forms available for k = 1, 2 only")


# ---------------------------------------------------------------------------
# Max-modulus order scans


def order_scan(
    spec: SeriesSpec,
    sigma: float,
    T_list,
    evaluator=None,
    cfg: QuadratureConfig = None,
    threads=None,
) -> OrderScanReport:
    """Running maxima of |f(sigma+it)| over |t| <= T for each horizon.

    Reports the least-squares slope of log max against log T; the slope is a
    scan observation, never a statement about the true growth order.
    """
    if sigma <= spec.sigma_m:
        raise PreconditionError("sigma must exceed sigma_m of the series")
    horizons = sorted(float(T) for T in T_list)
    if not horizons or horizons[0] <= 0:
        raise PreconditionError("order scan needs positive horizons")
    cfg = cfg if cfg is not None else QuadratureConfig(step=0.05)
    if _is_zeta(spec) and cfg.step > 0.05:
        raise PreconditionError("step must be <= 0.05 for zeta integrands")
    if evaluator is None:
        evaluator = default_evaluator(spec)
    h = cfg.step
    nmax = int(math.ceil(finite_steps(horizons[-1], h, "order-scan grid")))

    def work(lo, hi):
        ts = np.arange(lo, hi, dtype=np.float64) * h
        # Conjugate halves scanned explicitly; no symmetry assumed.
        mags_pos = np.abs(evaluator(sigma + 1j * ts))
        mags_neg = np.abs(evaluator(sigma - 1j * ts))
        out = []
        for T in horizons:
            m = ts <= T + 1e-12
            out.append(max(mags_pos[m].max(), mags_neg[m].max()) if m.any() else 0.0)
        return out

    rows = map_spans(work, nmax + 1, _NODE_CHUNK, threads=threads)
    maxima = [max(row[i] for row in rows) for i in range(len(horizons))]
    xs = np.log(np.asarray(horizons))
    ys = np.log(np.asarray(maxima))
    xbar = xs.mean()
    ybar = ys.mean()
    denom = float(((xs - xbar) ** 2).sum())
    slope = float(((xs - xbar) * (ys - ybar)).sum() / denom) if denom > 0 else 0.0
    return OrderScanReport(
        sigma=float(sigma),
        points=tuple(zip(horizons, (float(m) for m in maxima))),
        slope=slope,
    )
