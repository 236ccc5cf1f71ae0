"""Mean values of |f(sigma+it)|^{2k}: quadrature estimates and their known
large-T limits.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from ._kernel import VerticalLine
from .coefficients import ExplicitSource, SeriesSpec, _is_zeta
from .convolution import convolution_power
from .errors import AccuracyWarning, NumericalError, PreconditionError
from .parallel import finite_steps, map_spans
from .series import _square_sum, default_evaluator
from .zeta import zeta_eval

__all__ = [
    "MomentReport",
    "QuadratureConfig",
    "estimate_moment",
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

    The nodes t_j = j h of [0, T] go to the evaluator in fixed windows, each
    as a VerticalLine (so np.asarray(s) gives a window's nodes, within a few
    ulps of j h); a one-node array at sigma + iT comes first.  Windows
    evaluate concurrently; their partials are combined with math.fsum, so
    the estimate is bit-identical for every worker count.

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
        vals = evaluator(VerticalLine(sigma, lo * h, h, hi - lo))
        # A power past the float range becomes inf and is refused below.
        with np.errstate(over="ignore"):
            powers = np.abs(vals) ** (2 * k)
            return float(np.sum(weight_fn(idx, npts) * powers))

    # The top node first, so that zeta's term cap refuses T before any window.
    evaluator(np.asarray([complex(sigma, npts * h)]))
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

    zeta: zeta(2s) for k=1 and zeta(2s)^4/zeta(4s) for k=2, the classical
    divisor-square identity.  Finite explicit series: the exact mean
    sum |c_n|^2 n^{-2 sigma} of the k-th convolution power c.  None
    otherwise, and None where the limit is not a finite float.
    """
    if _is_zeta(spec):
        if k not in (1, 2) or 2.0 * sigma - 1.0 < 1e-9:
            return None
        # On the real axis past the strip's edge 4, zeta_eval is as accurate
        # as inside it (test_zeta checks it against mpmath): no warning.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", AccuracyWarning)
            target = zeta_eval(2.0 * sigma).real
            if k == 2:
                target = target**4 / zeta_eval(4.0 * sigma).real
    elif isinstance(spec.coeffs, ExplicitSource):
        m = spec.coeffs.max_index()
        if m**k > 2_000_000:
            return None
        with np.errstate(over="ignore", invalid="ignore"):  # inf makes the target None
            powered = convolution_power(spec.coeffs.dense(m), k, N=m**k)
        target = _square_sum(powered[1:], np.arange(1, powered.size), sigma)
    else:
        return None
    return target if math.isfinite(target) else None
