"""Reference values and reference loops for the test suite.

Unless marked as a regression pin, every constant here was computed with an
independent tool (mpmath at 40 significant digits, or a closed form) and
rounded to the nearest float64.  Regression pins freeze the output of this
package's own first verified run; they guard against drift, not correctness,
and each sits next to an independent plausibility check in the tests.
"""

import cmath
import math
import sys
from itertools import accumulate, repeat

import numpy as np

from dirichlet_lab import NumericalError, PreconditionError, Rectangle, RecurrenceReport, ZeroRecord
from dirichlet_lab import zeros as _zeros
from dirichlet_lab.convolution import mollifier_coefficients
from dirichlet_lab.primes import _SIEVE_BOUND, primes_up_to
from dirichlet_lab.series import _square_sum

# mpmath.zeta at real points
ZETA_2 = 1.6449340668482264
ZETA_3 = 1.2020569031595942
ZETA_4 = 1.0823232337111381
ZETA_1_25 = 4.5951118258429435
ZETA_1_375 = 3.2704907348869714
ZETA_1_5 = 2.612375348685488
ZETA_1_7 = 2.0542887568377513
ZETA_2_5 = 1.341487257250917
ZETA_0_5 = -1.4603545088095868
ABS_ZETA_0_75 = 3.4412853867578636  # |mpmath.zeta(0.75)|

# Mean-value limits: zeta(2s)^4 / zeta(4s)
FOURTH_TARGET_0_75 = 38.74514414390132  # sigma = 0.75
FOURTH_TARGET_1 = 6.764520210694614  # sigma = 1

# Finite-T second mean (1/T) int_0^T |zeta(3/4+it)|^2 dt, closed form with
# its secondary term (Titchmarsh, The Theory of the Riemann Zeta-Function,
# ch. VII; Matsumoto, Japan. J. Math. 15, 1989):
#   zeta(2 sigma) + (2 pi)^(2 sigma - 1) zeta(2 - 2 sigma) T^(1 - 2 sigma) / (2 - 2 sigma)
# At sigma = 3/4, T = 2000 this is 2.448670 (mpmath, 40 digits:
# 2.448669864791391429...); the secondary term is -0.1637.
SECOND_MEAN_0_75_T2000 = (
    ZETA_1_5 + math.sqrt(2.0 * math.pi) * ZETA_0_5 * 2000.0**-0.5 / 0.5
)

# Finite-T fourth mean (1/2000) int_0^2000 |zeta(3/4+it)|^4 dt.  No closed
# form is known at this T; recipe: mpmath 1.3.0 mpmath.fp.zeta(0.75 + 1j*t)
# on the 200,001 nodes t = j * (2000/200000), j = 0..200000, composite
# Simpson weights 1,4,2,...,4,1 times h/3, the weighted terms summed with
# math.fsum, divided by 2000.  fp.zeta agrees with mpmath.zeta at 30 digits
# to better than 1e-12 relative on [0, 2000]; the same recipe with |zeta|^2
# gives 2.4518717624494992 for the second mean.
FOURTH_MEAN_0_75_T2000 = 23.027999942030466

# Mean square of 1 + 2^{-s} on Re s = 1: |a_1|^2 + |a_2|^2 2^{-2} (the cross
# term averages to zero)
TWO_TERM_LIMIT = 1.25


def two_term_mean(T: float) -> float:
    """Exact (1/T) int_0^T |1 + 2^{-1-it}|^2 dt.

    |1 + 2^{-1-it}|^2 = 5/4 + cos(t log 2); the cross term integrates to
    sin(T log 2) / (T log 2), which vanishes as T grows.
    """
    x = T * math.log(2.0)
    return TWO_TERM_LIMIT + math.sin(x) / x


# Squarefree density sums (mpmath): sum mu(n)^2 n^-2 = zeta(2)/zeta(4),
# sum mu(n) n^-2 = 1/zeta(2)
SQUAREFREE_SQUARE_SUM = 1.5198177546350666
INV_ZETA_2 = 0.6079271018540267

# Closed-form ladder data for 1 - 2^{1-s} and 1 - 3^{0.8} 3^{-s}
LOG2_OVER_2PI = 0.1103178000763258
LOG3_OVER_2PI = 0.1748495762830299
PERIOD2 = 9.064720283654388  # 2 pi / log 2
PERIOD3 = 5.7192017347602535  # 2 pi / log 3

# mpmath.zetazero ordinates
RH_ZERO_1 = 14.134725141734695
RH_ZERO_29 = 98.83119421819369  # zeros 29/30 bracket height 100
RH_ZERO_30 = 101.31785100573138

# (T/2pi) log(T/(2 pi e)) + 7/8
RVM_50 = 9.422781789846384
RVM_100 = 29.00234358732535


def rvm_estimate(T: float) -> float:
    return T / (2 * math.pi) * math.log(T / (2 * math.pi * math.e)) + 7.0 / 8.0


# --- Regression pins (this package's own first verified run) ---

# estimate_moment(zeta, sigma=0.75, k=1, T=250, step=0.01, simpson)
MOMENT_ZETA_T250 = 2.19481137321253

# mollifier_tail_decay(zeta, inverse, sigma=0.75, N=1e5)
MOLLIFY_TAILS = {10: 0.2785649383119479, 100: 0.10145951650096476,
                 1000: 0.02929832651722231}

# max over n <= 1e5 of tau_6(n) / n^0.9 (attained at n = 10080)
DIVISOR_RATIO_MAX = 47.512497240130344


# --- Reference loops (the one-index-at-a-time forms of the convolution code;
# the array forms must give the same bits) ---


def line_node_digits(t0: float, h: float, count: int, j: int) -> tuple:
    """The four floats whose exact sum is node j of
    VerticalLine(sigma, t0, h, count), from its documented layout: j = a m + c
    with m = ceil(sqrt(count)), a = qa kb + ra, c = qc ko + rc, ko and kb the
    ceilings of the square roots of m and of the base count."""
    m = math.isqrt(count - 1) + 1
    ko, kb = math.isqrt(m - 1) + 1, math.isqrt(-(-count // m) - 1) + 1
    (qa, ra), (qc, rc) = (divmod(x, k) for x, k in zip(divmod(j, m), (kb, ko)))
    return (t0 + float(qa * kb * m) * h, float(ra * m) * h, float(qc * ko) * h, float(rc) * h)


def flow_points(cfg):
    """The flow at every grid time t = step, 2 step, ..., as (k, dims) rows
    built row-major with np.mod, as the flow is defined."""
    ts = np.arange(1, cfg.grid_size() + 1, dtype=np.float64) * cfg.step
    return np.mod(ts[:, None] * np.asarray(cfg.lam)[None, :], 1.0)


def inverse_loop(a):
    """Dirichlet inverse of the dense table a, one n at a time: b_n =
    -a_1^{-1} acc_n, then b_n pushed across acc[2n::n]."""
    N = a.size - 1
    inv = 1.0 / a[1]
    b = np.zeros(N + 1, dtype=np.complex128)
    acc = np.zeros(N + 1, dtype=np.complex128)
    b[1] = inv
    if 2 <= N:
        acc[2:] += b[1] * a[2:]
    for n in range(2, N + 1):
        bn = -inv * acc[n]
        b[n] = bn
        if bn != 0 and 2 * n <= N:
            acc[2 * n :: n] += bn * a[2 : N // n + 1]
    return b


def convolve_loop(a, b):
    """Dirichlet convolution of equal-length dense tables, visiting every d."""
    N = a.size - 1
    c = np.zeros_like(a)
    for d in range(1, N + 1):
        ad = a[d]
        if ad != 0:
            c[d::d] += ad * b[1 : N // d + 1]
    return c


# --- Reference loops for the local Euler factors: one prime at a time and
# one Python scalar at a time, as dirichlet_lab.series summed them before
# its array helper.  For real s the array forms must give the same bits. ---

LOCAL_SUM_CAP = 400


def local_factor(coef, x):
    """sum_{e >= 0} coef(e) x^e, or None when it does not converge: no term
    falls below 1e-18 of the total within LOCAL_SUM_CAP terms, the total is
    not finite, or the rule overflows."""
    try:
        total = coef(0)
        for e in range(1, LOCAL_SUM_CAP + 1):
            term = coef(e) * x**e
            total += term
            if not cmath.isfinite(total):
                return None
            if abs(term) <= 1e-18 * abs(total):
                return total
    except OverflowError:
        pass
    return None


def prime_power(src, p, e):
    """a_{p^e} of the one prime p (a_1 = 1 at e = 0)."""
    if e == 0:
        return 1.0 + 0j
    return complex(src.prime_powers(np.asarray([p], dtype=np.int64), e)[0])


def euler_product_loop(src, s, r):
    """prod over p <= r of sum_e a_{p^e} p^{-e s}."""
    out = 1.0 + 0j
    for p in primes_up_to(r).tolist():
        factor = local_factor(lambda e: prime_power(src, p, e), float(p) ** (-s))
        if factor is None:
            raise NumericalError("Euler factor diverges at p = %d" % p)
        out *= factor
    return out


def rankin_smooth_tail_loop(spec, sigma, r, M):
    """Rankin bound on sum_{n r-smooth, n > M} |a_n| n^{-sigma}."""
    src = spec.coeffs
    beta = sigma - 1.0 if not math.isfinite(spec.sigma_m) else 0.5 * (sigma + spec.sigma_m)
    log_prod = 0.0
    for p in primes_up_to(r).tolist():
        local = local_factor(lambda e: abs(prime_power(src, p, e)), float(p) ** (-beta))
        if local is None:
            raise PreconditionError("series not in J at this σ")
        log_prod += math.log(local)
    log_bound = (beta - sigma) * math.log(M) + log_prod
    if not log_bound < math.log(sys.float_info.max):
        raise NumericalError("smooth tail bound exceeds the float range")
    return math.exp(log_bound)


def rankin_square_tail_loop(src, sigma, N):
    """Rankin bound on sum_{n > N} |a_n|^2 n^{-2 sigma}, the least over five
    trial exponents."""
    G = max(1.0, float(src.square_growth_base))
    best = math.inf
    for frac in (0.2, 0.35, 0.5, 0.65, 0.8):
        beta = 1.0 + frac * (2.0 * sigma - 1.0)
        bound = (2.0 * G) ** (1.0 / beta)
        if bound > _SIEVE_BOUND:
            continue
        P = max(1000, math.ceil(bound))
        log_prod = 0.0
        for p in primes_up_to(P).tolist():
            local = local_factor(
                lambda e: abs(prime_power(src, p, e)) ** 2, float(p) ** (-beta)
            )
            if local is None:
                break
            log_prod += math.log(local)
        else:
            log_prod += 2.0 * G * P ** (1.0 - beta) / (beta - 1.0)
            best = min(best, (beta - 2.0 * sigma) * math.log(N) + log_prod)
    if not best < math.log(sys.float_info.max):
        raise NumericalError("divergence detected in tail norm")
    return math.exp(best)


# --- Reference scan: the recurrence scan as it was before its lower-bound
# prune, taking the row integral of every grid time. ---


def recurrence_scan_all_rows(f, s0, r, T, t_step, grid=64):
    """(report, ts, integrals) of zeros.recurrence_scan with every grid
    time's row integral computed: by f.shifted when f has it, else at every
    point.  The arguments must pass recurrence_scan's checks."""
    offsets, cell_area = _zeros._disc_lattice(r, grid)
    rows = _zeros._POINT_CAP // offsets.size
    n_steps = int(round(T / t_step))
    ts = np.arange(-n_steps, n_steps + 1, dtype=np.int64).astype(np.float64) * t_step
    ts = ts[np.abs(ts) >= 1.0]
    s0 = complex(s0)
    m0 = float(np.abs(f(_zeros._ring(s0, r, _zeros._RING_SAMPLES))).min())
    threshold = 0.2 * math.pi * r * r * m0
    disc = s0 + offsets
    base = f(disc)

    def integrals_of(tt, product):
        parts = []
        for lo in range(0, tt.size, rows):
            window = tt[lo : lo + rows]
            if product:
                table = f.shifted(disc, window)
            else:
                table = f(disc[None, :] + 1j * window[:, None])
            parts.append(np.abs(table - base).sum(axis=1) * cell_area)
        return np.concatenate(parts) if parts else tt

    integrals = integrals_of(ts, hasattr(f, "shifted"))
    selected = {}
    for t, integral in zip(ts.tolist(), integrals.tolist()):
        if integral <= threshold:
            held = selected.get(math.floor(t))
            if held is None or (integral, t) < held:
                selected[math.floor(t)] = (integral, t)
    thinned = []
    for t, integral in sorted((t, v) for v, t in selected.values()):
        if thinned and t - thinned[-1][0] < 1.0:
            if integral < thinned[-1][1]:
                thinned[-1] = (t, integral)
        else:
            thinned.append((t, integral))
    hits = np.asarray([t for t, _ in thinned], dtype=np.float64)
    report = RecurrenceReport(
        s0=s0,
        r=float(r),
        m0=m0,
        T=float(T),
        t_step=float(t_step),
        threshold=threshold,
        hits=tuple(hits.tolist()),
        hit_integrals=tuple(integrals_of(hits, False).tolist()),
        lower_bound_rate=len(thinned) / (2.0 * float(T)),
    )
    return report, ts, integrals


# --- Reference refinement: the zero scan's Newton, confirming circle and
# Rouche check as they ran before batching, one candidate and one evaluator
# call at a time, with the scan's cells walked depth first. ---


def newton_refine(f, z0, tol, keep=None):
    """(z, |f(z)|, converged) by Newton from z0, f' from one two-point call.
    An iterate that fails keep(z) ends it unconverged, unevaluated."""
    z = complex(z0)
    h = _zeros._NEWTON_STEP
    try:
        fz = _zeros._eval_scalar(f, z)
        for _ in range(_zeros._NEWTON_MAX_ITER):
            if abs(fz) <= tol:
                return z, abs(fz), True
            up, down = f(np.asarray([z + h, z - h], dtype=np.complex128))
            df = (complex(up) - complex(down)) / (2.0 * h)
            if df == 0 or not np.isfinite(df):
                return z, abs(fz), False
            z = z - fz / df
            if not np.isfinite(z):
                return z0, abs(_zeros._eval_scalar(f, z0)), False
            if keep is not None and not keep(z):
                return z, math.inf, False
            fz = _zeros._eval_scalar(f, z)
    except (PreconditionError, NumericalError):
        return complex(z0), math.inf, False
    return z, abs(fz), abs(fz) <= tol


def confirm_circle(f, z):
    try:
        return _zeros.winding_on_circle(f, z, _zeros._CONFIRM_RADIUS, samples=128)
    except NumericalError:
        return 0


def cell_zero(f, cell, w, tol):
    """The ZeroRecord of a cell of winding one or a tiny cell, else None."""
    width, height = cell.sigma_hi - cell.sigma_lo, cell.t_hi - cell.t_lo
    tiny = max(width, height) < 1e-6
    if w != 1 and not tiny:
        return None
    center = complex(0.5 * (cell.sigma_lo + cell.sigma_hi), 0.5 * (cell.t_lo + cell.t_hi))
    margin = 0.1 * max(width, height)
    keep = None if tiny else lambda z: _zeros._cell_contains(cell, z, margin)
    z, residual, ok = newton_refine(f, center, tol, keep)
    inside = ok and _zeros._cell_contains(cell, z, margin)
    if not (inside or tiny):
        return None
    confirmed = inside and confirm_circle(f, z) >= 1 and residual <= 1e-8
    return ZeroRecord(location=z, winding_confirmed=confirmed, refinement_residual=residual)


def zero_scan_per_cell(f, rect, tol=1e-10, boundary_step=0.01):
    """zeros.zero_scan with each cell refined on its own, depth first."""
    for cur in accumulate(repeat(1e-3, 3), Rectangle.expanded, initial=rect):
        bound = _zeros._certificate(f, cur, boundary_step)
        sides = tuple(_zeros._rect_runs(f, [cur], bound)[0])
        w = _zeros._runs_winding(sides)
        if not isinstance(w, NumericalError):
            break
    else:
        raise w
    records, pending = [], [(cur, w, sides)] if w else []
    while pending:
        cell, w, sides = pending.pop()
        rec = cell_zero(f, cell, w, tol)
        if rec is not None:
            records += [rec] * w
            continue
        halves = _zeros._split_level(f, [(cell, w, sides)], bound)[0]
        pending += [half for half in reversed(halves) if half[1]]
    records.sort(key=lambda rec: (rec.location.imag, rec.location.real))
    return records


def rouche_verify_one(f, s0, t_j, r):
    """The Rouche check of one hit, with its own seed ring."""
    s0 = complex(s0)
    ring = _zeros._ring(s0, r, _zeros._RING_SAMPLES)
    f_ring = f(ring)
    m0_measured = float(np.abs(f_ring).min())
    diff = float(np.abs(f(ring + 1j * float(t_j)) - f_ring).max())
    if not diff <= 0.8 * m0_measured:
        return False
    try:
        inner = _zeros.winding_on_circle(f, s0 + 1j * float(t_j), r, samples=1024)
    except NumericalError:
        return False
    return inner >= 1


# --- Reference refinement: one polyline's winding as zeros counted it
# before each step was tested once, re-testing every step of the polyline
# in every round. ---


def polyline_winding_every_round(f, pts, vals, cert=None):
    """(winding, pts, vals) of f along the closed polyline pts, every step
    re-tested in each bisection round."""
    for _ in range(_zeros._REFINE_ROUNDS):
        if not np.all(np.isfinite(vals)):
            raise NumericalError("evaluator returned a non-finite boundary value")
        mags = np.abs(vals)
        scale = float(mags.max())
        if scale == 0.0 or float(mags.min()) <= 1e-12 * scale:
            raise NumericalError("zero near boundary; perturb rectangle")
        dphi = np.angle(vals[1:] / vals[:-1])
        mag_jump = np.abs(vals[1:] - vals[:-1]) > 0.1 * np.minimum(mags[1:], mags[:-1])
        need = (np.abs(dphi) >= 0.5 * math.pi) | mag_jump
        if cert is not None:
            lip, margin, limit = cert
            h = np.abs(pts[1:] - pts[:-1])
            need |= h > limit
            need &= ~(lip * h < np.maximum(mags[1:], mags[:-1]) - margin)
        idx = np.flatnonzero(need)
        if idx.size == 0:
            total = float(np.sum(dphi)) / (2.0 * math.pi)
            nearest = round(total)
            if abs(total - nearest) > 0.25:
                raise NumericalError("winding number failed to stabilize")
            return int(nearest), pts, vals
        if pts.size + idx.size > _zeros._MAX_BOUNDARY_POINTS:
            raise NumericalError("zero near boundary; perturb rectangle")
        mids = 0.5 * (pts[idx] + pts[idx + 1])
        vals = np.insert(vals, idx + 1, f(mids))
        pts = np.insert(pts, idx + 1, mids)
    raise NumericalError("zero near boundary; perturb rectangle")


# --- Reference refinement: zeros._refine's rules run one polyline at a
# time, as a generator that tests each step once (all steps in the first
# round, then the halves of each bisected step) and is sent the values of
# the midpoints it yields, one evaluator call per round. ---


def polyline_winding_one_at_a_time(f, pts, vals, cert=None):
    """(winding, pts, vals) of f along the closed polyline pts, refined on
    its own."""
    refining = _refinement(pts, vals, cert)
    try:
        mids = next(refining)
        while True:
            mids = refining.send(f(mids))
    except StopIteration as stop:
        dphi, pts, vals = stop.value
    return _zeros._winding(float(np.sum(dphi))), pts, vals


def _refinement(pts, vals, cert):
    new, todo, lo, hi = vals, None, math.inf, 0.0
    for _ in range(_zeros._REFINE_ROUNDS):
        if not np.isfinite(new).all():
            raise NumericalError("evaluator returned a non-finite boundary value")
        mags = np.abs(new)
        lo, hi = min(lo, mags.min()), max(hi, mags.max())
        if hi == 0.0 or lo <= 1e-12 * hi:
            raise NumericalError("zero near boundary; perturb rectangle")
        if todo is None:
            a, b, ma, mb = vals[:-1], vals[1:], mags[:-1], mags[1:]
        else:
            a, b = vals[todo], vals[todo + 1]
            ma, mb = np.abs(a), np.abs(b)
        step = np.angle(b / a)
        need = (np.abs(step) >= 0.5 * math.pi) | (np.abs(b - a) > 0.1 * np.minimum(mb, ma))
        if cert is not None:
            lip, margin, limit = cert
            h = np.abs(pts[1:] - pts[:-1] if todo is None else pts[todo + 1] - pts[todo])
            need |= h > limit
            need &= ~(lip * h < np.maximum(mb, ma) - margin)
        if todo is None:
            dphi = step
        else:
            dphi[todo] = step
        if not need.any():
            return dphi, pts, vals
        idx = np.flatnonzero(need) if todo is None else todo[need]
        if pts.size + idx.size > _zeros._MAX_BOUNDARY_POINTS:
            raise NumericalError("zero near boundary; perturb rectangle")
        mids = 0.5 * (pts[idx] + pts[idx + 1])
        vals = np.insert(vals, idx + 1, (yield mids))
        pts = np.insert(pts, idx + 1, mids)
        dphi = np.insert(dphi, idx + 1, 0.0)
        todo = np.repeat(idx + np.arange(idx.size), 2)
        todo[1::2] += 1
        new = vals[todo[1::2]]
    raise NumericalError("zero near boundary; perturb rectangle")


# --- Reference mollifier tails: zeros.mollifier_tail_decay with a fresh
# mollifier_coefficients table and two square sums per X. ---


def mollifier_tail_decay_per_x(a, b, sigma, X_list, N):
    """[(X, tail)] as mollifier_tail_decay gives it, one X at a time."""
    q = 2.0 ** (1.0 - 2.0 * sigma)
    out = []
    for X in X_list:
        X = int(X)
        if X >= N:
            out.append((X, 0.0))
            continue
        with np.errstate(over="ignore", invalid="ignore"):
            d = mollifier_coefficients(a, b, X, N)
        ns = np.arange(X + 1, N + 1, dtype=np.float64)
        tail = _square_sum(d[X + 1 :], ns, sigma)
        if not math.isfinite(tail):
            raise NumericalError("the mollified tail is not a finite float")
        octave_start = max(X, N // 2)
        octave = _square_sum(d[octave_start + 1 :], ns[octave_start - X :], sigma)
        if octave * q / (1.0 - q) > 0.1 * tail:
            raise NumericalError("increase N")
        out.append((X, tail))
    return out
