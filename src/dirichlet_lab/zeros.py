"""Argument-principle zero machinery: winding counts, rectangle scans with
Newton refinement, density tables, recurrence experiments, and mollifier
tail decay.
"""

import cmath
import math
from dataclasses import dataclass, replace
from functools import partial
from itertools import accumulate, repeat

import numpy as np

from ._kernel import VerticalLine
from .convolution import _mollified
from .errors import NumericalError, PreconditionError
from .parallel import check_windows, finite_steps, map_spans
from .series import _finite_sums

__all__ = [
    "Rectangle",
    "RecurrenceReport",
    "ZeroRecord",
    "density_table",
    "mollifier_tail_decay",
    "recurrence_scan",
    "rouche_verify",
    "winding_count",
    "winding_on_circle",
    "zero_scan",
]

_REFINE_ROUNDS = 48
_MAX_BOUNDARY_POINTS = 6_000_000

# The first refinement round tests its steps in blocks of this many, which
# keeps the temporaries of long runs in cache: a density table's four
# 20,000-point sides took 1.6 to 2 times as long in one block.
_STEP_BLOCK = 1 << 14

# A recurrence window evaluates at most this many points (grid times x disc
# lattice points); a disc lattice larger than this is refused.
_POINT_CAP = 1 << 20

# Boundary samples used when recomputing circle minima.
_RING_SAMPLES = 4096

# Shifts tried, in order, for a sigma edge or a cut that meets a zero.
_NUDGES = (0.0, 1e-3, -1e-3, 2e-3)

# Newton refinement of a zero, and the circle whose winding then confirms it.
_NEWTON_MAX_ITER = 50
_NEWTON_STEP = 1e-6
_CONFIRM_RADIUS = 1e-3


@dataclass(frozen=True)
class Rectangle:
    """Axis-aligned region sigma_lo <= Re s <= sigma_hi, t_lo <= Im s <= t_hi."""

    sigma_lo: float
    sigma_hi: float
    t_lo: float
    t_hi: float

    def __post_init__(self):
        if not (self.sigma_lo < self.sigma_hi and self.t_lo < self.t_hi):
            raise PreconditionError("rectangle requires sigma_lo < sigma_hi, t_lo < t_hi")

    def expanded(self, margin: float) -> "Rectangle":
        return Rectangle(
            self.sigma_lo - margin,
            self.sigma_hi + margin,
            self.t_lo - margin,
            self.t_hi + margin,
        )


@dataclass(frozen=True)
class ZeroRecord:
    location: complex
    winding_confirmed: bool
    refinement_residual: float


@dataclass(frozen=True)
class RecurrenceReport:
    """Recurrence-scan outcome: times t_j where the disc integral of
    |f(s+it) - f(s)| drops under the acceptance threshold."""

    s0: complex
    r: float
    m0: float
    T: float
    t_step: float
    threshold: float
    hits: tuple  # t_j values, pairwise separated by >= 1
    hit_integrals: tuple
    lower_bound_rate: float


# ---------------------------------------------------------------------------
# Winding engine


def _winding(phase: float) -> int:
    """The integer phase / 2 pi, refused when it is more than 0.25 away."""
    total = phase / (2.0 * math.pi)
    nearest = round(total)
    if abs(total - nearest) > 0.25:
        raise NumericalError("winding number failed to stabilize")
    return int(nearest)


def _refine(f, pts, vals, sizes, cert=None) -> list:
    """Each run of the polylines packed in pts, with values vals at their
    points, the first sizes[0] points the first run and so on (each at
    least two), refined until every step is accepted: its (phase, lo, hi,
    pts, vals), the sum of its steps' argument changes, the least and
    largest |f| on it and its refined points and values; or the
    NumericalError that stopped it.

    A step is accepted when its phase jump is under pi/2 and its value
    change under a tenth of the local |f|: a heuristic, which rules out
    phase aliasing across near-zero passes but cannot see a pair of zeros
    that one step jumps over.  Given cert, the (L, margin, limit) of
    _certificate, a step is also accepted when it is certified, and one
    longer than limit only then.

    A step's test reads only its two ends, so every step is tested once:
    all of them in the first round, then the two halves of each bisected
    step.  A run stops with NumericalError when a value is not finite, when
    its least |f| is at most 1e-12 times its largest ("zero near
    boundary"), and when it would pass _MAX_BOUNDARY_POINTS points or is
    still refining after _REFINE_ROUNDS rounds.

    Each round tests the pending steps of every run with whole-array
    operations (the first round's in blocks of _STEP_BLOCK steps) and
    evaluates the midpoints of every run still refining in one call to f;
    when that call raises NumericalError it is made again run by run, and
    only a run whose own call raises stops.  So each run is bisected as it
    would be alone, with its own |f| bounds, errors and point cap, and its
    phase is its steps' sum in polyline order (np.add.reduceat).  A run
    that stops leaves the packed arrays; a finished run's pts and vals are
    views of them.
    """
    out = [None] * len(sizes)
    # The runs still refining, by their index in sizes, and their point
    # counts and |f| bounds; the values each got last round and, after the
    # first round, the halves of the steps it bisected.
    ids, sizes = np.arange(len(sizes)), np.asarray(sizes)
    lo, hi = np.full(ids.size, math.inf), np.zeros(ids.size)
    new, counts, todo = vals, sizes, None
    for _ in range(_REFINE_ROUNDS):
        starts = np.cumsum(sizes) - sizes
        at = np.cumsum(counts) - counts
        bad = ~np.logical_and.reduceat(np.isfinite(new), at)
        mags = np.abs(new)
        lo = np.minimum(lo, np.minimum.reduceat(mags, at))
        hi = np.maximum(hi, np.maximum.reduceat(mags, at))
        stop = bad | (hi == 0.0) | (lo <= 1e-12 * hi)
        for r, b in zip(ids[stop].tolist(), bad[stop].tolist()):
            out[r] = NumericalError(
                "evaluator returned a non-finite boundary value" if b
                else "zero near boundary; perturb rectangle"
            )
        # A first-round pair that straddles two runs, or a step of a run
        # stopped above, is tested with the rest and then dropped.
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            if todo is None:  # every step, in the first round, a block at a time
                n = vals.size - 1
                step, need = np.empty(n), np.empty(n, bool)
                for i in range(0, n, _STEP_BLOCK):
                    e = min(n, i + _STEP_BLOCK)
                    j, k = slice(i, e), slice(i + 1, e + 1)
                    step[j], need[j] = _step_test(
                        vals[j], vals[k], mags[j], mags[k], pts[j], pts[k], cert
                    )
            else:  # the halves of the steps bisected last round
                a, b = vals[todo], vals[todo + 1]
                step, need = _step_test(a, b, np.abs(a), np.abs(b), pts[todo], pts[todo + 1], cert)
        if todo is None:
            dphi = step
            need[starts[1:] - 1] = False
            if stop.any():
                need &= np.repeat(~stop, sizes)[:-1]
            idx = np.flatnonzero(need)
        else:
            if stop.any():
                need &= np.repeat(~stop, 2 * counts)
            dphi[todo] = step
            idx = todo[need]
        counts = np.bincount(np.searchsorted(starts, idx, "right") - 1, minlength=ids.size)
        done = ~stop & (counts == 0)
        if done.any():
            ends = np.stack((starts[done], starts[done] + sizes[done] - 1), axis=1).ravel()
            phases = np.add.reduceat(dphi, ends[:-1] if ends[-1] == dphi.size else ends)[::2]
            for r, phase, i, j, l, u in zip(
                ids[done].tolist(), phases.tolist(), ends[::2], ends[1::2], lo[done], hi[done]
            ):
                out[r] = (phase, float(l), float(u), pts[i : j + 1], vals[i : j + 1])
        capped = (counts > 0) & (sizes + counts > _MAX_BOUNDARY_POINTS)
        for r in ids[capped].tolist():
            out[r] = NumericalError("zero near boundary; perturb rectangle")
        go = (counts > 0) & ~capped
        idx = idx[np.repeat(go, counts)]
        if not go.any():
            break
        mids = 0.5 * (pts[idx] + pts[idx + 1])
        got = _group_values(f, mids, counts[go])
        if isinstance(got, list):  # the call raised: the runs whose own call did not go on
            for r, v in zip(ids[go].tolist(), got):
                if isinstance(v, NumericalError):
                    out[r] = v
            ok = np.array([not isinstance(v, NumericalError) for v in got])
            keep = np.repeat(ok, counts[go])
            idx, mids = idx[keep], mids[keep]
            go[go] = ok
            if not go.any():
                break
            got = np.concatenate([v for v in got if not isinstance(v, NumericalError)])
        if not go.all():  # drop the stopped runs' points
            gone = np.where(go, 0, sizes)
            keep = np.repeat(go, sizes)
            pts, vals, dphi = pts[keep], vals[keep], dphi[keep[: dphi.size]]
            idx = idx - np.repeat((np.cumsum(gone) - gone)[go], counts[go])
            ids, sizes, lo, hi, counts = ids[go], sizes[go], lo[go], hi[go], counts[go]
        vals = np.insert(vals, idx + 1, got)
        pts = np.insert(pts, idx + 1, mids)
        dphi = np.insert(dphi, idx + 1, 0.0)
        sizes = sizes + counts
        # The halves of step idx[j] are steps idx[j] + j and idx[j] + j + 1.
        todo = np.repeat(idx + np.arange(idx.size), 2)
        todo[1::2] += 1
        new = got
    else:
        for r in ids.tolist():
            out[r] = NumericalError("zero near boundary; perturb rectangle")
    return out


def _step_test(a, b, ma, mb, pa, pb, cert):
    """(step, need) for the steps from values a to values b (moduli ma, mb)
    at points pa to pb: each step's argument change, and whether it must be
    bisected (_refine's rule)."""
    step = np.angle(b / a)
    need = (np.abs(step) >= 0.5 * math.pi) | (np.abs(b - a) > 0.1 * np.minimum(mb, ma))
    if cert is not None:
        lip, margin, limit = cert
        h = np.abs(pb - pa)
        need |= h > limit
        need &= ~(lip * h < np.maximum(mb, ma) - margin)
    return step, need


def _group_values(f, pts, counts):
    """f at pts in one call; when it raises NumericalError and pts holds
    more than one group (counts points each, in order), the list of each
    group's values from a call of its own, or the NumericalError it
    raised."""
    try:
        return np.asarray(f(pts))
    except NumericalError as exc:
        if counts.size == 1:
            return [exc]
    out = []
    for g in np.split(pts, np.cumsum(counts)[:-1]):
        try:
            out.append(f(g))
        except NumericalError as exc:
            out.append(exc)
    return out


def _certificate(f, rect: Rectangle, step: float):
    """(spacing, cert) for counts on rect and on the cells inside it: the
    start spacing of every edge and cut, and cert = (L, margin, limit) for
    _refine, or None for an evaluator without weights (zeta, an
    opaque callable), whose spacing is step.

    For a DirichletPolynomial, with F, L and R of its `weights` at
    rect.sigma_lo (so L bounds |f'| on the rectangle), a step from z_i to
    z_{i+1}, of computed length h, is certified when

        L h < max(|f(z_i)|, |f(z_{i+1})|) - margin,
        margin = 2^-46 (K + tau + 8) F,

    with K terms and tau = max |log n| max |z|, max |z| over the corners.
    Then, for the end z_m with the larger |f|, |f(z) - f(z_m)| <= L |z - z_m|
    < |f(z_m)| on the whole step: f has no zero there, and f(z)/f(z_m) stays
    in the right half-plane, so the argument moves by less than pi/2.
    limit is step up to the rounding of the points, 2^-48 (step + max |z|):
    a longer step is accepted only when certified.

    The spacing is the largest power-of-two multiple of step not above
    R^2/(F L), and step when there is none.  R^2/F is the size of a typical
    term c_n n^{-sigma} (each term weighted by its size), so the spacing is
    the step that the certificate accepts where |f| is that large.  A long
    sum is seldom smaller than one of its terms, and a short one is cheap
    to refine; a long truncation, whose R^2/(F L) is far below step, starts
    at step.  A step that is never certified is bisected down to at most
    step, and no further, since the spacing is step times a power of two.

    Derivation of the margin, with u = 2^-53, arithmetic correctly rounded
    and every exp, log, cos, sin and hypot within 2 ulps.  A computed term
    c_n n^{-z} is within (30 tau + 16) u of |c_n| n^{-sigma}: on the
    column-sum path from the rounded log n and products sigma log n,
    t log n; on a line's path from the four rounded phases of its exact
    node j (each float at most j |h| but the first, |t0| + j |h|, so
    9 max |t| together; see VerticalLine) and three complex products.  A
    K-term sum adds (6K + 3) u F, so a computed |f(z_i)| is within
    d = (6K + 30 tau + 21) u F of the exact one.  A line's values are at its
    exact nodes and its points, np.asarray(line), within one ulp of them
    (2 u max |z|), and the computed h is at least (1 - 4u) times the
    points' distance, so the exact step between the evaluated nodes is at
    most (1 + 5u) h + 4 u max |z| long.  The computed L is within
    (K + 5 tau + 8) u L of the exact weight at any real part a point may
    round to.  Since L h < F and L max |z| <= tau F, the exact condition
    holds once the margin exceeds (7K + 39 tau + 37) u F; it is more than
    three times that.  So every exact value on a certified step exceeds
    2/3 of the margin, d is under a fourth of it, and each computed step
    angle is within 0.8 of the exact argument change: no branch is
    crossed, and the end errors cancel around the closed polyline.  An
    overflow leaves L or the margin non-finite, which certifies nothing.
    """
    if not step > 0:
        raise PreconditionError("boundary step must be positive")
    weights = getattr(f, "weights", None)
    if weights is None:
        return step, None
    F, lip, R = weights(rect.sigma_lo)
    ratio = (R * R / (F * lip) if lip else math.inf) / step
    if not ratio >= 2.0:
        spacing = step
    elif math.isinf(ratio):
        spacing = math.inf
    else:
        spacing = math.ldexp(step, math.frexp(ratio)[1] - 1)
    reach = max(-rect.sigma_lo, rect.sigma_hi) + max(-rect.t_lo, rect.t_hi)
    tau = np.abs(f.logs).max(initial=0.0) * reach
    with np.errstate(over="ignore", invalid="ignore"):
        margin = 2.0**-46 * (f.logs.size + tau + 8) * F
    return spacing, (lip, margin, step + 2.0**-48 * (step + reach))


def _edge_count(z0: complex, z1: complex, step: float) -> int:
    """Points on the edge z0 -> z1, both ends included, at spacing <= step."""
    steps = abs(z1 - z0) / step
    if not math.isfinite(steps):
        raise PreconditionError("boundary edge length/step must be finite")
    return max(2, math.ceil(steps) + 1)


def _side(sigma: float, t_lo: float, t_hi: float, step: float, top=True):
    """The vertical line up from sigma + i t_lo to sigma + i t_hi at spacing
    <= step, as a VerticalLine whose first node is exactly the lower end;
    without its top node when top is False."""
    n = _edge_count(complex(sigma, t_lo), complex(sigma, t_hi), step)
    return VerticalLine(sigma, t_lo, (t_hi - t_lo) / (n - 1), n if top else n - 1)


def _rect_runs(f, rects, bound) -> list:
    """Each rectangle's boundary as (run, sign) pairs: its bottom runs, its
    right side, its top runs and its left side (a lone rectangle's four
    sides), each run as _refine gives it and sign -1 for a run walked
    backward (_runs_winding).  The rectangles share sigma_hi, t_lo and t_hi,
    and the first has the least sigma_lo; bound is the (spacing, cert) of
    _certificate for the first, whose certificate holds on every rectangle
    inside it.

    The boundaries are cut into runs at the corners x + i t_lo and
    x + i t_hi, x each sigma_lo and sigma_hi: one vertical side up at each
    x, and the bottom and top lines between neighbouring x, left to right.
    A rectangle walks its bottom runs and the right side forward, then its
    top runs and its left side backward.

    Every run starts at the spacing and is refined once (_refine).  The
    corners are evaluated in one call with the lines' inner points, each
    side in a call of its own (a VerticalLine), and a run takes its ends'
    values from the corners, so the runs join exactly.  Runs are sampled and
    refined in batches of at most _MAX_BOUNDARY_POINTS / 2 points.
    """
    wide, (spacing, cert) = rects[0], bound
    xs = sorted({r.sigma_lo for r in rects} | {wide.sigma_hi})
    m = len(xs)
    c = [complex(x, t) for t in (wide.t_lo, wide.t_hi) for x in xs]
    corners = np.asarray(c)
    # Runs as (start corner, end corner, inner points): the bottom and top
    # lines, then the sides, whose VerticalLines start at their corner.
    ends = [(i, i + 1) for i in (*range(m - 1), *range(m, 2 * m - 1))]
    counts = [_edge_count(c[i], c[j], spacing) for i, j in ends]
    sides = [(k, m + k, _side(x, wide.t_lo, wide.t_hi, spacing, top=False)) for k, x in enumerate(xs)]
    # The widest rectangle's boundary: every line and the first and last side.
    if sum(counts) - len(counts) + 2 * sides[0][2].size + 1 > _MAX_BOUNDARY_POINTS:
        raise PreconditionError(
            "the rectangle boundary needs more than %d points at step %g"
            % (_MAX_BOUNDARY_POINTS, spacing)
        )
    lines = [(i, j, np.linspace(corners[i], corners[j], n)[1:-1]) for (i, j), n in zip(ends, counts)]
    flat = f(np.concatenate([corners] + [p for _, _, p in lines]))
    at = flat[: 2 * m]
    inner = iter(np.split(flat[2 * m :], np.cumsum([p.size for _, _, p in lines[:-1]])))

    def sampled(i, j, pts):
        # A run's points and values as pieces, its corners at both ends.  A
        # side's values come from its own call, its first node's dropped.
        if isinstance(pts, VerticalLine):
            vals, pts = f(pts)[1:], np.asarray(pts)[1:]
        else:
            vals = next(inner)
        return (corners[i : i + 1], pts, corners[j : j + 1]), (at[i : i + 1], vals, at[j : j + 1])

    done, batch, size = [], [], 0
    for run in lines + sides:
        if batch and size + run[2].size > _MAX_BOUNDARY_POINTS // 2:
            done += _refined(f, batch, cert)
            batch, size = [], 0
        batch.append(sampled(*run))
        size += run[2].size
    done += _refined(f, batch, cert)
    bottom, top, up = done[: m - 1], done[m - 1 : 2 * m - 2], done[2 * m - 2 :]
    return [
        [(r, 1) for r in bottom[k:]] + [(up[-1], 1)] + [(r, -1) for r in top[k:]] + [(up[k], -1)]
        for k in (xs.index(r.sigma_lo) for r in rects)
    ]


def _runs_winding(runs) -> int:
    """The winding along a closed boundary made of refined runs, each a
    (run, sign) with the run as _refine gives it (or its error) and sign -1
    for a run walked backward: its runs' phases, so signed, summed over
    2 pi; or the first error among them.  The boundary passes _refine's
    tests over all its runs: the least |f| above 1e-12 times the largest, at
    most _MAX_BOUNDARY_POINTS points, and a winding within 0.25 of an
    integer."""
    phase, lo, hi, points = 0.0, math.inf, 0.0, 1
    for got, sign in runs:
        if isinstance(got, NumericalError):
            return got
        phase += sign * got[0]
        lo = got[1] if got[1] < lo else lo
        hi = got[2] if got[2] > hi else hi
        points += got[3].size - 1
    if lo <= 1e-12 * hi or points > _MAX_BOUNDARY_POINTS:
        return NumericalError("zero near boundary; perturb rectangle")
    try:
        return _winding(phase)
    except NumericalError as exc:
        return exc


def _raised(got):
    """got, a count's result, or raise it when it is a NumericalError."""
    if isinstance(got, NumericalError):
        raise got
    return got


def _refined(f, runs, cert=None) -> list:
    """_refine of the runs packed in one array, each run (pts, vals) as
    sequences of pieces that join into its points and values."""
    if not runs:
        return []
    pts, vals = (np.concatenate([x for run in runs for x in run[k]]) for k in (0, 1))
    return _refine(f, pts, vals, [sum(x.size for x in run[0]) for run in runs], cert)


def winding_count(f, rect: Rectangle, boundary_step: float = 0.01) -> int:
    """Zeros minus poles of f inside the rectangle, by boundary phase change.

    f takes the corners and the inner points of the bottom and top in one
    call and each vertical side in a call of its own, as a VerticalLine,
    whose nodes are np.asarray(s); every other call is a complex array.

    boundary_step bounds only the steps accepted without a certificate.  A
    DirichletPolynomial (it has `weights`) certifies a step of length h when
    L h < max |f| at its ends less a rounding margin (_certificate); such a
    step may be of any length, the edges start at a power-of-two multiple
    of boundary_step, and only a step at most boundary_step long may pass
    by the heuristic instead.  Any other evaluator (zeta, a plain callable)
    is sampled at boundary_step, and every step passes by the heuristic
    (_refine).

    Raises:
        PreconditionError: the boundary step is not positive, or the boundary
            would need more than _MAX_BOUNDARY_POINTS points, or a non-finite
            number of them.
        NumericalError: boundary passes too close to a zero ("zero near
            boundary; perturb rectangle") or the phase does not stabilize.
    """
    bound = _certificate(f, rect, boundary_step)
    return _raised(_runs_winding(_rect_runs(f, [rect], bound)[0]))


def winding_on_circle(f, center: complex, radius: float, samples: int = 256) -> int:
    """Winding of f along the inscribed polygon of a circle."""
    if radius <= 0:
        raise PreconditionError("circle radius must be positive")
    ring = _ring(center, radius, max(16, samples))
    pts = np.append(ring, ring[0])
    return _raised(_runs_winding([(_refined(f, [((pts,), (f(pts),))])[0], 1)]))


def _ring(center: complex, r: float, samples: int) -> np.ndarray:
    """center + r e^{i theta} at theta = 2 pi j / samples, j = 0..samples-1."""
    ang = np.arange(samples, dtype=np.float64) * (2.0 * math.pi / samples)
    return center + r * np.exp(1j * ang)


# ---------------------------------------------------------------------------
# Zero scanning


def _nudged(attempt, items, tries) -> list:
    """For each of items, in order, attempt's result at the first of tries
    where it succeeds.

    This is the one retry policy for a boundary that meets a zero: the
    boundary is moved and the count tried again.  attempt(pending, x) tries
    the items that have no result yet together at x, and gives for each a
    result, the NumericalError that stopped it, or None when x did not
    apply to it; a NumericalError that attempt raises stops them all.  The
    first item, in order, that no try succeeds for raises its last error
    (a cut that no shift put inside its cell: "could not place a zero-free
    cut").
    """
    out = [None] * len(items)
    errors = [NumericalError("could not place a zero-free cut")] * len(items)
    for x in tries:
        pending = [i for i, got in enumerate(out) if got is None]
        if not pending:
            break
        try:
            got = attempt([items[i] for i in pending], x)
        except NumericalError as exc:
            got = [exc] * len(pending)
        for i, g in zip(pending, got):
            if isinstance(g, NumericalError):
                errors[i] = g
            elif g is not None:
                out[i] = g
    for i, got in enumerate(out):
        if got is None:
            raise errors[i]
    return out


def _eval_scalar(f, z: complex) -> complex:
    return complex(f(np.asarray([z], dtype=np.complex128))[0])


def _values(f, groups):
    """f at every group of points (complex sequences), one array per group,
    from one call per _POINT_CAP points.  A call that raises
    PreconditionError or NumericalError is made again one group at a time,
    and a group whose own call raises gets None."""
    out, lo = [], 0
    while lo < len(groups):
        hi, size = lo + 1, len(groups[lo])
        while hi < len(groups) and size + len(groups[hi]) <= _POINT_CAP:
            size += len(groups[hi])
            hi += 1
        batch = groups[lo:hi]
        try:
            pts = [np.asarray(g, dtype=np.complex128) for g in batch]
            vals = f(np.concatenate(pts))
            out += np.split(vals, np.cumsum([len(g) for g in batch[:-1]]))
        except (PreconditionError, NumericalError):
            out += [None] if hi - lo == 1 else [_values(f, [g])[0] for g in batch]
        lo = hi
    return out


def _newton(f, starts, keeps, tol):
    """[(z, |f(z)|, converged)] by Newton from each start, all candidates
    stepped together: each step evaluates every active iterate in one call
    and their pairs z +- h in one more, for f' by a central difference.
    Each candidate's rules are its own, in Python complex arithmetic: an
    iterate that fails keeps[i] (None keeps every iterate) ends it
    unconverged and unevaluated, a non-finite one ends it at its start,
    and one whose evaluation raises ends it at its start with residual inf.
    """
    z, out, h = list(starts), [None] * len(starts), _NEWTON_STEP
    first = [None if v is None else complex(v[0]) for v in _values(f, [[s] for s in z])]
    fz, active = list(first), []
    for i, v in enumerate(first):
        if v is None:
            out[i] = (z[i], math.inf, False)
        else:
            active.append(i)
    for _ in range(_NEWTON_MAX_ITER):
        for i in active:
            if abs(fz[i]) <= tol:
                out[i] = (z[i], abs(fz[i]), True)
        active = [i for i in active if out[i] is None]
        moved = []
        for i, pair in zip(active, _values(f, [[z[i] + h, z[i] - h] for i in active])):
            if pair is None:
                out[i] = (starts[i], math.inf, False)
                continue
            df = (complex(pair[0]) - complex(pair[1])) / (2.0 * h)
            if df == 0 or not cmath.isfinite(df):
                out[i] = (z[i], abs(fz[i]), False)
                continue
            step = z[i] - fz[i] / df
            if not cmath.isfinite(step):
                out[i] = (starts[i], abs(first[i]), False)
            elif keeps[i] is not None and not keeps[i](step):
                out[i] = (step, math.inf, False)
            else:
                z[i] = step
                moved.append(i)
        active = []
        for i, v in zip(moved, _values(f, [[z[i]] for i in moved])):
            if v is None:
                out[i] = (starts[i], math.inf, False)
            else:
                fz[i] = complex(v[0])
                active.append(i)
        if not active:
            break
    for i in active:
        out[i] = (z[i], abs(fz[i]), abs(fz[i]) <= tol)
    return out


def _circle_windings(f, centers, radius: float, samples: int):
    """The winding of f along the inscribed polygon of the circle of radius
    about each center (as winding_on_circle), every polygon evaluated in
    one call (_values) and all refined together, each a one-run cycle; 0
    where its evaluation or winding fails."""
    rings = [
        np.append(ring, ring[0]) for ring in (_ring(c, radius, samples) for c in centers)
    ]
    vals = _values(f, rings)
    got = iter(_refined(f, [((p,), (v,)) for p, v in zip(rings, vals) if v is not None]))
    out = []
    for v in vals:
        w = None if v is None else _runs_winding([(next(got), 1)])
        out.append(w if isinstance(w, int) else 0)
    return out


def zero_scan(f, rect: Rectangle, tol: float = 1e-10, boundary_step: float = 0.01):
    """All zeros of f in the rectangle as ZeroRecord entries.

    Subdivides until each cell holds winding one, then refines by Newton
    iteration from the cell center and re-verifies each zero on a small
    circle.  The cells are walked one level (generation) at a time, and a
    level's Newton candidates are stepped together and its circles
    evaluated together (_level_zeros); the halves of the level's split
    cells are refined together (_split_level).  The rectangle's sides are
    sampled and refined once (_rect_runs), and a cell carries its four
    sides as refined runs: a split evaluates only its cut, one run that
    both halves walk, and refines only the cut and the pieces of the two
    sides it crosses (_halves).  A boundary that passes through a zero is
    pushed outward in 1e-3 steps (up to three times), which can only adopt
    zeros sitting on the original edge, never lose interior ones.  Cells
    whose refinement fails are returned with winding_confirmed False rather
    than dropped.

    As in winding_count, f may receive a VerticalLine (a vertical side or
    cut), whose nodes are np.asarray(s), and boundary_step bounds only the
    steps accepted without a certificate; a cut starts at the spacing of the
    edges.  The bits of an evaluator whose values depend on the other points
    of a call (zeta, a long truncation) depend on the level's batches.
    """
    if tol <= 0:
        raise PreconditionError("tolerance must be positive")

    def count(_, r):
        bound = _certificate(f, r, boundary_step)
        sides = _rect_runs(f, [r], bound)[0]
        w = _runs_winding(sides)
        return [w if isinstance(w, NumericalError) else (r, bound, w, tuple(sides))]

    ((cur, bound, w, sides),) = _nudged(
        count, [rect], accumulate(repeat(1e-3, 3), Rectangle.expanded, initial=rect)
    )
    if w < 0:
        raise NumericalError("negative winding; the region contains poles")
    records = []
    # A cell's sides are dropped once it is split, but those its halves keep.
    level = [(cur, w, sides)] if w else []
    while level:
        split = []
        for cell, rec in zip(level, _level_zeros(f, level, tol)):
            if rec is not None:
                records += [rec] * cell[1]
            else:
                split.append(cell)
        level = [h for halves in _split_level(f, split, bound) for h in halves if h[1]]
    records.sort(key=lambda rec: (rec.location.imag, rec.location.real))
    return records


def _cell_contains(cell: Rectangle, z: complex, margin: float) -> bool:
    return (
        cell.sigma_lo - margin <= z.real <= cell.sigma_hi + margin
        and cell.t_lo - margin <= z.imag <= cell.t_hi + margin
    )


def _level_zeros(f, level, tol: float):
    """For each (cell, w, sides) of a level: the ZeroRecord of a cell of
    winding one, or of a tiny cell of any winding (its w zeros are reported
    as one location), or None when the cell must be split.

    Newton starts at each such cell's center, and an iterate outside the
    cell widened by 10% of its longer side is refused; a tiny cell (under
    1e-6 across) keeps every iterate.  A zero is confirmed when Newton
    converged inside the widened cell, its residual is at most 1e-8, and
    the circle of _CONFIRM_RADIUS about it winds at least once.
    """
    cands = []
    for k, (cell, w, _) in enumerate(level):
        size = max(cell.sigma_hi - cell.sigma_lo, cell.t_hi - cell.t_lo)
        if w == 1 or size < 1e-6:
            cands.append((k, cell, 0.1 * size, size < 1e-6))
    centers = [
        complex(0.5 * (c.sigma_lo + c.sigma_hi), 0.5 * (c.t_lo + c.t_hi))
        for _, c, _, _ in cands
    ]
    keeps = [
        None if tiny else partial(_cell_contains, c, margin=m) for _, c, m, tiny in cands
    ]
    refined = _newton(f, centers, keeps, tol)
    inside = [
        ok and _cell_contains(c, z, m) for (_, c, m, _), (z, _, ok) in zip(cands, refined)
    ]
    found = [z for (z, _, _), i in zip(refined, inside) if i]
    windings = iter(_circle_windings(f, found, _CONFIRM_RADIUS, 128))
    records = [None] * len(level)
    for (k, _, _, tiny), (z, residual, _), i in zip(cands, refined, inside):
        if i or tiny:
            confirmed = i and next(windings) >= 1 and residual <= 1e-8
            records[k] = ZeroRecord(
                location=z, winding_confirmed=confirmed, refinement_residual=residual
            )
    return records


def _split_level(f, cells, bound) -> list:
    """The two halves of each (cell, w, sides) of cells, as (cell, winding,
    sides), lower or left half first.

    The longer axis is cut at its middle, shifted by each of _NUDGES in
    turn while the cut meets a zero (_nudged).  Each try evaluates every
    pending cell's cut in a call of its own (_halves), then refines the
    cuts and the pieces of the sides they cross together (_refine); a cell
    whose halves fail, or whose windings do not add up to w, moves on to
    its next cut.  bound is the scan's (spacing, cert): the cuts start at
    its spacing, and refine with its certificate.
    """

    def attempt(pending, shift):
        splits = []
        for cell in pending:
            try:
                splits.append(_halves(f, cell, shift, bound[0]))
            except NumericalError as exc:  # the cut's own evaluation
                splits.append(exc)
        runs = [r for split in splits if isinstance(split, tuple) for r in split[2]]
        new = iter(_refined(f, runs, bound[1]))
        out = []
        for (_, w, _), split in zip(pending, splits):
            if not isinstance(split, tuple):
                out.append(split)
                continue
            got = [next(new) for _ in split[2]]
            sides = [
                tuple((got[r] if isinstance(r, int) else r, sign) for r, sign in half)
                for half in split[3]
            ]
            w1, w2 = (_runs_winding(half) for half in sides)
            if isinstance(w1, NumericalError) or isinstance(w2, NumericalError):
                out.append(w1 if isinstance(w1, NumericalError) else w2)
            elif w1 + w2 != w:
                out.append(NumericalError(
                    "winding split %d + %d does not match parent %d" % (w1, w2, w)
                ))
            else:
                out.append(((split[0], w1, sides[0]), (split[1], w2, sides[1])))
        return out

    return _nudged(attempt, cells, _NUDGES)


def _halves(f, cell, shift: float, spacing: float):
    """(first, second, runs, sides) for the (rect, w, sides) cell split
    across its longer axis at its middle plus shift: the halves, lower or
    left first; the new runs as (pts, vals), to be refined; and each half's
    sides, bottom, right, top and left, as (run, sign), where run is one of
    the cell's refined runs or the index of a new run.  None when that cut
    lies outside the cell.

    The cut is the first new run, evaluated in one call: a line from right
    to left where it is horizontal, a VerticalLine up where it is vertical.
    The first half walks it forward and the second backward.  The two sides
    it crosses are split at its ends (_pieces), and their four pieces are
    the other new runs.
    """
    rect, _, (bottom, right, top, left) = cell
    across_t = rect.t_hi - rect.t_lo >= rect.sigma_hi - rect.sigma_lo
    lo, hi = (rect.t_lo, rect.t_hi) if across_t else (rect.sigma_lo, rect.sigma_hi)
    c = 0.5 * (lo + hi) + shift
    if not lo < c < hi:
        return None
    if across_t:
        first, second = replace(rect, t_hi=c), replace(rect, t_lo=c)
        z0, z1 = complex(rect.sigma_hi, c), complex(rect.sigma_lo, c)
        line = np.linspace(z0, z1, _edge_count(z0, z1, spacing))
        crossed, part = (right, left), "imag"
    else:
        first, second = replace(rect, sigma_hi=c), replace(rect, sigma_lo=c)
        line = _side(c, rect.t_lo, rect.t_hi, spacing)
        crossed, part = (bottom, top), "real"
    cut = (np.asarray(line),), (f(line),)
    # The cut starts on the first crossed side and ends on the second; the
    # new runs are the cut, then each crossed side's pieces below and above it.
    runs = [cut]
    for (run, _), tip in zip(crossed, (slice(0, 1), slice(-1, None))):
        runs += _pieces(run, getattr(run[3], part), c, (cut[0][0][tip], cut[1][0][tip]))
    (_, s0), (_, s1) = crossed
    if across_t:
        sides = (bottom, (1, s0), (0, 1), (3, s1)), ((0, -1), (2, s0), top, (4, s1))
    else:
        sides = ((1, s0), (0, 1), (3, s1), left), ((2, s0), right, (4, s1), (0, -1))
    return first, second, runs, sides


def _pieces(run, k, c: float, end):
    """The points of the refined run whose k (their real or imaginary
    parts, monotone along it) is below c, and those whose k is above it,
    each joined to end, the (pts, vals) of the cut's end on it: two runs as
    (pts, vals) pieces in the run's direction."""
    pts, vals = run[3], run[4]
    (z, v), n = end, k.size
    if k[0] < k[-1]:
        i, j = k.searchsorted(c), k.searchsorted(c, "right")
        return ((pts[:i], z), (vals[:i], v)), ((z, pts[j:]), (v, vals[j:]))
    # Falling: the points above c are the first n - j, those below the last n - i.
    i, j = n - k[::-1].searchsorted(c), n - k[::-1].searchsorted(c, "right")
    return ((z, pts[i:]), (v, vals[i:])), ((pts[:j], z), (vals[:j], v))


def density_table(
    f,
    sigma_list,
    T: float,
    sigma_hi: float = 1.2,
    boundary_step: float = 0.01,
    exclude_origin: bool = False,
):
    """Rows (sigma, T, count) of zeros with Re s > sigma and 0 <= Im s <= T,
    in the order of sigma_list: the winding of f around the rectangle
    sigma < Re s < sigma_hi, t_lo < Im s < T.

    The window starts a hair below t = 0 so ladder zeros on the real axis are
    counted (t_lo = -1e-3); evaluators with a pole at s = 1 set
    exclude_origin to start just above it instead (t_lo = 1e-3).

    The rectangles of one attempt share their sides (_rect_runs): one
    vertical side per distinct sigma and one at sigma_hi, and the bottom
    and top lines cut at each sigma, each refined once.  A row whose count
    fails (its boundary meets a zero) is tried again with its sigma and
    sigma_hi both shifted by +1e-3, then -1e-3, then +2e-3 (_nudged); rows
    already counted are not counted again, and when a row fails at every
    shift its last error is raised.  As in winding_count, f may receive a
    VerticalLine (a vertical side), whose nodes are np.asarray(s), and
    boundary_step bounds only the steps accepted without a certificate.
    """
    if T <= 0:
        raise PreconditionError("density horizon T must be positive")
    T, t_lo = float(T), 1e-3 if exclude_origin else -1e-3
    sigmas = [float(sigma) for sigma in sigma_list]
    if any(sigma >= sigma_hi for sigma in sigmas):
        raise PreconditionError("sigma must be below sigma_hi")

    def attempt(todo, d):
        order = sorted(todo)
        rects = [Rectangle(sigma + d, sigma_hi + d, t_lo, T) for sigma in order]
        runs = _rect_runs(f, rects, _certificate(f, rects[0], boundary_step))
        got = dict(zip(order, map(_runs_winding, runs)))
        return [got[sigma] for sigma in todo]

    distinct = list(dict.fromkeys(sigmas))
    counts = dict(zip(distinct, _nudged(attempt, distinct, _NUDGES)))
    return [(sigma, T, counts[sigma]) for sigma in sigmas]


# ---------------------------------------------------------------------------
# Recurrence experiment


def _disc_lattice(r_disc: float, grid: int):
    """Midpoint lattice of the square [-r, r]^2 masked to the disc."""
    cell = 2.0 * r_disc / grid
    centers = -r_disc + (np.arange(grid, dtype=np.float64) + 0.5) * cell
    X, Y = np.meshgrid(centers, centers)
    mask = X**2 + Y**2 <= r_disc**2
    return (X[mask] + 1j * Y[mask]).ravel(), cell * cell


def recurrence_scan(
    f,
    s0: complex,
    r: float,
    T: float,
    t_step: float,
    grid: int = 64,
    threads=None,
) -> RecurrenceReport:
    """Scan t in [-T, T] for near-recurrences of f around a seed zero.

    A time t qualifies when the disc integral of |f(s+it) - f(s)| over
    |s - s0| <= r is at most 0.2 pi r^2 m0, with m0 the sampled minimum of
    |f| on the disc boundary.  Within each unit t-interval only the smallest
    integral is kept, and hits are thinned to pairwise separation >= 1.
    Times with |t| < 1 are excluded as trivial self-recurrences.

    For an evaluator with a `shifted` method (the Dirichlet polynomials,
    which also have `disc_sum`), a lower bound on every time's integral at
    O(terms) per time (see _lower_bounds) first drops the times whose bound
    exceeds the threshold by more than its rounding margin: their computed
    integrals would exceed it too, so they cannot be hits.  The kept times go to
    windows of as many grid times as fit in _POINT_CAP points, each one
    `shifted` table over its times and the disc lattice.  Any other callable
    is evaluated at every point of every time's window.  Each integral is
    the sum over one time's row, and a row's bits do not depend on the rows
    computed with it, so neither the window nor the pruned times change its
    bits.  The reported integral of each hit is recomputed from f's values
    at its points, so the report does not depend on which path ranked the
    times.
    """
    if r <= 0 or T <= 0 or t_step <= 0:
        raise PreconditionError("recurrence scan needs positive r, T, t_step")
    if not math.isfinite(2.0 * r * r):  # the lattice's x^2 + y^2 stays below 2 r^2
        raise PreconditionError("disc radius %g is too large: 2 r^2 is not finite" % r)
    if grid < 1:
        raise PreconditionError("recurrence scan needs grid >= 1")
    if grid * grid > _POINT_CAP:
        raise PreconditionError(
            "disc grid %d needs more than %d lattice points" % (grid, _POINT_CAP)
        )
    offsets, cell_area = _disc_lattice(r, grid)
    rows = _POINT_CAP // offsets.size  # grid times per window
    n_steps = int(round(finite_steps(T, t_step, "recurrence grid")))
    check_windows(2 * n_steps + 1, rows)
    idx = np.arange(-n_steps, n_steps + 1, dtype=np.int64)
    ts = idx.astype(np.float64) * t_step
    ts = ts[np.abs(ts) >= 1.0]  # drop the trivial self-recurrence window
    if ts.size == 0:
        raise PreconditionError(
            "no grid time has |t| >= 1 (T = %g, t_step = %g)" % (T, t_step)
        )
    s0 = complex(s0)
    seed_mag = abs(_eval_scalar(f, s0))
    if seed_mag > 1e-8:
        raise PreconditionError(
            "seed is not a zero: |f(s0)| = %.3e exceeds 1e-8" % seed_mag
        )
    isolation = winding_on_circle(f, s0, 1.5 * r, samples=1024)
    if isolation != 1:
        raise PreconditionError(
            "seed disc is not isolating: winding %d on |s - s0| = 3r/2" % isolation
        )
    ring_mags = np.abs(f(_ring(s0, r, _RING_SAMPLES)))
    m0 = float(ring_mags.min())
    if m0 <= 1e-12 * float(ring_mags.max()):
        raise PreconditionError("m0 vanishes on the seed circle")
    threshold = 0.2 * math.pi * r * r * m0

    disc = s0 + offsets
    base = f(disc)
    shifted = getattr(f, "shifted", None)

    def window(tt, product):
        rows = shifted(disc, tt) if product else f(disc[None, :] + 1j * tt[:, None])
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite row is no hit
            rows -= base
            return np.abs(rows).sum(axis=1) * cell_area

    def disc_integrals(tt, product):
        parts = map_spans(
            lambda lo, hi: window(tt[lo:hi], product), tt.size, rows, threads=threads
        )
        return np.concatenate(parts) if parts else tt

    if shifted is not None:
        lower, margin = _lower_bounds(f, disc, cell_area, ts)
        ts = ts[~(np.isfinite(lower) & (lower > threshold + margin))]
    integrals = disc_integrals(ts, shifted is not None)

    hit_mask = integrals <= threshold
    selected = {}
    for t, integral in zip(
        (float(x) for x in ts[hit_mask]), (float(x) for x in integrals[hit_mask])
    ):
        cell = math.floor(t)
        held = selected.get(cell)
        if held is None or (integral, t) < held:
            selected[cell] = (integral, t)
    ordered = sorted((t, integral) for integral, t in selected.values())
    thinned = []
    for t, integral in ordered:
        if thinned and t - thinned[-1][0] < 1.0:
            if integral < thinned[-1][1]:
                thinned[-1] = (t, integral)
        else:
            thinned.append((t, integral))
    hits = np.asarray([t for t, _ in thinned], dtype=np.float64)
    hit_integrals = disc_integrals(hits, False)
    return RecurrenceReport(
        s0=s0,
        r=float(r),
        m0=m0,
        T=float(T),
        t_step=float(t_step),
        threshold=threshold,
        hits=tuple(float(t) for t in hits),
        hit_integrals=tuple(float(v) for v in hit_integrals),
        lower_bound_rate=len(thinned) / (2.0 * float(T)),
    )


def _lower_bounds(f, disc, cell_area, ts):
    """(LB, margin): a lower bound on the row integral of every time of ts,
    and the rounding margin by which a computed LB may exceed a computed
    row integral.

    The row integral of t is A sum_p |f(p + it) - f(p)| over the P lattice
    points p of cell area A.  By the triangle inequality it is at least
    LB(t) = A |g(it) - g(0)|, with g(s) = sum_p f(p + s) the K-term
    polynomial of `disc_sum`, which costs O(K) per time instead of O(K P).
    The margin is

        2^-46 A (K + P + tau + 8) W,

    with W the `disc_sum` weight and tau = max |log n| (max |p| + max |t|).

    Derivation, with u = 2^-53, arithmetic correctly rounded and every exp,
    cos, sin and hypot within 2 ulps (W's floors make underflow such an
    error too).  Write F_p = sum_n |c_n n^{-p}|, so that W >= sum_p F_p.  A
    computed term c_n n^{-p-it} is within (2 tau + 16) u of its modulus,
    tau covering the rounded phases t log n and p log n, and a K-term BLAS
    sum adds (6K + 3) u F_p, so a computed f(p + it) or f(p) is within
    (6K + 2 tau + 19) u F_p.  The difference, its modulus, the P-term sum
    and the factor A then put the computed row integral within
    A u W (12K + 2P + 4 tau + 50) of the exact one.  The computed LB, from
    the P-term sums S_n, the products c_n S_n, the K-term sums g(it) and
    g(0), their difference and its modulus, is within
    A u W (7K + 2P + 6 tau + 39) of the exact LB.  The margin is more than
    six times the sum of the two.  An overflow leaves the margin or an LB
    non-finite.
    """
    g, weight = f.disc_sum(disc)
    tau = np.abs(g.logs).max(initial=0.0) * (np.abs(disc).max() + np.abs(ts).max())
    with np.errstate(over="ignore", invalid="ignore"):
        margin = 2.0**-46 * cell_area * (g.logs.size + disc.size + tau + 8) * weight
        lower = cell_area * np.abs(g.shifted(np.zeros(1), ts)[:, 0] - g.coeffs.sum())
    return lower, float(margin)


def rouche_verify(f, s0: complex, t_j: float, r: float, m0: float) -> bool:
    """True when the shifted function stays within 0.8 m0 of f on the seed
    circle AND the shifted disc demonstrably contains a zero.

    m0 is recomputed from the boundary; the passed value is advisory only.
    """
    return _rouche_checks(f, s0, [t_j], r)[0]


def _rouche_checks(f, s0: complex, hits, r: float) -> list:
    """rouche_verify at every time of hits.  The seed ring is evaluated
    once; the shifted rings of as many hits as fit in _POINT_CAP points go
    in one call (_values), and those hits' inner circles in one more
    (_circle_windings), so memory stays bounded however many hits there
    are.  A hit whose shifted ring or inner circle cannot be evaluated in
    its batch, or whose inner winding fails, is not verified."""
    if r <= 0:
        raise PreconditionError("disc radius must be positive")
    s0 = complex(s0)
    ring = _ring(s0, r, _RING_SAMPLES)
    f_ring = f(ring)
    bar = 0.8 * float(np.abs(f_ring).min())
    hits = [float(t) for t in hits]
    out, per_call = [], _POINT_CAP // _RING_SAMPLES
    for lo in range(0, len(hits), per_call):
        chunk = hits[lo : lo + per_call]
        shifted = _values(f, [ring + 1j * t for t in chunk])
        near = [v is not None and bool(np.abs(v - f_ring).max() <= bar) for v in shifted]
        centers = [s0 + 1j * t for t, ok in zip(chunk, near) if ok]
        inner = iter(_circle_windings(f, centers, r, 1024))
        out += [ok and next(inner) >= 1 for ok in near]
    return out


# ---------------------------------------------------------------------------
# Mollifier tail decay


def mollifier_tail_decay(a, b, sigma: float, X_list, N: int):
    """For each X: the squared-coefficient tail of the mollified series,
    sum over X < n <= N of |d_n|^2 n^{-2 sigma}, with d the coefficients of
    mollifier_coefficients(a, b, X, N); 0.0 for X >= N.

    The cut beyond N is covered by a geometric octave model: the last octave
    (N/2, N] is extrapolated by the ratio q = 2^{1-2 sigma}, which tracks the
    n^{-2 sigma} falloff of the summand.

    One pass serves every X: the b_d are pushed once, in ascending d
    (convolution._mollified), and at each distinct X, in ascending order,
    its tail is read from the table as the pushes reach it; n^{-2 sigma} is
    computed once, and each octave is summed from its tail's own terms.
    The results come in the order of X_list, and an X that fails raises
    only when the X before it in the list have their tails.  a and b are
    checked as coefficient arrays only when some X is below N.

    Raises:
        PreconditionError: as mollifier_coefficients, for the first X
            below N (in list order) that it refuses.
        NumericalError: the tail passes the float range, or the
            extrapolated remainder exceeds 10% of the partial value
            ("increase N").
    """
    if sigma <= 0.5:
        raise PreconditionError("need sigma > 1/2 for the remainder model")
    if int(N) < 2:
        raise PreconditionError("need N >= 2")
    N = int(N)
    q = 2.0 ** (1.0 - 2.0 * sigma)
    Xs = [int(X) for X in X_list]
    todo = sorted({X for X in Xs if X < N})
    tails, power = {}, None
    # A coefficient past the float range makes the tail inf, refused below.
    with np.errstate(over="ignore", invalid="ignore"):
        for X, d in _mollified(a, b, todo, N) if todo else ():
            if isinstance(d, PreconditionError):
                tails[X] = d
                continue
            if power is None:  # n^{-2 sigma} at n = 1..N
                power = np.arange(1, N + 1, dtype=np.float64) ** (-2 * sigma)
            # The tail, and its last octave (N/2, N] from the same terms.
            sq = np.abs(d[X + 1 :]) ** 2 * power[X:]
            tail, octave = _finite_sums(sq, max(X, N // 2) - X)
            if not math.isfinite(tail):
                tails[X] = NumericalError("the mollified tail is not a finite float")
            elif octave * q / (1.0 - q) > 0.1 * tail:
                tails[X] = NumericalError("increase N")
            else:
                tails[X] = tail
    out = []
    for X in Xs:
        tail = 0.0 if X >= N else tails[X]
        if isinstance(tail, Exception):
            raise tail
        out.append((X, tail))
    return out
