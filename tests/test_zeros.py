import math
import tracemalloc

import numpy as np
import pytest

from dirichlet_lab import (
    NumericalError,
    PreconditionError,
    Rectangle,
    builtin_series,
    default_evaluator,
    density_table,
    identity_coefficients,
    inverse_coefficients,
    mollifier_tail_decay,
    recurrence_scan,
    rouche_verify,
    winding_count,
    winding_on_circle,
    zero_scan,
    zeta_values,
)
from dirichlet_lab import _kernel
from dirichlet_lab import zeros as zeros_module

from _harness import run_cli
from _oracles import (
    MOLLIFY_TAILS,
    PERIOD2,
    PERIOD3,
    RH_ZERO_1,
    RVM_100,
    RVM_50,
    recurrence_scan_all_rows,
)

ETA = default_evaluator(builtin_series("eta-factor"))
ZETA_SPEC = builtin_series("zeta")

# second ladder fixture: 1 - 3^{0.8} 3^{-s}, zeros at 0.8 + i k (2 pi / log 3)
LADDER3 = _kernel.DirichletPolynomial([1.0, 3.0], [1.0, -(3.0**0.8)])


def _linear(root):
    def f(s):
        return np.asarray(s, dtype=np.complex128) - root

    return f


def test_winding_simple_zero():
    assert winding_count(_linear(1.0 + 1.0j), Rectangle(0.0, 2.0, 0.0, 2.0)) == 1
    assert winding_count(_linear(5.0 + 1.0j), Rectangle(0.0, 2.0, 0.0, 2.0)) == 0


def test_winding_double_zero():
    f = lambda s: (np.asarray(s, dtype=np.complex128) - (1.0 + 1.0j)) ** 2
    assert winding_count(f, Rectangle(0.0, 2.0, 0.0, 2.0)) == 2


def test_winding_is_additive_across_a_cut():
    total = winding_count(ETA, Rectangle(0.5, 1.5, 0.5, 31.5))
    low = winding_count(ETA, Rectangle(0.5, 1.5, 0.5, 15.5))
    high = winding_count(ETA, Rectangle(0.5, 1.5, 15.5, 31.5))
    assert total == 3  # ladder spacing 2 pi / log 2 = 9.06...
    assert low + high == total


def test_winding_evaluates_each_side_in_its_own_call(monkeypatch):
    # Each vertical side reaches the evaluator as a VerticalLine, the
    # kernel's matrix-product branch; the bottom and top sides are arrays.
    calls, polylines = [], []
    winding = zeros_module._polyline_winding

    def spy(f, pts, vals):
        polylines.append(pts)
        return winding(f, pts, vals)

    def f(s):
        calls.append(s)
        return ETA(s)

    monkeypatch.setattr(zeros_module, "_polyline_winding", spy)
    assert winding_count(f, Rectangle(0.5, 1.5, 0.5, 31.5)) == 3
    kinds = [type(s) for s in calls[:4]]
    assert kinds == [np.ndarray, _kernel.VerticalLine, np.ndarray, _kernel.VerticalLine]
    right, left = calls[1], calls[3]
    assert (right.sigma, right.t0, left.sigma, left.t0) == (1.5, 0.5, 0.5, 0.5)
    # The left side runs up from the start corner, so the polyline, which
    # walks it down, closes exactly.
    pts = polylines[0]
    assert pts[0] == 0.5 + 0.5j and pts[-1] == pts[0]
    assert pts.size == sum(np.size(s) for s in calls[:4])


def test_winding_zero_on_edge_is_detected():
    # right edge sigma = 1 runs through the ladder zero at t = 9.06...
    with pytest.raises(NumericalError, match="zero near boundary"):
        winding_count(ETA, Rectangle(0.5, 1.0, 8.0, 10.0))


def test_winding_on_circle():
    assert winding_on_circle(_linear(0.5j), 0.0j, 1.0) == 1
    assert winding_on_circle(_linear(3.0), 0.0j, 1.0) == 0
    with pytest.raises(PreconditionError, match="radius"):
        winding_on_circle(_linear(0.0), 0.0j, -1.0)


def test_winding_validation():
    with pytest.raises(PreconditionError, match="boundary step"):
        winding_count(ETA, Rectangle(0.5, 1.5, 1.0, 2.0), boundary_step=0.0)
    with pytest.raises(PreconditionError, match="sigma_lo < sigma_hi"):
        Rectangle(1.0, 0.5, 0.0, 1.0)


def test_zero_scan_ladder_location():
    records = zero_scan(ETA, Rectangle(0.5, 1.5, 8.5, 9.5))
    assert len(records) == 1
    rec = records[0]
    assert abs(rec.location - (1.0 + 1j * PERIOD2)) < 1e-9
    assert rec.winding_confirmed
    assert rec.refinement_residual <= 1e-10


@pytest.mark.filterwarnings("ignore:accuracy not guaranteed")
def test_zero_scan_first_critical_zero():
    records = zero_scan(zeta_values, Rectangle(0.4, 0.6, 14.0, 15.0))
    assert len(records) == 1
    rec = records[0]
    assert abs(rec.location.imag - RH_ZERO_1) < 1e-8
    assert abs(rec.location.real - 0.5) < 1e-9
    assert rec.winding_confirmed


def test_zero_scan_empty_region():
    assert zero_scan(ETA, Rectangle(0.5, 1.5, 2.0, 8.0)) == []


def test_zero_scan_reports_multiplicity():
    f = lambda s: (np.asarray(s, dtype=np.complex128) - (1.0 + 1.0j)) ** 2
    records = zero_scan(f, Rectangle(0.0, 2.0, 0.0, 2.0))
    assert len(records) == 2
    for rec in records:
        assert abs(rec.location - (1.0 + 1.0j)) < 1e-5


def test_zero_scan_adopts_boundary_zero():
    # t = 0 ladder zero sits exactly on the requested edge; the outward
    # nudge must include it rather than fail
    records = zero_scan(ETA, Rectangle(0.5, 1.5, 0.0, 10.0))
    assert len(records) == 2
    assert abs(records[0].location - (1.0 + 0.0j)) < 1e-9
    assert abs(records[1].location - (1.0 + 1j * PERIOD2)) < 1e-9


@pytest.mark.filterwarnings("ignore:accuracy not guaranteed")
@pytest.mark.parametrize(
    "g, rect",
    [(ETA, Rectangle(0.5, 1.5, -1.0, 1000.0)), (zeta_values, Rectangle(0.5, 1.5, 10.0, 100.0))],
    ids=["eta", "zeta"],
)
def test_newton_iterates_stay_in_their_cell(monkeypatch, g, rect):
    # Newton's one-point calls are its iterates; a step that would leave the
    # cell's 10% margin is refused before it is evaluated.  Unchecked, the
    # zeta rectangle evaluates 12 iterates far outside their cells.
    cells, far = [], []
    cell_zero = zeros_module._cell_zero

    def spy(f, cell, *args):
        cells.append(cell)
        try:
            return cell_zero(f, cell, *args)
        finally:
            cells.pop()

    def f(s):
        s = np.asarray(s)
        if cells and s.size == 1:
            c = cells[-1]
            size = max(c.sigma_hi - c.sigma_lo, c.t_hi - c.t_lo)
            if size >= 1e-6 and not zeros_module._cell_contains(c, s[0], 0.1 * size):
                far.append(s[0])
        return g(s)

    monkeypatch.setattr(zeros_module, "_cell_zero", spy)
    assert all(rec.winding_confirmed for rec in zero_scan(f, rect))
    assert far == []


def _spy_windings(monkeypatch):
    """Record every rectangle the zero scanner counts on."""
    seen = []
    count = zeros_module._rect_winding

    def spy(f, rect, *args):
        seen.append(rect)
        return count(f, rect, *args)

    monkeypatch.setattr(zeros_module, "_rect_winding", spy)
    return seen


def _vanishing(s):
    return np.zeros_like(np.asarray(s, dtype=np.complex128))


def test_zero_scan_nudges_a_cut_off_a_zero(monkeypatch):
    # the first cut, at t = 2 PERIOD2, runs through a ladder zero; it is
    # refused and the cut moves up by 1e-3
    seen = _spy_windings(monkeypatch)
    rect = Rectangle(0.5, 1.5, PERIOD2 - 1.0, 3.0 * PERIOD2 + 1.0)
    records = zero_scan(ETA, rect)
    assert len(records) == 3
    for k, rec in enumerate(records, start=1):
        assert abs(rec.location - (1.0 + 1j * k * PERIOD2)) < 1e-9
        assert rec.winding_confirmed
    base = 0.5 * (rect.t_lo + rect.t_hi)
    assert any(r.t_hi == base + 1e-3 for r in seen)


def test_zero_scan_gives_up_when_every_expansion_meets_a_zero(monkeypatch):
    seen = _spy_windings(monkeypatch)
    with pytest.raises(NumericalError, match="zero near boundary"):
        zero_scan(_vanishing, Rectangle(0.0, 1.0, 0.0, 1.0))
    assert len(seen) == 4  # the rectangle and three expansions


def test_zero_scan_evaluates_each_boundary_point_once(monkeypatch):
    # Halves inherit their parent's refined boundary, so beyond the first
    # boundary only the cuts (and refinement near them) are evaluated;
    # Newton steps and the confirming circles are not counted here.
    counted = [0]
    quiet = [False]

    def f(s):
        if not quiet[0]:
            counted[0] += np.size(s)
        return ETA(s)

    def uncounted(fn):
        def wrapped(*args):
            quiet[0] = True
            try:
                return fn(*args)
            finally:
                quiet[0] = False

        return wrapped

    for name in ("_newton_refine", "_confirm_circle"):
        monkeypatch.setattr(zeros_module, name, uncounted(getattr(zeros_module, name)))
    rect = Rectangle(0.5, 1.5, -1.0, 200.0)
    records = zero_scan(f, rect)
    first = sum(edge.size for edge in zeros_module._rect_edges(rect, 0.01))
    assert counted[0] <= 1.2 * first
    assert len(records) == 23  # t = 0, PERIOD2, ..., 22 PERIOD2 < 200
    for k, rec in enumerate(records):
        assert abs(rec.location - (1.0 + 1j * k * PERIOD2)) < 1e-9
        assert rec.winding_confirmed


def test_zero_scan_rejects_poles():
    f = lambda s: 1.0 / (np.asarray(s, dtype=np.complex128) - (1.0 + 5.0j))
    with pytest.raises(NumericalError, match="negative winding"):
        zero_scan(f, Rectangle(0.0, 2.0, 4.0, 6.0))


def test_zero_scan_validation():
    with pytest.raises(PreconditionError, match="tolerance"):
        zero_scan(ETA, Rectangle(0.5, 1.5, 8.5, 9.5), tol=0.0)


def test_density_ladder_counts():
    rows = density_table(ETA, [0.9], 50.0)
    assert rows == [(0.9, 50.0, 6)]  # t = 0, 9.06, ..., 45.32


@pytest.mark.filterwarnings("ignore:accuracy not guaranteed")
def test_density_critical_strip_counts():
    rows = density_table(
        zeta_values, [0.4], 50.0, exclude_origin=True
    ) + density_table(zeta_values, [0.4], 100.0, exclude_origin=True)
    counts = {T: n for _, T, n in rows}
    assert counts[50.0] == 10
    assert counts[100.0] == 29
    # the zero-counting main term tracks the winding counts within one zero
    assert abs(counts[50.0] - RVM_50) < 1.0
    assert abs(counts[100.0] - RVM_100) < 1.0


def test_density_nudges_an_edge_off_the_ladder(monkeypatch):
    # the left edge sigma = 1 runs through every ladder zero; at 1.001 the
    # rectangle holds none of them
    seen = _spy_windings(monkeypatch)
    assert density_table(ETA, [1.0], 50.0) == [(1.0, 50.0, 0)]
    assert [r.sigma_lo for r in seen] == [1.0, 1.0 + 1e-3]


def test_density_gives_up_when_every_edge_meets_a_zero(monkeypatch):
    seen = _spy_windings(monkeypatch)
    with pytest.raises(NumericalError, match="zero near boundary"):
        density_table(_vanishing, [0.5], 1.0)
    assert len(seen) == 4  # sigma edges shifted by 0, 1e-3, -1e-3, 2e-3


def test_density_validation():
    with pytest.raises(PreconditionError, match="T must be positive"):
        density_table(ETA, [0.9], 0.0)
    with pytest.raises(PreconditionError, match="below sigma_hi"):
        density_table(ETA, [1.3], 10.0)


def test_recurrence_requires_seed_zero():
    with pytest.raises(PreconditionError, match=r"seed is not a zero"):
        recurrence_scan(ETA, 1.5 + 0.0j, 0.05, 10.0, 0.01)


def test_recurrence_requires_isolation():
    def two_zeros(s):
        arr = np.asarray(s, dtype=np.complex128)
        return (arr - 1.0) * (arr - 1.05)

    with pytest.raises(PreconditionError, match="not isolating: winding 2"):
        recurrence_scan(two_zeros, 1.0 + 0.0j, 0.05, 10.0, 0.01)


def test_recurrence_argument_validation():
    with pytest.raises(PreconditionError, match="positive"):
        recurrence_scan(ETA, 1.0 + 0.0j, -0.05, 10.0, 0.01)
    with pytest.raises(PreconditionError, match="positive"):
        recurrence_scan(ETA, 1.0 + 0.0j, 0.05, 10.0, 0.0)


def test_recurrence_finds_ladder_periods():
    report = recurrence_scan(ETA, 1.0 + 0.0j, 0.05, 20.0, 0.01)
    assert len(report.hits) == 4
    assert report.lower_bound_rate == 4 / 40.0
    for t in report.hits:
        k = round(t / PERIOD2)
        assert k != 0
        assert abs(t - k * PERIOD2) <= 0.006  # within one grid step
    # hits are pairwise separated by at least one unit
    gaps = np.diff(report.hits)
    assert np.all(gaps >= 1.0)
    assert report.threshold == pytest.approx(
        0.2 * math.pi * 0.05**2 * report.m0, rel=1e-12
    )
    # every reported integral sits under the acceptance threshold
    assert all(v <= report.threshold for v in report.hit_integrals)


def test_recurrence_hits_verify_and_rescan():
    report = recurrence_scan(ETA, 1.0 + 0.0j, 0.05, 20.0, 0.01)
    for t in report.hits:
        assert rouche_verify(ETA, 1.0 + 0.0j, t, 0.05, report.m0)
        nearby = zero_scan(
            ETA, Rectangle(0.95, 1.05, t - 0.05, t + 0.05)
        )
        assert len(nearby) >= 1


def test_recurrence_second_ladder():
    report = recurrence_scan(LADDER3, 0.8 + 0.0j, 0.05, 20.0, 0.01)
    assert len(report.hits) == 6
    for t in report.hits:
        k = round(t / PERIOD3)
        assert k != 0
        assert abs(t - k * PERIOD3) <= 0.006


def test_recurrence_thinning_keeps_the_smaller_of_two_close_hits():
    # 1 - 1000^{1-s} vanishes at 1 + 2 pi i k / log 1000, 0.91 apart, so
    # adjacent unit cells hold hits closer than 1 and thinning replaces the
    # earlier one when the later integral is smaller.
    f = _kernel.DirichletPolynomial([1, 1000], [1.0, -1000.0])
    report = recurrence_scan(f, 1.0 + 0.0j, 0.05, 5.0, 0.01)
    assert report.hits == (-1.82, 1.82, 3.64)
    assert np.all(np.diff(report.hits) >= 1.0)
    assert all(v <= report.threshold for v in report.hit_integrals)
    slow = recurrence_scan(lambda s: f(s), 1.0 + 0.0j, 0.05, 5.0, 0.01)
    assert repr(slow) == repr(report)


def _spy_scans(monkeypatch):
    """The concatenated window results of every map_spans call in zeros."""
    scans = []
    real_map_spans = zeros_module.map_spans

    def spy(*args, **kwargs):
        windows = real_map_spans(*args, **kwargs)
        scans.append(np.concatenate(windows))
        return windows

    monkeypatch.setattr(zeros_module, "map_spans", spy)
    return scans


def _spy_rows(monkeypatch):
    """(points, shifts, row sums) of every `shifted` call that reduces rows
    (the scan's lattice rows), and the shift count of every other call."""
    rows, others = [], []
    real_shifted = _kernel.DirichletPolynomial.shifted

    def spy(self, points, shifts, reduce=None):
        out = real_shifted(self, points, shifts, reduce)
        if reduce is None:
            others.append(np.size(shifts))
        else:
            rows.append((np.size(points), np.array(shifts), out.copy()))
        return out

    monkeypatch.setattr(_kernel.DirichletPolynomial, "shifted", spy)
    return rows, others


def _row_times(rows):
    return np.concatenate([shifts for _, shifts, _ in rows] or [np.empty(0)])


def test_recurrence_product_path_matches_pointwise_path(monkeypatch):
    # ETA has `shifted`; the lambda hides it, so every point is evaluated.
    # The product path computes only the rows the disc-sum bound leaves, and
    # every time it prunes has an all-rows integral above the threshold.  The
    # rows it computes agree with the pointwise rows to rounding, and the hit
    # integrals are recomputed pointwise on both paths, so the two reports
    # are identical.
    _, ts, full = recurrence_scan_all_rows(ETA, 1.0 + 0.0j, 0.05, 20.0, 0.01)
    rows, _ = _spy_rows(monkeypatch)
    scans = _spy_scans(monkeypatch)
    fast = recurrence_scan(ETA, 1.0 + 0.0j, 0.05, 20.0, 0.01)
    slow = recurrence_scan(lambda s: ETA(s), 1.0 + 0.0j, 0.05, 20.0, 0.01)
    assert len(fast.hits) == 4
    assert repr(fast) == repr(slow)
    kept = np.isin(ts, _row_times(rows))
    assert 4 <= kept.sum() < 200
    assert np.all(full[~kept] > fast.threshold)
    # Each report maps its windows twice: the scan, then the hits.
    assert scans[2].size == ts.size
    np.testing.assert_allclose(scans[0], scans[2][kept], rtol=1e-10)


@pytest.mark.parametrize("kernel_cap", [None, 4000])
def test_recurrence_bits_do_not_depend_on_the_window_size(monkeypatch, kernel_cap):
    # The disc lattice has 3,228 points at grid 64: a cap of 4,096 points
    # makes one-time windows, 16,147 makes five-time windows.  A kernel cap
    # of 4,000 splits ETA's two terms into two blocks.  The integral of every
    # time the prune leaves is compared, not only the reported hits, and
    # every time it prunes has an all-rows integral above the threshold.
    if kernel_cap is not None:
        monkeypatch.setattr(_kernel, "_CAP", kernel_cap)
    _, ts, full = recurrence_scan_all_rows(ETA, 1.0 + 0.0j, 0.05, 20.0, 0.01)
    rows, _ = _spy_rows(monkeypatch)
    scans = _spy_scans(monkeypatch)
    reports = []
    for cap in (4096, 5 * 3228 + 7):
        monkeypatch.setattr(zeros_module, "_POINT_CAP", cap)
        for threads in (1, 2):
            reports.append(
                recurrence_scan(ETA, 1.0 + 0.0j, 0.05, 20.0, 0.01, threads=threads)
            )
    assert len(reports[0].hits) == 4
    assert {repr(rep) for rep in reports} == {repr(reports[0])}
    kept = np.isin(ts, _row_times(rows))
    assert len(scans) == 8 and 4 <= scans[0].size == kept.sum() < 200
    assert np.all(full[~kept] > reports[0].threshold)
    np.testing.assert_array_equal(scans[0], full[kept])
    for i, scan in enumerate(scans[2:]):
        np.testing.assert_array_equal(scan, scans[i % 2])


# 1 - 2 2^{-s} + 0.15 3^{-s} - 0.1 5^{-s} + 0.05 7^{-s} + 0.03 11^{-s}, and
# its real zero (mpmath findroot: 0.93986658570405145056...).
SIX = _kernel.DirichletPolynomial(
    [1, 2, 3, 5, 7, 11], [1.0, -2.0, 0.15, -0.1, 0.05, 0.03]
)
SIX_ZERO = 0.9398665857040515


@pytest.mark.parametrize(
    "ev, s0, T, n_hits",
    [(ETA, complex(1.0, k * PERIOD2), 20.0, 4) for k in (0, 1, -1, 2, -2)]
    + [
        (LADDER3, 0.8 + 0.0j, 20.0, 6),
        # No time up to 20 survives the prune; the hits are at +-63.46.
        (SIX, complex(SIX_ZERO), 20.0, 0),
        (SIX, complex(SIX_ZERO), 70.0, 2),
    ],
)
def test_pruned_scan_matches_the_all_rows_scan(monkeypatch, ev, s0, T, n_hits):
    # Reports and the integral of every row the prune leaves equal the
    # all-rows scan's bit for bit, at one and two threads, with the default
    # caps and with one-time windows and single-term kernel blocks.
    want, _, _ = recurrence_scan_all_rows(ev, s0, 0.05, T, 0.01)
    assert len(want.hits) == n_hits
    cell_area = zeros_module._disc_lattice(0.05, 64)[1]
    for point_cap, kernel_cap in ((zeros_module._POINT_CAP, _kernel._CAP), (4096, 4000)):
        # The kernel cap moves the term blocks, and so the bits; the window
        # size does not, so the oracle keeps its large windows.
        monkeypatch.setattr(_kernel, "_CAP", kernel_cap)
        _, ts, full = recurrence_scan_all_rows(ev, s0, 0.05, T, 0.01)
        monkeypatch.setattr(zeros_module, "_POINT_CAP", point_cap)
        for threads in (1, 2):
            with monkeypatch.context() as m:
                rows, _ = _spy_rows(m)
                got = recurrence_scan(ev, s0, 0.05, T, 0.01, threads=threads)
            assert repr(got) == repr(want)
            times = _row_times(rows)
            kept = np.isin(ts, times)
            assert kept.sum() == times.size < 200
            sums = np.concatenate([out for _, _, out in rows] or [np.empty(0)])
            np.testing.assert_array_equal(
                sums[np.argsort(times)] * cell_area, full[kept]
            )
            assert np.all(full[~kept] > got.threshold)


def _whole_table_distances(ev, points, shifts, base):
    """Each row's sum of |f - base| as the scan once took it: the whole
    shifted table first, then |table - base| and the row sums."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.abs(ev.shifted(points, shifts) - base).sum(axis=1)


# A complex polynomial with gaps in its indices, and one whose two terms
# both reach about 1e308 near Re s = -600, so that their sum overflows on the
# rows where their phases line up.
_GAPPED = _kernel.DirichletPolynomial(
    [1, 2, 5, 12, 13, 97], [1.0, -0.5 + 2j, 3j, 0.25 - 1j, -1.5, 0.75 + 0.5j]
)
_HUGE = _kernel.DirichletPolynomial([2, 3], [1e308 / 2.0**600, 1e308 / 3.0**600])


@pytest.mark.parametrize(
    "ev, sigma, P, K, kernel_cap, chunks",
    [
        # 1,000 points make chunks of 65 rows, so 131 shifts end in a
        # one-row chunk, which takes _product's duplicated-row path.
        (_GAPPED, 0.9, 1000, 131, None, [65, 65, 1]),
        # A kernel cap of 2,000 cuts the six terms into three blocks, so the
        # whole table is summed before its chunks are reduced.
        (_GAPPED, 0.9, 1000, 131, 2000, [65, 65, 1]),
        (_HUGE, -600.0, 1000, 131, None, [65, 65, 1]),
        # Past 32,768 points every chunk is a single row.
        (_GAPPED, 0.9, 40000, 3, None, [1, 1, 1]),
    ],
)
def test_streamed_row_distances_match_the_whole_table(
    monkeypatch, ev, sigma, P, K, kernel_cap, chunks
):
    if kernel_cap is not None:
        monkeypatch.setattr(_kernel, "_CAP", kernel_cap)
    rng = np.random.default_rng(P + K)
    # The two terms of _HUGE cancel near t = pi / log 1.5, and again at every
    # shift by a multiple of 2 pi / log 1.5, so there its rows stay finite.
    # Half of the shifts are such multiples.
    centre = sigma + 1j * math.pi / math.log(1.5)
    points = centre + rng.uniform(-5e-4, 5e-4, P) + 1j * rng.uniform(-5e-4, 5e-4, P)
    period = 2.0 * math.pi / math.log(1.5)
    shifts = np.concatenate(
        (rng.uniform(-100.0, 100.0, K - K // 2), period * np.arange(1, K // 2 + 1))
    )
    base = ev(points)
    reduce = zeros_module._row_distances(base)
    seen = []

    def spy(rows):
        seen.append(len(rows))
        return reduce(rows)

    got = ev.shifted(points, shifts, spy)
    assert seen == chunks
    assert np.array_equal(got, _whole_table_distances(ev, points, shifts, base), equal_nan=True)
    if ev is _HUGE:
        assert np.isfinite(base).all()
        assert 0 < np.isfinite(got).sum() < K


# One term on a one-point lattice, where the lower bound is the row integral
# in exact arithmetic, so only the margin covers the rounding.
_MONO = _kernel.DirichletPolynomial([7], [0.3 - 0.4j])

_BOUND_CASES = [
    (ETA, 1.0 + 0.0j, 0.05, 64),
    (LADDER3, 0.8 + 0.0j, 0.05, 64),
    (_GAPPED, 0.9 + 3.0j, 0.05, 32),
    # At Re s = -600.3 the rows of _HUGE overflow to inf or nan on most
    # shifts, while f stays finite on the lattice itself.
    (_HUGE, complex(-600.3, math.pi / math.log(1.5)), 5e-4, 16),
    (_MONO, 0.5 + 2.0j, 0.05, 1),
]


def _bound_shifts(seed):
    rng = np.random.default_rng(seed)
    return np.concatenate(
        (
            rng.uniform(-1e6, 1e6, 200),
            rng.uniform(-50.0, 50.0, 200),
            [-1e6, 1e6],
            PERIOD2 * np.arange(-5, 6),
            PERIOD3 * np.arange(-5, 6),
            2.0 * math.pi / math.log(1.5) * np.arange(1, 40),
        )
    )


@pytest.mark.parametrize("ev, centre, r, grid", _BOUND_CASES)
def test_lower_bound_minus_margin_is_at_most_the_row_integral(ev, centre, r, grid):
    offsets, area = zeros_module._disc_lattice(r, grid)
    disc = centre + offsets
    shifts = _bound_shifts(grid)
    lower, margin = zeros_module._lower_bounds(ev, disc, area, shifts)
    with np.errstate(over="ignore", invalid="ignore"):
        rows = ev.shifted(disc, shifts, zeros_module._row_distances(ev(disc))) * area
    bounded = np.isfinite(lower) & math.isfinite(margin)
    assert np.all(lower[bounded] - margin <= rows[bounded])
    # A row that overflows is never bounded, so it is never pruned.
    assert np.all(np.isfinite(rows[bounded]))
    if ev is _HUGE:
        assert not bounded.any()
        assert np.isfinite(rows).any()
        assert np.isnan(rows).any() and np.isinf(rows).any()
    else:
        assert bounded.all()


def test_margin_covers_the_rounding_of_both_sides():
    # Against 40-digit values of the same polynomial (the stored logs taken
    # as exact) on a 12-point lattice, the computed bound and the computed
    # row integral are each within the margin of their exact values.
    mpmath = pytest.importorskip("mpmath")
    offsets, area = zeros_module._disc_lattice(0.05, 4)
    disc = 0.9 + 3.0j + offsets
    shifts = np.array([-1e6, -777.25, -3.5, 1.0, 12.0, 4321.125, 1e6])
    lower, margin = zeros_module._lower_bounds(_GAPPED, disc, area, shifts)
    rows = _GAPPED.shifted(disc, shifts, zeros_module._row_distances(_GAPPED(disc)))
    with mpmath.workdps(40):
        logs = [mpmath.mpf(x) for x in _GAPPED.logs.tolist()]
        coeffs = [mpmath.mpc(c) for c in _GAPPED.coeffs.tolist()]

        def f(s):
            return mpmath.fsum(c * mpmath.exp(-l * s) for c, l in zip(coeffs, logs))

        ps = [mpmath.mpc(p) for p in disc.tolist()]
        at_p = [f(p) for p in ps]
        for t, low, row in zip(shifts.tolist(), lower.tolist(), rows.tolist()):
            diffs = [f(p + mpmath.mpc(0, t)) - v for p, v in zip(ps, at_p)]
            exact_row = area * mpmath.fsum(abs(d) for d in diffs)
            exact_low = area * abs(mpmath.fsum(diffs))
            assert exact_low <= exact_row
            error = abs(low - exact_low) + abs(row * area - exact_row)
            assert error <= margin


def test_quick_start_recur_computes_few_lattice_rows(monkeypatch):
    # The disc-sum bound is evaluated once at all 19,802 grid times; only the
    # times it cannot rule out reach a full 3,228-point lattice row (44 of
    # them), so a return to the full scan fails here.
    rows, others = _spy_rows(monkeypatch)
    code, _, err = run_cli(
        ["recur", "--series", "eta-factor", "--s0", "1+0i", "--r", "0.05", "--T", "100"]
    )
    assert code == 0, err
    assert others == [19802]
    assert {points for points, _, _ in rows} == {3228}
    assert 0 < _row_times(rows).size <= 200


@pytest.mark.parametrize("threads", [1, 2])
def test_recurrence_memory_does_not_grow_with_the_window(threads):
    # numpy reports its data allocations to tracemalloc.  A window of 324
    # grid times on the 3,228-point disc lattice took 16 MB as one table and
    # 8 MB more for its moduli, about 24 MB per running window; the reduced
    # chunks take about 1.5 MB.
    tracemalloc.start()
    try:
        recurrence_scan(ETA, 1.0 + 0.0j, 0.05, 20.0, 0.01, threads=threads)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20


def test_rouche_accepts_true_period_rejects_half():
    m0 = 0.03  # advisory; recomputed internally
    assert rouche_verify(ETA, 1.0 + 0.0j, 0.0, 0.05, m0)
    assert rouche_verify(ETA, 1.0 + 0.0j, PERIOD2, 0.05, m0)
    assert not rouche_verify(ETA, 1.0 + 0.0j, PERIOD2 / 2.0, 0.05, m0)
    with pytest.raises(PreconditionError, match="radius"):
        rouche_verify(ETA, 1.0 + 0.0j, 0.0, 0.0, m0)


def test_mollifier_tail_decay_pins():
    N = 100_000
    ones = ZETA_SPEC.coeffs.dense(N)
    mu = inverse_coefficients(ZETA_SPEC, N)
    tails = dict(mollifier_tail_decay(ones, mu, 0.75, [10, 100, 1000], N))
    for X, want in MOLLIFY_TAILS.items():
        assert abs(tails[X] - want) <= 1e-9 * want
    # longer mollifiers kill more of the tail
    assert tails[1000] < tails[100] < tails[10]
    assert tails[1000] < 0.5 * tails[10]


def test_mollifier_tail_decay_degenerate_cases():
    e = identity_coefficients(100)
    out = mollifier_tail_decay(e, e, 0.75, [10, 50], 100)
    assert out == [(10, 0.0), (50, 0.0)]
    ones = ZETA_SPEC.coeffs.dense(1000)
    mu = inverse_coefficients(ZETA_SPEC, 1000)
    out = mollifier_tail_decay(ones, mu, 0.75, [2000], 1000)
    assert out == [(2000, 0.0)]


def test_mollifier_tail_decay_guards():
    ones = ZETA_SPEC.coeffs.dense(200)
    mu = inverse_coefficients(ZETA_SPEC, 200)
    with pytest.raises(NumericalError, match="increase N"):
        mollifier_tail_decay(ones, mu, 0.75, [10], 200)
    with pytest.raises(PreconditionError, match="sigma > 1/2"):
        mollifier_tail_decay(ones, mu, 0.5, [10], 200)
    with pytest.raises(PreconditionError, match="N >= 2"):
        mollifier_tail_decay(ones, mu, 0.75, [10], 1)
