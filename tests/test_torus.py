import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dirichlet_lab import (
    Box,
    FlowConfig,
    PreconditionError,
    box_hitting_fraction,
    box_hitting_fractions,
    log_frequencies,
    resolve_threads,
    standard_box_suite,
)
from dirichlet_lab import parallel, torus
from dirichlet_lab.parallel import map_spans

from _oracles import LOG2_OVER_2PI, flow_points


def _flow_points(cfg):
    """The flow at every grid time, as (k, dims) rows."""
    return flow_points(cfg)


def test_flow_point_wraps_fractional_parts():
    cfg = FlowConfig(dims=2, T=100.0)
    pts = _flow_points(cfg)
    pt = pts[999]  # t = 1000 steps of 0.01
    want0 = (10.0 * LOG2_OVER_2PI) % 1.0
    assert abs(pt[0] - want0) < 1e-12
    lam = log_frequencies(2)
    assert abs(pt[1] - (10.0 * lam[1]) % 1.0) < 1e-12
    assert np.all((pts >= 0.0) & (pts < 1.0))


def test_flow_config_validation():
    with pytest.raises(PreconditionError, match="dimension"):
        FlowConfig(dims=0, T=10.0)
    with pytest.raises(PreconditionError, match="horizon"):
        FlowConfig(dims=1, T=0.0)
    with pytest.raises(PreconditionError, match="step"):
        FlowConfig(dims=1, T=10.0, step=-1.0)
    with pytest.raises(PreconditionError, match="frequency vector"):
        FlowConfig(dims=2, T=10.0, lam=(0.5,))


def test_box_geometry():
    box = Box(lo=(0.1, 0.2), hi=(0.6, 0.7))
    assert box.dims == 2
    assert abs(box.volume - 0.25) < 1e-15
    pts = np.asarray(
        [[0.1, 0.2, 0.99], [0.59, 0.69, 0.0], [0.6, 0.5, 0.5], [0.3, 0.1, 0.5]]
    )
    # third coordinate is unconstrained (cylinder semantics)
    np.testing.assert_array_equal(
        box.contains(pts), [True, True, False, False]
    )
    with pytest.raises(PreconditionError, match="fewer coordinates"):
        box.contains(np.asarray([[0.5]]))


def test_box_validation():
    with pytest.raises(PreconditionError):
        Box(lo=(0.5,), hi=(0.5,))
    with pytest.raises(PreconditionError):
        Box(lo=(0.0,), hi=(1.5,))
    with pytest.raises(PreconditionError):
        Box(lo=(-0.1,), hi=(0.5,))
    with pytest.raises(PreconditionError, match="matching"):
        Box(lo=(0.0, 0.0), hi=(0.5,))
    with pytest.raises(PreconditionError, match="matching"):
        Box(lo=(), hi=())


def test_hitting_fraction_is_indicator_average():
    cfg = FlowConfig(dims=2, T=500.0)
    box = Box(lo=(0.2, 0.1), hi=(0.7, 0.8))
    frac = box_hitting_fraction(cfg, box)
    avg = box.contains(_flow_points(cfg)).sum() / cfg.grid_size()
    assert frac == avg  # counts over the same grid: exact


def test_suite_equidistribution_modest_horizon():
    cfg4 = FlowConfig(dims=4, T=10_000.0)
    worst = 0.0
    for box in standard_box_suite():
        frac = box_hitting_fraction(cfg4, box)
        worst = max(worst, abs(frac - box.volume))
    assert worst <= 0.02


@pytest.mark.parametrize(
    "cfg, boxes",
    [
        # 2e6 grid points: two windows of _TIME_CHUNK.
        (FlowConfig(dims=4, T=10_000.0, step=0.005), standard_box_suite()),
        # 1.5e6 grid points, with a negative frequency.
        (
            FlowConfig(dims=2, T=15_000.0, lam=(-0.3, 0.7)),
            [
                Box(lo=(0.1,), hi=(0.45,)),
                Box(lo=(0.0, 0.3), hi=(0.6, 0.9)),
                Box(lo=(0.5, 0.0), hi=(1.0, 0.25)),
            ],
        ),
    ],
)
def test_box_suite_shares_one_cloud(cfg, boxes):
    # Coordinate i of the flow depends on step and lam_i only, so one walk
    # of the widest box's flow serves every box.
    for threads in (1, 2):
        shared = box_hitting_fractions(cfg, boxes, threads)
        alone = [
            box_hitting_fraction(
                FlowConfig(
                    dims=box.dims, T=cfg.T, step=cfg.step, lam=cfg.lam[: box.dims]
                ),
                box,
                threads,
            )
            for box in boxes
        ]
        assert shared == alone


_MOD_BOXES = [
    Box(lo=(0.2,), hi=(0.7,)),
    Box(lo=(0.0, 0.1), hi=(0.5, 0.8)),
    Box(lo=(0.1, 0.3, 0.0), hi=(0.9, 0.6, 0.5)),
]


@pytest.mark.parametrize(
    "cfg, boxes",
    [
        pytest.param(FlowConfig(dims=3, T=50.0, step=0.02), _MOD_BOXES, id="None"),
        pytest.param(
            FlowConfig(dims=3, T=50.0, step=0.02, lam=(-0.3, 0.7, 0.05)),
            _MOD_BOXES,
            id="lam1",
        ),
        # Every coordinate lands exactly on 0, .25, .5 or .75, so each box
        # edge is hit; lo = 0 and hi = 1 edges among them.
        pytest.param(
            FlowConfig(dims=2, T=2500.0, step=1.0, lam=(0.25, 0.5)),
            [
                Box(lo=(0.0,), hi=(0.25,)),
                Box(lo=(0.75,), hi=(1.0,)),
                Box(lo=(0.0, 0.5), hi=(1.0, 1.0)),
                Box(lo=(0.25, 0.0), hi=(0.75, 0.5)),
                Box(lo=(0.0, 0.0), hi=(1.0, 1.0)),
            ],
            id="exact-edges",
        ),
        # No box tests coordinates 2 and 3.  Their frequencies are infinite,
        # so building either row would raise the suite's RuntimeWarning
        # (inf - floor(inf) is NaN).
        pytest.param(
            FlowConfig(dims=4, T=50.0, step=0.02, lam=(0.3, -0.7, math.inf, math.inf)),
            [Box(lo=(0.0, 0.2), hi=(0.6, 1.0)), Box(lo=(0.1,), hi=(0.8,))],
            id="untested-rows",
        ),
        # A lower edge at 0 on the middle coordinate and an upper edge at 1
        # on the last, each hit exactly: {t lam_3} rounds to 1.0 for t < 56.
        pytest.param(
            FlowConfig(dims=3, T=2500.0, step=1.0, lam=(0.25, 0.5, -1e-18)),
            [
                Box(lo=(0.25, 0.0, 0.5), hi=(0.75, 0.5, 1.0)),
                Box(lo=(0.0, 0.0, 0.25), hi=(0.5, 1.0, 1.0)),
            ],
            id="middle-zero-edge",
        ),
    ],
)
def test_box_fractions_match_row_major_mod(monkeypatch, cfg, boxes):
    # Small windows and blocks, so the walk crosses several windows and each
    # window ends in a ragged block; the oracle builds the grid row-major
    # with np.mod, as the flow is defined, over the coordinates the boxes
    # test.
    monkeypatch.setattr(torus, "_TIME_CHUNK", 700)
    monkeypatch.setattr(torus, "_BLOCK", 256)
    n = cfg.grid_size()
    ts = np.arange(1, n + 1, dtype=np.float64) * cfg.step
    lam = np.asarray(cfg.lam)[: max(box.dims for box in boxes)]
    pts = np.mod(ts[:, None] * lam[None, :], 1.0)
    want = [int(box.contains(pts).sum()) / n for box in boxes]
    for threads in (1, 2):
        assert box_hitting_fractions(cfg, boxes, threads) == want


# Frequencies of both signs: zero and +-1e-18 (whose negative part rounds up
# to 1.0), exact quarters that land on the edges, and |step lam| >= 1, where
# the cells are taken at every step.
_LAMS = st.sampled_from([0.0, -0.0, 1e-18, -1e-18, 0.25, -0.5, 1.75, -3.0, LOG2_OVER_2PI])
_EDGE_GRID = (0.0, 0.1, 0.25, 0.3, 0.5, 0.75, 0.9, 1.0)


@st.composite
def _flows(draw):
    lam = draw(st.lists(_LAMS | st.floats(-3.0, 3.0), min_size=1, max_size=3))
    step = draw(st.sampled_from([1.0, 0.25, 0.02, 0.37]))
    boxes = []
    for _ in range(draw(st.integers(1, 3))):
        dims = draw(st.integers(1, len(lam)))
        pairs = [
            sorted(draw(st.lists(st.sampled_from(_EDGE_GRID), min_size=2, max_size=2, unique=True)))
            for _ in range(dims)
        ]
        boxes.append(Box(lo=[u for u, _ in pairs], hi=[v for _, v in pairs]))
    # 250-step windows of 64-step blocks, in 24-step chunks where a block
    # takes its cells at every step: each window ends in a ragged block,
    # and the grid in a ragged window whose last block is ragged.
    n = 250 * draw(st.integers(0, 3)) + 64 * draw(st.integers(0, 3)) + draw(st.integers(1, 63))
    return FlowConfig(dims=len(lam), T=n * step, step=step, lam=lam), boxes


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(flow=_flows())
@example(flow=(FlowConfig(dims=2, T=700.0, step=1.0, lam=(0.25, -1e-18)),
               [Box(lo=(0.25, 0.0), hi=(1.0, 1.0)), Box(lo=(0.0,), hi=(0.75,))]))
# Here x_n rounds onto some thresholds a step before (m + e) / (step lam).
@example(flow=(FlowConfig(dims=1, T=1000.0, step=1.0, lam=(-0.01,)), [Box(lo=(0.1,), hi=(0.25,))]))
def test_box_fractions_match_the_mod_oracle_on_any_flow(flow):
    cfg, boxes = flow
    n = cfg.grid_size()
    pts = flow_points(cfg)
    want = [int(box.contains(pts).sum()) / n for box in boxes]
    with mock.patch.multiple(torus, _TIME_CHUNK=250, _BLOCK=64, _CHUNK=24):
        for threads in (1, 2):
            assert box_hitting_fractions(cfg, boxes, threads) == want


@pytest.mark.parametrize(
    "lam, T",
    [((math.inf,), 10.0), ((-math.inf,), 10.0), ((math.nan,), 10.0), ((0.3, 1e300), 1e9)],
)
def test_non_finite_flow_coordinates_are_refused(lam, T):
    # T lam_i = 1e309 overflows.  The refusal comes before any grid work, so
    # numpy warns of nothing.
    cfg = FlowConfig(dims=len(lam), T=T, step=T / 1000.0, lam=lam)
    box = Box(lo=(0.0,) * len(lam), hi=(0.5,) * len(lam))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PreconditionError, match="finite lam_i and T lam_i"):
            box_hitting_fractions(cfg, [box])


def test_many_dimensional_box_is_counted_on_its_own_table():
    # Its 3^24 joint cells would need a table far larger than a block; the
    # box's own table counts the coordinates on which the point lies in it.
    cfg = FlowConfig(dims=24, T=400.0)
    box = Box(lo=(0.1,) * 24, hi=(0.9,) * 24)
    want = int(box.contains(flow_points(cfg)).sum())
    assert want > 0
    for threads in (1, 2):
        assert box_hitting_fraction(cfg, box, threads) == want / cfg.grid_size()


def test_box_fractions_memory_does_not_grow_with_the_window():
    # numpy reports its data allocations to tracemalloc.  2e6 grid points in
    # two windows of 1e6, counted in 2^18-step blocks by their cell changes;
    # the peak measured about 1.2 MB, where one window's full (4, 1e6) cloud
    # alone is 32 MB.
    cfg = FlowConfig(dims=4, T=20_000.0)
    tracemalloc.start()
    try:
        box_hitting_fractions(cfg, standard_box_suite(), 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_box_fractions_hold_only_their_cell_changes():
    # The same suite as above.  A block holds only its coordinates' cell
    # changes: the peak measured about 1.2 MB, where one coordinate's float
    # row over a 2^18-step block would alone take 2 MB.
    cfg = FlowConfig(dims=4, T=20_000.0)
    tracemalloc.start()
    try:
        box_hitting_fractions(cfg, standard_box_suite(), 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_box_wider_than_flow_is_refused():
    cfg = FlowConfig(dims=2, T=100.0)
    wide = Box(lo=(0.0, 0.0, 0.0), hi=(0.5, 0.5, 0.5))
    with pytest.raises(PreconditionError, match="box dimension"):
        box_hitting_fractions(cfg, [Box(lo=(0.0,), hi=(0.5,)), wide])
    with pytest.raises(PreconditionError, match="box dimension"):
        box_hitting_fraction(cfg, wide)


def test_exponential_sums_match_geometric_series():
    # For integer vectors k the sampled Weyl sum is an exact geometric
    # series in q = exp(2 pi i <k, lam> h); compare against the closed form.
    cfg = FlowConfig(dims=2, T=1000.0)
    lam = np.asarray(cfg.lam)
    n = cfg.grid_size()
    h = cfg.step
    pts = _flow_points(cfg)
    for k in ((1, 0), (0, 1), (1, 1), (2, -1), (1, 2), (3, 1)):
        kv = np.asarray(k, dtype=np.float64)
        got = np.exp(2j * math.pi * (pts @ kv)).mean()
        q = np.exp(2j * math.pi * float(kv @ lam) * h)
        want = q * (q**n - 1.0) / (q - 1.0) / n
        assert abs(got - want) < 1e-9
        # equidistribution: the mean of a nontrivial character decays
        assert abs(got) < 0.01


def test_flow_averages_same_bits_at_any_thread_count():
    # 2.5e6 grid points: three windows of _TIME_CHUNK.
    cfg = FlowConfig(dims=4, T=25_000.0)
    boxes = standard_box_suite()
    one = box_hitting_fractions(cfg, boxes, threads=1)
    assert one == box_hitting_fractions(cfg, boxes, threads=2)


def test_resolve_threads_precedence(monkeypatch):
    monkeypatch.delenv("DLAB_THREADS", raising=False)
    assert resolve_threads() == 1
    monkeypatch.setenv("DLAB_THREADS", "6")
    assert resolve_threads() == 6
    assert resolve_threads(2) == 2  # explicit argument wins
    monkeypatch.setenv("DLAB_THREADS", "0")
    with pytest.raises(PreconditionError, match="thread count"):
        resolve_threads()
    with pytest.raises(PreconditionError):
        resolve_threads(0)


def test_map_spans_preserves_order():
    want = [(0, 7), (7, 14), (14, 21), (21, 28), (28, 35), (35, 40)]
    for threads in (1, 8):
        assert map_spans(lambda lo, hi: (lo, hi), 40, 7, threads=threads) == want
    assert map_spans(lambda lo, hi: (lo, hi), 0, 7, threads=8) == []


def test_map_spans_keeps_order_past_the_windows_in_flight():
    n = 3 * parallel._IN_FLIGHT + 5
    want = [(lo, lo + 1) for lo in range(n)]
    assert map_spans(lambda lo, hi: (lo, hi), n, 1, threads=2) == want


@pytest.mark.parametrize(
    "threads, n, cores, workers",
    [
        (8, 40, 3, 3),  # capped at the cores
        (2, 40, 3, 2),  # at the thread count
        (8, 14, 3, 2),  # at the two windows
        (8, 40, None, None),  # an unknown core count runs serially
        (8, 40, 1, None),
    ],
)
def test_map_spans_starts_at_most_one_worker_per_core(
    monkeypatch, threads, n, cores, workers
):
    started = []

    class Pool(parallel.ThreadPoolExecutor):
        def __init__(self, max_workers):
            started.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(parallel.os, "cpu_count", lambda: cores)
    monkeypatch.setattr(parallel, "ThreadPoolExecutor", Pool)
    want = [(lo, min(lo + 7, n)) for lo in range(0, n, 7)]
    assert map_spans(lambda lo, hi: (lo, hi), n, 7, threads=threads) == want
    assert started == ([] if workers is None else [workers])


def test_map_spans_refuses_too_many_windows():
    calls = []
    with pytest.raises(PreconditionError, match="windows"):
        map_spans(lambda lo, hi: calls.append(lo), 10**300, 1)
    assert calls == []
