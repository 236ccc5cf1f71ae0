import math
import tracemalloc

import numpy as np
import pytest

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

from _oracles import LOG2_OVER_2PI


def _flow_points(cfg):
    """The flow at every grid time, as (k, dims) rows."""
    return torus._flow_columns(cfg, 0, cfg.grid_size()).T


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


def test_box_fractions_memory_does_not_grow_with_the_window():
    # numpy reports its data allocations to tracemalloc.  2e6 grid points in
    # two windows of 1e6; each window walks them through one-row block
    # buffers of about 2.7 MB, where one window's full (4, 1e6) cloud alone
    # is 32 MB.
    cfg = FlowConfig(dims=4, T=20_000.0)
    tracemalloc.start()
    try:
        box_hitting_fractions(cfg, standard_box_suite(), 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_box_fractions_build_one_row_at_a_time():
    # The same suite as above.  A 2^16-step block takes about 2.7 MB as one
    # coordinate row at a time; as one (dims, k) point array it would take
    # over 4 MB.
    cfg = FlowConfig(dims=4, T=20_000.0)
    tracemalloc.start()
    try:
        box_hitting_fractions(cfg, standard_box_suite(), 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3.5 * 2**20


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
