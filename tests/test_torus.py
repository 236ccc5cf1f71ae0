import json
import math

import numpy as np
import pytest

from dirichlet_lab import (
    Box,
    FlowConfig,
    PreconditionError,
    TorusPoint,
    TychonoffBall,
    ball_measure_mc,
    ball_time_average,
    box_from_json,
    box_hitting_fraction,
    box_hitting_fractions,
    flow_config_from_json,
    flow_point,
    log_frequencies,
    resolve_threads,
    standard_box_suite,
    time_average,
    tychonoff_distance,
)
from dirichlet_lab import torus
from dirichlet_lab.parallel import map_spans

from _oracles import LOG2_OVER_2PI, WEIGHT_TOTAL


def test_flow_point_wraps_fractional_parts():
    cfg = FlowConfig(dims=2, T=100.0)
    pt = flow_point(cfg, 10.0)
    want0 = (10.0 * LOG2_OVER_2PI) % 1.0
    assert abs(pt.coords[0] - want0) < 1e-12
    lam = log_frequencies(2)
    assert abs(pt.coords[1] - (10.0 * lam[1]) % 1.0) < 1e-12
    assert np.all((pt.coords >= 0.0) & (pt.coords < 1.0))


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

    def indicator(pts):
        return box.contains(pts).astype(np.float64)

    frac = box_hitting_fraction(cfg, box)
    avg = time_average(cfg, indicator)
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
    # Column i of the cloud depends on step and lam_i only, so the widest
    # box's cloud serves every box.
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


@pytest.mark.parametrize("lam", [None, (-0.3, 0.7, 0.05)])
def test_box_fractions_match_row_major_mod(monkeypatch, lam):
    # Small windows, so the walk crosses several; the oracle builds the grid
    # row-major with np.mod, as the flow is defined.
    monkeypatch.setattr(torus, "_TIME_CHUNK", 700)
    cfg = FlowConfig(dims=3, T=50.0, step=0.02, lam=lam)
    boxes = [
        Box(lo=(0.2,), hi=(0.7,)),
        Box(lo=(0.0, 0.1), hi=(0.5, 0.8)),
        Box(lo=(0.1, 0.3, 0.0), hi=(0.9, 0.6, 0.5)),
    ]
    n = cfg.grid_size()
    ts = np.arange(1, n + 1, dtype=np.float64) * cfg.step
    pts = np.mod(ts[:, None] * np.asarray(cfg.lam)[None, :], 1.0)
    want = [int(box.contains(pts).sum()) / n for box in boxes]
    for threads in (1, 2):
        assert box_hitting_fractions(cfg, boxes, threads) == want


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
    for k in ((1, 0), (0, 1), (1, 1), (2, -1), (1, 2), (3, 1)):
        kv = np.asarray(k, dtype=np.float64)

        def F(pts, kv=kv):
            return np.exp(2j * math.pi * (pts @ kv))

        got = time_average(cfg, F)
        q = np.exp(2j * math.pi * float(kv @ lam) * h)
        want = q * (q**n - 1.0) / (q - 1.0) / n
        assert abs(got - want) < 1e-9
        # equidistribution: the mean of a nontrivial character decays
        assert abs(got) < 0.01


def test_time_average_scalar_fallback():
    cfg = FlowConfig(dims=1, T=10.0, step=0.1)

    def point_only(p):
        if np.ndim(p) != 1:
            raise TypeError("one point at a time")
        return float(p[0])

    avg = time_average(cfg, point_only)
    grid = np.mod(
        np.arange(1, 101, dtype=np.float64) * 0.1 * cfg.lam[0], 1.0
    )
    assert abs(avg - grid.mean()) < 1e-12


def test_time_average_array_errors_propagate():
    cfg = FlowConfig(dims=1, T=10.0, step=0.1)

    def fails_on_arrays(p):
        if np.ndim(p) != 1:
            raise ZeroDivisionError("array path is broken")
        return float(p[0])

    with pytest.raises(ZeroDivisionError, match="array path is broken"):
        time_average(cfg, fails_on_arrays)


def test_flow_averages_same_bits_at_any_thread_count():
    # 2.5e6 grid points: three windows of _TIME_CHUNK.
    cfg = FlowConfig(dims=2, T=25_000.0)
    ball = TychonoffBall(
        center=TorusPoint(coords=np.asarray([0.3, 0.6])), radius=0.1, dims=2
    )

    def F(pts):
        return np.exp(2j * np.pi * (pts[:, 0] + 2.0 * pts[:, 1]))

    assert time_average(cfg, F, threads=1) == time_average(cfg, F, threads=2)
    one = ball_time_average(cfg, ball, F, threads=1)
    assert one == ball_time_average(cfg, ball, F, threads=2)


def test_tychonoff_distance_values():
    x = TorusPoint(coords=np.asarray([0.5, 0.25]))
    y = TorusPoint(coords=np.asarray([0.0, 0.0]))
    want = 0.5 * math.exp(-1.0) + 0.25 * math.exp(-2.0)
    assert abs(tychonoff_distance(x, y) - want) < 1e-15
    m = 50
    full = tychonoff_distance(
        TorusPoint(coords=np.zeros(m)), TorusPoint(coords=np.ones(m))
    )
    assert abs(full - WEIGHT_TOTAL) < 1e-15
    with pytest.raises(PreconditionError, match="dimension mismatch"):
        tychonoff_distance(x, TorusPoint(coords=np.zeros(3)))


def test_ball_requires_consistent_center():
    with pytest.raises(PreconditionError, match="radius"):
        TychonoffBall(center=TorusPoint(coords=np.zeros(2)), radius=0.0, dims=2)
    with pytest.raises(PreconditionError, match="center length"):
        TychonoffBall(center=TorusPoint(coords=np.zeros(3)), radius=0.1, dims=2)


def test_ball_time_average_agrees_with_monte_carlo():
    ball = TychonoffBall(
        center=TorusPoint(coords=np.asarray([0.5, 0.5])), radius=0.15, dims=2
    )
    cfg = FlowConfig(dims=2, T=20_000.0)
    frac = ball_time_average(cfg, ball, lambda pts: np.ones(pts.shape[0]))
    est, se = ball_measure_mc(ball, 200_000, seed=7)
    assert abs(frac - est) <= 5.0 * se + 0.01


def test_monte_carlo_determinism():
    ball = TychonoffBall(
        center=TorusPoint(coords=np.asarray([0.3, 0.6])), radius=0.12, dims=2
    )
    a = ball_measure_mc(ball, 150_000, seed=42)
    assert a == (0.4595666666666667, 0.0012867663490459475)
    b = ball_measure_mc(ball, 150_000, seed=42)
    assert a == b
    c = ball_measure_mc(ball, 150_000, seed=42, threads=4)
    assert a == c
    d = ball_measure_mc(ball, 150_000, seed=43)
    assert d != a


def test_monte_carlo_error_scaling():
    ball = TychonoffBall(
        center=TorusPoint(coords=np.asarray([0.5, 0.5])), radius=0.15, dims=2
    )
    _, se1 = ball_measure_mc(ball, 50_000, seed=3)
    _, se4 = ball_measure_mc(ball, 200_000, seed=3)
    assert 0.4 <= se4 / se1 <= 0.6


def test_monte_carlo_guards():
    ball = TychonoffBall(
        center=TorusPoint(coords=np.asarray([0.5])), radius=0.1, dims=1
    )
    with pytest.raises(PreconditionError, match="samples"):
        ball_measure_mc(ball, 9999, seed=1)
    with pytest.raises(PreconditionError, match="seed"):
        ball_measure_mc(ball, 10_000, seed=-1)


def test_flow_config_json_roundtrip(tmp_path):
    cfg = flow_config_from_json({"dims": 3, "T": 50.0, "step": 0.02})
    assert cfg.dims == 3 and cfg.T == 50.0 and cfg.step == 0.02
    assert len(cfg.lam) == 3
    path = tmp_path / "flow.json"
    path.write_text(json.dumps({"dims": 1, "T": 7.5, "lam": [0.25]}))
    cfg2 = flow_config_from_json(str(path))
    assert cfg2.lam == (0.25,) and cfg2.step == 0.01
    with pytest.raises(PreconditionError, match="dims and T"):
        flow_config_from_json({"dims": 2})


def test_box_json_roundtrip(tmp_path):
    box = box_from_json({"lo": [0.1, 0.2], "hi": [0.5, 0.6]})
    assert box.lo == (0.1, 0.2) and box.hi == (0.5, 0.6)
    path = tmp_path / "box.json"
    path.write_text(json.dumps({"lo": [0.0], "hi": [0.5]}))
    assert box_from_json(str(path)).volume == 0.5
    with pytest.raises(PreconditionError, match="lo and hi"):
        box_from_json({"lo": [0.0]})


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


def test_map_spans_refuses_too_many_windows():
    calls = []
    with pytest.raises(PreconditionError, match="windows"):
        map_spans(lambda lo, hi: calls.append(lo), 10**300, 1)
    assert calls == []
