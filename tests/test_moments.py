import math

import numpy as np
import pytest

from dirichlet_lab import (
    ExplicitSource,
    PreconditionError,
    QuadratureConfig,
    SeriesSpec,
    builtin_series,
    convolution_power,
    estimate_moment,
    lindelof_product,
    order_scan,
    polynomial_mean_exact,
    theoretical_target,
)

from _oracles import (
    ABS_ZETA_0_75,
    DIVISOR_RATIO_MAX,
    FOURTH_TARGET_1,
    MOMENT_ZETA_T250,
    ZETA_1_5,
    ZETA_2,
)

ETA = builtin_series("eta-factor")
ZETA = builtin_series("zeta")


def test_polynomial_mean_exact_hand_values():
    # |1 .. -2| at sigma = 1: 1 + 4/4
    assert polynomial_mean_exact([0.0, 1.0, -2.0], 1.0) == 2.0
    # sqrt-weighted second entry
    got = polynomial_mean_exact([0.0, 2.0, 0.0, 3.0j], 0.5)
    assert abs(got - (4.0 + 3.0)) < 1e-14
    with pytest.raises(PreconditionError):
        polynomial_mean_exact([1.0], 1.0)


def test_polynomial_moment_converges_to_exact_mean():
    # |1 - 2^{1-s}|^2 at sigma = 1 is 2 - 2 cos(t log 2), mean 2; the
    # finite-horizon deviation is |sin(T log 2)| / (T log 2) sized.
    report = estimate_moment(ETA, 1.0, 1, 5000.0)
    assert report.target == 2.0
    assert report.rel_error <= 1e-3
    assert abs(report.estimate - 2.0) <= 2.0 / (5000.0 * math.log(2.0)) * 1.01


def test_quadrature_rules_agree():
    # trapezoid boundary term is (h^2/12) f'(T)/T <= 2.4e-8 here; simpson's
    # h^4 error is negligible, so the gap is bounded by the trapezoid term.
    a = estimate_moment(ETA, 1.0, 1, 500.0, cfg=QuadratureConfig(rule="simpson"))
    b = estimate_moment(ETA, 1.0, 1, 500.0, cfg=QuadratureConfig(rule="trapezoid"))
    assert abs(a.estimate - b.estimate) < 5e-8


def test_moment_thread_count_invariance():
    a = estimate_moment(ETA, 1.0, 1, 200.0, threads=1)
    b = estimate_moment(ETA, 1.0, 1, 200.0, threads=4)
    assert a.estimate == b.estimate


def test_moment_zeta_regression_pin():
    # plausibility: at T = 250 the mean is already within ~20% of zeta(1.5)
    report = estimate_moment(ZETA, 0.75, 1, 250.0)
    assert abs(report.estimate - MOMENT_ZETA_T250) <= 1e-9 * MOMENT_ZETA_T250
    assert abs(report.estimate - ZETA_1_5) / ZETA_1_5 < 0.2


def test_theoretical_targets():
    assert abs(theoretical_target(ZETA, 0.75, 1) - ZETA_1_5) < 1e-10
    want4 = lindelof_product(2, 1.0)
    assert abs(theoretical_target(ZETA, 1.0, 2) - want4) < 1e-12
    assert theoretical_target(ZETA, 0.75, 3) is None
    assert theoretical_target(ZETA, 0.5, 1) is None  # 2 sigma hits the pole
    assert theoretical_target(ZETA, 0.25, 1) is None  # 4 sigma hits the pole
    assert theoretical_target(ETA, 1.0, 1) == 2.0
    assert theoretical_target(builtin_series("divisor_2"), 1.0, 1) is None
    # explicit series with an index too large for the k-fold convolution
    far = SeriesSpec(
        coeffs=ExplicitSource.from_pairs([(1, 1.0), (2000, 1.0)]),
        sigma_m=float("-inf"),
        sigma_a=float("-inf"),
    )
    assert theoretical_target(far, 1.0, 3) is None


def test_moment_guards():
    with pytest.raises(PreconditionError, match="exceed sigma_m"):
        estimate_moment(ZETA, 0.4, 1, 10.0)
    with pytest.raises(PreconditionError, match="must be positive"):
        estimate_moment(ETA, 1.0, 1, 0.0)
    with pytest.raises(PreconditionError, match="k must be >= 1"):
        estimate_moment(ETA, 1.0, 0, 10.0)
    with pytest.raises(PreconditionError, match="<= 0.05 for zeta"):
        estimate_moment(ZETA, 0.75, 1, 10.0, cfg=QuadratureConfig(step=0.1))
    with pytest.raises(PreconditionError, match="rule"):
        QuadratureConfig(rule="midpoint")
    with pytest.raises(PreconditionError, match="step"):
        QuadratureConfig(step=0.0)


def test_lindelof_product_values():
    assert abs(lindelof_product(1, 0.75) - ZETA_1_5) < 1e-10
    assert abs(lindelof_product(2, 1.0) - FOURTH_TARGET_1) < 1e-10 * FOURTH_TARGET_1
    with pytest.raises(PreconditionError, match="k = 1, 2 only"):
        lindelof_product(3, 0.75)
    with pytest.raises(PreconditionError, match="2 sigma > 1"):
        lindelof_product(1, 0.5)


def test_divisor_ratio_pin():
    N = 100_000
    ones = np.ones(N + 1, dtype=np.complex128)
    ones[0] = 0.0
    tau6 = convolution_power(ones, 6).real
    ns = np.arange(N + 1, dtype=np.float64)
    ns[0] = 1.0
    ratios = tau6 / ns**0.9
    n_star = int(np.argmax(ratios))
    assert n_star == 10080
    # independent route: 10080 = 2^5 3^2 5 7, tau_6 multiplicative in comb form
    tau_star = (
        math.comb(10, 5) * math.comb(7, 5) * math.comb(6, 5) * math.comb(6, 5)
    )
    assert tau6[10080] == tau_star
    assert abs(ratios[n_star] - DIVISOR_RATIO_MAX) <= 1e-12 * DIVISOR_RATIO_MAX


def test_order_scan_constant_series():
    unit = SeriesSpec(
        coeffs=ExplicitSource.from_pairs([(1, 2.5)]),
        sigma_m=float("-inf"),
        sigma_a=float("-inf"),
    )
    report = order_scan(unit, 1.0, [10.0, 100.0])
    assert report.slope == 0.0
    assert all(m == 2.5 for _, m in report.points)


def test_order_scan_zeta_near_critical():
    report = order_scan(ZETA, 0.75, [100.0, 1000.0])
    # t = 0 lies on the grid, where |zeta(0.75)| still dominates both windows
    t100 = dict(report.points)[100.0]
    assert abs(t100 - ABS_ZETA_0_75) <= 1e-8 * ABS_ZETA_0_75
    assert 0.0 <= report.slope < 0.25


def test_order_scan_same_bits_at_any_thread_count():
    # 20,021 nodes: two windows of _NODE_CHUNK, so threads=2 uses the pool.
    one = order_scan(ZETA, 0.75, [100.0, 1001.0], threads=1)
    assert one == order_scan(ZETA, 0.75, [100.0, 1001.0], threads=2)


def test_order_scan_absolute_convergence_is_flat():
    report = order_scan(ZETA, 2.0, [10.0, 50.0])
    assert report.slope == 0.0
    for _, m in report.points:
        assert m <= ZETA_2 * (1.0 + 1e-10)


def test_order_scan_guards():
    with pytest.raises(PreconditionError, match="exceed sigma_m"):
        order_scan(ZETA, 0.5, [10.0])
    with pytest.raises(PreconditionError, match="positive horizons"):
        order_scan(ZETA, 0.75, [])
    with pytest.raises(PreconditionError, match="positive horizons"):
        order_scan(ZETA, 0.75, [0.0, 10.0])
    with pytest.raises(PreconditionError, match="<= 0.05 for zeta"):
        order_scan(ZETA, 0.75, [10.0], cfg=QuadratureConfig(step=0.1))


def test_order_scan_refuses_an_infinite_grid():
    with pytest.raises(PreconditionError, match="T/step must be finite"):
        order_scan(ZETA, 2.0, [1e300], cfg=QuadratureConfig(step=1e-10))
