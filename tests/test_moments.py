import math
import warnings

import numpy as np
import pytest

from dirichlet_lab import (
    AccuracyWarning,
    ExplicitSource,
    PreconditionError,
    QuadratureConfig,
    SeriesSpec,
    builtin_series,
    convolution_power,
    estimate_moment,
    load_source,
    theoretical_target,
)

from _oracles import (
    DIVISOR_RATIO_MAX,
    FOURTH_TARGET_1,
    MOMENT_ZETA_T250,
    ZETA_1_5,
)

ETA = builtin_series("eta-factor")
ZETA = builtin_series("zeta")


def _explicit(pairs):
    return SeriesSpec(
        coeffs=ExplicitSource.from_pairs(pairs),
        sigma_m=float("-inf"),
        sigma_a=float("-inf"),
    )


def test_explicit_target_hand_values():
    # 1 - 2 2^{-s} at sigma = 1: 1 + 4/4
    assert theoretical_target(_explicit([(1, 1.0), (2, -2.0)]), 1.0, 1) == 2.0
    # sqrt-weighted third entry: 4 + 9/3
    got = theoretical_target(_explicit([(1, 2.0), (3, 3.0j)]), 0.5, 1)
    assert abs(got - (4.0 + 3.0)) < 1e-14


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
    assert abs(theoretical_target(ZETA, 1.0, 2) - FOURTH_TARGET_1) < 1e-12
    assert theoretical_target(ZETA, 0.75, 3) is None
    assert theoretical_target(ZETA, 0.5, 1) is None  # 2 sigma hits the pole
    assert theoretical_target(ZETA, 0.25, 1) is None  # 4 sigma hits the pole
    assert theoretical_target(ETA, 1.0, 1) == 2.0
    assert theoretical_target(builtin_series("divisor_2"), 1.0, 1) is None
    # explicit series with an index too large for the k-fold convolution
    assert theoretical_target(_explicit([(1, 1.0), (2000, 1.0)]), 1.0, 3) is None


SIX_TERMS = load_source({"kind": "explicit", "coeffs": [
    [1, 1, 0], [2, -0.5, 0.25], [3, 0.3, -0.2], [5, 0.1, 0.4], [7, -0.2, -0.1], [11, 0.05, 0.3],
]})

# theoretical_target at sigma = 0.75, 1.0, 1.3, recorded by repr when the
# targets were computed by separate zeta-identity and polynomial-mean helpers.
TARGET_BITS = [
    (ZETA, 1, ("2.612375348685488", "1.6449340668482266", "1.3054778090727808")),
    (ZETA, 2, ("38.745144143901314", "6.7645202106946165", "2.8154086169587123")),
    (ETA, 1, ("2.414213562373095", "2.0", "1.659753955386447")),
    (ETA, 2, ("8.65685424949238", "6.0", "4.0742911031938505")),
    (ETA, 3, ("34.55634918610405", "20.0", "11.14243772205984")),
    (SIX_TERMS, 1, ("1.1559443910147373", "1.101154315417627", "1.0621029265840911")),
    (SIX_TERMS, 2, ("1.6593369959939348", "1.41872162948921", "1.2534058788623024")),
    (SIX_TERMS, 3, ("2.7334054028954293", "2.039668906628521", "1.6043405437001765")),
]


@pytest.mark.parametrize("spec,k,reprs", TARGET_BITS)
def test_targets_keep_their_bits(spec, k, reprs):
    with warnings.catch_warnings():
        # zeta(4 sigma) at 4 sigma = 5.2 lies outside zeta's validated strip
        warnings.simplefilter("ignore", AccuracyWarning)
        got = [theoretical_target(spec, sigma, k) for sigma in (0.75, 1.0, 1.3)]
    assert got == [float(r) for r in reprs]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_target_past_the_float_range_is_none():
    # |a_2|^2 = 1e400 overflows, also at sigma = 600 where 2^{-1200}
    # underflows to 0.
    big = _explicit([(1, 1.0), (2, 1e200), (3, 1.0)])
    assert theoretical_target(big, 200.0, 1) is None
    assert theoretical_target(big, 600.0, 1) is None
    report = estimate_moment(big, 200.0, 1, 10.0)
    assert math.isfinite(report.estimate)
    assert report.target is None and report.rel_error is None
    # finite squares whose sum passes the float range
    wide = _explicit([(1, 1.3e154), (2, 1.3e154), (3, 1.3e154)])
    assert theoretical_target(wide, 0.0, 1) is None


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
