import math
import os
from fractions import Fraction
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dirichlet_lab import AccuracyWarning, PreconditionError, zeta_eval, zeta_values
from dirichlet_lab._kernel import VerticalLine
from dirichlet_lab import zeta as zeta_mod
from dirichlet_lab.zeta import (
    _BERN, _TOL, _add_correction, _euler_maclaurin, _line_correction, _orders, _terms_and_orders,
)

from _oracles import ZETA_0_5, ZETA_2, ZETA_4, line_node_digits

mpmath = pytest.importorskip("mpmath")

# Spot checks across the validated strip, compared live against mpmath at
# 30 digits.  Relative error must stay within the documented 1e-10.
STRIP_POINTS = [
    2.0 + 0.0j,
    1.5 + 0.0j,
    0.75 + 10.0j,
    0.6 + 1000.0j,
    4.0 + 0.0j,
    0.51 + 9999.0j,
    3.7 - 50.0j,
    0.9 + 123.456j,
]


def test_strip_accuracy_against_mpmath():
    mpmath.mp.dps = 30
    for s in STRIP_POINTS:
        want = complex(mpmath.zeta(mpmath.mpc(s.real, s.imag)))
        got = zeta_eval(s)
        assert abs(got - want) <= 1e-10 * abs(want), s


def test_closed_forms():
    assert abs(zeta_eval(2.0) - math.pi**2 / 6.0) < 1e-12
    assert abs(zeta_eval(2.0) - ZETA_2) < 1e-12
    assert abs(zeta_eval(4.0) - math.pi**4 / 90.0) < 1e-12
    assert abs(zeta_eval(4.0) - ZETA_4) < 1e-12


def test_pole_rejected():
    with pytest.raises(PreconditionError, match="zeta has a pole at s = 1"):
        zeta_eval(1.0)
    with pytest.raises(PreconditionError, match="pole"):
        zeta_values(np.asarray([2.0, 1.0 + 1e-14j]))


def test_left_half_plane_rejected():
    with pytest.raises(PreconditionError, match="requires Re s > 0"):
        zeta_eval(-1.0)
    with pytest.raises(PreconditionError, match="requires Re s > 0"):
        zeta_eval(0.0 + 5.0j)
    with pytest.raises(PreconditionError, match="finite"):
        zeta_eval(complex(np.inf, 0.0))


def test_height_past_the_term_cap_is_refused():
    # N = ceil(|Im s| / 3.5) = 2.9e9 terms would need 23 GB per table.  The
    # height is named even where a real part is far right too.
    for s in ([0.75 + 1e10j], [1e300 + 0j, 2 + 1e10j]):
        with pytest.raises(PreconditionError, match=r"^zeta at \|Im s\| = 1e\+10 needs "
                           r"2857142858 terms, above the cap of 20000000$"):
            zeta_values(np.asarray(s))


def test_real_part_that_doubles_N_past_the_term_cap_is_named():
    # At Re s = 1e300 no tabled order meets the bound at any N up to the
    # cap, so N doubles past it: the real part is the cause, not the height.
    with pytest.raises(PreconditionError, match=r"^zeta at max Re s = 1e\+300: no Bernoulli "
                       r"order meets the remainder bound within the cap of 20000000 terms$"):
        zeta_values(np.asarray([1e300 + 5j, 2 + 0j]))


def test_outside_strip_warns_but_stays_accurate():
    with pytest.warns(AccuracyWarning, match="accuracy not guaranteed"):
        val = zeta_eval(0.5)
    # On the critical line at t = 0 the formula is still essentially exact.
    assert abs(val - ZETA_0_5) <= 1e-12 * abs(ZETA_0_5)
    with pytest.warns(AccuracyWarning):
        zeta_eval(4.5)
    with pytest.warns(AccuracyWarning):
        zeta_eval(0.75 + 10001.0j)


@pytest.mark.parametrize(
    "x", [4.0001, 4.2, 4.5, 5.2, 6, 8, 10, 16, 40, 100, 400, 1000, 5000]
)
def test_real_axis_past_the_strip_against_mpmath(x):
    # The moment targets take zeta(2 sigma) and zeta(4 sigma) here, without
    # the strip warning.
    mpmath.mp.dps = 40
    want = mpmath.zeta(x)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AccuracyWarning)
        got = zeta_eval(x)
    assert got.imag == 0.0
    assert abs(mpmath.mpf(got.real) - want) <= 4.2e-16 * want


def test_inside_strip_no_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        zeta_eval(0.75 + 100.0j)


def test_vector_matches_scalar():
    pts = np.asarray(STRIP_POINTS)
    vec = zeta_values(pts)
    # The batch shares one truncation point and order, so recompute the
    # scalars at the (N, K) that zeta_values chose for the batch, for a
    # like-for-like comparison.
    N, K = _terms_and_orders(pts)
    for i, s in enumerate(STRIP_POINTS):
        one = _euler_maclaurin(np.asarray([s]), N, K)[0]
        assert abs(vec[i] - one) < 1e-13 * max(1.0, abs(vec[i]))


def test_conjugate_symmetry():
    s = 0.8 + 37.25j
    a = zeta_eval(s)
    b = zeta_eval(s.conjugate())
    assert abs(a - b.conjugate()) < 1e-12 * abs(a)


# A VerticalLine's partial sum takes the kernel's factored matrix product
# (one product of two exponential tables); spot nodes are checked against
# mpmath at the exact node, the sum of its four floats.
@pytest.mark.parametrize(
    "sigma, t0, h, P, every",
    [(0.75, 1800.0, 0.01, 20001, 250), (2.0, 9900.0, 0.05, 2001, 40)],
)
def test_vertical_line_against_mpmath(sigma, t0, h, P, every):
    mpmath.mp.dps = 30
    vals = zeta_values(VerticalLine(sigma, t0, h, P))
    assert vals.shape == (P,)
    for j in range(0, P, every):
        t = mpmath.fsum(mpmath.mpf(x) for x in line_node_digits(t0, h, P, j))
        want = complex(mpmath.zeta(mpmath.mpc(sigma, t)))
        assert abs(vals[j] - want) <= 1e-10 * abs(want), (sigma, t)


def test_document_independent_of_blas_threads():
    """BLAS threading is process-wide and outside --threads; the A1 moment
    document must not depend on it."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    argv = [sys.executable, "-m", "dirichlet_lab.cli", "moment", "--series",
            "zeta", "--sigma", "0.75", "--k", "1", "--T", "2000",
            "--step", "0.01"]
    docs = []
    for blas in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=blas,
                   PYTHONPATH=os.path.abspath(src))
        proc = subprocess.run(argv, env=env, capture_output=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        docs.append(proc.stdout)
    assert docs[0] == docs[1]


def test_bernoulli_coefficients_are_the_nearest_doubles():
    assert len(_BERN) == 40
    for k, c in enumerate(_BERN, start=1):
        num, den = mpmath.bernfrac(2 * k)
        assert c == float(Fraction(int(num), int(den) * math.factorial(2 * k))), k


def _backlund_bound(s, N, K):
    # |s + 2K + 1| / (sigma + 2K + 1) |T_{K+1}|, with
    # T_j = B_{2j} / (2j)! s (s + 1) ... (s + 2j - 2) N^{1 - s - 2j}.
    s = mpmath.mpc(s.real, s.imag)
    j = K + 1
    term = (mpmath.bernoulli(2 * j) / mpmath.factorial(2 * j)
            * mpmath.rf(s, 2 * j - 1) * mpmath.power(N, 1 - s - 2 * j))
    return abs(s + 2 * K + 1) / (s.real + 2 * K + 1) * abs(term)


# Each line is one 20,001-node VerticalLine, as a moment window: its
# (N, K) must meet the remainder tolerance at every point, K must be the
# least order that does at the line's top point, where the batch's bound is
# taken, and spot points stay within 1e-10 of mpmath.  The
# check is relative, except where |zeta| is below 1/2: there the rounding of
# the partial sum, which is measured (up to 2.3e-11 absolute near t = 1e4)
# and not certified, is checked as absolute.  At sigma = 0.51 near t = 1e4
# it reaches 3e-10 relative, as it did before N fell.
@pytest.mark.parametrize("t0, h", [(10.0, 0.01), (1800.0, 0.01), (9900.0, 0.005)])
@pytest.mark.parametrize("sigma", [0.51, 0.75, 2.0])
def test_chosen_order_meets_the_remainder_bound(sigma, t0, h):
    mpmath.mp.dps = 30
    line = VerticalLine(sigma, t0, h, 20001)
    s = np.asarray(line)
    N, K = _terms_and_orders(s)
    assert N == max(32, math.ceil(s.imag.max() / 3.5)) and 5 <= K < len(_BERN)
    for p in s[::2000]:
        assert _backlund_bound(p, N, K) <= _TOL, p
    assert K == 5 or _backlund_bound(s[-1], N, K - 1) > _TOL
    vals = zeta_values(line)
    for j in range(0, s.size, 2000):
        t = mpmath.fsum(mpmath.mpf(x) for x in line_node_digits(t0, h, 20001, j))
        want = complex(mpmath.zeta(mpmath.mpc(sigma, t)))
        assert abs(vals[j] - want) <= 1e-10 * max(abs(want), 0.5), s[j]


def _summation_formula(z, N, K):
    # N terms of the partial sum and K correction terms, in mpmath.
    want = mpmath.fsum(mpmath.power(n, -z) for n in range(1, N + 1))
    want += mpmath.power(N, 1 - z) / (z - 1) - mpmath.power(N, -z) / 2
    want += mpmath.fsum(
        mpmath.bernoulli(2 * j) / mpmath.factorial(2 * j) * mpmath.rf(z, 2 * j - 1)
        * mpmath.power(N, 1 - z - 2 * j) for j in range(1, K + 1))
    return complex(want)


# At a small N the formula matches the same formula in mpmath at the least
# order K that meets the remainder tolerance: the last order summed, about
# 2e-13, is far above the rounding of a partial sum this short, so a missing
# or wrong order shows.
@pytest.mark.parametrize("s, N", [(0.75 + 20j, 16), (2.0 + 12j, 8), (0.51 + 30j, 20)])
def test_every_order_is_summed_at_a_small_N(s, N):
    mpmath.mp.dps = 30
    K = _orders(N, s.real, s)
    assert K > 5 and _backlund_bound(s, N, K) <= _TOL
    want = _summation_formula(mpmath.mpc(s.real, s.imag), N, K)
    assert abs(_euler_maclaurin(np.asarray([s]), N, K)[0] - want) <= 1e-14


# The same on short VerticalLines ending at those points, whose correction
# takes the line path (_line_correction), at the exact nodes.
@pytest.mark.parametrize("sigma, t0, N", [(0.75, 15.5, 16), (2.0, 7.5, 8), (0.51, 25.5, 20)])
def test_every_order_is_summed_on_a_line_at_a_small_N(sigma, t0, N):
    mpmath.mp.dps = 30
    line = VerticalLine(sigma, t0, 0.5, 10)
    s = np.asarray(line)
    K = _orders(N, sigma, s[-1])
    assert K > 5 and _backlund_bound(s[-1], N, K) <= _TOL
    got = _euler_maclaurin(s, N, K, line)
    for j in range(s.size):
        t = mpmath.fsum(mpmath.mpf(x) for x in line_node_digits(t0, 0.5, 10, j))
        assert abs(got[j] - _summation_formula(mpmath.mpc(sigma, t), N, K)) <= 1e-14, j


# At equal (N, K), the line path's correction (Q re-expanded over the
# line's digits as two matrix products, N^{-s} from the kernel's exp tables
# at the exact nodes) against the array path's term-by-term recurrence at
# the rounded nodes, each without the partial sum.  Each path rounds the
# phase t log N (up to 8.1e4 here, whose ulp is 1.5e-11) to within about an
# ulp, so they may differ by about two ulps of it relative to the
# correction: 1.8e-11 measured at t near 1e4, 1.5e-13 absolute at
# sigma = 0.51, where the array path alone is 1.4e-13 from mpmath at the
# exact nodes.  Elsewhere they agree within 1e-13 absolute.
@pytest.mark.parametrize("t0", [0.01, 10.0, 1800.0, 9900.0])
@pytest.mark.parametrize("sigma", [0.51, 0.75, 2.0, 4.0])
def test_line_correction_matches_the_array_recurrence(sigma, t0):
    line = VerticalLine(sigma, t0, 0.01, 20001)
    s = np.asarray(line)
    N, K = _terms_and_orders(s)
    want = np.zeros_like(s)
    _add_correction(want, s, N, K)
    got = _line_correction(s, N, K, line)
    assert np.all(np.abs(got - want) <= 1e-13 + 3e-11 * np.abs(want))


# The same on random lines, at both signs of the height, from one node to
# a moment window's count.
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    st.floats(0.51, 4.0), st.floats(-1e4, 1e4), st.floats(0.005, 0.5),
    st.sampled_from([1, 2, 3, 10, 141, 20001]),
)
@example(0.51, 1e4, 0.5, 20001)  # the top node at 2e4, N = 5,715, K = 26
@example(0.51, -1e4, 0.5, 20001)
def test_line_correction_matches_the_array_recurrence_on_random_lines(sigma, t0, h, count):
    line = VerticalLine(sigma, t0, h, count)
    s = np.asarray(line)
    N, K = _terms_and_orders(s)
    want = np.zeros_like(s)
    _add_correction(want, s, N, K)
    got = _line_correction(s, N, K, line)
    assert np.all(np.abs(got - want) <= 1e-13 + 3e-11 * np.abs(want))


def test_wide_batch_doubles_N_until_an_order_meets_the_bound():
    # A zero scan's horizontal side from Re s = 0.5 to 300: at N = 32 and 64
    # the terms grow with the order at Re s = 300, so no tabled order meets
    # the tolerance, and N doubles to 128.
    s = np.asarray([0.5 + 10j, 300.0 + 20j])
    N, K = _terms_and_orders(s)
    assert N == 128 and K is not None
    assert _orders(64, 0.5, 300.0 + 20j) is None
    with pytest.warns(AccuracyWarning):
        vals = zeta_values(s)
    for p, val in zip(s, vals):
        assert _backlund_bound(p, N, K) <= _TOL
        want = complex(mpmath.zeta(mpmath.mpc(p.real, p.imag)))
        assert abs(val - want) <= 1e-12 * abs(want), p


def test_far_right_is_non_finite_without_a_numpy_warning():
    # Re s = 1e300: the correction terms pass the float range.  The suite
    # turns RuntimeWarning into an error, so a numpy warning would raise.
    with pytest.warns(AccuracyWarning):
        val = zeta_values(np.asarray([1e300 + 0j]))
    assert not np.isfinite(val).all()


def test_moment_window_sums_at_most_800_terms(monkeypatch):
    terms = []

    class Spy(zeta_mod.DirichletPolynomial):
        def __init__(self, indices, coeffs):
            terms.append(len(indices))
            super().__init__(indices, coeffs)

    monkeypatch.setattr(zeta_mod, "DirichletPolynomial", Spy)
    # N = ceil(2,000 / 3.5): the moment-zeta benchmark's top window.
    zeta_values(VerticalLine(0.75, 1800.0, 0.01, 20001))
    assert terms == [572]
