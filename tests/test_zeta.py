import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from dirichlet_lab import AccuracyWarning, PreconditionError, zeta_eval, zeta_values
from dirichlet_lab._kernel import _vertical_grid

from _oracles import ZETA_0_5, ZETA_2, ZETA_4

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
    # N = ceil(|Im s|) = 1e10 terms would need 80 GB per table.
    with pytest.raises(PreconditionError, match="above the cap of 20000000"):
        zeta_values(np.asarray([0.75 + 1e10j]))


def test_outside_strip_warns_but_stays_accurate():
    with pytest.warns(AccuracyWarning, match="accuracy not guaranteed"):
        val = zeta_eval(0.5)
    # On the critical line at t = 0 the formula is still essentially exact.
    assert abs(val - ZETA_0_5) <= 1e-12 * abs(ZETA_0_5)
    with pytest.warns(AccuracyWarning):
        zeta_eval(4.5)
    with pytest.warns(AccuracyWarning):
        zeta_eval(0.75 + 10001.0j)


def test_inside_strip_no_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        zeta_eval(0.75 + 100.0j)


def test_vector_matches_scalar():
    pts = np.asarray(STRIP_POINTS)
    vec = zeta_values(pts)
    # The shared truncation point is the max over the batch, so recompute
    # the scalars at that same N for a like-for-like comparison.
    N = max(32, int(math.ceil(np.abs(pts.imag).max())))
    for i, s in enumerate(STRIP_POINTS):
        assert abs(vec[i] - zeta_eval(s, N=N)) < 1e-13 * max(1.0, abs(vec[i]))


def test_conjugate_symmetry():
    s = 0.8 + 37.25j
    a = zeta_eval(s)
    b = zeta_eval(s.conjugate())
    assert abs(a - b.conjugate()) < 1e-12 * abs(a)


# Whole vertical-line arrays take the kernel's separable path (one matrix
# product of two exponential tables); spot points are checked against mpmath.
@pytest.mark.parametrize(
    "sigma, t0, h, P, every",
    [(0.75, 1800.0, 0.01, 20001, 250), (2.0, 9900.0, 0.05, 2001, 40)],
)
def test_vertical_line_against_mpmath(sigma, t0, h, P, every):
    mpmath.mp.dps = 30
    s = np.full(P, sigma, dtype=np.complex128)
    s += 1j * (t0 + np.arange(P, dtype=np.float64) * h)
    assert _vertical_grid(s) is not None
    vals = zeta_values(s)
    for j in range(0, P, every):
        want = complex(mpmath.zeta(mpmath.mpc(s[j].real, s[j].imag)))
        assert abs(vals[j] - want) <= 1e-10 * abs(want), s[j]


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
