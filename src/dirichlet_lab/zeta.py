"""Euler-Maclaurin evaluation of the Riemann zeta function.

Validated envelope: 1/2 < Re s <= 4, |Im s| <= 1e4.  Outside that strip (but
still Re s > 0) values are computed and an AccuracyWarning is emitted.

Measured accuracy, not a certified bound: against mpmath (25 digits) at
3,968 points on vertical-line arrays, Re s in {0.501, 0.51, 0.55, 0.6,
0.75, 1, 2, 4} and Im s up to 1e4, the absolute error stayed below 5e-11 and
the relative error below 9e-11 for Re s >= 0.55.  Nearer the left edge the
relative error reached 2.2e-9 where |zeta| is small (Re s = 0.501).  The
partial sum is the Dirichlet-polynomial kernel of ._kernel.
"""

import math
import warnings

import numpy as np

from ._kernel import DirichletPolynomial
from .errors import AccuracyWarning, PreconditionError

__all__ = ["zeta_eval", "zeta_values"]

# B_{2k} / (2k)! for k = 1..5; the correction terms of the summation formula.
_BERN = (
    1.0 / 12.0,
    -1.0 / 720.0,
    1.0 / 30240.0,
    -1.0 / 1209600.0,
    1.0 / 47900160.0,
)

def zeta_values(s, N=None) -> np.ndarray:
    """zeta at every point of the complex array s.

    The truncation point defaults to max(32, ceil(max |Im s|)), which keeps
    the correction series convergent throughout the validated strip.

    Raises:
        PreconditionError: some Re s <= 0, or s = 1 (the pole).
    """
    arr = np.atleast_1d(np.asarray(s, dtype=np.complex128))
    if arr.size == 0:
        return arr.copy()
    if not np.all(np.isfinite(arr)):
        raise PreconditionError("zeta argument must be finite")
    if np.any(arr.real <= 0.0):
        raise PreconditionError("zeta evaluation requires Re s > 0")
    if np.any(np.abs(arr - 1.0) < 1e-12):
        raise PreconditionError("zeta has a pole at s = 1")
    if (
        np.any(arr.real <= 0.5)
        or np.any(arr.real > 4.0)
        or np.any(np.abs(arr.imag) > 1e4)
    ):
        warnings.warn("accuracy not guaranteed", AccuracyWarning, stacklevel=2)
    if N is None:
        N = max(32, int(math.ceil(np.abs(arr.imag).max())))
    N = int(N)

    out = DirichletPolynomial(np.arange(1, N + 1), np.ones(N))(arr)
    logN = math.log(N)
    pow_1ms = np.exp((1.0 - arr) * logN)  # N^{1-s}
    out += pow_1ms / (arr - 1.0)
    out -= 0.5 * pow_1ms / N
    rising = arr.copy()  # s (s+1) ... (s+2k-2), built incrementally
    for k, c in enumerate(_BERN, start=1):
        out += c * rising * pow_1ms * math.exp(-2.0 * k * logN)
        rising = rising * (arr + (2 * k - 1)) * (arr + 2 * k)
    return out


def zeta_eval(s, N=None) -> complex:
    """zeta(s) for a single complex point."""
    return complex(zeta_values(np.asarray([s], dtype=np.complex128), N=N)[0])
