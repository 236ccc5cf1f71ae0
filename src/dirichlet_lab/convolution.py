"""Dirichlet convolution algebra on dense coefficient arrays.

Coefficient arrays are 1-based: a has length N+1 and a[0] is ignored (kept
zero), so a[n] is the coefficient of n^{-s}.
"""

import numpy as np

from ._kernel import _MAX_TERMS
from .coefficients import SeriesSpec
from .errors import PreconditionError

__all__ = [
    "convolution_power",
    "dirichlet_convolve",
    "identity_coefficients",
    "inverse_coefficients",
    "mollifier_coefficients",
]


def _as_coeffs(a) -> np.ndarray:
    arr = np.asarray(a, dtype=np.complex128)
    if arr.ndim != 1 or arr.size < 2:
        raise PreconditionError("coefficient arrays are 1-based with length >= 2")
    return arr


def identity_coefficients(N: int) -> np.ndarray:
    """The convolution unit e = (1, 0, 0, ...) up to index N."""
    e = np.zeros(N + 1, dtype=np.complex128)
    e[1] = 1.0
    return e


def dirichlet_convolve(a, b) -> np.ndarray:
    """c with c_n = sum over divisors d of n of a_d b_{n/d}.

    Runs in O(N log N) by pushing each a_d across the stride-d slice.

    Raises:
        PreconditionError: the arrays differ in length.
    """
    a = _as_coeffs(a)
    b = _as_coeffs(b)
    if a.shape != b.shape:
        raise PreconditionError("length mismatch")
    N = a.size - 1
    c = np.zeros_like(a)
    for d in range(1, N + 1):
        ad = a[d]
        if ad != 0:
            c[d::d] += ad * b[1 : N // d + 1]
    return c


def convolution_power(a, m: int, N=None) -> np.ndarray:
    """m-fold Dirichlet self-convolution of a, truncated at index N."""
    if int(m) < 1:
        raise PreconditionError("convolution power requires m >= 1")
    m = int(m)
    a = _as_coeffs(a)
    if N is not None:
        if N < 1:
            raise PreconditionError("convolution power requires N >= 1")
        padded = np.zeros(N + 1, dtype=np.complex128)
        take = min(a.size, N + 1)
        padded[:take] = a[:take]
        a = padded
    result = identity_coefficients(a.size - 1)
    base = a
    while m:
        if m & 1:
            result = dirichlet_convolve(result, base)
        m >>= 1
        if m:
            base = dirichlet_convolve(base, base)
    return result


def inverse_coefficients(spec: SeriesSpec, N: int) -> np.ndarray:
    """Coefficients b of the reciprocal series, with a*b = e up to index N.

    Uses the push form of the recurrence b_n = -a_1^{-1} sum_{d|n, d>1}
    a_d b_{n/d}, so each computed b_m is scattered forward once.

    Raises:
        PreconditionError: a_1 = 0 (message "no Dirichlet inverse"), or N
            above the cap of _MAX_TERMS terms.
    """
    if N < 1:
        raise PreconditionError("inverse requires N >= 1")
    if N > _MAX_TERMS:
        raise PreconditionError(
            "inverse length %d exceeds the cap of %d terms" % (N, _MAX_TERMS)
        )
    a = spec.coeffs.dense(N)
    if a[1] == 0:
        raise PreconditionError("no Dirichlet inverse")
    inv = 1.0 / a[1]
    b = np.zeros(N + 1, dtype=np.complex128)
    acc = np.zeros(N + 1, dtype=np.complex128)
    b[1] = inv
    if 2 <= N:
        acc[2:] += b[1] * a[2:]
    for n in range(2, N + 1):
        bn = -inv * acc[n]
        b[n] = bn
        if bn != 0 and 2 * n <= N:
            acc[2 * n :: n] += bn * a[2 : N // n + 1]
    return b


def mollifier_coefficients(a, b, X: int, N: int) -> np.ndarray:
    """Residual coefficients d of a times the X-truncation of b.

    d_n = sum over divisors d of n with d <= X of b_d a_{n/d}.  Both inputs
    are normalized to leading coefficient 1 first.  The output is verified to
    satisfy d_1 = 1 and d_n = 0 for 1 < n <= X, then those entries are set
    exactly.

    Raises:
        PreconditionError: bad X range, a_1 = 0, or the zero pattern fails
            because b does not invert a ("b is not the Dirichlet inverse of a
            up to X").
    """
    a = _as_coeffs(a)
    b = _as_coeffs(b)
    if not 1 <= X < N:
        raise PreconditionError("mollifier requires 1 <= X < N")
    if a.size < N + 1 or b.size < X + 1:
        raise PreconditionError("coefficient arrays too short for (X, N)")
    if a[1] == 0 or b[1] == 0:
        raise PreconditionError("no Dirichlet inverse")
    a = a[: N + 1] / a[1]
    bX = np.zeros(N + 1, dtype=np.complex128)
    bX[1 : X + 1] = b[1 : X + 1] / b[1]
    # bX has at most X nonzero terms, so pushing them costs O(N log X).
    d = dirichlet_convolve(bX, a)
    scale = max(1.0, float(np.abs(a).max()), float(np.abs(bX).max()))
    head = d[2 : X + 1]
    if head.size and np.abs(head).max() > 1e-9 * scale:
        raise PreconditionError("b is not the Dirichlet inverse of a up to X")
    if abs(d[1] - 1.0) > 1e-9 * scale:
        raise PreconditionError("b is not the Dirichlet inverse of a up to X")
    d[1] = 1.0
    d[2 : X + 1] = 0.0
    return d
