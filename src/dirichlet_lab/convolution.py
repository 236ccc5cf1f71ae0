"""Dirichlet convolution algebra on dense coefficient arrays.

Coefficient arrays are 1-based: a has length N+1 and a[0] is ignored (kept
zero), so a[n] is the coefficient of n^{-s}.
"""

import numpy as np

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

    Runs in O(N log N) by pushing each nonzero a_d across the stride-d
    slice.

    Raises:
        PreconditionError: the arrays differ in length.
    """
    a = _as_coeffs(a)
    b = _as_coeffs(b)
    if a.shape != b.shape:
        raise PreconditionError("length mismatch")
    N = a.size - 1
    c = np.zeros_like(a)
    for d in np.flatnonzero(a[1:]) + 1:
        c[d::d] += a[d] * b[1 : N // d + 1]
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

    Raises:
        PreconditionError: a_1 = 0 (message "no Dirichlet inverse"), or N
            below 1 or past the term cap (refused by dense).
    """
    return _inverse_of_table(spec.coeffs.dense(N))


@np.errstate(over="ignore", invalid="ignore")
def _inverse_of_table(a: np.ndarray) -> np.ndarray:
    """Inverse coefficients b of the dense table a (a[0] ignored), with
    a*b = e up to index N = a.size - 1 >= 1; entries past the float range
    are inf or nan, without a warning.

    Uses the push form of the recurrence b_n = -a_1^{-1} sum_{d|n, d>1}
    a_d b_{n/d}, one block of n with the same q = N // n at a time, in about
    2 sqrt(N) blocks.  Every proper divisor of n lies in an earlier block,
    so acc[n] is complete when its block starts; the block's b_n then push
    acc[k n] += b_n a_k for 2 <= k <= q at once.  No two pairs (k, n) of a
    block meet at one k n: k1 n1 = k2 n2 with n1 < n2 would give
    k1 / k2 = n2 / n1 < (q + 1) / q, but k2 < k1 <= q gives
    k1 / k2 >= q / (q - 1).  So each acc entry gains its terms one at a
    time, in the order of n, as the one-n-at-a-time loop adds them, and
    the bits are that loop's at any N: a[:t + 1] gives b[:t + 1].
    """
    N = a.size - 1
    if N < 1:
        raise PreconditionError("inverse requires N >= 1")
    if a[1] == 0:
        raise PreconditionError("no Dirichlet inverse")
    inv = 1.0 / a[1]
    b = np.zeros(N + 1, dtype=np.complex128)
    acc = np.zeros(N + 1, dtype=np.complex128)
    b[1] = inv
    if 2 <= N:
        acc[2:] += b[1] * a[2:]
    neg = -inv
    n = 2
    while n <= N:
        q = N // n
        hi = N // q + 1  # the block is n <= m < hi
        # b = -inv * acc in real arithmetic: the complex multiply of an
        # array may fuse a multiply-add, which a scalar multiply does not.
        block = acc[n:hi]
        b[n:hi].real = neg.real * block.real - neg.imag * block.imag
        b[n:hi].imag = neg.real * block.imag + neg.imag * block.real
        if q >= 2:
            ns = n + np.flatnonzero(b[n:hi])
            # One row per n, b_n times a_2..a_q, as each n pushed its own.
            acc[np.multiply.outer(ns, np.arange(2, q + 1))] += (
                b[ns, None] * a[None, 2 : q + 1]
            )
        n = hi
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
    ((_, d),) = _mollified(a, b, [X], N)
    if isinstance(d, PreconditionError):
        raise d
    d[1] = 1.0
    d[2 : X + 1] = 0.0
    return d


def _mollified(a, b, Xs, N: int):
    """For each X of the ascending, distinct Xs, in order: (X, d), with d
    the coefficients of mollifier_coefficients(a, b, X, N) before it sets
    d_1 and the head, or the PreconditionError it raises for X.

    The nonzero normalized b_d are pushed once, in ascending d, as
    dirichlet_convolve pushes them, so each X's table is the pushes up to
    X, with the bits of its own convolution.  d is one array, pushed on
    after each yield: read it before the next.  Raises PreconditionError
    when a or b is not a coefficient array.
    """
    a = _as_coeffs(a)
    b = _as_coeffs(b)
    d = None
    for X in Xs:
        if not 1 <= X < N:
            yield X, PreconditionError("mollifier requires 1 <= X < N")
            continue
        if a.size < N + 1 or b.size < X + 1:
            yield X, PreconditionError("coefficient arrays too short for (X, N)")
            continue
        if a[1] == 0 or b[1] == 0:
            yield X, PreconditionError("no Dirichlet inverse")
            continue
        if d is None:  # normalize once, up to the largest X to come
            top = max(x for x in Xs if x < min(N, b.size))
            an = a[: N + 1] / a[1]
            bn = np.zeros(top + 1, dtype=np.complex128)
            bn[1:] = b[1 : top + 1] / b[1]
            a_max = float(np.abs(an).max())
            d, pushed = np.zeros_like(an), 1  # b_1 .. b_{pushed - 1} are in d
        # bn has at most X nonzero terms, so pushing them costs O(N log X).
        for k in np.flatnonzero(bn[pushed : X + 1]) + pushed:
            d[k::k] += bn[k] * an[1 : N // k + 1]
        pushed = X + 1
        scale = max(1.0, a_max, float(np.abs(bn[: X + 1]).max()))
        head = d[2 : X + 1]
        if (head.size and np.abs(head).max() > 1e-9 * scale) or abs(d[1] - 1.0) > 1e-9 * scale:
            yield X, PreconditionError("b is not the Dirichlet inverse of a up to X")
        else:
            yield X, d
