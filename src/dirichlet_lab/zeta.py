"""Euler-Maclaurin evaluation of the Riemann zeta function.

Validated envelope: 1/2 < Re s <= 4, |Im s| <= 1e4.  Outside that strip (but
still Re s > 0) values are computed and an AccuracyWarning is emitted.

Each batch of points takes N = max(32, ceil(max |Im s| / 3.5)) terms of the
partial sum, the Dirichlet-polynomial kernel of ._kernel, and the least
number K >= 5 of Bernoulli correction terms whose remainder bound
(Backlund's, _orders), taken over the whole batch, is at most 1e-13.  So
the truncation remainder is certified: at most 1e-13 absolute at every
point, in exact arithmetic.  A batch may be a VerticalLine (a moment
window, a rectangle's vertical side): its partial sum is the kernel's
factored matrix product at the line's exact nodes, its correction terms
are a bilinear form over the line's digits, two small matrix products
(_line_correction), and only N^{1-s} / (s - 1) takes np.asarray(line), the
nodes rounded to floats.  A 20,000-node moment window at Re s = 0.75 and
Im s up to 2,000 takes N = 572 and K = 24 (N = 800 and K = 15 while lines
took the correction term by term, as arrays do).

The rounding error is measured, not certified: against mpmath (25 digits)
at 3,968 points, nodes 0, 161, ..., 19,803 of each of 32 VerticalLines of
20,001 nodes (step 0.01, Im s from 10, 1,800, 5,000 or 9,800; Re s in
{0.501, 0.51, 0.55, 0.6, 0.75, 1, 2, 4}), at the exact nodes, the absolute
error stayed below 2.3e-11 and the relative error below 6.7e-11 for
Re s >= 0.55.  Nearer the left edge the relative error reached 2.5e-10
where |zeta| is small (Re s = 0.501).  Past the kernel's cap of 20,000,000
terms (|Im s| > 7e7) a point is refused before anything of that size is
allocated, and so is a batch whose real parts, far right of the strip,
double N past the cap.  No caller sets N.  Where a correction term passes
the float range (Re s near 1e300) the value is inf or nan, without a numpy
warning, for the caller to refuse.
"""

import math
import warnings

import numpy as np

from ._kernel import _MAX_TERMS, DirichletPolynomial, VerticalLine, _cis, _product
from .errors import AccuracyWarning, PreconditionError

__all__ = ["zeta_eval", "zeta_values"]

# The partial sum runs to N = max(32, ceil(max |Im s| / _RATIO)) terms.  Each
# further Bernoulli order then shrinks the correction by about
# (_RATIO / 2 pi)^2 = 0.31.  3.5 was the fastest of 2.5, 3, 3.5 and 4 for a
# zeta moment at T = 2,000 when a line's order cost as much as 9 terms (it
# costs about 2 now); it is kept, as another ratio moves every zeta value.
_RATIO = 3.5

# Absolute tolerance on the remainder bound: a batch takes the least order
# K >= 5 whose bound meets it.
_TOL = 1e-13

# B_{2k} / (2k)! for k = 1..40 (the nearest doubles), the coefficients of the
# correction terms of the summation formula.
_BERN = (
    1.0 / 12.0,
    -1.0 / 720.0,
    1.0 / 30240.0,
    -1.0 / 1209600.0,
    1.0 / 47900160.0,
    -5.284190138687493e-10,
    1.3382536530684679e-11,
    -3.3896802963225827e-13,
    8.586062056277845e-15,
    -2.174868698558062e-16,
    5.5090028283602295e-18,
    -1.3954464685812522e-19,
    3.534707039629467e-21,
    -8.953517427037546e-23,
    2.267952452337683e-24,
    -5.744790668872202e-26,
    1.455172475614865e-27,
    -3.6859949406653103e-29,
    9.336734257095045e-31,
    -2.36502241570063e-32,
    5.990671762482134e-34,
    -1.5174548844682903e-35,
    3.843758125454189e-37,
    -9.736353072646691e-39,
    2.466247044200681e-40,
    -6.247076741820743e-42,
    1.5824030244644914e-43,
    -4.008273685948936e-45,
    1.0153075855569557e-46,
    -2.5718041582418717e-48,
    6.514456035233815e-50,
    -1.6501309906896525e-51,
    4.179830628539476e-53,
    -1.058763466770291e-54,
    2.6818791912607708e-56,
    -6.793279351107421e-58,
    1.7207577616681404e-59,
    -4.358730329348894e-61,
    1.1040792903684666e-62,
    -2.7966655133781345e-64,
)
_LOG_BERN = tuple(math.log(abs(c)) for c in _BERN)


def _orders(N, sigma, corner):
    """Least K >= 5 whose remainder bound at N is at most _TOL, or None.

    Backlund's bound (Edwards, Riemann's Zeta Function, 6.4) on the
    remainder after K correction terms is
        |R_K| <= |s + 2K + 1| / (sigma + 2K + 1) |T_{K+1}|,
        T_j = B_{2j} / (2j)! s (s + 1) ... (s + 2j - 2) N^{1 - s - 2j}.
    It is taken at Re s = sigma, the batch's smallest real part, and with
    |s + j| <= |corner + j|, where corner = max Re s + i max |Im s|: a bound
    for every point, and on a vertical line the bound at its top point.
    Summed in logs, so it never overflows.
    """
    def log_abs(j):  # log |corner + j|
        return math.log(abs(corner + j))

    log_n, log_tol = math.log(N), math.log(_TOL)
    log_rising = sum(log_abs(j) for j in range(11))  # |s ... (s + 10)|
    for K in range(5, len(_BERN)):
        e = sigma + 2 * K + 1
        bound = log_abs(2 * K + 1) - math.log(e) + _LOG_BERN[K] + log_rising - e * log_n
        if bound <= log_tol:
            return K
        log_rising += log_abs(2 * K + 1) + log_abs(2 * K + 2)
    return None


def _terms_and_orders(arr, extent=None):
    """(N, K) for the batch arr: terms of the partial sum and Bernoulli orders.

    N is max(32, ceil(max |Im s| / _RATIO)) and K the least order whose
    remainder bound meets _TOL (_orders).  Where none does (real parts past
    about 2 pi N, as on a zero scan's side from Re s = 0.5 to 300), N doubles
    until one does or N passes _MAX_TERMS (K is then None).  extent is
    (min Re s, max Re s, max |Im s|), read from arr when not given.
    """
    lo, hi, height = extent or (
        float(arr.real.min()), float(arr.real.max()), float(np.abs(arr.imag).max())
    )
    N = max(32, math.ceil(height / _RATIO))
    while N <= _MAX_TERMS:
        K = _orders(N, lo, complex(hi, height))
        if K is not None:
            return N, K
        N *= 2
    return N, None


def _euler_maclaurin(arr, N, K, line=None) -> np.ndarray:
    """The summation formula at every point of arr: N terms of the partial
    sum and K Bernoulli correction terms.  Given a VerticalLine whose nodes
    arr holds, the partial sum runs on the line and the correction takes
    _line_correction."""
    out = DirichletPolynomial(np.arange(1, N + 1), np.ones(N))(arr if line is None else line)
    with np.errstate(over="ignore", invalid="ignore"):
        if line is None:
            _add_correction(out, arr, N, K)
        else:
            out += _line_correction(arr, N, K, line)
    return out


def _add_correction(out, arr, N, K):
    """out += the K correction terms at every point of arr, term by term."""
    logN = math.log(N)
    pow_1ms = np.exp((1.0 - arr) * logN)  # N^{1-s}
    out += pow_1ms / (arr - 1.0)
    out -= 0.5 * pow_1ms / N
    rising = arr.copy()  # s (s+1) ... (s+2k-2), built incrementally
    for k, c in enumerate(_BERN[:5], start=1):
        out += c * rising * pow_1ms * math.exp(-2.0 * k * logN)
        rising = rising * (arr + (2 * k - 1)) * (arr + 2 * k)
    if K > 5:
        # Orders 6..K: term_{k+1} = term_k (s + 2k - 1)(s + 2k) / N^2,
        # taken as (w + (2k - 1) / N)(w + 2k / N) with w = s / N, in place
        # on one accumulator that is added once.
        term = rising * pow_1ms * math.exp(-12.0 * logN)
        acc = _BERN[5] * term
        w, step = arr / N, np.empty_like(arr)
        for k in range(6, K):
            term *= np.add(w, (2 * k - 1) / N, out=step)
            term *= np.add(w, 2 * k / N, out=step)
            acc += np.multiply(term, _BERN[k], out=step)
        out += acc


def _line_correction(arr, N, K, line) -> np.ndarray:
    """The K correction terms at the nodes of line (arr: its nodes rounded),
    as N^{-s} (N / (s - 1) - 1/2 + Q(s / N)) with

        Q(w) = sum_{k <= K} B_{2k} / (2k)! w (w + 1/N) ... (w + (2k - 2)/N),

    term k of _add_correction over N^{-s}.  At node a m + c, s / N = w_a +
    u_c with w_a = (sigma + i base_a) / N and u_c = i offset_c / N (the
    line's digits), and Q(w_a + u_c) - 1/2 is, exactly, the sum over d, k
    of w_a^d / d! H[d, k] u_c^k / k!, with the Hankel matrix H[d, k] =
    Q^{(d + k)}(0) less 1/2 at (0, 0).  N^{-s}'s factors, the kernel's
    one-term tables of the bases and the offsets (_cis), scale those
    (bases x 2K) and (2K x offsets) tables: two small matrix products, and
    only N^{1-s} / (s - 1) takes a pass over the nodes."""
    # Q's coefficients a_1..a_{2K-1}: each rising product expanded once, by
    # (w + j/N) at a time; its entries are sums of positive terms.
    rising, coeffs = np.zeros(2 * K), np.zeros(2 * K)
    rising[1] = 1.0
    for k in range(K):  # the last pass's products go unused
        coeffs += _BERN[k] * rising
        for j in (2 * k + 1, 2 * k + 2):
            rising[1:] = rising[:-1] + j / N * rising[1:]
    # H[d, k] = a_{d+k} (d + k)!, zero past the degree 2K - 1.
    deg = np.arange(2 * K)
    coeffs *= np.cumprod(np.maximum(deg, 1.0))
    coeffs[0] = -0.5
    hankel = np.concatenate((coeffs, np.zeros(2 * K)))[deg[:, None] + deg]
    logs = np.array([math.log(N)])
    (ohi, olo, m), (bhi, blo, nb) = line._digits()
    inv = 1.0 / deg[1:]
    left = np.empty((nb, 2 * K), np.complex128)  # N^{-i base_a} w_a^d / d!
    left[:, 0] = _cis(bhi, blo, nb, logs)[:, 0]
    w = (line.sigma + 1j * np.add.outer(bhi, blo).ravel()[:nb]) / N
    left[:, 1:] = np.multiply.outer(w, inv)
    np.cumprod(left, axis=1, out=left)
    right = np.empty((2 * K, m), np.complex128)  # N^{-sigma - i offset_c} u_c^k / k!
    right[0] = _cis(ohi, olo, m, logs, math.exp(-line.sigma * logs[0]))[:, 0]
    right[1:] = np.multiply.outer(inv, 1j * (np.add.outer(ohi, olo).ravel()[:m] / N))
    np.cumprod(right, axis=0, out=right)
    # H is real and symmetric: H @ right in real arithmetic, on right's
    # interleaved real and imaginary parts.
    mid = np.empty_like(right)
    _product(hankel, right.view(np.float64), mid.view(np.float64), add=False)
    out = np.empty((nb, m), np.complex128)
    _product(left, mid, out, add=False)
    acc = np.subtract(arr, 1.0)
    np.divide(N, acc, out=acc)
    acc *= np.multiply.outer(left[:, 0], right[0]).ravel()[: line.count]
    acc += out.ravel()[: line.count]
    return acc


def zeta_values(s) -> np.ndarray:
    """zeta at every point of the complex array s, or at every node of the
    VerticalLine s (its partial sum on the line, the rest at np.asarray(s)).

    The truncation point N and the Bernoulli order K come from the batch's
    points alone (_terms_and_orders).

    Raises:
        PreconditionError: some Re s <= 0, s = 1 (the pole), or N above the
            cap of _MAX_TERMS terms: at |Im s| > 7e7, or where real parts far
            right of the strip double N past the cap.
    """
    line = s if isinstance(s, VerticalLine) else None
    arr = np.atleast_1d(np.asarray(s, dtype=np.complex128))
    if arr.size == 0:
        return arr.copy()
    if line is None:
        finite, lo, hi = np.all(np.isfinite(arr)), float(arr.real.min()), float(arr.real.max())
    else:  # every real part is sigma: only the imaginary parts are read
        finite = math.isfinite(line.sigma) and np.all(np.isfinite(arr.imag))
        lo = hi = line.sigma
    if not finite:
        raise PreconditionError("zeta argument must be finite")
    height = float(np.abs(arr.imag).max())
    if lo <= 0.0:
        raise PreconditionError("zeta evaluation requires Re s > 0")
    # |s - 1| < 1e-12 needs some Re s within 1e-12 of 1.
    if lo < 1.0 + 1e-12 and hi > 1.0 - 1e-12 and np.any(np.abs(arr - 1.0) < 1e-12):
        raise PreconditionError("zeta has a pole at s = 1")
    N, K = _terms_and_orders(arr, (lo, hi, height))
    if K is None:
        if height / _RATIO <= _MAX_TERMS:  # N doubled for the real parts
            raise PreconditionError(
                "zeta at max Re s = %g: no Bernoulli order meets the remainder"
                " bound within the cap of %d terms" % (hi, _MAX_TERMS)
            )
        raise PreconditionError(
            "zeta at |Im s| = %g needs %d terms, above the cap of %d"
            % (height, N, _MAX_TERMS)
        )
    if lo <= 0.5 or hi > 4.0 or height > 1e4:
        warnings.warn("accuracy not guaranteed", AccuracyWarning, stacklevel=2)
    return _euler_maclaurin(arr, N, K, line)


def zeta_eval(s) -> complex:
    """zeta(s) for a single complex point."""
    return complex(zeta_values(np.asarray([s], dtype=np.complex128))[0])
