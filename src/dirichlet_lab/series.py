"""Pointwise evaluation of Dirichlet series: truncated sums, smooth-number
truncations with certified tails, torus twists, and squared-coefficient
(tail) norms.
"""

import cmath
import functools
import itertools
import math
import operator
import sys

import numpy as np

from ._kernel import _MAX_TERMS, DirichletPolynomial
from .coefficients import ExplicitSource, SeriesSpec, _is_zeta
from .errors import NumericalError, PreconditionError
from .primes import _SIEVE_BOUND, SmoothSet, first_primes, primes_up_to, smooth_enumerate
from .zeta import zeta_values

__all__ = [
    "default_evaluator",
    "smooth_truncation_eval",
    "tail_norm",
    "twisted_eval",
]

# Local Euler factors are summed to at most this many terms, over blocks of
# at most this many primes at a time.
_LOCAL_SUM_CAP = 400
_PRIME_BLOCK = 1 << 16


def _truncated(spec: SeriesSpec, N: int) -> DirichletPolynomial:
    """The first N terms of the series."""
    if N < 1:
        raise PreconditionError("truncation length must be >= 1")
    table = spec.coeffs.dense(N)
    return DirichletPolynomial(np.arange(1, table.size), table[1:])


def default_evaluator(spec: SeriesSpec, N: int = 100_000):
    """An s -> f(s) callable for the series, vectorized over arrays.

    The builtin zeta series gets the summation-formula evaluator; finite
    explicit series are evaluated exactly; everything else is truncated at N.
    The polynomials are DirichletPolynomial, which also tabulates vertical
    shifts (`shifted`).
    """
    if _is_zeta(spec):
        return zeta_values
    if isinstance(spec.coeffs, ExplicitSource):
        return DirichletPolynomial(*spec.coeffs.support())
    return _truncated(spec, N)


# ---------------------------------------------------------------------------
# Squared-coefficient norms


def _square_sum(values, ns, sigma: float, power=2) -> float:
    """sum |a|^power n^{-power sigma} (squares by default) over the paired
    arrays values and ns (integer or float), correctly rounded (_exact_units).
    inf, without a warning, when a term or the sum passes the float range
    (an overflowed |a|^2 times an underflowed n^{-2 sigma} is such a term)."""
    with np.errstate(over="ignore", invalid="ignore"):
        sq = np.abs(values) ** power * ns ** (-power * sigma)
    return _finite_sums(sq)[0]


def _finite_sums(terms, cut=0) -> tuple:
    """(the sum of the nonnegative terms, the sum of terms[cut:]), each
    correctly rounded (_exact_units) from one exact pass over the terms; inf
    for both when a term or the sum passes the float range."""
    if not np.isfinite(terms).all():
        return math.inf, math.inf
    tail = _exact_units(terms[cut:])
    try:
        return (_exact_units(terms[:cut]) + tail) / _ONE, tail / _ONE
    except OverflowError:  # finite terms whose sum passes the float range
        return math.inf, math.inf


# 1.0 in the units of _exact_units, 2^-1074 (the least subnormal) each.
_ONE = 1 << 1074

# The fraction bits a head keeps (_exact_units): all but the low 26.
_HEAD = np.uint64((1 << 64) - (1 << 26))

# Floats at least this large in magnitude are summed apart, scaled by 2^-128,
# so that no bucket sum of fewer than 2^26 floats passes the float range.
_BIG = 2.0**997


def _exact_units(x) -> int:
    """The sum of the finite floats x as an exact integer count of units
    2^-1074; _exact_units(x) / _ONE is the sum correctly rounded, as
    math.fsum gives it, for fewer than 2^26 floats, without a Python float
    per term.

    Each x is split at its bits (view(np.uint64)) into a head, x with the
    low 26 of its 52 fraction bits cleared, and the exact tail x - head.
    Floats of one sign and exponent (their top 12 bits, the bucket) have
    heads that are multiples of one power of two, below 2^27 of it, and
    tails multiples of a smaller one, below 2^26 of it; so every partial
    sum np.bincount forms in a bucket is such a multiple below 2^53 of it,
    exact.  The bucket sums are combined in Python ints, and one int / int
    division, which is correctly rounded, gives the float; it raises
    OverflowError when the sum passes the float range.
    """
    x = np.asarray(x, dtype=np.float64).ravel()
    if x.size and (x.max() >= _BIG or x.min() <= -_BIG):
        big = np.abs(x) >= _BIG
        return _exact_units(x[~big]) + (_exact_units(x[big] * 2.0**-128) << 128)
    bits = x.view(np.uint64)
    head = (bits & _HEAD).view(np.float64)
    bucket = (bits >> np.uint64(52)).view(np.int64)
    heads = np.bincount(bucket, weights=head)
    tails = np.bincount(bucket, weights=np.subtract(x, head, out=head))
    sums = np.concatenate((heads, tails))
    total = 0
    for v in sums[np.flatnonzero(sums)].tolist():
        n, d = v.as_integer_ratio()  # d a power of two, at most 2^1074
        total += n * (_ONE // d)
    return total


def tail_norm(spec: SeriesSpec, sigma: float, N: int):
    """(partial, bound): sum of |a_n|^2 n^{-2 sigma} to N plus a certified
    bound on the rest.

    Explicit series get the exact finite remainder.  Sources whose square
    growth base is at most 1 (so |a_n| <= 1) use the integral comparison
    N^{1-2s}/(2s-1); other multiplicative sources get a shifted-exponent
    bound through their Euler factors.  A partial sum past the float range is inf.

    Raises:
        PreconditionError: N < 1, 2 sigma <= 1 for a non-explicit source, or
            N above _MAX_TERMS (checked before the table is built).
    """
    if N < 1:
        raise PreconditionError("tail_norm requires N >= 1")
    src = spec.coeffs
    if isinstance(src, ExplicitSource):
        idx, val = src.support()
        return tuple(_square_sum(val[m], idx[m], sigma) for m in (idx <= N, idx > N))
    if 2.0 * sigma <= 1.0:
        raise PreconditionError(
            "tail norm diverges: need 2 sigma > 1 for this source"
        )
    if N > _MAX_TERMS:
        raise PreconditionError(
            "tail norm length %d exceeds the cap of %d terms" % (N, _MAX_TERMS)
        )
    partial = _square_sum(src.dense(int(N))[1:], np.arange(1, int(N) + 1), sigma)
    if src.square_growth_base <= 1.0:
        return partial, N ** (1.0 - 2.0 * sigma) / (2.0 * sigma - 1.0)
    return partial, _rankin_square_tail(src, sigma, N)


def _rankin_square_tail(src, sigma: float, N: int) -> float:
    """Bound on sum_{n>N} |a_n|^2 n^{-2 sigma} via a shifted exponent.

    Uses sum_{n>N} g(n) n^{-2s} <= N^{beta-2s} sum_n g(n) n^{-beta} for trial
    exponents 1 < beta < 2s, the latter bounded through Euler factors: exact
    local sums for p <= P and a geometric envelope g(p^e) <= G^e beyond.
    Trials whose P lies past the sieve bound are skipped before sieving.

    Raises:
        NumericalError: no trial fits the sieve bound, or every trial meets
            a divergent local factor or a bound past the float range.
    """
    G = max(1.0, float(src.square_growth_base))
    trials = []
    for frac in (0.2, 0.35, 0.5, 0.65, 0.8):
        beta = 1.0 + frac * (2.0 * sigma - 1.0)
        bound = (2.0 * G) ** (1.0 / beta)
        if bound <= _SIEVE_BOUND:
            trials.append((beta, max(1000, math.ceil(bound))))
    if not trials:
        raise NumericalError(
            "tail norm: square growth base G = %g needs primes past %d"
            % (G, _SIEVE_BOUND)
        )
    best = math.inf  # log of the least bound
    for beta, P in trials:
        local = _local_factors(
            src, primes_up_to(P), beta, lambda a: _pow(np.hypot(a.real, a.imag), 2)
        )
        if not np.isfinite(local).all():
            continue
        # Primes beyond P: each factor <= 1 + 2 G p^{-beta}, log-summed
        # against the integral envelope (valid once G P^{-beta} <= 1/2).
        log_prod = _log_sum(local) + 2.0 * G * P ** (1.0 - beta) / (beta - 1.0)
        best = min(best, (beta - 2.0 * sigma) * math.log(N) + log_prod)
    if not best < math.log(sys.float_info.max):
        raise NumericalError("divergence detected in tail norm")
    return math.exp(best)


def _local_factors(src, ps, s, weight):
    """sum_{e >= 0} weight(a_{p^e}) p^{-es} for every prime of ps, with
    weight(a_1) = 1, one exponent per step over the primes of a block still
    open.  Not finite where the sum does not converge: no term falls below
    1e-18 of the total within _LOCAL_SUM_CAP terms, the total is not
    finite, or the rule overflows (ending every prime open at that e)."""
    out = np.ones(ps.size, dtype=np.result_type(float, s))
    for lo in range(0, ps.size, _PRIME_BLOCK):
        x = _pow(ps[lo : lo + _PRIME_BLOCK].astype(np.float64), -s)
        total = out[lo : lo + x.size]
        live = np.arange(x.size)
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                for e in range(1, _LOCAL_SUM_CAP + 1):
                    if not live.size:
                        break
                    term = weight(src.prime_powers(ps[lo + live], e)) * _pow(x[live], e)
                    total[live] += term
                    sums = total[live]
                    live = live[np.isfinite(sums) & (np.abs(term) > 1e-18 * np.abs(sums))]
            except OverflowError:
                pass
        total[live] = np.nan
    return out


def _pow(base, exponent):
    """base ** exponent per element, as Python computes it.  Local factors take
    powers, |a_{p^e}| (hypot) and logs as Python does, since numpy's pow, abs
    and log may round the last bit differently, and sum them in order."""
    powers = map(pow, base.tolist(), itertools.repeat(exponent))
    return np.fromiter(powers, np.result_type(base, exponent), base.size)


def _log_sum(values):
    return functools.reduce(operator.add, map(math.log, values.tolist()), 0.0)


# ---------------------------------------------------------------------------
# Smooth truncations and torus twists


def _smooth_coefficients(spec: SeriesSpec, sm: SmoothSet) -> np.ndarray:
    """a_n for every member of the smooth set, folded over its construction:
    a_{m p^e} = a_m a_{p^e} with m free of primes >= p."""
    src = spec.coeffs
    if isinstance(src, ExplicitSource):
        out = np.zeros(len(sm), dtype=np.complex128)
        idx, val = src.support()
        hit = np.isin(idx, sm.members)
        out[np.searchsorted(sm.members, idx[hit])] = val[hit]
        return out

    # table[i, e] = a_{p^e} for p = primes[i], one call per level e.
    table = np.ones((sm.primes.size, int(sm.levels.max()) + 1), dtype=np.complex128)
    for e in range(1, table.shape[1]):
        table[:, e] = src.prime_powers(sm.primes, e)
    return sm.fold(1.0 + 0j, lambda i, parent, e: parent * table[i, e])


def _rankin_smooth_tail(spec: SeriesSpec, sigma: float, r: int, M: int):
    """Bound on the omitted smooth tail sum_{n in N(r), n > M} |a_n| n^{-sigma}.

    The local factors sum |a_{p^e}| p^{-e beta} over the finitely many primes
    p <= r; the pulled-out power is M^{beta - sigma}.  beta sits halfway
    between sigma_m and sigma (sigma - 1 when sigma_m is not finite).
    """
    src = spec.coeffs
    if not math.isfinite(spec.sigma_m):
        beta = sigma - 1.0
    else:
        beta = 0.5 * (sigma + spec.sigma_m)
    if beta >= sigma:
        raise PreconditionError("Rankin exponent must satisfy beta < sigma")
    local = _local_factors(src, primes_up_to(r), beta, lambda a: np.hypot(a.real, a.imag))
    if not np.isfinite(local).all():
        raise PreconditionError("series not in J at this σ")
    log_bound = (beta - sigma) * math.log(M) + _log_sum(local)
    if not log_bound < math.log(sys.float_info.max):
        raise NumericalError("smooth tail bound exceeds the float range")
    return math.exp(log_bound)


def _euler_product(spec: SeriesSpec, s: complex, r: int) -> complex:
    """prod over p <= r of sum_e a_{p^e} p^{-e s} (the full local series)."""
    ps = primes_up_to(r)
    factors = _local_factors(spec.coeffs, ps, s, lambda a: a)
    diverges = ~np.isfinite(factors)
    if diverges.any():
        raise NumericalError("Euler factor diverges at p = %d" % ps[diverges.argmax()])
    return functools.reduce(operator.mul, factors.astype(complex).tolist(), 1.0 + 0j)


def smooth_truncation_eval(spec: SeriesSpec, s: complex, k: int, M=None):
    """(value, tail_bound) for the series restricted to 2^k-smooth indices.

    With a finite cutoff M the value is the exact sum over members <= M and
    the bound covers the omitted smooth tail (Rankin for multiplicative
    sources, the exact remainder for explicit ones).  With M = None a
    multiplicative series is evaluated as the finite Euler product over
    p <= 2^k, which carries no truncation tail at all.

    Raises:
        PreconditionError: Re s <= sigma_m, or a divergent local factor
            ("series not in J at this σ").
        NumericalError: a divergent Euler factor, or a value or tail bound
            past the float range.
    """
    if k < 1:
        raise PreconditionError("smooth truncation requires k >= 1")
    if k > 24:
        raise PreconditionError("smooth truncation capped at k <= 24")
    s = complex(s)
    if s.real <= spec.sigma_m:
        raise PreconditionError("Re s must exceed sigma_m")
    if M is not None:
        M = int(M)
        if M < 1:
            raise PreconditionError("cutoff M must be >= 1")
    r = 2**k
    if isinstance(spec.coeffs, ExplicitSource):
        idx, val = spec.coeffs.support()
        smooth = _smooth_mask(idx, r)
        kept = smooth if M is None else smooth & (idx <= M)
        rest = smooth & ~kept
        value = DirichletPolynomial(idx[kept], val[kept])(s)
        bound = _square_sum(val[rest], idx[rest], s.real, power=1)
    elif M is None:
        value, bound = _euler_product(spec, s, r), 0.0
    else:
        sm = smooth_enumerate(r, M)
        value = DirichletPolynomial(sm.members, _smooth_coefficients(spec, sm))(s)
        bound = _rankin_smooth_tail(spec, s.real, r, M)
    if not (cmath.isfinite(value) and math.isfinite(bound)):
        raise NumericalError("smooth truncation is not a finite float")
    return value, bound


def _smooth_mask(idx: np.ndarray, r: int) -> np.ndarray:
    """Per index n >= 1: whether n is r-smooth.  Dividing every index by the
    primes up to min(r, sqrt(max n)), one array pass per prime power and
    stopped once p^2 exceeds every cofactor, leaves a cofactor that is <= r
    exactly when n is r-smooth."""
    rest = idx.copy()
    divisors = primes_up_to(min(r, math.isqrt(int(idx.max(initial=1)))))
    for p in divisors.tolist():
        if p * p > rest.max():
            break
        while (hit := rest % p == 0).any():
            rest[hit] //= p
    return rest <= r


def twisted_eval(spec: SeriesSpec, theta, s: complex, k: int, M: int) -> complex:
    """Smooth truncation with each term twisted by the torus phase
    exp(-2 pi i sum alpha_p theta_p) where n factors as prod p^{alpha_p}.

    theta must carry a coordinate for every prime <= 2^k, ordered by prime,
    checked before the smooth set is enumerated.
    """
    if k < 1:
        raise PreconditionError("twisted evaluation requires k >= 1")
    s = complex(s)
    if s.real <= spec.sigma_m:
        raise PreconditionError("Re s must exceed sigma_m")
    if M is None or int(M) < 1:
        raise PreconditionError("twisted evaluation needs a finite cutoff M")
    coords = np.asarray(theta.coords, dtype=np.float64)
    missing = int(first_primes(coords.size + 1)[-1])
    if missing <= 2**k:
        raise PreconditionError("theta lacks a coordinate for prime %d" % missing)
    sm = smooth_enumerate(2**k, int(M))
    # sum_p alpha_p theta_p per member, folded over its construction.
    dot = sm.fold(0.0, lambda i, parent, e: parent + e.astype(np.float64) * coords[i])
    coeffs = _smooth_coefficients(spec, sm) * np.exp(-2j * math.pi * dot)
    return DirichletPolynomial(sm.members, coeffs)(s)
