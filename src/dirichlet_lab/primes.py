"""Prime sieves, factorization, and smooth-number enumeration."""

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import NumericalError, PreconditionError

# Trial division is backed by primes below this bound, so factorize() handles
# n up to its square (1e12).
_SIEVE_BOUND = 1_000_000

# Hard cap on enumerated smooth sets; beyond this the request is not a desk
# scale computation.
_MAX_SMOOTH_MEMBERS = 20_000_000

# Cap on the entries of a smooth set's exponent table (members x primes
# <= min(r, bound), int16): 512 MB.
_MAX_EXPONENT_ENTRIES = 1 << 28


def primes_up_to(limit: int) -> np.ndarray:
    """All primes <= limit as an int64 array (empty for limit < 2)."""
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    mask = np.ones(limit + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, int(math.isqrt(limit)) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return np.nonzero(mask)[0].astype(np.int64)


@lru_cache(maxsize=8)
def _sieved_primes(limit: int):
    return primes_up_to(limit)


def first_primes(count: int) -> np.ndarray:
    """The first `count` primes."""
    if count < 1:
        return np.empty(0, dtype=np.int64)
    # p_n < n (log n + log log n) for n >= 6
    bound = 15
    while True:
        ps = _sieved_primes(bound)
        if len(ps) >= count:
            return ps[:count]
        bound *= 4


def log_frequencies(count: int) -> np.ndarray:
    """Default flow frequencies log(p_n) / 2 pi for the first `count` primes."""
    return np.log(first_primes(count).astype(np.float64)) / (2.0 * math.pi)


def factorize(n: int):
    """Prime factorization of n as a list of (p, e) pairs, ascending in p.

    Raises:
        PreconditionError: n < 1, or n too large for the trial division table.
    """
    n = int(n)
    if n < 1:
        raise PreconditionError("factorize requires n >= 1")
    if n > _SIEVE_BOUND * _SIEVE_BOUND:
        raise PreconditionError("n too large")
    out = []
    rem = n
    for p in _sieved_primes(_SIEVE_BOUND):
        p = int(p)
        if p * p > rem:
            break
        if rem % p == 0:
            e = 0
            while rem % p == 0:
                rem //= p
                e += 1
            out.append((p, e))
    if rem > 1:
        out.append((rem, 1))
    return out


@dataclass(frozen=True)
class SmoothSet:
    """All integers <= bound whose prime factors are <= r.

    members is sorted ascending and starts with 1; exponents[i] holds the
    exponent vector of members[i] over `primes` (the primes <= min(r, bound)).
    """

    r: int
    bound: int
    primes: np.ndarray = field(repr=False)
    members: np.ndarray = field(repr=False)
    exponents: np.ndarray = field(repr=False)

    def __len__(self) -> int:
        return len(self.members)


def smooth_enumerate(r: int, bound: int) -> SmoothSet:
    """Enumerate the r-smooth integers up to `bound` with exponent vectors.

    Generated as products of prime powers over the primes <= r, so membership
    is by construction rather than by testing.

    Args:
        r: prime bound, >= 2.
        bound: enumeration cutoff M, 1 <= M < 2^63, so that every member
            and product fits an int64.
    """
    if r < 2:
        raise PreconditionError("smooth_enumerate requires r >= 2")
    if bound < 1:
        raise PreconditionError("smooth_enumerate requires bound >= 1")
    if bound >= 2**63:
        raise PreconditionError("smooth_enumerate requires bound < 2^63")
    return _smooth_cached(int(r), int(bound))


@lru_cache(maxsize=64)
def _smooth_cached(r: int, bound: int) -> SmoothSet:
    # A prime past the bound divides no member, so only the primes up to
    # min(r, bound) get a column.  Each appends parent * p^e for every member
    # so far that stays within the bound.  `made` records, per prime, where
    # its members start, their parents' rows and their exponents e, from
    # which the exponent table is copied row by row.
    ps = primes_up_to(min(r, bound))
    limit = min(_MAX_SMOOTH_MEMBERS, _MAX_EXPONENT_ENTRIES // max(ps.size, 1))
    members = np.ones(1, dtype=np.int64)
    made = []
    for i, p in enumerate(ps.tolist()):
        rows = np.flatnonzero(members <= bound // p)
        step = members[rows] * p
        parents, levels, values = [], [], []
        total = members.size
        e = 1
        while rows.size:
            total += rows.size
            if total > limit:
                raise NumericalError("smooth enumeration exceeds the desk-scale cap")
            parents.append(rows)
            levels.append(np.full(rows.size, e, dtype=np.int16))
            values.append(step)
            keep = step <= bound // p
            rows, step = rows[keep], step[keep] * p
            e += 1
        if values:
            made.append((i, members.size, np.concatenate(parents), np.concatenate(levels)))
            members = np.concatenate([members] + values)
    exponents = np.zeros((members.size, ps.size), dtype=np.int16)
    for i, start, parents, levels in made:
        new = slice(start, start + parents.size)
        exponents[new] = exponents[parents]
        exponents[new, i] = levels
    order = np.argsort(members, kind="stable")
    return SmoothSet(
        r=r,
        bound=bound,
        primes=ps,
        members=members[order],
        exponents=exponents[order],
    )
