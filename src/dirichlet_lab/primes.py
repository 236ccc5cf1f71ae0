"""Prime sieves, factorization, and smooth-number enumeration."""

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import NumericalError, PreconditionError

__all__ = ["SmoothSet", "factorize", "first_primes", "log_frequencies", "smooth_enumerate"]

# Trial division is backed by primes below this bound, so factorize() handles
# n up to its square (1e12).
_SIEVE_BOUND = 1_000_000

# Hard cap on enumerated smooth sets; beyond this the request is not a desk
# scale computation.
_MAX_SMOOTH_MEMBERS = 20_000_000

# Cap on a smooth set's members x primes (<= min(r, bound)): each prime scans
# every member built before it, so the product bounds the enumeration's work.
_MAX_MEMBER_PRIME_SCANS = 1 << 28


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
    """smooth_enumerate(r, bound): the r-smooth integers <= bound, ascending
    in `members`, with their construction over `primes` (those <= min(r,
    bound)).  In the order `built`, entry 0 is 1 and entry k of block i
    (starts[i] <= k < starts[i + 1]) is entry parents[k], which is free of
    primes >= primes[i], times primes[i] ** levels[k]; members = built[order].
    """

    primes: np.ndarray = field(repr=False)
    members: np.ndarray = field(repr=False)
    parents: np.ndarray = field(repr=False)
    levels: np.ndarray = field(repr=False)
    starts: np.ndarray = field(repr=False)
    order: np.ndarray = field(repr=False)

    def __len__(self) -> int:
        return len(self.members)

    def fold(self, one, step) -> np.ndarray:
        """Per member, in sorted order: `one` for 1, and step(i, parent_values,
        e) for the members parent * primes[i] ** e, one call per prime."""
        built = np.full(len(self), one)
        for i in range(self.primes.size):
            block = slice(self.starts[i], self.starts[i + 1])
            built[block] = step(i, built[self.parents[block]], self.levels[block])
        return built[self.order]


def smooth_enumerate(r: int, bound: int) -> SmoothSet:
    """Enumerate the r-smooth integers up to `bound`, with their construction.

    Generated as products of prime powers over the primes <= r, so membership
    is by construction rather than by testing.

    Args:
        r: prime bound, >= 2.
        bound: enumeration cutoff M, 1 <= M < 2^63, so that every member
            and product fits an int64.  The primes up to min(r, M) are
            sieved, and past 2^24 (truncate's k <= 24) refused before that.
    """
    if r < 2:
        raise PreconditionError("smooth_enumerate requires r >= 2")
    if bound < 1:
        raise PreconditionError("smooth_enumerate requires bound >= 1")
    if bound >= 2**63:
        raise PreconditionError("smooth_enumerate requires bound < 2^63")
    if min(r, bound) > 2**24:
        raise PreconditionError(
            "smooth enumeration sieves primes up to min(r, bound) = %d, past 2^24"
            % min(r, bound)
        )
    return _smooth_cached(int(r), int(bound))


@lru_cache(maxsize=64)
def _smooth_cached(r: int, bound: int) -> SmoothSet:
    # A prime past the bound divides no member, so only the primes up to
    # min(r, bound) are used.  Each appends parent * p^e for every member so
    # far that stays within the bound, and records the parent's index and e.
    ps = primes_up_to(min(r, bound))
    limit = min(_MAX_SMOOTH_MEMBERS, _MAX_MEMBER_PRIME_SCANS // max(ps.size, 1))
    members = np.ones(1, dtype=np.int64)
    parents = [np.zeros(1, dtype=np.int64)]
    levels = [np.zeros(1, dtype=np.int16)]
    starts = [1]
    for p in ps.tolist():
        rows = np.flatnonzero(members <= bound // p)
        step = members[rows] * p
        values = []
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
        members = np.concatenate([members] + values)
        starts.append(members.size)
    # Each member is built once, so the members are distinct and any sort
    # gives this one order.
    order = np.argsort(members)
    return SmoothSet(
        primes=ps,
        members=members[order],
        parents=np.concatenate(parents),
        levels=np.concatenate(levels),
        starts=np.asarray(starts),
        order=order,
    )
