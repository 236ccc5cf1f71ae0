import math

import numpy as np
import pytest

import dirichlet_lab.primes as primes_mod
from dirichlet_lab import (
    NumericalError,
    PreconditionError,
    factorize,
    first_primes,
    log_frequencies,
    smooth_enumerate,
)
from dirichlet_lab.primes import primes_up_to


def test_primes_up_to_30():
    np.testing.assert_array_equal(
        primes_up_to(30), [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    )


def test_primes_up_to_edge_cases():
    assert primes_up_to(1).size == 0
    np.testing.assert_array_equal(primes_up_to(2), [2])


def test_first_primes_thousandth():
    ps = first_primes(1000)
    assert len(ps) == 1000
    assert ps[-1] == 7919
    assert ps[0] == 2


def test_log_frequencies_values():
    lam = log_frequencies(3)
    expect = [math.log(p) / (2 * math.pi) for p in (2, 3, 5)]
    np.testing.assert_allclose(lam, expect, rtol=1e-15)


def test_factorize_basic():
    assert factorize(1) == []
    assert factorize(360) == [(2, 3), (3, 2), (5, 1)]
    assert factorize(97) == [(97, 1)]
    # large prime cofactor above the sieve range
    assert factorize(2 * 999983) == [(2, 1), (999983, 1)]
    assert factorize(10**12) == [(2, 12), (5, 12)]


def test_factorize_rejects_out_of_range():
    with pytest.raises(PreconditionError):
        factorize(0)
    with pytest.raises(PreconditionError, match="n too large"):
        factorize(10**12 + 1)


def test_smooth_powers_of_two():
    sm = smooth_enumerate(2, 16)
    np.testing.assert_array_equal(sm.members, [1, 2, 4, 8, 16])
    np.testing.assert_array_equal(sm.fold(0, lambda i, parent, e: parent + e), [0, 1, 2, 3, 4])


def test_smooth_matches_brute_force():
    # independent route: divide out small primes directly
    def is_smooth(n, r):
        for p in (2, 3, 5, 7):
            if p > r:
                break
            while n % p == 0:
                n //= p
        return n == 1

    sm = smooth_enumerate(7, 500)
    expect = [n for n in range(1, 501) if is_smooth(n, 7)]
    np.testing.assert_array_equal(sm.members, expect)


def _factor_pairs(sm):
    # Each member's (p, e) pairs, gathered by a fold in ascending p.
    def append(i, parent, e):
        out = np.empty(parent.size, dtype=object)
        for k, (pairs, x) in enumerate(zip(parent, e)):
            out[k] = (pairs or ()) + ((int(sm.primes[i]), int(x)),)
        return out

    return [list(pairs or ()) for pairs in sm.fold(None, append)]


def test_smooth_exponents_reconstruct_members():
    sm = smooth_enumerate(12, 10_000)
    rebuilt = sm.fold(
        np.int64(1), lambda i, parent, e: parent * np.int64(sm.primes[i]) ** e.astype(np.int64)
    )
    np.testing.assert_array_equal(rebuilt, sm.members)
    assert sm.members[0] == 1
    assert np.all(np.diff(sm.members) > 0)


@pytest.mark.parametrize("r, bound", [(256, 10**6), (7, 500), (2**20, 1000)])
def test_smooth_members_are_distinct(r, bound):
    # Every member is built once, so the members sort strictly increasing
    # (truncate's k = 8, M = 10^6 set has 165,348) and the sort needs no
    # tie rule; the fold's order rebuilds them.
    sm = smooth_enumerate(r, bound)
    assert np.all(np.diff(sm.members) > 0)
    rebuilt = sm.fold(
        np.int64(1), lambda i, parent, e: parent * np.int64(sm.primes[i]) ** e.astype(np.int64)
    )
    np.testing.assert_array_equal(rebuilt, sm.members)


def test_smooth_exponents_match_factorize():
    # r past the bound: the primes in (40, 60] divide no member and get no
    # block.
    sm = smooth_enumerate(60, 40)
    np.testing.assert_array_equal(sm.members, np.arange(1, 41))
    assert sm.levels.dtype == np.int16 and sm.primes.size == 12
    assert _factor_pairs(sm) == [factorize(n) for n in range(1, 41)]
    sm = smooth_enumerate(12, 10_000)
    assert _factor_pairs(sm) == [factorize(int(n)) for n in sm.members]


def test_smooth_primes_stop_at_the_bound():
    # 2^20-smooth members up to 1000 use the 168 primes below 1000, not the
    # 82,025 primes up to 2^20.
    sm = smooth_enumerate(2**20, 1000)
    np.testing.assert_array_equal(sm.primes, primes_up_to(1000))
    assert sm.starts.size == 169
    # bound 1: the member 1 alone, with no primes.
    one = smooth_enumerate(2, 1)
    np.testing.assert_array_equal(one.members, [1])
    assert one.primes.size == 0
    np.testing.assert_array_equal(one.fold(7.0, None), [7.0])


def test_smooth_argument_validation():
    with pytest.raises(PreconditionError):
        smooth_enumerate(1, 100)
    with pytest.raises(PreconditionError):
        smooth_enumerate(2, 0)
    with pytest.raises(PreconditionError, match="2\\^63"):
        smooth_enumerate(2, 2**63)  # members past int64


def test_smooth_cap_trips(monkeypatch):
    monkeypatch.setattr(primes_mod, "_MAX_SMOOTH_MEMBERS", 500)
    with pytest.raises(NumericalError, match="desk-scale cap"):
        smooth_enumerate(30, 999_983)  # uncached argument pair


def test_smooth_exponent_table_cap_trips(monkeypatch):
    # The 669 primes <= 5000 leave room for 14 members in 10,000 scans.
    monkeypatch.setattr(primes_mod, "_MAX_MEMBER_PRIME_SCANS", 10_000)
    with pytest.raises(NumericalError, match="desk-scale cap"):
        smooth_enumerate(7919, 5000)  # uncached argument pair


def test_smooth_sieve_past_2_24_is_refused_before_sieving(monkeypatch):
    def refuse(limit):
        raise AssertionError("primes_up_to(%d) was called" % limit)

    monkeypatch.setattr(primes_mod, "primes_up_to", refuse)
    for r, bound in ((2**24 + 1, 2**30), (2**30, 2**24 + 1), (2**30, 10**9)):
        with pytest.raises(PreconditionError, match="past 2\\^24"):
            smooth_enumerate(r, bound)
