import numpy as np
import pytest

from dirichlet_lab import (
    PreconditionError,
    load_source,
    builtin_series,
    convolution_power,
    dirichlet_convolve,
    identity_coefficients,
    inverse_coefficients,
    mollifier_coefficients,
)
from dirichlet_lab.convolution import _inverse_of_table

from _oracles import convolve_loop, inverse_loop


def _random_coeffs(rng, N):
    return rng.normal(size=N + 1) + 1j * rng.normal(size=N + 1)


def test_identity_is_neutral():
    rng = np.random.default_rng(7)
    a = _random_coeffs(rng, 300)
    a[0] = 0.0
    e = identity_coefficients(300)
    np.testing.assert_array_equal(dirichlet_convolve(e, a), a)
    np.testing.assert_array_equal(dirichlet_convolve(a, e), a)


def test_commutative_and_associative():
    rng = np.random.default_rng(11)
    a = _random_coeffs(rng, 200)
    b = _random_coeffs(rng, 200)
    c = _random_coeffs(rng, 200)
    for arr in (a, b, c):
        arr[0] = 0.0
    ab = dirichlet_convolve(a, b)
    ba = dirichlet_convolve(b, a)
    np.testing.assert_allclose(ab, ba, rtol=0, atol=1e-12)
    left = dirichlet_convolve(ab, c)
    right = dirichlet_convolve(a, dirichlet_convolve(b, c))
    np.testing.assert_allclose(left, right, rtol=0, atol=1e-10)


def test_moebius_inverts_ones():
    # sum_{d|n} mu(d) = [n == 1]; every term is a small integer, so the
    # float sums are exact and the comparison can demand equality.
    N = 100_000
    ones = builtin_series("zeta").coeffs.dense(N)
    mu = builtin_series("moebius").coeffs.dense(N)
    conv = dirichlet_convolve(ones, mu)
    np.testing.assert_array_equal(conv, identity_coefficients(N))


def test_convolution_power_matches_divisor_counts():
    N = 5000
    ones = builtin_series("zeta").coeffs.dense(N)
    np.testing.assert_array_equal(
        convolution_power(ones, 2), builtin_series("divisor_2").coeffs.dense(N)
    )
    np.testing.assert_array_equal(
        convolution_power(ones, 3), builtin_series("divisor_3").coeffs.dense(N)
    )


def test_convolution_power_truncation():
    a = np.asarray([0.0, 1.0, 2.0, 3.0])
    padded = np.zeros(11, dtype=np.complex128)
    padded[:4] = a
    np.testing.assert_array_equal(
        convolution_power(a, 2, N=10), dirichlet_convolve(padded, padded)
    )
    with pytest.raises(PreconditionError):
        convolution_power(a, 0)
    with pytest.raises(PreconditionError):
        convolution_power(a, 2, N=0)


def test_length_mismatch():
    with pytest.raises(PreconditionError, match="length mismatch"):
        dirichlet_convolve(np.ones(5), np.ones(6))
    with pytest.raises(PreconditionError):
        dirichlet_convolve(np.ones(1), np.ones(1))


def test_inverse_of_ones_is_moebius():
    N = 10_000
    b = inverse_coefficients(builtin_series("zeta"), N)
    np.testing.assert_array_equal(b, builtin_series("moebius").coeffs.dense(N))


def test_inverse_roundtrip():
    spec = builtin_series("divisor_3")
    N = 400
    b = inverse_coefficients(spec, N)
    conv = dirichlet_convolve(spec.coeffs.dense(N), b)
    np.testing.assert_allclose(conv, identity_coefficients(N), rtol=0, atol=1e-9)


def test_inverse_requires_unit():
    from dirichlet_lab import ExplicitSource, SeriesSpec

    src = ExplicitSource.from_pairs([(2, 1.0)])
    spec = SeriesSpec(
        coeffs=src, sigma_m=float("-inf"), sigma_a=float("-inf"), label="shift"
    )
    with pytest.raises(PreconditionError, match="no Dirichlet inverse"):
        inverse_coefficients(spec, 10)


def _loop_table(kind, N):
    """A builtin's table, or random complex coefficients with about a third
    of them zero and a_1 = 1 or a non-real a_1."""
    if kind not in ("complex-gaps", "nonreal-a1"):
        return builtin_series(kind).coeffs.dense(N)
    rng = np.random.default_rng(N)
    a = _random_coeffs(rng, N)
    a[rng.random(N + 1) < 0.3] = 0.0
    a[0] = 0.0
    a[1] = 1.0 if kind == "complex-gaps" else 0.7 - 0.4j
    return a


@pytest.mark.parametrize(
    "kind",
    ["zeta", "moebius", "divisor_2", "character_7_1", "character_16_5",
     "complex-gaps", "nonreal-a1"],
)
def test_inverse_and_convolve_bit_identical_to_index_loops(kind):
    # The quotient-block inverse and the nonzero-only convolution must give
    # the bits of the loops that visit one index at a time, a non-real a_1
    # included: the block's -a_1^{-1} acc is taken in real arithmetic.
    for N in (1, 2, 3, 7, 1000, 99991):
        a = _loop_table(kind, N)
        b = _inverse_of_table(a)
        assert b.tobytes() == inverse_loop(a).tobytes(), N
        assert dirichlet_convolve(a, b).tobytes() == convolve_loop(a, b).tobytes(), N


def test_mollifier_head_pattern():
    N, X = 100, 10
    ones = builtin_series("zeta").coeffs.dense(N)
    mu = builtin_series("moebius").coeffs.dense(N)
    d = mollifier_coefficients(ones, mu, X, N)
    assert d[1] == 1.0
    np.testing.assert_array_equal(d[2 : X + 1], np.zeros(X - 1))
    # brute-force cross-check of the tail entries
    for n in range(X + 1, N + 1):
        want = sum(mu[k].real for k in range(1, X + 1) if n % k == 0)
        assert abs(d[n] - want) < 1e-12


def test_mollifier_rejects_wrong_inverse():
    N, X = 50, 5
    ones = builtin_series("zeta").coeffs.dense(N)
    with pytest.raises(
        PreconditionError, match="b is not the Dirichlet inverse of a up to X"
    ):
        mollifier_coefficients(ones, ones, X, N)


def test_mollifier_identity_inputs():
    e = identity_coefficients(50)
    d = mollifier_coefficients(e, e, 5, 50)
    np.testing.assert_array_equal(d, e)


def test_mollifier_range_checks():
    e = identity_coefficients(50)
    with pytest.raises(PreconditionError, match="1 <= X < N"):
        mollifier_coefficients(e, e, 50, 50)
    with pytest.raises(PreconditionError, match="too short"):
        mollifier_coefficients(e, e, 5, 60)


def test_mollifier_bit_identical_to_full_order_convolution():
    # mollifier_coefficients pushes the X nonzero terms of b; the convolution
    # in the other argument order (a pushed over all N) must give the same
    # bits on zeta, whose integer coefficients make every sum exact.
    N = 5000
    spec = builtin_series("zeta")
    a = spec.coeffs.dense(N)
    b = inverse_coefficients(spec, N)
    for X in (10, 100, 1000):
        bX = np.zeros(N + 1, dtype=np.complex128)
        bX[1 : X + 1] = b[1 : X + 1]
        want = dirichlet_convolve(a, bX)
        want[1] = 1.0
        want[2 : X + 1] = 0.0
        got = mollifier_coefficients(a, b, X, N)
        assert got.tobytes() == want.tobytes(), X


# a_n = 1/n + (-1)^n i/(n + 1) for n < 60, so a_1 = 1 - i/2 is not real.
_NONREAL_FILE = {
    "kind": "explicit",
    "coeffs": [[n, 1.0 / n, (-1.0) ** n / (n + 1)] for n in range(1, 60)],
}


@pytest.mark.parametrize(
    "ref", ["zeta", "moebius", "divisor_2", "character_12_2", "nonreal-file"]
)
def test_inverse_of_a_prefix_is_the_prefix_of_the_inverse(ref):
    # Entry n of the inverse gains its terms in the same order at any table
    # length, so the mollify command may invert only b_1..b_X.
    spec = load_source(_NONREAL_FILE) if ref == "nonreal-file" else builtin_series(ref)
    N = 20_000
    a = spec.coeffs.dense(N)
    full = _inverse_of_table(a)
    for t in (1, 2, 7, 1000, N):
        got = _inverse_of_table(a[: t + 1])
        np.testing.assert_array_equal(got.view(np.uint64), full[: t + 1].view(np.uint64))


def test_inverse_of_an_empty_table_is_refused():
    with pytest.raises(PreconditionError, match="inverse requires N >= 1"):
        _inverse_of_table(np.zeros(1, dtype=np.complex128))
