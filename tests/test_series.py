import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dirichlet_lab import (
    MultiplicativeSource,
    NumericalError,
    PreconditionError,
    SeriesSpec,
    TorusPoint,
    builtin_series,
    convolution_power,
    default_evaluator,
    smooth_truncation_eval,
    tail_norm,
    twisted_eval,
    zeta_eval,
    zeta_values,
)
from dirichlet_lab import _kernel, primes, series
from dirichlet_lab._kernel import DirichletPolynomial, _vertical_grid
from dirichlet_lab.coefficients import load_source

from _oracles import ZETA_2

ETA = builtin_series("eta-factor")
ZETA = builtin_series("zeta")
D3 = builtin_series("divisor_3")


def _eta_exact(s):
    return 1.0 - 2.0 ** (1.0 - s)


def test_partial_eval_finite_series():
    for s in (0.8 + 3.0j, 1.0, 2.5 - 7.0j):
        got = default_evaluator(ETA, 10)(s)
        assert abs(got - _eta_exact(s)) < 1e-14 * max(1.0, abs(got))


def test_partial_eval_zeta_tail_sandwich():
    # integral comparison: 1/(N+1) <= zeta(2) - sum_{n<=N} n^{-2} <= 1/N
    N = 10_000
    diff = ZETA_2 - series._truncated(ZETA, N)(2.0).real
    assert 1.0 / (N + 1) <= diff <= 1.0 / N


def test_partial_eval_requires_positive_N():
    with pytest.raises(PreconditionError, match="truncation length"):
        default_evaluator(D3, 0)


def test_polynomial_evaluator_matches_partial_eval():
    ev = default_evaluator(ETA)
    assert isinstance(ev, DirichletPolynomial)
    pts = np.asarray([0.9 + 1.0j, 1.0 + 0.0j, 1.3 - 22.5j])
    vals = ev(pts)
    for s, v in zip(pts, vals):
        assert abs(v - series._truncated(ETA, 2)(complex(s))) < 1e-14
        assert abs(v - _eta_exact(s)) < 1e-13
    # scalar call returns a plain complex
    assert isinstance(ev(1.0 + 1.0j), complex)


def test_default_evaluator_routes_zeta_to_summation_formula():
    assert default_evaluator(ZETA) is zeta_values


def test_truncated_evaluator_matches_partial_eval():
    N = 2000
    ev = default_evaluator(D3, N)
    assert isinstance(ev, DirichletPolynomial)
    pts = np.asarray([1.5 + 4.0j, 2.0 - 1.0j])
    want = _naive(np.arange(1, N + 1), D3.coeffs.dense(N)[1:], pts)
    assert np.all(np.abs(ev(pts) - want) <= 1e-12 * np.abs(want))


def test_default_evaluator_empty_explicit_series():
    f = default_evaluator(load_source({"kind": "explicit", "coeffs": []}))
    value = f(2.0)
    assert isinstance(value, complex) and value == 0j
    np.testing.assert_array_equal(
        f(np.asarray([1.0 + 1.0j, 2.0 - 3.0j])), np.zeros(2, dtype=np.complex128)
    )


def test_tail_norm_explicit_exact():
    partial, rest = tail_norm(ETA, 1.0, 1)
    assert partial == 1.0
    assert rest == 1.0  # |a_2|^2 2^{-2} = 4/4
    partial, rest = tail_norm(ETA, 1.0, 2)
    assert partial == 2.0 and rest == 0.0


def test_tail_norm_zeta_bound_covers_true_tail():
    sigma, N = 0.75, 1000
    partial, bound = tail_norm(ZETA, sigma, N)
    true_tail = zeta_eval(2.0 * sigma).real - partial
    assert 0.0 < true_tail <= bound
    assert bound <= 1.1 * true_tail  # integral bound is tight at this N


def test_tail_norm_divisor_bound_covers_next_block():
    sigma, N = 0.8, 2000
    partial_N, bound_N = tail_norm(D3, sigma, N)
    partial_2N, _ = tail_norm(D3, sigma, 2 * N)
    next_block = partial_2N - partial_N
    assert 0.0 < next_block <= bound_N


def test_tail_norm_divergent_abscissa():
    with pytest.raises(PreconditionError, match="2 sigma > 1"):
        tail_norm(ZETA, 0.5, 100)


def test_tail_norm_divergent_source():
    src = MultiplicativeSource(
        rule=lambda p, e: 2.0**e, square_growth_base=4.0, unit_bounded=False
    )
    spec = SeriesSpec(coeffs=src, sigma_m=1.0, sigma_a=2.0, label="growing")
    with pytest.raises(NumericalError, match="divergence detected in tail norm"):
        tail_norm(spec, 1.05, 100)


def test_smooth_euler_product_closed_form():
    # 8-smooth zeta restriction at s = 1.5 is the finite product over p <= 8
    val, tail = smooth_truncation_eval(ZETA, 1.5, 3)
    assert tail == 0.0
    want = 1.0
    for p in (2, 3, 5, 7):
        want *= 1.0 / (1.0 - p**-1.5)
    assert abs(val - want) < 1e-12 * want


def test_smooth_cutoff_tail_covers_remainder():
    full, _ = smooth_truncation_eval(ZETA, 1.5, 3)
    val, tail = smooth_truncation_eval(ZETA, 1.5, 3, M=10_000)
    assert abs(full - val) <= tail
    assert 0.0 < tail < 0.05


def test_smooth_explicit_series():
    val, tail = smooth_truncation_eval(ETA, 2.0, 1, M=10)
    assert tail == 0.0
    assert abs(val - _eta_exact(2.0)) < 1e-15


def test_twist_at_origin_is_identity():
    theta = TorusPoint(coords=np.zeros(2))  # primes 2 and 3
    s = 1.4 + 2.0j
    plain, _ = smooth_truncation_eval(ZETA, s, 2, M=5000)
    twisted = twisted_eval(ZETA, theta, s, 2, 5000)
    assert abs(twisted - plain) <= 1e-15 * abs(plain)


def test_twist_needs_all_coordinates():
    theta = TorusPoint(coords=np.zeros(1))
    with pytest.raises(PreconditionError, match="coordinate for prime 3"):
        twisted_eval(ZETA, theta, 1.4, 2, 100)
    # M = 2: no member has the factor 3, but theta still needs its coordinate.
    with pytest.raises(PreconditionError, match="coordinate for prime 3"):
        twisted_eval(ZETA, theta, 1.4, 2, 2)


def test_smooth_rankin_divergence():
    src = MultiplicativeSource(
        rule=lambda p, e: 3.0**e, square_growth_base=9.0, unit_bounded=False
    )
    spec = SeriesSpec(coeffs=src, sigma_m=0.5, sigma_a=3.0, label="steep")
    with pytest.raises(PreconditionError, match="not in J"):
        smooth_truncation_eval(spec, 1.0, 1, M=100)


@pytest.mark.parametrize("k", (2, 6))
def test_tail_norm_divisor_bound_covers_brute_force_tail(k):
    # tau_6 rises for several prime-power exponents before its local factor
    # at p = 2 converges; a rising run alone is no sign of divergence.
    sigma, N, N_far = 0.75, 1000, 200_000
    _, bound = tail_norm(builtin_series("divisor_%d" % k), sigma, N)
    ones = np.ones(N_far + 1, dtype=np.complex128)
    ones[0] = 0.0
    tau = convolution_power(ones, k, N=N_far).real
    ns = np.arange(N + 1, N_far + 1, dtype=np.float64)
    brute = math.fsum(tau[N + 1 :] ** 2 * ns ** (-2.0 * sigma))
    assert math.isfinite(bound) and bound >= brute


def test_overflowing_rule_gives_each_callers_error():
    src = MultiplicativeSource(
        rule=lambda p, e: 10.0**e, square_growth_base=100.0, unit_bounded=False
    )
    spec = SeriesSpec(coeffs=src, sigma_m=0.5, sigma_a=3.0, label="tenfold")
    with pytest.raises(PreconditionError, match="not in J"):
        smooth_truncation_eval(spec, 1.0, 1, M=100)
    with pytest.raises(NumericalError, match="Euler factor diverges"):
        smooth_truncation_eval(spec, 1.0, 1)
    with pytest.raises(NumericalError, match="divergence detected"):
        tail_norm(spec, 1.0, 100)


def test_smooth_tail_bound_past_float_range_is_numerical_error():
    src = MultiplicativeSource(
        rule=lambda p, e: 1e6 if e == 1 else 0.0,
        square_growth_base=1e12,
        unit_bounded=False,
    )
    spec = SeriesSpec(coeffs=src, sigma_m=0.5, sigma_a=3.0, label="huge")
    with pytest.raises(NumericalError, match="float range"):
        smooth_truncation_eval(spec, 1.0, 10, M=10)


def test_rankin_sieve_is_bounded_before_allocating(monkeypatch):
    sieve = series.primes_up_to

    def bounded_sieve(limit):
        assert limit <= primes._SIEVE_BOUND, "asked to sieve to %d" % limit
        return sieve(limit)

    monkeypatch.setattr(series, "primes_up_to", bounded_sieve)
    # |a_2| = 1e6 gives the square growth base G = 1e12.
    spec = load_source({"kind": "multiplicative", "prime_powers": [[2, 1, 1e6, 0]]})
    assert spec.coeffs.square_growth_base == 1e12
    with pytest.raises(NumericalError, match="growth base G = 1e\\+12"):
        tail_norm(spec, 0.75, 1000)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_tail_norm_growth_past_float_range():
    # |a_2|^2 = 1e400 lies past the float range, so G is inf; the squares
    # overflow without a numpy warning.
    spec = load_source({"kind": "multiplicative", "prime_powers": [[2, 1, 1e200, 0]]})
    assert spec.coeffs.square_growth_base == math.inf
    with pytest.raises(NumericalError, match="G = inf needs primes past 1000000"):
        tail_norm(spec, 0.75, 1000)


def test_smooth_argument_validation():
    with pytest.raises(PreconditionError, match="k >= 1"):
        smooth_truncation_eval(ZETA, 1.5, 0)
    with pytest.raises(PreconditionError, match="k <= 24"):
        smooth_truncation_eval(ZETA, 1.5, 25)
    with pytest.raises(PreconditionError, match="exceed sigma_m"):
        smooth_truncation_eval(ZETA, 0.4, 3)
    with pytest.raises(PreconditionError, match="cutoff M"):
        smooth_truncation_eval(ZETA, 1.5, 3, M=0)
    theta = TorusPoint(coords=np.zeros(4))
    with pytest.raises(PreconditionError, match="finite cutoff"):
        twisted_eval(ZETA, theta, 1.5, 2, None)


def test_smooth_values_are_partial_sums():
    # dual route: the M-cutoff smooth sum equals the brute-force filtered sum
    s = 1.5 + 3.0j
    val, _ = smooth_truncation_eval(ZETA, s, 2, M=200)
    want = 0j
    for n in range(1, 201):
        m = n
        for p in (2, 3):
            while m % p == 0:
                m //= p
        if m == 1:
            want += n ** (-s)
    assert abs(val - want) < 1e-13


def test_partial_eval_matches_zeta_evaluator():
    # two independent routes to zeta: direct summation formula vs the
    # truncated series plus its integral-size tail
    s = 2.5 + 10.0j
    direct = zeta_eval(s)
    trunc = series._truncated(ZETA, 200_000)(s)
    # |tail| <= sum_{n>N} n^{-2.5} <= N^{-1.5}/1.5
    assert abs(direct - trunc) <= 200_000**-1.5 / 1.5 * 1.01
    assert math.isfinite(abs(trunc))


# ---------------------------------------------------------------------------
# The Dirichlet-polynomial kernel: its base + offset grid branch, its column
# sum and its shifted tables, against a term-by-term oracle.


def _vertical_line(sigma, t0, h, P):
    s = np.full(P, sigma, dtype=np.complex128)
    s += 1j * (t0 + np.arange(P, dtype=np.float64) * h)
    return s


def _naive(indices, coeffs, s):
    """sum_n c_n n^{-s} at every point of the 1-D array s: every term of a
    point at once, a slice of points at a time."""
    s = np.asarray(s, dtype=np.complex128)
    logs = np.log(np.asarray(indices, dtype=np.float64))
    c = np.asarray(coeffs, dtype=np.complex128)
    out = np.empty(s.shape, dtype=np.complex128)
    step = max(1, 2**20 // max(1, logs.size))
    for lo in range(0, s.size, step):
        terms = np.exp(np.multiply.outer(-logs, s[lo : lo + step])) * c[:, None]
        out[lo : lo + step] = terms.sum(axis=0)
    return out


@pytest.mark.parametrize("sigma", [0.501, 0.75, 4.0])
def test_kernel_separable_path_matches_direct(sigma):
    N = 10_000
    kernel = DirichletPolynomial(np.arange(1, N + 1), np.ones(N))
    scale = float(np.sum(np.arange(1, N + 1, dtype=np.float64) ** -sigma))
    for t0, h in ((0.0, 0.01), (1800.0, 0.01), (9600.0, 1.0)):
        s = _vertical_line(sigma, t0, h, 400)
        assert _vertical_grid(s) is not None
        diff = np.abs(kernel(s) - _naive(np.arange(1, N + 1), np.ones(N), s)).max()
        assert diff <= 1e-11 * scale, (sigma, t0, diff / scale)


def test_kernel_path_choice():
    line = _vertical_line(0.75, 100.0, 0.01, 50)
    assert _vertical_grid(line) is not None
    mixed = line.copy()
    mixed[7] += 1e-9  # one point off the line
    assert _vertical_grid(mixed) is None
    uneven = line.copy()
    uneven.imag[30] += 1e-6  # the imaginary parts leave the base + offset grid
    assert _vertical_grid(uneven) is None
    # Too few points for the two tables to pay (m + nb >= P).
    assert _vertical_grid(line[:5]) is None
    # Both inputs still evaluate, by the column sum, term by term.
    kernel = DirichletPolynomial([1.0, 2.0], [1.0, -2.0])
    for s in (mixed, uneven):
        np.testing.assert_array_equal(kernel(s), _naive([1.0, 2.0], [1.0, -2.0], s))


def test_kernel_drops_zero_coefficients():
    kernel = DirichletPolynomial(np.arange(1, 7), [1.0, 0.0, 0.0, 2.0, 0.0, 3j])
    np.testing.assert_array_equal(np.exp(kernel.logs), [1.0, 4.0, 6.0])
    s = _vertical_line(1.0, 0.0, 0.5, 40)
    want = 1.0 + 2.0 * 4.0 ** (-s) + 3j * 6.0 ** (-s)
    assert np.abs(kernel(s) - want).max() < 1e-14


def test_kernel_shifted_matches_direct(monkeypatch):
    # A small work cap cuts the 2,000 terms into 67 blocks of 30 and the 201
    # shifts into rows of 100, 100 and 1.
    monkeypatch.setattr(_kernel, "_CAP", 3000)
    rng = np.random.default_rng(7)
    points = 0.9 + rng.uniform(-0.1, 0.1, 100) + 1j * rng.uniform(-0.1, 0.1, 100)
    shifts = rng.uniform(-500.0, 500.0, 201)
    ev = DirichletPolynomial(np.arange(1, 2001), np.ones(2000))
    table = ev.shifted(points, shifts)
    moved = (points[None, :] + 1j * shifts[:, None]).ravel()
    want = _naive(np.arange(1, 2001), np.ones(2000), moved)
    scale = float(np.sum(np.arange(1, 2001, dtype=np.float64) ** -points.real.min()))
    assert table.shape == (201, 100)
    assert np.abs(table.ravel() - want).max() <= 1e-11 * scale
    # The bits of a row do not depend on the rows around it.
    for lo, hi in ((0, 1), (57, 58), (3, 150), (200, 201)):
        np.testing.assert_array_equal(ev.shifted(points, shifts[lo:hi]), table[lo:hi])


# Few, derandomized examples keep the property tests quick and repeatable.
_PROPERTY = settings(max_examples=25, deadline=None, derandomize=True, database=None)


def _random_coeffs(seed, N):
    rng = np.random.default_rng(seed)
    return rng.normal(size=N) + 1j * rng.normal(size=N)


@_PROPERTY
@given(
    sigma=st.floats(0.5, 3.0),
    t0=st.floats(-2000.0, 2000.0),
    h=st.floats(1e-3, 1.0),
    P=st.integers(10, 1500),
    N=st.integers(1, 300),
    seed=st.integers(0, 2**32 - 1),
)
@example(sigma=0.75, t0=100.0, h=0.01, P=10, N=50, seed=0)  # m = 4: 3 bases, 2 left over
def test_kernel_grid_branch_matches_term_by_term_sums(sigma, t0, h, P, N, seed):
    s = _vertical_line(sigma, t0, h, P)
    assume(_vertical_grid(s) is not None)
    idx, c = np.arange(1, N + 1), _random_coeffs(seed, N)
    scale = float(np.sum(np.abs(c) * idx.astype(np.float64) ** -sigma))
    diff = np.abs(DirichletPolynomial(idx, c)(s) - _naive(idx, c, s)).max()
    assert diff <= 1e-11 * scale


@_PROPERTY
@given(
    P=st.integers(1, 60),
    K=st.integers(1, 40),
    N=st.integers(1, 300),
    seed=st.integers(0, 2**32 - 1),
)
def test_kernel_shifted_rows_are_sums_at_the_moved_points(P, K, N, seed):
    rng = np.random.default_rng(seed)
    points = rng.uniform(0.5, 2.0, P) + 1j * rng.uniform(-50.0, 50.0, P)
    shifts = rng.uniform(-1000.0, 1000.0, K)
    idx, c = np.arange(1, N + 1), _random_coeffs(seed, N)
    scale = float(np.sum(np.abs(c) * idx.astype(np.float64) ** -points.real.min()))
    table = DirichletPolynomial(idx, c).shifted(points, shifts)
    assert table.shape == (K, P)
    for k in range(K):
        diff = np.abs(table[k] - _naive(idx, c, points + 1j * shifts[k])).max()
        assert diff <= 1e-11 * scale


def test_kernel_input_of_any_shape():
    # A 2-D array of points on one vertical line gives the bits of the
    # flattened call, which takes the grid branch.
    s = 0.75 + 0.01j * np.arange(400)
    assert _vertical_grid(s) is not None
    for f in (zeta_values, default_evaluator(ETA)):
        np.testing.assert_array_equal(f(s.reshape(20, 20)), f(s).reshape(20, 20))


def test_smooth_coefficients_visit_only_primes_up_to_the_bound():
    # Liouville's lambda; the 1024-smooth members up to 50 only use p <= 47.
    class Liouville(MultiplicativeSource):
        def prime_power(self, p, e):
            if p > 50:
                raise AssertionError("asked for a_{%d^%d}" % (p, e))
            return super().prime_power(p, e)

    lam = Liouville(rule=lambda p, e: (-1.0) ** e)
    spec = SeriesSpec(coeffs=lam, sigma_m=0.5, sigma_a=1.0)
    sm = primes.smooth_enumerate(1024, 50)
    got = series._smooth_coefficients(spec, sm)
    omega = [sum(e for _, e in primes.factorize(int(n))) for n in sm.members]
    np.testing.assert_array_equal(got, (-1.0) ** np.asarray(omega))
