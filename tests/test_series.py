import math
import tracemalloc

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
from dirichlet_lab import _kernel, cli, coefficients, primes, series
from dirichlet_lab._kernel import DirichletPolynomial, _vertical_grid
from dirichlet_lab.coefficients import load_source

from _oracles import (
    FOURTH_TARGET_1,
    ZETA_1_5,
    ZETA_2,
    euler_product_loop,
    rankin_smooth_tail_loop,
    rankin_square_tail_loop,
)

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


def test_tail_norm_brackets_zeta_of_2sigma():
    # tau_1 = 1, so the partial sum sits just below zeta(1.5), within the bound
    N = 200_000
    partial, bound = tail_norm(builtin_series("divisor_1"), 0.75, N)
    assert 0.0 < ZETA_1_5 - partial <= bound <= 2.01 * N**-0.5


def test_tail_norm_brackets_the_divisor_square_sum():
    # sum tau(n)^2 n^{-2} = zeta(2)^4 / zeta(4); partial sums increase to it
    partial, bound = tail_norm(builtin_series("divisor_2"), 1.0, 200_000)
    assert partial < FOURTH_TARGET_1 <= partial + bound
    assert abs(partial - FOURTH_TARGET_1) / FOURTH_TARGET_1 < 1e-3


def test_tail_norm_square_past_float_range_is_inf():
    spec = load_source({"kind": "explicit", "coeffs": [[1, 1, 0], [2, 1e200, 0]]})
    assert tail_norm(spec, 1.0, 1) == (1.0, math.inf)
    assert tail_norm(spec, 1.0, 2) == (math.inf, 0.0)


@pytest.mark.parametrize("name", ["zeta", "divisor_2"])
def test_tail_norm_length_is_checked_before_allocating(monkeypatch, name):
    spec = builtin_series(name)

    def refuse(self, limit):
        raise AssertionError("dense(%d) was called" % limit)

    monkeypatch.setattr(type(spec.coeffs), "dense", refuse)
    with pytest.raises(PreconditionError, match="exceeds the cap of 20000000"):
        tail_norm(spec, 0.75, _kernel._MAX_TERMS + 1)


def test_tail_norm_divergent_abscissa():
    with pytest.raises(PreconditionError, match="2 sigma > 1"):
        tail_norm(ZETA, 0.5, 100)


def test_tail_norm_divergent_source():
    src = MultiplicativeSource(
        rule=lambda p, e: 2.0**e, square_growth_base=4.0
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


@pytest.mark.parametrize("k", [1, 5, 10])
def test_smooth_mask_matches_the_factorization(k):
    r = 2**k
    ps = primes.primes_up_to(4 * r + 50).tolist()
    below = [p for p in ps if p <= r][-2:]
    above = [p for p in ps if p > r][:2]
    idx = [1, 2, r, r + 1] + below + above
    idx += [p * p for p in below + above] + [below[-1] * above[0], below[0] ** 3]
    idx += [2**39, 3**24, 2**20 * above[0]]
    rng = np.random.default_rng(k)
    idx += rng.integers(1, 10**9, 200).tolist() + rng.integers(1, 4 * r, 50).tolist()
    want = [max((p for p, _ in primes.factorize(n)), default=1) <= r for n in idx]
    got = series._smooth_mask(np.asarray(idx, dtype=np.int64), r)
    assert got.tolist() == want


def test_twist_at_origin_is_identity():
    theta = TorusPoint(coords=np.zeros(2))  # primes 2 and 3
    s = 1.4 + 2.0j
    plain, _ = smooth_truncation_eval(ZETA, s, 2, M=5000)
    twisted = twisted_eval(ZETA, theta, s, 2, 5000)
    assert abs(twisted - plain) <= 1e-15 * abs(plain)


def test_twist_of_an_explicit_series_matches_its_direct_sum():
    # Indices that are 4-smooth and <= M keep their coefficients, rotated by
    # theta; 5, 7 and 10 (a prime past 4) and 2000 (past M) drop out.
    pairs = [(1, 0.5), (2, -1j), (5, 2 + 0j), (6, 1 + 1j), (7, 3 + 0j),
             (9, -2 + 0j), (10, 4j), (12, 0.25 - 1j), (2000, 9 + 0j)]
    spec = load_source({"kind": "explicit", "coeffs": [[n, a.real, a.imag] for n, a in pairs]})
    theta = TorusPoint(coords=np.asarray([0.3, 0.71]))
    s = 1.2 - 0.5j
    want = 0j
    for n, a in pairs:
        fac = dict(primes.factorize(n))
        if n <= 1000 and set(fac) <= {2, 3}:
            phase = fac.get(2, 0) * 0.3 + fac.get(3, 0) * 0.71
            want += a * np.exp(-2j * math.pi * phase) * n ** -s
    assert abs(twisted_eval(spec, theta, s, 2, 1000) - want) <= 1e-14 * abs(want)


def test_twist_needs_all_coordinates():
    theta = TorusPoint(coords=np.zeros(1))
    with pytest.raises(PreconditionError, match="coordinate for prime 3"):
        twisted_eval(ZETA, theta, 1.4, 2, 100)
    # M = 2: no member has the factor 3, but theta still needs its coordinate.
    with pytest.raises(PreconditionError, match="coordinate for prime 3"):
        twisted_eval(ZETA, theta, 1.4, 2, 2)


def test_twist_refuses_before_sieving(monkeypatch):
    # k = 26 asks for the primes up to 2^26; theta's two coordinates are
    # refused before the smooth set is enumerated.  The first primes that
    # the coordinate check reads come from sieves below 2^16.
    def small_only(limit, sieve=primes.primes_up_to):
        assert limit <= 2**16, "primes_up_to(%d) was called" % limit
        return sieve(limit)

    monkeypatch.setattr(primes, "primes_up_to", small_only)
    monkeypatch.setattr(series, "primes_up_to", small_only)
    with pytest.raises(PreconditionError, match="coordinate for prime 5"):
        twisted_eval(ZETA, TorusPoint(np.zeros(2)), 2.0, 26, 10**9)


def test_smooth_rankin_divergence():
    src = MultiplicativeSource(
        rule=lambda p, e: 3.0**e, square_growth_base=9.0
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


def test_tail_norm_bound_covers_a_growing_sources_tail():
    # a_{p^e} = 1.5^e, so |a_n| > 1 and the unit integral bound (5e-7 here)
    # would be short of the tail, which reaches 2.5e-5 by n = 200,000.
    src = MultiplicativeSource(rule=lambda p, e: 1.5**e, square_growth_base=2.25)
    spec = SeriesSpec(coeffs=src, sigma_m=0.5, sigma_a=2.0, label="growing")
    sigma, N, N_far = 1.5, 1000, 200_000
    _, bound = tail_norm(spec, sigma, N)
    a = src.dense(N_far).real
    ns = np.arange(N + 1, N_far + 1, dtype=np.float64)
    brute = math.fsum(a[N + 1 :] ** 2 * ns ** (-2.0 * sigma))
    assert brute > 2.5e-5
    assert math.isfinite(bound) and bound >= brute


def test_overflowing_rule_gives_each_callers_error():
    src = MultiplicativeSource(
        rule=lambda p, e: 10.0**e, square_growth_base=100.0
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


@pytest.mark.parametrize(
    "P, irregular",
    [(10, None), (20_001, None), (10, "bases"), (20_001, "bases"), (400, "offsets")],
)
def test_kernel_grid_factors_match_column_sum(P, irregular):
    # Every block of m points shares its offsets.  Irregular bases are what
    # the winding engine's refinement midpoints give: they fail their own
    # square-root split, and an unchecked split reads them as a progression.
    # Steps of 1/64 keep every sum exact, so the points pass the grid check.
    m = math.isqrt(P - 1) + 1
    nb = -(-P // m)
    rng = np.random.default_rng(P)
    bases = 1800.0 + np.arange(nb) * m / 64
    offsets = np.arange(m) / 64
    if irregular == "bases":
        bases = 1800.0 + np.cumsum(rng.integers(1, 200, nb)) / 64
    elif irregular == "offsets":
        offsets = np.concatenate(([0.0], np.cumsum(rng.integers(1, 9, m - 1)))) / 64
    s = 0.75 + 1j * (bases[:, None] + offsets[None, :]).ravel()[:P]
    assert _vertical_grid(s) is not None
    N = 300
    idx, c = np.arange(1, N + 1), _random_coeffs(P, N)
    scale = float(np.sum(np.abs(c) * idx.astype(np.float64) ** -0.75))
    diff = np.abs(DirichletPolynomial(idx, c)(s) - _naive(idx, c, s)).max()
    assert diff <= 1e-11 * scale, diff / scale


def test_kernel_grid_exps_grow_with_square_roots(monkeypatch):
    # One moment window: 20,000 points on a line and 2,000 terms.  Factored
    # tables take about 2 (sqrt(m) + sqrt(nb)) complex exps per term, where
    # whole tables took m + nb (283 here).
    P, N = 20_000, 2_000
    s = _vertical_line(0.75, 1800.0, 0.01, P)
    m = math.isqrt(P - 1) + 1
    nb = -(-P // m)
    counted = []
    exp = np.exp

    def spy(x, *args, **kwargs):
        if np.iscomplexobj(x):
            counted.append(np.size(x))
        return exp(x, *args, **kwargs)

    kernel = DirichletPolynomial(np.arange(1, N + 1), np.ones(N))
    monkeypatch.setattr(np, "exp", spy)
    kernel(s)
    monkeypatch.undo()
    assert 0 < sum(counted) <= N * 4 * (math.sqrt(m) + math.sqrt(nb))


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
        def prime_powers(self, ps, e):
            if (ps > 50).any():
                raise AssertionError("asked for a_{%d^%d}" % (ps.max(), e))
            return super().prime_powers(ps, e)

    lam = Liouville(rule=lambda p, e: (-1.0) ** e)
    spec = SeriesSpec(coeffs=lam, sigma_m=0.5, sigma_a=1.0)
    sm = primes.smooth_enumerate(1024, 50)
    got = series._smooth_coefficients(spec, sm)
    omega = [sum(e for _, e in primes.factorize(int(n))) for n in sm.members]
    np.testing.assert_array_equal(got, (-1.0) ** np.asarray(omega))


def test_smooth_coefficients_of_a_complex_multiplicative_source():
    # A complex rule, so the fold's products of a_{p^e} are complex too.
    src = MultiplicativeSource(rule=lambda p, e: (np.cos(p * e) + 1j * np.sin(p + e)) / (e + 1))
    spec = SeriesSpec(coeffs=src, sigma_m=1.0, sigma_a=1.0)
    sm = primes.smooth_enumerate(64, 20_000)
    got = series._smooth_coefficients(spec, sm)
    for n, a in zip(sm.members.tolist(), got):
        want = math.prod((complex(src.rule(p, e)) for p, e in primes.factorize(n)), start=1 + 0j)
        assert abs(a - want) <= 1e-13


def test_smooth_truncation_memory_does_not_grow_with_the_primes():
    # numpy reports its data allocations to tracemalloc.  The 4096-smooth
    # members up to 10^5 use 564 primes; per-member arrays take a few MB,
    # while any per-member table with a column per prime passes 100 MB.
    primes._smooth_cached.cache_clear()
    tracemalloc.start()
    try:
        smooth_truncation_eval(builtin_series("zeta"), 1.5, 12, 10**5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


# ---------------------------------------------------------------------------
# Local Euler factors: the array helper against the one-prime-at-a-time loop.

_LOCAL_SOURCES = {
    name: builtin_series(name) for name in ("zeta", "moebius", "divisor_3", "character_7_1")
}
_LOCAL_SOURCES["file"] = load_source(
    {
        "kind": "multiplicative",
        "prime_powers": [[2, 1, 1.5, 0.0], [2, 2, -0.75, 0.0], [3, 1, 2.0, 0.0],
                         [5, 3, 0.3, 0.0], [7, 1, -1.25, 0.0], [11, 2, 1.1, 0.0],
                         [4093, 1, 0.5, 0.0]],
    }
)


@pytest.mark.parametrize("name", sorted(_LOCAL_SOURCES))
def test_local_factor_routines_match_the_scalar_loop(name):
    spec = _LOCAL_SOURCES[name]
    for r in (2, 64, 4096):
        for s in (0.75, 1.2, 1.7, 3.0):
            got = series._euler_product(spec, complex(s), r)
            assert got == euler_product_loop(spec.coeffs, complex(s), r), (r, s)
            got = series._rankin_smooth_tail(spec, s, r, 1000)
            assert got == rankin_smooth_tail_loop(spec, s, r, 1000), (r, s)
    for sigma in (0.6, 0.75, 1.0, 1.5):
        got = series._rankin_square_tail(spec.coeffs, sigma, 1000)
        assert got == rankin_square_tail_loop(spec.coeffs, sigma, 1000), sigma


@pytest.mark.parametrize("name", ["zeta", "character_7_1", "file"])
def test_complex_euler_product_is_within_4_ulp_of_the_scalar_loop(name):
    # numpy's complex product may fuse a multiply-add where Python's does not.
    spec = _LOCAL_SOURCES[name]
    for r in (64, 4096):
        for s in (1.5 + 2j, 1.7 + 3j, 0.8 - 5j, 2.5 + 100j):
            want = euler_product_loop(spec.coeffs, s, r)
            got = series._euler_product(spec, s, r)
            assert abs(got - want) <= 4 * np.spacing(abs(want)), (r, s)


def test_divergent_rule_gives_the_scalar_loops_errors():
    # Only p = 5 diverges: 4^e 5^{-e s} grows at s = 0.75, and |4^e|^2
    # overflows the float range before the square sum's cap.
    src = MultiplicativeSource(
        rule=lambda ps, e: np.where(ps == 5, 4.0**e, 1.0),
        square_growth_base=16.0,
    )
    spec = SeriesSpec(coeffs=src, sigma_m=0.5, sigma_a=2.0, label="five")
    for route in (series._euler_product, lambda spec, s, r: euler_product_loop(spec.coeffs, s, r)):
        with pytest.raises(NumericalError, match=r"diverges at p = 5$"):
            route(spec, 0.75 + 0j, 64)
    for route in (series._rankin_smooth_tail, rankin_smooth_tail_loop):
        with pytest.raises(PreconditionError, match="not in J"):
            route(spec, 1.0, 64, 100)
    for route in (series._rankin_square_tail, rankin_square_tail_loop):
        with pytest.raises(NumericalError, match="divergence detected"):
            route(src, 0.75, 1000)


def test_truncate_fetches_prime_powers_per_exponent_not_per_prime(monkeypatch, capsys):
    # The Rankin tail at k = 20 sums the local factors of 82,025 primes; a
    # fetch per prime would make tens of thousands of calls.
    calls = []
    fetch = coefficients.MultiplicativeSource.prime_powers

    def spy(self, ps, e):
        calls.append(ps.size)
        return fetch(self, ps, e)

    monkeypatch.setattr(coefficients.MultiplicativeSource, "prime_powers", spy)
    argv = ["truncate", "--series", "zeta", "--s", "1.7", "--k", "20", "--M", "1000"]
    assert cli.run(argv) == 0
    capsys.readouterr()
    assert max(calls) == 2**16  # one block of primes at e = 1
    assert len(calls) <= 300
