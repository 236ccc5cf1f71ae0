import cmath
import json
import math

import numpy as np
import pytest

from dirichlet_lab import (
    ExplicitSource,
    MultiplicativeSource,
    PreconditionError,
    SeriesSpec,
    builtin_series,
    load_source,
)
from dirichlet_lab._kernel import _MAX_TERMS
from dirichlet_lab.coefficients import _primitive_root
from dirichlet_lab.primes import factorize

# first 20 values of the Moebius function
MU_20 = [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0, -1, 1, 1, 0, -1, 0, -1, 0]

# number-of-divisors for n = 1..12
TAU_12 = [1, 2, 2, 3, 2, 4, 2, 4, 3, 4, 2, 6]


def a_n(spec, n):
    """a_n read from the source's dense table."""
    return spec.coeffs.dense(n)[n]


def test_zeta_builtin():
    spec = builtin_series("zeta")
    assert spec.label == "zeta"
    assert spec.has_pole_at_one
    assert spec.sigma_m == 0.5 and spec.sigma_a == 1.0
    assert all(a_n(spec, n) == 1 for n in range(1, 50))
    np.testing.assert_array_equal(spec.coeffs.dense(10)[1:], np.ones(10))


def test_moebius_builtin():
    spec = builtin_series("moebius")
    got = [a_n(spec, n).real for n in range(1, 21)]
    np.testing.assert_array_equal(got, MU_20)
    np.testing.assert_array_equal(spec.coeffs.dense(20)[1:].real, MU_20)
    # mu(n) from the factorization: 0 on a square factor, else (-1)^omega.
    mu = [0.0] + [
        0.0 if any(e > 1 for _, e in f) else (-1.0) ** len(f)
        for f in map(factorize, range(1, 5001))
    ]
    np.testing.assert_array_equal(spec.coeffs.dense(5000), mu)


def test_divisor_builtins():
    d2 = builtin_series("divisor_2")
    got = [a_n(d2, n).real for n in range(1, 13)]
    np.testing.assert_array_equal(got, TAU_12)
    d3 = builtin_series("divisor_3")
    # tau_3(p^2) = C(4, 2) = 6
    assert a_n(d3, 4) == 6
    assert d3.coeffs.square_growth_base == 9.0


def test_eta_factor_builtin():
    spec = builtin_series("eta-factor")
    assert a_n(spec, 1) == 1
    assert a_n(spec, 2) == -2
    assert a_n(spec, 3) == 0


def test_character_mod5_table():
    # mod 5 has cyclic group generated by 2; index 1 is the order-4 character
    chi = builtin_series("character_5_1")
    assert a_n(chi, 1) == 1
    assert abs(a_n(chi, 2) - 1j) < 1e-15
    assert abs(a_n(chi, 4) + 1) < 1e-15
    assert a_n(chi, 5) == 0
    # periodicity and full-period orthogonality
    assert a_n(chi, 7) == a_n(chi, 2)
    total = sum(a_n(chi, n) for n in range(1, 101))
    assert abs(total) < 1e-12


def test_character_mod8_multiplicative():
    # mod 8 needs the two-generator decomposition of odd residues
    for j in range(4):
        chi = builtin_series("character_8_%d" % j)
        vals = {n: a_n(chi, n) for n in (1, 3, 5, 7)}
        assert vals[1] == 1
        for a in (3, 5, 7):
            for b in (3, 5, 7):
                prod = vals[a] * vals[b]
                assert abs(prod - a_n(chi, a * b)) < 1e-12
        assert a_n(chi, 2) == 0


def test_character_principal_counts():
    chi0 = builtin_series("character_12_0")
    hits = [n for n in range(1, 13) if a_n(chi0, n) != 0]
    assert hits == [1, 5, 7, 11]  # units mod 12


def test_character_index_out_of_range():
    with pytest.raises(PreconditionError, match="character index"):
        builtin_series("character_5_4")


def test_unknown_builtin():
    with pytest.raises(PreconditionError, match="unknown builtin series"):
        builtin_series("nope")


def test_multiplicative_dense_matches_value():
    # a_n is the product of a_{p^e} over the factorization of n.
    src = MultiplicativeSource(
        rule=lambda p, e: 1.0 / (e + 1) + 0.1j * (p % 3),
        square_growth_base=1.0,
    )
    dense = src.dense(2000)
    for n in (1, 2, 6, 12, 360, 1024, 1999):
        want = 1.0 + 0j
        for p, e in factorize(n):
            want *= src.prime_powers(np.asarray([p]), e)[0]
        assert abs(dense[n] - want) < 1e-12


@pytest.mark.parametrize(
    "src",
    [
        builtin_series("divisor_3").coeffs,
        MultiplicativeSource(rule=lambda p, e: 1.0 * (p % 4 - 2 * e)),
    ],
    ids=["divisor_3", "integer-rule"],
)
def test_integer_dense_is_the_exact_product(src):
    # Integer prime-power values multiply exactly, in any order.
    want = [0.0]
    for n in range(1, 5001):
        want.append(math.prod(src.prime_powers(np.asarray([p]), e)[0] for p, e in factorize(n)))
    np.testing.assert_array_equal(src.dense(5000), want)


@pytest.mark.parametrize(
    "name",
    ["zeta", "moebius", "divisor_3", "eta-factor", "character_1_0",
     "character_5_1", "character_8_3"],
)
def test_dense_at_the_smallest_limits(name):
    src = builtin_series(name).coeffs
    full = src.dense(10)
    for limit in (0, 1, 2):
        got = src.dense(limit)
        assert got.shape == (limit + 1,) and got.dtype == np.complex128
        np.testing.assert_array_equal(got, full[: limit + 1])
    assert full[0] == 0 and full[1] == 1


@pytest.mark.parametrize("p", [3, 5, 7, 101])
def test_prime_modulus_characters_follow_the_primitive_root(p):
    g = _primitive_root(p)
    for j in range(p - 1):
        chi = builtin_series("character_%d_%d" % (p, j)).coeffs.dense(p)
        for k in range(p - 1):
            want = cmath.exp(2j * math.pi * j * k / (p - 1))
            assert abs(chi[pow(g, k, p)] - want) < 1e-12


@pytest.mark.parametrize("q", [4, 8, 16, 9, 24, 40])
def test_characters_are_orthogonal_and_multiplicative(q):
    phi = sum(1 for n in range(q) if math.gcd(n, q) == 1)
    rows = np.asarray(
        [builtin_series("character_%d_%d" % (q, j)).coeffs.dense(q * q)
         for j in range(phi)]
    )
    gram = rows[:, 1 : q + 1] @ rows[:, 1 : q + 1].conj().T
    np.testing.assert_allclose(gram, phi * np.eye(phi), atol=1e-12)
    for a in range(1, q + 1):
        for b in range(1, q + 1):
            np.testing.assert_allclose(
                rows[:, a * b], rows[:, a] * rows[:, b], atol=1e-12
            )
    with pytest.raises(PreconditionError, match=r"\[0, %d\)" % phi):
        builtin_series("character_%d_%d" % (q, phi))


def test_character_values_are_pinned():
    # Exact table values, including the rounding of the phases.
    pins = {
        "character_16_5": {
            1: 1 + 0j,
            3: complex(-1, 1.2246467991473532e-16),
            5: complex(1, -4.898587196589413e-16),
            7: complex(-1, 3.6739403974420594e-16),
            15: complex(-1, 1.2246467991473532e-16),
        },
        "character_40_7": {
            1: 1 + 0j,
            3: complex(3.061616997868383e-16, 1),
            7: complex(-1.8369701987210297e-16, -1),
            13: complex(-4.286263797015736e-16, -1),
            17: complex(6.123233995736766e-17, 1),
            39: complex(1, -2.4492935982947064e-16),
        },
    }
    for name, values in pins.items():
        table = builtin_series(name).coeffs.dense(40)
        assert {n: complex(table[n]) for n in values} == values


def test_explicit_source_validation():
    with pytest.raises(PreconditionError):
        ExplicitSource.from_pairs([(0, 1.0)])
    with pytest.raises(PreconditionError):
        ExplicitSource.from_pairs([(2, 1.0), (2, 3.0)])


def test_prime_power_requires_multiplicative():
    src = ExplicitSource.from_pairs([(1, 1.0)])
    with pytest.raises(PreconditionError, match="not multiplicative"):
        src.prime_powers(np.asarray([2]), 1)


def test_abscissa_ordering():
    src = ExplicitSource.from_pairs([(1, 1.0)])
    with pytest.raises(PreconditionError):
        SeriesSpec(coeffs=src, sigma_m=2.0, sigma_a=1.0)


def test_load_source_explicit(tmp_path):
    doc = {
        "kind": "explicit",
        "coeffs": [[1, 1.0, 0.0], [2, -2.0, 0.5]],
        "label": "pair",
    }
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(doc))
    spec = load_source(str(path))
    assert a_n(spec, 2) == complex(-2.0, 0.5)
    assert spec.label == "pair"
    assert spec.sigma_m == float("-inf")  # finite polynomial


def test_load_source_multiplicative():
    spec = load_source(
        {
            "kind": "multiplicative",
            "prime_powers": [[2, 1, 3.0, 0.0], [3, 1, 1.0, 0.0]],
            "sigma_m": 0.9,
            "sigma_a": 1.6,
        }
    )
    assert a_n(spec, 6) == 3.0  # a_2 * a_3
    assert a_n(spec, 4) == 0.0  # unlisted prime power
    assert spec.sigma_m == 0.9
    # growth base: max |a_{p^e}|^{2/e} = 9, so not unit bounded
    assert spec.coeffs.square_growth_base == 9.0


@pytest.mark.parametrize(
    "doc",
    [
        {"kind": "explicit", "coeffs": [[1, 1.0, 0.0], [2, math.nan, 0.0]]},
        {"kind": "explicit", "coeffs": [[1, 1.0, math.inf]]},
        {"kind": "multiplicative", "prime_powers": [[2, 1, math.nan, 0], [3, 1, 2, 0]]},
        {"kind": "multiplicative", "prime_powers": [[2, 1, -math.inf, 0]]},
    ],
    ids=["explicit-nan", "explicit-inf", "multiplicative-nan", "multiplicative-minus-inf"],
)
def test_load_source_refuses_non_finite_values(tmp_path, doc):
    # json.dumps writes NaN and Infinity, which json.load accepts.
    path = tmp_path / "coeffs.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(PreconditionError, match="must be finite"):
        load_source(str(path))


@pytest.mark.parametrize(
    "doc",
    [
        {"kind": "explicit", "coeffs": [[2.5, 3.0, 0.0]]},
        {"kind": "multiplicative", "prime_powers": [[2.5, 1, 3.0, 0.0]]},
        {"kind": "multiplicative", "prime_powers": [[2, 1.5, 3.0, 0.0]]},
    ],
    ids=["index", "p", "e"],
)
def test_load_source_refuses_fractional_indices(doc):
    with pytest.raises(PreconditionError, match="whole number"):
        load_source(doc)
    # Whole numbers written as floats are read as such.
    whole = {"kind": "explicit", "coeffs": [[2.0, 3.0, 0.0]]}
    assert a_n(load_source(whole), 2) == 3.0


@pytest.mark.parametrize("p", [4, 1, 0, -3, 91, 10**12 + 39])
def test_load_source_refuses_non_primes(p):
    doc = {"kind": "multiplicative", "prime_powers": [[2, 1, 3.0, 0.0], [p, 1, 5.0, 0.0]]}
    with pytest.raises(PreconditionError, match="prime p"):
        load_source(doc)


def test_load_source_refuses_a_repeated_prime_power():
    doc = {"kind": "multiplicative", "prime_powers": [[2, 1, 5.0, 0.0], [2, 1, 7.0, 0.0]]}
    with pytest.raises(PreconditionError, match="duplicate prime power 2\\^1"):
        load_source(doc)
    # The same prime at another exponent is another prime power.
    doc["prime_powers"][1][1] = 2
    assert a_n(load_source(doc), 4) == 7.0


def test_pole_at_one_marks_the_zeta_source_only():
    assert builtin_series("zeta").has_pole_at_one
    for name in ("moebius", "eta-factor", "divisor_2", "character_5_1"):
        assert not builtin_series(name).has_pole_at_one
    named = load_source({"kind": "multiplicative", "prime_powers": [], "label": "zeta"})
    assert not named.has_pole_at_one
    with pytest.raises(TypeError):
        SeriesSpec(coeffs=named.coeffs, sigma_m=0.5, sigma_a=1.0, has_pole_at_one=True)


def test_load_source_builtin_kind():
    spec = load_source({"kind": "builtin", "name": "zeta"})
    assert spec.label == "zeta"


def test_load_source_bad_kind():
    with pytest.raises(PreconditionError):
        load_source({"kind": "mystery"})


_MULT_FILE = {"kind": "multiplicative", "prime_powers": [[2, 1, 3.0, 0.0]]}


@pytest.mark.parametrize(
    "ref",
    ["zeta", "moebius", "divisor_3", "character_5_1", "eta-factor", "file"],
)
def test_dense_refuses_past_the_term_cap_before_allocating(monkeypatch, ref):
    spec = load_source(_MULT_FILE) if ref == "file" else builtin_series(ref)

    def refuse(self, limit):
        raise AssertionError("_dense(%d) was called" % limit)

    monkeypatch.setattr(type(spec.coeffs), "_dense", refuse)
    for limit in (_MAX_TERMS + 1, -1):
        with pytest.raises(PreconditionError, match="table length %d" % limit):
            spec.coeffs.dense(limit)
