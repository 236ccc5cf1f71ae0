"""Coefficient sources for Dirichlet series and the builtin catalogue.

A source gives a dense 1-based array of coefficients up to N.  Multiplicative
sources are defined by their prime-power rule a_{p^e}; explicit sources carry
a finite table.  Coefficient files use a small JSON schema (see load_source).
"""

import cmath
import json
import math
from dataclasses import dataclass

import numpy as np

from ._kernel import _MAX_TERMS
from .errors import PreconditionError
from .primes import _SIEVE_BOUND, _sieved_primes, factorize, primes_up_to

__all__ = [
    "CoefficientSource",
    "ExplicitSource",
    "MultiplicativeSource",
    "SeriesSpec",
    "builtin_series",
    "load_source",
]


class CoefficientSource:
    """Interface shared by all coefficient sources: subclasses implement
    _dense, and prime_powers when multiplicative."""

    # Upper bound G with |a_{p^e}|^2 <= G^e, used by tail estimates; G <= 1
    # means |a_n| <= 1 for all n, where the tightest tail bounds apply.
    square_growth_base = 1.0

    def dense(self, limit: int) -> np.ndarray:
        """Coefficients a_1..a_limit as a complex array indexed 1..limit.

        Index 0 is present and zero so that arr[n] is a_n.  A limit outside
        0.._MAX_TERMS is a PreconditionError, raised before allocating.
        """
        if not 0 <= limit <= _MAX_TERMS:
            raise PreconditionError(
                "coefficient table length %d lies outside 0..%d" % (limit, _MAX_TERMS)
            )
        return self._dense(int(limit))

    def _dense(self, limit: int) -> np.ndarray:
        raise NotImplementedError

    def prime_powers(self, ps: np.ndarray, e: int) -> np.ndarray:
        """a_{p^e} for every prime of the int64 array ps, at one e >= 1."""
        raise PreconditionError("source is not multiplicative")


@dataclass(frozen=True)
class ExplicitSource(CoefficientSource):
    """Finite coefficient table; unlisted indices are zero."""

    entries: tuple  # ((n, complex), ...) with n ascending and unique

    def __post_init__(self):
        seen = set()
        for n, _ in self.entries:
            if n < 1:
                raise PreconditionError("explicit indices start at n = 1")
            if n in seen:
                raise PreconditionError("duplicate explicit index %d" % n)
            seen.add(n)

    @staticmethod
    def from_pairs(pairs) -> "ExplicitSource":
        items = sorted(((int(n), complex(a)) for n, a in pairs), key=lambda e: e[0])
        return ExplicitSource(entries=tuple(items))

    def support(self):
        """(indices, values) of the table as int64 and complex128 arrays."""
        idx = np.asarray([n for n, _ in self.entries], dtype=np.int64)
        val = np.asarray([a for _, a in self.entries], dtype=np.complex128)
        return idx, val

    def _dense(self, limit: int) -> np.ndarray:
        idx, val = self.support()
        keep = idx <= limit
        arr = np.zeros(limit + 1, dtype=np.complex128)
        arr[idx[keep]] = val[keep]
        return arr

    def max_index(self) -> int:
        return int(self.support()[0].max(initial=1))


@dataclass(frozen=True)
class MultiplicativeSource(CoefficientSource):
    """Source defined by a prime-power rule a_{p^e}, with a_1 = 1: rule(ps, e)
    gets an int64 array of primes and one e >= 1 and returns a_{p^e} for
    each, or anything that broadcasts to that shape (one number for a rule
    of e alone)."""

    rule: object
    square_growth_base: float = 1.0

    def prime_powers(self, ps: np.ndarray, e: int) -> np.ndarray:
        return np.broadcast_to(np.asarray(self.rule(ps, e), dtype=np.complex128), ps.shape)

    def _dense(self, limit: int) -> np.ndarray:
        # One sieve over the primes, largest first: a_n = 1 * a_{p_k^{e_k}}
        # ... a_{p_1^{e_1}}, and j p takes a_{p^e} where p^{e-1} divides j.
        arr = np.zeros(limit + 1, dtype=np.complex128)
        arr[1:] = 1.0
        ps = primes_up_to(limit)
        a_p = self.prime_powers(ps, 1)
        small = int(np.searchsorted(ps, math.isqrt(limit), side="right"))
        # A prime past sqrt(limit) divides n <= limit at most once, and comes
        # first in the sieve: each cofactor j takes every such p at once.
        big, a_big = ps[small:], a_p[small:]
        for j in range(1, math.isqrt(limit) + 1):
            count = np.searchsorted(big, limit // j, side="right")
            arr[j * big[:count]] *= a_big[:count]
        for i in range(small - 1, -1, -1):
            p = int(ps[i])
            factor = np.full(limit // p, a_p[i])
            q, e = p, 2
            while q <= limit // p:
                factor[q - 1 :: q] = self.prime_powers(ps[i : i + 1], e)
                q, e = q * p, e + 1
            arr[p::p] *= factor
        return arr


@dataclass(frozen=True)
class SeriesSpec:
    """A Dirichlet series: coefficients plus its convergence abscissas.

    sigma_m bounds the half plane where the squared-coefficient sums
    converge; sigma_a is the abscissa of absolute convergence.
    """

    coeffs: CoefficientSource
    sigma_m: float
    sigma_a: float
    label: str = "series"

    def __post_init__(self):
        if self.sigma_m > self.sigma_a:
            raise PreconditionError("sigma_m must not exceed sigma_a")

    @property
    def has_pole_at_one(self) -> bool:
        """True for the builtin zeta series, the one series with a pole at 1."""
        return _is_zeta(self)


# ---------------------------------------------------------------------------
# Builtin catalogue


class _ZetaSource(MultiplicativeSource):
    def _dense(self, limit: int) -> np.ndarray:
        arr = np.ones(limit + 1, dtype=np.complex128)
        arr[0] = 0.0
        return arr


def _is_zeta(spec: SeriesSpec) -> bool:
    """True for the builtin zeta series; the label is only a display name."""
    return isinstance(spec.coeffs, _ZetaSource)


def _primitive_root(p: int) -> int:
    phi = p - 1
    fac = [f for f, _ in factorize(phi)]
    for g in range(2, p):
        if all(pow(g, phi // f, p) != 1 for f in fac):
            return g
    raise PreconditionError("no primitive root found")  # unreachable for odd p


def _discrete_log(g: int, order: int, q: int) -> np.ndarray:
    """Per residue mod q, the k in [0, order) with g^k = it, or -1."""
    powers = np.ones(order, dtype=np.int64)
    done = 1
    while done < order:  # g^{done + i} = g^i g^done, doubling the span
        step = min(done, order - done)
        powers[done : done + step] = powers[:step] * pow(g, done, q) % q
        done += step
    logs = np.full(q, -1, dtype=np.int64)
    logs[powers] = np.arange(order)
    return logs


def _character_table(modulus: int, index: int) -> np.ndarray:
    """Values chi(0..modulus-1) for the index-th character mod `modulus`.

    Characters are enumerated by mixed-radix digits over the cyclic
    components of the unit group: odd prime powers are cyclic, 4 is cyclic
    of order 2, and 2^a with a >= 3 splits as {+-1} x <3>.
    """
    # Per cyclic component: (q, exponent of each residue mod q, order).
    comps = []
    for p, a in factorize(modulus):
        q = p**a
        if p == 2 and a >= 3:
            half = q // 4
            logs = _discrete_log(3, half, q)
            powers = np.flatnonzero(logs >= 0)
            sign = np.full(q, -1, dtype=np.int64)
            sign[powers], sign[q - powers] = 0, 1
            logs[q - powers] = logs[powers]
            comps += [(q, sign, 2), (q, logs, half)]
        elif q == 4:
            comps.append((q, _discrete_log(3, 2, q), 2))
        elif p > 2:
            g = _primitive_root(p)
            if a > 1 and pow(g, p - 1, p * p) == 1:
                g += p
            comps.append((q, _discrete_log(g, q - q // p, q), q - q // p))
    phi = math.prod(order for _, _, order in comps)
    if not 0 <= index < phi:
        raise PreconditionError("character index must lie in [0, %d)" % phi)
    # Mixed-radix digits of the index pick one root of unity per component.
    n = np.arange(modulus)
    phase = np.zeros(modulus)
    rem = index
    for q, logs, order in comps:
        phase += (rem % order) * logs[n % q] / order
        rem //= order
    values = np.zeros(modulus, dtype=np.complex128)
    units = np.gcd(n, modulus) == 1
    values[units] = np.exp(2j * math.pi * phase[units])
    return values


@dataclass(frozen=True, eq=False)
class _CharacterSource(CoefficientSource):
    modulus: int
    index: int
    table: np.ndarray  # read-only chi(0..modulus-1)

    def prime_powers(self, ps: np.ndarray, e: int) -> np.ndarray:
        # chi(p^e mod q); residues stay below q <= 10^6, so products fit int64.
        base = residue = ps % self.modulus
        for _ in range(e - 1):
            residue = residue * base % self.modulus
        return self.table[residue]

    def _dense(self, limit: int) -> np.ndarray:
        arr = np.resize(self.table, limit + 1)
        arr[0] = 0.0
        return arr


def builtin_series(name: str) -> SeriesSpec:
    """Builtin series by name.

    Names: zeta, moebius, eta-factor, divisor_<k>, character_<modulus>_<index>.
    The eta-factor series is the two-term polynomial 1 - 2^{1-s}, the standard
    fixture with the closed-form zero ladder at 1 + 2 pi i k / log 2.
    """
    name = name.strip()
    if name == "zeta":
        return SeriesSpec(
            coeffs=_ZetaSource(rule=lambda p, e: 1.0),
            sigma_m=0.5,
            sigma_a=1.0,
            label="zeta",
        )
    if name == "moebius":
        return SeriesSpec(
            coeffs=MultiplicativeSource(rule=lambda p, e: -1.0 if e == 1 else 0.0),
            sigma_m=0.5,
            sigma_a=1.0,
            label="moebius",
        )
    if name == "eta-factor":
        return SeriesSpec(
            coeffs=ExplicitSource.from_pairs([(1, 1.0), (2, -2.0)]),
            sigma_m=float("-inf"),
            sigma_a=float("-inf"),
            label="eta-factor",
        )
    if name.startswith("divisor_"):
        try:
            k = int(name.split("_", 1)[1])
        except ValueError:
            raise PreconditionError("bad divisor order in %r" % name) from None
        if k < 1:
            raise PreconditionError("divisor order must be >= 1")
        return SeriesSpec(
            coeffs=MultiplicativeSource(
                rule=lambda p, e: float(math.comb(e + k - 1, k - 1)),
                square_growth_base=float(k * k),
            ),
            sigma_m=0.5,
            sigma_a=1.0,
            label=name,
        )
    if name.startswith("character_"):
        parts = name.split("_")
        if len(parts) != 3:
            raise PreconditionError(
                "character name must be character_<modulus>_<index>"
            )
        try:
            modulus, index = int(parts[1]), int(parts[2])
        except ValueError:
            raise PreconditionError(
                "bad character modulus or index in %r" % name
            ) from None
        if modulus < 1:
            raise PreconditionError("character modulus must be >= 1")
        if modulus > _SIEVE_BOUND:
            raise PreconditionError(
                "character modulus must be <= %d" % _SIEVE_BOUND
            )
        table = _character_table(modulus, index)
        table.flags.writeable = False
        return SeriesSpec(
            coeffs=_CharacterSource(modulus=modulus, index=index, table=table),
            sigma_m=0.5,
            sigma_a=1.0,
            label=name,
        )
    raise PreconditionError("unknown builtin series %r" % name)


# ---------------------------------------------------------------------------
# Coefficient files

_DEFAULT_MULT_ABSCISSAS = (0.5, 1.0)


def load_source(obj) -> SeriesSpec:
    """Build a SeriesSpec from a coefficient file path or a dict.

    Schema:
      {"kind": "explicit", "coeffs": [[n, re, im], ...]}
      {"kind": "multiplicative", "prime_powers": [[p, e, re, im], ...]}
      {"kind": "builtin", "name": "zeta"}
    Optional keys "sigma_m", "sigma_a", "label" override the defaults.  n, p
    and e are whole, p a prime up to 10^12, no n or (p, e) repeats, and re,
    im are finite.  Unlisted explicit indices and unlisted prime powers are
    zero.  A multiplicative file becomes a MultiplicativeSource whose
    rule(ps, e) looks up the listed a_{p^e} for a whole array of primes at
    one e.

    Raises:
        PreconditionError: the file cannot be read or parsed, or the
            document does not follow the schema.
    """
    if isinstance(obj, str):
        try:
            with open(obj, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise PreconditionError("cannot read coefficient file: %s" % exc)
        except json.JSONDecodeError as exc:
            raise PreconditionError("bad coefficient JSON: %s" % exc)
    else:
        data = obj
    if not isinstance(data, dict) or "kind" not in data:
        raise PreconditionError("coefficient JSON must be an object with 'kind'")
    try:
        return _spec_from_doc(data)
    except PreconditionError:
        raise
    except KeyError as exc:
        raise PreconditionError("coefficient JSON lacks key %s" % exc) from None
    except (AttributeError, OverflowError, TypeError, ValueError) as exc:
        raise PreconditionError("malformed coefficient JSON: %s" % exc) from None


def _whole(x, name: str) -> int:
    """x as an int; a value that is not a whole number is refused."""
    if not float(x).is_integer():
        raise PreconditionError("%s must be a whole number, got %r" % (name, x))
    return int(x)


def _finite(re, im) -> complex:
    a = complex(re, im)
    if not cmath.isfinite(a):
        raise PreconditionError("coefficient values must be finite, got %r" % a)
    return a


def _refuse_non_primes(ps: np.ndarray):
    """PreconditionError unless every entry of the int64 array ps is a prime
    up to 10^12.  Entries up to the sieve bound are looked up in its sieve,
    and the rest are factorized."""
    ok = np.isin(ps, _sieved_primes(_SIEVE_BOUND))
    for i in np.flatnonzero(ps > _SIEVE_BOUND):
        p = int(ps[i])
        ok[i] = p <= _SIEVE_BOUND**2 and factorize(p) == [(p, 1)]
    if not ok.all():
        raise PreconditionError(
            "prime powers need a prime p <= 10^12, got %d" % ps[~ok][0]
        )


def _spec_from_doc(data: dict) -> SeriesSpec:
    kind = data["kind"]
    label = data.get("label", "file-series")
    if kind == "builtin":
        return builtin_series(data["name"])
    if kind == "explicit":
        pairs = [(_whole(n, "index"), _finite(re, im)) for n, re, im in data["coeffs"]]
        src = ExplicitSource.from_pairs(pairs)
        return SeriesSpec(
            coeffs=src,
            sigma_m=float(data.get("sigma_m", float("-inf"))),
            sigma_a=float(data.get("sigma_a", float("-inf"))),
            label=label,
        )
    if kind == "multiplicative":
        table = {}
        for p, e, re, im in data["prime_powers"]:
            p, e = _whole(p, "p"), _whole(e, "e")
            if e < 1:
                raise PreconditionError("prime powers need exponent >= 1")
            if (p, e) in table:
                raise PreconditionError("duplicate prime power %d^%d" % (p, e))
            table[(p, e)] = _finite(re, im)
        try:
            growth = max(
                [abs(v) ** (2.0 / e) for (p, e), v in table.items() if v != 0],
                default=1.0,
            )
        except OverflowError:  # some |v|^(2/e) lies past the float range
            growth = math.inf

        keys = sorted(table)  # ascending (p, e); past int64 is malformed
        listed = np.asarray(keys, dtype=np.int64).reshape(-1, 2)
        _refuse_non_primes(listed[:, 0])
        values = np.asarray([table[k] for k in keys], dtype=np.complex128)

        def rule(ps, e):
            at_e = listed[:, 1] == e
            # A sentinel 0, which is no prime, past the listed primes: a miss.
            primes, vals = np.append(listed[at_e, 0], 0), np.append(values[at_e], 0j)
            i = np.searchsorted(primes[:-1], ps)
            return np.where(primes[i] == ps, vals[i], 0j)

        src = MultiplicativeSource(rule=rule, square_growth_base=max(1.0, growth))
        sm, sa = _DEFAULT_MULT_ABSCISSAS
        return SeriesSpec(
            coeffs=src,
            sigma_m=float(data.get("sigma_m", sm)),
            sigma_a=float(data.get("sigma_a", sa)),
            label=label,
        )
    raise PreconditionError("unknown coefficient kind %r" % kind)
