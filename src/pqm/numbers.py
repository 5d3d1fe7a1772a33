"""Exact arithmetic for Z_p, Q_p/Z_p, Zhat, Q/Z and the CRT machinery.

All values are immutable and all phases are exact: a character returns its
exponent q in Q/Z as a ``RatMod1``, meaning exp(2*pi*i*q), and complex
doubles only appear where a caller finally evaluates a phase numerically.

Conventions:

* A Q/Z value is a reduced pair of plain integers, and its arithmetic stays
  in integers.  ``Fraction`` is accepted (``RatMod1.of``) and returned
  (``as_fraction``) only at the boundary.
* A truncated p-adic integer is an element of Z(p^N): it stores its
  precision N and its residue in [0, p^N), and every operation is integer
  arithmetic mod p^N.  Binary operations return the minimum precision of
  their operands and raise instead of silently extending.
* A coset in Q_p/Z_p is a ``RatMod1`` whose denominator is a power of p:
  Q_p/Z_p = Z[1/p]/Z is the p-part of Q/Z, and Q/Z is the direct sum of
  these parts over all primes p (``rat_decompose``).
* A ``PadicInt`` is checked once, at ``PadicInt(p, N, r)``, ``from_int``
  or ``from_rational``; arithmetic on valid operands builds its results
  with the unchecked ``PadicInt._of``.
* Base-p digits are derived from the stored residue on demand, so negative
  integers come out in (p-1)-complement form.
* The four CRT index maps take an int or an integer ndarray; on an array
  they act element-wise.  This module never imports numpy: a value is an
  array only if numpy is already loaded and the value is an ndarray.
"""

from __future__ import annotations

import itertools
import math
import operator
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING, Mapping

if TYPE_CHECKING:
    import numpy as np


class PrecisionError(ValueError):
    """A p-adic operation needed more digits than the operand carries."""


# Miller-Rabin with the first k prime bases decides every n below these
# bounds (Jaeschke 1993; Sorenson and Webster, Math. Comp. 86 (2017) 985)
_MR_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUNDS = (
    (2047, 1),
    (1373653, 2),
    (25326001, 3),
    (3215031751, 4),
    (2152302898747, 5),
    (3474749660383, 6),
    (341550071728321, 7),
    (3825123056546413051, 9),
    (318665857834031151167461, 12),
    (3317044064679887385961981, 13),
)
_PRIMALITY_BOUND = _MR_BOUNDS[-1][0]
_MR_PRODUCT = math.prod(_MR_PRIMES)


def is_prime(p: int) -> bool:
    """Deterministic primality for every p below about 3.3e24 (``_PRIMALITY_BOUND``).

    Division by the 13 Miller-Rabin bases, as one gcd with their product,
    decides every p below 43^2; above it, Miller-Rabin with as many bases as
    p's size needs.  Above the bound a composite still returns False; a p
    that passes all 13 bases raises ValueError, since no proof is at hand.
    """
    if p < 43:
        return p in _MR_PRIMES
    if math.gcd(p, _MR_PRODUCT) != 1:  # a base divides p
        return False
    if p < 43 * 43:  # no prime factor below 43, so none at all
        return True
    d = p - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    k = next((k for bound, k in _MR_BOUNDS if p < bound), len(_MR_PRIMES))
    for a in _MR_PRIMES[:k]:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    if p >= _PRIMALITY_BOUND:
        raise ValueError(f"cannot prove {p} prime: above the bound {_PRIMALITY_BOUND}")
    return True


# trial division stops at this divisor; a cofactor left with no prime
# factor below it is split by rho, which finds a prime q in about sqrt(q) steps
_TRIAL_BOUND = 1024
# rho splits a composite cofactor below _RHO_BOUND whatever it takes: its
# least prime is below 2^32, about 2^16 steps (53804 for 4294967279 *
# 4294967291, 55 ms; at most 87406 over 20 products of two primes near 2^32).
# A cofactor of the bound or more gets _RHO_STEPS in all, about 0.35 s at 30
# digits: enough for a small prime factor, while a product of two 15-digit
# primes would take hours
_RHO_BOUND = 2**64
_RHO_STEPS = 2**18


def factorize(n: int) -> dict[int, int]:
    """Prime factorization ``{p: e}`` with primes in increasing order.

    Trial division by f < ``_TRIAL_BOUND`` stops once the cofactor is prime
    (``is_prime``, asked before the first division and after each factor
    found), so a prime, or a small number times one, answers at once.  A
    composite cofactor left after it is split by textbook Pollard rho
    (``_rho_divisor``), about sqrt(q) steps for its least prime q; a
    composite cofactor of ``_RHO_BOUND`` = 2^64 or more that rho does not
    split in ``_RHO_STEPS`` steps is a ValueError naming the bound.  Above
    ``_PRIMALITY_BOUND`` a cofactor that passes every Miller-Rabin base is
    a ValueError.  Each call returns a new dict: factoring costs a few
    microseconds at the n this package meets, so nothing is cached.
    """
    if n < 1:
        raise ValueError(f"cannot factorize {n}")
    out: dict[int, int] = {}
    m = n
    f = 2
    prime = is_prime(m)
    while not prime and f * f <= m:
        if f >= _TRIAL_BOUND:  # m is composite, with no prime factor below f
            for q in _rho_primes(m):
                out[q] = out.get(q, 0) + 1
            return out
        if m % f == 0:
            e = 0
            while m % f == 0:
                m //= f
                e += 1
            out[f] = e
            prime = is_prime(m)
        f += 1 if f == 2 else 2
    if m > 1:  # prime, and above every factor found
        out[m] = 1
    return out


def _rho_primes(m: int) -> list[int]:
    """The primes of a composite m with no prime factor below
    ``_TRIAL_BOUND``, with multiplicity and in increasing order."""
    primes, todo = [], [m]
    while todo:
        m = todo.pop()
        if is_prime(m):
            primes.append(m)
        else:
            d = _rho_divisor(m, None if m < _RHO_BOUND else _RHO_STEPS)
            if d is None:
                raise ValueError(
                    f"composite cofactor {m} exceeds bound {_RHO_BOUND}, "
                    f"and rho split no factor off it in {_RHO_STEPS} steps"
                )
            todo += [d, m // d]
    return sorted(primes)


def _rho_divisor(m: int, steps: int | None = None) -> int | None:
    """A divisor 1 < d < m of an odd composite m, by Pollard's rho on
    x -> x^2 + c from x = 2 with Floyd's cycle search, one gcd per step
    (Pollard, BIT 15 (1975) 331).  A run whose cycle closes on m without a
    divisor retries with c + 1.  With ``steps``, None once that many steps,
    over all runs, found no divisor."""
    budget = itertools.count() if steps is None else iter(range(steps))
    c = 1
    while True:
        x = y = 2
        for _ in budget:
            x = (x * x + c) % m
            y = (y * y + c) % m
            y = (y * y + c) % m
            g = math.gcd(x - y, m)
            if g != 1:
                break
        else:
            return None
        if g != m:
            return g
        c += 1


def valuation(m: int, p: int) -> int:
    """The exponent v of p in the nonzero integer m = p^v u, p not dividing u."""
    if p < 2:
        raise ValueError(f"p={p} must be >= 2")
    if m == 0:
        raise ValueError("valuation of 0 is undefined")
    v = 0
    while m % p == 0:
        m //= p
        v += 1
    return v


# ---------------------------------------------------------------------------
# Q/Z: rational numbers on the circle
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class RatMod1:
    """An exact element kappa/lambda of Q/Z, always reduced and in [0, 1)."""

    numerator: int
    denominator: int

    def __post_init__(self) -> None:
        if self.denominator < 1:
            raise ValueError("denominator must be >= 1")
        if not (0 <= self.numerator < self.denominator) and not (
            self.numerator == 0 and self.denominator == 1
        ):
            raise ValueError("not reduced to [0, 1); use RatMod1.of")
        if math.gcd(self.numerator, self.denominator) != 1:
            raise ValueError("fraction not in lowest terms; use RatMod1.of")

    @classmethod
    def of(cls, numerator: int | Fraction, denominator: int = 1) -> "RatMod1":
        """numerator / denominator mod 1; a Fraction numerator is accepted.

        Every value the arithmetic makes comes from here.  The pair is
        reduced here, so the value is built without ``__post_init__``, whose
        checks would only repeat this gcd, each field set through its slot;
        ``RatMod1(num, den)`` checks.
        """
        # an int skips the slower abstract-base check of isinstance(_, Fraction)
        if not isinstance(numerator, int) and isinstance(numerator, Fraction):
            denominator *= numerator.denominator
            numerator = numerator.numerator
        if denominator < 0:
            numerator, denominator = -numerator, -denominator
        numerator %= denominator
        g = math.gcd(numerator, denominator)
        q = object.__new__(cls)
        _SET_NUMERATOR(q, numerator // g)
        _SET_DENOMINATOR(q, denominator // g)
        return q

    @property
    def as_fraction(self) -> Fraction:
        return Fraction(self.numerator, self.denominator)

    def __add__(self, other: "RatMod1") -> "RatMod1":
        return RatMod1.of(
            self.numerator * other.denominator + other.numerator * self.denominator,
            self.denominator * other.denominator,
        )

    def __sub__(self, other: "RatMod1") -> "RatMod1":
        return RatMod1.of(
            self.numerator * other.denominator - other.numerator * self.denominator,
            self.denominator * other.denominator,
        )

    def __neg__(self) -> "RatMod1":
        return RatMod1.of(-self.numerator, self.denominator)

    def scaled(self, k: int) -> "RatMod1":
        """k * q mod 1 for an integer k."""
        return RatMod1.of(k * self.numerator, self.denominator)

    def __bool__(self) -> bool:
        return self.numerator != 0


# the slots' own setters: the unchecked builders store a field with one call,
# past the frozen ``__setattr__`` and without a lookup by name
_SET_NUMERATOR = RatMod1.__dict__["numerator"].__set__
_SET_DENOMINATOR = RatMod1.__dict__["denominator"].__set__

ZERO_MOD1 = RatMod1(0, 1)


# ---------------------------------------------------------------------------
# Z_p: truncated p-adic integers
# ---------------------------------------------------------------------------


_DIGIT_LEAF = 64  # below this many digits, one divmod per digit


def _to_digits(value: int, p: int, count: int) -> tuple[int, ...]:
    """The base-p digits of value mod p^count, least significant first.

    Divide and conquer: a residue of n > 64 digits splits as hi p^h + lo at
    h = 2^k, the largest power of two below n, and both halves recurse, so
    the big divisions are few and balanced (Brent and Zimmermann, *Modern
    Computer Arithmetic*, 1.7).  The powers p^(2^k) live only in this call.
    """
    powers = [p]  # powers[k] = p^(2^k)
    while 2 ** len(powers) < count:
        powers.append(powers[-1] * powers[-1])
    digits: list[int] = []

    def split(r: int, n: int) -> None:
        if n <= _DIGIT_LEAF:
            for _ in range(n):
                r, d = divmod(r, p)
                digits.append(d)
            return
        k = (n - 1).bit_length() - 1  # 2^k < n <= 2^(k+1)
        hi, lo = divmod(r, powers[k])
        split(lo, 1 << k)
        split(hi, n - (1 << k))

    split(value % p**count, count)
    return tuple(digits)


def _index(value, name: str) -> int:
    """value as a plain int, or a ValueError naming the field it came from."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def _check_modulus(p, precision) -> tuple[int, int]:
    """(p, precision) as plain ints, p prime and precision >= 1, else ValueError."""
    if not type(p) is type(precision) is int:
        p, precision = _index(p, "p"), _index(precision, "precision")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if precision < 1:
        raise ValueError("precision must be >= 1")
    return p, precision


@dataclass(frozen=True, slots=True)
class PadicInt:
    """A p-adic integer truncated to N = ``precision`` digits: a residue mod p^N.

    ``residue`` is the representative in [0, p^N); the base-p digits are
    derived from it.
    """

    p: int
    precision: int
    residue: int

    def __post_init__(self) -> None:
        if not type(self.p) is type(self.precision) is type(self.residue) is int:
            # an int subclass or an integer-like value is stored as the plain int
            for name in ("p", "precision", "residue"):
                object.__setattr__(self, name, _index(getattr(self, name), name))
        _check_modulus(self.p, self.precision)
        if not 0 <= self.residue < self.p**self.precision:
            raise ValueError(
                f"residue {self.residue} out of range for Z({self.p}^{self.precision})"
            )

    @classmethod
    def _of(cls, value: int, p: int, precision: int) -> "PadicInt":
        """value mod p^precision, for an int value and a p and precision that
        a valid ``PadicInt`` already carries: built without ``__post_init__``."""
        a = object.__new__(cls)
        _SET_P(a, p)
        _SET_PRECISION(a, precision)
        _SET_RESIDUE(a, value % p**precision)
        return a

    @property
    def digits(self) -> tuple[int, ...]:
        """``digits[v]`` is the coefficient of p^v, each in [0, p-1]."""
        return _to_digits(self.residue, self.p, self.precision)

    @classmethod
    def from_int(cls, value: int, p: int, precision: int) -> "PadicInt":
        p, precision = _check_modulus(p, precision)
        return cls._of(_index(value, "value"), p, precision)

    @classmethod
    def from_rational(cls, q: Fraction, p: int, precision: int) -> "PadicInt":
        """The canonical image of a rational with denominator coprime to p."""
        p, precision = _check_modulus(p, precision)
        if math.gcd(q.denominator, p) != 1:
            raise ValueError(f"{q} is not a {p}-adic integer")
        inv = pow(q.denominator, -1, p**precision)
        return cls._of(q.numerator * inv, p, precision)

    def _shared_precision(self, other: "PadicInt") -> int:
        if self.p != other.p:
            raise ValueError(f"prime mismatch: {self.p} vs {other.p}")
        return min(self.precision, other.precision)

    def __add__(self, other: "PadicInt") -> "PadicInt":
        if not isinstance(other, PadicInt):
            return NotImplemented
        n = self._shared_precision(other)
        return PadicInt._of(self.residue + other.residue, self.p, n)

    def __sub__(self, other: "PadicInt") -> "PadicInt":
        if not isinstance(other, PadicInt):
            return NotImplemented
        n = self._shared_precision(other)
        return PadicInt._of(self.residue - other.residue, self.p, n)

    def __mul__(self, other: "PadicInt") -> "PadicInt":
        if not isinstance(other, PadicInt):
            return NotImplemented
        n = self._shared_precision(other)
        return PadicInt._of(self.residue * other.residue, self.p, n)

    def __neg__(self) -> "PadicInt":
        return PadicInt._of(-self.residue, self.p, self.precision)

    def __repr__(self) -> str:
        return f"PadicInt(p={self.p}, digits={self.digits})"


# the slots' own setters, for ``PadicInt._of``
_SET_P = PadicInt.__dict__["p"].__set__
_SET_PRECISION = PadicInt.__dict__["precision"].__set__
_SET_RESIDUE = PadicInt.__dict__["residue"].__set__


def padic_ord_abs(
    x: "PadicInt | Fraction | int", p: int | None = None
) -> tuple[int, Fraction]:
    """Valuation and absolute value (ord, p^-ord) of a nonzero element.

    For a truncated PadicInt whose residue is 0 the valuation is not
    determined by the available digits, so this raises PrecisionError.
    """
    if isinstance(x, PadicInt):
        if x.residue == 0:
            raise PrecisionError(
                f"valuation undetermined at precision {x.precision}: all digits zero"
            )
        v = valuation(x.residue, x.p)
        return v, Fraction(1, x.p**v)
    if p is None:
        raise ValueError("p required for rational input")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    q = Fraction(x)
    if q == 0:
        raise ValueError("valuation of 0 is undefined")
    ord_ = valuation(q.numerator, p) - valuation(q.denominator, p)
    return ord_, Fraction(1, p) ** ord_


def ostrowski_product(q: "Fraction | int") -> Fraction:
    """|q|_inf * prod_p |q|_p over the primes dividing q; equals 1 exactly.

    On the integers of q = num/den: |q|_p is p^(v_p(den)) at a p dividing
    den and p^(-v_p(num)) at a p dividing num, so the product is
    |num| prod p^(v_p(den)) / (den prod p^(v_p(num))), one Fraction at the end.
    """
    q = Fraction(q)
    if q == 0:
        raise ValueError("q must be nonzero")
    top, bottom = abs(q.numerator), q.denominator
    for p, e in factorize(q.denominator).items():
        top *= p**e
    for p, e in factorize(abs(q.numerator)).items():
        bottom *= p**e
    return Fraction(top, bottom)


def project_xi(a: PadicInt, k: int) -> int:
    """The truncation map xi_k: Z_p -> Z(p^k) (keep the first k digits)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > a.precision:
        raise PrecisionError(f"k={k} exceeds precision {a.precision}")
    return a.residue % a.p**k


def lift_tilde_xi(beta: int, k: int, p: int) -> RatMod1:
    """The lift xi~_k: Z(p^k) -> Q_p/Z_p, beta |-> p^-k beta (reduced)."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if k < 0:
        raise ValueError("k must be >= 0")
    if not 0 <= beta < p**k:
        raise ValueError(f"beta={beta} out of range for Z({p}^{k})")
    return RatMod1.of(beta, p**k)


# ---------------------------------------------------------------------------
# Zhat: profinite integers
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ProfiniteInt:
    """An element of Zhat: finitely many p-adic overrides over an integer tail.

    The component at an unlisted prime is the canonical p-adic image of
    ``tail``, materialized on demand at any requested precision.
    """

    overrides: Mapping[int, PadicInt] = field(default_factory=dict)
    tail: int = 0

    def __post_init__(self) -> None:
        if type(self.tail) is not int:
            object.__setattr__(self, "tail", _index(self.tail, "tail"))
        for p, a in self.overrides.items():
            if not isinstance(a, PadicInt) or a.p != p:
                raise ValueError(f"override at {p} is not a {p}-adic integer")

    def _residue(self, p: int, k: int) -> int:
        """The one truncation Zhat -> Z(p^k), for a prime p from a trusted source."""
        a = self.overrides.get(p)
        return self.tail % p**k if a is None else project_xi(a, k)

    def component(self, p: int, precision: int) -> PadicInt:
        p, precision = _check_modulus(p, precision)
        return PadicInt._of(self._residue(p, precision), p, precision)

    def residue(self, n: int) -> int:
        """The projection pi_n: Zhat -> Z(n) (per-prime truncations + CRT), n >= 2."""
        return crt_join_mu(n, tuple(self._residue(f.p, f.e) for f in crt_idempotents(n)))

    def is_even(self) -> bool:
        """True iff ord of the 2-adic component is >= 1."""
        return self._residue(2, 1) == 0

    def _merge(self, other: "ProfiniteInt", op) -> "ProfiniteInt":
        out = {}
        for p in self.overrides.keys() | other.overrides.keys():
            k = min(x.overrides[p].precision for x in (self, other) if p in x.overrides)
            out[p] = PadicInt._of(op(self._residue(p, k), other._residue(p, k)), p, k)
        return ProfiniteInt(out, op(self.tail, other.tail))

    def __add__(self, other: "ProfiniteInt") -> "ProfiniteInt":
        return self._merge(other, operator.add)

    def __sub__(self, other: "ProfiniteInt") -> "ProfiniteInt":
        return self._merge(other, operator.sub)

    def __mul__(self, other: "ProfiniteInt") -> "ProfiniteInt":
        return self._merge(other, operator.mul)

    def __neg__(self) -> "ProfiniteInt":
        return ProfiniteInt({p: -a for p, a in self.overrides.items()}, -self.tail)


# ---------------------------------------------------------------------------
# CRT: idempotents and the two index maps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CrtFactor:
    """Per-prime CRT data for n = prod p^e: u = n/p^e, t*u = 1 mod p^e, w = t*u."""

    p: int
    e: int
    q: int  # p^e
    u: int
    t: int
    w: int


@lru_cache(maxsize=1024)
def crt_idempotents(n: int) -> tuple[CrtFactor, ...]:
    """One ``CrtFactor`` per prime power p^e of n, in increasing p; n >= 2.

    The one memoized table in this module, since the same n keeps coming
    back: the four CRT maps, ``rat_decompose``, ``ProfiniteInt.residue``,
    ``finiteqm._flat_indices`` and ``phw_global_project_factors`` read it on
    every call.  One default ``pqm verify`` makes about 9300 hits and 1000
    misses, and a miss costs about 4 us at n = 12 and 25 us at n = 9699690
    (Python 3.11).  The cache keeps at most 1024 moduli, room for verify's
    1000: an entry takes about 0.5 kB, so the bound caps it near 0.6 MB,
    where 65536 entries could reach about 38 MB.  ``factorize`` itself is
    not cached.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    factors = []
    for p, e in factorize(n).items():
        q = p**e
        u = n // q
        t = pow(u, -1, q)
        factors.append(CrtFactor(p, e, q, u, t, (t * u) % n))
    for i, fi in enumerate(factors):
        for j, fj in enumerate(factors):
            d = 1 if i == j else 0
            assert (fi.w * fj.w) % n == (d * fj.w) % n
            assert (fi.w * fj.u) % n == (d * fj.u) % n
    return tuple(factors)


# Array maps form products below n^2, which must fit in int64.
_ARRAY_N_MAX = 2**31


def _check_array_modulus(n: int) -> None:
    if n > _ARRAY_N_MAX:
        raise ValueError(f"array CRT maps need n <= 2^31, got n={n}")


def _is_array(x) -> bool:
    """True for an ndarray, 0-d included; a numpy integer scalar is not one."""
    if type(x) is int:  # the common case skips the module lookup
        return False
    np = sys.modules.get("numpy")
    return np is not None and isinstance(x, np.ndarray)


def _check_index(n: int, x, name: str) -> None:
    """Raise unless n >= 2 and x, an int or an integer ndarray, lies in [0, n)."""
    if n < 2:
        raise ValueError("n must be >= 2")
    if _is_array(x):
        if x.dtype.kind not in "iu":
            raise ValueError(f"{name} must be an integer array, got {x.dtype}")
        _check_array_modulus(n)
        if x.size and (x.min() < 0 or x.max() >= n):
            raise ValueError(f"{name} has entries out of range for Z({n})")
    elif not 0 <= x < n:
        raise ValueError(f"{name}={x} out of range for Z({n})")


def crt_split_mu(n: int, mu: "int | np.ndarray") -> tuple:
    """mu |-> (mu mod p_i^{e_i}), the position-type index map."""
    _check_index(n, mu, "mu")
    return tuple(mu % f.q for f in crt_idempotents(n))


def crt_join_mu(n: int, comps: tuple) -> "int | np.ndarray":
    """(mu_i) |-> sum mu_i w_i mod n, inverse of crt_split_mu."""
    factors = crt_idempotents(n)
    if len(comps) != len(factors):
        raise ValueError("component count mismatch")
    if _is_array(comps[0]):
        _check_array_modulus(n)
    return sum(c * f.w for c, f in zip(comps, factors)) % n


def crt_split_nu_hat(n: int, nu: "int | np.ndarray") -> tuple:
    """nu |-> (nu t_i mod p_i^{e_i}), the momentum-type 'hat' index map.

    The defining property is the partial-fraction identity
    nu/n = sum nu_hat_i / p_i^{e_i} mod 1.
    """
    _check_index(n, nu, "nu")
    return tuple((nu * f.t) % f.q for f in crt_idempotents(n))


def crt_join_nu_hat(n: int, comps: tuple) -> "int | np.ndarray":
    """(nu_hat_i) |-> sum nu_hat_i u_i mod n, inverse of crt_split_nu_hat."""
    factors = crt_idempotents(n)
    if len(comps) != len(factors):
        raise ValueError("component count mismatch")
    if _is_array(comps[0]):
        _check_array_modulus(n)
    return sum(c * f.u for c, f in zip(comps, factors)) % n


# ---------------------------------------------------------------------------
# Characters
# ---------------------------------------------------------------------------


def char_omega(n: int, alpha: int) -> RatMod1:
    """The exponent alpha / n of omega_n(alpha) = exp(2 pi i alpha / n)."""
    return RatMod1.of(alpha, n)


def _qp_level(q: RatMod1, p: int) -> int:
    """k with q = m/p^k, the level of q in Q_p/Z_p; a ValueError naming q and
    p when q's denominator is not a power of p."""
    k = valuation(q.denominator, p)
    if q.denominator != p**k:
        raise ValueError(
            f"{q.numerator}/{q.denominator} is not in Q_{p}/Z_{p}: "
            f"its denominator is not a power of {p}"
        )
    return k


def char_chi_p(a: PadicInt, b: RatMod1) -> RatMod1:
    """The exponent a b of chi_p(a*b) for a in Z_p and b in Q_p/Z_p, which is
    the coset a*b itself; needs a known mod p^k when b has denominator p^k."""
    k = _qp_level(b, a.p)
    return b.scaled(project_xi(a, k)) if k else b


def char_chi_global(a: ProfiniteInt, b: Mapping[int, RatMod1]) -> RatMod1:
    """The exponent sum_p a_p b_p of chi(a*b) = prod_p chi_p(a_p b_p), b given
    on its finite support as ``{p: b_p}`` with b_p in Q_p/Z_p."""
    terms = (char_chi_p(a.component(p, _qp_level(bp, p)), bp) for p, bp in b.items() if bp)
    return sum(terms, ZERO_MOD1)


# ---------------------------------------------------------------------------
# Q/Z <-> per-prime components
# ---------------------------------------------------------------------------


def rat_decompose(q: RatMod1) -> dict[int, RatMod1]:
    """Split q in Q/Z into its p-parts, q = sum_p q_p mod 1, with q_p in Q_p/Z_p.

    The part at p has denominator p^e, p^e exactly dividing the denominator
    of q, so it is supported exactly when p divides that denominator.
    """
    if q.numerator == 0:
        return {}
    n = q.denominator
    return {
        f.p: RatMod1.of(kp, f.q)
        for f, kp in zip(crt_idempotents(n), crt_split_nu_hat(n, q.numerator))
    }


def rat_recombine(parts: Mapping[int, RatMod1]) -> RatMod1:
    return sum(parts.values(), ZERO_MOD1)
