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
* A coset in Q_p/Z_p is represented by the unique element with zero integer
  part, stored as a fraction m / p^k with 0 <= m < p^k and p not dividing m.
* Base-p digits are derived from the stored residue on demand, so negative
  integers come out in (p-1)-complement form.
* The four CRT index maps take an int or an integer ndarray; on an array
  they act element-wise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Mapping

import numpy as np


class PrecisionError(ValueError):
    """A p-adic operation needed more digits than the operand carries."""


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


@lru_cache(maxsize=65536)
def factorize(n: int) -> dict[int, int]:
    """Prime factorization ``{p: e}`` with primes in increasing order."""
    if n < 1:
        raise ValueError(f"cannot factorize {n}")
    out: dict[int, int] = {}
    m = n
    f = 2
    while f * f <= m:
        while m % f == 0:
            out[f] = out.get(f, 0) + 1
            m //= f
        f += 1 if f == 2 else 2
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


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


@dataclass(frozen=True)
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
        """numerator / denominator mod 1; a Fraction numerator is accepted."""
        if isinstance(numerator, Fraction):
            denominator *= numerator.denominator
            numerator = numerator.numerator
        if denominator < 0:
            numerator, denominator = -numerator, -denominator
        numerator %= denominator
        g = math.gcd(numerator, denominator)
        return cls(numerator // g, denominator // g)

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


ZERO_MOD1 = RatMod1(0, 1)


# ---------------------------------------------------------------------------
# Z_p: truncated p-adic integers
# ---------------------------------------------------------------------------


def _to_digits(value: int, p: int, count: int) -> tuple[int, ...]:
    """The base-p digits of value mod p^count, least significant first."""
    r = value % p**count
    digits = []
    for _ in range(count):
        r, d = divmod(r, p)
        digits.append(d)
    return tuple(digits)


@dataclass(frozen=True)
class PadicInt:
    """A p-adic integer truncated to N = ``precision`` digits: a residue mod p^N.

    ``residue`` is the representative in [0, p^N); the base-p digits are
    derived from it.
    """

    p: int
    precision: int
    residue: int

    def __post_init__(self) -> None:
        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")
        if self.precision < 1:
            raise ValueError("precision must be >= 1")
        if not 0 <= self.residue < self.p**self.precision:
            raise ValueError(
                f"residue {self.residue} out of range for Z({self.p}^{self.precision})"
            )

    @property
    def digits(self) -> tuple[int, ...]:
        """``digits[v]`` is the coefficient of p^v, each in [0, p-1]."""
        return _to_digits(self.residue, self.p, self.precision)

    @classmethod
    def from_int(cls, value: int, p: int, precision: int) -> "PadicInt":
        return cls(p, precision, value % p**precision)

    @classmethod
    def from_rational(cls, q: Fraction, p: int, precision: int) -> "PadicInt":
        """The canonical image of a rational with denominator coprime to p."""
        if p < 2:
            raise ValueError(f"{p} is not prime")
        if precision < 1:
            raise ValueError("precision must be >= 1")
        if q.denominator % p == 0:
            raise ValueError(f"{q} is not a {p}-adic integer")
        inv = pow(q.denominator, -1, p**precision)
        return cls.from_int(q.numerator * inv, p, precision)

    def _shared_precision(self, other: "PadicInt") -> int:
        if self.p != other.p:
            raise ValueError(f"prime mismatch: {self.p} vs {other.p}")
        return min(self.precision, other.precision)

    def __add__(self, other: "PadicInt") -> "PadicInt":
        if not isinstance(other, PadicInt):
            return NotImplemented
        n = self._shared_precision(other)
        return PadicInt.from_int(self.residue + other.residue, self.p, n)

    def __sub__(self, other: "PadicInt") -> "PadicInt":
        if not isinstance(other, PadicInt):
            return NotImplemented
        n = self._shared_precision(other)
        return PadicInt.from_int(self.residue - other.residue, self.p, n)

    def __mul__(self, other: "PadicInt") -> "PadicInt":
        if not isinstance(other, PadicInt):
            return NotImplemented
        n = self._shared_precision(other)
        return PadicInt.from_int(self.residue * other.residue, self.p, n)

    def __neg__(self) -> "PadicInt":
        return PadicInt.from_int(-self.residue, self.p, self.precision)

    def __repr__(self) -> str:
        return f"PadicInt(p={self.p}, digits={self.digits})"


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
    """|q|_inf * prod_p |q|_p over the primes dividing q; equals 1 exactly."""
    q = Fraction(q)
    if q == 0:
        raise ValueError("q must be nonzero")
    out = abs(q)
    for p in set(factorize(abs(q.numerator))) | set(factorize(q.denominator)):
        _, absp = padic_ord_abs(q, p)
        out *= absp
    return out


def project_xi(a: PadicInt, k: int) -> int:
    """The truncation map xi_k: Z_p -> Z(p^k) (keep the first k digits)."""
    if not (1 <= k <= a.precision):
        raise PrecisionError(f"k={k} exceeds precision {a.precision}")
    return a.residue % a.p**k


# ---------------------------------------------------------------------------
# Q_p/Z_p: fractional cosets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PadicFrac:
    """A coset in Q_p/Z_p represented with zero integer part.

    The value is ``numerator / p^degree`` with 0 <= numerator < p^degree.
    Canonical form has p not dividing the numerator, so degree 0 (numerator
    0) encodes the zero coset and the coset lies in p^-degree Z_p / Z_p.
    """

    p: int
    numerator: int
    degree: int

    def __post_init__(self) -> None:
        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")
        if self.degree < 0:
            raise ValueError("degree must be >= 0")
        if not 0 <= self.numerator < self.p**self.degree:
            raise ValueError(
                f"numerator {self.numerator} out of range for degree {self.degree}"
            )
        if self.degree and self.numerator % self.p == 0:
            raise ValueError(f"not canonical: {self.p} divides the numerator")

    @classmethod
    def zero(cls, p: int) -> "PadicFrac":
        return cls(p, 0, 0)

    @classmethod
    def from_fraction(cls, q: "Fraction | RatMod1", p: int) -> "PadicFrac":
        if not isinstance(q, RatMod1):
            q = RatMod1.of(q)
        if not q:
            return cls.zero(p)
        k = valuation(q.denominator, p)
        if q.denominator != p**k:
            raise ValueError(
                f"{q.numerator}/{q.denominator} has a denominator not a power of {p}"
            )
        return cls(p, q.numerator, k)

    @property
    def as_fraction(self) -> Fraction:
        return Fraction(self.numerator, self.p**self.degree)

    @property
    def as_ratmod1(self) -> RatMod1:
        # p not dividing the numerator makes numerator / p^degree reduced
        return RatMod1(self.numerator, self.p**self.degree)

    def __add__(self, other: "PadicFrac") -> "PadicFrac":
        if self.p != other.p:
            raise ValueError("prime mismatch")
        return PadicFrac.from_fraction(self.as_ratmod1 + other.as_ratmod1, self.p)

    def __neg__(self) -> "PadicFrac":
        return PadicFrac.from_fraction(-self.as_ratmod1, self.p)

    def __repr__(self) -> str:
        if not self.degree:
            return f"PadicFrac(p={self.p}, 0)"
        return f"PadicFrac(p={self.p}, {self.numerator}/{self.p}^{self.degree})"


def lift_tilde_xi(beta: int, k: int, p: int) -> PadicFrac:
    """The lift xi~_k: Z(p^k) -> Q_p/Z_p, beta |-> p^-k beta (canonical)."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if not (0 <= beta < p**k or (k == 0 and beta == 0)):
        raise ValueError(f"beta={beta} out of range for Z({p}^{k})")
    return PadicFrac.from_fraction(RatMod1.of(beta, p**k), p)


def frac_mul(a: PadicInt, b: PadicFrac) -> PadicFrac:
    """The coset product a*b in Q_p/Z_p; needs a known mod p^deg(b)."""
    if a.p != b.p:
        raise ValueError("prime mismatch")
    k = b.degree
    if k == 0:
        return b
    if a.precision < k:
        raise PrecisionError(
            f"need {k} digits of a to multiply by a degree-{k} coset, "
            f"have {a.precision}"
        )
    return PadicFrac.from_fraction(b.as_ratmod1.scaled(project_xi(a, k)), a.p)


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
        for p, a in self.overrides.items():
            if a.p != p:
                raise ValueError(f"override at {p} has prime {a.p}")

    def component(self, p: int, precision: int) -> PadicInt:
        a = self.overrides.get(p)
        if a is None:
            return PadicInt.from_int(self.tail, p, precision)
        if a.precision < precision:
            raise PrecisionError(
                f"component at p={p} has precision {a.precision} < {precision}"
            )
        return PadicInt.from_int(a.residue, p, precision)

    def residue(self, n: int) -> int:
        """The projection pi_n: Zhat -> Z(n) (per-prime truncations + CRT)."""
        comps = []
        for p, e in factorize(n).items():
            comps.append(project_xi(self.component(p, e), e))
        return crt_join_mu(n, tuple(comps))

    def is_even(self) -> bool:
        """True iff ord of the 2-adic component is >= 1."""
        return self.component(2, 1).residue == 0

    def _merge(self, other: "ProfiniteInt", op) -> "ProfiniteInt":
        primes = set(self.overrides) | set(other.overrides)
        out: dict[int, PadicInt] = {}
        for p in primes:
            n = min(
                self.overrides[p].precision if p in self.overrides else math.inf,
                other.overrides[p].precision if p in other.overrides else math.inf,
            )
            n = int(n)
            out[p] = op(self.component(p, n), other.component(p, n))
        return ProfiniteInt(out, op(self.tail, other.tail))

    def __add__(self, other: "ProfiniteInt") -> "ProfiniteInt":
        return self._merge(other, lambda x, y: x + y)

    def __sub__(self, other: "ProfiniteInt") -> "ProfiniteInt":
        return self._merge(other, lambda x, y: x - y)

    def __mul__(self, other: "ProfiniteInt") -> "ProfiniteInt":
        return self._merge(other, lambda x, y: x * y)

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


@lru_cache(maxsize=65536)
def crt_idempotents(n: int) -> tuple[CrtFactor, ...]:
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


def _check_index(n: int, x, name: str) -> None:
    """Raise unless x, an int or an integer ndarray, lies in [0, n)."""
    if isinstance(x, np.ndarray):
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
    if isinstance(comps[0], np.ndarray):
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
    if isinstance(comps[0], np.ndarray):
        _check_array_modulus(n)
    return sum(c * f.u for c, f in zip(comps, factors)) % n


# ---------------------------------------------------------------------------
# Characters
# ---------------------------------------------------------------------------


def char_omega(n: int, alpha: int) -> RatMod1:
    """The exponent alpha / n of omega_n(alpha) = exp(2 pi i alpha / n)."""
    return RatMod1.of(alpha, n)


def char_chi_p(a: PadicInt, b: PadicFrac) -> RatMod1:
    """The exponent a b of chi_p(a*b) for a in Z_p, b in Q_p/Z_p."""
    return frac_mul(a, b).as_ratmod1


def char_chi_global(a: ProfiniteInt, b: Mapping[int, PadicFrac]) -> RatMod1:
    """The exponent sum_p a_p b_p of chi(a*b) = prod_p chi_p(a_p b_p), b given
    on its finite support."""
    q = ZERO_MOD1
    for p, bp in b.items():
        if bp.degree == 0:
            continue
        q = q + char_chi_p(a.component(p, bp.degree), bp)
    return q


# ---------------------------------------------------------------------------
# Q/Z <-> per-prime components
# ---------------------------------------------------------------------------


def rat_decompose(q: RatMod1) -> dict[int, PadicFrac]:
    """Split q in Q/Z into p-power components, q = sum_p a_p mod 1.

    The component at p is supported exactly when p divides the denominator.
    """
    if q.numerator == 0:
        return {}
    n = q.denominator
    out: dict[int, PadicFrac] = {}
    for f, kp in zip(crt_idempotents(n), crt_split_nu_hat(n, q.numerator)):
        if kp:
            out[f.p] = PadicFrac.from_fraction(RatMod1.of(kp, f.q), f.p)
    return out


def rat_recombine(parts: Mapping[int, PadicFrac]) -> RatMod1:
    return sum((frac.as_ratmod1 for frac in parts.values()), ZERO_MOD1)
