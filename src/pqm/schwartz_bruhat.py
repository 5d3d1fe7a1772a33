"""Schwartz-Bruhat functions on Z_p and Q_p/Z_p, and their global products.

A position-side function is locally constant of some degree d and lives on
Z_p, so it is determined by p^d values, one per ball j + p^d Z_p.  A
momentum-side function has compact support of degree d on Q_p/Z_p, so it is
determined by its values at the points m / p^d.  Either kind is a state on
Z(p^d), and the local operations are the finite ones of ``finiteqm``:
refinement to a higher degree (which changes nothing measurable) is the
embedding ``extend``, and the inner product, Fourier transform and
displacements are ``inner``, ``fourier`` and ``displace`` at that degree.

Cosets carry their canonical zero-integer-part representatives, so every
character phase is an exact rational exponent, reduced in integers first.

Global functions are finite sums of factorizable terms, trivial at all but
finitely many primes (the restricted tensor product); the trivial factor is
the constant 1 on the position side and the point mass at 0 on the momentum
side.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

import numpy as np

from .numbers import (
    PrecisionError,
    ProfiniteInt,
    RatMod1,
    ZERO_MOD1,
    is_prime,
    rat_decompose,
    valuation,
)
from .finiteqm import MOMENTUM, POSITION, FiniteState, HWElement, _dilation, _hat_values
from .finiteqm import displace, extend, inner, reflect, tensor_join
from .finiteqm import fourier as _finite_fourier


@dataclass(frozen=True)
class LocalSBFunction:
    """A locally constant (position) or compactly supported (momentum)
    function at a single prime, tabulated at degree ``degree``."""

    p: int
    side: str
    degree: int
    values: tuple[complex, ...]

    def __post_init__(self) -> None:
        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")
        if self.side not in (POSITION, MOMENTUM):
            raise ValueError(f"unknown side {self.side!r}")
        if self.degree < 0:
            raise ValueError("degree must be >= 0")
        if len(self.values) != self.p**self.degree:
            raise ValueError("value count must be p^degree")
        object.__setattr__(self, "values", tuple(complex(v) for v in self.values))

    @classmethod
    def position(cls, p: int, values) -> "LocalSBFunction":
        values = tuple(values)
        return cls(p, POSITION, _degree_of(p, len(values)), values)

    @classmethod
    def momentum(cls, p: int, values) -> "LocalSBFunction":
        values = tuple(values)
        return cls(p, MOMENTUM, _degree_of(p, len(values)), values)

    @classmethod
    def from_state(cls, p: int, st: FiniteState) -> "LocalSBFunction":
        """The function tabulated by a state on Z(p^d); its rep is the side."""
        return cls(p, st.rep, _degree_of(p, st.n), tuple(st.amplitudes))

    def array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=complex)

    def state(self) -> FiniteState:
        """The values as a state on Z(p^degree), with the side as its rep."""
        return FiniteState(len(self.values), self.side, self.array())


def _degree_of(p: int, count: int) -> int:
    d = valuation(count, p) if count else 0
    if p**d != count:
        raise ValueError(f"value count {count} is not a power of {p}")
    return d


def trivial_local(p: int, side: str) -> LocalSBFunction:
    """The restricted-product filler: 1 on Z_p, or the point mass at 0."""
    return LocalSBFunction(p, side, 0, (1.0 + 0j,))


def is_trivial(f: LocalSBFunction) -> bool:
    if f.side == POSITION:
        return all(abs(v - 1.0) == 0.0 for v in f.values)
    return abs(f.values[0] - 1.0) == 0.0 and all(v == 0 for v in f.values[1:])


def refine(f: LocalSBFunction, degree: int) -> LocalSBFunction:
    """Re-express f at a higher degree; all derived quantities are unchanged."""
    if degree < f.degree:
        raise ValueError("refinement cannot lower the degree")
    if degree == f.degree:
        return f
    return LocalSBFunction.from_state(f.p, extend(f.state(), f.p**degree))


def integrate_local(f: LocalSBFunction) -> complex:
    """Haar integral (position, total mass 1) or counting sum (momentum)."""
    total = sum(f.values)
    if f.side == POSITION:
        return total / f.p**f.degree
    return total


def local_inner(f: LocalSBFunction, g: LocalSBFunction) -> complex:
    if f.p != g.p or f.side != g.side:
        raise ValueError("functions must share prime and side")
    d = max(f.degree, g.degree)
    return inner(refine(f, d).state(), refine(g, d).state())


def scale_variable(f: LocalSBFunction, lam: int) -> LocalSBFunction:
    """The function x |-> f(lam x); degrees shift by r = ord_p(lam).

    Position side: the constancy degree drops by r (clamped at 0; the
    argument stays inside Z_p).  Momentum side: the support degree grows by
    r and the counting integral satisfies |lam|_p * integral(f(lam .)) =
    integral(f).
    """
    if lam < 1:
        raise ValueError("lambda must be a positive integer")
    r = valuation(lam, f.p)
    if f.side == POSITION:
        d, mult = max(f.degree - r, 0), lam
    else:
        d, mult = f.degree + r, lam // f.p**r
    idx = _dilation(f.p**f.degree, mult, f.p**d)
    return LocalSBFunction(f.p, f.side, d, tuple(f.array()[idx]))


def local_fourier(f: LocalSBFunction) -> LocalSBFunction:
    """Forward transform with the source measure; sides flip, degree is kept.

    Matches the finite transform on Z(p^d) under the standard
    identifications of ball indices and support points.
    """
    return LocalSBFunction.from_state(f.p, _finite_fourier(f.state()))


def local_fourier_inv(f: LocalSBFunction) -> LocalSBFunction:
    """The inverse transform (kernel with the opposite sign)."""
    return local_fourier(local_reflect(f))


def local_reflect(f: LocalSBFunction) -> LocalSBFunction:
    """x |-> f(-x); this is the square of the Fourier transform."""
    return LocalSBFunction.from_state(f.p, reflect(f.state()))


def delta_family(p: int, precision: int, kind: str) -> LocalSBFunction:
    """Delta functions: the exact momentum point mass, or the position
    approximant p^N * indicator(p^N Z_p) which integrates degree<=N
    functions to their value at 0."""
    if kind == "Delta_exact":
        return trivial_local(p, MOMENTUM)
    if kind == "delta_Zp_approx":
        if precision < 1:
            raise ValueError("precision must be >= 1")
        vals = [0j] * p**precision
        vals[0] = complex(p**precision)
        return LocalSBFunction(p, POSITION, precision, tuple(vals))
    raise ValueError(f"unknown kind {kind!r}")


def character_function(p: int, frak_p: Fraction) -> LocalSBFunction:
    """The position-side function x |-> chi_p(x * frak_p)."""
    frak_p = RatMod1.of(frak_p)
    k = valuation(frak_p.denominator, p)
    if frak_p.denominator != p**k:
        raise ValueError("frak_p must have a p-power denominator")
    q = p**k
    vals = tuple(
        np.exp(2j * np.pi * (frak_p.numerator * j % q / q)) for j in range(q)
    )
    return LocalSBFunction(p, POSITION, k, vals)


def hat_transform_2adic(f: LocalSBFunction) -> tuple[complex, ...]:
    """The 2-adic transform hat(y/2) = sum chi_2(y p / 2) F(p), y mod 2^(d+1).

    At even y it reproduces the position values: hat(y/2) = f(y/2).
    """
    if f.p != 2:
        raise ValueError("the hat transform is specific to p = 2")
    if f.side != MOMENTUM:
        raise ValueError("input must be a momentum-side function")
    return tuple(_hat_values(f.array()))


def local_displace(
    f: LocalSBFunction, a: RatMod1, b: int, c: RatMod1 = ZERO_MOD1
) -> LocalSBFunction:
    """Apply D(a, b, c) to a single-prime function: the displacement of
    Z(p^d) applied to its state at degree d.

    Position action chi(c - a b + 2 a x) f(x - b); momentum action
    chi(c + a b - b p) F(p - 2a).  Degrees grow only as far as the
    denominator of 2a requires.  At degree 0, where 2a is an integer and
    c - a b = c + a b, the action is the scalar e(c - a b).
    """
    for q in (a, c):
        if q.denominator != f.p ** valuation(q.denominator, f.p):
            raise ValueError(f"label {q} is not supported at p={f.p}")
    d = max(f.degree, valuation(a.scaled(2).denominator, f.p))
    if d == 0:
        e = c - a.scaled(b)
        phase = np.exp(2j * np.pi * (e.numerator / e.denominator))
        return LocalSBFunction(f.p, f.side, 0, (phase * f.values[0],))
    el = HWElement.from_phase_space(f.p**d, a, b, c)
    return LocalSBFunction.from_state(f.p, displace(el, refine(f, d).state()))


# ---------------------------------------------------------------------------
# Global functions: the restricted tensor product
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class GlobalSBFunction:
    """A finite sum of factorizable terms, trivial almost everywhere."""

    side: str
    terms: tuple[tuple[complex, Mapping[int, LocalSBFunction]], ...]

    def __post_init__(self) -> None:
        if self.side not in (POSITION, MOMENTUM):
            raise ValueError(f"unknown side {self.side!r}")
        for _, factors in self.terms:
            for p, f in factors.items():
                if f.p != p:
                    raise ValueError("factor key does not match its prime")
                if f.side != self.side:
                    raise ValueError("all factors must share the global side")

    @classmethod
    def product(
        cls, side: str, factors: Mapping[int, LocalSBFunction], coeff: complex = 1.0
    ) -> "GlobalSBFunction":
        return cls(side, ((complex(coeff), dict(factors)),))

    @property
    def support_primes(self) -> frozenset[int]:
        out = set()
        for _, factors in self.terms:
            for p, f in factors.items():
                if not is_trivial(f):
                    out.add(p)
        return frozenset(out)


def global_inner(f: GlobalSBFunction, g: GlobalSBFunction) -> complex:
    """Bilinear over term pairs; per-pair a product of local inner products.

    Trivial primes contribute the exact factor 1.
    """
    if f.side != g.side:
        raise ValueError("side mismatch")
    total = 0j
    for cf, ff in f.terms:
        for cg, gg in g.terms:
            val = cf.conjugate() * cg
            for p in set(ff) | set(gg):
                val *= local_inner(
                    ff.get(p, trivial_local(p, f.side)),
                    gg.get(p, trivial_local(p, g.side)),
                )
            total += val
    return total


def global_fourier(f: GlobalSBFunction) -> GlobalSBFunction:
    """F = tensor of the local transforms (trivial factors map to trivial)."""
    other = MOMENTUM if f.side == POSITION else POSITION
    terms = tuple(
        (c, {p: local_fourier(fp) for p, fp in factors.items()})
        for c, factors in f.terms
    )
    return GlobalSBFunction(other, terms)


def global_reflect(f: GlobalSBFunction) -> GlobalSBFunction:
    terms = tuple(
        (c, {p: local_reflect(fp) for p, fp in factors.items()})
        for c, factors in f.terms
    )
    return GlobalSBFunction(f.side, terms)


def canonicalize_global(f: GlobalSBFunction) -> FiniteState:
    """Collapse to the finite state on Z(l), l the product of max degrees.

    Position indices split by the mu map, momentum indices by the nu-hat
    map; inner products and Fourier transforms commute with this map.  A
    prime whose factors all have degree 0 contributes the scalars
    ``values[0]`` to the coefficients.
    """
    degrees: dict[int, int] = {}
    for _, factors in f.terms:
        for p, fp in factors.items():
            degrees[p] = max(degrees.get(p, 0), fp.degree)
    degrees = {p: d for p, d in degrees.items() if d > 0}
    if not degrees:
        raise ValueError("dimension 1 excluded: no nontrivial prime support")
    ell = 1
    for p, d in degrees.items():
        ell *= p**d
    terms = []
    for c, term_factors in f.terms:
        for p, fp in term_factors.items():
            if p not in degrees:
                c *= fp.values[0]
        parts = {
            p: refine(term_factors.get(p, trivial_local(p, f.side)), d).state()
            for p, d in degrees.items()
        }
        terms.append((c, parts))
    return tensor_join(terms, ell, f.side)


def _component_residue(b, p: int, precision: int) -> int:
    if isinstance(b, ProfiniteInt):
        try:
            comp = b.component(p, max(precision, 1))
        except PrecisionError as exc:
            raise PrecisionError(
                f"insufficient precision in b at p={p} for the displacement support"
            ) from exc
        return comp.residue
    return int(b)


def global_displace(
    f: GlobalSBFunction,
    a: RatMod1,
    b: "int | ProfiniteInt",
    c: RatMod1 = ZERO_MOD1,
) -> GlobalSBFunction:
    """Apply the global displacement D(a, b, c) componentwise.

    Primes in the support of a or c become nontrivial factors; the result
    stays a restricted product.  D(a+1, b, c) = D(a, b, c) holds exactly
    because the labels live in Q/Z.
    """
    a_parts = {p: fr.as_ratmod1 for p, fr in rat_decompose(a).items()}
    c_parts = {p: fr.as_ratmod1 for p, fr in rat_decompose(c).items()}
    out_terms = []
    for coeff, factors in f.terms:
        new_factors = dict(factors)
        for p in set(factors) | set(a_parts) | set(c_parts):
            ap = a_parts.get(p, ZERO_MOD1)
            cp = c_parts.get(p, ZERO_MOD1)
            fp = factors.get(p, trivial_local(p, f.side))
            need = max(
                fp.degree,
                valuation(ap.denominator, p),
                valuation(cp.denominator, p),
            )
            bp = _component_residue(b, p, need + 1)
            new_factors[p] = local_displace(fp, ap, bp, cp)
        out_terms.append((coeff, new_factors))
    return GlobalSBFunction(f.side, tuple(out_terms))


def global_parity(
    f: GlobalSBFunction, a: RatMod1, b: "int | ProfiniteInt"
) -> GlobalSBFunction:
    """P(a, b) = F^2 D(2a, 2b, 0) applied componentwise."""
    two_a = a.scaled(2)
    two_b = b + b if isinstance(b, ProfiniteInt) else 2 * b
    return global_reflect(global_displace(f, two_a, two_b))
