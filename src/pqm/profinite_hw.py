"""The profinite Heisenberg-Weyl groups over Z_p and Zhat.

These are inverse limits of the finite groups HW[Z(n), Z(n), Z(n)] under
componentwise reduction.  Unlike the displacement groups acting on
wavefunctions, the two one-parameter subgroups here are isomorphic to the
same profinite group and are not Pontryagin dual to each other, so no
Hilbert-space action is provided; the group is exact arithmetic only.
"""

from __future__ import annotations

from dataclasses import dataclass

from .numbers import PadicInt, ProfiniteInt, factorize, project_xi


@dataclass(frozen=True)
class ProfiniteHWElement:
    """A triple (a, b, c) of truncated p-adic integers at a shared precision."""

    a: PadicInt
    b: PadicInt
    c: PadicInt

    def __post_init__(self) -> None:
        if not (self.a.p == self.b.p == self.c.p):
            raise ValueError("components must share a prime")
        if not (self.a.precision == self.b.precision == self.c.precision):
            raise ValueError("components must share a precision")

    @property
    def p(self) -> int:
        return self.a.p

    @property
    def precision(self) -> int:
        return self.a.precision

    @classmethod
    def from_ints(cls, a: int, b: int, c: int, p: int, precision: int) -> "ProfiniteHWElement":
        return cls(
            PadicInt.from_int(a, p, precision),
            PadicInt.from_int(b, p, precision),
            PadicInt.from_int(c, p, precision),
        )


def _group_law(g: tuple, h: tuple) -> tuple:
    """(a,b,c)(a',b',c') = (a+a', b+b', c+c'+ab'-a'b) over any commutative ring."""
    (a1, b1, c1), (a2, b2, c2) = g, h
    return a1 + a2, b1 + b2, c1 + c2 + a1 * b2 - a2 * b1


def phw_identity(p: int, precision: int) -> ProfiniteHWElement:
    return ProfiniteHWElement.from_ints(0, 0, 0, p, precision)


def phw_mul(g: ProfiniteHWElement, h: ProfiniteHWElement) -> ProfiniteHWElement:
    """The group law in truncated Z_p."""
    if g.p != h.p:
        raise ValueError("prime mismatch")
    return ProfiniteHWElement(*_group_law((g.a, g.b, g.c), (h.a, h.b, h.c)))


def phw_inv(g: ProfiniteHWElement) -> ProfiniteHWElement:
    return ProfiniteHWElement(-g.a, -g.b, -g.c)


def phw_commutator(g: ProfiniteHWElement, h: ProfiniteHWElement) -> ProfiniteHWElement:
    return phw_mul(phw_mul(g, h), phw_inv(phw_mul(h, g)))


def phw_project(g: ProfiniteHWElement, k: int) -> tuple[int, int, int]:
    """The level-k reduction: componentwise truncation mod p^k."""
    return (project_xi(g.a, k), project_xi(g.b, k), project_xi(g.c, k))


def hw_triple_mul(n: int, t1: tuple[int, int, int], t2: tuple[int, int, int]) -> tuple[int, int, int]:
    """The finite group law on Z(n)^3 (the projection target)."""
    return tuple(v % n for v in _group_law(t1, t2))


@dataclass(frozen=True, eq=False)
class GlobalProfiniteHW:
    """An element of HW(Zhat, Zhat, Zhat): profinite-integer triple."""

    a: ProfiniteInt
    b: ProfiniteInt
    c: ProfiniteInt

    @classmethod
    def from_tail(cls, a: int, b: int, c: int) -> "GlobalProfiniteHW":
        return cls(ProfiniteInt(tail=a), ProfiniteInt(tail=b), ProfiniteInt(tail=c))

    def component(self, p: int, precision: int) -> ProfiniteHWElement:
        return ProfiniteHWElement(
            self.a.component(p, precision),
            self.b.component(p, precision),
            self.c.component(p, precision),
        )


def phw_global_mul(g: GlobalProfiniteHW, h: GlobalProfiniteHW) -> GlobalProfiniteHW:
    """Componentwise product over all primes (direct, not restricted)."""
    return GlobalProfiniteHW(*_group_law((g.a, g.b, g.c), (h.a, h.b, h.c)))


def phw_global_inv(g: GlobalProfiniteHW) -> GlobalProfiniteHW:
    return GlobalProfiniteHW(-g.a, -g.b, -g.c)


def phw_global_project(g: GlobalProfiniteHW, n: int) -> tuple[int, int, int]:
    """The projection to Z(n)^3 through the per-prime truncations and CRT."""
    return (g.a.residue(n), g.b.residue(n), g.c.residue(n))


def phw_global_project_factors(
    g: GlobalProfiniteHW, n: int
) -> dict[int, tuple[int, int, int]]:
    """Per-prime-power projections; CRT-joining them recovers the Z(n) triple."""
    out = {}
    for p, e in factorize(n).items():
        out[p] = phw_project(g.component(p, e), e)
    return out
