"""The profinite Heisenberg-Weyl groups over Z_p and Zhat.

These are inverse limits of the finite groups HW[Z(n), Z(n), Z(n)] under
componentwise reduction.  Unlike the displacement groups acting on
wavefunctions, the two one-parameter subgroups here are isomorphic to the
same profinite group and are not Pontryagin dual to each other, so no
Hilbert-space action is provided; the group is exact arithmetic only.
"""

from __future__ import annotations

from dataclasses import dataclass

from .numbers import PadicInt, ProfiniteInt, crt_idempotents, project_xi


def _check_fields(g, cls: type) -> None:
    """Raise a ValueError naming the first of g.a, g.b, g.c that is not a cls."""
    for name, v in zip("abc", (g.a, g.b, g.c)):
        if not isinstance(v, cls):
            raise ValueError(f"{name} must be a {cls.__name__}, got {v!r}")


@dataclass(frozen=True, slots=True)
class ProfiniteHWElement:
    """A triple (a, b, c) of truncated p-adic integers at a shared precision."""

    a: PadicInt
    b: PadicInt
    c: PadicInt

    def __post_init__(self) -> None:
        if not type(self.a) is type(self.b) is type(self.c) is PadicInt:
            _check_fields(self, PadicInt)
        if not (self.a.p == self.b.p == self.c.p):
            raise ValueError("components must share a prime")
        if not (self.a.precision == self.b.precision == self.c.precision):
            raise ValueError("components must share a precision")

    @classmethod
    def _of(cls, a: PadicInt, b: PadicInt, c: PadicInt) -> "ProfiniteHWElement":
        """The element of three valid ``PadicInt``s that share a prime and a
        precision: built without ``__post_init__``."""
        g = object.__new__(cls)
        _SET_A(g, a)
        _SET_B(g, b)
        _SET_C(g, c)
        return g

    @property
    def p(self) -> int:
        return self.a.p

    @property
    def precision(self) -> int:
        return self.a.precision

    @classmethod
    def from_ints(cls, a: int, b: int, c: int, p: int, precision: int) -> "ProfiniteHWElement":
        return cls(*(PadicInt.from_int(v, p, precision) for v in (a, b, c)))


# the slots' own setters, for ``ProfiniteHWElement._of``
_SET_A = ProfiniteHWElement.__dict__["a"].__set__
_SET_B = ProfiniteHWElement.__dict__["b"].__set__
_SET_C = ProfiniteHWElement.__dict__["c"].__set__


def _group_law(g: tuple, h: tuple) -> tuple:
    """(a,b,c)(a',b',c') = (a+a', b+b', c+c'+ab'-a'b) over any commutative ring."""
    (a1, b1, c1), (a2, b2, c2) = g, h
    return a1 + a2, b1 + b2, c1 + c2 + a1 * b2 - a2 * b1


def phw_identity(p: int, precision: int) -> ProfiniteHWElement:
    return ProfiniteHWElement.from_ints(0, 0, 0, p, precision)


def _residues(g: ProfiniteHWElement) -> tuple[int, int, int]:
    return g.a.residue, g.b.residue, g.c.residue


def _reduced(t: tuple, p: int, precision: int) -> ProfiniteHWElement:
    """The integer triple t mod p^precision, for a p and precision taken from
    valid elements: each component is reduced once, unchecked."""
    a, b, c = t
    return ProfiniteHWElement._of(
        PadicInt._of(a, p, precision), PadicInt._of(b, p, precision), PadicInt._of(c, p, precision)
    )


def _shared(g: ProfiniteHWElement, h: ProfiniteHWElement) -> tuple[int, int]:
    """(p, min precision) of two elements of one group."""
    if g.p != h.p:
        raise ValueError("prime mismatch")
    return g.p, min(g.precision, h.precision)


def phw_mul(g: ProfiniteHWElement, h: ProfiniteHWElement) -> ProfiniteHWElement:
    """The group law in truncated Z_p, on the residues as integers."""
    return _reduced(_group_law(_residues(g), _residues(h)), *_shared(g, h))


def phw_inv(g: ProfiniteHWElement) -> ProfiniteHWElement:
    return ProfiniteHWElement(-g.a, -g.b, -g.c)


def phw_commutator(g: ProfiniteHWElement, h: ProfiniteHWElement) -> ProfiniteHWElement:
    """g h (h g)^-1, composed in Z and reduced once."""
    x, y = _residues(g), _residues(h)
    hg_inv = tuple(-v for v in _group_law(y, x))
    return _reduced(_group_law(_group_law(x, y), hg_inv), *_shared(g, h))


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

    def __post_init__(self) -> None:
        if not type(self.a) is type(self.b) is type(self.c) is ProfiniteInt:
            _check_fields(self, ProfiniteInt)

    @classmethod
    def from_tail(cls, a: int, b: int, c: int) -> "GlobalProfiniteHW":
        return cls(ProfiniteInt(tail=a), ProfiniteInt(tail=b), ProfiniteInt(tail=c))

    def component(self, p: int, precision: int) -> ProfiniteHWElement:
        return ProfiniteHWElement(*(x.component(p, precision) for x in (self.a, self.b, self.c)))


def phw_global_mul(g: GlobalProfiniteHW, h: GlobalProfiniteHW) -> GlobalProfiniteHW:
    """Componentwise product over all primes (direct, not restricted)."""
    return GlobalProfiniteHW(*_group_law((g.a, g.b, g.c), (h.a, h.b, h.c)))


def phw_global_inv(g: GlobalProfiniteHW) -> GlobalProfiniteHW:
    return GlobalProfiniteHW(-g.a, -g.b, -g.c)


def phw_global_project(g: GlobalProfiniteHW, n: int) -> tuple[int, int, int]:
    """The projection to Z(n)^3 through the per-prime truncations and CRT."""
    return (g.a.residue(n), g.b.residue(n), g.c.residue(n))


def phw_global_project_factors(g: GlobalProfiniteHW, n: int) -> dict[int, tuple[int, int, int]]:
    """Per-prime-power projections; CRT-joining them recovers the Z(n) triple."""
    return {
        f.p: tuple(x._residue(f.p, f.e) for x in (g.a, g.b, g.c)) for f in crt_idempotents(n)
    }
