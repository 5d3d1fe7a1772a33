"""Supernatural numbers, divisor posets and the divisor (Alexandrov) topology.

A supernatural number is a formal product prod p^{e_p} with exponents in
Z>=0 union {inf}.  We restrict to finitely-described elements: a tail
exponent, 0 or inf, carried by all but finitely many primes, and the
exponents of those finitely many.  That covers every element named in the
theory (N, p^inf, Omega(Pi_1) for finite or cofinite Pi_1, Omega) while
staying decidable.  Each element has exactly one description, listing just
the primes whose exponent differs from the tail, so two elements are equal
iff each divides the other.

1 is excluded throughout: with divisibility as the order, {2, 3, 4, ...} is
a directed partial order but not a lattice, and the divisor poset of n has
sigma_0(n) - 1 elements.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping

from .numbers import factorize, is_prime

INF = math.inf


@dataclass(frozen=True)
class Supernatural:
    """prod p^{e_p}, in its one canonical form.

    ``exponents`` lists (p, e_p) by increasing prime for exactly the primes
    whose exponent differs from the tail's: every other prime carries 0, or
    inf when ``tail_infinite``.  So e_p is an int >= 1 or INF under a zero
    tail, and an int >= 0 under an infinite one.
    """

    exponents: tuple[tuple[int, "int | float"], ...] = ()
    tail_infinite: bool = False

    def __post_init__(self) -> None:
        primes = [p for p, _ in self.exponents]
        if primes != sorted(set(primes)):
            raise ValueError("exponents must be sorted by distinct primes")
        tail = INF if self.tail_infinite else 0
        for p, e in self.exponents:
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
            if e != INF and not (isinstance(e, int) and e >= 0):
                raise ValueError(f"exponent {e!r} of {p} is neither an int >= 0 nor INF")
            if e == tail:
                raise ValueError(f"exponent {e!r} of {p} equals the tail's, so is not listed")
        if not self.exponents and not self.tail_infinite:
            raise ValueError("1 is excluded from the supernatural numbers")

    @classmethod
    def from_int(cls, n: int) -> "Supernatural":
        if n < 2:
            raise ValueError("n must be >= 2")
        return cls(tuple(factorize(n).items()))

    @classmethod
    def of(
        cls,
        finite: dict[int, int] | None = None,
        inf_primes: Iterable[int] = (),
        tail_infinite: bool = False,
    ) -> "Supernatural":
        """The canonical form of prod_{finite} p^e * prod_{inf_primes} p^inf
        times the tail: exponents equal to the tail's are dropped."""
        exps = dict(finite or {})
        inf_primes = set(inf_primes)
        if inf_primes & exps.keys():
            raise ValueError("finite and inf_primes must be disjoint")
        exps.update(dict.fromkeys(inf_primes, INF))
        tail = INF if tail_infinite else 0
        return cls(tuple(sorted((p, e) for p, e in exps.items() if e != tail)), tail_infinite)

    @classmethod
    def prime_power(cls, p: int, e: "int | float") -> "Supernatural":
        return cls(((p, e if e == INF else int(e)),))

    @classmethod
    def omega(cls) -> "Supernatural":
        """The maximum element: every exponent is infinite."""
        return cls((), True)

    def exponent(self, p: int) -> "int | float":
        return dict(self.exponents).get(p, INF if self.tail_infinite else 0)

    def __repr__(self) -> str:
        parts = [f"{p}^{e}" for p, e in self.exponents if e != INF]
        parts += [f"{p}^inf" for p, e in self.exponents if e == INF]
        if self.tail_infinite:
            parts.append("(all remaining)^inf")
        return "Supernatural(" + " * ".join(parts) + ")"


OMEGA = Supernatural.omega()


def sn_divides(m: Supernatural, n: Supernatural) -> bool:
    """m | n iff e_p(m) <= e_p(n) for every prime (inf dominates).

    Off the listed primes of both, each side carries its tail."""
    if m.tail_infinite and not n.tail_infinite:
        return False
    return all(m.exponent(p) <= n.exponent(p) for p, _ in m.exponents + n.exponents)


@dataclass(frozen=True)
class PrimePowerChain:
    """The symbolic chain p, p^2, p^3, ... whose supremum is p^inf."""

    p: int


@dataclass(frozen=True)
class OmegaChain:
    """The symbolic chain q1^inf, (q1 q2)^inf, ... exhausting ``primes``.

    ``primes`` is None for all primes (supremum Omega), else an explicit
    finite collection.
    """

    primes: frozenset[int] | None = None


def sn_sup(
    chain: "Iterable[Supernatural] | PrimePowerChain | OmegaChain",
) -> Supernatural:
    """Supremum of a finite set (the pointwise max of the exponents) or of a
    symbolically-described chain."""
    if isinstance(chain, PrimePowerChain):
        return Supernatural.prime_power(chain.p, INF)
    if isinstance(chain, OmegaChain):
        if chain.primes is None:
            return OMEGA
        return Supernatural.of(inf_primes=chain.primes)
    items = list(chain)
    if not items:
        raise ValueError("empty set has no supremum here (1 is excluded)")
    tail_inf = any(x.tail_infinite for x in items)
    tail = INF if tail_inf else 0
    primes = sorted({p for x in items for p, _ in x.exponents})
    exps = [(p, max(x.exponent(p) for x in items)) for p in primes]
    return Supernatural(tuple((p, e) for p, e in exps if e != tail), tail_inf)


# ---------------------------------------------------------------------------
# Finite posets under divisibility
# ---------------------------------------------------------------------------


def _int_divides(a, b) -> bool:
    return b % a == 0


@dataclass(frozen=True)
class FinitePoset:
    """A finite set ordered by divisibility.

    Elements are nonzero integers (ordinary divisibility) or Supernatural
    values (supernatural divisibility), never both; their type picks the
    order, and ``leq(a, b)`` is a plain function of the two elements.
    """

    elements: tuple
    leq: Callable = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(set(self.elements)) != len(self.elements):
            raise ValueError("duplicate elements")
        types = set(map(type, self.elements))
        sn = Supernatural in types
        if sn and len(types) > 1:
            raise ValueError("elements mix integers and Supernatural values")
        if not sn and 0 in self.elements:
            raise ValueError("0 is not in a divisor poset (it divides only itself)")
        object.__setattr__(self, "leq", sn_divides if sn else _int_divides)

    def __len__(self) -> int:
        return len(self.elements)


# the most elements of N(n) a width, length, partition, antichain or topology
# query takes: N(n) has prod (e_p + 1) - 1 elements, exponential in the number
# of primes of n, and each of these queries lists them all (the closed form
# once, in its chains; the matching and the T0/T1 checks in pairs)
SIZE_BOUND = 10**4


def _divisor_exponents(n: int, bound: int | None = None) -> Mapping[int, int]:
    """factorize(n), refusing an N(n) of more than ``bound`` elements before
    any divisor is listed (N(n) has prod (e_p + 1) - 1 elements)."""
    if n < 2:
        raise ValueError("n must be >= 2")
    fac = factorize(n)
    size = math.prod(e + 1 for e in fac.values()) - 1
    if bound is not None and size > bound:
        raise ValueError(f"poset size {size} exceeds bound {bound}")
    return fac


def divisor_poset(n: int, bound: int | None = None) -> FinitePoset:
    """N(n): all divisors of n except 1, ordered by divisibility.

    With ``bound``, an N(n) of more elements is a ValueError.
    """
    divs = [1]
    for p, e in _divisor_exponents(n, bound).items():
        divs = [d * p**i for d in divs for i in range(e + 1)]
    return FinitePoset(tuple(sorted(divs)[1:]))


@dataclass(frozen=True)
class WidthLengthResult:
    width: int
    length: int
    chain_partition: tuple[tuple, ...]
    max_antichain: tuple


def poset_width_length(poset: FinitePoset, bound: int = SIZE_BOUND) -> WidthLengthResult:
    """Exact width, length, a minimum chain partition and a witness antichain.

    Width via Dilworth through Koenig: a maximum matching in the bipartite
    strict-order graph gives a minimum chain cover of size |P| - |M|, and the
    vertex-cover construction recovers a maximum antichain of the same size.
    """
    els = list(poset.elements)
    n = len(els)
    if n > bound:
        raise ValueError(f"poset size {n} exceeds bound {bound}")
    idx = {x: i for i, x in enumerate(els)}
    succ = [
        [j for j, y in enumerate(els) if i != j and poset.leq(x, y)]
        for i, x in enumerate(els)
    ]

    match_right = [-1] * n  # right vertex -> left vertex
    match_left = [-1] * n

    def augment(root: int, seen: list[bool]) -> bool:
        # Kuhn's depth-first search on an explicit stack: each frame resumes
        # its successor scan, and via[k] is the right vertex frame k takes
        frames, via = [(root, iter(succ[root]))], []
        while frames:
            for v in frames[-1][1]:
                if not seen[v]:
                    break
            else:
                frames.pop()
                if via:
                    via.pop()
                continue
            seen[v] = True
            via.append(v)
            if match_right[v] == -1:
                for (u, _), w in zip(frames, via):
                    match_right[w] = u
                    match_left[u] = w
                return True
            frames.append((match_right[v], iter(succ[match_right[v]])))
        return False

    matched = 0
    for u in range(n):
        if augment(u, [False] * n):
            matched += 1
    width = n - matched

    # chains: follow matched successors from unmatched-on-the-right starts
    starts = [i for i in range(n) if match_right[i] == -1]
    chains = []
    for s in starts:
        chain = [s]
        while match_left[chain[-1]] != -1:
            chain.append(match_left[chain[-1]])
        chains.append(tuple(els[i] for i in chain))

    # Koenig: alternate from unmatched left vertices; the antichain is the
    # set of elements outside the minimum vertex cover on both sides
    z_left = [match_left[u] == -1 for u in range(n)]
    z_right = [False] * n
    frontier = [u for u in range(n) if z_left[u]]
    while frontier:
        nxt = []
        for u in frontier:
            for v in succ[u]:
                if v != match_left[u] and not z_right[v]:
                    z_right[v] = True
                    w = match_right[v]
                    if w != -1 and not z_left[w]:
                        z_left[w] = True
                        nxt.append(w)
        frontier = nxt
    antichain = tuple(
        els[i] for i in range(n) if z_left[i] and not z_right[i]
    )

    # length: longest chain by dynamic programming over the strict order,
    # visited by the number of strict predecessors (a linear extension)
    below = Counter(j for targets in succ for j in targets)
    order = sorted(range(n), key=lambda i: below[i])
    longest = [1] * n
    for i in order:
        for j in succ[i]:
            longest[j] = max(longest[j], longest[i] + 1)
    length = max(longest, default=0)

    assert len(antichain) == width
    assert sum(len(c) for c in chains) == n
    return WidthLengthResult(width, length, tuple(chains), antichain)


def is_chain_partition(poset: FinitePoset, chains: Iterable[tuple]) -> bool:
    """True iff the nonempty ``chains`` cover the elements exactly once and
    each one rises strictly at every step."""
    chains = list(chains)
    flat = [x for c in chains for x in c]
    return (
        all(chains)
        and len(flat) == len(poset)
        and set(flat) == set(poset.elements)
        and all(a != b and poset.leq(a, b) for c in chains for a, b in zip(c, c[1:]))
    )


def divisor_width_length(n: int) -> WidthLengthResult:
    """``poset_width_length(divisor_poset(n))`` from the factorization of n.

    With 1 put back, the divisors of n = prod p^e are the product of the
    chains 1 | p | ... | p^e, ranked by Omega, with rank sizes the
    coefficients of prod (1 + x + ... + x^e).  Such a product has a symmetric
    chain decomposition (de Bruijn, Tengbergen and Kruyswijk, Nieuw Arch.
    Wisk. 23 (1951) 191), so the width is the number of chains (the largest
    rank size), the length is Omega(n) and every rank of largest size is a
    maximum antichain.  A chain whose least element has rank r ends at rank
    Omega(n) - r, so the ranks every chain meets are the largest ones, and the
    highest of them, Omega(n) - max r >= 1, is the antichain returned.  The
    chains, 1 dropped, are a minimum chain partition into saturated chains,
    sorted by least element.  No order graph is built.  An N(n) of more than
    SIZE_BOUND elements is a ValueError.
    """
    fac = _divisor_exponents(n, SIZE_BOUND)
    # a chain is (rank of its least element, elements).  Times the chain
    # 1 | p | ... | p^e, the chain c_0 < ... < c_k splits into min(k, e) + 1
    # hooks: hook j is c_0 p^j, ..., c_{k-j} p^j, c_{k-j} p^{j+1}, ..., c_{k-j} p^e
    chains = [(0, [1])]
    for p, e in fac.items():
        chains = [
            (r + j, [x * p**j for x in c[: len(c) - j]]
             + [c[-1 - j] * p**t for t in range(j + 1, e + 1)])
            for r, c in chains
            for j in range(min(len(c) - 1, e) + 1)
        ]
    length = sum(fac.values())
    top = length - max(r for r, _ in chains)
    antichain = tuple(sorted(c[top - r] for r, c in chains))
    chains[0][1].pop(0)  # 1 is the bottom of the first, longest chain
    return WidthLengthResult(
        len(chains), length, tuple(sorted(tuple(c) for _, c in chains)), antichain
    )


# ---------------------------------------------------------------------------
# The divisor topology (Alexandrov): opens are down-sets
# ---------------------------------------------------------------------------


def basis_open(poset: FinitePoset, x) -> frozenset:
    """U(x): the basis open set of all elements dividing x."""
    return frozenset(m for m in poset.elements if poset.leq(m, x))


def is_open(poset: FinitePoset, s: Iterable) -> bool:
    s = frozenset(s)
    return all(
        m in s
        for x in s
        for m in poset.elements
        if poset.leq(m, x)
    )


def check_t0(poset: FinitePoset) -> bool:
    """True iff every pair of distinct points has a separating down-set.

    Only a pair that divides both ways has none, so T0 is antisymmetry, one
    pass over the elements: integers divide both ways iff they share |x|, and
    a canonical Supernatural divides back only itself.  ``_check_t0_pairwise``
    is the oracle.
    """
    els = poset.elements
    keys = els if poset.leq is sn_divides else map(abs, els)
    return len(set(keys)) == len(els)


def _check_t0_pairwise(poset: FinitePoset) -> bool:
    """``check_t0`` by scanning every pair for a separating basis open set."""
    els = poset.elements
    for i, x in enumerate(els):
        for y in els[i + 1 :]:
            # U(x) separates unless each point is in the other's down-set
            if poset.leq(x, y) and poset.leq(y, x):
                return False
    return True


def check_t1(poset: FinitePoset) -> "tuple[bool, tuple | None]":
    """T1 fails whenever a strict divisibility pair exists.

    Returns (is_T1, witness): the witness pair (m, x) has m strictly below
    x, so every open set containing x also contains m.  A poset with no
    strict pair (an antichain, in particular a singleton) is vacuously T1.
    """
    els = poset.elements
    for x in els:
        for m in els:
            if m != x and poset.leq(m, x):
                return False, (m, x)
    return True, None
