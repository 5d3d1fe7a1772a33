"""Embeddings of smaller systems into larger ones, and ubiquitous quantities.

Phase-space points embed with the asymmetric index maps (the position
coordinate is kept, the momentum coordinate is scaled by l/k), which is what
keeps character values exactly invariant.  For state embeddings, position
functions extend periodically and momentum functions zero-pad onto the
rescaled grid, so every embedding is an isometry.

Displacement operators intertwine with the embeddings through their
continuum labels: the a and c labels are invariant as elements of Q/Z and
the integer shift is invariant, which fixes the index map
alpha' = (l/k) alpha (times 2 when an odd k embeds into an even l),
beta' = beta, gamma' = (l/k) gamma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numbers import (
    PadicInt,
    ZERO_MOD1,
    char_chi_p,
    char_omega,
    crt_idempotents,
    crt_join_mu,
    factorize,
    lift_tilde_xi,
)
from .finiteqm import (
    MOMENTUM,
    POSITION,
    FiniteState,
    HWElement,
    PhasePoint,
    displace,
    extend,
    fourier,
    inner,
    norm,
    parity_displacement,
    reflect,
    tensor_factor,
    to_position,
    weyl_wigner,
)
from .poset import Supernatural, sn_divides
from .schwartz_bruhat import GlobalSBFunction, LocalSBFunction


@dataclass(frozen=True)
class EmbeddingSpec:
    """Labels (k, l) with k | l; the target may be supernatural."""

    source: int
    target: "int | Supernatural"

    def __post_init__(self) -> None:
        if self.source < 2:
            raise ValueError("source label must be >= 2")
        if isinstance(self.target, Supernatural):
            if not sn_divides(Supernatural.from_int(self.source), self.target):
                raise ValueError(
                    f"{self.source} does not divide the supernatural target"
                )
        else:
            if self.target < self.source:
                raise ValueError(
                    f"target label {self.target} is smaller than the source {self.source}"
                )
            if self.target % self.source != 0:
                raise ValueError(f"{self.source} does not divide {self.target}")

    @property
    def finite_target(self) -> bool:
        return not isinstance(self.target, Supernatural)

    @property
    def ratio(self) -> int:
        if not self.finite_target:
            raise ValueError("ratio undefined for a supernatural target")
        return self.target // self.source


# ---------------------------------------------------------------------------
# Phase-space points
# ---------------------------------------------------------------------------


def phase_embed(point: tuple[int, int], spec: EmbeddingSpec):
    """Embed a prime-power phase-space point (position, momentum coordinate).

    Finite target: (alpha, beta) -> (alpha, p^(l-k) beta).  Profinite
    target: (alpha, beta) -> (a_p, b_p) in Z_p x Q_p/Z_p.  Characters are
    preserved exactly either way.
    """
    alpha, beta = point
    k_fact = factorize(spec.source)
    if len(k_fact) != 1:
        raise ValueError("phase_embed expects prime-power labels")
    (p, k), = k_fact.items()
    if not (0 <= alpha < spec.source and 0 <= beta < spec.source):
        raise ValueError("point out of range")
    if spec.finite_target:
        l_fact = factorize(spec.target)
        if set(l_fact) != {p}:
            raise ValueError("phase_embed expects a power of the same prime")
        ell = l_fact[p]
        return alpha, p ** (ell - k) * beta
    # supernatural target: the p-exponent must be infinite
    if spec.target.exponent(p) != math.inf:
        raise ValueError("profinite phase embedding needs an infinite target")
    return PadicInt.from_int(alpha, p, k), lift_tilde_xi(beta, k, p)


def phase_embed_character(point: tuple[int, int], spec: EmbeddingSpec) -> bool:
    """Exact check omega_l(alpha' beta') = omega_k(alpha beta) (resp. chi_p)."""
    alpha, beta = point
    src = char_omega(spec.source, alpha * beta)
    out = phase_embed(point, spec)
    if spec.finite_target:
        a2, b2 = out
        return char_omega(spec.target, a2 * b2) == src
    a_p, b_p = out
    return char_chi_p(a_p, b_p) == src


def def2_point_embed(
    x: int, frak_p: int, k: int, ell: int
) -> tuple[int, int]:
    """The composite-label point embedding: new-prime components vanish.

    x' is congruent to x at the primes of k and to 0 at the new primes;
    p' = (l/k) p.  Characters are preserved exactly.
    """
    if ell % k != 0:
        raise ValueError("labels must divide")
    k_exp = factorize(k)
    # the residue mod p^{e_k(p)} lifts unchanged into Z(p^{e_l(p)})
    comps = tuple(
        x % f.p ** k_exp[f.p] if f.p in k_exp else 0 for f in crt_idempotents(ell)
    )
    return crt_join_mu(ell, comps), (ell // k) * frak_p


# ---------------------------------------------------------------------------
# States
# ---------------------------------------------------------------------------


def state_embed(f: FiniteState, spec: EmbeddingSpec):
    """Embed a state of Z(k) into Z(l) or into the Schwartz-Bruhat space.

    Position functions extend periodically (f'(X') = f(X' mod k)); momentum
    functions map P to (l/k) P with zero padding.  Both are isometries.
    A supernatural target yields a GlobalSBFunction of constancy degree k.
    """
    if f.n != spec.source:
        raise ValueError("state dimension does not match the source label")
    if spec.finite_target:
        return extend(f, spec.target)
    terms = []
    for coeff, parts in tensor_factor(f):
        factors = {p: LocalSBFunction.from_state(p, st) for p, st in parts.items()}
        terms.append((coeff, factors))
    return GlobalSBFunction(f.rep, tuple(terms))


def hw_embed(d: HWElement, spec: EmbeddingSpec) -> HWElement:
    """Embed a displacement operator: the continuum labels are invariant."""
    if d.n != spec.source:
        raise ValueError("element dimension does not match the source label")
    if not spec.finite_target:
        raise ValueError("operator embedding targets are finite labels")
    return HWElement.from_phase_space(spec.target, d.frak_a, d.beta, d.frak_c)


def embed_weyl_point(n_src: int, a: int, b: int, ell: int) -> tuple[int, int]:
    """The target indices at which Weyl/Wigner values match the source."""
    el = hw_embed(
        HWElement.from_canonical(n_src, a, b, 0), EmbeddingSpec(n_src, ell)
    )
    return el.alpha, el.beta


# ---------------------------------------------------------------------------
# Compatibility and ubiquity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CompatReport:
    name: str
    passed: bool
    residual: float


def compat_suite(k: int, ell: int, m: int, rng=None, samples: int = 5) -> list[CompatReport]:
    """Check the embedding laws along the chain k | ell | m.

    (i) composition, (ii) Fourier intertwining, (iii) Heisenberg-Weyl
    intertwining, (iv) exact character preservation.  Failures are reported,
    not raised.
    """
    if ell % k or m % ell:
        raise ValueError("labels must form a divisor chain")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = rng or np.random.default_rng(0)
    out = []

    # np.max over each law's gaps, so a NaN gap makes the law fail
    gaps = []
    for rep in (POSITION, MOMENTUM):
        for _ in range(samples):
            f = FiniteState(k, rep, rng.standard_normal(k) + 1j * rng.standard_normal(k))
            two_step = state_embed(
                state_embed(f, EmbeddingSpec(k, ell)), EmbeddingSpec(ell, m)
            )
            one_step = state_embed(f, EmbeddingSpec(k, m))
            gaps.append(np.max(np.abs(two_step.amplitudes - one_step.amplitudes)))
    res = float(np.max(gaps))
    out.append(CompatReport("composition", res == 0.0, res))

    gaps = []
    for _ in range(samples):
        f = FiniteState(k, POSITION, rng.standard_normal(k) + 1j * rng.standard_normal(k))
        lhs = state_embed(fourier(f), EmbeddingSpec(k, ell))
        rhs = fourier(state_embed(f, EmbeddingSpec(k, ell)))
        gaps.append(np.max(np.abs(lhs.amplitudes - rhs.amplitudes)))
    res = float(np.max(gaps))
    out.append(CompatReport("fourier_intertwining", res <= 1e-10, res))

    gaps = []
    for _ in range(samples):
        f = FiniteState(k, POSITION, rng.standard_normal(k) + 1j * rng.standard_normal(k))
        a, b, g = (int(v) for v in rng.integers(0, k, 3))
        el = HWElement.from_canonical(k, a, b, g)
        lhs = state_embed(displace(el, f), EmbeddingSpec(k, ell))
        rhs = displace(hw_embed(el, EmbeddingSpec(k, ell)), state_embed(f, EmbeddingSpec(k, ell)))
        gaps.append(np.max(np.abs(lhs.amplitudes - rhs.amplitudes)))
    res = float(np.max(gaps))
    out.append(CompatReport("hw_intertwining", res <= 1e-10, res))

    ok = True
    for x in range(min(k, 8)):
        for fp in range(min(k, 8)):
            x2, fp2 = def2_point_embed(x, fp, k, ell)
            ok = ok and char_omega(ell, x2 * fp2) == char_omega(k, x * fp)
    out.append(CompatReport("character_preservation", ok, 0.0 if ok else 1.0))
    return out


def position_entropy(f: FiniteState) -> float:
    """- sum q_X log(n q_X), q_X = |f(X)|^2 / n: measure-weighted, so the
    value is preserved by every embedding."""
    pos = to_position(f)
    q = np.abs(pos.amplitudes) ** 2 / pos.n
    total = float(np.sum(q))
    if not math.isclose(total, 1.0, rel_tol=0, abs_tol=1e-9):
        raise ValueError("entropy needs a normalized state")
    mask = q > 0
    return float(-np.sum(q[mask] * np.log(pos.n * q[mask])))


def ubiquity_check(
    quantity: str, f: FiniteState, spec: EmbeddingSpec, rng=None
) -> tuple[bool, float]:
    """Verify L_r(E f) = L_k(f) for a ubiquitous quantity; returns
    (ok, max deviation)."""
    if not spec.finite_target:
        raise ValueError("ubiquity checks use finite targets")
    g = state_embed(f, spec)
    if quantity == "norm":
        dev = abs(norm(g) - norm(f))
        return dev == 0.0 or dev < 1e-15, dev
    if quantity == "position_entropy":
        dev = abs(position_entropy(g) - position_entropy(f))
        return dev <= 1e-12, dev
    if quantity in ("weyl", "wigner"):
        # evaluate the target-side function with the intertwined operator at
        # the embedded phase-space point; when source and target parities
        # agree this is the canonical-grid Weyl/Wigner value at
        # embed_weyl_point, and for odd k inside even l it additionally
        # carries the exact half-phase bookkeeping of the index map
        n = f.n
        rng = rng or np.random.default_rng(1)
        gaps = []
        for _ in range(8):
            a, b = (int(v) for v in rng.integers(0, n, 2))
            if quantity == "weyl":
                el = HWElement.from_canonical(n, a, b, 0)
                h = displace(hw_embed(el, spec), g)
            else:
                el = parity_displacement(PhasePoint(n, a, b))
                h = reflect(displace(hw_embed(el, spec), g))
            gaps.append(abs(inner(g, h) - weyl_wigner(f, a, b, quantity)))
        dev = float(np.max(gaps))  # np.max keeps a NaN gap, max() would drop it
        return dev <= 1e-12, dev
    raise ValueError(f"unsupported quantity {quantity!r}")


def annihilator(n: int, m: int) -> tuple[int, frozenset[int]]:
    """Ann_{Z(n)} of the order-m subgroup of Z(n): the multiples of m.

    Returns (generator, elements); the sizes realize the finite annihilator
    dualities |Ann| = n/m and Ann(Ann) = the original subgroup.
    """
    if n % m != 0:
        raise ValueError("m must divide n")
    gen = n // m
    subgroup = {(gen * t) % n for t in range(m)}
    ann = {
        b
        for b in range(n)
        if all(char_omega(n, a * b) == ZERO_MOD1 for a in subgroup)
    }
    assert ann == {(m * t) % n for t in range(n // m)}
    return m, frozenset(ann)
