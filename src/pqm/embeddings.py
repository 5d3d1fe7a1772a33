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
    _index,
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
    _chi_coeff,
    _displace_values,
    _extend_values,
    _fourier_values,
    _point_elements,
    _weyl_wigner_values,
    extend,
    norm,
    tensor_factor,
    to_position,
)
from .poset import Supernatural, sn_divides
from .schwartz_bruhat import GlobalSBFunction, LocalSBFunction


@dataclass(frozen=True)
class EmbeddingSpec:
    """Labels (k, l) with k | l; the target may be supernatural."""

    source: int
    target: "int | Supernatural"

    def __post_init__(self) -> None:
        if type(self.source) is not int:
            object.__setattr__(self, "source", _index(self.source, "source"))
        if not (type(self.target) is int or isinstance(self.target, Supernatural)):
            object.__setattr__(self, "target", _index(self.target, "target"))
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


# ---------------------------------------------------------------------------
# Phase-space points
# ---------------------------------------------------------------------------


def phase_embed(point: tuple[int, int], spec: EmbeddingSpec):
    """Embed a phase-space point (position, momentum coordinate).

    Finite target: ``def2_point_embed`` for any k | l.  Profinite target,
    from a prime-power source p^k: (alpha, beta) -> (a_p, b_p) in
    Z_p x Q_p/Z_p, a ``PadicInt`` and a ``RatMod1`` with denominator
    dividing p^k.  Characters are preserved exactly either way.
    """
    alpha, beta = point
    if not (0 <= alpha < spec.source and 0 <= beta < spec.source):
        raise ValueError("point out of range")
    if spec.finite_target:
        return def2_point_embed(alpha, beta, spec.source, spec.target)
    k_fact = factorize(spec.source)
    if len(k_fact) != 1:
        raise ValueError("profinite phase embedding expects a prime-power source")
    (p, k), = k_fact.items()
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


def _characters_preserved(k: int, ell: int) -> bool:
    """``phase_embed_character`` on the points x, p < min(k, 8) of Z(k) into
    Z(l), all at once: omega_l(x' p') = omega_k(x p) iff x' p' = (l/k) x p
    mod l, an integer congruence on index arrays."""
    x, fp = np.divmod(np.arange(min(k, 8) ** 2), min(k, 8))
    x2, fp2 = def2_point_embed(x, fp, k, ell)
    return bool(np.all((x2 * fp2 - (ell // k) * x * fp) % ell == 0))


def def2_point_embed(x, frak_p, k: int, ell: int):
    """The composite-label point embedding: new-prime components vanish.

    x' is congruent to x at the primes of k and to 0 at the new primes;
    p' = (l/k) p.  Characters are preserved exactly.  x and frak_p are ints,
    or integer arrays of one shape, mapped entry by entry.
    """
    if k < 1 or ell % k != 0:
        raise ValueError("labels must divide")
    k_exp = factorize(k)
    # the residue mod p^{e_k(p)} lifts unchanged into Z(p^{e_l(p)}); a new
    # prime has e_k(p) = 0, so its component is x mod 1 = 0
    comps = tuple(x % f.p ** k_exp.get(f.p, 0) for f in crt_idempotents(ell))
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
    """Embed a displacement operator: the continuum labels are invariant.

    a = c_k alpha/(2k) = c_l alpha'/(2l) fixes alpha' = (l/k) c_k alpha / c_l
    mod l; the shift beta and the exponent phase = c - a beta carry over as
    they are.  ``from_phase_space`` on (a, beta, c) is its oracle in the tests.
    """
    if d.n != spec.source:
        raise ValueError("element dimension does not match the source label")
    if not spec.finite_target:
        raise ValueError("operator embedding targets are finite labels")
    k, ell = spec.source, spec.target
    alpha = (ell // k) * _chi_coeff(k) * d.alpha * pow(_chi_coeff(ell), -1, ell) % ell
    return HWElement._of(ell, alpha, d.beta, d.phase)


# ---------------------------------------------------------------------------
# Compatibility and ubiquity
# ---------------------------------------------------------------------------


_COMPAT_SAMPLES = 2  # random Heisenberg-Weyl elements per chain


def compat_suite(chains, rng) -> list[dict[str, float]]:
    """The embedding laws along each chain k | ell | m, as ``{law: residual}``.

    (i) ``composition``, (ii) ``fourier_intertwining``, (iii)
    ``hw_intertwining``: the largest gap, NaN if any gap is NaN; (iv)
    ``character_preservation``: 0.0 when the exact law holds, else 1.0.
    Failures are measured, not raised; the caller holds the tolerances.

    On a finite target ``state_embed`` is ``extend``.  An extension and a
    displacement move every value to one place times a unit phase (the
    momentum extension also pads with zeros), so the composition and
    Heisenberg-Weyl laws hold for every state iff they hold for the
    labelled state x -> x + 1, whose values are distinct and nonzero.  The
    Fourier law mixes values, so it runs on the k basis states of Z(k),
    which span every state.  Each chain draws its ``_COMPAT_SAMPLES``
    Heisenberg-Weyl elements, in chain order.  The Fourier, character and
    Heisenberg-Weyl laws run once per (k, ell), the last on the elements of
    every chain with that pair; the composition law runs per chain.
    """
    pairs: dict[tuple[int, int], list[int]] = {}
    els = []
    for i, (k, ell, m) in enumerate(chains):
        EmbeddingSpec(k, ell), EmbeddingSpec(ell, m)  # so k | m too
        draws = rng.integers(0, k, (_COMPAT_SAMPLES, 3)).tolist()
        els.append([HWElement.from_canonical(k, *abg) for abg in draws])
        pairs.setdefault((k, ell), []).append(i)

    out: list[dict[str, float]] = [{} for _ in chains]
    for (k, ell), members in pairs.items():
        spec = EmbeddingSpec(k, ell)
        basis = np.eye(k, dtype=complex)
        lhs = _extend_values(_fourier_values(basis, POSITION), MOMENTUM, ell)
        rhs = _fourier_values(_extend_values(basis, POSITION, ell), POSITION)
        fourier_gap = float(np.max(np.abs(lhs - rhs)))
        broken = float(not _characters_preserved(k, ell))

        v = np.arange(1, k + 1, dtype=complex)  # the labelled state
        source = [el for i in members for el in els[i]]
        lhs = _extend_values(_displace_values(v, POSITION, source), POSITION, ell)
        target = [hw_embed(el, spec) for el in source]
        rhs = _displace_values(_extend_values(v, POSITION, ell), POSITION, target)
        hw_gaps = np.abs(lhs - rhs).reshape(len(members), -1).max(axis=1).tolist()

        up = {rep: _extend_values(v, rep, ell) for rep in (POSITION, MOMENTUM)}
        for i, hw_gap in zip(members, hw_gaps):
            m = chains[i][2]
            gaps = [
                np.abs(_extend_values(w, rep, m) - _extend_values(v, rep, m))
                for rep, w in up.items()
            ]
            out[i] = {
                "composition": float(np.max(gaps)),
                "fourier_intertwining": fourier_gap,
                "hw_intertwining": hw_gap,
                "character_preservation": broken,
            }
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


_UBIQUITY_POINTS = 8  # random (a, b) points per function, Weyl then Wigner


def _ubiquity_points(n: int, rng) -> np.ndarray:
    """The eight Weyl points, then the eight Wigner points, in one draw: the
    stream of one (a, b) draw per point."""
    return rng.integers(0, n, (2 * _UBIQUITY_POINTS, 2))


def ubiquity_check(cases) -> list[dict[str, float]]:
    """The deviations |L_r(E f) - L_k(f)| of the ubiquitous quantities under
    each case's embedding E f, as ``{quantity: deviation}``: ``norm``, the
    largest over the case's eight Weyl and eight Wigner points of ``weyl``
    and of ``wigner``, and ``position_entropy``.  The caller holds the
    tolerances.  A case is (f, spec, points): spec's target finite, f.n its
    source, and points the (16, 2) integer draws of ``_ubiquity_points``.

    The target side evaluates the target-side function with the intertwined
    operator at the embedded phase-space point; when source and target
    parities agree this is the canonical-grid Weyl/Wigner value at
    hw_embed's index pair, and for odd k inside even l it additionally
    carries the exact half-phase bookkeeping of the index map.  Each source
    value is ``weyl_wigner``'s.  Each case runs the point kernel once on
    each side.
    """
    q = _UBIQUITY_POINTS
    out = []
    for f, spec, points in cases:
        if not spec.finite_target:
            raise ValueError("ubiquity checks use finite targets")
        if f.n != spec.source:
            raise ValueError("state dimension does not match the source label")
        points = np.asarray(points)
        if points.shape != (2 * q, 2) or points.dtype.kind not in "iu":
            raise ValueError(f"points must be ({2 * q}, 2) integers")
        points = points.tolist()
        weyl, _ = _point_elements(f.n, points[:q], "weyl")
        _, wigner = _point_elements(f.n, points[q:], "wigner")
        g = extend(f, spec.target)
        source = _weyl_wigner_values(f.amplitudes, f.rep, weyl, wigner)
        target = _weyl_wigner_values(
            g.amplitudes, g.rep, *([hw_embed(el, spec) for el in els] for els in (weyl, wigner))
        )
        gaps = [abs(a - b) for a, b in zip(target, source)]
        # np.max keeps a NaN gap, max() would drop it
        out.append({
            "norm": abs(norm(g) - norm(f)),
            "weyl": float(np.max(gaps[:q])),
            "wigner": float(np.max(gaps[q:])),
            "position_entropy": abs(position_entropy(g) - position_entropy(f)),
        })
    return out


def annihilator(n: int, m: int) -> tuple[int, frozenset[int]]:
    """Ann_{Z(n)} of the order-m subgroup of Z(n): the multiples of m.

    Returns (generator, elements); the sizes realize the finite annihilator
    dualities |Ann| = n/m and Ann(Ann) = the original subgroup.
    """
    if n < 1 or m < 1 or n % m != 0:
        raise ValueError("m must be a positive divisor of n")
    return m, frozenset(range(0, n, m))
