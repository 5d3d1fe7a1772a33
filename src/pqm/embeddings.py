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
    """Embed a displacement operator: the continuum labels are invariant."""
    if d.n != spec.source:
        raise ValueError("element dimension does not match the source label")
    if not spec.finite_target:
        raise ValueError("operator embedding targets are finite labels")
    a = d.frak_a  # once: frak_c = phase + a b would rebuild it
    return HWElement.from_phase_space(spec.target, a, d.beta, d.phase + a.scaled(d.beta))


# ---------------------------------------------------------------------------
# Compatibility and ubiquity
# ---------------------------------------------------------------------------


_COMPAT_SAMPLES = 2  # random states per law and representation


def compat_suite(k: int, ell: int, m: int, rng) -> dict[str, float]:
    """The embedding laws along the chain k | ell | m, as ``{law: residual}``.

    (i) ``composition``, (ii) ``fourier_intertwining``, (iii)
    ``hw_intertwining``: the largest gap over the samples, NaN if any gap is
    NaN; (iv) ``character_preservation``: 0.0 when the exact law holds, else
    1.0.  Failures are measured, not raised; the caller holds the tolerances.

    On a finite target ``state_embed`` is ``extend``, so each law acts on its
    samples as one (samples, k) stack of values; the random draws keep the
    order of one state at a time.  This is ``_compat_suites``' stack of one.
    """
    return _compat_suites([(k, ell, m)], rng)[0]


def _compat_draws(k: int, rng) -> tuple[np.ndarray, list[HWElement]]:
    """One chain's states and elements, drawn in the order of one state at a
    time: the composition states (rep by rep), the Fourier states, then for
    each sample its state and its exact element.  Each run of normal draws
    is one call; an integer draw keeps its place between them, since it
    leaves half a word in the generator for the next one."""
    s = _COMPAT_SAMPLES
    normals = [rng.standard_normal(2 * k * (3 * s + 1))]
    els = []
    for i in range(s):
        if i:
            normals.append(rng.standard_normal(2 * k))
        a, b, g = rng.integers(0, k, 3).tolist()
        els.append(HWElement.from_canonical(k, a, b, g))
    d = np.concatenate(normals).reshape(-1, 2, k)  # [state, real/imaginary, x]
    return d[:, 0] + 1j * d[:, 1], els


def _compat_suites(chains, rng) -> list[dict[str, float]]:
    """``compat_suite`` on each chain (k, ell, m) in turn, bit for bit.

    The draws keep chain order.  The composition law, which reads m, runs
    once per chain; the Fourier, HW and character laws run once per group
    of chains that share (k, ell), on the stack of the group's samples, and
    each chain's residual is the largest gap of its own rows (np.max, so a
    NaN gap is its law's residual).
    """
    s = _COMPAT_SAMPLES
    out: list[dict[str, float]] = []
    draws, els = [], []
    groups: dict[tuple[int, int], list[int]] = {}
    for i, (k, ell, m) in enumerate(chains):
        EmbeddingSpec(k, ell), EmbeddingSpec(ell, m)  # so k | m too
        v, chain_els = _compat_draws(k, rng)
        draws.append(v)
        els.append(chain_els)
        groups.setdefault((k, ell), []).append(i)
        gaps = []
        for rep, rows in zip((POSITION, MOMENTUM), (v[:s], v[s : 2 * s])):
            two_step = _extend_values(_extend_values(rows, rep, ell), rep, m)
            gaps.append(np.max(np.abs(two_step - _extend_values(rows, rep, m))))
        out.append({"composition": float(np.max(gaps))})

    for (k, ell), members in groups.items():
        v = np.stack([draws[i] for i in members])  # [chain, state, x]
        f, h = v[:, 2 * s : 3 * s].reshape(-1, k), v[:, 3 * s :].reshape(-1, k)
        lhs = _extend_values(_fourier_values(f, POSITION), MOMENTUM, ell)
        rhs = _fourier_values(_extend_values(f, POSITION, ell), POSITION)
        fourier_gaps = np.abs(lhs - rhs).reshape(len(members), -1).max(axis=1)

        group_els = [el for i in members for el in els[i]]
        lhs = _extend_values(_displace_values(h, POSITION, group_els), POSITION, ell)
        spec = EmbeddingSpec(k, ell)
        embedded = [hw_embed(el, spec) for el in group_els]
        rhs = _displace_values(_extend_values(h, POSITION, ell), POSITION, embedded)
        hw_gaps = np.abs(lhs - rhs).reshape(len(members), -1).max(axis=1)

        broken = float(not _characters_preserved(k, ell))
        for i, fg, hg in zip(members, fourier_gaps.tolist(), hw_gaps.tolist()):
            out[i].update(
                fourier_intertwining=fg, hw_intertwining=hg, character_preservation=broken
            )
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


def ubiquity_check(f: FiniteState, spec: EmbeddingSpec, rng) -> dict[str, float]:
    """The deviations |L_r(E f) - L_k(f)| of the ubiquitous quantities under
    one embedding E f, as ``{quantity: deviation}``: ``norm``, the largest
    over eight random points of ``weyl`` and of ``wigner``, and
    ``position_entropy``.  The caller holds the tolerances."""
    if not spec.finite_target:
        raise ValueError("ubiquity checks use finite targets")
    g = state_embed(f, spec)
    n = f.n
    out = {"norm": abs(norm(g) - norm(f))}
    # evaluate the target-side function with the intertwined operator at the
    # embedded phase-space point; when source and target parities agree this
    # is the canonical-grid Weyl/Wigner value at hw_embed's index pair, and
    # for odd k inside even l it additionally carries the exact half-phase
    # bookkeeping of the index map.  The eight Weyl points are drawn first,
    # then the eight Wigner points; each source value is ``weyl_wigner``'s.
    points = [[int(v) for v in rng.integers(0, n, 2)] for _ in range(16)]
    weyl, _ = _point_elements(n, points[:8], "weyl")
    _, wigner = _point_elements(n, points[8:], "wigner")
    source = _weyl_wigner_values(f, weyl, wigner)
    target = _weyl_wigner_values(
        g, [hw_embed(el, spec) for el in weyl], [hw_embed(el, spec) for el in wigner]
    )
    gaps = [abs(t - s) for t, s in zip(target, source)]
    # np.max keeps a NaN gap, max() would drop it
    out["weyl"], out["wigner"] = float(np.max(gaps[:8])), float(np.max(gaps[8:]))
    out["position_entropy"] = abs(position_entropy(g) - position_entropy(f))
    return out


def annihilator(n: int, m: int) -> tuple[int, frozenset[int]]:
    """Ann_{Z(n)} of the order-m subgroup of Z(n): the multiples of m.

    Returns (generator, elements); the sizes realize the finite annihilator
    dualities |Ann| = n/m and Ann(Ann) = the original subgroup.
    """
    if n < 1 or m < 1 or n % m != 0:
        raise ValueError("m must be a positive divisor of n")
    return m, frozenset(range(0, n, m))
