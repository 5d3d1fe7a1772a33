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


_COMPAT_SAMPLES = 2  # random states per law and representation


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


def _index_groups(keys) -> dict:
    """The positions of ``keys`` grouped by key, keys in order of first sight."""
    groups: dict = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    return groups


def compat_suite(chains, rng) -> list[dict[str, float]]:
    """The embedding laws along each chain k | ell | m, as ``{law: residual}``.

    (i) ``composition``, (ii) ``fourier_intertwining``, (iii)
    ``hw_intertwining``: the largest gap over the chain's samples, NaN if
    any gap is NaN; (iv) ``character_preservation``: 0.0 when the exact law
    holds, else 1.0.  Failures are measured, not raised; the caller holds
    the tolerances.

    On a finite target ``state_embed`` is ``extend``, so each law acts on
    stacks of values.  The draws keep chain order.  Each law runs once per
    label or pair of labels, on the stacked samples of every chain that has
    it: the Fourier and HW laws run their Z(k) side once per source label k
    and their Z(ell) side once per target label ell; the extension
    Z(k) -> Z(ell) runs once per group of chains that share (k, ell), and so
    does the character law, which reads nothing else; the composition law
    extends each group's rows on to m once per (ell, m), against each
    chain's rows extended to m at once.  Each chain's residual is the
    largest gap of its own rows (np.max, so a NaN gap is its law's residual).
    """
    s = _COMPAT_SAMPLES
    draws, els = [], []
    for k, ell, m in chains:
        EmbeddingSpec(k, ell), EmbeddingSpec(ell, m)  # so k | m too
        v, chain_els = _compat_draws(k, rng)
        draws.append(v)
        els.append(chain_els)

    # the Z(k) side: F f and D h for the samples [chain, state, x] of each k
    fh, dh = [None] * len(chains), [None] * len(chains)
    for k, members in _index_groups(c[0] for c in chains).items():
        v = np.stack([draws[i][2 * s :] for i in members])
        source_els = [el for i in members for el in els[i]]
        fk = _fourier_values(v[:, :s], POSITION)
        hk = _displace_values(v[:, s:].reshape(-1, k), POSITION, source_els)
        for j, i in enumerate(members):
            fh[i], dh[i] = fk[j], hk[j * s : (j + 1) * s]

    # the Z(ell) side, one target label at a time, so one label's stacks
    # are freed before the next label's are built
    out: list[dict[str, float]] = [{} for _ in chains]
    for ell, members in _index_groups(c[1] for c in chains).items():
        order, broken, embedded = [], [], []
        up, lhs_f, f_up, lhs_h, h_up = [], [], [], [], []
        for k, at in _index_groups(chains[i][0] for i in members).items():
            group = [members[j] for j in at]
            v = np.stack([draws[i] for i in group])
            up.append(_extend_values(v[:, :s], POSITION, ell))
            up.append(_extend_values(v[:, s : 2 * s], MOMENTUM, ell))
            lhs_f.append(_extend_values(np.stack([fh[i] for i in group]), MOMENTUM, ell))
            f_up.append(_extend_values(v[:, 2 * s : 3 * s], POSITION, ell))
            lhs_h.append(_extend_values(np.stack([dh[i] for i in group]), POSITION, ell))
            h_up.append(_extend_values(v[:, 3 * s :], POSITION, ell))
            spec = EmbeddingSpec(k, ell)
            embedded += [hw_embed(el, spec) for i in group for el in els[i]]
            broken += [float(not _characters_preserved(k, ell))] * len(group)
            order += group
        up = np.concatenate(up[0::2]), np.concatenate(up[1::2])  # [chain, state, x]
        for m, at in _index_groups(chains[i][2] for i in order).items():
            gaps = []
            for rep, rows, two_step in zip((POSITION, MOMENTUM), (0, s), up):
                one_step = [_extend_values(draws[order[j]][rows : rows + s], rep, m) for j in at]
                gap = np.abs(_extend_values(two_step[at], rep, m) - np.stack(one_step))
                gaps.append(gap.reshape(len(at), -1).max(axis=1))
            for j, gap in zip(at, np.maximum(*gaps).tolist()):
                out[order[j]]["composition"] = gap

        rhs_f = _fourier_values(np.concatenate(f_up), POSITION)
        fourier_gaps = np.abs(np.concatenate(lhs_f) - rhs_f).reshape(len(order), -1).max(axis=1)
        h_up = np.concatenate(h_up).reshape(-1, ell)
        rhs_h = _displace_values(h_up, POSITION, embedded)
        hw_gaps = np.abs(np.concatenate(lhs_h).reshape(-1, ell) - rhs_h)
        hw_gaps = hw_gaps.reshape(len(order), -1).max(axis=1)
        gaps = zip(order, fourier_gaps.tolist(), hw_gaps.tolist(), broken)
        for i, fg, hg, cb in gaps:
            out[i].update(fourier_intertwining=fg, hw_intertwining=hg, character_preservation=cb)
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
    value is ``weyl_wigner``'s.  The point kernel runs once per source label
    and once per target label, on the stacked rows of every case with it.
    """
    q = _UBIQUITY_POINTS
    source_els, target_els = [], []
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
        source_els.append((weyl, wigner))
        target_els.append(tuple([hw_embed(el, spec) for el in els] for els in (weyl, wigner)))
    targets = [extend(f, spec.target) for f, spec, _ in cases]
    source = _stacked_point_values([f for f, _, _ in cases], source_els)
    target = _stacked_point_values(targets, target_els)
    out = []
    for (f, _, _), g, s, t in zip(cases, targets, source, target):
        gaps = [abs(a - b) for a, b in zip(t, s)]
        # np.max keeps a NaN gap, max() would drop it
        out.append({
            "norm": abs(norm(g) - norm(f)),
            "weyl": float(np.max(gaps[:q])),
            "wigner": float(np.max(gaps[q:])),
            "position_entropy": abs(position_entropy(g) - position_entropy(f)),
        })
    return out


def _stacked_point_values(states, elements) -> list[list[complex]]:
    """``_weyl_wigner_values`` of each state with its (displacements,
    parities), q of each, run once per (n, rep) on the stacked rows of the
    states that share it."""
    q = _UBIQUITY_POINTS
    out: list = [None] * len(states)
    for (n, rep), members in _index_groups((f.n, f.rep) for f in states).items():
        v = np.repeat(np.stack([states[i].amplitudes for i in members]), q, axis=0)
        weyl = [el for i in members for el in elements[i][0]]
        wigner = [el for i in members for el in elements[i][1]]
        values = _weyl_wigner_values(np.concatenate([v, v]), rep, weyl, wigner)
        half = len(v)
        for j, i in enumerate(members):
            out[i] = values[j * q : (j + 1) * q] + values[half + j * q : half + (j + 1) * q]
    return out


def annihilator(n: int, m: int) -> tuple[int, frozenset[int]]:
    """Ann_{Z(n)} of the order-m subgroup of Z(n): the multiples of m.

    Returns (generator, elements); the sizes realize the finite annihilator
    dualities |Ann| = n/m and Ann(Ann) = the original subgroup.
    """
    if n < 1 or m < 1 or n % m != 0:
        raise ValueError("m must be a positive divisor of n")
    return m, frozenset(range(0, n, m))
