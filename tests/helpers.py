"""Checks that only the tests call: unitarity, the exact CRT factorization
of a displacement matrix, the partial-order axioms of a finite poset, the
Weyl and Wigner functions composed from the public state maps, the
one-state-at-a-time embedding laws that the stacked ones replace, the
checked operation-by-operation group laws that the integer ones replace,
and the one-digit-at-a-time base-p expansion."""

import numpy as np

from pqm.embeddings import (
    _COMPAT_SAMPLES,
    EmbeddingSpec,
    _characters_preserved,
    hw_embed,
    position_entropy,
    state_embed,
)
from pqm.finiteqm import (
    MOMENTUM,
    POSITION,
    FiniteState,
    HWElement,
    PhasePoint,
    _flat_indices,
    displace,
    fourier,
    hw_factor,
    _chi_coeff,
    hw_matrix,
    inner,
    norm,
    parity_apply,
    parity_displacement,
    reflect,
)
from pqm.numbers import PadicInt, RatMod1, crt_idempotents
from pqm.poset import FinitePoset
from pqm.profinite_hw import ProfiniteHWElement


def is_unitary(m: np.ndarray, tol: float = 1e-10) -> bool:
    m = np.asarray(m, dtype=complex)
    return bool(np.max(np.abs(m @ m.conj().T - np.eye(m.shape[0]))) <= tol)


def hw_factor_matrix_check(d: HWElement) -> float:
    """Max-norm gap between matrix(D) and the remapped tensor of its factors."""
    factors = crt_idempotents(d.n)
    parts = hw_factor(d)
    full = np.array([[1.0 + 0j]])
    for fac in factors:
        full = np.kron(full, hw_matrix(parts[fac.p]))
    src, _ = _flat_indices(d.n, POSITION)
    remapped = full[np.ix_(src, src)]
    return float(np.max(np.abs(remapped - hw_matrix(d))))


def poset_axioms_hold(poset: FinitePoset) -> bool:
    """Reflexivity, antisymmetry and transitivity of ``poset.leq``."""
    els, leq = poset.elements, poset.leq
    for a in els:
        if not leq(a, a):
            return False
    for a in els:
        for b in els:
            if a != b and leq(a, b) and leq(b, a):
                return False
            for c in els:
                if leq(a, b) and leq(b, c) and not leq(a, c):
                    return False
    return True


def weyl_wigner_oracle(
    f: FiniteState, a: int, b: int, kind: str, doubled: bool = False
) -> complex:
    """``weyl_wigner`` composed from the public maps: (f, D(a,b,0) f) by
    ``displace``, (f, P(a,b) f) by ``parity_apply``, each reduced by ``inner``."""
    if kind == "weyl":
        return inner(f, displace(HWElement.from_canonical(f.n, a, b, 0), f))
    if kind == "wigner":
        return inner(f, parity_apply(PhasePoint(f.n, a, b, doubled), f))
    raise ValueError(f"unknown kind {kind!r}")


def compat_suite_oracle(k: int, ell: int, m: int, rng) -> dict[str, float]:
    """``compat_suite`` one sample at a time, through the public state maps."""
    k_ell, ell_m, k_m = EmbeddingSpec(k, ell), EmbeddingSpec(ell, m), EmbeddingSpec(k, m)
    out = {}
    gaps = []
    for rep in (POSITION, MOMENTUM):
        for _ in range(_COMPAT_SAMPLES):
            f = FiniteState(k, rep, rng.standard_normal(k) + 1j * rng.standard_normal(k))
            two_step = state_embed(state_embed(f, k_ell), ell_m)
            one_step = state_embed(f, k_m)
            gaps.append(np.max(np.abs(two_step.amplitudes - one_step.amplitudes)))
    out["composition"] = float(np.max(gaps))

    gaps = []
    for _ in range(_COMPAT_SAMPLES):
        f = FiniteState(k, POSITION, rng.standard_normal(k) + 1j * rng.standard_normal(k))
        lhs = state_embed(fourier(f), k_ell)
        rhs = fourier(state_embed(f, k_ell))
        gaps.append(np.max(np.abs(lhs.amplitudes - rhs.amplitudes)))
    out["fourier_intertwining"] = float(np.max(gaps))

    gaps = []
    for _ in range(_COMPAT_SAMPLES):
        f = FiniteState(k, POSITION, rng.standard_normal(k) + 1j * rng.standard_normal(k))
        a, b, g = (int(v) for v in rng.integers(0, k, 3))
        el = HWElement.from_canonical(k, a, b, g)
        lhs = state_embed(displace(el, f), k_ell)
        rhs = displace(hw_embed(el, k_ell), state_embed(f, k_ell))
        gaps.append(np.max(np.abs(lhs.amplitudes - rhs.amplitudes)))
    out["hw_intertwining"] = float(np.max(gaps))

    out["character_preservation"] = float(not _characters_preserved(k, ell))
    return out


def ubiquity_check_oracle(f: FiniteState, spec: EmbeddingSpec, rng) -> dict[str, float]:
    """``ubiquity_check`` one operator at a time, through ``weyl_wigner_oracle``."""
    g = state_embed(f, spec)
    n = f.n
    out = {"norm": abs(norm(g) - norm(f))}
    for quantity in ("weyl", "wigner"):
        gaps = []
        for _ in range(8):
            a, b = (int(v) for v in rng.integers(0, n, 2))
            if quantity == "weyl":
                el = HWElement.from_canonical(n, a, b, 0)
                h = displace(hw_embed(el, spec), g)
            else:
                el = parity_displacement(PhasePoint(n, a, b))
                h = reflect(displace(hw_embed(el, spec), g))
            gaps.append(abs(inner(g, h) - weyl_wigner_oracle(f, a, b, quantity)))
        out[quantity] = float(np.max(gaps))
    out["position_entropy"] = abs(position_entropy(g) - position_entropy(f))
    return out


def _checked(x: PadicInt) -> PadicInt:
    return PadicInt(x.p, x.precision, x.residue)


def phw_mul_oracle(g: ProfiniteHWElement, h: ProfiniteHWElement) -> ProfiniteHWElement:
    """``phw_mul`` operator by operator: each of the seven ``PadicInt``s it
    makes goes through the checked constructor."""
    if g.p != h.p:
        raise ValueError("prime mismatch")
    a, b = _checked(g.a + h.a), _checked(g.b + h.b)
    ab, ba = _checked(g.a * h.b), _checked(h.a * g.b)
    c = _checked(_checked(_checked(g.c + h.c) + ab) - ba)
    return ProfiniteHWElement(a, b, c)


def phw_inv_oracle(g: ProfiniteHWElement) -> ProfiniteHWElement:
    return ProfiniteHWElement(_checked(-g.a), _checked(-g.b), _checked(-g.c))


def phw_commutator_oracle(g: ProfiniteHWElement, h: ProfiniteHWElement) -> ProfiniteHWElement:
    return phw_mul_oracle(phw_mul_oracle(g, h), phw_inv_oracle(phw_mul_oracle(h, g)))


def hw_mul_oracle(d1: HWElement, d2: HWElement) -> HWElement:
    """``hw_mul`` with its phase from three ``RatMod1`` operations and its
    result through the checked constructor."""
    if d1.n != d2.n:
        raise ValueError("dimension mismatch")
    n, c = d1.n, _chi_coeff(d1.n)
    cross = RatMod1.of(c * d2.alpha * d1.beta, n)
    return HWElement(
        n, (d1.alpha + d2.alpha) % n, (d1.beta + d2.beta) % n, d1.phase + d2.phase - cross
    )


def hw_adjoint_oracle(d: HWElement) -> HWElement:
    n, c = d.n, _chi_coeff(d.n)
    t = RatMod1.of(c * d.alpha * d.beta, n)
    return HWElement(n, (-d.alpha) % n, (-d.beta) % n, -d.phase - t)


def digits_oracle(value: int, p: int, count: int) -> tuple[int, ...]:
    """The base-p digits of value mod p^count, one divmod per digit."""
    r = value % p**count
    digits = []
    for _ in range(count):
        r, d = divmod(r, p)
        digits.append(d)
    return tuple(digits)
