"""Checks that only the tests call: unitarity, the partial-order axioms of a
finite poset, the Weyl and Wigner functions composed from the public state
maps, the whole-table Wigner CSV writer, the one-state-at-a-time embedding laws that the stacked ones replace,
the checked operation-by-operation group laws that the integer ones replace,
the one-digit-at-a-time base-p expansion, the profinite-integer operations
composed of checked p-adic components that the integer ones replace, and the
Schwartz-Bruhat operations on tuples of Python complex that the array ones
replace."""

import math
from typing import NamedTuple

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
    displace,
    fourier,
    _chi_coeff,
    _dilation,
    _unit,
    extend,
    inner,
    norm,
    parity_apply,
    parity_displacement,
    reflect,
    tensor_join,
)
from pqm.numbers import (
    ZERO_MOD1,
    PadicInt,
    PrecisionError,
    ProfiniteInt,
    RatMod1,
    _qp_level,
    char_chi_p,
    crt_join_mu,
    factorize,
    project_xi,
    valuation,
)
from pqm.poset import FinitePoset
from pqm.profinite_hw import GlobalProfiniteHW, ProfiniteHWElement, phw_project
from pqm.schwartz_bruhat import GlobalSBFunction, LocalSBFunction


def is_unitary(m: np.ndarray, tol: float = 1e-10) -> bool:
    m = np.asarray(m, dtype=complex)
    return bool(np.max(np.abs(m @ m.conj().T - np.eye(m.shape[0]))) <= tol)


def wigner_csv_oracle(table: np.ndarray) -> str:
    """The ``pqm wigner`` CSV of ``table`` built as one text, the whole-table
    writer that the one-a-row-at-a-time writer replaces."""
    text = "".join(
        f"{a},{b},{re!r},{im!r}\n"
        for a, (res, ims) in enumerate(zip(table.real.tolist(), table.imag.tolist()))
        for b, (re, im) in enumerate(zip(res, ims))
    )
    return "a,b,re,im\n" + text


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


def profinite_component_oracle(x: ProfiniteInt, p: int, precision: int) -> PadicInt:
    """``ProfiniteInt.component`` through the checked ``PadicInt.from_int``."""
    a = x.overrides.get(p)
    if a is None:
        return PadicInt.from_int(x.tail, p, precision)
    if a.precision < precision:
        raise PrecisionError(f"component at p={p} has precision {a.precision} < {precision}")
    return PadicInt.from_int(a.residue, p, precision)


def profinite_merge_oracle(x: ProfiniteInt, y: ProfiniteInt, op) -> ProfiniteInt:
    """op (+, - or *) on checked components at each override prime."""
    out = {}
    for p in set(x.overrides) | set(y.overrides):
        n = int(min(o.overrides[p].precision if p in o.overrides else math.inf for o in (x, y)))
        out[p] = op(profinite_component_oracle(x, p, n), profinite_component_oracle(y, p, n))
    return ProfiniteInt(out, op(x.tail, y.tail))


def profinite_residue_oracle(x: ProfiniteInt, n: int) -> int:
    comps = (project_xi(profinite_component_oracle(x, p, e), e) for p, e in factorize(n).items())
    return crt_join_mu(n, tuple(comps))


def phw_global_project_factors_oracle(g: GlobalProfiniteHW, n: int) -> dict:
    """Each factor projected through a checked ``ProfiniteHWElement``."""
    out = {}
    for p, e in factorize(n).items():
        parts = (profinite_component_oracle(x, p, e) for x in (g.a, g.b, g.c))
        out[p] = phw_project(ProfiniteHWElement(*parts), e)
    return out


def char_chi_global_oracle(a: ProfiniteInt, b: dict) -> RatMod1:
    q = ZERO_MOD1
    for p, bp in b.items():
        if bp:
            q = q + char_chi_p(profinite_component_oracle(a, p, _qp_level(bp, p)), bp)
    return q


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


def sb_equal(f: LocalSBFunction, g: LocalSBFunction) -> bool:
    """Value equality of two ``LocalSBFunction``s, whose ``==`` is identity:
    the same p, side and degree, and equal values."""
    return (f.p, f.side, f.degree) == (g.p, g.side, g.degree) and bool(
        np.array_equal(f.values, g.values)
    )


# The Schwartz-Bruhat operations as they were on tuples of Python complex:
# each local one is from_state(kernel(state())), a tuple in and a tuple out.


class TupleSB(NamedTuple):
    """A ``LocalSBFunction`` with its values as a tuple of Python complex."""

    p: int
    side: str
    degree: int
    values: tuple[complex, ...]

    @classmethod
    def of(cls, f: LocalSBFunction) -> "TupleSB":
        return cls(f.p, f.side, f.degree, tuple(complex(v) for v in f.values))


def _tuple_state(f: TupleSB) -> FiniteState:
    return FiniteState(len(f.values), f.side, np.asarray(f.values, dtype=complex))


def _tuple_from_state(p: int, st: FiniteState) -> TupleSB:
    return TupleSB(p, st.rep, valuation(st.n, p), tuple(complex(v) for v in st.amplitudes))


def _tuple_trivial(p: int, side: str) -> TupleSB:
    return TupleSB(p, side, 0, (1.0 + 0j,))


def refine_oracle(f: TupleSB, degree: int) -> TupleSB:
    if degree == f.degree:
        return f
    return _tuple_from_state(f.p, extend(_tuple_state(f), f.p**degree))


def integrate_local_oracle(f: TupleSB) -> complex:
    total = sum(f.values)
    return total / f.p**f.degree if f.side == POSITION else total


def local_inner_oracle(f: TupleSB, g: TupleSB) -> complex:
    d = max(f.degree, g.degree)
    return inner(_tuple_state(refine_oracle(f, d)), _tuple_state(refine_oracle(g, d)))


def scale_variable_oracle(f: TupleSB, lam: int) -> TupleSB:
    r = valuation(lam, f.p)
    if f.side == POSITION:
        d, mult = max(f.degree - r, 0), lam
    else:
        d, mult = f.degree + r, lam // f.p**r
    idx = _dilation(f.p**f.degree, mult, f.p**d)
    return TupleSB(f.p, f.side, d, tuple(complex(v) for v in np.asarray(f.values)[idx]))


def local_fourier_oracle(f: TupleSB) -> TupleSB:
    return _tuple_from_state(f.p, fourier(_tuple_state(f)))


def local_reflect_oracle(f: TupleSB) -> TupleSB:
    return _tuple_from_state(f.p, reflect(_tuple_state(f)))


def local_fourier_inv_oracle(f: TupleSB) -> TupleSB:
    return local_fourier_oracle(local_reflect_oracle(f))


def local_displace_oracle(f: TupleSB, a: RatMod1, b: int, c: RatMod1 = ZERO_MOD1) -> TupleSB:
    d = max(f.degree, valuation(a.scaled(2).denominator, f.p))
    if d == 0:
        e = c - a.scaled(b)
        return TupleSB(f.p, f.side, 0, (complex(_unit(e.numerator, e.denominator) * f.values[0]),))
    el = HWElement.from_phase_space(f.p**d, a, b, c)
    return _tuple_from_state(f.p, displace(el, _tuple_state(refine_oracle(f, d))))


def _tuple_terms(f: GlobalSBFunction) -> list:
    return [(c, {p: TupleSB.of(fp) for p, fp in factors.items()}) for c, factors in f.terms]


def global_inner_oracle(f: GlobalSBFunction, g: GlobalSBFunction) -> complex:
    total = 0j
    for cf, ff in _tuple_terms(f):
        for cg, gg in _tuple_terms(g):
            val = cf.conjugate() * cg
            for p in set(ff) | set(gg):
                val *= local_inner_oracle(
                    ff.get(p, _tuple_trivial(p, f.side)), gg.get(p, _tuple_trivial(p, g.side))
                )
            total += val
    return total


def canonicalize_global_oracle(f: GlobalSBFunction) -> FiniteState:
    terms_in = _tuple_terms(f)
    degrees: dict[int, int] = {}
    for _, factors in terms_in:
        for p, fp in factors.items():
            degrees[p] = max(degrees.get(p, 0), fp.degree)
    degrees = {p: d for p, d in degrees.items() if d > 0}
    if not degrees:
        raise ValueError("dimension 1 excluded: no nontrivial prime support")
    ell = 1
    for p, d in degrees.items():
        ell *= p**d
    terms = []
    for c, term_factors in terms_in:
        for p, fp in term_factors.items():
            if p not in degrees:
                c *= fp.values[0]
        parts = {
            p: _tuple_state(refine_oracle(term_factors.get(p, _tuple_trivial(p, f.side)), d))
            for p, d in degrees.items()
        }
        terms.append((c, parts))
    return tensor_join(terms, ell, f.side)
