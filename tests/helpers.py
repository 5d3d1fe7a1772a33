"""Checks that only the tests call: unitarity, the partial-order axioms of a
finite poset, the Weyl and Wigner functions composed from the public state
maps, the complex Wigner table whose real part is the float one, the
whole-table Wigner CSV writer, the one-state-at-a-time embedding laws that the stacked ones replace,
the checked operation-by-operation group laws that the integer ones replace,
the one-digit-at-a-time base-p expansion, the profinite-integer operations
composed of checked p-adic components that the integer ones replace, and the
Schwartz-Bruhat operations on tuples of Python complex that the array ones
replace, the verify suites one sample at a time that the stacked suites
replace, the ``Fraction`` Ostrowski product, and trial division to the
square root."""

import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from pqm import finiteqm as fq
from pqm import numbers as nm
from pqm import poset as ps
from pqm import verify as vf
from pqm.embeddings import (
    _COMPAT_SAMPLES,
    EmbeddingSpec,
    _characters_preserved,
    hw_embed,
    phase_embed_character,
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
    padic_ord_abs,
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


def wigner_table_complex_oracle(f: FiniteState, doubled: bool = False) -> np.ndarray:
    """``wigner_table(f, "wigner", doubled)`` as the complex FFT it takes the
    real part of, with the imaginary rounding noise kept: the table's kernel
    before the table became float64."""
    n = f.n
    v = fq.to_position(f).amplitudes
    ka = _dilation(n, fq._parity_k(n, doubled), 2 * n if doubled else n)
    rows, cols = fq._reflect_indices(n)
    diag = np.fft.fft(v[rows] * v.conj()[cols], axis=1, norm="forward")  # [b, m]
    return diag[:, ka].T


def check_t0_oracle(poset: FinitePoset) -> bool:
    """``check_t0`` as antisymmetry, one pass over the elements: only a pair
    that divides both ways has no separating down-set.  Integers divide both
    ways iff they share |x|, and a canonical ``Supernatural`` divides back
    only itself, so distinct ones are always T0."""
    els = poset.elements
    keys = els if poset.leq is ps.sn_divides else map(abs, els)
    return len(set(keys)) == len(els)


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


def factorize_oracle(n: int) -> dict[int, int]:
    """``factorize`` by trial division up to the square root, with no
    primality test on the cofactor."""
    out: dict[int, int] = {}
    m, f = n, 2
    while f * f <= m:
        while m % f == 0:
            out[f] = out.get(f, 0) + 1
            m //= f
        f += 1 if f == 2 else 2
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


def ostrowski_product_oracle(q) -> Fraction:
    """``ostrowski_product`` as a ``Fraction`` product of |q| and each |q|_p."""
    q = Fraction(q)
    if q == 0:
        raise ValueError("q must be nonzero")
    out = abs(q)
    for p in set(factorize(abs(q.numerator))) | set(factorize(q.denominator)):
        _, absp = padic_ord_abs(q, p)
        out *= absp
    return out


# The verify suites one sample (pair, chain, draw or poset) at a time, as they
# were before their stacks: each returns what its stacked suite must return.


def suite_fourier_oracle(cfg: vf.VerifyConfig) -> list[vf.CheckResult]:
    rep = vf._Reporter("fourier", cfg.tolerance)
    rng = np.random.default_rng(cfg.seed)
    for n in range(2, 31):
        for _ in range(cfg.samples):
            f = fq.random_state(n, rng)
            g = fq.random_state(n, rng)
            f4 = fq.fourier(fq.fourier(fq.fourier(fq.fourier(f))))
            rep.gap("fourier_fourth_power_is_identity", f4.amplitudes, f.amplitudes, 1e-10)
            parseval = abs(fq.inner(f, g) - fq.inner(fq.fourier(f), fq.fourier(g)))
            rep.case("parseval", parseval, 1e-12)
    return rep.done()


def suite_good_oracle(cfg: vf.VerifyConfig) -> list[vf.CheckResult]:
    rep = vf._Reporter("good", cfg.tolerance)
    rng = np.random.default_rng(cfg.seed + 1)
    name = "good_factorization_matches_direct"
    for n in (6, 10, 12, 15, 30, 36):
        w = np.sqrt(n) * fq.fourier_matrix(n)
        for r in (POSITION, MOMENTUM):
            for _ in range(cfg.samples):
                f = fq.random_state(n, rng, rep=r)
                want = f.measure_weight * (w @ f.amplitudes)
                for g in (fq.fourier_good(f), fq.fourier(f)):
                    rep.gap(name, g.amplitudes, want, 1e-10)
    for r in (POSITION, MOMENTUM):
        f = fq.random_state(2 * 3 * 5 * 7 * 11 * 13, rng, rep=r)
        want = fq.fourier(f).amplitudes
        gap = np.max(np.abs(fq.fourier_good(f).amplitudes - want))
        rep.case(name, gap / np.max(np.abs(want)), 1e-10)
    return rep.done()


def suite_tomography_oracle(cfg: vf.VerifyConfig) -> list[vf.CheckResult]:
    rep = vf._Reporter("tomography", cfg.tolerance)
    rng = np.random.default_rng(cfg.seed + 3)
    for n in range(2, 13):
        for _ in range(cfg.samples):
            theta = fq.random_operator(n, rng)
            rep.case("resolution_of_identity", fq.resolution_identity_check(theta), 1e-9)
            _, r = fq.operator_expand(theta)
            rep.case("displacement_expansion", r, 1e-9)
    for n in range(2, 7):
        theta = fq.random_operator(n, rng)
        disp = fq._displacement_grid(n).reshape(-1, n, n)
        acc = sum(d @ theta @ d.conj().T for d in disp) / n
        rep.gap("resolution_of_identity", acc, np.trace(theta) * np.eye(n), 1e-9)
        coeffs, _ = fq.operator_expand(theta)
        want = np.array([np.trace(d.conj().T @ theta) for d in disp])
        rep.gap("displacement_expansion", coeffs.ravel(), want, 1e-9)
    for n in range(2, 9):
        for r in (POSITION, MOMENTUM):
            f = fq.random_state(n, rng, rep=r)
            vf._table_cases(rep, "displacement_expansion", f, "weyl")
    return rep.done()


def suite_parity_oracle(cfg: vf.VerifyConfig) -> list[vf.CheckResult]:
    rep = vf._Reporter("parity", cfg.tolerance)
    rng = np.random.default_rng(cfg.seed + 4)
    for n in range(2, 13):
        for a in range(n):
            p = fq._parity_matrices([fq.PhasePoint(n, a, b) for b in range(n)])
            rep.gap("parity_squares_to_identity", p @ p, np.eye(n), 1e-12)
            rep.gap("parity_hermitian", p, p.conj().transpose(0, 2, 1), 1e-12)
    for n in (3, 5, 7, 9, 11):
        for _ in range(max(cfg.samples // 4, 2)):
            out = fq.parity_expand_check(fq.random_operator(n, rng))
            rep.case("parity_displacement_expansion", out.expansion_residual, 1e-9)
            rep.case("parity_sandwich_trace", out.sandwich_residual, 1e-9)
            rep.case("parity_tomography", out.tomography_residual, 1e-9)
    for n in range(2, 9):
        for r in (POSITION, MOMENTUM):
            f = fq.random_state(n, rng, rep=r)
            vf._table_cases(rep, "parity_tomography", f, "wigner")
            if n % 2 == 0:
                vf._table_cases(rep, "parity_tomography", f, "wigner", doubled=True)
    for n in (3, 5):
        theta = fq.random_operator(n, rng)
        par = fq._parity_matrices([fq.PhasePoint(n, a, b) for a in range(n) for b in range(n)])
        w = fq._unit(2 * np.outer(np.arange(n), np.arange(n)), n)
        grid = fq._displacement_grid(n)
        expansion = np.einsum("pb,aq,pqxy->abxy", w, w.conj(), grid) / n
        rep.gap("parity_displacement_expansion", par, expansion.reshape(-1, n, n), 1e-9)
        sandwich = sum(p @ theta @ p for p in par) / n
        tomo = sum(p * np.trace(theta @ p) for p in par) / n
        rep.gap("parity_sandwich_trace", sandwich, np.trace(theta) * np.eye(n), 1e-9)
        rep.gap("parity_tomography", tomo, theta, 1e-9)
    return rep.done()


def suite_coherent_oracle(cfg: vf.VerifyConfig) -> list[vf.CheckResult]:
    rep = vf._Reporter("coherent", cfg.tolerance)
    rng = np.random.default_rng(cfg.seed + 6)
    name = "coherent_resolution_of_identity"
    for n in range(2, 13):
        for _ in range(max(cfg.samples // 2, 10)):
            rep.case(name, fq.coherent_check(fq.random_state(n, rng)), 1e-9)
    for n in range(2, 7):
        g = fq.random_state(n, rng)
        vs = fq._displacement_grid(n).reshape(-1, n, n) @ g.amplitudes
        acc = sum(np.outer(v, v.conj()) for v in vs) * (g.measure_weight / n)
        rep.gap(name, acc, np.eye(n), 1e-9)
    return rep.done()


def suite_hw_oracle(cfg: vf.VerifyConfig) -> list[vf.CheckResult]:
    rep = vf._Reporter("hw", cfg.tolerance)
    rng = np.random.default_rng(cfg.seed + 2)
    pairs = max(cfg.samples * 10, 20)
    for n in range(2, 17):
        left, right, prod = [], [], []
        for _ in range(pairs):
            a1, b1, g1, a2, b2, g2 = (int(v) for v in rng.integers(0, n, 6))
            d1 = fq.HWElement.from_canonical(n, a1, b1, g1)
            d2 = fq.HWElement.from_canonical(n, a2, b2, g2)
            left.append(d1)
            right.append(d2)
            prod.append(fq.hw_mul(d1, d2))
        rhs = fq._hw_matrices(left) @ fq._hw_matrices(right)
        rep.gap("group_law_matches_matrices", fq._hw_matrices(prod), rhs, 1e-12)

    for n in range(2, 17):
        z, x = fq.hw_z(n), fq.hw_x(n)
        el = fq.hw_mul(fq.hw_mul(z, x), fq.hw_mul(fq.hw_adjoint(z), fq.hw_adjoint(x)))
        exact = el.alpha == 0 and el.beta == 0 and el.phase == nm.RatMod1(1, n)
        rep.exact("zx_commutator_exact_phase", exact)
        mz, mx = fq._hw_matrices([z, x])
        m = mz @ mx @ mz.conj().T @ mx.conj().T
        rep.gap("zx_commutator_matrices", m, fq._unit(1, n) * np.eye(n), 1e-12)
    return rep.done()


def suite_embeddings_oracle(cfg: vf.VerifyConfig) -> list[vf.CheckResult]:
    """The compat laws chain by chain through ``compat_suite_oracle``, and
    the ubiquity checks pair by pair through ``ubiquity_check_oracle``."""
    rep = vf._Reporter("embeddings", cfg.tolerance)
    rng = np.random.default_rng(cfg.seed + 7)
    for k, ell, m in vf._divisor_chains(vf._LABEL_LIMIT):
        for law, residual in compat_suite_oracle(k, ell, m, rng).items():
            name, tol = vf._COMPAT_CHECKS[law]
            rep.case(name, residual, tol)
        if m <= vf._CHARACTER_ORACLE_MAX:
            spec, grid = EmbeddingSpec(k, ell), range(min(k, 8))
            ok = all(phase_embed_character((x, fp), spec) for x in grid for fp in grid)
            rep.exact("character_preservation_exact", ok)

    rng2 = np.random.default_rng(cfg.seed + 8)
    for k, r in vf._ubiquity_pairs():
        f = fq.random_state(k, rng2)
        for quantity, residual in ubiquity_check_oracle(f, EmbeddingSpec(k, r), rng2).items():
            name, tol = vf._UBIQUITY_CHECKS[quantity]
            rep.case(name, residual, tol)
    return rep.done()


def suite_numbers_oracle(cfg: vf.VerifyConfig) -> list[vf.CheckResult]:
    """Two scalar draws per Ostrowski case, and the ``Fraction`` product."""
    rep = vf._Reporter("numbers", cfg.tolerance)
    rng = np.random.default_rng(cfg.seed + 9)

    rep.exact(
        "minus_one_digit_pattern",
        all(nm.PadicInt.from_int(-1, p, 6).digits == (p - 1,) * 6 for p in (2, 3, 5, 7)),
    )

    for _ in range(1000):
        num = int(rng.integers(-(10**6), 10**6)) or 1
        den = int(rng.integers(1, 10**6))
        rep.exact("ostrowski_product_is_one", ostrowski_product_oracle(Fraction(num, den)) == 1)

    for n in range(2, 1001):
        v = np.arange(n)
        dims = tuple(f.q for f in nm.crt_idempotents(n))
        mu = nm.crt_split_mu(n, v)
        nu = nm.crt_split_nu_hat(n, v)
        rep.exact(
            "crt_round_trips_bijective",
            np.array_equal(nm.crt_join_mu(n, mu), v)
            and np.array_equal(nm.crt_join_nu_hat(n, nu), v)
            and all(
                np.all(np.bincount(np.ravel_multi_index(c, dims), minlength=n) == 1)
                for c in (mu, nu)
            ),
        )

    for n in (6, 12, 15):
        factors = nm.crt_idempotents(n)
        for mu in range(n):
            for nu in range(n):
                lhs = nm.char_omega(n, mu * nu)
                rhs = nm.ZERO_MOD1
                for f, m_i, n_i in zip(factors, nm.crt_split_mu(n, mu), nm.crt_split_nu_hat(n, nu)):
                    rhs = rhs + nm.char_omega(f.q, n_i * m_i)
                rep.exact("character_factorization_exact", lhs == rhs)
    return rep.done()
