"""The verification harness behind ``pqm verify``.

Each suite runs a family of structural identities at pinned tolerances and
returns one result per check.  All randomness flows from a single seed, so a
report is reproducible bit for bit; the report ordering is stable (sorted by
check name within each suite).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import finiteqm as fq
from . import numbers as nm
from . import poset as ps
from . import schwartz_bruhat as sb
from .embeddings import EmbeddingSpec, compat_suite, ubiquity_check
from .finiteqm import MOMENTUM, POSITION

SUITES = (
    "fourier",
    "good",
    "hw",
    "tomography",
    "parity",
    "marginals",
    "coherent",
    "embeddings",
    "numbers",
    "poset",
    "schwartz",
)


@dataclass(frozen=True)
class VerifyConfig:
    suites: tuple[str, ...] = SUITES
    max_n: int = 12
    samples: int = 20
    seed: int = 0
    tolerance: float | None = None  # overrides every per-check tolerance
    even_n_exploratory: bool = False
    poset_limit: int = 10**4

    def __post_init__(self) -> None:
        if self.tolerance is not None and self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if self.max_n < 2:
            raise ValueError("max dimension must be >= 2")
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if self.poset_limit < 2:
            raise ValueError("poset limit must be >= 2")
        unknown = set(self.suites) - set(SUITES)
        if unknown:
            raise ValueError(f"unknown suites: {sorted(unknown)}")


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    residual: float
    tolerance: float
    passed: bool


class _Reporter:
    def __init__(self, suite: str, override: float | None) -> None:
        self.suite = suite
        self.override = override
        self.results: list[CheckResult] = []

    def add(self, name: str, residual: float, tolerance: float) -> None:
        tol = self.override if self.override is not None else tolerance
        residual = float(residual)
        self.results.append(
            CheckResult(self.suite, name, residual, tol, residual <= tol)
        )

    def done(self) -> list[CheckResult]:
        return sorted(self.results, key=lambda r: r.name)


# --- Fourier involution and Parseval ---------------------------------------


def suite_fourier(cfg: VerifyConfig) -> list[CheckResult]:
    rep = _Reporter("fourier", cfg.tolerance)
    rng = np.random.default_rng(cfg.seed)
    inv_res = 0.0
    par_res = 0.0
    for n in range(2, 31):
        for _ in range(cfg.samples):
            f = fq.random_state(n, rng)
            g = fq.random_state(n, rng)
            f4 = fq.fourier(fq.fourier(fq.fourier(fq.fourier(f))))
            inv_res = max(inv_res, float(np.max(np.abs(f4.amplitudes - f.amplitudes))))
            par_res = max(
                par_res,
                abs(fq.inner(f, g) - fq.inner(fq.fourier(f), fq.fourier(g))),
            )
    rep.add("fourier_fourth_power_is_identity", inv_res, 1e-10)
    rep.add("parseval", par_res, 1e-12)
    return rep.done()


# --- Good's prime-factor factorization -------------------------------------


def suite_good(cfg: VerifyConfig) -> list[CheckResult]:
    rep = _Reporter("good", cfg.tolerance)
    rng = np.random.default_rng(cfg.seed + 1)
    res = 0.0
    # both FFT paths against the dense matrix oracle at small n
    for n in (6, 10, 12, 15, 30, 36):
        w = np.sqrt(n) * fq.fourier_matrix(n)
        for r in (POSITION, MOMENTUM):
            for _ in range(cfg.samples):
                f = fq.random_state(n, rng, rep=r)
                want = f.measure_weight * (w @ f.amplitudes)
                for g in (fq.fourier_good(f), fq.fourier(f)):
                    res = max(res, float(np.max(np.abs(g.amplitudes - want))))
    # Good against the single FFT at a large mixed radix, relative to the peak
    for r in (POSITION, MOMENTUM):
        f = fq.random_state(2 * 3 * 5 * 7 * 11 * 13, rng, rep=r)
        want = fq.fourier(f).amplitudes
        gap = np.max(np.abs(fq.fourier_good(f).amplitudes - want))
        res = max(res, float(gap / np.max(np.abs(want))))
    rep.add("good_factorization_matches_direct", res, 1e-10)
    return rep.done()


# --- Heisenberg-Weyl group law ----------------------------------------------


def suite_hw(cfg: VerifyConfig) -> list[CheckResult]:
    rep = _Reporter("hw", cfg.tolerance)
    rng = np.random.default_rng(cfg.seed + 2)
    res = 0.0
    pairs = max(cfg.samples * 10, 20)
    for n in range(2, 17):
        for _ in range(pairs):
            a1, b1, g1, a2, b2, g2 = (int(v) for v in rng.integers(0, n, 6))
            d1 = fq.HWElement.from_canonical(n, a1, b1, g1)
            d2 = fq.HWElement.from_canonical(n, a2, b2, g2)
            lhs = fq.hw_matrix(fq.hw_mul(d1, d2))
            rhs = fq.hw_matrix(d1) @ fq.hw_matrix(d2)
            res = max(res, float(np.max(np.abs(lhs - rhs))))
    rep.add("group_law_matches_matrices", res, 1e-12)

    exact = True
    mat_res = 0.0
    for n in range(2, 17):
        z, x = fq.hw_z(n), fq.hw_x(n)
        el = fq.hw_mul(fq.hw_mul(z, x), fq.hw_mul(fq.hw_adjoint(z), fq.hw_adjoint(x)))
        exact = exact and el.alpha == 0 and el.beta == 0 and el.phase == nm.RatMod1(1, n)
        m = (
            fq.hw_matrix(z)
            @ fq.hw_matrix(x)
            @ fq.hw_matrix(z).conj().T
            @ fq.hw_matrix(x).conj().T
        )
        w = np.exp(2j * np.pi / n)
        mat_res = max(mat_res, float(np.max(np.abs(m - w * np.eye(n)))))
    rep.add("zx_commutator_exact_phase", 0.0 if exact else 1.0, 0.0)
    rep.add("zx_commutator_matrices", mat_res, 1e-12)
    return rep.done()


# --- resolution of identity and operator expansion --------------------------


def _displacements(n: int) -> list[np.ndarray]:
    """Every D(a, b, 0) position matrix, one point at a time (the oracle)."""
    return [
        fq.hw_matrix(fq.HWElement.from_canonical(n, a, b, 0))
        for a in range(n)
        for b in range(n)
    ]


def _table_gap(f: fq.FiniteState, kind: str, doubled: bool = False) -> float:
    """Max gap of ``wigner_table`` against ``weyl_wigner`` at every point."""
    table = fq.wigner_table(f, kind, doubled)
    return max(
        abs(table[a, b] - fq.weyl_wigner(f, a, b, kind, doubled))
        for a in range(table.shape[0])
        for b in range(f.n)
    )


def suite_tomography(cfg: VerifyConfig) -> list[CheckResult]:
    rep = _Reporter("tomography", cfg.tolerance)
    rng = np.random.default_rng(cfg.seed + 3)
    res_resolution = 0.0
    res_expand = 0.0
    for n in range(2, min(cfg.max_n, 12) + 1):
        for _ in range(cfg.samples):
            theta = fq.random_operator(n, rng)
            res_resolution = max(res_resolution, fq.resolution_identity_check(theta))
            _, r = fq.operator_expand(theta)
            res_expand = max(res_expand, r)
    # brute-force oracles, one sample per n: the sums over explicit matrices
    for n in range(2, min(cfg.max_n, 6) + 1):
        theta = fq.random_operator(n, rng)
        disp = _displacements(n)
        acc = sum(d @ theta @ d.conj().T for d in disp) / n
        res_resolution = max(
            res_resolution, float(np.max(np.abs(acc - np.trace(theta) * np.eye(n))))
        )
        coeffs, _ = fq.operator_expand(theta)
        want = np.array([np.trace(d.conj().T @ theta) for d in disp])
        res_expand = max(res_expand, float(np.max(np.abs(coeffs.ravel() - want))))
    for n in range(2, min(cfg.max_n, 8) + 1):
        for r in (POSITION, MOMENTUM):
            res_expand = max(res_expand, _table_gap(fq.random_state(n, rng, rep=r), "weyl"))
    rep.add("resolution_of_identity", res_resolution, 1e-9)
    rep.add("displacement_expansion", res_expand, 1e-9)
    return rep.done()


# --- parity operators --------------------------------------------------------


def suite_parity(cfg: VerifyConfig) -> list[CheckResult]:
    rep = _Reporter("parity", cfg.tolerance)
    rng = np.random.default_rng(cfg.seed + 4)
    invol = 0.0
    herm = 0.0
    for n in range(2, min(cfg.max_n, 12) + 1):
        grids = [False] if n % 2 else ([False, True] if cfg.even_n_exploratory else [False])
        for doubled in grids:
            a_range = 2 * n if doubled else n
            for a in range(a_range):
                for b in range(n):
                    p = fq.parity_matrix(fq.PhasePoint(n, a, b, doubled))
                    invol = max(invol, float(np.max(np.abs(p @ p - np.eye(n)))))
                    herm = max(herm, float(np.max(np.abs(p - p.conj().T))))
    rep.add("parity_squares_to_identity", invol, 1e-12)
    rep.add("parity_hermitian", herm, 1e-12)

    exp_res = 0.0
    sand_res = 0.0
    tomo_res = 0.0
    for n in (3, 5, 7, 9, 11):
        for _ in range(max(cfg.samples // 4, 2)):
            theta = fq.random_operator(n, rng)
            out = fq.parity_expand_check(theta)
            exp_res = max(exp_res, out.expansion_residual)
            sand_res = max(sand_res, out.sandwich_residual)
            tomo_res = max(tomo_res, out.tomography_residual)
    # brute-force oracles: the Wigner table point by point, and the sandwich
    # and tomography sums over explicit parity matrices
    for n in range(2, min(cfg.max_n, 8) + 1):
        for r in (POSITION, MOMENTUM):
            f = fq.random_state(n, rng, rep=r)
            tomo_res = max(tomo_res, _table_gap(f, "wigner"))
            if n % 2 == 0:
                tomo_res = max(tomo_res, _table_gap(f, "wigner", doubled=True))
    for n in (3, 5):
        theta = fq.random_operator(n, rng)
        par = [fq.parity_matrix(fq.PhasePoint(n, a, b)) for a in range(n) for b in range(n)]
        sandwich = sum(p @ theta @ p for p in par) / n
        tomo = sum(p * np.trace(theta @ p) for p in par) / n
        tomo_res = max(
            tomo_res,
            float(np.max(np.abs(sandwich - np.trace(theta) * np.eye(n)))),
            float(np.max(np.abs(tomo - theta))),
        )
    rep.add("parity_displacement_expansion", exp_res, 1e-9)
    rep.add("parity_sandwich_trace", sand_res, 1e-9)
    rep.add("parity_tomography", tomo_res, 1e-9)
    return rep.done()


# --- marginal operators ------------------------------------------------------


def suite_marginals(cfg: VerifyConfig) -> list[CheckResult]:
    rep = _Reporter("marginals", cfg.tolerance)
    rng = np.random.default_rng(cfg.seed + 5)
    a_res = 0.0
    for n in range(2, 17):
        gt = fq.random_state(n, rng, rep=MOMENTUM)
        ft = fq.random_state(n, rng, rep=MOMENTUM)
        for a in range(n):
            got = fq.momentum_pairing(
                gt.amplitudes, fq.marginal_a_matrix(n, a), ft.amplitudes
            )
            a_res = max(
                a_res, abs(got - fq.marginal_a_expected(gt.amplitudes, ft.amplitudes, a))
            )
    rep.add("marginal_a_pairing", a_res, 1e-12)

    b_res = 0.0
    for n in (3, 5, 7, 9, 15, 2, 4, 8, 16):
        gt = fq.random_state(n, rng, rep=MOMENTUM)
        ft = fq.random_state(n, rng, rep=MOMENTUM)
        g_pos = fq.to_position(gt).amplitudes
        f_pos = fq.to_position(ft).amplitudes
        b_range = 2 * n if n % 2 == 0 else n
        for b in range(b_range):
            got = fq.momentum_pairing(
                gt.amplitudes, fq.marginal_b_matrix(n, b), ft.amplitudes
            )
            want = fq.marginal_b_expected(
                g_pos, f_pos, gt.amplitudes, ft.amplitudes, b
            )
            b_res = max(b_res, abs(got - want))
    rep.add("marginal_b_pairing_with_hat", b_res, 1e-12)

    cc_res = 0.0
    for n in (3, 5, 7, 9, 11, 15):
        gt = fq.random_state(n, rng, rep=MOMENTUM)
        ft = fq.random_state(n, rng, rep=MOMENTUM)
        g_pos = fq.to_position(gt).amplitudes
        f_pos = fq.to_position(ft).amplitudes
        for a in range(n):
            got = fq.momentum_pairing(
                gt.amplitudes, fq.parity_marginal_a_matrix(n, a), ft.amplitudes
            )
            want = gt.amplitudes[(-2 * a) % n].conjugate() * ft.amplitudes[(-2 * a) % n]
            cc_res = max(cc_res, abs(got - want))
        for b in range(n):
            got = fq.momentum_pairing(
                gt.amplitudes, fq.parity_marginal_b_matrix(n, b), ft.amplitudes
            )
            want = g_pos[(-b) % n].conjugate() * f_pos[(-b) % n]
            cc_res = max(cc_res, abs(got - want))
    rep.add("parity_marginal_pairings", cc_res, 1e-9)
    return rep.done()


# --- coherent states ----------------------------------------------------------


def suite_coherent(cfg: VerifyConfig) -> list[CheckResult]:
    rep = _Reporter("coherent", cfg.tolerance)
    rng = np.random.default_rng(cfg.seed + 6)
    res = 0.0
    for n in range(2, min(cfg.max_n, 12) + 1):
        for _ in range(max(cfg.samples // 2, 10)):
            res = max(res, fq.coherent_check(fq.random_state(n, rng)))
    # brute-force oracle, one fiducial per n: the explicit outer-product sum
    for n in range(2, min(cfg.max_n, 6) + 1):
        g = fq.random_state(n, rng)
        vs = [d @ g.amplitudes for d in _displacements(n)]
        acc = sum(np.outer(v, v.conj()) for v in vs) * (g.measure_weight / n)
        res = max(res, float(np.max(np.abs(acc - np.eye(n)))))
    rep.add("coherent_resolution_of_identity", res, 1e-9)
    return rep.done()


# --- embeddings and ubiquity ---------------------------------------------------


def _divisor_chains(limit: int):
    for m in range(2, limit + 1):
        divisors = [d for d in range(2, m + 1) if m % d == 0]
        for ell in divisors:
            for k in (d for d in divisors if ell % d == 0):
                yield k, ell, m


def suite_embeddings(cfg: VerifyConfig, label_limit: int = 64) -> list[CheckResult]:
    rep = _Reporter("embeddings", cfg.tolerance)
    rng = np.random.default_rng(cfg.seed + 7)
    comp_res = 0.0
    four_res = 0.0
    hw_res = 0.0
    chars_ok = True
    for k, ell, m in _divisor_chains(label_limit):
        for r in compat_suite(k, ell, m, rng=rng, samples=2):
            if r.name == "composition":
                comp_res = max(comp_res, r.residual)
            elif r.name == "fourier_intertwining":
                four_res = max(four_res, r.residual)
            elif r.name == "hw_intertwining":
                hw_res = max(hw_res, r.residual)
            elif r.name == "character_preservation":
                chars_ok = chars_ok and r.passed
    rep.add("composition_exact", comp_res, 0.0)
    rep.add("fourier_intertwining", four_res, 1e-10)
    rep.add("hw_intertwining", hw_res, 1e-10)
    rep.add("character_preservation_exact", 0.0 if chars_ok else 1.0, 0.0)

    norm_res = 0.0
    ww_res = 0.0
    ent_res = 0.0
    pairs = [(k, r) for k in range(2, 17) for r in range(k, label_limit + 1, k) if r > k]
    rng2 = np.random.default_rng(cfg.seed + 8)
    for k, r in pairs[:: max(1, len(pairs) // 40)]:
        f = fq.random_state(k, rng2)
        spec = EmbeddingSpec(k, r)
        _, dev = ubiquity_check("norm", f, spec)
        norm_res = max(norm_res, dev)
        _, dev = ubiquity_check("weyl", f, spec, rng=rng2)
        ww_res = max(ww_res, dev)
        _, dev = ubiquity_check("wigner", f, spec, rng=rng2)
        ww_res = max(ww_res, dev)
        _, dev = ubiquity_check("position_entropy", f, spec)
        ent_res = max(ent_res, dev)
    rep.add("ubiquity_norm", norm_res, 1e-15)
    rep.add("ubiquity_weyl_wigner", ww_res, 1e-12)
    rep.add("ubiquity_entropy", ent_res, 1e-12)
    return rep.done()


# --- p-adic and CRT arithmetic --------------------------------------------------


def suite_numbers(cfg: VerifyConfig) -> list[CheckResult]:
    rep = _Reporter("numbers", cfg.tolerance)
    rng = np.random.default_rng(cfg.seed + 9)

    ok = all(
        nm.PadicInt.from_int(-1, p, 6).digits == (p - 1,) * 6 for p in (2, 3, 5, 7)
    )
    rep.add("minus_one_digit_pattern", 0.0 if ok else 1.0, 0.0)

    ok = True
    for _ in range(1000):
        num = int(rng.integers(-(10**6), 10**6)) or 1
        den = int(rng.integers(1, 10**6))
        ok = ok and nm.ostrowski_product(Fraction(num, den)) == 1
    rep.add("ostrowski_product_is_one", 0.0 if ok else 1.0, 0.0)

    ok = True
    for n in range(2, 1001):
        v = np.arange(n)
        dims = tuple(f.q for f in nm.crt_idempotents(n))
        mu = nm.crt_split_mu(n, v)
        nu = nm.crt_split_nu_hat(n, v)
        ok = ok and (
            np.array_equal(nm.crt_join_mu(n, mu), v)
            and np.array_equal(nm.crt_join_nu_hat(n, nu), v)
            # a bijection onto the component grid: each flat index hit once
            and all(
                np.all(np.bincount(np.ravel_multi_index(c, dims), minlength=n) == 1)
                for c in (mu, nu)
            )
        )
    rep.add("crt_round_trips_bijective", 0.0 if ok else 1.0, 0.0)

    ok = True
    for n in (6, 12, 15):
        factors = nm.crt_idempotents(n)
        for mu in range(n):
            for nu in range(n):
                lhs = nm.char_omega(n, mu * nu)
                mus = nm.crt_split_mu(n, mu)
                nus = nm.crt_split_nu_hat(n, nu)
                rhs = nm.ZERO_MOD1
                for f, m_i, n_i in zip(factors, mus, nus):
                    rhs = rhs + nm.char_omega(f.q, n_i * m_i)
                ok = ok and lhs == rhs
    rep.add("character_factorization_exact", 0.0 if ok else 1.0, 0.0)
    return rep.done()


# --- divisor posets and topology -------------------------------------------------


def suite_poset(cfg: VerifyConfig) -> list[CheckResult]:
    rep = _Reporter("poset", cfg.tolerance)
    limit = cfg.poset_limit

    divisors: list[list[int]] = [[] for _ in range(limit + 1)]
    for d in range(2, limit + 1):
        for mult in range(d, limit + 1, d):
            divisors[mult].append(d)

    t0_ok = True
    t1_ok = True
    for n in range(2, limit + 1):
        p = ps.FinitePoset(tuple(divisors[n]))
        t0_ok = t0_ok and ps.check_t0(p)
        is_t1, witness = ps.check_t1(p)
        if len(p) > 1:
            # any non-singleton divisor universe has a strict pair, so T1
            # must fail and the reported witness must be a strict pair
            ok = not is_t1 and witness is not None
            if ok:
                m, x = witness
                ok = m != x and x % m == 0
            t1_ok = t1_ok and ok
        else:
            # N(prime) is a single point: T1 holds vacuously
            t1_ok = t1_ok and is_t1
    rep.add("t0_everywhere", 0.0 if t0_ok else 1.0, 0.0)
    rep.add("t1_fails_with_witness_for_composite", 0.0 if t1_ok else 1.0, 0.0)

    r12 = ps.poset_width_length(ps.divisor_poset(12))
    r36 = ps.poset_width_length(ps.divisor_poset(36))
    ok = r12.width == 2 and r36.width == 3 and r36.length == 4
    rep.add("width_length_oracle_values", 0.0 if ok else 1.0, 0.0)

    ok = all(
        ps.sn_sup(ps.PrimePowerChain(p)) == ps.Supernatural.prime_power(p, ps.INF)
        for p in (2, 3, 5)
    ) and ps.sn_sup(ps.OmegaChain()) == ps.OMEGA
    rep.add("symbolic_suprema", 0.0 if ok else 1.0, 0.0)
    return rep.done()


# --- Schwartz-Bruhat functions ----------------------------------------------------


def suite_schwartz(cfg: VerifyConfig) -> list[CheckResult]:
    rep = _Reporter("schwartz", cfg.tolerance)
    rng = np.random.default_rng(cfg.seed + 10)

    refine_res = 0.0
    refine_int_res = 0.0
    swap_ok = True
    for _ in range(100):
        p = int(rng.choice([2, 3, 5]))
        d = int(rng.integers(0, 3))
        side = POSITION if rng.integers(0, 2) else MOMENTUM
        vals = rng.standard_normal(p**d) + 1j * rng.standard_normal(p**d)
        f = sb.LocalSBFunction(p, side, d, tuple(vals))
        # on integer-valued functions the float sums are exact, so the
        # refinement identity holds bit for bit
        ivals = tuple(complex(int(v)) for v in rng.integers(-50, 50, p**d))
        fi = sb.LocalSBFunction(p, side, d, ivals)
        for d2 in (d + 1, d + 2):
            g = sb.refine(f, d2)
            refine_res = max(
                refine_res, abs(sb.integrate_local(g) - sb.integrate_local(f))
            )
            refine_int_res = max(
                refine_int_res,
                abs(sb.integrate_local(sb.refine(fi, d2)) - sb.integrate_local(fi)),
            )
        ft = sb.local_fourier(f)
        swap_ok = swap_ok and ft.degree == d and ft.side != side
    rep.add("degree_refinement_invariance", refine_res, 1e-12)
    rep.add("degree_refinement_invariance_integer_exact", refine_int_res, 0.0)
    rep.add("fourier_degree_swap", 0.0 if swap_ok else 1.0, 0.0)

    iso_res = 0.0
    for _ in range(20):
        terms = []
        for _ in range(int(rng.integers(1, 4))):
            coeff = complex(rng.standard_normal(), rng.standard_normal())
            factors = {}
            for p in (2, 3):
                d = int(rng.integers(1, 3))
                v = rng.standard_normal(p**d) + 1j * rng.standard_normal(p**d)
                factors[p] = sb.LocalSBFunction(p, POSITION, d, tuple(v))
            terms.append((coeff, factors))
        f = sb.GlobalSBFunction(POSITION, tuple(terms))
        st = sb.canonicalize_global(f)
        iso_res = max(iso_res, abs(sb.global_inner(f, f) - fq.inner(st, st)))
    rep.add("canonicalization_isometry", iso_res, 1e-12)
    return rep.done()


_SUITE_FUNCS = {
    "fourier": suite_fourier,
    "good": suite_good,
    "hw": suite_hw,
    "tomography": suite_tomography,
    "parity": suite_parity,
    "marginals": suite_marginals,
    "coherent": suite_coherent,
    "embeddings": suite_embeddings,
    "numbers": suite_numbers,
    "poset": suite_poset,
    "schwartz": suite_schwartz,
}


def run_suites(cfg: VerifyConfig) -> list[CheckResult]:
    results: list[CheckResult] = []
    for name in cfg.suites:
        results.extend(_SUITE_FUNCS[name](cfg))
    return results


def report_dict(results: list[CheckResult], cfg: VerifyConfig) -> dict:
    return {
        "config": {
            "suites": list(cfg.suites),
            "max_n": cfg.max_n,
            "samples": cfg.samples,
            "seed": cfg.seed,
            "tolerance": cfg.tolerance,
            "even_n_exploratory": cfg.even_n_exploratory,
            "poset_limit": cfg.poset_limit,
        },
        "checks": [
            {
                "suite": r.suite,
                "name": r.name,
                "residual": r.residual,
                "tolerance": r.tolerance,
                "passed": r.passed,
            }
            for r in results
        ],
        "passed": all(r.passed for r in results),
    }
