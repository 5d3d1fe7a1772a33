"""The verification harness behind ``pqm verify``.

Each suite runs a family of structural identities at pinned tolerances and
returns one result per check.  All randomness flows from a single seed, so a
report is reproducible bit for bit; the report ordering is stable (sorted by
check name within each suite).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from fractions import Fraction

import numpy as np

from . import SUITES
from . import finiteqm as fq
from . import numbers as nm
from . import poset as ps
from . import schwartz_bruhat as sb
from .embeddings import (
    EmbeddingSpec,
    _compat_suites,
    _ubiquity_checks,
    _ubiquity_points,
    phase_embed_character,
)
# by name: perfbench's tracer swaps fq._displacement_grid for a counter that would raise
from .finiteqm import MOMENTUM, POSITION, _displacement_grid


@dataclass(frozen=True)
class VerifyConfig:
    suites: tuple[str, ...] = SUITES
    samples: int = 20
    seed: int = 0
    tolerance: float | None = None  # overrides every per-check tolerance

    def __post_init__(self) -> None:
        tol = self.tolerance
        if tol is not None and not (math.isfinite(tol) and tol > 0):
            raise ValueError("tolerance must be finite and positive")
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if self.seed < 0:  # each suite seeds numpy with seed + its offset
            raise ValueError("seed must be >= 0")
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
    """The worst residual of each check of one suite, case by case.

    A NaN case is the worst of all: once a check holds NaN no later case
    replaces it, so the check fails.  Ties keep the first value.
    """

    def __init__(self, suite: str, override: float | None) -> None:
        self.suite = suite
        self.override = override
        self.worst: dict[str, tuple[float, float]] = {}  # name -> (residual, tolerance)

    def case(self, name: str, residual: float, tol: float) -> None:
        residual = float(residual)
        worst = self.worst.get(name)
        if worst is None or residual > worst[0] or residual != residual:
            self.worst[name] = (residual, tol)

    def gap(self, name: str, got: np.ndarray, want: np.ndarray, tol: float) -> None:
        self.case(name, np.max(np.abs(got - want)), tol)

    def exact(self, name: str, ok: bool) -> None:
        self.case(name, float(not ok), 0.0)

    def done(self) -> list[CheckResult]:
        out = []
        for name, (residual, tol) in sorted(self.worst.items()):
            if self.override is not None:
                tol = self.override
            out.append(CheckResult(self.suite, name, residual, tol, residual <= tol))
        return out


def _random_states(rng, count: int, n: int, rep: str = POSITION) -> np.ndarray:
    """The values of ``count`` calls of ``fq.random_state(n, rng, rep)``, drawn
    in one call: [state, real/imaginary, x], normalized row by row as
    ``norm`` does, as a (count, n) stack."""
    d = rng.standard_normal((count, 2, n))
    v = d[:, 0] + 1j * d[:, 1]
    w = fq._measure_weight(n, rep)
    v /= np.reshape([math.sqrt(w * np.vdot(r, r).real) for r in v], (-1, 1))
    return v


def _random_operators(rng, count: int, n: int) -> np.ndarray:
    """The values of ``count`` calls of ``fq.random_operator(n, rng)``, drawn
    in one call, as a (count, n, n) stack."""
    d = rng.standard_normal((count, 2, n, n))
    return d[:, 0] + 1j * d[:, 1]


# --- Fourier involution and Parseval ---------------------------------------


def suite_fourier(cfg: VerifyConfig) -> list[CheckResult]:
    rep = _Reporter("fourier", cfg.tolerance)
    rng = np.random.default_rng(cfg.seed)
    for n in range(2, 31):
        # f and g of every sample, one after the other: [sample, f/g, x]
        v = _random_states(rng, 2 * cfg.samples, n).reshape(cfg.samples, 2, n)
        w = fq._measure_weight(n, POSITION)
        fv = fq._fourier_values(v, POSITION)
        f4 = fq._fourier_values(fv[:, 0], MOMENTUM)
        f4 = fq._fourier_values(fq._fourier_values(f4, POSITION), MOMENTUM)
        rep.gap("fourier_fourth_power_is_identity", f4, v[:, 0], 1e-10)
        # inner(f, g) against inner(F f, F g), row by row as inner does
        parseval = [
            abs(w * complex(np.vdot(f, g)) - complex(np.vdot(ff, fg)))
            for (f, g), (ff, fg) in zip(v, fv)
        ]
        rep.case("parseval", np.max(parseval), 1e-12)
    return rep.done()


# --- Good's prime-factor factorization -------------------------------------


def suite_good(cfg: VerifyConfig) -> list[CheckResult]:
    rep = _Reporter("good", cfg.tolerance)
    rng = np.random.default_rng(cfg.seed + 1)
    name = "good_factorization_matches_direct"
    # both FFT paths against the dense matrix oracle at small n, on the
    # stack of each n's samples
    for n in (6, 10, 12, 15, 30, 36):
        w = np.sqrt(n) * fq.fourier_matrix(n)
        for r in (POSITION, MOMENTUM):
            v = _random_states(rng, cfg.samples, n, r)
            # one matrix-vector product per row, as w @ f does
            want = fq._measure_weight(n, r) * np.matmul(w, v[:, :, None])[:, :, 0]
            for g in (fq._good_values(v, r), fq._fourier_values(v, r)):
                rep.gap(name, g, want, 1e-10)
    # Good against the single FFT at a large mixed radix, relative to the peak
    for r in (POSITION, MOMENTUM):
        f = fq.random_state(2 * 3 * 5 * 7 * 11 * 13, rng, rep=r)
        want = fq.fourier(f).amplitudes
        gap = np.max(np.abs(fq.fourier_good(f).amplitudes - want))
        rep.case(name, gap / np.max(np.abs(want)), 1e-10)
    return rep.done()


# --- Heisenberg-Weyl group law ----------------------------------------------


def suite_hw(cfg: VerifyConfig) -> list[CheckResult]:
    rep = _Reporter("hw", cfg.tolerance)
    rng = np.random.default_rng(cfg.seed + 2)
    pairs = max(cfg.samples * 10, 20)
    for n in range(2, 17):
        # the exact products pair by pair, then the matrices of all pairs
        # of this n in one stack, so one stacked product checks them
        left, right, prod = [], [], []
        for a1, b1, g1, a2, b2, g2 in rng.integers(0, n, (pairs, 6)).tolist():
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


# --- resolution of identity and operator expansion --------------------------


def _table_cases(rep: _Reporter, name: str, f, kind: str, doubled: bool = False) -> None:
    """``wigner_table`` against ``weyl_wigner``'s kernel on all its points at once, at 1e-9."""
    table = fq.wigner_table(f, kind, doubled)
    points = [(a, b) for a in range(table.shape[0]) for b in range(f.n)]
    elements = fq._point_elements(f.n, points, kind, doubled)
    values = fq._weyl_wigner_values(f.amplitudes[None], f.rep, *elements)
    for (a, b), value in zip(points, values):
        rep.case(name, abs(table[a, b] - value), 1e-9)


def suite_tomography(cfg: VerifyConfig) -> list[CheckResult]:
    rep = _Reporter("tomography", cfg.tolerance)
    rng = np.random.default_rng(cfg.seed + 3)
    for n in range(2, 13):
        theta = _random_operators(rng, cfg.samples, n)
        rep.case("resolution_of_identity", np.max(fq._resolution_residuals(theta)), 1e-9)
        _, r = fq._expand_stack(theta)
        rep.case("displacement_expansion", np.max(r), 1e-9)
    # brute-force oracles, one sample per n: the sums over explicit matrices
    for n in range(2, 7):
        theta = fq.random_operator(n, rng)
        disp = _displacement_grid(n).reshape(-1, n, n)
        acc = sum(d @ theta @ d.conj().T for d in disp) / n
        rep.gap("resolution_of_identity", acc, np.trace(theta) * np.eye(n), 1e-9)
        coeffs, _ = fq.operator_expand(theta)
        want = np.array([np.trace(d.conj().T @ theta) for d in disp])
        rep.gap("displacement_expansion", coeffs.ravel(), want, 1e-9)
    for n in range(2, 9):
        for r in (POSITION, MOMENTUM):
            _table_cases(rep, "displacement_expansion", fq.random_state(n, rng, rep=r), "weyl")
    return rep.done()


# --- parity operators --------------------------------------------------------


def suite_parity(cfg: VerifyConfig) -> list[CheckResult]:
    rep = _Reporter("parity", cfg.tolerance)
    rng = np.random.default_rng(cfg.seed + 4)
    for n in range(2, 13):
        # one stack per a-row: an n^2-matrix stack would leave the heap, and
        # so the peak RSS of a whole verify run, about 1 MB larger
        for a in range(n):
            p = fq._parity_matrices([fq.PhasePoint(n, a, b) for b in range(n)])
            rep.gap("parity_squares_to_identity", p @ p, np.eye(n), 1e-12)
            rep.gap("parity_hermitian", p, p.conj().transpose(0, 2, 1), 1e-12)

    for n in (3, 5, 7, 9, 11):
        theta = _random_operators(rng, max(cfg.samples // 4, 2), n)
        # parity_expand_check's expansion residual depends on n alone
        rep.case("parity_displacement_expansion", fq._parity_expansion_residual(n), 1e-9)
        sandwich, tomo = fq._parity_residuals(theta)
        rep.case("parity_sandwich_trace", np.max(sandwich), 1e-9)
        rep.case("parity_tomography", np.max(tomo), 1e-9)
    # brute-force oracles: the Wigner table point by point, and the expansion,
    # sandwich and tomography sums over explicit parity matrices
    for n in range(2, 9):
        for r in (POSITION, MOMENTUM):
            f = fq.random_state(n, rng, rep=r)
            _table_cases(rep, "parity_tomography", f, "wigner")
            if n % 2 == 0:
                _table_cases(rep, "parity_tomography", f, "wigner", doubled=True)
    for n in (3, 5):
        theta = fq.random_operator(n, rng)
        par = fq._parity_matrices([fq.PhasePoint(n, a, b) for a in range(n) for b in range(n)])
        # P(a, b) = (1/n) sum_{a', b'} e(2(a'b - ab')/n) D(a', b', 0); w[p, q] = e(2pq/n)
        w = fq._unit(2 * np.outer(np.arange(n), np.arange(n)), n)
        expansion = np.einsum("pb,aq,pqxy->abxy", w, w.conj(), _displacement_grid(n)) / n
        rep.gap("parity_displacement_expansion", par, expansion.reshape(-1, n, n), 1e-9)
        sandwich = sum(p @ theta @ p for p in par) / n
        tomo = sum(p * np.trace(theta @ p) for p in par) / n
        rep.gap("parity_sandwich_trace", sandwich, np.trace(theta) * np.eye(n), 1e-9)
        rep.gap("parity_tomography", tomo, theta, 1e-9)
    return rep.done()


# --- marginal operators ------------------------------------------------------


def suite_marginals(cfg: VerifyConfig) -> list[CheckResult]:
    rep = _Reporter("marginals", cfg.tolerance)
    rng = np.random.default_rng(cfg.seed + 5)
    for n in range(2, 17):
        gt = fq.random_state(n, rng, rep=MOMENTUM)
        ft = fq.random_state(n, rng, rep=MOMENTUM)
        for a in range(n):
            got = fq.momentum_pairing(
                gt.amplitudes, fq.marginal_a_matrix(n, a), ft.amplitudes
            )
            want = fq.marginal_a_expected(gt.amplitudes, ft.amplitudes, a)
            rep.case("marginal_a_pairing", abs(got - want), 1e-12)

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
            rep.case("marginal_b_pairing_with_hat", abs(got - want), 1e-12)

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
            rep.case("parity_marginal_pairings", abs(got - want), 1e-9)
        for b in range(n):
            got = fq.momentum_pairing(
                gt.amplitudes, fq.parity_marginal_b_matrix(n, b), ft.amplitudes
            )
            want = g_pos[(-b) % n].conjugate() * f_pos[(-b) % n]
            rep.case("parity_marginal_pairings", abs(got - want), 1e-9)
    return rep.done()


# --- coherent states ----------------------------------------------------------


def suite_coherent(cfg: VerifyConfig) -> list[CheckResult]:
    rep = _Reporter("coherent", cfg.tolerance)
    rng = np.random.default_rng(cfg.seed + 6)
    name = "coherent_resolution_of_identity"
    for n in range(2, 13):
        v = _random_states(rng, max(cfg.samples // 2, 10), n)
        rep.case(name, np.max(fq._coherent_residuals(v, POSITION)), 1e-9)
    # brute-force oracle, one fiducial per n: the explicit outer-product sum
    for n in range(2, 7):
        g = fq.random_state(n, rng)
        vs = _displacement_grid(n).reshape(-1, n, n) @ g.amplitudes
        acc = sum(np.outer(v, v.conj()) for v in vs) * (g.measure_weight / n)
        rep.gap(name, acc, np.eye(n), 1e-9)
    return rep.done()


# --- embeddings and ubiquity ---------------------------------------------------


def _divisor_chains(limit: int):
    for m in range(2, limit + 1):
        divisors = [d for d in range(2, m + 1) if m % d == 0]
        for ell in divisors:
            for k in (d for d in divisors if ell % d == 0):
                yield k, ell, m


_LABEL_LIMIT = 64  # the embeddings suite runs on systems Z(m), m <= this
_CHARACTER_ORACLE_MAX = 16  # and checks characters point by point for m <= this

# compat_suite law -> (check name, tolerance)
_COMPAT_CHECKS = {
    "composition": ("composition_exact", 0.0),
    "fourier_intertwining": ("fourier_intertwining", 1e-10),
    "hw_intertwining": ("hw_intertwining", 1e-10),
    "character_preservation": ("character_preservation_exact", 0.0),
}

# ubiquity_check quantity -> (check name, tolerance), in the order it returns them
_UBIQUITY_CHECKS = {
    "norm": ("ubiquity_norm", 1e-15),
    "weyl": ("ubiquity_weyl_wigner", 1e-12),
    "wigner": ("ubiquity_weyl_wigner", 1e-12),
    "position_entropy": ("ubiquity_entropy", 1e-12),
}


def _ubiquity_pairs() -> list[tuple[int, int]]:
    """The embeddings Z(k) -> Z(r) the ubiquity checks run on: an even spread
    over the pairs 2 <= k <= 16, k < r <= the label limit, k | r."""
    pairs = [(k, r) for k in range(2, 17) for r in range(k, _LABEL_LIMIT + 1, k) if r > k]
    return pairs[:: max(1, len(pairs) // 40)]


def suite_embeddings(cfg: VerifyConfig) -> list[CheckResult]:
    rep = _Reporter("embeddings", cfg.tolerance)
    rng = np.random.default_rng(cfg.seed + 7)
    chains = list(_divisor_chains(_LABEL_LIMIT))
    oracle_pairs = set()  # the character law reads (k, ell) alone
    for (k, ell, m), residuals in zip(chains, _compat_suites(chains, rng)):
        for law, residual in residuals.items():
            name, tol = _COMPAT_CHECKS[law]
            rep.case(name, residual, tol)
        if m <= _CHARACTER_ORACLE_MAX and (k, ell) not in oracle_pairs:
            oracle_pairs.add((k, ell))
            # the character law point by point, as exact Q/Z values
            spec, grid = EmbeddingSpec(k, ell), range(min(k, 8))
            ok = all(phase_embed_character((x, fp), spec) for x in grid for fp in grid)
            rep.exact("character_preservation_exact", ok)

    rng2 = np.random.default_rng(cfg.seed + 8)
    cases = []
    for k, r in _ubiquity_pairs():
        f = fq.random_state(k, rng2)
        cases.append((f, EmbeddingSpec(k, r), _ubiquity_points(k, rng2)))
    for residuals in _ubiquity_checks(cases):
        for quantity, residual in residuals.items():
            name, tol = _UBIQUITY_CHECKS[quantity]
            rep.case(name, residual, tol)
    return rep.done()


# --- p-adic and CRT arithmetic --------------------------------------------------


def suite_numbers(cfg: VerifyConfig) -> list[CheckResult]:
    rep = _Reporter("numbers", cfg.tolerance)
    rng = np.random.default_rng(cfg.seed + 9)

    rep.exact(
        "minus_one_digit_pattern",
        all(nm.PadicInt.from_int(-1, p, 6).digits == (p - 1,) * 6 for p in (2, 3, 5, 7)),
    )

    # each row is the two draws (num in [-10^6, 10^6), den in [1, 10^6)) one
    # after the other, as two scalar calls would make them
    for num, den in rng.integers((-(10**6), 1), 10**6, (1000, 2)).tolist():
        q = Fraction(num or 1, den)
        rep.exact("ostrowski_product_is_one", nm.ostrowski_product(q) == 1)

    for n in range(2, 1001):
        v = np.arange(n)
        dims = tuple(f.q for f in nm.crt_idempotents(n))
        mu = nm.crt_split_mu(n, v)
        nu = nm.crt_split_nu_hat(n, v)
        rep.exact(
            "crt_round_trips_bijective",
            np.array_equal(nm.crt_join_mu(n, mu), v)
            and np.array_equal(nm.crt_join_nu_hat(n, nu), v)
            # a bijection onto the component grid: each flat index hit once
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
                mus = nm.crt_split_mu(n, mu)
                nus = nm.crt_split_nu_hat(n, nu)
                rhs = nm.ZERO_MOD1
                for f, m_i, n_i in zip(factors, mus, nus):
                    rhs = rhs + nm.char_omega(f.q, n_i * m_i)
                rep.exact("character_factorization_exact", lhs == rhs)
    return rep.done()


# --- divisor posets and topology -------------------------------------------------


def suite_poset(cfg: VerifyConfig) -> list[CheckResult]:
    rep = _Reporter("poset", cfg.tolerance)
    r12 = ps.poset_width_length(ps.divisor_poset(12))
    r36 = ps.poset_width_length(ps.divisor_poset(36))
    ok = r12.width == 2 and r36.width == 3 and r36.length == 4
    rep.exact("width_length_oracle_values", ok)
    # the closed form against the matching: the same width, length and
    # antichain, and chains that cover N(n) once each, as few as the width;
    # T0 by the scan over all pairs (it holds by antisymmetry), and T1 by the
    # scan, the oracle of the closed form: a prime (2), p^2 | n (4), p q (6)
    for n in range(2, 121):
        p = ps.divisor_poset(n)
        rep.exact("t0_everywhere", ps.check_t0(p))
        rep.exact("t1_fails_with_witness_for_composite", ps.check_t1(p) == ps.divisor_t1(n))
        want, got = ps.poset_width_length(p), ps.divisor_width_length(n)
        chains = got.chain_partition
        ok = (got.width, got.length, got.max_antichain) == (
            want.width, want.length, want.max_antichain
        )
        ok = ok and len(chains) == want.width and ps.is_chain_partition(p, chains)
        rep.exact("width_length_oracle_values", ok)

    rep.exact("symbolic_suprema", _symbolic_suprema_hold())
    return rep.done()


def _symbolic_suprema_hold() -> bool:
    """Directed completeness on the symbolic chains: every p^j divides
    sup(p, p^2, ...) but not conversely, and each finite prefix has its last
    element as supremum; sup of the omega chain over S is the pointwise sup of
    the q^inf, q in S, and every q^inf divides the sup over all primes."""
    ok = True
    for p in (2, 3, 5):
        top = ps.sn_sup(ps.PrimePowerChain(p))
        powers = [ps.Supernatural.prime_power(p, j) for j in range(1, 9)]
        for j, pj in enumerate(powers, 1):
            ok = ok and ps.sn_divides(pj, top) and not ps.sn_divides(top, pj)
            ok = ok and ps.sn_sup(powers[:j]) == pj
    omega = ps.sn_sup(ps.OmegaChain())
    for primes in ((2,), (2, 3), (3, 5, 7)):
        tops = [ps.Supernatural.prime_power(q, ps.INF) for q in primes]
        ok = ok and ps.sn_sup(ps.OmegaChain(frozenset(primes))) == ps.sn_sup(tops)
        ok = ok and all(ps.sn_divides(t, omega) for t in tops)
    return ok


# --- Schwartz-Bruhat functions ----------------------------------------------------


def suite_schwartz(cfg: VerifyConfig) -> list[CheckResult]:
    rep = _Reporter("schwartz", cfg.tolerance)
    rng = np.random.default_rng(cfg.seed + 10)

    for _ in range(100):
        p = int(rng.choice([2, 3, 5]))
        d = int(rng.integers(0, 3))
        side = POSITION if rng.integers(0, 2) else MOMENTUM
        vals = rng.standard_normal(p**d) + 1j * rng.standard_normal(p**d)
        f = sb.LocalSBFunction(p, side, d, vals)
        # on integer-valued functions the float sums are exact, so the
        # refinement identity holds bit for bit
        fi = sb.LocalSBFunction(p, side, d, rng.integers(-50, 50, p**d))
        for d2 in (d + 1, d + 2):
            g = sb.refine(f, d2)
            gap = abs(sb.integrate_local(g) - sb.integrate_local(f))
            rep.case("degree_refinement_invariance", gap, 1e-12)
            gap = abs(sb.integrate_local(sb.refine(fi, d2)) - sb.integrate_local(fi))
            rep.case("degree_refinement_invariance_integer_exact", gap, 0.0)
        ft = sb.local_fourier(f)
        rep.exact("fourier_degree_swap", ft.degree == d and ft.side != side)

    for _ in range(20):
        terms = []
        for _ in range(int(rng.integers(1, 4))):
            coeff = complex(rng.standard_normal(), rng.standard_normal())
            factors = {}
            for p in (2, 3):
                d = int(rng.integers(1, 3))
                v = rng.standard_normal(p**d) + 1j * rng.standard_normal(p**d)
                factors[p] = sb.LocalSBFunction(p, POSITION, d, v)
            terms.append((coeff, factors))
        f = sb.GlobalSBFunction(POSITION, tuple(terms))
        st = sb.canonicalize_global(f)
        gap = abs(sb.global_inner(f, f) - fq.inner(st, st))
        rep.case("canonicalization_isometry", gap, 1e-12)
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
    """The JSON report.  Strict JSON has no NaN or infinity, so a non-finite
    residual is written as the string "nan", "inf" or "-inf"."""
    checks = [asdict(r) for r in results]
    for c in checks:
        if not math.isfinite(c["residual"]):
            c["residual"] = repr(c["residual"])
    return {
        "config": asdict(cfg),
        "checks": checks,
        "passed": all(r.passed for r in results),
    }
