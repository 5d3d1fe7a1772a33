import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from helpers import hw_factor_matrix_check, is_unitary
from pqm.numbers import RatMod1
from pqm.finiteqm import (
    MOMENTUM,
    POSITION,
    FiniteState,
    HWElement,
    PhasePoint,
    coherent_check,
    displace,
    extend,
    fourier,
    fourier_good,
    fourier_matrix,
    hw_adjoint,
    hw_factor,
    hw_identity,
    hw_matrix,
    hw_mul,
    hw_x,
    hw_z,
    inner,
    marginal_a_expected,
    marginal_a_matrix,
    marginal_b_expected,
    marginal_b_matrix,
    momentum_pairing,
    operator_expand,
    parity_apply,
    parity_expand_check,
    parity_marginal_a_matrix,
    parity_marginal_b_matrix,
    parity_matrix,
    parity_quarter_period,
    random_operator,
    random_state,
    resolution_identity_check,
    tensor_factor,
    tensor_join,
    to_momentum,
    to_position,
    weyl_wigner,
    wigner_table,
)
from pqm import finiteqm

RNG = np.random.default_rng(20240817)


def _frak_a(n: int, a: int, doubled: bool = False) -> Fraction:
    if n % 2:
        return Fraction(a, n)
    return Fraction(a, 4 * n if doubled else 2 * n)


def _parity_oracle(n: int, a: int, b: int, doubled: bool = False) -> np.ndarray:
    # position action straight from the phase-space formula:
    # P(a,b) f(x) = chi(-4a b - 4a x) f(-x - 2b)
    fa = _frak_a(n, a, doubled)
    m = np.zeros((n, n), dtype=complex)
    for x in range(n):
        ph = float(-4 * fa * (b + x))
        m[x, (-x - 2 * b) % n] = np.exp(2j * np.pi * ph)
    return m


class TestFourier:
    def test_uniform_goes_to_delta(self):
        for n in (2, 3, 5, 12):
            f = FiniteState(n, POSITION, np.ones(n))
            ft = fourier(f)
            want = np.zeros(n)
            want[0] = 1.0
            assert np.max(np.abs(ft.amplitudes - want)) < 1e-12

    def test_n2_basis_state(self):
        ft = fourier(FiniteState(2, POSITION, np.array([1.0, 0.0])))
        assert np.allclose(ft.amplitudes, [0.5, 0.5])
        assert ft.rep == MOMENTUM

    @pytest.mark.parametrize("n", range(2, 31))
    def test_involution_and_parseval(self, n):
        f = random_state(n, RNG)
        g = random_state(n, RNG)
        f4 = fourier(fourier(fourier(fourier(f))))
        assert np.max(np.abs(f4.amplitudes - f.amplitudes)) < 1e-12
        f2 = fourier(fourier(f))
        assert np.max(np.abs(f2.amplitudes - f.amplitudes[(-np.arange(n)) % n])) < 1e-12
        assert abs(inner(f, g) - inner(fourier(f), fourier(g))) < 1e-12
        # the dense oracle is unitary and holds sqrt(n) times the
        # measure-retagged fourier values
        u = fourier_matrix(n)
        assert is_unitary(u, 1e-12)
        assert np.max(
            np.abs(u @ f.amplitudes - math.sqrt(n) * fourier(f).amplitudes)
        ) < 1e-12

    def test_coordinate_change_roundtrip(self):
        f = random_state(7, RNG)
        assert np.max(np.abs(to_position(to_momentum(f)).amplitudes - f.amplitudes)) < 1e-12
        assert abs(inner(f, f) - inner(to_momentum(f), to_momentum(f))) < 1e-12

    def test_momentum_rep_source(self):
        f = random_state(6, RNG, rep=MOMENTUM)
        f4 = fourier(fourier(fourier(fourier(f))))
        assert np.max(np.abs(f4.amplitudes - f.amplitudes)) < 1e-12


class TestFourierGood:
    @pytest.mark.parametrize("n", [6, 10, 12, 15, 30, 36])
    def test_matches_direct(self, n):
        for rep in (POSITION, MOMENTUM):
            for _ in range(10):
                f = random_state(n, RNG, rep=rep)
                a = fourier(f).amplitudes
                b = fourier_good(f).amplitudes
                assert np.max(np.abs(a - b)) < 1e-12

    def test_prime_power_same_path(self):
        f = random_state(9, RNG)
        assert np.allclose(fourier_good(f).amplitudes, fourier(f).amplitudes)


class TestDisplacement:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 8, 12])
    def test_x_shifts(self, n):
        f = random_state(n, RNG)
        g = displace(hw_x(n), f)
        assert np.max(np.abs(g.amplitudes - f.amplitudes[(np.arange(n) - 1) % n])) < 1e-14

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 8, 12])
    def test_z_multiplies_by_character(self, n):
        f = random_state(n, RNG)
        g = displace(hw_z(n), f)
        w = np.exp(2j * np.pi * np.arange(n) / n)
        assert np.max(np.abs(g.amplitudes - w * f.amplitudes)) < 1e-13

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 8, 12, 16])
    def test_weyl_commutation(self, n):
        z, x = hw_matrix(hw_z(n)), hw_matrix(hw_x(n))
        for alpha in range(n):
            for beta in range(n):
                za = np.linalg.matrix_power(z, alpha)
                xb = np.linalg.matrix_power(x, beta)
                w = np.exp(2j * np.pi * alpha * beta / n)
                assert np.max(np.abs(za @ xb - w * (xb @ za))) < 1e-10

    @pytest.mark.parametrize("n", [2, 3, 4, 6, 9])
    def test_zn_xn_identity(self, n):
        for el in (hw_z(n), hw_x(n)):
            m = np.linalg.matrix_power(hw_matrix(el), n)
            assert np.max(np.abs(m - np.eye(n))) < 1e-12

    def test_zx_commutator_exact_phase(self):
        for n in (3, 4, 5, 6, 8):
            z, x = hw_z(n), hw_x(n)
            el = hw_mul(hw_mul(z, x), hw_mul(hw_adjoint(z), hw_adjoint(x)))
            assert (el.alpha, el.beta) == (0, 0)
            assert el.phase == RatMod1(1, n)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 8, 12, 16])
    def test_group_law_matches_matrices(self, n):
        for _ in range(20):
            a1, b1, g1 = RNG.integers(0, n, 3)
            a2, b2, g2 = RNG.integers(0, n, 3)
            d1 = HWElement.from_canonical(n, int(a1), int(b1), int(g1))
            d2 = HWElement.from_canonical(n, int(a2), int(b2), int(g2))
            lhs = hw_matrix(hw_mul(d1, d2))
            rhs = hw_matrix(d1) @ hw_matrix(d2)
            assert np.max(np.abs(lhs - rhs)) < 1e-12

    @pytest.mark.parametrize("n", [3, 4, 6])
    def test_adjoint_is_inverse_and_dagger(self, n):
        for _ in range(10):
            a, b, g = (int(v) for v in RNG.integers(0, n, 3))
            d = HWElement.from_canonical(n, a, b, g)
            assert hw_mul(d, hw_adjoint(d)) == hw_identity(n)
            m = hw_matrix(d)
            assert np.max(np.abs(hw_matrix(hw_adjoint(d)) - m.conj().T)) < 1e-12
            assert is_unitary(m, 1e-12)

    def test_cross_term_cancels_for_equal_labels(self):
        # the cross term a b' - a' b vanishes for equal labels, so the square
        # is the canonical element with doubled labels and gamma = 0
        d = HWElement.from_canonical(5, 2, 3, 0)
        assert hw_mul(d, d) == HWElement.from_canonical(5, 4, 6, 0)

    @pytest.mark.parametrize("n", [3, 4, 6, 8])
    def test_momentum_rep_consistent(self, n):
        # the momentum matrix is the conjugation of the position matrix by
        # the coordinate change
        w = np.exp(-2j * np.pi * np.outer(np.arange(n), np.arange(n)) / n) / n
        winv = np.exp(2j * np.pi * np.outer(np.arange(n), np.arange(n)) / n)
        for _ in range(5):
            a, b, g = (int(v) for v in RNG.integers(0, n, 3))
            d = HWElement.from_canonical(n, a, b, g)
            assert np.max(np.abs(hw_matrix(d, MOMENTUM) - w @ hw_matrix(d) @ winv)) < 1e-11

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            displace(hw_x(3), random_state(4, RNG))

    @pytest.mark.parametrize("rep", [POSITION, MOMENTUM])
    def test_phases_exact_to_1e12_at_a_million(self, rep):
        # e(c alpha x / n) and e(-beta q / n) with the numerators reduced
        # mod n in integers; an unreduced angle grows to 2 pi n and loses
        # about log2(n) bits
        n, alpha, beta = 10**6 + 1, 777_777, 654_321
        d = HWElement(n, alpha, beta, RatMod1(3, 7))
        x = np.arange(n)
        if rep == POSITION:
            src, num = (x - beta) % n, (2 * alpha * x) % n
        else:
            src = (x - 2 * alpha) % n
            num = (-beta * src) % n
        f = FiniteState(n, rep, RNG.standard_normal(n) + 1j * RNG.standard_normal(n))
        want = np.exp(2j * np.pi * (3 / 7 + num / n)) * f.amplitudes[src]
        got = displace(d, f).amplitudes
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


class TestHalfPhaseRule:
    """Every Z(n) phase is written over 2n through ``_chi_coeff``; the
    per-parity formulas it replaced are the oracle here, for n < 300."""

    def test_displacement_phases_bitwise(self):
        for n in range(2, 300):
            den = n if n % 2 else 2 * n
            j = np.arange(n)
            want = np.exp(2j * np.pi * ((-j[:, None] * j) % den) / den)
            assert finiteqm._displacement_phases(n).tobytes() == want.tobytes()

    def test_labels_match_per_parity_formulas(self):
        rng = np.random.default_rng(310)
        for n in range(2, 300):
            for _ in range(3):
                al, be, ga = (int(v) for v in rng.integers(-(10**9), 10**9, 3))
                a, b, g = al % n, be % n, ga % n
                want = (
                    RatMod1.of(g - a * b, n) if n % 2 else RatMod1.of(2 * g - a * b, 2 * n)
                )
                assert HWElement.from_canonical(n, al, be, ga) == HWElement(n, a, b, want)
                # 2 frak_a = r/n; alpha = r/2 mod n for odd n, r for even n
                frak_a, c = RatMod1.of(al, 2 * n), RatMod1.of(ga, n + 1)
                r = (2 * frak_a.numerator * n // frak_a.denominator) % n
                alpha = r * pow(2, -1, n) % n if n % 2 else r
                want = HWElement(n, alpha, b, c - frak_a.scaled(be))
                assert HWElement.from_phase_space(n, frak_a, be, c) == want
            z_alpha = pow(2, -1, n) if n % 2 else 1
            assert hw_z(n) == HWElement.from_canonical(n, z_alpha, 0, 0)
            for doubled in (False, True) if n % 2 == 0 else (False,):
                for a in range(0, 2 * n if doubled else n, max(1, n // 16)):
                    want = RatMod1.of(_frak_a(n, a, doubled))
                    assert PhasePoint(n, a, 0, doubled).frak_a == want

    def test_parity_k(self):
        for n in range(2, 300):
            if n % 2:
                assert finiteqm._parity_k(n, False) == 4
                with pytest.raises(ValueError):
                    finiteqm._parity_k(n, True)
            else:
                assert (finiteqm._parity_k(n, False), finiteqm._parity_k(n, True)) == (2, 1)


class TestExtend:
    @pytest.mark.parametrize("n, ell", [(2, 8), (3, 12), (6, 6), (5, 35)])
    def test_periodic_and_zero_padded_isometry(self, n, ell):
        for rep in (POSITION, MOMENTUM):
            f = random_state(n, RNG, rep=rep)
            g = extend(f, ell)
            assert (g.n, g.rep) == (ell, rep)
            if rep == POSITION:
                want = [f.amplitudes[x % n] for x in range(ell)]
            else:
                want = [0j] * ell
                for m in range(n):
                    want[m * (ell // n)] = f.amplitudes[m]
            assert list(g.amplitudes) == want
            assert abs(inner(g, g) - inner(f, f)) < 1e-14

    def test_rejects_non_multiple(self):
        with pytest.raises(ValueError, match="does not divide"):
            extend(random_state(4, RNG), 6)


class TestParity:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 8, 12])
    def test_zero_point_is_reflection(self, n):
        f = random_state(n, RNG)
        g = parity_apply(PhasePoint(n, 0, 0), f)
        assert np.max(np.abs(g.amplitudes - f.amplitudes[(-np.arange(n)) % n])) < 1e-14

    @pytest.mark.parametrize("n", range(2, 13))
    def test_involution_and_hermitian(self, n):
        for _ in range(5):
            a = int(RNG.integers(0, n))
            b = int(RNG.integers(0, n))
            p = parity_matrix(PhasePoint(n, a, b))
            assert np.max(np.abs(p @ p - np.eye(n))) < 1e-12
            assert np.max(np.abs(p - p.conj().T)) < 1e-12
            if n % 2 == 0:
                pd = parity_matrix(PhasePoint(n, int(RNG.integers(0, 2 * n)), b, True))
                assert np.max(np.abs(pd @ pd - np.eye(n))) < 1e-12
                assert np.max(np.abs(pd - pd.conj().T)) < 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 8])
    def test_matches_phase_space_formula(self, n):
        for a in range(n):
            for b in range(n):
                got = parity_matrix(PhasePoint(n, a, b))
                assert np.max(np.abs(got - _parity_oracle(n, a, b))) < 1e-12
        if n % 2 == 0:
            for a in range(2 * n):
                for b in range(n):
                    got = parity_matrix(PhasePoint(n, a, b, True))
                    assert np.max(np.abs(got - _parity_oracle(n, a, b, True))) < 1e-12

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 8])
    def test_conjugation_definition(self, n):
        # P(a, b) = D(a,b,0)^dagger F^2 D(a,b,0) on the displacement grid
        neg = np.zeros((n, n))
        neg[np.arange(n), (-np.arange(n)) % n] = 1.0
        for _ in range(6):
            a, b = (int(v) for v in RNG.integers(0, n, 2))
            d = hw_matrix(HWElement.from_canonical(n, a, b, 0))
            want = d.conj().T @ neg @ d
            got = parity_matrix(PhasePoint(n, a, b))
            assert np.max(np.abs(got - want)) < 1e-12

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 8])
    def test_equivalent_parity_factorizations(self, n):
        # D^dagger F^2 D = [D(2a,2b,0)]^dagger F^2 = F^2 D(2a,2b,0)
        from pqm.finiteqm import parity_displacement

        neg = np.zeros((n, n))
        neg[np.arange(n), (-np.arange(n)) % n] = 1.0
        for _ in range(6):
            a, b = (int(v) for v in RNG.integers(0, n, 2))
            dd = hw_matrix(parity_displacement(PhasePoint(n, a, b)))
            left = dd.conj().T @ neg
            right = neg @ dd
            assert np.max(np.abs(left - right)) < 1e-12
            assert np.max(np.abs(left - parity_matrix(PhasePoint(n, a, b)))) < 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 6, 12])
    def test_half_shift_sign_lemma(self, n):
        # shifting the a label by 1/2 fixes the operator for even shifts b
        # and negates it for odd b (the shift rides on the global
        # 2-component, so the parity of the integer b decides the sign)
        from pqm.numbers import RatMod1
        from fractions import Fraction

        for a in range(n):
            for b in range(n):
                el = HWElement.from_canonical(n, a, b, 0)
                shifted = HWElement.from_phase_space(
                    n,
                    RatMod1.of(el.frak_a.as_fraction + Fraction(1, 2)),
                    b,
                    el.frak_c,
                )
                sign = 1.0 if b % 2 == 0 else -1.0
                assert np.max(
                    np.abs(hw_matrix(shifted) - sign * hw_matrix(el))
                ) < 1e-12

    def test_quarter_period_even(self):
        for n in (2, 4, 6, 12):
            q = parity_quarter_period(n)
            assert q == n // 2
            for _ in range(4):
                a = int(RNG.integers(0, n - q))
                b = int(RNG.integers(0, n))
                p1 = parity_matrix(PhasePoint(n, a, b))
                p2 = parity_matrix(PhasePoint(n, a + q, b))
                assert np.max(np.abs(p1 - p2)) < 1e-12
                assert PhasePoint(n, a, b).canonical() == PhasePoint(n, a + q, b).canonical()
            qd = parity_quarter_period(n, doubled=True)
            assert qd == n
            pd1 = parity_matrix(PhasePoint(n, 1, 1, True))
            pd2 = parity_matrix(PhasePoint(n, 1 + n, 1, True))
            assert np.max(np.abs(pd1 - pd2)) < 1e-12

    def test_quarter_period_odd_absent(self):
        assert parity_quarter_period(9) is None
        pt = PhasePoint(9, 4, 2)
        assert pt.canonical() == pt


class TestWeylWigner:
    def test_weyl_at_origin_is_norm(self):
        for n in (3, 4, 7):
            f = random_state(n, RNG)
            assert abs(weyl_wigner(f, 0, 0, "weyl") - 1.0) < 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 8])
    def test_wigner_real(self, n):
        f = random_state(n, RNG)
        for a in range(n):
            for b in range(n):
                w = weyl_wigner(f, a, b, "wigner")
                assert abs(w.imag) < 1e-12

    def test_n2_wigner_table(self):
        f = FiniteState(2, POSITION, np.array([1.0, 0.0]))
        # oracle: brute-force (f, P f) with the phase-space-formula parity
        for doubled in (False, True):
            a_range = 4 if doubled else 2
            for a in range(a_range):
                for b in range(2):
                    want = 0.5 * np.vdot(
                        f.amplitudes, _parity_oracle(2, a, b, doubled) @ f.amplitudes
                    )
                    got = weyl_wigner(f, a, b, "wigner", doubled)
                    assert abs(got - want) < 1e-12

    def test_weyl_matches_matrix_oracle(self):
        n = 5
        f = random_state(n, RNG)
        for a in range(n):
            for b in range(n):
                d = hw_matrix(HWElement.from_canonical(n, a, b, 0))
                want = np.vdot(f.amplitudes, d @ f.amplitudes) / n
                assert abs(weyl_wigner(f, a, b, "weyl") - want) < 1e-12

    @pytest.mark.parametrize("n", [3, 4, 6, 8])
    def test_values_representation_invariant(self, n):
        # (f, D f) and (f, P f) do not depend on the representation the
        # state happens to be stored in
        f = random_state(n, RNG)
        g = to_momentum(f)
        for _ in range(6):
            a, b = (int(v) for v in RNG.integers(0, n, 2))
            for kind in ("weyl", "wigner"):
                assert abs(
                    weyl_wigner(f, a, b, kind) - weyl_wigner(g, a, b, kind)
                ) < 1e-12


class TestWignerTable:
    @pytest.mark.parametrize("n", [2, 5, 6])
    def test_shapes(self, n):
        f = random_state(n, RNG)
        assert wigner_table(f, "weyl").shape == (n, n)
        assert wigner_table(f, "wigner").shape == (n, n)
        # the doubled grid is a Wigner-only, even-n variant, as in weyl_wigner
        assert wigner_table(f, "weyl", doubled=True).shape == (n, n)
        if n % 2 == 0:
            assert wigner_table(f, "wigner", doubled=True).shape == (2 * n, n)

    def test_rejects_bad_kind_and_odd_doubled(self):
        f = random_state(5, RNG)
        with pytest.raises(ValueError):
            wigner_table(f, "husimi")
        with pytest.raises(ValueError):
            wigner_table(f, "wigner", doubled=True)


class TestTomography:
    def test_identity_input(self):
        assert resolution_identity_check(np.eye(4)) < 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 12])
    def test_resolution_random(self, n):
        theta = random_operator(n, RNG)
        assert resolution_identity_check(theta) < 1e-11

    def test_expand_spike(self):
        n = 6
        el = HWElement.from_canonical(n, 2, 5, 0)
        coeffs, res = operator_expand(hw_matrix(el))
        assert res < 1e-12
        want = np.zeros((n, n))
        want[2, 5] = n
        assert np.max(np.abs(coeffs - want)) < 1e-11

    def test_expand_random_hermitian(self):
        a = random_operator(5, RNG)
        theta = (a + a.conj().T) / 2
        _, res = operator_expand(theta)
        assert res < 1e-12

    def test_expand_zero(self):
        coeffs, res = operator_expand(np.zeros((3, 3)))
        assert res == 0.0
        assert np.max(np.abs(coeffs)) == 0.0

    @pytest.mark.parametrize(
        "check", [resolution_identity_check, operator_expand, parity_expand_check]
    )
    def test_rejects_non_square_and_tiny(self, check):
        for bad in (np.ones((3, 4)), np.ones((1, 1)), np.ones(3)):
            with pytest.raises(ValueError):
                check(bad)


class TestParityIdentities:
    @pytest.mark.parametrize("n", [3, 5, 7, 9])
    def test_odd_n_random(self, n):
        theta = random_operator(n, RNG)
        res = parity_expand_check(theta)
        assert res.expansion_residual < 1e-11
        assert res.sandwich_residual < 1e-11
        assert res.tomography_residual < 1e-11

    def test_theta_identity(self):
        res = parity_expand_check(np.eye(5))
        assert res.sandwich_residual < 1e-12

    def test_even_requires_flag(self):
        with pytest.raises(ValueError):
            parity_expand_check(np.eye(4))
        res = parity_expand_check(np.eye(4), exploratory=True)
        assert res.sandwich_residual < 1e-11  # doubled grid still averages to 1

    def test_nan_expansion_gap_fails(self, monkeypatch):
        # max(worst, nan) is worst, so a running max would report 0
        from pqm import verify

        phases = finiteqm._displacement_phases

        def nan_phases(n):
            out = phases(n)
            out[1, 1] = np.nan
            return out

        monkeypatch.setattr(finiteqm, "_displacement_phases", nan_phases)
        assert math.isnan(parity_expand_check(random_operator(5, RNG)).expansion_residual)
        results = verify.suite_parity(verify.VerifyConfig(max_n=3, samples=1))
        (check,) = [r for r in results if r.name == "parity_displacement_expansion"]
        assert math.isnan(check.residual) and not check.passed


def _marginal_a_oracle(n: int, a: int) -> np.ndarray:
    # A(a) entry by entry: e((ab - bx)/n) at [x, x - 2a] summed over b in Z(n)
    # for odd n, e(ab/(2n) - bx/n) at [x, x - a] over b in Z(2n) for even n
    x = np.arange(n)
    m = np.zeros((n, n), dtype=complex)
    if n % 2:
        shift = (x - 2 * a) % n
        for b in range(n):
            m[x, shift] += np.exp(2j * np.pi * (a * b - b * x) / n) / n
    else:
        shift = (x - a) % n
        for b in range(2 * n):
            m[x, shift] += np.exp(2j * np.pi * (a * b / (2 * n) - b * x / n)) / (2 * n)
    return m


def _marginal_b_oracle(n: int, b: int) -> np.ndarray:
    # B(b) entry by entry: the odd-n sum over a, the even-n rank-one kernel
    x = np.arange(n)
    if n % 2:
        m = np.zeros((n, n), dtype=complex)
        for a in range(n):
            m[x, (x - 2 * a) % n] += np.exp(2j * np.pi * (a * b - b * x) / n)
        return m
    return np.exp(-2j * np.pi * b * (x[:, None] + x[None, :]) / (2 * n))


class TestMarginals:
    @pytest.mark.parametrize("n", range(2, 11))
    def test_a_pairing(self, n):
        gt = random_state(n, RNG, rep=MOMENTUM)
        ft = random_state(n, RNG, rep=MOMENTUM)
        for a in range(n):
            got = momentum_pairing(gt.amplitudes, marginal_a_matrix(n, a), ft.amplitudes)
            want = marginal_a_expected(gt.amplitudes, ft.amplitudes, a)
            assert abs(got - want) < 1e-12

    @pytest.mark.parametrize("n", [3, 5, 7, 9, 15])
    def test_b_pairing_odd(self, n):
        gt = random_state(n, RNG, rep=MOMENTUM)
        ft = random_state(n, RNG, rep=MOMENTUM)
        g_pos = to_position(gt).amplitudes
        f_pos = to_position(ft).amplitudes
        for b in range(n):
            got = momentum_pairing(gt.amplitudes, marginal_b_matrix(n, b), ft.amplitudes)
            want = marginal_b_expected(g_pos, f_pos, gt.amplitudes, ft.amplitudes, b)
            assert abs(got - want) < 1e-12

    @pytest.mark.parametrize("n", [2, 4, 8, 16])
    def test_b_pairing_even_hat_path(self, n):
        gt = random_state(n, RNG, rep=MOMENTUM)
        ft = random_state(n, RNG, rep=MOMENTUM)
        g_pos = to_position(gt).amplitudes
        f_pos = to_position(ft).amplitudes
        for b in range(2 * n):
            got = momentum_pairing(gt.amplitudes, marginal_b_matrix(n, b), ft.amplitudes)
            want = marginal_b_expected(g_pos, f_pos, gt.amplitudes, ft.amplitudes, b)
            assert abs(got - want) < 1e-12
            if b % 2 == 0:
                # hat values at even arguments reduce to position values
                alt = g_pos[(b // 2) % n].conjugate() * f_pos[(-(b // 2)) % n]
                assert abs(want - alt) < 1e-12

    @pytest.mark.parametrize("n", range(2, 17))
    def test_matrices_match_per_entry_formulas(self, n):
        b_range = n if n % 2 else 2 * n
        for a in range(n):
            gap = np.max(np.abs(marginal_a_matrix(n, a) - _marginal_a_oracle(n, a)))
            assert gap < 1e-13
        for b in range(b_range):
            gap = np.max(np.abs(marginal_b_matrix(n, b) - _marginal_b_oracle(n, b)))
            assert gap < 1e-13

    @pytest.mark.parametrize("n", range(2, 17, 2))
    def test_b_even_b_matches_displacement_sum(self, n):
        # for even b the canonical kernel equals the plain section sum
        x = np.arange(n)
        for b in range(0, 2 * n, 2):
            acc = np.zeros((n, n), dtype=complex)
            for a in range(n):
                shift = (x - a) % n
                m = np.zeros((n, n), dtype=complex)
                m[x, shift] = np.exp(2j * np.pi * (a * b / (2 * n) - b * x / n))
                acc += m
            assert np.max(np.abs(acc - marginal_b_matrix(n, b))) < 1e-12

    @pytest.mark.parametrize("n", [3, 5, 7, 9, 15])
    def test_parity_marginals_odd(self, n):
        gt = random_state(n, RNG, rep=MOMENTUM)
        ft = random_state(n, RNG, rep=MOMENTUM)
        g_pos = to_position(gt).amplitudes
        f_pos = to_position(ft).amplitudes
        for a in range(n):
            got = momentum_pairing(
                gt.amplitudes, parity_marginal_a_matrix(n, a), ft.amplitudes
            )
            want = gt.amplitudes[(-2 * a) % n].conjugate() * ft.amplitudes[(-2 * a) % n]
            assert abs(got - want) < 1e-12
        for b in range(n):
            got = momentum_pairing(
                gt.amplitudes, parity_marginal_b_matrix(n, b), ft.amplitudes
            )
            want = g_pos[(-b) % n].conjugate() * f_pos[(-b) % n]
            assert abs(got - want) < 1e-12

    def test_a_zero_point(self):
        n = 6
        gt = random_state(n, RNG, rep=MOMENTUM)
        ft = random_state(n, RNG, rep=MOMENTUM)
        got = momentum_pairing(gt.amplitudes, marginal_a_matrix(n, 0), ft.amplitudes)
        assert abs(got - gt.amplitudes[0].conjugate() * ft.amplitudes[0]) < 1e-12


class TestCoherent:
    def test_basis_state_fiducial(self):
        n = 4
        v = np.zeros(n)
        v[1] = math.sqrt(n)  # normalized under the 1/n weight
        assert coherent_check(FiniteState(n, POSITION, v)) < 1e-12

    def test_random_fiducial_n6(self):
        assert coherent_check(random_state(6, RNG)) < 1e-12

    def test_momentum_fiducial(self):
        assert coherent_check(random_state(5, RNG, rep=MOMENTUM)) < 1e-12

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError):
            coherent_check(FiniteState(3, POSITION, np.ones(3) * 2.0))


class TestTensor:
    def test_product_state_recovered(self):
        f2 = random_state(2, RNG)
        f3 = random_state(3, RNG)
        vals = np.array(
            [f2.amplitudes[x % 2] * f3.amplitudes[x % 3] for x in range(6)]
        )
        terms = tensor_factor(FiniteState(6, POSITION, vals))
        assert len(terms) == 1
        coeff, parts = terms[0]
        got = np.array(
            [coeff * parts[2].amplitudes[x % 2] * parts[3].amplitudes[x % 3] for x in range(6)]
        )
        assert np.max(np.abs(got - vals)) < 1e-12

    @pytest.mark.parametrize("n", [6, 12, 30])
    def test_join_inverts_factor(self, n):
        for rep in (POSITION, MOMENTUM):
            f = random_state(n, RNG, rep=rep)
            terms = tensor_factor(f)
            back = tensor_join(terms, n, rep)
            assert np.max(np.abs(back.amplitudes - f.amplitudes)) < 1e-12

    def test_fourier_factorizes(self):
        # F^(6) agrees with the tensor of component transforms via the remaps
        f = random_state(6, RNG)
        terms = tensor_factor(f)
        out_terms = [
            (c, {p: fourier(st) for p, st in parts.items()}) for c, parts in terms
        ]
        got = tensor_join(out_terms, 6, MOMENTUM)
        assert np.max(np.abs(got.amplitudes - fourier(f).amplitudes)) < 1e-12

    @pytest.mark.parametrize("n", [6, 10, 12, 15])
    def test_displacement_factorizes(self, n):
        for _ in range(8):
            a, b, g = (int(v) for v in RNG.integers(0, n, 3))
            assert hw_factor_matrix_check(HWElement.from_canonical(n, a, b, g)) < 1e-12

    def test_hw_factor_component_count(self):
        parts = hw_factor(HWElement.from_canonical(12, 5, 7, 1))
        assert set(parts) == {2, 3}
        assert parts[2].n == 4 and parts[3].n == 3

    def test_hw_factor_with_foreign_scalar_phase(self):
        # a scalar prefactor supported away from the primes of n must ride
        # on one factor and keep the matrix identity exact
        from pqm.finiteqm import hw_scalar_mul
        from pqm.numbers import RatMod1

        d = hw_scalar_mul(HWElement.from_canonical(6, 1, 5, 2), RatMod1(2, 7))
        assert hw_factor_matrix_check(d) < 1e-12


class TestLargeN:
    def test_fourier_of_delta_is_uniform_in_linear_memory(self):
        # the transform must not build an n x n matrix: 2^20 amplitudes
        # would need 16 TiB
        n = 2**20
        amps = np.zeros(n, dtype=complex)
        amps[0] = n
        f = FiniteState(n, POSITION, amps)
        tracemalloc.start()
        try:
            g = fourier(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.rep == MOMENTUM
        assert np.max(np.abs(g.amplitudes - 1.0)) < 1e-12
        assert peak < 4 * 16 * n

    def test_good_matches_fft_at_30030(self):
        rng = np.random.default_rng(30030)
        for rep in (POSITION, MOMENTUM):
            f = random_state(2 * 3 * 5 * 7 * 11 * 13, rng, rep=rep)
            a = fourier_good(f).amplitudes
            b = fourier(f).amplitudes
            assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))

    def test_wigner_table_at_1024_in_quadratic_memory(self):
        # per point this table takes minutes; as FFTs it is one n x n array
        # and a few temporaries
        n = 1024
        f = random_state(n, np.random.default_rng(1024))
        tracemalloc.start()
        try:
            table = wigner_table(f, "wigner")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table.shape == (n, n)
        assert peak < 6 * 16 * n * n
        for a, b in ((0, 0), (1, 2), (1023, 511), (517, 3)):
            assert abs(table[a, b] - weyl_wigner(f, a, b, "wigner")) < 1e-12

    def test_parity_check_at_33_below_10_mb(self):
        theta = random_operator(33, np.random.default_rng(33))
        tracemalloc.start()
        try:
            res = parity_expand_check(theta)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert max(res.expansion_residual, res.sandwich_residual, res.tomography_residual) < 1e-9
        assert peak < 10 * 2**20


class TestNoGridCaches:
    def test_no_module_level_caches(self):
        assert not hasattr(finiteqm, "_GRID_CACHE")
        assert not hasattr(finiteqm, "_PARITY_CACHE")

    def test_second_call_allocates_as_much_as_first(self):
        # a cache would fill on the first call at this n and skip the work
        # on the second
        n = 27
        theta = random_operator(n, np.random.default_rng(27))
        f = random_state(n, np.random.default_rng(28))
        peaks = []
        for _ in range(2):
            tracemalloc.start()
            try:
                resolution_identity_check(theta)
                operator_expand(theta)
                parity_expand_check(theta)
                wigner_table(f, "wigner")
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] >= 0.9 * peaks[0]
