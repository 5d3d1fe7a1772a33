import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from helpers import is_unitary
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
    hw_identity,
    hw_matrix,
    hw_mul,
    hw_scalar_mul,
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
    parity_displacement,
    parity_expand_check,
    parity_marginal_a_matrix,
    parity_marginal_b_matrix,
    parity_matrix,
    random_operator,
    random_state,
    reflect,
    resolution_identity_check,
    tensor_factor,
    tensor_join,
    to_momentum,
    to_position,
    weyl_wigner,
    wigner_table,
)
from pqm import finiteqm
from pqm.finiteqm import _character_sum, _dilation

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

    def test_dense_phases_reduced_in_integers(self):
        # jk is reduced mod n before the float, so equal residues give
        # bit-identical entries
        n = 1000
        u = fourier_matrix(n)
        j, k = np.divmod(np.arange(n * n), n)
        assert np.array_equal(u[j, k], u[j * k % n, 1])

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

    @pytest.mark.parametrize(
        "args, field",
        [
            ((4, 1.5, 0), "alpha"),
            ((4, 1, 2.0), "beta"),
            ((4.0, 1, 2), "n"),
            ((4, Fraction(1), 0), "alpha"),
        ],
    )
    def test_element_rejects_non_integers(self, args, field):
        # HWElement(4, 1.5, 0) once built, and hw_mul composed it to alpha 2.5
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            HWElement(*args)

    @pytest.mark.parametrize("n", [0, 1, -3])
    @pytest.mark.parametrize(
        "build",
        [
            lambda n: HWElement.from_canonical(n, 1, 1, 1),
            lambda n: HWElement.from_phase_space(n, RatMod1.of(1, 2), 1),
            hw_identity,
            hw_x,
            hw_z,
        ],
        ids=["from_canonical", "from_phase_space", "hw_identity", "hw_x", "hw_z"],
    )
    def test_dimension_below_two_raises(self, n, build):
        # at n = 0 a residue mod n or an inverse mod n used to run first, and
        # raised ZeroDivisionError or pow()'s own message
        with pytest.raises(ValueError, match="^n must be >= 2$"):
            build(n)

    @pytest.mark.parametrize("phase", [0.5, Fraction(1, 2), 0])
    def test_element_rejects_a_phase_outside_q_z(self, phase):
        # HWElement(4, 1, 0, 0.5) once built, and hw_mul ended in an AttributeError
        with pytest.raises(ValueError, match="^phase must be a RatMod1"):
            HWElement(4, 1, 0, phase)

    def test_element_stores_plain_ints(self):
        d = HWElement(np.int64(5), np.int64(2), True)
        assert (d.n, d.alpha, d.beta) == (5, 2, 1)
        assert all(type(v) is int for v in (d.n, d.alpha, d.beta))

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
        # the exponent over 2n and the per-parity one are equal fractions, so
        # ``_unit`` gives them equal bits
        for n in range(2, 300):
            den = n if n % 2 else 2 * n
            j = np.arange(n)
            want = finiteqm._unit(-j[:, None] * j, den)
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


# Each path to e(q) is within 2 pi 2^-52 of the true angle when q < 1 (a
# product 2 pi k rounded, then a quotient, or the other way round), and exp
# adds 2^-52: so two paths differ by at most _TWO_PATHS.  The old
# displacement path rounded a sum of turns up to 2 before the product.
_ANGLE_ULP = 2 * math.pi * 2**-52
_TWO_PATHS = 2 * _ANGLE_ULP + 2**-52


def _old_displacement_action(n, alpha, beta, phase, rep):
    """The float-turn displacement phases and sources, phase in turns."""
    c = finiteqm._chi_coeff(n)
    x = np.arange(n)
    if rep == POSITION:
        src, turns = (x - beta) % n, c * alpha % n * x % n
    else:
        src = (x - c * alpha) % n
        turns = -(beta * src % n)
    return np.exp(1j * (2 * math.pi * (phase + turns / n))), src


def _old_parity_expansion_residual(n):
    j = np.arange(n)
    b, x = j[:, None], j[None, :]
    spectrum = np.fft.ifft(finiteqm._displacement_phases(n), axis=0)
    terms = spectrum[(2 * (b + x)) % n]
    worst = 0.0
    for a in range(n):
        gap = np.exp(-2j * np.pi * ((2 * a * j) % n) / n) * terms
        gap[b, x, (2 * (b + x)) % n] -= np.exp(-2j * np.pi * ((4 * a * (b + x)) % n) / n)
        worst = np.maximum(worst, np.max(np.abs(gap)))
    return float(worst)


class TestPhaseKernel:
    """Every site that turns an exact exponent into a complex number goes
    through ``_unit``; the expression each site had before is its oracle."""

    def test_fourier_matrix(self):
        for n in range(1, 300):
            j = np.arange(n)
            old = np.exp(-2j * np.pi * (np.outer(j, j) % n) / n) / math.sqrt(n)
            assert np.max(np.abs(fourier_matrix(n) - old)) <= 1e-15

    def test_displacement_phases(self):
        for n in range(2, 300):
            j, c = np.arange(n), finiteqm._chi_coeff(n)
            old = np.exp(2j * np.pi * ((-c * j[:, None] * j) % (2 * n)) / (2 * n))
            assert np.max(np.abs(finiteqm._displacement_phases(n) - old)) <= _TWO_PATHS

    def test_even_marginal_b_kernel(self):
        for n in range(2, 120, 2):
            p = np.arange(n)
            for b in (0, 1, 3, n - 1, n + 1, 2 * n - 1):
                k = (b * (p[:, None] + p[None, :])) % (2 * n)
                old = np.exp(-2j * np.pi * k / (2 * n))
                assert np.max(np.abs(marginal_b_matrix(n, b) - old)) <= _TWO_PATHS

    def test_parity_expansion_residual(self):
        # the a-loop's maximum includes its a = 0 term, which is the fast form
        for n in range(3, 32, 2):
            got = finiteqm._parity_expansion_residual(n)
            old = _old_parity_expansion_residual(n)
            assert got <= old <= got + 1e-15

    @pytest.mark.parametrize("rep", [POSITION, MOMENTUM])
    def test_displacement_action(self, rep):
        # any phase denominator, as hw_scalar_mul allows; the old sum of
        # turns rounds at up to 2 turns, a third ulp-scale error
        rng = np.random.default_rng(24)
        for n in [*range(2, 80), 4096, 10**6 + 1]:
            alpha, beta = (int(v) for v in rng.integers(0, n, 2))
            phase = RatMod1.of(int(rng.integers(0, 10**9)), int(rng.integers(1, 10**9)))
            d = HWElement(n, alpha, beta, phase)
            turns = phase.numerator / phase.denominator
            old, src = _old_displacement_action(n, alpha, beta, turns, rep)
            got = displace(d, FiniteState(n, rep, np.ones(n))).amplitudes
            assert np.max(np.abs(got - old)) <= _TWO_PATHS + _ANGLE_ULP
            if n < 80:
                want = np.zeros((n, n), dtype=complex)
                want[np.arange(n), src] = old
                assert np.max(np.abs(hw_matrix(d, rep) - want)) <= _TWO_PATHS + _ANGLE_ULP

    def test_commutator_root_of_unity(self):
        for n in range(1, 300):
            assert abs(finiteqm._unit(1, n) - np.exp(2j * np.pi / n)) <= 1e-15


class TestPhasesBeyondInt64:
    """A phase denominator can exceed int64: ``hw_scalar_mul`` takes any
    RatMod1, so D and e(q) D must differ by exactly the scalar e(q)."""

    @pytest.mark.parametrize("q", [RatMod1.of(1, 2**70), RatMod1.of(2**70 + 3, 3 * 2**70)])
    @pytest.mark.parametrize("rep", [POSITION, MOMENTUM])
    def test_scalar_multiple(self, q, rep):
        e = np.exp(2j * np.pi * float(Fraction(q.numerator, q.denominator)))
        for n in (2, 3, 8, 15):
            d = HWElement.from_canonical(n, 1, n - 1, 2)
            dq = hw_scalar_mul(d, q)
            assert dq.phase.denominator > 2**63
            f = random_state(n, RNG, rep)
            gap = displace(dq, f).amplitudes - e * displace(d, f).amplitudes
            assert np.max(np.abs(gap)) <= 1e-15
            assert np.max(np.abs(hw_matrix(dq, rep) - e * hw_matrix(d, rep))) <= 1e-15
            stack = finiteqm._hw_matrices([dq, d], rep)
            assert np.max(np.abs(stack[0] - e * stack[1])) <= 1e-15


    @pytest.mark.parametrize("rep", [POSITION, MOMENTUM])
    def test_displacement_action_is_the_object_array_formula(self, rep):
        # each phase's quotient in Python ints, then _unit of the floats: the
        # bits of the object-array formula, where Python int / int rounded
        # each entry once, also past int64
        rng = np.random.default_rng(40)
        for n in (2, 3, 8, 15, 64):
            els = []
            for den in (2**70, 3 * 2**70 + 1, 7**40, 5):
                alpha, beta, gamma, num = (int(v) for v in rng.integers(0, n, 4))
                d = HWElement.from_canonical(n, alpha, beta, gamma)
                els.append(hw_scalar_mul(d, RatMod1.of(num * 2**61 + 1, den)))
            assert max(d.phase.denominator for d in els) > 2**63
            phases, src = finiteqm._displacement_action(els, rep)
            want_phases, want_src = _object_displacement_action(els, rep)
            assert np.array_equal(phases, want_phases) and np.array_equal(src, want_src)


def _object_displacement_action(elements, rep):
    """``_displacement_action`` as it was built: one object array of the
    (alpha, beta, numerator, denominator) columns, and the unit of each
    exponent e(num/den) taken on it as ``_unit`` took it, num mod den and
    one quotient, on Python ints for an object array."""

    def unit(num, den):
        return np.exp(2j * np.pi * np.asarray((num % den) / den, dtype=float))

    n = elements[0].n
    cols = [(d.alpha, d.beta, d.phase.numerator, d.phase.denominator) for d in elements]
    cols = np.array(cols, dtype=object)
    alpha, beta = cols[:, :1].astype(int), cols[:, 1:2].astype(int)
    c = 2 if n % 2 else 1
    x = np.arange(n)
    if rep == POSITION:
        src, t = (x - beta) % n, c * alpha % n * x
    else:
        src = (x - c * alpha) % n
        t = -beta * src
    return unit(t, n) * unit(cols[:, 2:3], cols[:, 3:]), src


class TestHWSum:
    """``_hw_sum`` scatters the phases of many elements into one n x n
    matrix; the sum over the ``_hw_matrices`` stack is its oracle."""

    @pytest.mark.parametrize("rep", [POSITION, MOMENTUM])
    def test_scatter_is_the_stack_sum(self, rep):
        # few (alpha, beta) labels per list, so several elements land on one
        # entry, and phases over denominators far beyond int64
        rng = np.random.default_rng(36)
        for n in range(2, 41):
            for k in (1, 2, n, 3 * n):
                labels = rng.integers(0, n, (3, 2))
                els = []
                for i in rng.integers(0, 3, k):
                    alpha, beta = (int(v) for v in labels[i])
                    den = int(rng.integers(1, 2**62)) * 2**int(rng.integers(0, 80))
                    phase = RatMod1.of(int(rng.integers(0, 2**62)) * 3**40, den)
                    els.append(HWElement(n, alpha, beta, phase))
                want = finiteqm._hw_matrices(els, rep).sum(axis=0)
                assert np.array_equal(finiteqm._hw_sum(els, rep), want)


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

    @pytest.mark.parametrize("ell", [-4, -2, 0, 1])
    def test_rejects_a_smaller_target(self, ell):
        # a multiple of n below it, -4 at n = 2, ended in numpy's
        # "negative dimensions are not allowed"
        with pytest.raises(ValueError, match=f"^ell={ell} is smaller than n=2$"):
            extend(random_state(2, RNG), ell)

    @pytest.mark.parametrize("ell", [4.0, "4", None])
    def test_rejects_a_non_integer_target(self, ell):
        with pytest.raises(ValueError, match="^ell must be an integer, got "):
            extend(random_state(2, RNG), ell)


class TestIntegerLabels:
    """A phase-space or state label that is not an integer is a ValueError
    naming the field, where a bare TypeError or numpy's IndexError came later;
    integer-likes such as np.int64 are read as the plain int."""

    @pytest.mark.parametrize("label", [1.5, "1", None])
    @pytest.mark.parametrize(
        "call, field",
        [
            (lambda v: PhasePoint(v, 1, 2), "n"),
            (lambda v: PhasePoint(5, v, 2), "a"),
            (lambda v: PhasePoint(5, 1, v), "b"),
            (lambda v: parity_displacement(PhasePoint(5, v, 2)), "a"),
            (lambda v: parity_matrix(PhasePoint(5, 2, v)), "b"),
            (lambda v: weyl_wigner(random_state(5, RNG), v, 0, "wigner"), "a"),
            (lambda v: weyl_wigner(random_state(5, RNG), 0, v, "wigner"), "b"),
            (lambda v: weyl_wigner(random_state(5, RNG), v, 0, "weyl"), "a"),
            (lambda v: weyl_wigner(random_state(5, RNG), 0, v, "weyl"), "b"),
            (lambda v: HWElement.from_canonical(5, v, 1, 1), "alpha"),
            (lambda v: HWElement.from_canonical(5, 1, v, 1), "beta"),
            (lambda v: HWElement.from_canonical(v, 1, 1, 1), "n"),
            (lambda v: HWElement.from_canonical(5, 1, 1, v), "gamma"),
            (lambda v: HWElement.from_phase_space(v, RatMod1.of(1, 2), 1), "n"),
            (lambda v: HWElement.from_phase_space(5, RatMod1.of(1, 5), v), "b"),
            (hw_x, "n"),
            (hw_z, "n"),
            (lambda v: marginal_a_matrix(v, 1), "n"),
            (lambda v: marginal_b_matrix(v, 1), "n"),
            (lambda v: FiniteState(v, POSITION, [1, 0]), "n"),
        ],
    )
    def test_non_integer_label_names_its_field(self, call, field, label):
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got "):
            call(label)

    def test_integer_likes_are_read_as_ints(self):
        n, a, b = np.int64(5), np.int64(3), np.int64(2)
        pt = PhasePoint(n, a, b)
        assert (pt.n, pt.a, pt.b) == (5, 3, 2)
        assert all(type(v) is int for v in (pt.n, pt.a, pt.b))
        assert parity_displacement(pt) == parity_displacement(PhasePoint(5, 3, 2))
        assert HWElement.from_canonical(n, a, b, a) == HWElement.from_canonical(5, 3, 2, 3)
        assert hw_x(n) == hw_x(5) and hw_z(n) == hw_z(5)
        assert np.array_equal(marginal_a_matrix(n, a), marginal_a_matrix(5, 3))
        f = random_state(5, RNG)
        for kind in ("weyl", "wigner"):
            assert weyl_wigner(f, a, b, kind) == weyl_wigner(f, 3, 2, kind)
        g = FiniteState(np.int64(2), POSITION, [0, 1])
        assert type(g.n) is int
        assert list(reflect(g).amplitudes) == [0, 1]


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
            # every point of the doubled grid, a < 2n
            for a in range(2 * n):
                for b in range(n):
                    pd = parity_matrix(PhasePoint(n, a, b, True))
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
        # the a-index shift equal to 1/4 in Q/Z: n/2, or n on the doubled grid
        for n in (2, 4, 6, 12):
            q = n // 2
            for _ in range(4):
                a = int(RNG.integers(0, n - q))
                b = int(RNG.integers(0, n))
                p1 = parity_matrix(PhasePoint(n, a, b))
                p2 = parity_matrix(PhasePoint(n, a + q, b))
                assert np.max(np.abs(p1 - p2)) < 1e-12
            pd1 = parity_matrix(PhasePoint(n, 1, 1, True))
            pd2 = parity_matrix(PhasePoint(n, 1 + n, 1, True))
            assert np.max(np.abs(pd1 - pd2)) < 1e-12


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

    def test_rejects_bad_kind_and_odd_doubled(self):
        f = random_state(5, RNG)
        with pytest.raises(ValueError, match="unknown kind"):
            weyl_wigner(f, 0, 0, "husimi")
        with pytest.raises(ValueError, match="even n only"):
            weyl_wigner(f, 0, 0, "wigner", doubled=True)

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

    def test_character_sum_is_exact_and_matches_the_fft_of_ones(self):
        # the closed form against the FFT of ones it replaced, which was
        # inexact in 2058 of these 2394 (n, k) pairs, by at most 6.9e-14
        for n in range(1, 400):
            d = np.arange(n)
            for k in (1, -1, 2, -2, 4, -4):
                got = _character_sum(n, k)
                assert np.array_equal(got, np.where(k * d % n == 0, n, 0))
                fft_form = np.fft.fft(np.ones(n))[_dilation(n, -k)]
                assert np.max(np.abs(got - fft_form)) <= 7e-14

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

    def test_even_n_raises(self):
        for n in (2, 4, 6, 8, 10):
            with pytest.raises(ValueError, match="odd n only"):
                parity_expand_check(random_operator(n, RNG))

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
        results = verify.suite_parity(verify.VerifyConfig(samples=1))
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

    def test_even_b_kernel_phases_reduced_in_integers(self):
        # b(P + Q) is reduced mod 2n before the float, so entries of equal
        # residue are bit-identical; gcd(b, 2n) = 250 gives each residue
        # about 250 entries
        n, b = 1000, 1250
        m = marginal_b_matrix(n, b).ravel()
        p, q = np.divmod(np.arange(n * n), n)
        _, first, residue = np.unique(b * (p + q) % (2 * n), return_index=True, return_inverse=True)
        assert np.array_equal(m, m[first][residue])

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

    @pytest.mark.parametrize("n", range(2, 33))
    def test_stacked_sums_are_the_per_point_sums(self, n):
        # the per-point loops are the oracle; the builders scatter every
        # element's phases into one matrix with np.add.at, which adds them
        # entry by entry in element order, as these loops do, so the two
        # agree bit for bit
        b_range = n if n % 2 else 2 * n
        for a in range(n):
            frak_a = RatMod1.of(a, b_range)
            want = sum(
                hw_matrix(HWElement.from_phase_space(n, frak_a, b), MOMENTUM)
                for b in range(b_range)
            ) / b_range
            assert np.array_equal(marginal_a_matrix(n, a), want)
        if n % 2 == 0:
            return
        for j in range(n):
            want = sum(
                hw_matrix(HWElement.from_canonical(n, a, j, 0), MOMENTUM) for a in range(n)
            )
            assert np.array_equal(marginal_b_matrix(n, j), want)
            acc_a = np.zeros((n, n), dtype=complex)
            acc_b = np.zeros((n, n), dtype=complex)
            for i in range(n):
                acc_a += parity_matrix(PhasePoint(n, j, i), MOMENTUM)
                acc_b += parity_matrix(PhasePoint(n, i, j), MOMENTUM)
            assert np.array_equal(parity_marginal_a_matrix(n, j), acc_a / n)
            assert np.array_equal(parity_marginal_b_matrix(n, j), acc_b)

    @pytest.mark.parametrize("n,index", [(0, 0), (-2, 1), (-3, 0), (1, 0)])
    def test_dimension_below_two_raises(self, n, index):
        # n = 0 and negative even n used to give empty arrays or a zero division
        for build in (marginal_a_matrix, marginal_b_matrix):
            with pytest.raises(ValueError, match="n must be >= 2"):
                build(n, index)
        for build in (parity_marginal_a_matrix, parity_marginal_b_matrix):
            with pytest.raises(ValueError, match="odd n >= 3"):
                build(n, index)

    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("label", [1.5, 2.0, "1", None])
    def test_label_must_be_an_integer(self, n, label):
        # marginal_b_matrix(4, 1.5) returned a matrix of half-integer phases,
        # and the others raised a bare TypeError
        builds = [(marginal_a_matrix, "a"), (marginal_b_matrix, "b")]
        if n % 2:
            builds += [(parity_marginal_a_matrix, "a"), (parity_marginal_b_matrix, "b")]
        for build, name in builds:
            with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
                build(n, label)

    def test_label_accepts_integer_likes(self):
        for label in (np.int64(2), True):
            want = int(label)
            assert np.array_equal(marginal_a_matrix(5, label), marginal_a_matrix(5, want))
            assert np.array_equal(marginal_b_matrix(4, label), marginal_b_matrix(4, want))
            got = parity_marginal_b_matrix(5, label)
            assert np.array_equal(got, parity_marginal_b_matrix(5, want))

    @pytest.mark.parametrize("ng,nf", [(3, 5), (5, 3), (4, 6)])
    def test_b_expected_dimension_mismatch(self, ng, nf):
        # an odd pair used to index past the shorter array, an even pair to
        # answer from the hat values of two different systems
        g, f = np.ones(ng, dtype=complex), np.ones(nf, dtype=complex)
        for b in range(3):
            with pytest.raises(ValueError, match="dimension mismatch"):
                marginal_b_expected(g, f, g, f, b)

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

    @pytest.mark.parametrize(
        "build",
        [
            lambda: marginal_a_matrix(129, 1),
            lambda: marginal_a_matrix(128, 3),
            lambda: marginal_b_matrix(129, 1),
            lambda: parity_marginal_a_matrix(129, 1),
            lambda: parity_marginal_b_matrix(129, 1),
            lambda: finiteqm._parity_expansion_residual(129),
        ],
        ids=["marginal_a_odd", "marginal_a_even", "marginal_b", "parity_marginal_a",
             "parity_marginal_b", "parity_expansion_residual"],
    )
    def test_phase_space_sums_at_129_below_4_mb(self, build):
        # an n x n result in O(n^2) memory: a (k, n, n) stack of the summands,
        # or a [b, x, b'] array, took 33 to 99 MB here
        tracemalloc.start()
        try:
            build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


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
