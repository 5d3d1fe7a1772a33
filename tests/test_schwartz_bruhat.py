from fractions import Fraction

import numpy as np
import pytest

from pqm.numbers import PrecisionError, ProfiniteInt, PadicInt, RatMod1, ZERO_MOD1
from pqm.finiteqm import (
    MOMENTUM,
    POSITION,
    FiniteState,
    HWElement,
    displace,
    fourier,
    fourier_good,
    inner,
)
from pqm.finiteqm import _hat_values
from pqm.schwartz_bruhat import (
    GlobalSBFunction,
    LocalSBFunction,
    canonicalize_global,
    character_function,
    delta_family,
    global_displace,
    global_fourier,
    global_inner,
    global_parity,
    hat_transform_2adic,
    integrate_local,
    is_trivial,
    local_displace,
    local_fourier,
    local_fourier_inv,
    local_inner,
    refine,
    scale_variable,
    trivial_local,
)

RNG = np.random.default_rng(7171)


def _random_local(p, degree, side=POSITION):
    n = p**degree
    return LocalSBFunction(
        p, side, degree, tuple(RNG.standard_normal(n) + 1j * RNG.standard_normal(n))
    )


class TestIntegrate:
    def test_degree_one_average(self):
        f = LocalSBFunction(3, POSITION, 1, (1, 2, 3))
        assert integrate_local(f) == pytest.approx(2.0)

    def test_haar_normalization(self):
        assert integrate_local(trivial_local(5, POSITION)) == 1

    def test_momentum_point_mass(self):
        assert integrate_local(delta_family(7, 1, "Delta_exact")) == 1

    @pytest.mark.parametrize("p,degree", [(2, 2), (3, 1), (5, 1)])
    def test_refinement_invariance(self, p, degree):
        for side in (POSITION, MOMENTUM):
            f = _random_local(p, degree, side)
            for d2 in range(degree, degree + 3):
                g = refine(f, d2)
                assert integrate_local(g) == pytest.approx(integrate_local(f))
                assert local_inner(g, g) == pytest.approx(local_inner(f, f))
                ft, gt = local_fourier(f), local_fourier(g)
                assert np.allclose(
                    refine(ft, d2).values, gt.values, atol=1e-12
                )


class TestScaleVariable:
    def test_coprime_is_invariant(self):
        f = _random_local(3, 2)
        g = scale_variable(f, 5)
        assert g.degree == f.degree
        assert integrate_local(g) == pytest.approx(integrate_local(f))

    def test_identity(self):
        f = _random_local(2, 2, MOMENTUM)
        assert scale_variable(f, 1).values == f.values

    def test_momentum_two_adic_factor(self):
        # |2|_2 * integral of f(2a) equals the integral of f
        f = _random_local(2, 2, MOMENTUM)
        g = scale_variable(f, 2)
        assert g.degree == 3
        assert 0.5 * integrate_local(g) == pytest.approx(integrate_local(f))

    def test_momentum_factor_general(self):
        for p, lam, absval in [(3, 3, Fraction(1, 3)), (2, 4, Fraction(1, 4)), (5, 10, Fraction(1, 5))]:
            f = _random_local(p, 1, MOMENTUM)
            g = scale_variable(f, lam)
            assert absval * integrate_local(g) == pytest.approx(integrate_local(f))

    def test_ostrowski_consistency(self):
        # the product of the local change-of-variables factors is |lam|_inf
        lam = 12
        ratio = 1.0
        for p in (2, 3):
            f = _random_local(p, 1, MOMENTUM)
            while abs(integrate_local(f)) < 1e-3:
                f = _random_local(p, 1, MOMENTUM)
            ratio *= integrate_local(scale_variable(f, lam)) / integrate_local(f)
        assert ratio == pytest.approx(lam)

    def test_position_constancy_drop(self):
        f = _random_local(3, 2, POSITION)
        g = scale_variable(f, 3)
        assert g.degree == 1
        for j in range(3):
            assert g.values[j] == f.values[(3 * j) % 9]


class TestLocalFourier:
    def test_constant_to_point_mass(self):
        ft = local_fourier(trivial_local(3, POSITION))
        assert ft.side == MOMENTUM
        assert is_trivial(ft)

    def test_delta_approximant_to_constant(self):
        for p, n in ((2, 3), (3, 2)):
            ft = local_fourier(delta_family(p, n, "delta_Zp_approx"))
            assert ft.side == MOMENTUM and ft.degree == n
            assert np.allclose(ft.values, 1.0)

    def test_roundtrip(self):
        for p, d, side in [(2, 3, POSITION), (3, 2, MOMENTUM), (5, 1, POSITION)]:
            f = _random_local(p, d, side)
            back = local_fourier_inv(local_fourier(f))
            assert np.max(np.abs(np.array(back.values) - np.array(f.values))) < 1e-12

    def test_degree_swap(self):
        for _ in range(20):
            p = int(RNG.choice([2, 3, 5]))
            d = int(RNG.integers(0, 3))
            f = _random_local(p, d)
            ft = local_fourier(f)
            assert ft.degree == d and ft.side == MOMENTUM

    def test_matches_finite_transform(self):
        f = _random_local(3, 2)
        ft = local_fourier(f)
        st = fourier(FiniteState(9, POSITION, f.array()))
        assert np.allclose(ft.values, st.amplitudes)


class TestDelta:
    def test_sifting(self):
        for p, n in ((2, 2), (3, 1)):
            delta = delta_family(p, n, "delta_Zp_approx")
            f = _random_local(p, n)
            d = max(delta.degree, f.degree)
            prod = LocalSBFunction(
                p,
                POSITION,
                d,
                tuple(np.array(refine(f, d).values) * np.array(refine(delta, d).values)),
            )
            assert integrate_local(prod) == pytest.approx(f.values[0])

    def test_scaling_law(self):
        # delta(lam x) = delta(x) / |lam|_p at the matching precision
        p, n, r = 3, 3, 1
        lam = p**r * 2
        lhs = scale_variable(delta_family(p, n, "delta_Zp_approx"), lam)
        rhs = delta_family(p, n - r, "delta_Zp_approx")
        assert np.allclose(lhs.values, p**r * np.array(rhs.values))

    def test_character_integral_is_point_mass(self):
        # integral over Z_p of chi(x p/q) dx = Delta
        for p in (2, 3):
            for k in range(0, 3):
                for m in range(p**k):
                    f = character_function(p, Fraction(m, p**k))
                    want = 1.0 if m == 0 else 0.0
                    assert integrate_local(f) == pytest.approx(want, abs=1e-12)


class TestHatTransform:
    def test_point_mass_goes_to_one(self):
        h = hat_transform_2adic(delta_family(2, 1, "Delta_exact"))
        assert np.allclose(h, 1.0)

    def test_even_arguments_give_position_values(self):
        f = _random_local(2, 2, MOMENTUM)
        h = hat_transform_2adic(f)
        pos = local_fourier_inv(f)
        for z in range(4):
            assert abs(h[2 * z] - pos.values[z]) < 1e-12

    def test_matches_finiteqm_helper(self):
        f = _random_local(2, 3, MOMENTUM)
        assert np.allclose(hat_transform_2adic(f), _hat_values(f.array()))

    def test_wrong_prime_rejected(self):
        with pytest.raises(ValueError):
            hat_transform_2adic(_random_local(3, 1, MOMENTUM))

    def test_position_side_rejected(self):
        with pytest.raises(ValueError):
            hat_transform_2adic(_random_local(2, 1, POSITION))


class TestConstructors:
    def test_length_based_degree(self):
        f = LocalSBFunction.position(3, [1, 2, 3])
        assert f.degree == 1
        g = LocalSBFunction.momentum(2, [1, 0, 0, 0])
        assert g.degree == 2
        with pytest.raises(ValueError):
            LocalSBFunction.position(3, [1, 2])

    def test_character_function_rejects_foreign_denominator(self):
        from pqm.schwartz_bruhat import character_function

        with pytest.raises(ValueError):
            character_function(3, Fraction(1, 2))

    @pytest.mark.parametrize("p", [1, 0, -3])
    def test_character_function_rejects_small_p(self, p):
        with pytest.raises(ValueError):
            character_function(p, Fraction(1, 4))

    def test_character_function_phases_reduced_before_the_float(self):
        # chi(x m / q) = e((m x mod q) / q); the unreduced angle reaches
        # 2 pi q and loses about log2(q) bits
        q, m = 2**17, 98_765
        f = character_function(2, Fraction(m, q))
        want = np.exp(2j * np.pi * ((m * np.arange(q)) % q) / q)
        assert np.max(np.abs(np.array(f.values) - want)) <= 1e-12

    @pytest.mark.parametrize("side", [POSITION, MOMENTUM])
    def test_state_round_trip(self, side):
        f = _random_local(3, 2, side)
        st = f.state()
        assert (st.n, st.rep) == (9, side)
        assert list(st.amplitudes) == list(f.values)
        assert LocalSBFunction.from_state(3, st) == f
        with pytest.raises(ValueError):
            LocalSBFunction.from_state(2, st)

    def test_delta_unknown_kind(self):
        with pytest.raises(ValueError):
            delta_family(2, 1, "bump")

    def test_support_primes_and_factor_accessor(self):
        f = GlobalSBFunction.product(
            POSITION, {3: _random_local(3, 1), 5: trivial_local(5, POSITION)}
        )
        assert f.support_primes == {3}
        # an unlisted prime reads as the implicit trivial filler
        assert f.terms[0][1].get(7, trivial_local(7, f.side)).degree == 0


class TestGlobalInner:
    def test_single_term_single_prime(self):
        f = _random_local(3, 1)
        g = _random_local(3, 1)
        gf = GlobalSBFunction.product(POSITION, {3: f})
        gg = GlobalSBFunction.product(POSITION, {3: g})
        assert global_inner(gf, gg) == pytest.approx(local_inner(f, g))

    def test_disjoint_primes_factorize(self):
        f = _random_local(2, 1)
        g = _random_local(3, 1)
        gf = GlobalSBFunction.product(POSITION, {2: f})
        gg = GlobalSBFunction.product(POSITION, {3: g})
        want = np.conj(integrate_local(f)) * integrate_local(g)
        assert global_inner(gf, gg) == pytest.approx(want)

    def test_side_mismatch(self):
        gf = GlobalSBFunction.product(POSITION, {2: _random_local(2, 1)})
        gg = GlobalSBFunction.product(MOMENTUM, {2: _random_local(2, 1, MOMENTUM)})
        with pytest.raises(ValueError):
            global_inner(gf, gg)

    def test_canonicalization_isometry(self):
        terms = tuple(
            (
                complex(RNG.standard_normal()),
                {2: _random_local(2, 1), 3: _random_local(3, 1)},
            )
            for _ in range(3)
        )
        f = GlobalSBFunction(POSITION, terms)
        st = canonicalize_global(f)
        assert st.n == 6
        assert global_inner(f, f) == pytest.approx(inner(st, st))


class TestCanonicalize:
    def test_two_primes(self):
        f = GlobalSBFunction.product(
            POSITION, {2: _random_local(2, 1), 3: _random_local(3, 1)}
        )
        st = canonicalize_global(f)
        assert st.n == 6 and st.rep == POSITION
        # value at X is the product of the component values at X mod p^e
        for x in range(6):
            want = f.terms[0][1][2].values[x % 2] * f.terms[0][1][3].values[x % 3]
            assert abs(st.amplitudes[x] - want) < 1e-12

    def test_trivial_rejected(self):
        f = GlobalSBFunction.product(POSITION, {})
        with pytest.raises(ValueError):
            canonicalize_global(f)

    def test_fourier_commutes(self):
        terms = tuple(
            (
                complex(RNG.standard_normal()),
                {2: _random_local(2, 2), 3: _random_local(3, 1)},
            )
            for _ in range(2)
        )
        f = GlobalSBFunction(POSITION, terms)
        a = canonicalize_global(global_fourier(f)).amplitudes
        b = fourier_good(canonicalize_global(f)).amplitudes
        assert np.max(np.abs(a - b)) < 1e-12

    def test_momentum_side(self):
        f = GlobalSBFunction.product(
            MOMENTUM, {2: _random_local(2, 1, MOMENTUM), 3: _random_local(3, 1, MOMENTUM)}
        )
        st = canonicalize_global(f)
        assert st.n == 6 and st.rep == MOMENTUM
        # momentum indices go through the nu-hat map: P -> (P t_i mod q_i)
        for pt in range(6):
            want = (
                f.terms[0][1][2].values[(pt * 1) % 2]
                * f.terms[0][1][3].values[(pt * 2) % 3]
            )
            assert abs(st.amplitudes[pt] - want) < 1e-12


    def test_degree_zero_factor_is_a_scalar(self):
        # a degree-0 factor is the constant values[0]: it scales its term
        f2 = _random_local(2, 1)
        f = GlobalSBFunction.product(
            POSITION, {2: f2, 7: LocalSBFunction(7, POSITION, 0, (2.0,))}
        )
        st = canonicalize_global(f)
        assert st.n == 2
        assert np.allclose(st.amplitudes, 2.0 * f2.array(), rtol=0, atol=1e-12)
        assert global_inner(f, f) == pytest.approx(inner(st, st))


class TestGlobalDisplace:
    def test_identity_labels(self):
        f = GlobalSBFunction.product(POSITION, {3: _random_local(3, 1)})
        g = global_displace(f, ZERO_MOD1, 0, ZERO_MOD1)
        assert np.allclose(g.terms[0][1][3].values, f.terms[0][1][3].values)

    def test_label_wraps_mod_one(self):
        f = GlobalSBFunction.product(POSITION, {3: _random_local(3, 1)})
        a = RatMod1(1, 3)
        g1 = global_displace(f, a, 2)
        g2 = global_displace(f, RatMod1.of(a.as_fraction + 1), 2)
        assert np.allclose(g1.terms[0][1][3].values, g2.terms[0][1][3].values)

    def test_single_prime_matches_local(self):
        loc = _random_local(5, 1)
        f = GlobalSBFunction.product(POSITION, {5: loc})
        a = RatMod1(2, 5)
        g = global_displace(f, a, 3, RatMod1(1, 5))
        want = local_displace(loc, a, 3, RatMod1(1, 5))
        assert np.allclose(g.terms[0][1][5].values, want.values)

    @pytest.mark.parametrize("ell,a_num", [(6, 1), (12, 5), (15, 7)])
    def test_commutes_with_canonicalization(self, ell, a_num):
        # build a global function whose canonical dimension is ell
        factors = {}
        from pqm.numbers import factorize

        for p, e in factorize(ell).items():
            factors[p] = _random_local(p, e)
        f = GlobalSBFunction.product(POSITION, factors)
        fs = canonicalize_global(f)
        den = 2 * ell if ell % 2 == 0 else ell
        a = RatMod1.of(a_num, den)
        b = int(RNG.integers(0, ell))
        c = RatMod1.of(int(RNG.integers(0, ell)), ell)
        lhs = canonicalize_global(global_displace(f, a, b, c)).amplitudes
        el = HWElement.from_phase_space(ell, a, b, c)
        rhs = displace(el, fs).amplitudes
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_phase_supported_off_the_function_survives_canonicalization(self):
        # c = 1/7 lives at a prime where f is trivial: D(0, 0, 1/7) is e(1/7)
        f = GlobalSBFunction.product(POSITION, {3: _random_local(3, 1)})
        c = RatMod1(1, 7)
        lhs = canonicalize_global(global_displace(f, ZERO_MOD1, 0, c)).amplitudes
        el = HWElement.from_phase_space(3, ZERO_MOD1, 0, c)
        rhs = displace(el, canonicalize_global(f)).amplitudes
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_a_half_acts_trivially_on_position(self):
        # chi(2 * (1/2) * x) = 1 on Z_2: D(1/2, 0, 0) fixes position functions
        f = GlobalSBFunction.product(POSITION, {3: _random_local(3, 1)})
        g = global_displace(f, RatMod1(1, 2), 0)
        assert is_trivial(g.terms[0][1][2])

    def test_new_prime_enters_support(self):
        f = GlobalSBFunction.product(POSITION, {3: _random_local(3, 1)})
        g = global_displace(f, RatMod1(1, 4), 0)
        assert 2 in g.terms[0][1]
        assert canonicalize_global(g).n == 6

    def test_profinite_b_insufficient_precision(self):
        f = GlobalSBFunction.product(POSITION, {2: _random_local(2, 3)})
        b = ProfiniteInt({2: PadicInt.from_int(1, 2, 1)}, tail=0)
        with pytest.raises(PrecisionError):
            global_displace(f, RatMod1(1, 16), b)

    def test_restrictions_preserved(self):
        f = GlobalSBFunction.product(POSITION, {3: _random_local(3, 1)})
        g = global_displace(f, RatMod1(5, 6), 4, RatMod1(1, 2))
        assert g.support_primes <= {2, 3}


class TestGlobalParity:
    def test_matches_finite_parity(self):
        from pqm.finiteqm import PhasePoint, parity_apply

        factors = {3: _random_local(3, 1), 5: _random_local(5, 1)}
        f = GlobalSBFunction.product(POSITION, factors)
        fs = canonicalize_global(f)
        n = 15
        for _ in range(4):
            a = int(RNG.integers(0, n))
            b = int(RNG.integers(0, n))
            lhs = canonicalize_global(
                global_parity(f, RatMod1.of(a, n), b)
            ).amplitudes
            rhs = parity_apply(PhasePoint(n, a, b), fs).amplitudes
            assert np.max(np.abs(lhs - rhs)) < 1e-12
