import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from helpers import sb_equal
from pqm.numbers import PrecisionError, ProfiniteInt, PadicInt, RatMod1, ZERO_MOD1, char_chi_p
from pqm.finiteqm import (
    MOMENTUM,
    POSITION,
    FiniteState,
    HWElement,
    displace,
    fourier,
    fourier_good,
    hw_matrix,
    inner,
)
from pqm.finiteqm import _hat_values, _hw_matrices
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
    local_reflect,
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
        assert integrate_local(trivial_local(7, MOMENTUM)) == 1

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
        assert sb_equal(scale_variable(f, 1), f)

    def test_momentum_two_adic_factor(self):
        # |2|_2 * integral of f(2a) equals the integral of f
        f = _random_local(2, 2, MOMENTUM)
        g = scale_variable(f, 2)
        assert g.degree == 3
        assert 0.5 * integrate_local(g) == pytest.approx(integrate_local(f))

    @pytest.mark.parametrize("lam, size", [(2**70, "2^72"), (3 * 2**19, "2^21")])
    def test_momentum_result_size_bound(self, lam, size):
        # checked before the index map: 2^72 values could never be built
        f = _random_local(2, 2, MOMENTUM)
        message = f"result size {size} exceeds bound 1048576"
        with pytest.raises(ValueError, match=re.escape(message)):
            scale_variable(f, lam)

    def test_position_side_has_no_size_bound(self):
        # the position degree only falls, so a large 2-power keeps 1 value
        f = _random_local(2, 2)
        assert sb_equal(scale_variable(f, 2**70), LocalSBFunction(2, POSITION, 0, f.values[:1]))

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
            ft = local_fourier(delta_family(p, n))
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
        st = fourier(FiniteState(9, POSITION, f.values))
        assert np.allclose(ft.values, st.amplitudes)


class TestDelta:
    def test_sifting(self):
        for p, n in ((2, 2), (3, 1)):
            delta = delta_family(p, n)
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
        lhs = scale_variable(delta_family(p, n), lam)
        rhs = delta_family(p, n - r)
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
        h = hat_transform_2adic(trivial_local(2, MOMENTUM))
        assert np.allclose(h, 1.0)

    def test_even_arguments_give_position_values(self):
        f = _random_local(2, 2, MOMENTUM)
        h = hat_transform_2adic(f)
        pos = local_fourier_inv(f)
        for z in range(4):
            assert abs(h[2 * z] - pos.values[z]) < 1e-12

    def test_matches_finiteqm_helper(self):
        f = _random_local(2, 3, MOMENTUM)
        assert np.allclose(hat_transform_2adic(f), _hat_values(f.values))

    def test_wrong_prime_rejected(self):
        with pytest.raises(ValueError):
            hat_transform_2adic(_random_local(3, 1, MOMENTUM))

    def test_position_side_rejected(self):
        with pytest.raises(ValueError):
            hat_transform_2adic(_random_local(2, 1, POSITION))


class TestConstructors:
    def test_length_based_degree(self):
        f = LocalSBFunction.from_state(3, FiniteState(3, POSITION, [1, 2, 3]))
        assert (f.degree, f.side) == (1, POSITION)
        g = LocalSBFunction.from_state(2, FiniteState(4, MOMENTUM, [1, 0, 0, 0]))
        assert (g.degree, g.side) == (2, MOMENTUM)
        with pytest.raises(ValueError, match="value count 2 is not a power of 3"):
            LocalSBFunction.from_state(3, FiniteState(2, POSITION, [1, 2]))

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

    def test_character_function_matches_the_per_value_loop(self):
        for p, k in ((2, 10), (3, 6), (7, 3)):
            q = p**k
            for m in (1, q // 2 + 1, q - 1):
                f = character_function(p, Fraction(m, q))
                old = [np.exp(2j * np.pi * (m * j % q / q)) for j in range(q)]
                assert np.max(np.abs(np.array(f.values) - old)) <= 1e-15

    @pytest.mark.parametrize("q", [2**21, 2**40])
    def test_character_function_has_a_size_bound(self, q):
        with pytest.raises(ValueError, match="exceeds bound 1048576"):
            character_function(2, Fraction(1, q))

    @pytest.mark.parametrize("side", [POSITION, MOMENTUM])
    def test_state_round_trip(self, side):
        f = _random_local(3, 2, side)
        st = f.state()
        assert (st.n, st.rep) == (9, side)
        assert list(st.amplitudes) == list(f.values)
        assert sb_equal(LocalSBFunction.from_state(3, st), f)
        with pytest.raises(ValueError):
            LocalSBFunction.from_state(2, st)

    def test_delta_needs_positive_precision(self):
        with pytest.raises(ValueError, match="precision must be >= 1"):
            delta_family(2, 0)

    @pytest.mark.parametrize(
        "p, degree, name",
        [(2, 1.0, "degree"), (2.0, 1, "p"), (2, "1", "degree"), (Fraction(2), 1, "p")],
    )
    def test_p_and_degree_must_be_integers(self, p, degree, name):
        # each field is checked once, here: a float degree would reach pow()
        # in canonicalize_global as a TypeError
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
            LocalSBFunction(p, POSITION, degree, [1, 2])

    def test_integer_like_p_degree_and_lambda_are_plain_ints(self):
        f = LocalSBFunction(np.int64(3), MOMENTUM, np.int64(1), [1, 2, 3])
        assert (type(f.p), type(f.degree)) == (int, int)
        assert canonicalize_global(GlobalSBFunction.product(MOMENTUM, {3: f})).n == 3
        assert sb_equal(scale_variable(f, np.int64(6)), scale_variable(f, 6))

    @pytest.mark.parametrize("lam", [2.0, "2", Fraction(2)])
    def test_scale_variable_lambda_must_be_an_integer(self, lam):
        # refused before the index map, which takes integer indices only
        with pytest.raises(ValueError, match="^lambda must be an integer, got "):
            scale_variable(_random_local(2, 2, MOMENTUM), lam)

    def test_values_are_a_read_only_copy(self):
        source = np.arange(9, dtype=complex)
        f = LocalSBFunction(3, POSITION, 2, source)
        source[0] = 7
        assert f.values[0] == 0 and f.values.dtype == complex
        with pytest.raises(ValueError, match="read-only"):
            f.values[0] = 1
        st = f.state()
        assert np.shares_memory(st.amplitudes, f.values)
        with pytest.raises(ValueError, match="read-only"):
            st.amplitudes[0] = 1
        for g in (refine(f, 3), local_fourier(f), local_reflect(f), scale_variable(f, 2)):
            assert not g.values.flags.writeable

    @pytest.mark.parametrize("values", [[[1, 2]], [[1], [2]], 5])
    def test_values_must_be_one_flat_table(self, values):
        with pytest.raises(ValueError, match="value count must be p\\^degree"):
            LocalSBFunction(2, POSITION, 1, values)

    @pytest.mark.parametrize("degree", [65, 10**9])
    def test_a_huge_degree_is_refused_without_its_power(self, degree):
        # 3^(10^7) alone takes seconds to form; no table has 2^64 values
        with pytest.raises(ValueError, match="value count must be p\\^degree"):
            LocalSBFunction(3, POSITION, degree, [1])

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
        assert np.allclose(st.amplitudes, 2.0 * f2.values, rtol=0, atol=1e-12)
        assert global_inner(f, f) == pytest.approx(inner(st, st))


def _refused_before_allocation(call, message: str) -> None:
    """call raises the bound's ValueError with message, having allocated
    under 1 MiB: a table of 2^21 values would take 32 MiB."""
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=re.escape(message)):
            call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


class TestSizeBound:
    """Every table of more than 2^20 values is refused before it is built."""

    @pytest.mark.parametrize("p, degree", [(2, 21), (3, 13), (7, 8), (2, 10**9)])
    @pytest.mark.parametrize("side", [POSITION, MOMENTUM])
    def test_refine(self, p, degree, side):
        # 2^21, 3^13 and 7^8 are the first powers past 2^20; p^(10^9) is never formed
        _refused_before_allocation(
            lambda: refine(trivial_local(p, side), degree),
            f"result size {p}^{degree} exceeds bound 1048576",
        )

    @pytest.mark.parametrize("side", [POSITION, MOMENTUM])
    @pytest.mark.parametrize(
        "p, den, size", [(2, 2**22, "2^21"), (2, 2**27, "2^26"), (3, 3**13, "3^13")]
    )
    def test_local_displace(self, side, p, den, size):
        # 2a = 1/2^21 needs degree 21; at 1/2^27 the table would take 1 GiB
        f = _random_local(p, 1, side)
        _refused_before_allocation(
            lambda: local_displace(f, RatMod1.of(1, den), 1),
            f"result size {size} exceeds bound 1048576",
        )

    @pytest.mark.parametrize("den, size", [(2**22, "2^21"), (2**30, "2^29")])
    def test_global_displace(self, den, size):
        # at a = 1/2^30 the factor at the prime 2 would take 8 GiB
        f = GlobalSBFunction.product(POSITION, {3: _random_local(3, 1)})
        _refused_before_allocation(
            lambda: global_displace(f, RatMod1.of(1, den), 1),
            f"result size {size} exceeds bound 1048576",
        )

    def test_delta_family(self):
        _refused_before_allocation(
            lambda: delta_family(2, 21), "result size 2^21 exceeds bound 1048576"
        )

    @pytest.mark.parametrize("side", [POSITION, MOMENTUM])
    def test_canonicalize_global(self, side):
        # 2^11 and 3^7 values are each in bound; their tensor on Z(2^11 3^7),
        # 4478976 values, is not
        f = GlobalSBFunction.product(
            side, {2: _random_local(2, 11, side), 3: _random_local(3, 7, side)}
        )
        _refused_before_allocation(
            lambda: canonicalize_global(f), "result size 4478976 exceeds bound 1048576"
        )


class TestQpZpMembership:
    """Q_p/Z_p membership is decided in one place, with one message."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda: character_function(3, Fraction(1, 2)),
            lambda: char_chi_p(PadicInt.from_int(1, 3, 4), RatMod1(1, 2)),
            lambda: local_displace(_random_local(3, 1), RatMod1(1, 2), 0),
            lambda: local_displace(_random_local(3, 0), ZERO_MOD1, 0, RatMod1(1, 2)),
        ],
    )
    def test_one_message(self, call):
        msg = "1/2 is not in Q_3/Z_3: its denominator is not a power of 3"
        with pytest.raises(ValueError, match=re.escape(msg)):
            call()


class TestGlobalDisplace:
    def test_degree_zero_scalar_matches_the_old_expression(self):
        for c in (RatMod1(1, 4), RatMod1(5, 8), RatMod1.of(3, 2**60)):
            for b in (0, 3):
                got = local_displace(trivial_local(2, POSITION), RatMod1(1, 2), b, c)
                e = c - RatMod1(1, 2).scaled(b)
                old = np.exp(2j * np.pi * (e.numerator / e.denominator))
                assert (got.degree, abs(got.values[0] - old) <= 1e-15) == (0, True)

    @pytest.mark.parametrize("c", [RatMod1.of(1, 2**70), RatMod1.of(3 * 2**68 + 1, 2**70)])
    @pytest.mark.parametrize("side", [POSITION, MOMENTUM])
    def test_phase_denominator_beyond_int64(self, c, side):
        # the 2-part c = 1/2^70 (or 3/4 + 1/2^70) scales D(a, b, 0) by e(c)
        e = np.exp(2j * np.pi * float(c.as_fraction))
        loc, a, b = _random_local(2, 3, side), RatMod1(3, 16), 5
        f = GlobalSBFunction.product(side, {2: loc})
        got = global_displace(f, a, b, c).terms[0][1][2]
        want = global_displace(f, a, b).terms[0][1][2]
        assert got.degree == want.degree == 3
        assert np.max(np.abs(np.array(got.values) - e * np.array(want.values))) <= 1e-15
        # the element local_displace builds, through each displacement path
        d = HWElement.from_phase_space(8, a, b, c)
        d0 = HWElement.from_phase_space(8, a, b)
        assert d.phase.denominator == 2**70
        gap = displace(d, loc.state()).amplitudes - e * displace(d0, loc.state()).amplitudes
        assert np.max(np.abs(gap)) <= 1e-15
        assert np.max(np.abs(hw_matrix(d, side) - e * hw_matrix(d0, side))) <= 1e-15
        stack = _hw_matrices([d, d0], side)
        assert np.max(np.abs(stack[0] - e * stack[1])) <= 1e-15

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
