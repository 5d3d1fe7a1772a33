import cmath
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from pqm import numbers as nm
from pqm.numbers import (
    ZERO_MOD1,
    PadicInt,
    PrecisionError,
    ProfiniteInt,
    RatMod1,
    char_chi_global,
    char_chi_p,
    char_omega,
    crt_idempotents,
    crt_join_mu,
    crt_join_nu_hat,
    crt_split_mu,
    crt_split_nu_hat,
    factorize,
    is_prime,
    lift_tilde_xi,
    ostrowski_product,
    padic_ord_abs,
    project_xi,
    rat_decompose,
    rat_recombine,
    valuation,
)


class TestPadicInt:
    def test_minus_one_digit_pattern(self):
        # -1 = (p-1)(1 + p + p^2 + ...)
        for p in (2, 3, 5, 7):
            a = PadicInt.from_int(-1, p, 4)
            assert a.digits == (p - 1,) * 4

    def test_additive_inverse(self):
        rng = random.Random(1)
        for _ in range(50):
            p = rng.choice([2, 3, 5])
            a = PadicInt.from_int(rng.randrange(p**5), p, 5)
            assert (a + (-a)).digits == (0,) * 5

    def test_three_squared_base_two(self):
        a = PadicInt.from_int(3, 2, 4)
        assert (a * a).digits == (1, 0, 0, 1)  # 9 mod 16

    def test_min_precision(self):
        a = PadicInt.from_int(5, 3, 6)
        b = PadicInt.from_int(7, 3, 3)
        assert (a + b).precision == 3
        assert (a * b).residue == 35 % 27

    def test_prime_mismatch(self):
        with pytest.raises(ValueError):
            PadicInt.from_int(1, 2, 3) + PadicInt.from_int(1, 3, 3)

    def test_schoolbook_matches_integer_arithmetic(self):
        rng = random.Random(2)
        for _ in range(200):
            p = rng.choice([2, 3, 5, 7])
            n = rng.randrange(1, 6)
            x, y = rng.randrange(p**n), rng.randrange(p**n)
            a, b = PadicInt.from_int(x, p, n), PadicInt.from_int(y, p, n)
            assert (a + b).residue == (x + y) % p**n
            assert (a - b).residue == (x - y) % p**n
            assert (a * b).residue == (x * y) % p**n

    def test_from_rational(self):
        a = PadicInt.from_rational(Fraction(1, 3), 2, 5)
        three = PadicInt.from_int(3, 2, 5)
        assert (a * three).residue == 1

    @pytest.mark.parametrize(
        "p, precision, residue, match",
        [
            (3, 2, 9, "out of range"),
            (3, 2, -1, "out of range"),
            (3, 0, 0, "precision must be >= 1"),
            (3, -2, 0, "precision must be >= 1"),
            (4, 2, 1, "not prime"),
            (1, 2, 0, "not prime"),
        ],
    )
    def test_constructor_validation(self, p, precision, residue, match):
        with pytest.raises(ValueError, match=match):
            PadicInt(p, precision, residue)

    @pytest.mark.parametrize(
        "args, field",
        [
            ((3, 2, 4.5), "residue"),
            ((3, 2, 4.0), "residue"),
            ((3, 2, Fraction(4)), "residue"),
            ((3.0, 2, 4), "p"),
            ((3, 2.0, 4), "precision"),
            (("3", 2, 4), "p"),
        ],
    )
    def test_constructor_rejects_non_integers(self, args, field):
        # once accepted: PadicInt(3, 2, 4.5) had digits (1.5, 1.0), and 3.0
        # passed is_prime; arithmetic trusts this one check
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            PadicInt(*args)

    @pytest.mark.parametrize(
        "value, p, precision, field",
        [(4.5, 3, 2, "value"), (4, 3.0, 2, "p"), (4, 3, 2.0, "precision")],
    )
    def test_from_int_rejects_non_integers(self, value, p, precision, field):
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            PadicInt.from_int(value, p, precision)

    @pytest.mark.parametrize("p, precision, field", [(3.0, 2, "p"), (3, 2.0, "precision")])
    def test_from_rational_rejects_non_integers(self, p, precision, field):
        # once a TypeError from math.gcd or pow
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            PadicInt.from_rational(Fraction(1, 2), p, precision)

    def test_constructor_stores_plain_ints(self):
        a = PadicInt(3, True, True)
        assert (a.p, a.precision, a.residue) == (3, 1, 1)
        assert all(type(v) is int for v in (a.p, a.precision, a.residue))

    def test_constructor_stores_the_residue(self):
        a = PadicInt(3, 4, 16)
        assert a == PadicInt.from_int(16 - 81, 3, 4)
        assert a.digits == (1, 2, 1, 0)
        assert repr(a) == "PadicInt(p=3, digits=(1, 2, 1, 0))"

    @pytest.mark.parametrize("precision", [0, -1, -4])
    def test_from_rational_rejects_precision_below_one(self, precision):
        with pytest.raises(ValueError, match="precision must be >= 1"):
            PadicInt.from_rational(Fraction(1, 2), 3, precision)

    @pytest.mark.parametrize(
        "q, p",
        [(Fraction(1, 2), 4), (Fraction(1, 4), 4), (Fraction(5, 6), 9), (Fraction(1, 3), 4)],
    )
    def test_from_rational_names_a_composite_p(self, q, p):
        # a denominator sharing a factor with p once reached pow() unchecked
        with pytest.raises(ValueError, match=f"^{p} is not prime$"):
            PadicInt.from_rational(q, p, 4)

    @pytest.mark.parametrize(
        "q, raises", [(Fraction(1, 2), False), (Fraction(1, 3), True), (Fraction(4, 9), True)]
    )
    def test_from_rational_checks_primality_once(self, q, raises, monkeypatch):
        import pqm.numbers as nm

        calls = []
        monkeypatch.setattr(nm, "is_prime", lambda p: calls.append(p) or is_prime(p))
        if raises:
            with pytest.raises(ValueError, match="is not a 3-adic integer"):
                PadicInt.from_rational(q, 3, 4)
        else:
            PadicInt.from_rational(q, 3, 4)
        assert calls == [3]


class TestOrdAbs:
    def test_twelve_at_two(self):
        assert padic_ord_abs(12, 2) == (2, Fraction(1, 4))

    def test_one_third_at_three(self):
        assert padic_ord_abs(Fraction(1, 3), 3) == (-1, Fraction(3))

    def test_coprime(self):
        assert padic_ord_abs(7, 5) == (0, Fraction(1))

    def test_padic_input(self):
        a = PadicInt.from_int(12, 2, 6)
        assert padic_ord_abs(a) == (2, Fraction(1, 4))

    @pytest.mark.parametrize("p", [1, 0, 4, -3])
    def test_non_prime_rejected(self, p):
        with pytest.raises(ValueError, match="not prime"):
            padic_ord_abs(Fraction(8), p)

    def test_all_zero_is_undetermined(self):
        with pytest.raises(PrecisionError):
            padic_ord_abs(PadicInt.from_int(8, 2, 3))

    def test_ord_multiplicative(self):
        rng = random.Random(3)
        for _ in range(100):
            p = rng.choice([2, 3, 5])
            a = PadicInt.from_int(rng.randrange(1, p**4), p, 8)
            b = PadicInt.from_int(rng.randrange(1, p**4), p, 8)
            oa, _ = padic_ord_abs(a)
            ob, _ = padic_ord_abs(b)
            oab, _ = padic_ord_abs(a * b)
            assert oab == oa + ob

    def test_ultrametric_inequality(self):
        rng = random.Random(4)
        for _ in range(100):
            p = rng.choice([2, 3, 5])
            a = PadicInt.from_int(rng.randrange(1, p**6), p, 6)
            b = PadicInt.from_int(rng.randrange(1, p**6), p, 6)
            try:
                _, s = padic_ord_abs(a + b)
            except PrecisionError:
                continue  # |a+b| < p^-6 <= max: inequality holds
            _, sa = padic_ord_abs(a)
            _, sb = padic_ord_abs(b)
            assert s <= max(sa, sb)


class TestOstrowski:
    @pytest.mark.parametrize("q", [12, Fraction(3, 4), -1])
    def test_examples(self, q):
        assert ostrowski_product(q) == 1

    def test_random(self):
        rng = random.Random(5)
        for _ in range(300):
            q = Fraction(rng.randint(-10**6, 10**6) or 1, rng.randint(1, 10**6))
            assert ostrowski_product(q) == 1

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            ostrowski_product(0)


class TestProjectLift:
    def test_truncation(self):
        a = PadicInt(3, 4, 1 + 2 * 3 + 1 * 3**2)
        assert project_xi(a, 2) == 1 + 2 * 3

    def test_full_residue(self):
        a = PadicInt.from_int(77, 3, 4)
        assert project_xi(a, 4) == 77 % 81

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_compatibility_with_reduction(self, p):
        # xi_k = (mod p^k) o xi_l for k <= l, exhaustively mod p^3
        for r in range(p**3):
            a = PadicInt.from_int(r, p, 3)
            for k in range(1, 3):
                for l in range(k, 4):
                    assert project_xi(a, k) == project_xi(a, l) % p**k

    def test_out_of_range(self):
        with pytest.raises(PrecisionError):
            project_xi(PadicInt.from_int(1, 2, 3), 4)

    @pytest.mark.parametrize("k", [0, -1])
    def test_level_below_one_is_not_a_precision_error(self, k):
        # no digit count is too small for xi_0; the level itself is invalid
        with pytest.raises(ValueError, match="^k must be >= 1$") as info:
            project_xi(PadicInt.from_int(1, 2, 3), k)
        assert not isinstance(info.value, PrecisionError)

    def test_lift_half(self):
        assert lift_tilde_xi(1, 1, 2).as_fraction == Fraction(1, 2)

    def test_lift_canonicalizes(self):
        b = lift_tilde_xi(3, 2, 3)  # 3/9 -> 1/3
        assert b.as_fraction == Fraction(1, 3)
        assert valuation(b.denominator, 3) == 1

    def test_lift_zero(self):
        assert lift_tilde_xi(0, 3, 5) == ZERO_MOD1

    def test_lift_compatibility(self):
        # xi~_l o phi~_kl = xi~_k (the hom2 embedding beta -> p^(l-k) beta)
        for p in (2, 3):
            for k in range(1, 3):
                for l in range(k, 4):
                    for beta in range(p**k):
                        lifted = lift_tilde_xi(p ** (l - k) * beta, l, p)
                        assert lifted.as_fraction == lift_tilde_xi(beta, k, p).as_fraction


class TestFracMul:
    """The coset product a*b in Q_p/Z_p, which ``char_chi_p`` returns."""

    def test_mod_one_reduction(self):
        a = PadicInt.from_int(3, 2, 4)
        b = RatMod1.of(Fraction(1, 2))
        assert char_chi_p(a, b).as_fraction == Fraction(1, 2)  # 3/2 mod 1

    def test_annihilation(self):
        a = PadicInt.from_int(8, 2, 5)
        b = lift_tilde_xi(5, 3, 2)  # 5/8
        assert char_chi_p(a, b) == ZERO_MOD1

    def test_rational_oracle(self):
        rng = random.Random(6)
        for _ in range(200):
            p = rng.choice([2, 3, 5])
            k = rng.randrange(0, 4)
            beta = rng.randrange(p**k) if k else 0
            b = lift_tilde_xi(beta, k, p)
            x = rng.randrange(p**6)
            a = PadicInt.from_int(x, p, 6)
            got = char_chi_p(a, b).as_fraction
            want = Fraction(x * beta, p**k) % 1 if k else Fraction(0)
            assert got == want

    def test_insufficient_precision(self):
        a = PadicInt.from_int(1, 2, 2)
        b = lift_tilde_xi(1, 3, 2)
        with pytest.raises(PrecisionError):
            char_chi_p(a, b)

    @pytest.mark.parametrize("b", [RatMod1(1, 3), RatMod1(1, 6), RatMod1(5, 12)])
    def test_denominator_not_a_power_of_p(self, b):
        # 1/3 lies in Q_3/Z_3, not Q_2/Z_2; 1/6 and 5/12 in neither
        with pytest.raises(ValueError, match="not a power of 2"):
            char_chi_p(PadicInt.from_int(1, 2, 4), b)


class TestCrt:
    def test_n12(self):
        f = crt_idempotents(12)
        assert [x.u for x in f] == [3, 4]
        assert [x.t for x in f] == [3, 1]
        assert [x.w for x in f] == [9, 4]
        w1, w2 = f[0].w, f[1].w
        assert (w1 * w2) % 12 == 0
        assert (w1 * w1) % 12 == 9
        assert (w1 + w2) % 12 == 1

    def test_n6(self):
        assert [x.w for x in crt_idempotents(6)] == [3, 4]

    def test_prime_power_trivial(self):
        (f,) = crt_idempotents(8)
        assert f.w == 1 and f.u == 1 and f.t == 1

    def test_mu_example(self):
        assert crt_split_mu(12, 7) == (3, 1)
        assert crt_join_mu(12, (3, 1)) == 7

    def test_zero(self):
        assert crt_split_mu(12, 0) == (0, 0)
        assert crt_split_nu_hat(12, 0) == (0, 0)

    def test_nu_hat_partial_fractions(self):
        hats = crt_split_nu_hat(6, 5)
        assert hats == (1, 1)  # 5/6 = 1/2 + 1/3 mod 1
        assert crt_join_nu_hat(6, hats) == 5
        assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6)

    @pytest.mark.parametrize("n", [6, 12, 30, 36, 60, 200])
    def test_round_trips_bijective(self, n):
        mus = {crt_split_mu(n, m) for m in range(n)}
        assert len(mus) == n
        for m in range(n):
            assert crt_join_mu(n, crt_split_mu(n, m)) == m
            assert crt_join_nu_hat(n, crt_split_nu_hat(n, m)) == m
            hats = crt_split_nu_hat(n, m)
            total = sum(
                (Fraction(h, f.q) for h, f in zip(hats, crt_idempotents(n))),
                Fraction(0),
            )
            assert total % 1 == Fraction(m, n) % 1


def _e(q: RatMod1) -> complex:
    """The character value exp(2 pi i q) of an exact exponent."""
    return cmath.exp(2j * math.pi * q.numerator / q.denominator)


class TestCharacters:
    def test_omega4_of_2(self):
        ph = char_omega(4, 2)
        assert ph == RatMod1(1, 2)
        assert _e(ph) == pytest.approx(-1)

    def test_good_factorization_omega12(self):
        # omega_12(mu nu) = omega_4(nu_hat_1 mu_1) omega_3(nu_hat_2 mu_2)
        for mu in range(12):
            for nu in range(12):
                lhs = char_omega(12, mu * nu)
                mus = crt_split_mu(12, mu)
                hats = crt_split_nu_hat(12, nu)
                rhs = char_omega(4, hats[0] * mus[0]) + char_omega(3, hats[1] * mus[1])
                assert lhs == rhs

    def test_chi_p(self):
        a = PadicInt.from_int(3, 2, 4)
        b = RatMod1(1, 2)
        assert char_chi_p(a, b) == RatMod1(1, 2)

    def test_orthogonality(self):
        for n in (2, 3, 4, 6, 12):
            for beta in range(n):
                s = sum(_e(char_omega(n, a * beta)) for a in range(n)) / n
                want = 1.0 if beta == 0 else 0.0
                assert abs(s - want) < 1e-12

    def test_chi_global_finite_product(self):
        a = ProfiniteInt(tail=5)
        b = rat_decompose(RatMod1(5, 6))
        # chi(a*b) = exp(2 pi i * 5 * 5/6) since the tail is the integer 5
        assert char_chi_global(a, b) == RatMod1.of(25, 6)

    @pytest.mark.parametrize("b", [RatMod1(1, 3), RatMod1(1, 6)])
    def test_chi_global_rejects_a_part_outside_its_prime(self, b):
        with pytest.raises(ValueError, match="not a power of 2"):
            char_chi_global(ProfiniteInt(tail=1), {2: b})


class TestRatDecompose:
    def test_five_sixths(self):
        parts = rat_decompose(RatMod1(5, 6))
        assert parts[2].as_fraction == Fraction(1, 2)
        assert parts[3].as_fraction == Fraction(1, 3)

    def test_zero(self):
        assert rat_decompose(RatMod1(0, 1)) == {}

    def test_single_prime(self):
        parts = rat_decompose(RatMod1(3, 4))
        assert set(parts) == {2}
        assert parts[2].as_fraction == Fraction(3, 4)

    def test_recombine_exhaustive(self):
        for lam in range(1, 201):
            for kap in range(lam):
                if math.gcd(kap, lam) != 1:
                    continue
                q = RatMod1(kap, lam)
                parts = rat_decompose(q)
                assert rat_recombine(parts) == q
                for p, part in parts.items():
                    assert lam % p == 0 and valuation(part.denominator, p) > 0


class TestProfiniteInt:
    def test_tail_components(self):
        a = ProfiniteInt(tail=7)
        assert a.component(2, 3).residue == 7 % 8
        assert a.component(3, 2).residue == 7 % 9

    def test_residue_projection(self):
        a = ProfiniteInt(tail=35)
        assert a.residue(12) == 35 % 12
        assert a.residue(8) == 35 % 8

    @pytest.mark.parametrize("n", [1, 0, -12])
    def test_residue_refuses_n_below_2(self, n):
        with pytest.raises(ValueError, match="n must be >= 2"):
            ProfiniteInt(tail=35).residue(n)

    def test_projection_compatibility(self):
        # n | l  ->  residue(l) mod n == residue(n)
        a = ProfiniteInt(tail=123)
        for n, l in [(2, 4), (4, 12), (6, 36), (12, 60)]:
            assert a.residue(l) % n == a.residue(n)

    def test_override(self):
        a = ProfiniteInt({2: PadicInt.from_int(1, 2, 4)}, tail=0)
        assert a.residue(4) == 1
        assert a.residue(3) == 0
        assert a.residue(12) == 9  # 1 mod 4, 0 mod 3

    def test_even_odd_partition(self):
        assert ProfiniteInt(tail=4).is_even()
        assert not ProfiniteInt(tail=3).is_even()
        a = ProfiniteInt({2: PadicInt.from_int(1, 2, 3)}, tail=2)
        assert not a.is_even()

    def test_component_precision_error(self):
        a = ProfiniteInt({2: PadicInt.from_int(1, 2, 2)}, tail=0)
        with pytest.raises(PrecisionError):
            a.component(2, 5)

    def test_component_refuses_a_composite_key(self):
        with pytest.raises(ValueError, match="^4 is not prime$"):
            ProfiniteInt(tail=5).component(4, 3)

    def test_chi_global_refuses_a_composite_key(self):
        # 1/4 lies in Q_4/Z_4's place only by its denominator; 4 is no prime
        with pytest.raises(ValueError, match="^4 is not prime$"):
            char_chi_global(ProfiniteInt(tail=3), {4: RatMod1.of(1, 4)})

    @pytest.mark.parametrize("tail", [2.5, "3", None, Fraction(1, 2)])
    def test_non_integer_tail_is_refused(self, tail):
        with pytest.raises(ValueError, match="tail must be an integer"):
            ProfiniteInt(tail=tail)

    def test_integer_tail_is_stored_as_a_plain_int(self):
        for tail in (np.int64(7), True):
            a = ProfiniteInt(tail=tail)
            assert type(a.tail) is int and a.tail == int(tail)
            assert type((a * a - a).tail) is int

    @pytest.mark.parametrize(
        "overrides", [{2: 5}, {2: 1.0}, {3: PadicInt.from_int(1, 2, 3)}, {5: None}]
    )
    def test_override_must_be_a_padic_int_at_its_own_prime(self, overrides):
        with pytest.raises(ValueError, match="is not a"):
            ProfiniteInt(overrides)

    def test_arithmetic(self):
        a = ProfiniteInt({2: PadicInt.from_int(3, 2, 4)}, tail=2)
        b = ProfiniteInt(tail=5)
        c = a * b + b
        assert c.component(2, 4).residue == (3 * 5 + 5) % 16
        assert c.component(7, 2).residue == (2 * 5 + 5) % 49
        assert c.tail == 15


def test_factorize_small():
    assert factorize(12) == {2: 2, 3: 1}
    assert factorize(97) == {97: 1}
    assert factorize(1) == {}


@pytest.mark.parametrize(
    "n, want",
    [
        (10**18 + 3, {10**18 + 3: 1}),
        (6 * (10**18 + 3), {2: 1, 3: 1, 10**18 + 3: 1}),
        (2**5 * 7**2 * (10**18 + 3), {2: 5, 7: 2, 10**18 + 3: 1}),
        (2**61 - 1, {2**61 - 1: 1}),
        (2**64, {2: 64}),
    ],
)
def test_factorize_stops_at_a_prime_cofactor(n, want):
    # trial division to sqrt(10^18 + 3) would take minutes
    got = factorize(n)
    assert dict(got) == want and list(got) == sorted(want)


def test_factorize_splits_the_largest_64_bit_semiprime_by_rho():
    # the two largest primes below 2^32: rho's longest 64-bit split, far
    # beyond the trial-division oracle
    p, q = 4294967279, 4294967291
    got = factorize(p * q)
    assert got == {p: 1, q: 1} and list(got) == [p, q]


# two 15-digit primes, whose 30-digit product rho would take hours to split
_SEMIPRIME_30 = 316227766016849 * 316227766016857


@pytest.mark.parametrize("n", [_SEMIPRIME_30, 4 * 1031 * _SEMIPRIME_30])
def test_factorize_refuses_rho_on_a_cofactor_past_the_bound(n):
    # rho splits 1031 off the second at once, then gets nowhere on the rest
    bound = r"^composite cofactor (\d+) exceeds bound 18446744073709551616, "
    with pytest.raises(ValueError, match=bound) as exc:
        factorize(n)
    assert exc.value.args[0].split()[2] == str(_SEMIPRIME_30)


def test_factorize_bounds_the_cofactor_not_n():
    # the product of the first 25 primes is about 2.3e36, far past 2^64, but
    # trial division leaves no cofactor for rho
    primes = [p for p in range(2, 100) if all(p % d for d in range(2, p))]
    n = math.prod(primes)
    assert len(primes) == 25 and n > 2**64
    assert factorize(n) == dict.fromkeys(primes, 1)
    p, q = 4294967279, 4294967291
    assert factorize(n * p * q) == {**dict.fromkeys(primes, 1), p: 1, q: 1}
    # past the bound, rho's steps still split off a prime near 2^32: here the
    # two least primes above 2^32
    p, q = 2**32 + 15, 2**32 + 61
    assert p * q > 2**64 and factorize(p * q) == {p: 1, q: 1}


def test_factorize_refuses_an_unprovable_cofactor():
    # 2^89 - 1 is prime and above the bound where Miller-Rabin decides
    with pytest.raises(ValueError, match="cannot prove"):
        factorize(2**89 - 1)
    with pytest.raises(ValueError, match="cannot prove"):
        factorize(12 * (2**89 - 1))


def test_factorize_bounds_the_bits_of_a_cofactor(monkeypatch):
    # past the bound neither Miller-Rabin nor rho is asked, prime or not
    monkeypatch.setattr(nm, "_FACTOR_BITS", 40)
    for n in (4294967279 * 4294967291, 2**61 - 1, 1031 * (2**61 - 1)):
        with pytest.raises(ValueError, match=r"^cofactor exceeds bound 2\^40$"):
            factorize(n)
    # trial division strips a smooth n of any size first
    assert factorize(2**300 * 3**200 * 1021) == {2: 300, 3: 200, 1021: 1}
    assert factorize(1031 * 2**300) == {2: 300, 1031: 1}
    assert factorize(2**31 - 1) == {2**31 - 1: 1}
    assert factorize(1031 * 1033) == {1031: 1, 1033: 1}


def test_factorize_returns_a_fresh_dict():
    # nothing is cached, so a caller that changes its dict changes no other
    from pqm.poset import divisor_width_length

    first, second = factorize(12), factorize(12)
    assert first == second == {2: 2, 3: 1} and first is not second
    first[5] = 1
    assert factorize(12) == {2: 2, 3: 1}
    assert divisor_width_length(12).width == 2


def test_padic_frac_arithmetic():
    # Q_2/Z_2 is the subgroup of Q/Z with 2-power denominators
    a, b = RatMod1(1, 4), RatMod1(3, 4)
    assert a + b == ZERO_MOD1  # 1/4 + 3/4 = 0 mod 1
    assert (a + a).as_fraction == Fraction(1, 2)
    assert (-a).as_fraction == Fraction(3, 4)


def test_padic_frac_stores_the_reduced_numerator():
    assert RatMod1.of(Fraction(15, 81)) == RatMod1(5, 27)
    assert lift_tilde_xi(15, 4, 3) == RatMod1(5, 27)
    assert RatMod1.of(Fraction(2)) == lift_tilde_xi(0, 0, 3) == ZERO_MOD1


@pytest.mark.parametrize("p", [1, 0, -3, 4])
def test_padic_frac_rejects_small_p(p):
    # the lift into Q_p/Z_p needs a prime p, even where beta is in range
    with pytest.raises(ValueError, match=f"^{p} is not prime$"):
        lift_tilde_xi(1, 2, p)


def test_profinite_subtraction():
    a = ProfiniteInt(tail=9)
    b = ProfiniteInt({3: PadicInt.from_int(2, 3, 3)}, tail=4)
    c = a - b
    assert c.tail == 5
    assert c.component(3, 3).residue == (9 - 2) % 27
    assert c.component(5, 2).residue == 5


# the least strong pseudoprimes to the first 1, 2, 3, 4, 9 and 12 prime bases
# (each one fools exactly the bases that the size table gives numbers below
# it), and 8321 = 53 * 157, the least to base 2 with no factor <= 41
_STRONG_PSEUDOPRIMES = [
    2047, 8321, 1373653, 25326001, 3215031751, 3825123056546413051,
    318665857834031151167461,
]
# Carmichael numbers, some with a factor <= 41 and some, of the form
# (6k + 1)(12k + 1)(18k + 1) for k = 35, 45, 51, without
_CARMICHAEL = [561, 1105, 1729, 294409, 56052361, 118901521, 172947529, 5394826801]


@pytest.mark.parametrize("n", _STRONG_PSEUDOPRIMES + _CARMICHAEL)
def test_is_prime_rejects_pseudoprimes(n):
    assert not is_prime(n)


@pytest.mark.parametrize(
    "p",
    [65537, 2**31 - 1, 2**61 - 1, 10**18 + 3, 2**64 - 59, 10**20 + 39, 10**23 + 117],
)
def test_is_prime_proves_large_primes(p):
    assert is_prime(p)
    assert not is_prime(p * 65537)


def test_is_prime_refuses_what_it_cannot_prove():
    # the least strong pseudoprime to the first 13 prime bases, where the
    # deterministic range ends: a composite above it with a small factor
    # still reads False
    psi13 = 3317044064679887385961981
    with pytest.raises(ValueError, match=f"cannot prove {psi13} prime"):
        is_prime(psi13)
    assert not is_prime(43 * psi13)
    assert not is_prime(2**127 + 1)


def test_is_prime_refuses_a_huge_p_at_once():
    # 10^4000 + 1 has no factor among the 13 bases: its Miller-Rabin rounds
    # took seconds, and each error echoed its 4001 digits
    p = 10**4000 + 1
    for call in (
        lambda: is_prime(p),
        lambda: padic_ord_abs(Fraction(3), p),
        lambda: lift_tilde_xi(0, 1, p),
    ):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=r"^p exceeds bound 2\^256$") as err:
            call()
        assert time.perf_counter() - start < 1.0
        assert len(str(err.value)) < 200
    # a base still divides a huge even p first, so it reads False at once
    assert not is_prime(2**300)
