import math
import random
import sys

import pytest

import pqm.poset as ps
from helpers import check_t0_oracle, poset_axioms_hold
from pqm.numbers import is_prime
from pqm.poset import (
    INF,
    OMEGA,
    FinitePoset,
    OmegaChain,
    PrimePowerChain,
    Supernatural,
    basis_open,
    check_t0,
    check_t1,
    divisor_poset,
    divisor_rank,
    divisor_rank_sizes,
    divisor_t1,
    divisor_width_length,
    is_chain_partition,
    is_open,
    poset_width_length,
    sn_divides,
    sn_sup,
)


def _sieved_divisors(limit):
    """divisors[n] lists N(n) in increasing order, for every n <= limit."""
    divisors = [[] for _ in range(limit + 1)]
    for d in range(2, limit + 1):
        for mult in range(d, limit + 1, d):
            divisors[mult].append(d)
    return divisors


# what divisor_poset refuses, and its message; the closed forms refuse the same
_REFUSED = [
    (0, "n must be >= 2"),
    (1, "n must be >= 2"),
    (-6, "n must be >= 2"),
    # 2*3*...*59: 2^17 - 1 divisors above 1
    (math.prod((2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59)),
     "poset size 131071 exceeds bound 10000"),
]


def _random_supernatural(rng):
    finite = {}
    infs = set()
    for p in (2, 3, 5, 7, 11):
        r = rng.random()
        if r < 0.4:
            finite[p] = rng.randrange(1, 5)
        elif r < 0.55:
            infs.add(p)
    tail = rng.random() < 0.15
    if not finite and not infs and not tail:
        finite[2] = 1
    return Supernatural.of(finite, infs, tail)


class TestSupernatural:
    def test_finite_divides_infinite(self):
        twelve = Supernatural.from_int(12)
        big = Supernatural.of(inf_primes=[2, 3])
        assert sn_divides(twelve, big)

    def test_infinite_does_not_divide_finite(self):
        assert not sn_divides(
            Supernatural.prime_power(2, INF), Supernatural.from_int(12)
        )

    def test_omega_is_maximum(self):
        rng = random.Random(7)
        for _ in range(100):
            assert sn_divides(_random_supernatural(rng), OMEGA)

    def test_excludes_one(self):
        with pytest.raises(ValueError):
            Supernatural.of({})
        with pytest.raises(ValueError):
            Supernatural.of({2: 0, 3: 0})

    def test_one_form_per_element(self):
        # an infinite tail already says p^inf: listing p again changes nothing
        assert Supernatural.of(inf_primes=[2], tail_infinite=True) == OMEGA
        assert hash(Supernatural.of(inf_primes=[2, 3], tail_infinite=True)) == hash(OMEGA)
        assert Supernatural.of({2: 3, 5: 0}) == Supernatural.prime_power(2, 3)
        assert Supernatural.of({2: INF}) == Supernatural.prime_power(2, INF)
        assert Supernatural.of({3: 2}, [5], True).exponents == ((3, 2),)

    def test_zero_under_an_infinite_tail(self):
        # Omega(Pi_1) for cofinite Pi_1: every prime but 2 and 3 to the inf
        x = Supernatural.of({2: 0, 3: 0}, tail_infinite=True)
        assert x.exponents == ((2, 0), (3, 0))
        assert [x.exponent(p) for p in (2, 3, 5)] == [0, 0, INF]
        assert not sn_divides(Supernatural.from_int(2), x)
        assert sn_divides(Supernatural.from_int(5**9), x)
        assert sn_sup([x, Supernatural.from_int(2)]) == Supernatural.of({2: 1, 3: 0}, tail_infinite=True)
        assert sn_sup([x, Supernatural.of({2: 0}, [3])]) == Supernatural.of({2: 0}, tail_infinite=True)

    @pytest.mark.parametrize(
        "exponents, tail",
        [
            (((3, 1), (2, 1)), False),  # unsorted
            (((2, 1), (2, 2)), False),  # repeated prime
            (((2, 0),), False),  # the zero tail's own exponent
            (((2, INF),), True),  # the infinite tail's own exponent
            (((2, -1),), False),
            (((2, 1.5),), False),
            (((4, 1),), False),  # 2^2 written over a composite
            (((1, 1),), True),
            ((), False),  # 1
        ],
    )
    def test_constructor_rejects_non_canonical_input(self, exponents, tail):
        with pytest.raises(ValueError):
            Supernatural(exponents, tail)

    def test_of_rejects_a_prime_both_finite_and_infinite(self):
        with pytest.raises(ValueError, match="disjoint"):
            Supernatural.of({2: 1}, inf_primes=[2])

    def test_repr(self):
        assert repr(Supernatural.from_int(360)) == "Supernatural(2^3 * 3^2 * 5^1)"
        assert repr(Supernatural.of({7: 1, 3: 2}, [5, 2])) == "Supernatural(3^2 * 7^1 * 2^inf * 5^inf)"
        assert repr(Supernatural.of({2: 3}, tail_infinite=True)) == (
            "Supernatural(2^3 * (all remaining)^inf)"
        )
        assert repr(OMEGA) == "Supernatural((all remaining)^inf)"
        assert repr(Supernatural.of({5: 0}, tail_infinite=True)) == (
            "Supernatural(5^0 * (all remaining)^inf)"
        )

    def test_partial_order_axioms(self):
        rng = random.Random(8)
        xs = [_random_supernatural(rng) for _ in range(12)]
        for a in xs:
            assert sn_divides(a, a)
        for a in xs:
            for b in xs:
                if sn_divides(a, b) and sn_divides(b, a):
                    for p in (2, 3, 5, 7, 11, 13):
                        assert a.exponent(p) == b.exponent(p)
                for c in xs:
                    if sn_divides(a, b) and sn_divides(b, c):
                        assert sn_divides(a, c)

    def test_divisibility_matches_integers(self):
        for m in range(2, 40):
            for n in range(2, 40):
                assert sn_divides(
                    Supernatural.from_int(m), Supernatural.from_int(n)
                ) == (n % m == 0)


class TestSup:
    def test_prime_power_chain(self):
        assert sn_sup(PrimePowerChain(3)) == Supernatural.prime_power(3, INF)

    def test_lcm(self):
        got = sn_sup([Supernatural.from_int(4), Supernatural.from_int(6)])
        assert got == Supernatural.from_int(12)

    def test_omega_chain(self):
        assert sn_sup(OmegaChain()) == OMEGA

    def test_omega_chain_restricted(self):
        got = sn_sup(OmegaChain(frozenset([3, 5])))
        assert got == Supernatural.of(inf_primes=[3, 5])

    def test_sup_is_least_upper_bound(self):
        rng = random.Random(9)
        for _ in range(50):
            xs = [_random_supernatural(rng) for _ in range(4)]
            s = sn_sup(xs)
            for x in xs:
                assert sn_divides(x, s)
            # any other upper bound dominates s
            other = sn_sup(xs + [_random_supernatural(rng)])
            assert sn_divides(s, other)

    def test_verify_suprema_check_catches_an_order_bug(self, monkeypatch):
        # symbolic_suprema reaches the symbolic suprema through sn_divides and
        # the finite sn_sup, so an order that reads inf as 0 must fail it
        from pqm import verify

        def check():
            cfg = verify.VerifyConfig(suites=("poset",))
            (res,) = [r for r in verify.suite_poset(cfg) if r.name == "symbolic_suprema"]
            return res.passed

        def inf_as_zero(m, n):
            e = lambda x, p: 0 if x.exponent(p) == INF else x.exponent(p)
            return all(e(m, p) <= e(n, p) for p, _ in m.exponents + n.exponents)

        assert check()
        monkeypatch.setattr(ps, "sn_divides", inf_as_zero)
        assert not check()

    def test_mixed_tail(self):
        # sup of 2^3 * (rest)^inf with 2^inf is Omega
        a = Supernatural.of({2: 3}, tail_infinite=True)
        b = Supernatural.prime_power(2, INF)
        assert sn_sup([a, b]) == OMEGA
        assert sn_sup([a]) == a


class TestDivisorPoset:
    def test_n12(self):
        p = divisor_poset(12)
        assert set(p.elements) == {2, 3, 4, 6, 12}
        assert len(p) == 5

    def test_prime(self):
        assert divisor_poset(7).elements == (7,)

    def test_n36_cardinality(self):
        assert len(divisor_poset(36)) == 8  # sigma_0(36) - 1

    def test_axioms(self):
        for n in (12, 30, 36, 97):
            assert poset_axioms_hold(divisor_poset(n))


class TestWidthLength:
    def _brute_width(self, poset):
        els = poset.elements
        best = 0
        for mask in range(1 << len(els)):
            sub = [els[i] for i in range(len(els)) if mask >> i & 1]
            if all(
                not poset.leq(a, b) and not poset.leq(b, a)
                for i, a in enumerate(sub)
                for b in sub[i + 1 :]
            ):
                best = max(best, len(sub))
        return best

    def _brute_length(self, poset):
        els = poset.elements
        best = 0
        for mask in range(1 << len(els)):
            sub = [els[i] for i in range(len(els)) if mask >> i & 1]
            if all(
                poset.leq(a, b) or poset.leq(b, a)
                for i, a in enumerate(sub)
                for b in sub[i + 1 :]
            ):
                best = max(best, len(sub))
        return best

    def test_n12(self):
        res = poset_width_length(divisor_poset(12))
        assert res.width == 2
        assert res.length == 3
        assert len(res.chain_partition) == 2

    def test_prime_power_total_order(self):
        res = poset_width_length(divisor_poset(32))
        assert res.width == 1
        assert res.length == 5

    def test_n36(self):
        res = poset_width_length(divisor_poset(36))
        assert res.width == 3
        assert res.length == 4
        assert set(res.max_antichain) == {4, 6, 9}

    @pytest.mark.parametrize("n", [12, 24, 30, 36, 60, 210, 64, 97])
    def test_against_brute_force(self, n):
        p = divisor_poset(n)
        if len(p) > 16:
            pytest.skip("brute force too large")
        res = poset_width_length(p)
        assert res.width == self._brute_width(p)
        assert res.length == self._brute_length(p)

    @pytest.mark.parametrize("n", [12, 36, 60, 360, 2310])
    def test_partition_properties(self, n):
        p = divisor_poset(n)
        res = poset_width_length(p)
        assert res.width * 1 <= len(p) <= res.width * res.length
        assert len(res.chain_partition) == res.width
        covered = [x for c in res.chain_partition for x in c]
        assert sorted(covered) == sorted(p.elements)
        for c in res.chain_partition:
            for i, a in enumerate(c):
                for b in c[i + 1 :]:
                    assert p.leq(a, b) or p.leq(b, a)
        ac = res.max_antichain
        assert len(ac) == res.width
        for i, a in enumerate(ac):
            for b in ac[i + 1 :]:
                assert not p.leq(a, b) and not p.leq(b, a)

    def test_bound(self, monkeypatch):
        p = divisor_poset(360)
        # the bound is read when each function is called
        monkeypatch.setattr(ps, "SIZE_BOUND", 3)
        with pytest.raises(ValueError, match="poset size 23 exceeds bound 3"):
            poset_width_length(p)
        # the divisor poset and the closed form refuse from the
        # factorization, before any divisor is listed
        with pytest.raises(ValueError, match="poset size 23 exceeds bound 3"):
            divisor_poset(360)
        for f in (divisor_width_length, divisor_rank_sizes, lambda m: divisor_rank(m, 1)):
            with pytest.raises(ValueError, match="poset size 23 exceeds bound 3"):
                f(360)

    def test_matching_needs_no_deep_stack(self):
        # the augmenting-path search runs on an explicit stack, so a poset
        # inside the size bound cannot overflow the interpreter's
        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 30)
        try:
            res = poset_width_length(divisor_poset(720720))
        finally:
            sys.setrecursionlimit(limit)
        assert (res.width, res.length) == (46, 10)

    @pytest.mark.parametrize("n", [2, 12, 32, 360, 5040, 720720, 9699690, 2**10 * 3**5])
    def test_closed_form_chains(self, n):
        # saturated chains (each step multiplies by one prime) covering N(n)
        # exactly once, as many as the width, listed by least element
        p = divisor_poset(n)
        res = divisor_width_length(n)
        chains = res.chain_partition
        assert is_chain_partition(p, chains)
        assert len(chains) == res.width
        assert all(is_prime(b // a) for c in chains for a, b in zip(c, c[1:]))
        assert [c[0] for c in chains] == sorted(c[0] for c in chains)

    @pytest.mark.parametrize("n", [5040, 720720, 9699690])
    def test_closed_form_antichain_is_the_matchings(self, n):
        got = divisor_width_length(n)
        want = poset_width_length(divisor_poset(n))
        assert got.max_antichain == want.max_antichain
        assert (got.width, got.length) == (want.width, want.length)

    def test_rank_forms_match_the_chains_to_10_4(self):
        # the divisors of n, 1 included, bucketed by Omega from the sieve
        # (Omega(d) is one more than that of d over its least prime): the
        # rank sizes count the buckets and divisor_rank lists each one; the
        # chains' width is the largest size, their length the last rank and
        # their antichain the highest rank of largest size
        divisors = _sieved_divisors(10**4)
        omega = [0, 0]
        for d in range(2, len(divisors)):
            omega.append(omega[d // divisors[d][0]] + 1)
        for n in range(2, len(divisors)):
            ranks = [[] for _ in range(omega[n] + 1)]
            for d in [1, *divisors[n]]:
                ranks[omega[d]].append(d)
            ranks = [tuple(r) for r in ranks]
            sizes = divisor_rank_sizes(n)
            assert sizes == tuple(map(len, ranks)), n
            got = [divisor_rank(n, k) for k in range(-1, len(ranks) + 1)]
            assert got == [(), *ranks, ()], n
            res = divisor_width_length(n)
            top = omega[n] - sizes.index(max(sizes))
            assert (res.width, res.length, res.max_antichain) == (
                max(sizes), omega[n], ranks[top]
            ), n

    def test_rank_forms_match_the_matching_to_500(self):
        for n in range(2, 501):
            want = poset_width_length(divisor_poset(n))
            sizes = divisor_rank_sizes(n)
            length = len(sizes) - 1
            antichain = divisor_rank(n, length - sizes.index(max(sizes)))
            assert (max(sizes), length, antichain) == (
                want.width, want.length, want.max_antichain
            ), n

    @pytest.mark.parametrize("n, match", _REFUSED)
    def test_rank_forms_refuse_what_divisor_poset_refuses(self, n, match):
        for f in (divisor_rank_sizes, lambda m: divisor_rank(m, 1), divisor_poset):
            with pytest.raises(ValueError, match=match):
                f(n)

    def test_is_chain_partition_rejects(self):
        p = divisor_poset(12)
        assert is_chain_partition(p, [(2, 4, 12), (3, 6)])
        assert not is_chain_partition(p, [(2, 4, 12), (3,)])  # 6 uncovered
        assert not is_chain_partition(p, [(2, 4, 12), (3, 6), (6,)])  # 6 twice
        assert not is_chain_partition(p, [(2, 3), (4, 6, 12)])  # 2 does not divide 3
        assert not is_chain_partition(p, [(2, 4, 12), (3, 6), ()])

    def test_supernatural_universe_width(self):
        # a three-element fence: 2^inf and 3 are incomparable, both below
        # their product; the universe is not a chain
        a = Supernatural.prime_power(2, INF)
        b = Supernatural.from_int(3)
        top = Supernatural.of({3: 1}, inf_primes=[2])
        res = poset_width_length(FinitePoset((a, b, top)))
        assert res.width == 2
        assert res.length == 2
        assert set(res.max_antichain) == {a, b}


class TestTopology:
    def test_basis_u4_in_n12(self):
        p = divisor_poset(12)
        assert basis_open(p, 4) == {2, 4}

    def test_open_closed(self):
        p = divisor_poset(12)
        assert is_open(p, {2, 4})
        assert not is_open(p, {4})
        # closed iff the complement is open: {4, 12} is the up-set of 4
        assert is_open(p, set(p.elements) - {4, 12})
        assert not is_open(p, set(p.elements) - {4})
        assert check_t0(p) is True

    def test_unions_and_intersections_of_basis_open(self):
        p = divisor_poset(36)
        u, v = basis_open(p, 12), basis_open(p, 18)
        assert is_open(p, u | v)
        assert is_open(p, u & v)  # Alexandrov: intersections stay open

    @pytest.mark.parametrize("x", [5, 8, 1, 24, Supernatural.from_int(2)])
    def test_basis_open_rejects_a_point_outside(self, x):
        with pytest.raises(ValueError, match="not an element"):
            basis_open(divisor_poset(12), x)

    @pytest.mark.parametrize("s", [{5}, {2, 4, 8}, {1, 2}, {Supernatural.from_int(2)}])
    def test_is_open_rejects_a_set_outside(self, s):
        with pytest.raises(ValueError, match="not a subset"):
            is_open(divisor_poset(12), s)

    def test_outside_points_on_a_supernatural_poset(self):
        p = FinitePoset((Supernatural.from_int(2), Supernatural.from_int(4)))
        with pytest.raises(ValueError, match="not an element"):
            basis_open(p, Supernatural.from_int(8))
        with pytest.raises(ValueError, match="not a subset"):
            is_open(p, {Supernatural.from_int(2), OMEGA})
        assert is_open(p, set())

    def test_t0_sweep(self):
        for n in range(2, 300):
            assert check_t0(divisor_poset(n))

    def test_t1_fails_with_witness(self):
        ok, witness = check_t1(divisor_poset(12))
        assert not ok
        m, x = witness
        assert m != x and x % m == 0

    def test_t1_vacuous_for_prime(self):
        # N(p) is a single point; there is no strict pair to violate T1
        ok, witness = check_t1(divisor_poset(13))
        assert ok and witness is None

    def test_t1_closed_form_matches_the_scan(self):
        # every divisor universe up to 10^4, the primes read from n itself
        divisors = _sieved_divisors(10**4)
        for n in range(2, len(divisors)):
            assert divisor_t1(n) == check_t1(FinitePoset(tuple(divisors[n]))), n

    @pytest.mark.parametrize("n", [0, 1, -6])
    def test_t1_closed_form_rejects_small_n(self, n):
        with pytest.raises(ValueError, match="n must be >= 2"):
            divisor_t1(n)

    def test_t0_holds_by_both_scans(self):
        # distinct positive divisors never divide each other both ways
        divisors = _sieved_divisors(10**4)
        for n in range(2, len(divisors)):
            p = FinitePoset(tuple(divisors[n]))
            assert check_t0(p) is check_t0_oracle(p) is True, n

    @pytest.mark.parametrize("n, match", _REFUSED)
    def test_t1_closed_form_refuses_what_divisor_poset_refuses(self, n, match):
        for f in (divisor_t1, divisor_poset):
            with pytest.raises(ValueError, match=match):
                f(n)

    @pytest.mark.parametrize("bound", [1, 3, 7])
    def test_t1_closed_form_reads_the_bound_when_called(self, bound, monkeypatch):
        # every n is refused exactly when divisor_poset refuses it
        monkeypatch.setattr(ps, "SIZE_BOUND", bound)
        divisors = _sieved_divisors(200)
        for n in range(2, len(divisors)):
            size = len(divisors[n])
            if size > bound:
                with pytest.raises(ValueError, match=f"poset size {size} exceeds bound {bound}"):
                    divisor_t1(n)
            else:
                assert divisor_t1(n) == check_t1(FinitePoset(tuple(divisors[n]))), n

    def test_mixed_element_types_rejected(self):
        # integer and supernatural divisibility are different orders
        for els in ((2, Supernatural.from_int(4)), (Supernatural.from_int(2), 4)):
            with pytest.raises(ValueError, match="mix"):
                FinitePoset(els)

    @pytest.mark.parametrize("els", [(1.5, 3), ("2", "4"), (True, 3), (2, 3.0)])
    def test_non_int_elements_rejected(self, els):
        # % would order a float, and T0 on strings ended in a TypeError
        with pytest.raises(ValueError, match="must be int or Supernatural"):
            FinitePoset(els)

    def test_zero_rejected(self):
        # 0 divides only itself: every check on it ended in ZeroDivisionError
        for els in ((0, 2), (0,), (2, 0, -3)):
            with pytest.raises(ValueError, match="0 is not"):
                FinitePoset(els)

    def test_negatives_break_t0(self):
        # -2 and 2 divide each other, so no open set separates them
        p = FinitePoset((-2, 2))
        assert check_t0(p) is False and check_t0_oracle(p) is False
        p = FinitePoset((-2, 3, 4))
        assert check_t0(p) is True and check_t0_oracle(p) is True

    def test_one_element_in_two_forms_is_a_duplicate(self):
        with pytest.raises(ValueError, match="duplicate"):
            FinitePoset((Supernatural.of(inf_primes=[2], tail_infinite=True), OMEGA))

    def test_supernatural_universe(self):
        els = (
            Supernatural.from_int(2),
            Supernatural.from_int(4),
            Supernatural.prime_power(2, INF),
        )
        p = FinitePoset(els)
        assert check_t0(p)
        ok, _ = check_t1(p)
        assert not ok
        assert basis_open(p, els[1]) == {els[0], els[1]}

