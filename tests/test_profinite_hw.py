import random

import pytest

from pqm.numbers import PadicInt, ProfiniteInt, crt_join_mu
from pqm.profinite_hw import (
    GlobalProfiniteHW,
    ProfiniteHWElement,
    hw_triple_mul,
    phw_commutator,
    phw_global_inv,
    phw_global_mul,
    phw_global_project,
    phw_global_project_factors,
    phw_identity,
    phw_inv,
    phw_mul,
    phw_project,
)


def _random_element(rng, p, precision):
    q = p**precision
    return ProfiniteHWElement.from_ints(
        rng.randrange(q), rng.randrange(q), rng.randrange(q), p, precision
    )


class TestLocalGroup:
    def test_inverse(self):
        rng = random.Random(11)
        for _ in range(30):
            p = rng.choice([2, 3, 5])
            g = _random_element(rng, p, 4)
            assert phw_mul(g, phw_inv(g)) == phw_identity(p, 4)
            assert phw_mul(phw_inv(g), g) == phw_identity(p, 4)

    def test_associativity(self):
        rng = random.Random(12)
        for _ in range(30):
            p = rng.choice([2, 3])
            g, h, k = (_random_element(rng, p, 3) for _ in range(3))
            assert phw_mul(phw_mul(g, h), k) == phw_mul(g, phw_mul(h, k))

    def test_commutator_form(self):
        # [g, h] = (0, 0, 2(ab' - a'b)) by direct expansion
        rng = random.Random(13)
        for _ in range(30):
            p = rng.choice([2, 3, 5])
            g, h = _random_element(rng, p, 4), _random_element(rng, p, 4)
            comm = phw_commutator(g, h)
            zero = PadicInt.from_int(0, p, 4)
            two = PadicInt.from_int(2, p, 4)
            assert comm.a == zero and comm.b == zero
            assert comm.c == two * (g.a * h.b - h.a * g.b)

    def test_abelian_on_b_zero_slice(self):
        rng = random.Random(14)
        for _ in range(20):
            p = rng.choice([2, 3])
            g = ProfiniteHWElement.from_ints(rng.randrange(8), 0, rng.randrange(8), p, 3)
            h = ProfiniteHWElement.from_ints(rng.randrange(8), 0, rng.randrange(8), p, 3)
            assert phw_mul(g, h) == phw_mul(h, g)

    def test_one_parameter_subgroups_additive(self):
        # both the b=0,c=0 and a=0,c=0 slices reproduce truncated addition
        p, n = 3, 3
        for s in range(p**n):
            for t in (1, 5, 17):
                g = ProfiniteHWElement.from_ints(s, 0, 0, p, n)
                h = ProfiniteHWElement.from_ints(t, 0, 0, p, n)
                assert phw_mul(g, h).a.residue == (s + t) % p**n
                g2 = ProfiniteHWElement.from_ints(0, s, 0, p, n)
                h2 = ProfiniteHWElement.from_ints(0, t, 0, p, n)
                assert phw_mul(g2, h2).b.residue == (s + t) % p**n


class TestProjections:
    @pytest.mark.parametrize("p", [2, 3])
    def test_projection_is_homomorphism_exhaustive(self, p):
        # project-then-multiply equals multiply-then-project, all pairs mod p^2
        n = p**2
        triples = [(a, b, c) for a in range(n) for b in range(n) for c in range(n)]
        sampled = triples[:: max(1, len(triples) // 200)]
        for t1 in sampled[:20]:
            for t2 in sampled[:20]:
                g = ProfiniteHWElement.from_ints(*t1, p, 4)
                h = ProfiniteHWElement.from_ints(*t2, p, 4)
                lhs = phw_project(phw_mul(g, h), 2)
                rhs = hw_triple_mul(n, phw_project(g, 2), phw_project(h, 2))
                assert lhs == rhs

    def test_identity_at_full_precision(self):
        g = ProfiniteHWElement.from_ints(5, 6, 7, 2, 3)
        assert phw_project(g, 3) == (5, 6, 7)

    def test_chain_compatibility(self):
        rng = random.Random(15)
        for _ in range(30):
            p = rng.choice([2, 3])
            g = _random_element(rng, p, 5)
            for k in range(1, 4):
                for l in range(k, 5):
                    full = phw_project(g, l)
                    reduced = tuple(v % p**k for v in full)
                    assert reduced == phw_project(g, k)


class TestConstructorChecks:
    @pytest.mark.parametrize(
        "fields, name",
        [((1, 2, 3), "a"), ((PadicInt.from_int(1, 2, 3), 2.0, None), "b")],
    )
    def test_local_element_names_the_field(self, fields, name):
        with pytest.raises(ValueError, match=f"^{name} must be a PadicInt, got "):
            ProfiniteHWElement(*fields)

    @pytest.mark.parametrize(
        "fields, name",
        [((1, 2, 3), "a"), ((ProfiniteInt(tail=1), ProfiniteInt(tail=2), 3), "c")],
    )
    def test_global_element_names_the_field(self, fields, name):
        # refused here, not at the first projection
        with pytest.raises(ValueError, match=f"^{name} must be a ProfiniteInt, got "):
            GlobalProfiniteHW(*fields)

    @pytest.mark.parametrize("k", [0, -2])
    def test_projection_level_below_one(self, k):
        with pytest.raises(ValueError, match="^k must be >= 1$"):
            phw_project(ProfiniteHWElement.from_ints(1, 2, 3, 3, 4), k)

    @pytest.mark.parametrize("project", [phw_global_project, phw_global_project_factors])
    def test_global_projection_needs_n_at_least_2(self, project):
        # Z(1) is refused by both, not answered with an empty factorization
        with pytest.raises(ValueError, match="^n must be >= 2$"):
            project(GlobalProfiniteHW.from_tail(1, 2, 3), 1)


class TestGlobal:
    def test_integer_tails_close(self):
        g = GlobalProfiniteHW.from_tail(2, 3, 4)
        h = GlobalProfiniteHW.from_tail(5, 7, 1)
        gh = phw_global_mul(g, h)
        # tails multiply as the integer Heisenberg group
        assert gh.a.tail == 7 and gh.b.tail == 10
        assert gh.c.tail == 4 + 1 + 2 * 7 - 5 * 3

    def test_non_integer_tail_is_refused_at_construction(self):
        # not at the first projection: the float would flow through the
        # group law first
        with pytest.raises(ValueError, match="tail must be an integer"):
            GlobalProfiniteHW.from_tail(1.5, 2, 3)

    def test_global_inverse(self):
        g = GlobalProfiniteHW.from_tail(2, 3, 4)
        e = phw_global_mul(g, phw_global_inv(g))
        assert phw_global_project(e, 36) == (0, 0, 0)

    def test_projection_factorizes_over_crt(self):
        g = GlobalProfiniteHW(
            ProfiniteInt({2: PadicInt.from_int(3, 2, 4)}, tail=7),
            ProfiniteInt(tail=5),
            ProfiniteInt(tail=11),
        )
        full = phw_global_project(g, 6)
        parts = phw_global_project_factors(g, 6)
        for i in range(3):
            joined = crt_join_mu(6, (parts[2][i], parts[3][i]))
            assert joined == full[i]

    def test_global_projection_is_homomorphism(self):
        rng = random.Random(16)
        for _ in range(20):
            g = GlobalProfiniteHW.from_tail(
                rng.randrange(100), rng.randrange(100), rng.randrange(100)
            )
            h = GlobalProfiniteHW.from_tail(
                rng.randrange(100), rng.randrange(100), rng.randrange(100)
            )
            for n in (6, 12, 30):
                lhs = phw_global_project(phw_global_mul(g, h), n)
                rhs = hw_triple_mul(n, phw_global_project(g, n), phw_global_project(h, n))
                assert lhs == rhs


class TestGroupLawByHand:
    """The three products against (a+a', b+b', c+c'+ab'-a'b) written out."""

    def test_finite_triples(self):
        rng = random.Random(17)
        for _ in range(200):
            n = rng.randrange(2, 10**6)
            t1, t2 = (tuple(rng.randrange(-(10**12), 10**12) for _ in range(3)) for _ in "gh")
            (a1, b1, c1), (a2, b2, c2) = t1, t2
            want = ((a1 + a2) % n, (b1 + b2) % n, (c1 + c2 + a1 * b2 - a2 * b1) % n)
            assert hw_triple_mul(n, t1, t2) == want

    def test_local_triples(self):
        rng = random.Random(18)
        for _ in range(100):
            p = rng.choice([2, 3, 5, 7])
            (a1, b1, c1), (a2, b2, c2) = (
                tuple(rng.randrange(-(10**9), 10**9) for _ in range(3)) for _ in "gh"
            )
            g = ProfiniteHWElement.from_ints(a1, b1, c1, p, 6)
            h = ProfiniteHWElement.from_ints(a2, b2, c2, p, 6)
            want = ProfiniteHWElement.from_ints(
                a1 + a2, b1 + b2, c1 + c2 + a1 * b2 - a2 * b1, p, 6
            )
            assert phw_mul(g, h) == want
        with pytest.raises(ValueError, match="prime mismatch"):
            phw_mul(phw_identity(2, 3), phw_identity(3, 3))

    def test_global_triples(self):
        rng = random.Random(19)

        def draw():
            # a 2-adic override over an integer tail
            parts = [
                ProfiniteInt({2: PadicInt.from_int(rng.randrange(64), 2, 6)}, rng.randrange(-99, 99))
                for _ in range(3)
            ]
            return GlobalProfiniteHW(*parts)

        for _ in range(50):
            g, h = draw(), draw()
            for n in (6, 12, 30, 64 * 45):
                (a1, b1, c1), (a2, b2, c2) = phw_global_project(g, n), phw_global_project(h, n)
                want = ((a1 + a2) % n, (b1 + b2) % n, (c1 + c2 + a1 * b2 - a2 * b1) % n)
                assert phw_global_project(phw_global_mul(g, h), n) == want
