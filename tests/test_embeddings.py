import numpy as np
import pytest

import pqm.embeddings as emb
from pqm.numbers import char_omega
from pqm.finiteqm import (
    MOMENTUM,
    POSITION,
    FiniteState,
    HWElement,
    displace,
    norm,
    random_state,
)
from pqm.embeddings import (
    EmbeddingSpec,
    compat_suite,
    def2_point_embed,
    annihilator,
    hw_embed,
    phase_embed,
    phase_embed_character,
    position_entropy,
    state_embed,
    ubiquity_check,
)
from pqm.poset import INF, Supernatural
from pqm.verify import _divisor_chains
from pqm.schwartz_bruhat import GlobalSBFunction, canonicalize_global

RNG = np.random.default_rng(424242)


class TestPhaseEmbed:
    def test_p3_example(self):
        spec = EmbeddingSpec(3, 9)
        assert phase_embed((1, 1), spec) == (1, 3)
        assert char_omega(9, 3) == char_omega(3, 1)

    def test_character_preserved_exhaustive(self):
        for (k, l) in [(2, 4), (2, 8), (3, 9), (3, 27), (4, 8), (5, 25)]:
            spec = EmbeddingSpec(k, l)
            for a in range(k):
                for b in range(k):
                    assert phase_embed_character((a, b), spec)

    def test_array_character_law_is_the_per_point_law(self, monkeypatch):
        # every (k, l) of a chain k | l | m <= 64, as in the embeddings suite
        pairs = sorted({(k, ell) for k, ell, _ in _divisor_chains(64)})

        def per_point(k, ell):
            spec, grid = EmbeddingSpec(k, ell), range(min(k, 8))
            return all(phase_embed_character((x, fp), spec) for x in grid for fp in grid)

        for k, ell in pairs:
            assert emb._characters_preserved(k, ell) is per_point(k, ell) is True
        # x' + 1 breaks the law wherever some p' is nonzero mod l: everywhere
        embed = emb.def2_point_embed
        monkeypatch.setattr(
            emb, "def2_point_embed",
            lambda x, fp, k, ell: (embed(x, fp, k, ell)[0] + 1, embed(x, fp, k, ell)[1]),
        )
        for k, ell in pairs:
            assert emb._characters_preserved(k, ell) is per_point(k, ell) is False
        law = {r.name: r for r in compat_suite(2, 4, 8, samples=1)}["character_preservation"]
        assert not law.passed and law.residual == 1.0

    def test_composition(self):
        s12, s23, s13 = EmbeddingSpec(3, 9), EmbeddingSpec(9, 27), EmbeddingSpec(3, 27)
        for a in range(3):
            for b in range(3):
                assert phase_embed(phase_embed((a, b), s12), s23) == phase_embed(
                    (a, b), s13
                )

    def test_zero_point(self):
        assert phase_embed((0, 0), EmbeddingSpec(2, 8)) == (0, 0)

    def test_profinite_target(self):
        spec = EmbeddingSpec(9, Supernatural.prime_power(3, INF))
        a_p, b_p = phase_embed((4, 5), spec)
        assert a_p.residue == 4
        assert b_p.as_fraction == 5 / 9 or float(b_p.as_fraction) == 5 / 9
        for a in range(9):
            for b in range(9):
                assert phase_embed_character((a, b), spec)

    def test_divisibility_enforced(self):
        with pytest.raises(ValueError):
            EmbeddingSpec(3, 8)

    def test_supernatural_divisibility_enforced(self):
        with pytest.raises(ValueError):
            EmbeddingSpec(4, Supernatural.of({2: 1}))

    def test_rejects_mixed_prime_labels(self):
        # a finite target takes any k | l through the composite-label map
        assert phase_embed((1, 1), EmbeddingSpec(6, 12)) == def2_point_embed(1, 1, 6, 12)
        with pytest.raises(ValueError):
            phase_embed((1, 1), EmbeddingSpec(6, Supernatural.of(inf_primes=(2, 3))))
        with pytest.raises(ValueError):
            phase_embed((1, 1), EmbeddingSpec(3, Supernatural.of({3: 5})))


class TestStateEmbed:
    def test_position_periodic_extension(self):
        f = FiniteState(3, POSITION, np.array([1.0, 2.0, 3.0]))
        g = state_embed(f, EmbeddingSpec(3, 9))
        assert np.allclose(g.amplitudes, [1, 2, 3, 1, 2, 3, 1, 2, 3])

    def test_momentum_spike_rescaled(self):
        v = np.zeros(3)
        v[1] = 1.0
        f = FiniteState(3, MOMENTUM, v)
        g = state_embed(f, EmbeddingSpec(3, 9))
        want = np.zeros(9)
        want[3] = 1.0
        assert np.allclose(g.amplitudes, want)

    @pytest.mark.parametrize("k,l", [(3, 9), (2, 12), (6, 36), (4, 20)])
    def test_isometry(self, k, l):
        for rep in (POSITION, MOMENTUM):
            f = random_state(k, RNG, rep=rep)
            g = state_embed(f, EmbeddingSpec(k, l))
            assert abs(norm(g) - norm(f)) < 1e-14

    def test_supernatural_target_returns_global_function(self):
        f = random_state(6, RNG)
        target = Supernatural.of(inf_primes=[2, 3])
        g = state_embed(f, EmbeddingSpec(6, target))
        assert isinstance(g, GlobalSBFunction)
        back = canonicalize_global(g)
        assert back.n == 6
        assert np.max(np.abs(back.amplitudes - f.amplitudes)) < 1e-12

    def test_embed_exists_iff_divides(self):
        for k in range(2, 20):
            for l in range(2, 40):
                if l % k == 0:
                    EmbeddingSpec(k, l)
                else:
                    with pytest.raises(ValueError):
                        EmbeddingSpec(k, l)


class TestHWEmbed:
    @pytest.mark.parametrize(
        "k,l", [(3, 9), (3, 6), (3, 12), (2, 4), (4, 12), (6, 12), (5, 15), (5, 30)]
    )
    def test_intertwining(self, k, l):
        for _ in range(10):
            a, b, g = (int(v) for v in RNG.integers(0, k, 3))
            el = HWElement.from_canonical(k, a, b, g)
            f = random_state(k, RNG)
            lhs = state_embed(displace(el, f), EmbeddingSpec(k, l))
            rhs = displace(hw_embed(el, EmbeddingSpec(k, l)), state_embed(f, EmbeddingSpec(k, l)))
            assert np.max(np.abs(lhs.amplitudes - rhs.amplitudes)) < 1e-12

    def test_index_map_same_parity(self):
        # k and l both odd or both even: alpha' = (l/k) alpha, beta' = beta
        for (k, l) in [(3, 9), (4, 8), (6, 12), (5, 15)]:
            for _ in range(5):
                a, b = (int(v) for v in RNG.integers(0, k, 2))
                el = hw_embed(HWElement.from_canonical(k, a, b, 0), EmbeddingSpec(k, l))
                assert el.alpha == (l // k) * a % l
                assert el.beta == b

    def test_index_map_odd_into_even(self):
        # an odd k in an even l picks up the conversion factor 2
        el = hw_embed(HWElement.from_canonical(3, 1, 2, 0), EmbeddingSpec(3, 6))
        assert el.alpha == (2 * 2 * 1) % 6
        assert el.beta == 2

    def test_group_law_on_embedded_subspace(self):
        # products of embedded elements agree with embedded products on the
        # image of the embedding (the beta labels may differ by multiples of
        # k, which act identically on period-k functions)
        spec = EmbeddingSpec(4, 8)
        from pqm.finiteqm import hw_mul

        for _ in range(10):
            a1, b1, a2, b2 = (int(v) for v in RNG.integers(0, 4, 4))
            d1 = HWElement.from_canonical(4, a1, b1, 0)
            d2 = HWElement.from_canonical(4, a2, b2, 0)
            f = state_embed(random_state(4, RNG), spec)
            lhs = displace(hw_embed(hw_mul(d1, d2), spec), f)
            rhs = displace(hw_mul(hw_embed(d1, spec), hw_embed(d2, spec)), f)
            assert np.max(np.abs(lhs.amplitudes - rhs.amplitudes)) < 1e-12


class TestCompatSuite:
    @pytest.mark.parametrize("chain", [(2, 4, 8), (3, 9, 27), (2, 6, 12), (5, 10, 30)])
    def test_chains_pass(self, chain):
        for r in compat_suite(*chain, rng=np.random.default_rng(5)):
            assert r.passed, (chain, r)

    def test_rejects_non_chain(self):
        with pytest.raises(ValueError):
            compat_suite(2, 4, 6)


class TestDef2Points:
    def test_new_prime_component_zero(self):
        x2, p2 = def2_point_embed(1, 1, 2, 6)
        assert x2 % 2 == 1 and x2 % 3 == 0  # 3
        assert p2 == 3

    def test_characters_exact(self):
        for (k, l) in [(2, 6), (6, 12), (4, 12), (6, 30)]:
            for x in range(k):
                for fp in range(k):
                    x2, p2 = def2_point_embed(x, fp, k, l)
                    assert char_omega(l, x2 * p2) == char_omega(k, x * fp)


class TestUbiquity:
    @pytest.mark.parametrize("k,l", [(3, 9), (4, 8), (6, 12), (5, 30)])
    def test_norm(self, k, l):
        f = random_state(k, RNG)
        ok, dev = ubiquity_check("norm", f, EmbeddingSpec(k, l))
        assert ok and dev < 1e-15

    @pytest.mark.parametrize("k,l", [(3, 9), (3, 12), (4, 8)])
    def test_weyl_and_wigner(self, k, l):
        f = random_state(k, RNG)
        for q in ("weyl", "wigner"):
            ok, dev = ubiquity_check(q, f, EmbeddingSpec(k, l), rng=np.random.default_rng(3))
            assert ok, (q, dev)

    def test_entropy_uniform_state(self):
        f = FiniteState(4, POSITION, np.ones(4))
        assert position_entropy(f) == pytest.approx(0.0, abs=1e-14)
        ok, dev = ubiquity_check("position_entropy", f, EmbeddingSpec(4, 16))
        assert ok and dev < 1e-12

    def test_entropy_random_state(self):
        f = random_state(6, RNG)
        ok, dev = ubiquity_check("position_entropy", f, EmbeddingSpec(6, 18))
        assert ok, dev

    def test_unknown_quantity(self):
        with pytest.raises(ValueError):
            ubiquity_check("volume", random_state(3, RNG), EmbeddingSpec(3, 9))


class TestAnnihilator:
    @pytest.mark.parametrize("n,m", [(12, 3), (12, 4), (8, 2), (30, 5), (7, 7)])
    def test_sizes(self, n, m):
        gen, ann = annihilator(n, m)
        assert gen == m
        assert len(ann) == n // m
        # Ann(Ann(E)) recovers E
        gen2, ann2 = annihilator(n, n // m)
        assert len(ann2) == m


class TestNaNGaps:
    """A NaN gap makes its law fail; max(res, nan) would have dropped it."""

    def test_compat_suite(self, monkeypatch):
        import pqm.embeddings as emb

        embed = emb.state_embed

        def nan_embed(f, spec):
            g = embed(f, spec)
            g.amplitudes[0] = np.nan
            return g

        monkeypatch.setattr(emb, "state_embed", nan_embed)
        reports = {r.name: r for r in compat_suite(2, 4, 8, rng=np.random.default_rng(5))}
        for law in ("composition", "fourier_intertwining", "hw_intertwining"):
            assert np.isnan(reports[law].residual) and not reports[law].passed, law

    @pytest.mark.parametrize("quantity", ["weyl", "wigner"])
    def test_ubiquity(self, monkeypatch, quantity):
        import pqm.embeddings as emb

        monkeypatch.setattr(emb, "weyl_wigner", lambda *args: complex(np.nan))
        ok, dev = ubiquity_check(quantity, random_state(3, RNG), EmbeddingSpec(3, 9))
        assert np.isnan(dev) and not ok

    def test_compat_suite_needs_samples(self):
        with pytest.raises(ValueError):
            compat_suite(2, 4, 8, samples=0)
