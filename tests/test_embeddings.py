import numpy as np
import pytest

import pqm.embeddings as emb
import pqm.finiteqm as fq
from pqm.numbers import ZERO_MOD1, RatMod1, char_omega
from pqm.finiteqm import (
    MOMENTUM,
    POSITION,
    FiniteState,
    HWElement,
    displace,
    hw_scalar_mul,
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
from pqm.verify import (
    _COMPAT_CHECKS,
    _LABEL_LIMIT,
    _UBIQUITY_CHECKS,
    VerifyConfig,
    _divisor_chains,
    _ubiquity_pairs,
)
from pqm.schwartz_bruhat import GlobalSBFunction, canonicalize_global

from helpers import compat_suite_oracle, ubiquity_check_oracle

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
        assert compat_suite(2, 4, 8, np.random.default_rng(5))["character_preservation"] == 1.0

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
        assert b_p == RatMod1(5, 9)
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

    @pytest.mark.parametrize("label", [2.5, 4.0, "4", None])
    @pytest.mark.parametrize("field", ["source", "target"])
    def test_labels_must_be_integers(self, field, label):
        # EmbeddingSpec(2.5, 5) and EmbeddingSpec(2, 4.0) once built, and
        # state_embed then raised a bare TypeError
        labels = {"source": 2, "target": 4, field: label}
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got "):
            EmbeddingSpec(labels["source"], labels["target"])

    def test_integer_like_labels_are_read_as_ints(self):
        spec = EmbeddingSpec(np.int64(2), np.int64(4))
        assert (spec.source, spec.target) == (2, 4)
        assert type(spec.source) is type(spec.target) is int
        f = random_state(2, RNG)
        got = state_embed(f, spec).amplitudes
        assert np.array_equal(got, state_embed(f, EmbeddingSpec(2, 4)).amplitudes)


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

    def test_hw_embed_is_the_continuum_label_map(self):
        # the labels a, b, c carried over through from_phase_space, on every
        # element label of k | l <= 24, with phases over denominators past int64
        rng = np.random.default_rng(41)
        for ell in range(2, 25):
            for k in (k for k in range(2, ell + 1) if ell % k == 0):
                spec = EmbeddingSpec(k, ell)
                for alpha in range(k):
                    for beta in range(k):
                        q = RatMod1.of(int(rng.integers(0, 2**62)), 3 * 2**70 + 1)
                        d = hw_scalar_mul(HWElement(k, alpha, beta), q)
                        want = HWElement.from_phase_space(ell, d.frak_a, d.beta, d.frak_c)
                        assert hw_embed(d, spec) == want

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
        residuals = compat_suite(*chain, rng=np.random.default_rng(5))
        assert residuals.keys() == _COMPAT_CHECKS.keys()
        for law, residual in residuals.items():
            assert residual <= _COMPAT_CHECKS[law][1], (chain, law, residual)

    def test_rejects_non_chain(self):
        with pytest.raises(ValueError, match="4 does not divide 6"):
            compat_suite(2, 4, 6, np.random.default_rng(5))
        # the labels enter through EmbeddingSpec, so 0 is a bad label, not a modulus
        with pytest.raises(ValueError, match="source label must be >= 2"):
            compat_suite(0, 4, 8, np.random.default_rng(5))


class TestDef2Points:
    def test_new_prime_component_zero(self):
        x2, p2 = def2_point_embed(1, 1, 2, 6)
        assert x2 % 2 == 1 and x2 % 3 == 0  # 3
        assert p2 == 3

    @pytest.mark.parametrize("k,l", [(0, 6), (-2, 6), (4, 6)])
    def test_bad_source_label_raises(self, k, l):
        with pytest.raises(ValueError, match="labels must divide"):
            def2_point_embed(1, 1, k, l)

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
        dev = ubiquity_check(f, EmbeddingSpec(k, l), np.random.default_rng(3))["norm"]
        assert dev <= _UBIQUITY_CHECKS["norm"][1]

    @pytest.mark.parametrize("k,l", [(3, 9), (3, 12), (4, 8)])
    def test_weyl_and_wigner(self, k, l):
        f = random_state(k, RNG)
        devs = ubiquity_check(f, EmbeddingSpec(k, l), np.random.default_rng(3))
        for q in ("weyl", "wigner"):
            assert devs[q] <= _UBIQUITY_CHECKS[q][1], (q, devs[q])

    def test_entropy_uniform_state(self):
        f = FiniteState(4, POSITION, np.ones(4))
        assert position_entropy(f) == pytest.approx(0.0, abs=1e-14)
        dev = ubiquity_check(f, EmbeddingSpec(4, 16), np.random.default_rng(3))
        assert dev["position_entropy"] <= _UBIQUITY_CHECKS["position_entropy"][1]

    def test_entropy_random_state(self):
        f = random_state(6, RNG)
        dev = ubiquity_check(f, EmbeddingSpec(6, 18), np.random.default_rng(3))
        assert dev["position_entropy"] <= _UBIQUITY_CHECKS["position_entropy"][1], dev

    def test_returns_every_quantity_in_check_order(self):
        # verify reads the checks in the returned order; the rng draws follow it
        devs = ubiquity_check(random_state(3, RNG), EmbeddingSpec(3, 9), np.random.default_rng(3))
        assert list(devs) == list(_UBIQUITY_CHECKS)


def _annihilator_oracle(n, m):
    """Ann_{Z(n)} of the order-m subgroup by its definition: the b whose
    character omega(a b) is trivial for every a in the subgroup."""
    subgroup = {(n // m * t) % n for t in range(m)}
    return {b for b in range(n) if all(char_omega(n, a * b) == ZERO_MOD1 for a in subgroup)}


class TestAnnihilator:
    def test_closed_form_matches_the_character_definition(self):
        for n in range(1, 61):
            for m in (m for m in range(1, n + 1) if n % m == 0):
                assert annihilator(n, m) == (m, _annihilator_oracle(n, m)), (n, m)

    @pytest.mark.parametrize("n,m", [(12, 3), (12, 4), (8, 2), (30, 5), (7, 7)])
    def test_sizes(self, n, m):
        gen, ann = annihilator(n, m)
        assert gen == m
        assert len(ann) == n // m
        # Ann(Ann(E)) recovers E
        gen2, ann2 = annihilator(n, n // m)
        assert len(ann2) == m

    @pytest.mark.parametrize("n,m", [(12, 0), (12, -3), (-12, 3), (0, 3), (12, 5)])
    def test_bad_labels_raise(self, n, m):
        # these used to end in a zero division, an assert or an empty annihilator
        with pytest.raises(ValueError, match="positive divisor"):
            annihilator(n, m)


class TestStackedLawsMatchOracle:
    """The stacked laws return the one-state-at-a-time values bit for bit and
    leave the rng where the oracle leaves it, on every case of the default
    verify (suite_embeddings seeds with seed + 7 and seed + 8)."""

    def test_compat_suite_on_every_verify_chain(self):
        # chain by chain (the stack of one), and all 516 chains in one call,
        # whose 216 groups of a shared (k, ell) each run the laws once
        rng, group_rng, oracle_rng = (
            np.random.default_rng(VerifyConfig().seed + 7) for _ in range(3)
        )
        chains = list(_divisor_chains(_LABEL_LIMIT))
        assert len(chains) == 516 and len({(k, ell) for k, ell, _ in chains}) == 216
        grouped = emb._compat_suites(chains, group_rng)
        for chain, together in zip(chains, grouped):
            got, want = compat_suite(*chain, rng), compat_suite_oracle(*chain, oracle_rng)
            assert list(got.items()) == list(want.items()), chain
            assert list(together.items()) == list(want.items()), chain
        assert rng.bit_generator.state == oracle_rng.bit_generator.state
        assert group_rng.bit_generator.state == oracle_rng.bit_generator.state

    def test_ubiquity_on_every_verify_pair(self):
        rng, oracle_rng = (np.random.default_rng(VerifyConfig().seed + 8) for _ in range(2))
        pairs = _ubiquity_pairs()
        assert len(pairs) == 44
        for k, r in pairs:
            spec = EmbeddingSpec(k, r)
            got = ubiquity_check(random_state(k, rng), spec, rng)
            want = ubiquity_check_oracle(random_state(k, oracle_rng), spec, oracle_rng)
            assert list(got.items()) == list(want.items()), (k, r)
        assert rng.bit_generator.state == oracle_rng.bit_generator.state


class TestNaNGaps:
    """A NaN gap is its law's residual; max(res, nan) would have dropped it."""

    def test_compat_suite(self, monkeypatch):
        # every law embeds through the stacked extend kernel
        extend_values = emb._extend_values

        def nan_extend(v, rep, ell):
            out = extend_values(v, rep, ell)
            out[..., 0] = np.nan
            return out

        monkeypatch.setattr(emb, "_extend_values", nan_extend)
        residuals = compat_suite(2, 4, 8, rng=np.random.default_rng(5))
        for law in ("composition", "fourier_intertwining", "hw_intertwining"):
            assert np.isnan(residuals[law]), law

    @pytest.mark.parametrize("quantity", ["weyl", "wigner"])
    def test_ubiquity(self, monkeypatch, quantity):
        # rows 0-7 of the point kernel's stacked action are the Weyl points,
        # rows 8-15 the Wigner points; a NaN in one row is that quantity's
        # deviation only
        displace_values = fq._displace_values
        row = {"weyl": 0, "wigner": 8}[quantity]

        def nan_row(v, rep, elements):
            out = displace_values(v, rep, elements)
            out[row] = np.nan
            return out

        monkeypatch.setattr(fq, "_displace_values", nan_row)
        devs = ubiquity_check(random_state(3, RNG), EmbeddingSpec(3, 9), np.random.default_rng(3))
        assert np.isnan(devs[quantity])
        other = {"weyl": "wigner", "wigner": "weyl"}[quantity]
        assert devs[other] <= _UBIQUITY_CHECKS[other][1]
