"""The stacked verify suites against the suites one sample at a time, the
stacked kernels against their public per-item functions, the rng stream
identities the stacks rely on, and the smallest configs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    suite_coherent_oracle,
    suite_embeddings_oracle,
    suite_fourier_oracle,
    suite_good_oracle,
    suite_hw_oracle,
    suite_numbers_oracle,
    suite_parity_oracle,
    suite_tomography_oracle,
)
from pqm import finiteqm as fq
from pqm import verify
from pqm.cli import main
from pqm.embeddings import (
    _COMPAT_SAMPLES,
    EmbeddingSpec,
    _compat_draws,
    _ubiquity_checks,
    _ubiquity_points,
    ubiquity_check,
)
from pqm.finiteqm import MOMENTUM, POSITION, FiniteState, HWElement

SEEDS = range(4)
SAMPLES = (1, 3, 20)

# suite -> its oracle, and the config fields it reads of seed and samples
ORACLES = {
    "fourier": (suite_fourier_oracle, {"seed", "samples"}),
    "good": (suite_good_oracle, {"seed", "samples"}),
    "hw": (suite_hw_oracle, {"seed", "samples"}),
    "tomography": (suite_tomography_oracle, {"seed", "samples"}),
    "parity": (suite_parity_oracle, {"seed", "samples"}),
    "coherent": (suite_coherent_oracle, {"seed", "samples"}),
    "embeddings": (suite_embeddings_oracle, {"seed"}),
    "numbers": (suite_numbers_oracle, {"seed"}),
}


def _cases():
    # every seed with every sample count where the suite reads both; each
    # seed once, the sample counts taken in turn, where it reads the seed only
    for suite, (_, reads) in ORACLES.items():
        if "samples" in reads:
            yield from ((suite, seed, samples) for seed in SEEDS for samples in SAMPLES)
        else:
            yield from ((suite, seed, SAMPLES[seed % 3]) for seed in SEEDS)


@pytest.mark.parametrize("suite, seed, samples", list(_cases()))
def test_stacked_suite_matches_oracle(suite, seed, samples):
    cfg = verify.VerifyConfig(seed=seed, samples=samples)
    oracle, _ = ORACLES[suite]
    # CheckResult equality: names, order, tolerances and residual bits
    assert verify._SUITE_FUNCS[suite](cfg) == oracle(cfg)


class TestStreamIdentities:
    """The batched draws give the values and leave the generator state of
    the draws one after another.  If a numpy release breaks one, this fails
    here, before a report moves."""

    @staticmethod
    def _pair(seed):
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        # one 32-bit draw: PCG64 now holds half a word for the next one
        a.integers(0, 5)
        b.integers(0, 5)
        return a, b

    @pytest.mark.parametrize("n", [2, 3, 7, 16, 30])
    def test_normal_stack_is_the_sequential_draws(self, n):
        # suite_fourier: [sample, f/g, real/imaginary, x]
        a, b = self._pair(n)
        got = a.standard_normal((5, 2, 2, n))
        want = [[[b.standard_normal(n) for _ in range(2)] for _ in range(2)] for _ in range(5)]
        assert np.array_equal(got, want)
        assert a.bit_generator.state == b.bit_generator.state

    @pytest.mark.parametrize("n", range(2, 17))
    def test_integer_stack_is_the_sequential_draws(self, n):
        # suite_hw: one (pairs, 6) call for pairs calls of size 6
        a, b = self._pair(n)
        got = a.integers(0, n, (30, 6))
        want = [b.integers(0, n, 6) for _ in range(30)]
        assert np.array_equal(got, want)
        assert a.bit_generator.state == b.bit_generator.state

    def test_broadcast_bounds_are_the_alternating_draws(self):
        # suite_numbers: each row (num, den) as two scalar calls
        a, b = self._pair(9)
        got = a.integers((-(10**6), 1), 10**6, (1000, 2))
        want = [[b.integers(-(10**6), 10**6), b.integers(1, 10**6)] for _ in range(1000)]
        assert np.array_equal(got, want)
        assert a.bit_generator.state == b.bit_generator.state

    @pytest.mark.parametrize("k", [2, 5, 12, 64])
    def test_compat_draws_are_the_state_by_state_draws(self, k):
        # one normal call per run, the integer draws in place between them
        a, b = self._pair(k)
        values, els = _compat_draws(k, a)
        rows = [
            b.standard_normal(k) + 1j * b.standard_normal(k) for _ in range(3 * _COMPAT_SAMPLES)
        ]
        want_els = []
        for _ in range(_COMPAT_SAMPLES):
            rows.append(b.standard_normal(k) + 1j * b.standard_normal(k))
            want_els.append(tuple(b.integers(0, k, 3).tolist()))
        assert np.array_equal(values, rows)
        assert a.bit_generator.state == b.bit_generator.state
        assert els == [HWElement.from_canonical(k, *w) for w in want_els]

    def test_integers_do_not_move_across_normals(self):
        # why the stacks merge only runs of one kind: an integer draw moved
        # past a normal one changes the values
        a, b = self._pair(0)
        x1, n1 = a.integers(0, 2**31, 4), a.standard_normal(4)
        n2, x2 = b.standard_normal(4), b.integers(0, 2**31, 4)
        assert not (np.array_equal(x1, x2) and np.array_equal(n1, n2))


class TestStackedKernels:
    """Each stacked kernel, row by row, is its public function on that row's
    item, to the bit, whatever the stack size and the row's place in it."""

    @staticmethod
    def _stack(seed, k, shape):
        rng = np.random.default_rng(seed)
        return rng.standard_normal((k,) + shape) + 1j * rng.standard_normal((k,) + shape)

    @settings(deadline=None, max_examples=40)
    @given(n=st.integers(1, 40), k=st.integers(1, 6), rep=st.sampled_from([POSITION, MOMENTUM]))
    def test_good_values(self, n, k, rep):
        v = self._stack(n, k, (n,))
        got = fq._good_values(v, rep)
        for row, want in zip(got, v):
            assert np.array_equal(row, fq.fourier_good(FiniteState(n, rep, want)).amplitudes)

    @settings(deadline=None, max_examples=40)
    @given(n=st.integers(2, 24), k=st.integers(1, 6))
    def test_resolution_and_expansion(self, n, k):
        theta = self._stack(n, k, (n, n))
        residuals = fq._resolution_residuals(theta)
        coeffs, expand_residuals = fq._expand_stack(theta)
        for i, t in enumerate(theta):
            assert residuals[i] == fq.resolution_identity_check(t)
            want_coeffs, want = fq.operator_expand(t)
            assert np.array_equal(coeffs[i], want_coeffs) and expand_residuals[i] == want

    @settings(deadline=None, max_examples=40)
    @given(n=st.integers(1, 12).map(lambda j: 2 * j + 1), k=st.integers(1, 6))
    def test_parity_residuals(self, n, k):
        theta = self._stack(n, k, (n, n))
        sandwich, tomo = fq._parity_residuals(theta)
        for i, t in enumerate(theta):
            want = fq.parity_expand_check(t)
            assert (sandwich[i], tomo[i]) == (want.sandwich_residual, want.tomography_residual)

    @settings(deadline=None, max_examples=40)
    @given(n=st.integers(2, 40), k=st.integers(1, 6), rep=st.sampled_from([POSITION, MOMENTUM]))
    def test_coherent_residuals(self, n, k, rep):
        v = self._stack(n, k, (n,))
        v /= np.sqrt(fq._measure_weight(n, rep) * np.sum(np.abs(v) ** 2, axis=1, keepdims=True))
        got = fq._coherent_residuals(v, rep)
        for i, row in enumerate(v):
            assert got[i] == fq.coherent_check(FiniteState(n, rep, row))

    @settings(deadline=None, max_examples=25)
    @given(
        labels=st.lists(
            st.tuples(st.integers(2, 8), st.integers(1, 4), st.sampled_from([POSITION, MOMENTUM])),
            min_size=1,
            max_size=6,
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_ubiquity_checks(self, labels, seed):
        # cases of mixed source and target labels, grouped by each in turn
        rng, one_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        cases, want = [], []
        for k, scale, rep in labels:
            f = fq.random_state(k, rng, rep)
            spec = EmbeddingSpec(k, k * scale)
            cases.append((f, spec, _ubiquity_points(k, rng)))
            want.append(ubiquity_check(fq.random_state(k, one_rng, rep), spec, one_rng))
        got = _ubiquity_checks(cases)
        assert [list(r.items()) for r in got] == [list(r.items()) for r in want]


BATCHED = ("fourier", "good", "hw", "tomography", "parity", "coherent", "embeddings", "numbers")


@pytest.mark.parametrize("suite", BATCHED)
def test_smallest_config_reports_every_check(suite, capsys):
    # one sample: no stack is empty, so no check is dropped and no np.max
    # meets an empty array
    want = [r.name for r in verify.run_suites(verify.VerifyConfig(suites=(suite,)))]
    assert main(["verify", "--suite", suite, "--samples", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[1].split(":")[1] for line in lines[:-1]] == want
    assert all(line.startswith(f"[PASS] {suite}:") for line in lines[:-1])
    assert lines[-1] == f"OK: {len(want)} checks"
