"""Property tests for the CRT maps, the p-valuation, divisor posets (with
the matching as the oracle of the closed form), the order, suprema and
Alexandrov topology of supernatural numbers, the composite-label point
embedding (with the prime-power formula as its oracle), the inverse of the
profinite Heisenberg-Weyl group over Zhat, the FFT paths of the Fourier transform, the FFT paths of the
phase-space tables and tomography sums, the exact Q/Z and p-adic arithmetic
(with ``Fraction`` and plain integers as oracles), and the local
Schwartz-Bruhat operations and x -> lam x (with per-point loops as
oracles)."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from pqm.embeddings import EmbeddingSpec, def2_point_embed, phase_embed
from pqm.finiteqm import (
    MOMENTUM,
    POSITION,
    HWElement,
    PhasePoint,
    _displacement_grid,
    _hat_values,
    _hw_matrices,
    fourier,
    fourier_good,
    hw_adjoint,
    hw_matrix,
    hw_mul,
    operator_expand,
    parity_expand_check,
    parity_matrix,
    random_operator,
    random_state,
    reflect,
    to_momentum,
    to_position,
    weyl_wigner,
    wigner_table,
)
from pqm.numbers import (
    PadicFrac,
    PadicInt,
    ProfiniteInt,
    RatMod1,
    crt_idempotents,
    crt_join_mu,
    crt_join_nu_hat,
    crt_split_mu,
    crt_split_nu_hat,
    factorize,
    frac_mul,
    is_prime,
    project_xi,
    rat_decompose,
    rat_recombine,
    valuation,
)
from pqm.poset import (
    INF,
    OMEGA,
    FinitePoset,
    Supernatural,
    _check_t0_pairwise,
    basis_open,
    check_t0,
    check_t1,
    divisor_poset,
    divisor_width_length,
    is_open,
    poset_width_length,
    sn_divides,
    sn_sup,
)
from pqm.profinite_hw import (
    GlobalProfiniteHW,
    phw_global_inv,
    phw_global_mul,
    phw_global_project,
)
from pqm.schwartz_bruhat import (
    LocalSBFunction,
    local_displace,
    local_inner,
    local_reflect,
    refine,
    scale_variable,
)

MAPS = [(crt_split_mu, crt_join_mu), (crt_split_nu_hat, crt_join_nu_hat)]
_settings = settings(deadline=None)


@pytest.mark.parametrize("split, join", MAPS)
@_settings
@given(data=st.data(), n=st.integers(2, 10**6))
def test_join_inverts_split(split, join, data, n):
    x = data.draw(st.integers(0, n - 1))
    assert join(n, split(n, x)) == x


@pytest.mark.parametrize("split, join", MAPS)
@_settings
@given(data=st.data(), n=st.integers(2, 10**6))
def test_split_inverts_join(split, join, data, n):
    comps = tuple(data.draw(st.integers(0, f.q - 1)) for f in crt_idempotents(n))
    assert split(n, join(n, comps)) == comps


@pytest.mark.parametrize("split, _", MAPS)
@_settings
@given(n=st.integers(2, 3000))
def test_split_is_a_bijection(split, _, n):
    comps = split(n, np.arange(n))
    assert len(set(zip(*(c.tolist() for c in comps)))) == n


@pytest.mark.parametrize("split, join", MAPS)
@_settings
@given(data=st.data(), n=st.integers(2, 10**6))
def test_scalar_and_array_agree(split, join, data, n):
    xs = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=20))
    arr = np.array(xs, dtype=np.int64)
    comps = split(n, arr)
    joined = join(n, comps)
    for i, x in enumerate(xs):
        assert tuple(int(c[i]) for c in comps) == split(n, x)
        assert int(joined[i]) == join(n, split(n, x)) == x


@pytest.mark.parametrize("split, _", MAPS)
def test_array_out_of_range_rejected(split, _):
    with pytest.raises(ValueError):
        split(12, np.array([0, 12]))
    with pytest.raises(ValueError):
        split(12, np.array([-1, 3]))
    with pytest.raises(ValueError):
        split(12, np.array([1.0, 2.0]))


@pytest.mark.parametrize("split, join", MAPS)
def test_array_maps_refuse_int64_overflow(split, join):
    n = 2 * (2**31 + 11)  # products x * t and c * w would pass 2^63
    comps = split(n, n - 1)
    assert join(n, comps) == n - 1  # Python ints do not overflow
    with pytest.raises(ValueError):
        split(n, np.array([n - 1]))
    with pytest.raises(ValueError):
        join(n, tuple(np.array([c]) for c in comps))


@pytest.mark.parametrize("split, join", MAPS)
def test_only_an_ndarray_takes_the_array_path(split, join):
    # numpy is found through sys.modules: an int or a numpy integer scalar
    # takes the scalar path, with no 2^31 limit; any ndarray, 0-d included,
    # takes the array path
    n = 2 * (2**31 + 11)
    assert split(n, np.int64(7)) == split(n, 7)
    assert join(n, (np.int64(1), np.int64(3))) == join(n, (1, 3))
    limit = r"array CRT maps need n <= 2\^31, got n=4294967318"
    for arr in (np.array(7), np.array([7])):
        with pytest.raises(ValueError, match=limit):
            split(n, arr)
    with pytest.raises(ValueError, match=limit):
        join(n, (np.array(1), np.array(3)))
    assert all(isinstance(c, np.ndarray) for c in split(12, np.array([7])))
    with pytest.raises(ValueError, match=r"^(mu|nu) must be an integer array, got float64$"):
        split(12, np.array([1.0, 2.0]))


@_settings
@given(
    m=st.integers(-(10**12), 10**12).filter(bool),
    p=st.sampled_from([2, 3, 5, 7, 11, 101, 65537]) | st.integers(2, 50),
)
def test_valuation_splits_off_the_unit(m, p):
    v = valuation(m, p)
    u, r = divmod(m, p**v)
    assert r == 0 and u % p != 0


def _trial_division_is_prime(n: int) -> bool:
    return n >= 2 and all(n % f for f in range(2, math.isqrt(n) + 1))


@_settings
@given(n=st.integers(-10, 10**6))
@example(n=2047)  # the least strong pseudoprime to base 2
@example(n=8321)  # the least one with no factor <= 41
@example(n=1681)  # 41^2, the last square that trial division sees
@example(n=1849)  # 43^2, the first n that Miller-Rabin sees
def test_is_prime_matches_trial_division(n):
    assert is_prime(n) == _trial_division_is_prime(n)


@pytest.mark.parametrize("split, _", MAPS)
@pytest.mark.parametrize("n", [-5, 0, 1])
def test_split_checks_n_before_the_index(split, _, n):
    # every x, in range of Z(|n|) or not, reads the same error
    for x in (0, 5, np.array([0, 5])):
        with pytest.raises(ValueError, match=r"^n must be >= 2$"):
            split(n, x)


@pytest.mark.parametrize("m, p", [(0, 2), (8, 1), (8, 0), (8, -3)])
def test_valuation_rejects_bad_input(m, p):
    with pytest.raises(ValueError):
        valuation(m, p)


@_settings
@given(n=st.integers(2, 5000))
def test_divisor_poset_matches_trial_division(n):
    assert divisor_poset(n).elements == tuple(
        d for d in range(2, n + 1) if n % d == 0
    )


@_settings
@given(n=st.integers(2, 5000))
def test_divisor_width_length_matches_matching(n):
    got, want = divisor_width_length(n), poset_width_length(divisor_poset(n))
    assert (got.width, got.length, got.max_antichain) == (
        want.width,
        want.length,
        want.max_antichain,
    )


# Supernatural numbers over a few primes: each listed exponent may be 0, a
# small int or inf, under either tail, before Supernatural.of canonicalizes
_SN_PRIMES = (2, 3, 5, 7)


@st.composite
def _supernaturals(draw):
    exps = draw(st.dictionaries(st.sampled_from(_SN_PRIMES), st.sampled_from([0, 1, 2, INF])))
    tail = draw(st.booleans())
    assume(tail or any(exps.values()))
    finite = {p: e for p, e in exps.items() if e != INF}
    return Supernatural.of(finite, [p for p, e in exps.items() if e == INF], tail)


# half the default draws: four primes and two tails leave few distinct
# cases, and each @example pins an element once written in two forms
_sn_settings = settings(deadline=None, max_examples=50)


def _exponent_map(x):
    # the primes drawn, and one prime that is never listed (the tail)
    return [x.exponent(p) for p in _SN_PRIMES + (11,)]


@_sn_settings
@given(a=_supernaturals(), b=_supernaturals(), c=_supernaturals())
@example(a=Supernatural.of(inf_primes=[2], tail_infinite=True), b=OMEGA, c=OMEGA)
def test_sn_divides_is_a_partial_order(a, b, c):
    assert sn_divides(a, a)
    if sn_divides(a, b) and sn_divides(b, a):
        assert a == b and hash(a) == hash(b)
    if sn_divides(a, b) and sn_divides(b, c):
        assert sn_divides(a, c)
    assert (a == b) == (_exponent_map(a) == _exponent_map(b))


@_sn_settings
@given(xs=st.lists(_supernaturals(), min_size=1, max_size=4), y=_supernaturals())
@example(xs=[Supernatural.of(inf_primes=[3], tail_infinite=True)], y=OMEGA)
def test_sn_sup_is_the_least_upper_bound(xs, y):
    s = sn_sup(xs)
    if len(xs) == 1:
        assert s == xs[0]
    assert _exponent_map(s) == [max(e) for e in zip(*map(_exponent_map, xs))]
    assert all(sn_divides(x, s) for x in xs)
    for u in (y, sn_sup(xs + [y])):
        if all(sn_divides(x, u) for x in xs):
            assert sn_divides(s, u)


@_sn_settings
@given(els=st.lists(_supernaturals(), min_size=1, max_size=5, unique=True), data=st.data())
def test_supernatural_alexandrov_topology(els, data):
    poset = FinitePoset(tuple(els))
    assert check_t0(poset) is _check_t0_pairwise(poset) is True
    ok, witness = check_t1(poset)
    strict = [(m, x) for m in els for x in els if m != x and sn_divides(m, x)]
    assert ok == (not strict)
    assert witness is None if ok else witness in strict
    x = data.draw(st.sampled_from(els))
    u = basis_open(poset, x)
    assert x in u and is_open(poset, u)
    for r in range(len(els) + 1):
        for s in map(frozenset, itertools.combinations(els, r)):
            if x in s and is_open(poset, s):
                assert u <= s


@_settings
@given(els=st.lists(st.integers(-40, 40).filter(bool), max_size=12, unique=True))
@example(els=[-2, 2])
def test_check_t0_is_the_pairwise_scan_on_integers(els):
    # antisymmetry fails exactly on a pair x, -x
    poset = FinitePoset(tuple(els))
    assert check_t0(poset) is _check_t0_pairwise(poset)


@_settings
@given(
    k=st.integers(1, 200),
    r=st.integers(1, 200),
    x=st.integers(-(10**6), 10**6),
    frak_p=st.integers(0, 10**6),
)
def test_def2_point_embed_components(k, r, x, frak_p):
    ell = k * r
    assume(ell >= 2)
    x2, p2 = def2_point_embed(x, frak_p, k, ell)
    assert 0 <= x2 < ell and p2 == r * frak_p
    k_exp = factorize(k)
    for p, e in factorize(ell).items():
        if p in k_exp:
            assert (x2 - x) % p ** k_exp[p] == 0
        else:
            assert x2 % p**e == 0


@_settings
@given(p=st.sampled_from([2, 3, 5, 7]), i=st.integers(1, 3), data=st.data())
def test_phase_embed_prime_power_formula(p, i, data):
    # on prime powers the composite-label map is (alpha, beta) -> (alpha, p^(j-i) beta)
    j = data.draw(st.integers(i, 6))
    a, b = data.draw(st.integers(0, p**i - 1)), data.draw(st.integers(0, p**i - 1))
    assert phase_embed((a, b), EmbeddingSpec(p**i, p**j)) == (a, p ** (j - i) * b)


_PHW_PRECISION = 6  # of the 2- and 3-adic overrides; n keeps v_2, v_3 below it


@st.composite
def _profinite_ints(draw):
    overrides = {}
    for p in (2, 3):
        value = draw(st.none() | st.integers(0, p**_PHW_PRECISION - 1))
        if value is not None:
            overrides[p] = PadicInt.from_int(value, p, _PHW_PRECISION)
    return ProfiniteInt(overrides, tail=draw(st.integers(-(10**6), 10**6)))


@_settings
@given(
    a=_profinite_ints(),
    b=_profinite_ints(),
    c=_profinite_ints(),
    e2=st.integers(0, _PHW_PRECISION),
    e3=st.integers(0, _PHW_PRECISION),
    m=st.integers(0, 300).map(lambda t: 6 * t + 1) | st.integers(0, 300).map(lambda t: 6 * t + 5),
)
def test_phw_global_inv_is_the_group_inverse(a, b, c, e2, e3, m):
    n = 2**e2 * 3**e3 * m
    assume(n >= 2)
    g = GlobalProfiniteHW(a, b, c)
    inv = phw_global_inv(g)
    assert phw_global_project(phw_global_mul(g, inv), n) == (0, 0, 0)
    assert phw_global_project(phw_global_mul(inv, g), n) == (0, 0, 0)
    want = tuple(-v % n for v in phw_global_project(g, n))
    assert phw_global_project(inv, n) == want


def _dense_sum(values, sign, modulus, rows):
    # out[y] = sum_x values[x] e(sign x y / modulus) for y < rows, written out
    x = np.arange(len(values))
    y = np.arange(rows)[:, None]
    return np.exp(sign * 2j * np.pi * x * y / modulus) @ values


@_settings
@given(
    n=st.integers(2, 64),
    rep=st.sampled_from([POSITION, MOMENTUM]),
    seed=st.integers(0, 2**32 - 1),
)
def test_fft_paths_match_dense_sums(n, rep, seed):
    f = random_state(n, np.random.default_rng(seed), rep=rep)
    a = f.amplitudes
    other = MOMENTUM if rep == POSITION else POSITION
    want = f.measure_weight * _dense_sum(a, -1, n, n)
    for transform in (fourier, fourier_good):
        g = transform(f)
        assert g.rep == other
        np.testing.assert_allclose(g.amplitudes, want, rtol=0, atol=1e-12)
    if rep == POSITION:
        momentum = _dense_sum(a, -1, n, n) / n
        np.testing.assert_allclose(to_momentum(f).amplitudes, momentum, rtol=0, atol=1e-12)
        assert to_position(f) is f
    else:
        position = _dense_sum(a, +1, n, n)
        np.testing.assert_allclose(to_position(f).amplitudes, position, rtol=0, atol=1e-12)
        assert to_momentum(f) is f
    hat = _dense_sum(a, +1, 2 * n, 2 * n)
    np.testing.assert_allclose(_hat_values(a), hat, rtol=0, atol=1e-12)


@_settings
@given(
    n=st.integers(2, 16),
    rep=st.sampled_from([POSITION, MOMENTUM]),
    seed=st.integers(0, 2**32 - 1),
)
def test_tables_match_weyl_wigner(n, rep, seed):
    f = random_state(n, np.random.default_rng(seed), rep=rep)
    grids = [("weyl", False), ("wigner", False)] + ([("wigner", True)] if n % 2 == 0 else [])
    for kind, doubled in grids:
        table = wigner_table(f, kind, doubled)
        want = [
            [weyl_wigner(f, a, b, kind, doubled) for b in range(n)]
            for a in range(table.shape[0])
        ]
        np.testing.assert_allclose(table, want, rtol=0, atol=1e-12)


@_settings
@given(n=st.integers(2, 16), seed=st.integers(0, 2**32 - 1))
def test_tomography_sums_match_dense_sums(n, seed):
    theta = random_operator(n, np.random.default_rng(seed))
    grid = _displacement_grid(n)  # grid[a][b] = D(a, b, 0), point by point
    coeffs, _ = operator_expand(theta)
    want = [[np.trace(d.conj().T @ theta) for d in row] for row in grid]
    np.testing.assert_allclose(coeffs, want, rtol=0, atol=1e-12)

    # odd n, and the exploratory doubled grid for even n
    a_range = n if n % 2 else 2 * n
    par = {
        (a, b): parity_matrix(PhasePoint(n, a, b, doubled=n % 2 == 0))
        for a in range(a_range)
        for b in range(n)
    }
    sandwich = sum(p @ theta @ p for p in par.values()) / a_range
    tomo = sum(p * np.trace(theta @ p) for p in par.values()) / a_range
    expansion = 0.0
    if n % 2:
        # P(a, b) = (1/n) sum_{a', b'} e(2(a'b - ab')/n) D(a', b', 0)
        j = np.arange(n)
        w = np.exp(4j * np.pi * np.outer(j, j) / n)  # w[p, q] = e(2pq/n)
        acc = np.einsum("pb,aq,pqxy->abxy", w, w.conj(), np.array(grid), optimize=True)
        expansion = max(np.max(np.abs(acc[a, b] / n - p)) for (a, b), p in par.items())
    want = (
        expansion,
        np.max(np.abs(sandwich - np.trace(theta) * np.eye(n))),
        np.max(np.abs(tomo - theta)),
    )
    got = parity_expand_check(theta, exploratory=True)
    got = (got.expansion_residual, got.sandwich_residual, got.tomography_residual)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


_ints = st.integers(-(10**6), 10**6)
_dens = _ints.filter(bool)
_primes = st.sampled_from([2, 3, 5, 7, 11, 97])


def _mod1(q: Fraction) -> tuple[int, int]:
    q -= math.floor(q)
    return q.numerator, q.denominator


def _pair(r: RatMod1) -> tuple[int, int]:
    assert type(r.numerator) is int and type(r.denominator) is int
    return r.numerator, r.denominator


@_settings
@given(a=_ints, b=_dens, c=_ints, d=_dens, k=_ints)
def test_ratmod1_matches_fraction_mod_1(a, b, c, d, k):
    x, y = Fraction(a, b), Fraction(c, d)
    rx, ry = RatMod1.of(a, b), RatMod1.of(y)
    assert _pair(rx) == _mod1(x)
    assert _pair(ry) == _mod1(y)
    assert _pair(RatMod1.of(y, b)) == _mod1(y / b)
    assert _pair(rx + ry) == _mod1(x + y)
    assert _pair(rx - ry) == _mod1(x - y)
    assert _pair(-rx) == _mod1(-x)
    assert _pair(rx.scaled(k)) == _mod1(k * x)
    assert rx.as_fraction == Fraction(*_mod1(x))


def _hw_element(data, n: int) -> HWElement:
    alpha, beta = (data.draw(st.integers(0, n - 1)) for _ in range(2))
    return HWElement(n, alpha, beta, RatMod1.of(data.draw(_ints), data.draw(_dens)))


@_settings
@given(data=st.data(), n=st.integers(2, 10**4))
def test_hw_phase_space_labels_round_trip(data, n):
    d = _hw_element(data, n)
    assert HWElement.from_phase_space(n, d.frak_a, d.beta, d.frak_c) == d


@_settings
@given(data=st.data(), n=st.integers(2, 32), rep=st.sampled_from([POSITION, MOMENTUM]))
def test_hw_mul_matches_matrix_product(data, n, rep):
    d1, d2 = _hw_element(data, n), _hw_element(data, n)
    want = hw_matrix(d1, rep) @ hw_matrix(d2, rep)
    np.testing.assert_allclose(hw_matrix(hw_mul(d1, d2), rep), want, rtol=0, atol=1e-12)
    want = hw_matrix(d1, rep).conj().T
    np.testing.assert_allclose(hw_matrix(hw_adjoint(d1), rep), want, rtol=0, atol=1e-12)


@_settings
@given(data=st.data(), n=st.integers(2, 16), rep=st.sampled_from([POSITION, MOMENTUM]))
def test_stacked_hw_matrices_are_hw_matrix_bit_for_bit(data, n, rep):
    els = [_hw_element(data, n) for _ in range(data.draw(st.integers(1, 8)))]
    stack = _hw_matrices(els, rep)
    assert stack.shape == (len(els), n, n)
    for m, d in zip(stack, els):
        assert np.array_equal(m, hw_matrix(d, rep))


@_settings
@given(p=_primes, data=st.data())
def test_padic_frac_matches_fraction(p, data):
    k1, k2 = data.draw(st.integers(0, 8)), data.draw(st.integers(0, 8))
    x = Fraction(data.draw(st.integers(0, p**k1 - 1)), p**k1)
    y = Fraction(data.draw(st.integers(0, p**k2 - 1)), p**k2)
    a, b = PadicFrac.from_fraction(x, p), PadicFrac.from_fraction(y, p)
    assert a.as_fraction == x and b.as_fraction == y
    assert (a + b).as_fraction == (x + y) % 1
    assert (-a).as_fraction == (-x) % 1
    z = data.draw(st.integers(-(10**12), 10**12))
    u = PadicInt.from_int(z, p, max(k2, 1) + data.draw(st.integers(0, 3)))
    assert frac_mul(u, b).as_fraction == (z * y) % 1
    q = Fraction(z, p**k1)
    c = PadicFrac.from_fraction(q, p)
    assert c.as_fraction == q % 1
    assert c.degree == 0 or c.numerator % p != 0


@_settings
@given(num=_ints, den=_dens)
def test_rat_decompose_matches_fraction(num, den):
    q = RatMod1.of(num, den)
    parts = rat_decompose(q)
    for p, part in parts.items():
        assert part.p == p and set(factorize(part.as_fraction.denominator)) == {p}
    assert sum(part.as_fraction for part in parts.values()) % 1 == q.as_fraction
    assert rat_recombine(parts) == q


@_settings
@given(
    p=_primes,
    n1=st.integers(1, 12),
    n2=st.integers(1, 12),
    x=st.integers(-(10**12), 10**12),
    y=st.integers(-(10**12), 10**12),
    data=st.data(),
)
def test_padic_int_matches_integer_residues(p, n1, n2, x, y, data):
    a, b = PadicInt.from_int(x, p, n1), PadicInt.from_int(y, p, n2)
    assert a.digits == tuple(x % p**n1 // p**v % p for v in range(n1))
    assert a.residue == x % p**n1
    assert sum(d * p**v for v, d in enumerate(a.digits)) == a.residue
    n = min(n1, n2)
    for got, want in ((a + b, x + y), (a - b, x - y), (a * b, x * y)):
        assert got.precision == n and got.residue == want % p**n
    assert (-a).residue == -x % p**n1
    k = data.draw(st.integers(1, n1))
    assert project_xi(a, k) == a.residue % p**k


def _refine_oracle(f: LocalSBFunction, degree: int) -> list[complex]:
    """Periodic extension (position) or zero padding onto the finer grid."""
    q_old, q_new = f.p**f.degree, f.p**degree
    if f.side == POSITION:
        return [f.values[j % q_old] for j in range(q_new)]
    out = [0j] * q_new
    for m, v in enumerate(f.values):
        out[m * (q_new // q_old)] = v
    return out


def _displace_oracle(f: LocalSBFunction, a: RatMod1, b: int, c: RatMod1):
    """(degree, values) of D(a, b, c) f with one exact Q/Z phase per point."""
    two_a = a.scaled(2)
    d = max(f.degree, valuation(two_a.denominator, f.p))
    vals, q = _refine_oracle(f, d), f.p**d
    if f.side == POSITION:
        terms = [(c - a.scaled(b) + two_a.scaled(x), (x - b) % q) for x in range(q)]
    else:
        shift = two_a.numerator * (q // two_a.denominator)
        terms = [
            (c + a.scaled(b) - RatMod1.of(b * m, q), (m - shift) % q) for m in range(q)
        ]
    return d, [
        np.exp(2j * np.pi * (e.numerator / e.denominator)) * vals[i] for e, i in terms
    ]


@_settings
@given(
    p=st.sampled_from([2, 3, 5, 7]),
    degrees=st.tuples(st.integers(0, 3), st.integers(0, 3)),
    side=st.sampled_from([POSITION, MOMENTUM]),
    labels=st.tuples(*[st.integers(0, 4), st.integers(0, 10**6)] * 2),
    b=st.integers(-50, 50),
    seed=st.integers(0, 2**32 - 1),
)
def test_local_sb_operations_match_per_point_oracles(p, degrees, side, labels, b, seed):
    rng = np.random.default_rng(seed)
    f, g = (
        LocalSBFunction(
            p, side, k, tuple(rng.standard_normal(p**k) + 1j * rng.standard_normal(p**k))
        )
        for k in degrees
    )
    for d in range(f.degree, 4):
        assert list(refine(f, d).values) == _refine_oracle(f, d)
    d = max(degrees)
    weight = 1 / p**d if side == POSITION else 1.0
    fv, gv = _refine_oracle(f, d), _refine_oracle(g, d)
    want = weight * sum(x.conjugate() * y for x, y in zip(fv, gv))
    assert abs(local_inner(f, g) - want) <= 1e-12 * max(1.0, abs(want))
    a, c = RatMod1.of(labels[1], p ** labels[0]), RatMod1.of(labels[3], p ** labels[2])
    got = local_displace(f, a, b, c)
    degree, want = _displace_oracle(f, a, b, c)
    assert (got.degree, got.side) == (degree, side)
    np.testing.assert_allclose(got.values, want, rtol=0, atol=1e-12)


@_settings
@given(
    n=st.integers(1, 64),
    rep=st.sampled_from([POSITION, MOMENTUM]),
    seed=st.integers(0, 2**32 - 1),
)
def test_reflect_is_an_involution_and_fourier_squared(n, rep, seed):
    f = random_state(n, np.random.default_rng(seed), rep=rep)
    g = reflect(f)
    assert g.rep == rep
    assert np.array_equal(reflect(g).amplitudes, f.amplitudes)
    gap = np.max(np.abs(g.amplitudes - fourier(fourier(f)).amplitudes))
    assert gap <= 1e-12 * np.max(np.abs(f.amplitudes))


@_settings
@given(
    pd=st.sampled_from([(p, d) for p in (2, 3, 5, 7) for d in range(7) if p**d <= 64]),
    side=st.sampled_from([POSITION, MOMENTUM]),
    seed=st.integers(0, 2**32 - 1),
)
def test_local_reflect_matches_per_index_loop(pd, side, seed):
    p, d = pd
    q = p**d
    rng = np.random.default_rng(seed)
    f = LocalSBFunction(p, side, d, tuple(rng.standard_normal(q) + 1j * rng.standard_normal(q)))
    want = tuple(f.values[(-j) % q] for j in range(q))
    assert local_reflect(f) == LocalSBFunction(p, side, d, want)


@_settings
@given(
    pd=st.sampled_from([(p, d) for p in (2, 3, 5, 7) for d in range(4)]),
    side=st.sampled_from([POSITION, MOMENTUM]),
    unit=st.integers(1, 2**70),
    r=st.integers(0, 2),
    seed=st.integers(0, 2**32 - 1),
)
@example(pd=(2, 3), side=POSITION, unit=10**30 + 1, r=0, seed=0)
@example(pd=(3, 2), side=MOMENTUM, unit=2**64 + 1, r=1, seed=0)
def test_scale_variable_matches_per_index_loop(pd, side, unit, r, seed):
    p, d = pd
    assume(unit % p)
    lam, q = unit * p**r, p**d
    rng = np.random.default_rng(seed)
    f = LocalSBFunction(p, side, d, tuple(rng.standard_normal(q) + 1j * rng.standard_normal(q)))
    if side == POSITION:
        degree = max(d - r, 0)
        want = tuple(f.values[(lam * j) % q] for j in range(p**degree))
    else:
        degree = d + r
        want = tuple(f.values[(unit * m) % q] for m in range(p**degree))
    assert scale_variable(f, lam) == LocalSBFunction(p, side, degree, want)
