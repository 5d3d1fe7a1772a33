"""Property tests for the CRT maps, the p-valuation, divisor posets (with
the matching as the oracle of the closed form), the order, suprema and
Alexandrov topology of supernatural numbers, the composite-label point
embedding (with the prime-power formula as its oracle), the profinite
Heisenberg-Weyl groups over Z_p and Zhat (their integer group laws against
the checked operation-by-operation ones, unit, inverse and the projections
to Z(n)), the FFT paths of the Fourier
transform, the stacked state-map kernels (with the public maps, row by row,
as oracles), the phase kernel ``_unit`` (equal fractions give equal bits),
the FFT paths of the phase-space tables and tomography sums, the exact Q/Z and p-adic arithmetic
(with ``Fraction`` and plain integers as oracles, every result equal to
its checked rebuild, and the base-p digits against one divmod per digit),
the factorization against trial division to the square root, the integer
Ostrowski product against the ``Fraction`` one,
the characters chi_p and
chi over Zhat, and the local
Schwartz-Bruhat operations and x -> lam x (with per-point loops and the
operations on tuples of Python complex as oracles), and the laws of the
local transforms, characters and delta family."""

import dataclasses
import itertools
import math
import operator
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from helpers import (
    TupleSB,
    canonicalize_global_oracle,
    char_chi_global_oracle,
    check_t0_oracle,
    digits_oracle,
    factorize_oracle,
    global_inner_oracle,
    hw_adjoint_oracle,
    hw_mul_oracle,
    integrate_local_oracle,
    local_displace_oracle,
    local_fourier_inv_oracle,
    local_fourier_oracle,
    local_reflect_oracle,
    ostrowski_product_oracle,
    phw_commutator_oracle,
    phw_global_project_factors_oracle,
    phw_inv_oracle,
    phw_mul_oracle,
    profinite_component_oracle,
    profinite_merge_oracle,
    profinite_residue_oracle,
    refine_oracle,
    sb_equal,
    scale_variable_oracle,
    weyl_wigner_oracle,
    wigner_table_complex_oracle,
)
from pqm.embeddings import EmbeddingSpec, def2_point_embed, phase_embed
from pqm.finiteqm import (
    MOMENTUM,
    POSITION,
    FiniteState,
    HWElement,
    PhasePoint,
    _displace_values,
    _displacement_grid,
    _extend_values,
    _fourier_values,
    _hat_values,
    _hw_matrices,
    _parity_matrices,
    _point_elements,
    _unit,
    _weyl_wigner_values,
    displace,
    extend,
    fourier,
    fourier_good,
    hw_adjoint,
    hw_matrix,
    hw_mul,
    hw_scalar_mul,
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
    ZERO_MOD1,
    PadicInt,
    ProfiniteInt,
    RatMod1,
    _to_digits,
    char_chi_global,
    char_chi_p,
    crt_idempotents,
    crt_join_mu,
    crt_join_nu_hat,
    crt_split_mu,
    crt_split_nu_hat,
    factorize,
    is_prime,
    lift_tilde_xi,
    ostrowski_product,
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
from pqm.schwartz_bruhat import (
    GlobalSBFunction,
    LocalSBFunction,
    canonicalize_global,
    character_function,
    delta_family,
    global_fourier,
    global_inner,
    global_parity,
    hat_transform_2adic,
    integrate_local,
    local_displace,
    local_fourier,
    local_fourier_inv,
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


def test_is_prime_matches_trial_division_below_2000():
    # every n that division by the Miller-Rabin bases decides alone (n < 43^2),
    # and the first ones above it
    assert [n for n in range(-2, 2000) if is_prime(n)] == [
        n for n in range(-2, 2000) if _trial_division_is_prime(n)
    ]


# primes above 10^6, where trial division to the square root stops paying
_BIG_PRIMES = (1000003, 999999937, 10**18 + 3)


@_settings
@given(n=st.integers(1, 10**6))
@example(n=1)
@example(n=2**19)
@example(n=999983)  # the largest prime below 10^6
@example(n=997 * 991)  # two primes just below 10^3
def test_factorize_matches_trial_division(n):
    got = factorize(n)
    assert list(got.items()) == list(factorize_oracle(n).items())


@_settings
@given(m=st.integers(1, 10**4), big=st.sampled_from(_BIG_PRIMES))
def test_factorize_with_a_big_prime_factor(m, big):
    # the cofactor test ends the division at the big prime, in order
    want = {**factorize_oracle(m), big: 1}
    assert list(factorize(m * big).items()) == sorted(want.items())


def _prime_from(n: int) -> int:
    """The least prime >= n, by the trial-division oracle."""
    while factorize_oracle(n) != {n: 1}:
        n += 1
    return n


@_settings
@given(
    p=st.integers(1024, 10**5).map(_prime_from),
    q=st.integers(1024, 10**5).map(_prime_from),
    m=st.integers(1, 10**4),
)
@example(p=31607, q=31627, m=1)  # two primes near sqrt(10^9)
@example(p=1031, q=1031, m=1031)  # a cube, split twice by rho
# x -> x^2 + 1 from x = 2 closes its cycle mod p q with no divisor, so rho
# retries with x^2 + 2
@example(p=1031, q=1223, m=1)
def test_factorize_splits_semiprimes_near_10_9(p, q, m):
    # both primes are above the trial bound, so rho splits p q; m adds
    # small primes, or one more above the bound
    n = m * p * q
    assert list(factorize(n).items()) == list(factorize_oracle(n).items())


# primes near 10^9, whose products trial division to the square root
# would take ~10^9 steps to split
_PRIMES_NEAR_1E9 = (999999937, 1000000007, 1000000009, 1000000021, 1000000033)


# 25 draws: each splits a product near 10^18 by rho, about 20 ms (at most 50)
@settings(deadline=None, max_examples=25)
@given(
    p=st.sampled_from(_PRIMES_NEAR_1E9),
    q=st.sampled_from(_PRIMES_NEAR_1E9),
    m=st.integers(1, 10**4),
)
def test_factorize_splits_products_of_two_primes_near_10_9(p, q, m):
    want = dict(factorize_oracle(m))
    for r in (p, q):
        want[r] = want.get(r, 0) + 1
    assert list(factorize(m * p * q).items()) == sorted(want.items())


def _ostrowski_ints():
    """Integers >= 1 of the kinds whose primes the product walks: 1, any up
    to 10^6, prime powers, and multiples of a prime above 10^6."""
    powers = st.builds(pow, st.sampled_from([2, 3, 5, 7, 1000003]), st.integers(0, 12))
    big = st.builds(operator.mul, st.integers(1, 10**4), st.sampled_from(_BIG_PRIMES))
    return st.just(1) | st.integers(1, 10**6) | powers | big


@_settings
@given(num=_ostrowski_ints(), den=_ostrowski_ints(), negative=st.booleans())
@example(num=1, den=1, negative=False)
@example(num=1, den=1, negative=True)
@example(num=2**12, den=3**12, negative=True)
@example(num=10**18 + 3, den=999999937, negative=False)
def test_ostrowski_product_matches_fraction_oracle(num, den, negative):
    q = Fraction(-num if negative else num, den)
    got = ostrowski_product(q)
    assert type(got) is Fraction and got == ostrowski_product_oracle(q) == 1
    assert ostrowski_product(q.numerator) == ostrowski_product_oracle(q.numerator) == 1


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
    assert check_t0(poset) is check_t0_oracle(poset) is True
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


def _assert_basis_opens_are_a_topology(poset, xs):
    # any union and any nonempty intersection of basis open sets is open
    us = [basis_open(poset, x) for x in xs]
    assert is_open(poset, frozenset().union(*us))
    assert is_open(poset, frozenset.intersection(*us))


@_settings
@given(n=st.integers(2, 5000), data=st.data())
@example(n=720, data=None)
def test_open_sets_closed_under_union_and_intersection_on_integers(n, data):
    poset = divisor_poset(n)
    if data is None:  # the example takes every element
        xs = poset.elements
    else:
        xs = data.draw(st.lists(st.sampled_from(poset.elements), min_size=1, max_size=4))
    _assert_basis_opens_are_a_topology(poset, xs)


@_sn_settings
@given(els=st.lists(_supernaturals(), min_size=1, max_size=5, unique=True), data=st.data())
def test_open_sets_closed_under_union_and_intersection_on_supernaturals(els, data):
    poset = FinitePoset(tuple(els))
    xs = data.draw(st.lists(st.sampled_from(els), min_size=1, max_size=4))
    _assert_basis_opens_are_a_topology(poset, xs)


def _is_continuous(f, source, target):
    # the basis open sets generate the topology, so f is continuous iff the
    # preimage of each of them is open
    return all(
        is_open(source, [x for x in source.elements if f(x) in basis_open(target, y)])
        for y in target.elements
    )


def test_continuity_check_rejects_an_order_reversing_map():
    # x |-> 36/x on the divisors of 36: the preimage of U(2) = {1, 2} is
    # {36, 18}, which lacks 2 | 36
    target = FinitePoset(tuple(d for d in range(1, 37) if 36 % d == 0))
    assert not _is_continuous(lambda x: 36 // x, divisor_poset(36), target)


@_sn_settings
@given(n=st.integers(2, 5000), extra=st.lists(_supernaturals(), max_size=3))
@example(n=720, extra=[OMEGA])
def test_from_int_is_continuous(n, extra):
    source = divisor_poset(n)
    images = {Supernatural.from_int(x) for x in source.elements}
    target = FinitePoset(tuple(images | set(extra)))
    assert _is_continuous(Supernatural.from_int, source, target)


@_sn_settings
@given(
    els=st.lists(_supernaturals(), min_size=1, max_size=5, unique=True),
    k=_supernaturals(),
    extra=st.lists(_supernaturals(), max_size=2),
)
def test_sup_with_a_fixed_element_is_continuous(els, k, extra):
    source = FinitePoset(tuple(els))

    def f(x):
        return sn_sup([x, k])

    target = FinitePoset(tuple({f(x) for x in els} | set(extra)))
    assert _is_continuous(f, source, target)


@_sn_settings
@given(n=st.integers(2, 5000), k=_supernaturals())
@example(n=720, k=Supernatural.from_int(7))
def test_sup_with_a_fixed_element_is_continuous_on_integers(n, k):
    source = divisor_poset(n)

    def f(x):
        return sn_sup([Supernatural.from_int(x), k])

    target = FinitePoset(tuple({f(x) for x in source.elements}))
    assert _is_continuous(f, source, target)


@_settings
@given(els=st.lists(st.integers(-40, 40).filter(bool), max_size=12, unique=True))
@example(els=[-2, 2])
def test_check_t0_is_the_pairwise_scan_on_integers(els):
    # antisymmetry fails exactly on a pair x, -x
    poset = FinitePoset(tuple(els))
    assert check_t0(poset) is check_t0_oracle(poset)


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
# n = 2^e2 3^e3 m with m coprime to 6
_PHW_COFACTORS = st.integers(0, 300).map(lambda t: 6 * t + 1) | st.integers(0, 300).map(
    lambda t: 6 * t + 5
)


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
    m=_PHW_COFACTORS,
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


_group_settings = settings(deadline=None, max_examples=40)


@_group_settings
@given(
    a=_profinite_ints(),
    b=_profinite_ints(),
    c=_profinite_ints(),
    e2=st.integers(0, _PHW_PRECISION),
    e3=st.integers(0, _PHW_PRECISION),
    m=_PHW_COFACTORS,
)
def test_phw_global_project_is_the_crt_join_of_its_factors(a, b, c, e2, e3, m):
    n = 2**e2 * 3**e3 * m
    assume(n >= 2)
    g = GlobalProfiniteHW(a, b, c)
    parts = phw_global_project_factors(g, n)
    joined = tuple(
        crt_join_mu(n, tuple(parts[f.p][i] for f in crt_idempotents(n))) for i in range(3)
    )
    assert joined == phw_global_project(g, n)


_phw_primes = st.sampled_from([2, 3, 5, 101, 65537, 10**9 + 7])


def _phw_element(data, p: int, precision: int) -> ProfiniteHWElement:
    a, b, c = (data.draw(st.integers(0, p**precision - 1)) for _ in "abc")
    return ProfiniteHWElement.from_ints(a, b, c, p, precision)


def _assert_padic_checked(x: PadicInt) -> None:
    # an unchecked result equals its rebuild through the checked constructor
    assert all(type(v) is int for v in (x.p, x.precision, x.residue))
    assert x == PadicInt(x.p, x.precision, x.residue)


@_group_settings
@given(p=_phw_primes, n1=st.integers(1, 8), n2=st.integers(1, 8), data=st.data())
def test_phw_laws_match_the_checked_oracles(p, n1, n2, data):
    g, h = _phw_element(data, p, n1), _phw_element(data, p, n2)
    for got, want in (
        (phw_mul(g, h), phw_mul_oracle(g, h)),
        (phw_inv(g), phw_inv_oracle(g)),
        (phw_commutator(g, h), phw_commutator_oracle(g, h)),
    ):
        assert got == want
        for x in (got.a, got.b, got.c):
            _assert_padic_checked(x)


@_group_settings
@given(p=_phw_primes, n1=st.integers(1, 8), n2=st.integers(1, 8), data=st.data())
def test_phw_identity_inverse_and_projection(p, n1, n2, data):
    g, h = _phw_element(data, p, n1), _phw_element(data, p, n2)
    # a unit at any precision >= g's, on both sides; the inverse on both sides
    e = phw_identity(p, n1 + n2)
    assert phw_mul(e, g) == g == phw_mul(g, e)
    assert phw_mul(g, phw_inv(g)) == phw_identity(p, n1) == phw_mul(phw_inv(g), g)
    # the level-k reduction is a homomorphism onto the group law of Z(p^k)^3
    k = data.draw(st.integers(1, min(n1, n2)))
    want = hw_triple_mul(p**k, phw_project(g, k), phw_project(h, k))
    assert phw_project(phw_mul(g, h), k) == want


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
    n=st.integers(1, 400) | st.sampled_from([1024, 4096, 10**5 + 3]),
    seed=st.integers(0, 2**32 - 1),
)
def test_to_momentum_is_the_fourier_kernel_bit_for_bit(n, seed):
    # numpy divides a complex array by n as a product with 1/n, so the old
    # fft(v) / n and the kernel's (1/n) fft(v) agree in every bit
    f = random_state(n, np.random.default_rng(seed))
    got = to_momentum(f).amplitudes
    assert got.tobytes() == (np.fft.fft(f.amplitudes) / n).tobytes()
    assert got.tobytes() == fourier(f).amplitudes.tobytes()


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
@given(
    n=st.integers(2, 16),
    rep=st.sampled_from([POSITION, MOMENTUM]),
    doubled=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_wigner_table_is_the_real_part_of_the_complex_kernel(n, rep, doubled, seed):
    # P(a, b) is Hermitian, so W is real: the table drops only rounding noise,
    # which the complex point kernel, its oracle, still shows
    doubled = doubled and n % 2 == 0
    f = random_state(n, np.random.default_rng(seed), rep=rep)
    table = wigner_table(f, "wigner", doubled)
    assert table.dtype == np.float64
    assert table.tobytes() == wigner_table_complex_oracle(f, doubled).real.tobytes()
    values = [
        weyl_wigner(f, a, b, "wigner", doubled) for a in range(table.shape[0]) for b in range(n)
    ]
    assert max(abs(w.imag) for w in values) <= 1e-12


_GRIDS = [("weyl", False), ("wigner", False), ("wigner", True)]  # (kind, doubled)


@_settings
@given(
    n=st.integers(2, 32),
    rep=st.sampled_from([POSITION, MOMENTUM]),
    grid=st.sampled_from(_GRIDS),
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
)
def test_weyl_wigner_is_the_composed_oracle_bit_for_bit(n, rep, grid, data, seed):
    kind, doubled = grid
    assume(not doubled or n % 2 == 0)
    f = random_state(n, np.random.default_rng(seed), rep=rep)
    for _ in range(8):
        a = data.draw(st.integers(0, (2 * n if doubled else n) - 1))
        b = data.draw(st.integers(0, n - 1))
        assert weyl_wigner(f, a, b, kind, doubled) == weyl_wigner_oracle(f, a, b, kind, doubled)


@_settings
@given(
    n=st.integers(2, 16),
    rep=st.sampled_from([POSITION, MOMENTUM]),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_table_points_are_the_composed_oracle_bit_for_bit(n, rep, seed):
    # a whole table's points as one stack of the point kernel, as pqm verify
    # evaluates them: the stack leaves every row contiguous, so each value is
    # the one-point value to the bit
    f = random_state(n, np.random.default_rng(seed), rep=rep)
    for kind, doubled in _GRIDS[: 3 if n % 2 == 0 else 2]:
        points = [(a, b) for a in range(2 * n if doubled else n) for b in range(n)]
        elements = _point_elements(n, points, kind, doubled)
        got = _weyl_wigner_values(f.amplitudes[None], rep, *elements)
        assert got == [weyl_wigner_oracle(f, a, b, kind, doubled) for a, b in points]


@_settings
@given(n=st.integers(2, 16), seed=st.integers(0, 2**32 - 1))
def test_tomography_sums_match_dense_sums(n, seed):
    theta = random_operator(n, np.random.default_rng(seed))
    grid = _displacement_grid(n)  # grid[a, b] = D(a, b, 0)
    coeffs, _ = operator_expand(theta)
    want = [[np.trace(d.conj().T @ theta) for d in row] for row in grid]
    np.testing.assert_allclose(coeffs, want, rtol=0, atol=1e-12)

    if n % 2 == 0:
        with pytest.raises(ValueError, match="odd n only"):
            parity_expand_check(theta)
        return
    par = {(a, b): parity_matrix(PhasePoint(n, a, b)) for a in range(n) for b in range(n)}
    sandwich = sum(p @ theta @ p for p in par.values()) / n
    tomo = sum(p * np.trace(theta @ p) for p in par.values()) / n
    # P(a, b) = (1/n) sum_{a', b'} e(2(a'b - ab')/n) D(a', b', 0)
    j = np.arange(n)
    w = np.exp(4j * np.pi * np.outer(j, j) / n)  # w[p, q] = e(2pq/n)
    acc = np.einsum("pb,aq,pqxy->abxy", w, w.conj(), np.array(grid), optimize=True)
    want = (
        max(np.max(np.abs(acc[a, b] / n - p)) for (a, b), p in par.items()),
        np.max(np.abs(sandwich - np.trace(theta) * np.eye(n))),
        np.max(np.abs(tomo - theta)),
    )
    got = parity_expand_check(theta)
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


@_settings
@given(num=_ints, den=_dens, scale=_dens, fraction=st.booleans())
def test_of_is_the_checked_value_of_the_reduced_pair(num, den, scale, fraction):
    # of builds its value without __post_init__; the checked constructor
    # accepts the same reduced pair, and the two values are one value
    if fraction:
        got, want = RatMod1.of(Fraction(num, den), scale), Fraction(num, den) / scale
    else:
        got, want = RatMod1.of(num, den), Fraction(num, den)
    checked = RatMod1(*_mod1(want))
    _assert_same_record(got, checked)


def _assert_same_record(got, want) -> None:
    # an unchecked build is its checked one: equal, with one hash and, field
    # by field, the same value of the same type
    assert type(got) is type(want)
    assert got == want and hash(got) == hash(want) and repr(got) == repr(want)
    for f in dataclasses.fields(want):
        x, y = getattr(got, f.name), getattr(want, f.name)
        assert type(x) is type(y) and x == y, f.name


_big = st.integers(-(2**80), 2**80)


@_settings
@given(data=st.data(), n=st.integers(2, 10**6))
def test_hw_of_is_the_checked_element(data, n):
    alpha, beta = (data.draw(st.integers(0, n - 1)) for _ in range(2))
    phase = RatMod1.of(data.draw(_ints), data.draw(_dens))
    _assert_same_record(HWElement._of(n, alpha, beta, phase), HWElement(n, alpha, beta, phase))


@_settings
@given(p=_phw_primes, precision=st.integers(1, 12), value=_big)
def test_padic_of_is_the_checked_residue(p, precision, value):
    want = PadicInt(p, precision, value % p**precision)
    _assert_same_record(PadicInt._of(value, p, precision), want)


@_settings
@given(p=_phw_primes, precision=st.integers(1, 12), values=st.tuples(_big, _big, _big))
def test_phw_of_is_the_checked_element(p, precision, values):
    a, b, c = (PadicInt._of(v, p, precision) for v in values)
    _assert_same_record(ProfiniteHWElement._of(a, b, c), ProfiniteHWElement(a, b, c))


@pytest.mark.parametrize(
    "value",
    [
        RatMod1(1, 3),
        PadicInt(3, 2, 5),
        HWElement(6, 1, 2, RatMod1(1, 12)),
        ProfiniteHWElement.from_ints(1, 2, 3, 5, 2),
    ],
    ids=lambda v: type(v).__name__,
)
def test_records_are_frozen(value):
    for f in dataclasses.fields(value):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, f.name, getattr(value, f.name))


def _hw_element(data, n: int) -> HWElement:
    alpha, beta = (data.draw(st.integers(0, n - 1)) for _ in range(2))
    return HWElement(n, alpha, beta, RatMod1.of(data.draw(_ints), data.draw(_dens)))


@_settings
@given(num=_big, den=st.integers(1, 2**80), m=st.integers(1, 2**80), j=_big)
def test_unit_gives_equal_fractions_equal_bits(num, den, m, j):
    want = _unit(num, den)
    assert _unit(m * num + j * m * den, m * den).tobytes() == want.tobytes()
    # an object array of Python ints takes the same path element-wise
    nums = np.array([num, m * num + j * m * den], dtype=object)
    got = _unit(nums, np.array([den, m * den], dtype=object))
    assert got.tobytes() == np.array([want, want]).tobytes()


@_settings
@given(
    den=st.integers(1, 2**40),
    data=st.data(),
    nums=st.lists(st.integers(-(2**40), 2**40), min_size=1, max_size=8),
)
def test_unit_on_int64_arrays_gives_equal_fractions_equal_bits(den, data, nums):
    # m den < 2^53, so each int64 converts to a float exactly
    m = data.draw(st.integers(1, (2**53 - 1) // den))
    num = np.array(nums) % den - data.draw(st.integers(0, 1)) * den
    j = np.array([data.draw(st.integers(-64, 64)) for _ in nums])
    want = _unit(num, den)
    assert _unit(m * num + j * m * den, m * den).tobytes() == want.tobytes()
    assert want.tobytes() == np.array([_unit(int(k), den) for k in num]).tobytes()


@_settings
@given(data=st.data(), n=st.integers(2, 10**4))
def test_hw_phase_space_labels_round_trip(data, n):
    d = _hw_element(data, n)
    assert HWElement.from_phase_space(n, d.frak_a, d.beta, d.frak_c) == d




@_group_settings
@given(data=st.data(), n=st.integers(2, 10**6))
def test_hw_products_match_the_three_term_oracle(data, n):
    # the phases have any denominator, not only divisors of 2n, as a phase
    # from hw_scalar_mul can
    d1, d2 = _hw_element(data, n), _hw_element(data, n)
    q = RatMod1.of(data.draw(_ints), data.draw(_dens))
    for got, want in (
        (hw_mul(d1, d2), hw_mul_oracle(d1, d2)),
        (hw_adjoint(d1), hw_adjoint_oracle(d1)),
        (hw_scalar_mul(d1, q), HWElement(n, d1.alpha, d1.beta, d1.phase + q)),
    ):
        # equal to the checked oracle, and to its own checked rebuild
        assert got == want == HWElement(got.n, got.alpha, got.beta, got.phase)
        assert all(type(v) is int for v in (got.n, got.alpha, got.beta))


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
@given(
    data=st.data(),
    n=st.integers(2, 64),
    rows=st.integers(1, 4),
    rep=st.sampled_from([POSITION, MOMENTUM]),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_state_maps_are_the_public_maps_bit_for_bit(data, n, rows, rep, seed):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((rows, n)) + 1j * rng.standard_normal((rows, n))
    states = [FiniteState(n, rep, row) for row in v]
    ell = n * data.draw(st.integers(1, 8))
    for row, f in zip(_extend_values(v, rep, ell), states):
        assert np.array_equal(row, extend(f, ell).amplitudes)
    for row, f in zip(_fourier_values(v, rep), states):
        assert np.array_equal(row, fourier(f).amplitudes)
    els = [_hw_element(data, n) for _ in range(rows)]
    for row, d, f in zip(_displace_values(v, rep, els), els, states):
        assert np.array_equal(row, displace(d, f).amplitudes)
    # every element on one state: a (1, n) row against k elements
    for row, d in zip(_displace_values(v[:1], rep, els), els):
        assert np.array_equal(row, displace(d, states[0]).amplitudes)


@_settings
@given(data=st.data(), n=st.integers(2, 32), rep=st.sampled_from([POSITION, MOMENTUM]))
def test_stacked_parity_matrices_are_parity_matrix_bit_for_bit(data, n, rep):
    def point():
        doubled = n % 2 == 0 and data.draw(st.booleans())
        a = data.draw(st.integers(0, (2 if doubled else 1) * n - 1))
        return PhasePoint(n, a, data.draw(st.integers(0, n - 1)), doubled)

    points = [point() for _ in range(data.draw(st.integers(1, 8)))]
    stack = _parity_matrices(points, rep)
    assert stack.shape == (len(points), n, n)
    for m, pt in zip(stack, points):
        assert np.array_equal(m, parity_matrix(pt, rep))


@_settings
@given(p=_primes, data=st.data())
def test_padic_frac_matches_fraction(p, data):
    # Q_p/Z_p is the set of RatMod1 values with a p-power denominator
    k1, k2 = data.draw(st.integers(0, 8)), data.draw(st.integers(0, 8))
    m1, m2 = data.draw(st.integers(0, p**k1 - 1)), data.draw(st.integers(0, p**k2 - 1))
    x, y = Fraction(m1, p**k1), Fraction(m2, p**k2)
    a, b = lift_tilde_xi(m1, k1, p), lift_tilde_xi(m2, k2, p)
    assert a.as_fraction == x and b.as_fraction == y
    for c in (a + b, -a):
        assert c.denominator == p ** valuation(c.denominator, p)
    assert (a + b).as_fraction == (x + y) % 1
    assert (-a).as_fraction == (-x) % 1
    z = data.draw(st.integers(-(10**12), 10**12))
    u = PadicInt.from_int(z, p, max(k2, 1) + data.draw(st.integers(0, 3)))
    assert char_chi_p(u, b).as_fraction == (z * y) % 1
    q = Fraction(z, p**k1)
    c = RatMod1.of(q)
    assert c.as_fraction == q % 1
    assert not c or c.numerator % p != 0


_chi_primes = st.sampled_from([2, 3, 5])


@_settings
@given(p=_chi_primes, data=st.data())
def test_char_chi_p_is_additive_in_each_argument(p, data):
    k = data.draw(st.integers(0, 8))
    n = max(k, 1) + data.draw(st.integers(0, 3))
    a1, a2 = (PadicInt.from_int(data.draw(st.integers(-(10**12), 10**12)), p, n)
              for _ in range(2))
    b1, b2 = (lift_tilde_xi(data.draw(st.integers(0, p**k - 1)), k, p) for _ in range(2))
    assert char_chi_p(a1 + a2, b1) == char_chi_p(a1, b1) + char_chi_p(a2, b1)
    assert char_chi_p(a1, b1 + b2) == char_chi_p(a1, b1) + char_chi_p(a1, b2)


@_settings
@given(p=_chi_primes, k=st.integers(0, 6), extra=st.integers(0, 4), data=st.data())
def test_lift_tilde_xi_commutes_with_the_subsystem_embedding(p, k, extra, data):
    # beta |-> p^(l-k) beta embeds Z(p^k) into Z(p^l) under the lifts
    beta = data.draw(st.integers(0, p**k - 1))
    ell = k + extra
    assert lift_tilde_xi(p ** (ell - k) * beta, ell, p) == lift_tilde_xi(beta, k, p)


def _smooth_rational(data) -> RatMod1:
    """A Q/Z value whose denominator has no prime factor beyond 5."""
    den = math.prod(p ** data.draw(st.integers(0, 5)) for p in (2, 3, 5))
    return RatMod1.of(data.draw(_ints), den)


@_settings
@given(t=st.integers(-(10**12), 10**12), data=st.data())
def test_char_chi_global_of_an_integer_tail_is_the_q_z_product(t, data):
    q = _smooth_rational(data)
    assert char_chi_global(ProfiniteInt(tail=t), rat_decompose(q)) == q.scaled(t)


@_settings
@given(t=st.integers(-(10**12), 10**12), data=st.data())
def test_char_chi_global_is_the_sum_of_the_local_characters(t, data):
    overrides = {}
    for p in (2, 3, 5):
        if data.draw(st.booleans()):
            residue = data.draw(st.integers(0, 10**12))
            overrides[p] = PadicInt.from_int(residue, p, data.draw(st.integers(5, 8)))
    a = ProfiniteInt(overrides, tail=t)
    parts = rat_decompose(_smooth_rational(data))
    precision = {p: o.precision for p, o in overrides.items()}
    want = sum(
        (char_chi_p(a.component(p, precision.get(p, 8)), bp) for p, bp in parts.items()),
        ZERO_MOD1,
    )
    assert char_chi_global(a, parts) == want


@st.composite
def _mixed_precision_ints(draw):
    """Overrides at 2, 3 and 5, each at a precision of its own, over an integer tail."""
    overrides = {}
    for p in (2, 3, 5):
        if draw(st.booleans()):
            k = draw(st.integers(1, 6))
            overrides[p] = PadicInt.from_int(draw(st.integers(0, p**k - 1)), p, k)
    return ProfiniteInt(overrides, tail=draw(st.integers(-(10**6), 10**6)))


def _outcome(f, *args):
    """f(*args), or the type of the ValueError it raises."""
    try:
        return f(*args)
    except ValueError as exc:
        return type(exc)


@_group_settings
@given(
    x=_mixed_precision_ints(),
    y=_mixed_precision_ints(),
    z=_mixed_precision_ints(),
    exponents=st.tuples(*(st.integers(0, 7) for _ in range(3))),
    m=st.sampled_from([1, 7, 11, 13, 77, 1001]),
    data=st.data(),
)
def test_profinite_int_matches_its_checked_composition(x, y, z, exponents, m, data):
    # the operands' precisions differ at a shared prime, so _merge takes a
    # true minimum, and n reaches past them, so both sides raise PrecisionError
    for op in (operator.add, operator.sub, operator.mul):
        got, want = op(x, y), profinite_merge_oracle(x, y, op)
        assert (got.tail, got.overrides) == (want.tail, want.overrides)
    g = GlobalProfiniteHW(x, y, z)

    def local(p: int, k: int) -> ProfiniteHWElement:
        return ProfiniteHWElement(*(profinite_component_oracle(v, p, k) for v in (x, y, z)))

    for p in (2, 3, 5, 7):
        for k in range(1, 8):
            assert _outcome(x.component, p, k) == _outcome(profinite_component_oracle, x, p, k)
            assert _outcome(g.component, p, k) == _outcome(local, p, k)
    assert x.is_even() == (profinite_component_oracle(x, 2, 1).residue == 0)
    n = 2 ** exponents[0] * 3 ** exponents[1] * 5 ** exponents[2] * m
    assume(n >= 2)
    assert _outcome(x.residue, n) == _outcome(profinite_residue_oracle, x, n)
    assert _outcome(phw_global_project_factors, g, n) == _outcome(
        phw_global_project_factors_oracle, g, n
    )
    b = rat_decompose(_smooth_rational(data))
    assert _outcome(char_chi_global, x, b) == _outcome(char_chi_global_oracle, x, b)


@_settings
@given(num=_ints, den=_dens)
def test_rat_decompose_matches_fraction(num, den):
    q = RatMod1.of(num, den)
    parts = rat_decompose(q)
    for p, part in parts.items():
        assert set(factorize(part.denominator)) == {p}
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
    for got in (a, b, a + b, a - b, a * b, -a):
        _assert_padic_checked(got)
    k = data.draw(st.integers(1, n1))
    assert project_xi(a, k) == a.residue % p**k


@settings(deadline=None, max_examples=15)
@given(
    p=st.sampled_from([2, 3, 7, 65537, 10**18 + 3]) | st.integers(2, 10**6),
    count=st.integers(1, 3000),
    seed=st.integers(0, 2**32 - 1),
)
@example(p=10**18 + 3, count=1100, seed=0)  # splits 1024 + 76, each side recursing
@example(p=3, count=65, seed=0)
def test_to_digits_matches_one_divmod_per_digit(p, count, seed):
    # a value in [-p^count, 2 p^count), so every digit position is exercised
    bound = p**count
    value = random.Random(seed).randrange(-bound, 2 * bound)
    assert _to_digits(value, p, count) == digits_oracle(value, p, count)


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


@st.composite
def _global_sb(draw, side: str) -> GlobalSBFunction:
    """One to three terms, each a product of factors at some of the primes
    2, 3, 5, of degree 0 to 2 on one side."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        factors = {}
        for p in sorted(draw(st.sets(st.sampled_from([2, 3, 5]), min_size=1))):
            d = draw(st.integers(0, 2))
            values = rng.standard_normal(p**d) + 1j * rng.standard_normal(p**d)
            factors[p] = LocalSBFunction(p, side, d, tuple(values))
        terms.append((complex(*rng.standard_normal(2)), factors))
    return GlobalSBFunction(side, tuple(terms))


@st.composite
def _global_sb_wide(draw, side: str) -> GlobalSBFunction:
    """One to three terms, each a product of factors at one or two of the
    primes 2, 3, 5, 7, of degree 0 to 3 on one side: at most 5^3 7^3 points."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    primes = sorted(draw(st.sets(st.sampled_from([2, 3, 5, 7]), min_size=1, max_size=2)))
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        factors = {}
        for p in primes:
            if draw(st.booleans()):
                d = draw(st.integers(0, 3))
                factors[p] = LocalSBFunction(
                    p, side, d, rng.standard_normal(p**d) + 1j * rng.standard_normal(p**d)
                )
        terms.append((complex(*rng.standard_normal(2)), factors))
    return GlobalSBFunction(side, tuple(terms))


def _close(got: complex, want: complex, scale: float) -> bool:
    """Equal to a relative 1e-12 of scale: |(f, g)| <= |f| |g| bounds a sum
    of products whose terms may cancel, so scale is the product of norms."""
    return abs(got - want) <= 1e-12 * scale


def _norm(f: GlobalSBFunction) -> float:
    return math.sqrt(global_inner(f, f).real)


@_settings
@given(side=st.sampled_from([POSITION, MOMENTUM]), data=st.data())
def test_global_fourier_is_unitary_with_fourth_power_one(side, data):
    f, g = data.draw(_global_sb(side)), data.draw(_global_sb(side))
    ff, fg = global_fourier(f), global_fourier(g)
    assert ff.side != side
    assert _close(global_inner(ff, fg), global_inner(f, g), _norm(f) * _norm(g))
    f4 = global_fourier(global_fourier(global_fourier(ff)))
    assert f4.side == side
    assert _close(global_inner(f, f4), global_inner(f, f), _norm(f) ** 2)


@_settings
@given(
    side=st.sampled_from([POSITION, MOMENTUM]),
    data=st.data(),
    a=st.builds(RatMod1.of, st.integers(-10**6, 10**6), st.integers(1, 1000)),
    b=st.integers(-50, 50),
)
def test_global_parity_is_an_involution(side, data, a, b):
    f = data.draw(_global_sb(side))
    p2f = global_parity(global_parity(f, a, b), a, b)
    norm2 = global_inner(f, f).real
    assert _close(global_inner(f, p2f), norm2, norm2)
    assert _close(global_inner(p2f, p2f), norm2, norm2)


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
    assert sb_equal(local_reflect(f), LocalSBFunction(p, side, d, want))


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
    assert sb_equal(scale_variable(f, lam), LocalSBFunction(p, side, degree, want))


def _same_bits(got, want) -> bool:
    return np.asarray(got, dtype=complex).tobytes() == np.asarray(want, dtype=complex).tobytes()


def _agrees(got: LocalSBFunction, want: TupleSB) -> bool:
    """The array result and the tuple-era one, bit for bit."""
    return (got.p, got.side, got.degree) == want[:3] and _same_bits(got.values, want.values)


_SB_PRIMES = st.sampled_from([2, 3, 5, 7])
_SIDES = st.sampled_from([POSITION, MOMENTUM])


@_settings
@given(
    p=_SB_PRIMES,
    degree=st.integers(0, 3),
    side=_SIDES,
    unit=st.integers(1, 10**6),
    r=st.integers(0, 2),
    labels=st.tuples(*[st.integers(0, 4), st.integers(0, 10**6)] * 2),
    b=st.integers(-50, 50),
    seed=st.integers(0, 2**32 - 1),
)
# the momentum degree grows by v_3(3^11 * 31) = 11 to 13: 3^13 values are over the bound
@example(
    p=3, degree=2, side=MOMENTUM, unit=3**9 * 31, r=2, labels=(0, 0, 0, 0), b=0, seed=0
)
def test_local_sb_operations_match_the_tuple_oracles(p, degree, side, unit, r, labels, b, seed):
    rng = np.random.default_rng(seed)
    q = p**degree
    f = LocalSBFunction(p, side, degree, rng.standard_normal(q) + 1j * rng.standard_normal(q))
    t = TupleSB.of(f)
    for d in range(degree, 4):
        assert _agrees(refine(f, d), refine_oracle(t, d))
    assert _agrees(local_fourier(f), local_fourier_oracle(t))
    assert _agrees(local_fourier_inv(f), local_fourier_inv_oracle(t))
    assert _agrees(local_reflect(f), local_reflect_oracle(t))
    lam = unit * p**r
    scaled = degree + valuation(lam, p)
    if side == MOMENTUM and (scaled > 20 or p**scaled > 2**20):
        with pytest.raises(ValueError, match="exceeds bound"):
            scale_variable(f, lam)
    else:
        assert _agrees(scale_variable(f, lam), scale_variable_oracle(t, lam))
    a, c = RatMod1.of(labels[1], p ** labels[0]), RatMod1.of(labels[3], p ** labels[2])
    assert _agrees(local_displace(f, a, b, c), local_displace_oracle(t, a, b, c))
    assert _same_bits(integrate_local(f), integrate_local_oracle(t))


@_settings
@given(side=_SIDES, data=st.data())
def test_global_sb_operations_match_the_tuple_oracles(side, data):
    f, g = data.draw(_global_sb_wide(side)), data.draw(_global_sb_wide(side))
    assert _same_bits(global_inner(f, g), global_inner_oracle(f, g))
    try:
        want = canonicalize_global_oracle(f)
    except ValueError:
        with pytest.raises(ValueError, match="no nontrivial prime support"):
            canonicalize_global(f)
        return
    got = canonicalize_global(f)
    assert (got.n, got.rep) == (want.n, want.rep)
    assert _same_bits(got.amplitudes, want.amplitudes)


# The tolerances of the laws below are about five times the largest gap seen
# in 4000 seeded draws of the same strategies (values with standard normal
# parts): 2.3e-15 for the inverse, 2.1e-15 for the characters, 4.4e-16 for
# the delta family and 1.6e-15 for the hat transform.


@_settings
@given(p=_SB_PRIMES, degree=st.integers(0, 3), side=_SIDES, seed=st.integers(0, 2**32 - 1))
def test_local_fourier_inv_inverts_local_fourier(p, degree, side, seed):
    rng = np.random.default_rng(seed)
    q = p**degree
    f = LocalSBFunction(p, side, degree, rng.standard_normal(q) + 1j * rng.standard_normal(q))
    for g in (local_fourier_inv(local_fourier(f)), local_fourier(local_fourier_inv(f))):
        assert (g.p, g.side, g.degree) == (p, side, degree)
        assert np.max(np.abs(g.values - f.values)) <= 1e-14


@_settings
@given(
    p=_SB_PRIMES,
    levels=st.tuples(st.integers(0, 3), st.integers(0, 3)),
    nums=st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)),
)
def test_character_function_is_a_homomorphism(p, levels, nums):
    q1, q2 = (Fraction(m % p**k, p**k) for m, k in zip(nums, levels))
    k = max(levels)
    both = refine(character_function(p, q1 + q2), k)
    one, two = (refine(character_function(p, q), k) for q in (q1, q2))
    assert both.degree == k
    assert np.max(np.abs(both.values - one.values * two.values)) <= 1e-14


@_settings
@given(
    p=_SB_PRIMES,
    degrees=st.tuples(st.integers(1, 3), st.integers(0, 3)),
    seed=st.integers(0, 2**32 - 1),
)
def test_delta_family_integrates_to_the_value_at_zero(p, degrees, seed):
    precision, degree = degrees[0], min(degrees)
    rng = np.random.default_rng(seed)
    q = p**degree
    f = LocalSBFunction(p, POSITION, degree, rng.standard_normal(q) + 1j * rng.standard_normal(q))
    delta = delta_family(p, precision)
    product = LocalSBFunction(
        p, POSITION, precision, refine(f, precision).values * delta.values
    )
    assert abs(integrate_local(product) - f.values[0]) <= 2e-15


@_settings
@given(degree=st.integers(0, 6), seed=st.integers(0, 2**32 - 1))
def test_hat_transform_at_even_arguments_is_the_position_function(degree, seed):
    rng = np.random.default_rng(seed)
    q = 2**degree
    f = LocalSBFunction(2, POSITION, degree, rng.standard_normal(q) + 1j * rng.standard_normal(q))
    h = hat_transform_2adic(local_fourier(f))
    assert h.shape == (2 * q,)
    assert np.max(np.abs(h[::2] - f.values)) <= 8e-15
