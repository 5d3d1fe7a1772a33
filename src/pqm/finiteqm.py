"""The finite quantum system on Z(n): Fourier, displacements, parity, Wigner.

Measure conventions.  States carry a representation tag: position-side
functions use the normalized Haar weight 1/n in inner products, momentum-side
functions use the counting weight 1.  The Fourier transform always applies
the forward kernel omega_n(-XP) with the source representation's measure and
flips the tag, which makes F^2 = parity and F^4 = 1 hold at the level of
stored values.  Every transform runs on ``numpy.fft`` in O(n log n) time and
O(n) memory; the dense ``fourier_matrix`` serves only as the oracle.

Displacement conventions.  A displacement is determined by continuum data
(a, b, c) with a, c in Q/Z and b an integer, acting on position functions as

    f(x) |-> chi(c - a b + 2 a x) f(x - b).

On Z(n) the label a is c alpha/(2n), with c = ``_chi_coeff(n)``: 2 for odd
n, where 2 is a unit, and 1 for even n, where the scalar prefactor involves
2n-th roots of unity (the half phases).  Every Z(n) phase is written over
2n through c, so the rule has this one home.  Internally an element stores
(alpha, beta, phase) with the phase the full exact scalar exponent; the
canonical constructor from (alpha, beta, gamma) sets
phase = (2 gamma - c alpha beta)/(2n).  All group arithmetic is exact in
Q/Z, and ``_unit(num, den)`` = e(num/den) alone turns exponents into complex
numbers: num mod den in integers, then one correctly rounded quotient, so
equal fractions give equal bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numbers import (
    RatMod1,
    ZERO_MOD1,
    _index,
    crt_idempotents,
    crt_split_mu,
    crt_split_nu_hat,
)


def _unit(num, den=None):
    """e(num/den) for integers num, den >= 1: Python ints or int64 arrays
    below 2^53.  num is reduced mod den in integers and the one correctly
    rounded quotient is taken before the 2 pi i, so equal fractions give
    equal bits: _unit(m num + j m den, m den) == _unit(num, den).  With den
    None, num holds such quotients already taken, floats in [0, 1): a
    denominator past int64 takes its quotient in Python ints first, where
    int / int is correctly rounded too (``_displacement_action``)."""
    q = num if den is None else (num % den) / den
    return np.exp(2j * np.pi * np.asarray(q, dtype=float))


# ---------------------------------------------------------------------------
# States
# ---------------------------------------------------------------------------

POSITION = "position"
MOMENTUM = "momentum"


@dataclass(eq=False)
class FiniteState:
    """A wavefunction on Z(n) in one of the two representations."""

    n: int
    rep: str
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        if type(self.n) is not int:
            self.n = _index(self.n, "n")
        if self.n < 1:
            raise ValueError(f"n={self.n} must be >= 1")
        if self.rep not in (POSITION, MOMENTUM):
            raise ValueError(f"unknown rep {self.rep!r}")
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex)
        if self.amplitudes.shape != (self.n,):
            raise ValueError("amplitude length does not match n")

    @property
    def measure_weight(self) -> float:
        return _measure_weight(self.n, self.rep)


def _measure_weight(n: int, rep: str) -> float:
    """The Haar weight 1/n on the position side, the counting weight 1 on the
    momentum side."""
    return 1.0 / n if rep == POSITION else 1.0


def inner(f: FiniteState, g: FiniteState) -> complex:
    if f.n != g.n or f.rep != g.rep:
        raise ValueError("states must share dimension and representation")
    return f.measure_weight * complex(np.vdot(f.amplitudes, g.amplitudes))


def norm(f: FiniteState) -> float:
    return math.sqrt(max(inner(f, f).real, 0.0))


def random_state(n: int, rng, rep: str = POSITION) -> FiniteState:
    """A normalized state with Gaussian amplitudes."""
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    f = FiniteState(n, rep, v)
    f.amplitudes = f.amplitudes / norm(f)
    return f


# The state maps ``fourier``, ``extend`` and ``displace`` each have one kernel
# on raw values: a (..., n) stack of one representation's values, transformed
# on the last axis.  The public functions apply it to one state's values.


def _fourier_values(v: np.ndarray, rep: str) -> np.ndarray:
    """``fourier`` on the last axis of a stack of ``rep`` values."""
    return _measure_weight(v.shape[-1], rep) * np.fft.fft(v)


def fourier(f: FiniteState) -> FiniteState:
    """Apply the Fourier operator: forward kernel, source measure, tag flip."""
    other = MOMENTUM if f.rep == POSITION else POSITION
    return FiniteState(f.n, other, _fourier_values(f.amplitudes, f.rep))


def _dilation(n: int, lam: int, count: int | None = None) -> np.ndarray:
    """The indices lam x mod n for x < count (default n): v[_dilation(n, lam)]
    is x |-> v(lam x).  lam is reduced first, so any integer works."""
    return (lam % n) * np.arange(n if count is None else count) % n


def reflect(f: FiniteState) -> FiniteState:
    """x |-> -x on the stored values, in either rep: ``fourier`` applied twice."""
    return FiniteState(f.n, f.rep, f.amplitudes[_dilation(f.n, -1)])


def to_momentum(f: FiniteState) -> FiniteState:
    """Coordinate change: the momentum-side values of the same state."""
    if f.rep == MOMENTUM:
        return f
    return FiniteState(f.n, MOMENTUM, _fourier_values(f.amplitudes, POSITION))


def to_position(f: FiniteState) -> FiniteState:
    """Coordinate change: the position-side values of the same state."""
    if f.rep == POSITION:
        return f
    # n ifft, not the reflected forward kernel: that moves the last bit of most states
    return FiniteState(f.n, POSITION, f.n * np.fft.ifft(f.amplitudes))


def extend(f: FiniteState, ell: int) -> FiniteState:
    """The isometric embedding Z(n) -> Z(ell), n | ell: position values extend
    periodically, momentum values move from P to (ell/n) P with zero padding."""
    if type(ell) is not int:
        ell = _index(ell, "ell")
    if ell < f.n:
        raise ValueError(f"ell={ell} is smaller than n={f.n}")
    if ell % f.n:
        raise ValueError(f"{f.n} does not divide {ell}")
    return FiniteState(ell, f.rep, _extend_values(f.amplitudes, f.rep, ell))


def _extend_values(v: np.ndarray, rep: str, ell: int) -> np.ndarray:
    """``extend`` on the last axis of a stack of ``rep`` values, n | ell."""
    n = v.shape[-1]
    if rep == POSITION:  # np.tile's own repeat, without its overhead
        return v[..., None, :].repeat(ell // n, -2).reshape(v.shape[:-1] + (ell,))
    out = np.zeros(v.shape[:-1] + (ell,), dtype=complex)
    out[..., :: ell // n] = v
    return out


def fourier_matrix(n: int) -> np.ndarray:
    """The fixed-representation unitary of the Fourier operator.

    Applying this to position values gives sqrt(n) times the values that
    ``fourier`` stores on the momentum side (the measure retag factor).
    This dense n x n matrix is the oracle the FFT paths are checked against.
    """
    j = np.arange(n)
    return _unit(-np.outer(j, j), n) / math.sqrt(n)


# ---------------------------------------------------------------------------
# CRT index maps and Good's factorized transform
# ---------------------------------------------------------------------------


def _flat_indices(n: int, rep: str) -> tuple[np.ndarray, tuple[int, ...]]:
    """Flat positions in the prime-power grid of every index of Z(n).

    Position indices split by the mu map, momentum indices by the nu-hat map.
    """
    dims = tuple(f.q for f in crt_idempotents(n))
    split = crt_split_mu if rep == POSITION else crt_split_nu_hat
    return np.ravel_multi_index(split(n, np.arange(n)), dims), dims


def _good_values(v: np.ndarray, rep: str) -> np.ndarray:
    """``fourier_good`` on the last axis of a stack of ``rep`` values: the
    CRT index maps are built once for the whole stack."""
    n = v.shape[-1]
    if n == 1 or len(crt_idempotents(n)) == 1:
        return _fourier_values(v, rep)
    src, dims = _flat_indices(n, rep)
    dst, _ = _flat_indices(n, MOMENTUM if rep == POSITION else POSITION)
    lead = v.shape[:-1]
    a = np.zeros(lead + dims, dtype=complex)
    a.reshape(lead + (n,))[..., src] = v
    a = _measure_weight(n, rep) * np.fft.fftn(a, axes=range(len(lead), a.ndim))
    return a.reshape(lead + (n,))[..., dst]


def fourier_good(f: FiniteState) -> FiniteState:
    """Good's prime-factor transform: CRT index remaps, per-prime-power FFTs.
    A prime power, and n = 1, take the single FFT of ``fourier``."""
    other = MOMENTUM if f.rep == POSITION else POSITION
    return FiniteState(f.n, other, _good_values(f.amplitudes, f.rep))


# ---------------------------------------------------------------------------
# The Heisenberg-Weyl group on Z(n)
# ---------------------------------------------------------------------------


def _chi_coeff(n: int) -> int:
    """c with position phase chi(2 a x) = omega_n(c alpha x): 2 odd, 1 even."""
    return 2 if n % 2 else 1


def _check_dimension(n: int) -> int:
    """n as a plain int: the Heisenberg-Weyl group on Z(n) needs n >= 2,
    checked before any mod n."""
    if type(n) is not int:
        n = _index(n, "n")
    if n < 2:
        raise ValueError("n must be >= 2")
    return n


@dataclass(frozen=True, slots=True)
class HWElement:
    """A displacement operator D on Z(n) with an exact scalar prefactor.

    Position action: f(X) |-> e(phase + c alpha X / n) f(X - beta) with
    c = 2 for odd n and c = 1 for even n.
    """

    n: int
    alpha: int
    beta: int
    phase: RatMod1 = ZERO_MOD1

    def __post_init__(self) -> None:
        if not type(self.n) is type(self.alpha) is type(self.beta) is int:
            # an int subclass or an integer-like value is stored as the plain int
            for name in ("n", "alpha", "beta"):
                object.__setattr__(self, name, _index(getattr(self, name), name))
        _check_dimension(self.n)
        if not (0 <= self.alpha < self.n and 0 <= self.beta < self.n):
            raise ValueError("alpha, beta must be canonical residues in [0, n)")
        if not isinstance(self.phase, RatMod1):
            raise ValueError(f"phase must be a RatMod1, got {self.phase!r}")

    @classmethod
    def _of(cls, n: int, alpha: int, beta: int, phase: RatMod1) -> "HWElement":
        """The element for an n, alpha and beta that valid elements already
        carry, alpha and beta reduced mod n: built without ``__post_init__``."""
        d = object.__new__(cls)
        _SET_N(d, n)
        _SET_ALPHA(d, alpha)
        _SET_BETA(d, beta)
        _SET_PHASE(d, phase)
        return d

    @classmethod
    def from_canonical(cls, n: int, alpha: int, beta: int, gamma: int) -> "HWElement":
        n = _check_dimension(n)
        if not type(alpha) is type(beta) is type(gamma) is int:
            alpha, beta = _index(alpha, "alpha"), _index(beta, "beta")
            gamma = _index(gamma, "gamma")
        alpha, beta, gamma = alpha % n, beta % n, gamma % n
        phase = RatMod1.of(2 * gamma - _chi_coeff(n) * alpha * beta, 2 * n)
        return cls._of(n, alpha, beta, phase)

    @classmethod
    def from_phase_space(
        cls, n: int, a: RatMod1, b: int, c: RatMod1 = ZERO_MOD1
    ) -> "HWElement":
        """Build from continuum data (a, b, c); requires 2a on the 1/n grid."""
        n = _check_dimension(n)
        if type(b) is not int:
            b = _index(b, "b")
        r, rem = divmod(2 * n * a.numerator, a.denominator)
        if rem:
            raise ValueError(f"a={a} does not displace the Z({n}) momentum grid")
        phase = c - a.scaled(b)
        if not isinstance(phase, RatMod1):
            raise ValueError(f"phase must be a RatMod1, got {phase!r}")
        return cls._of(n, r * pow(_chi_coeff(n), -1, n) % n, b % n, phase)

    @property
    def frak_a(self) -> RatMod1:
        """The continuum label a in Q/Z (alpha/n odd, alpha/(2n) even)."""
        return RatMod1.of(_chi_coeff(self.n) * self.alpha, 2 * self.n)

    @property
    def frak_c(self) -> RatMod1:
        """The continuum label c in Q/Z (phase = c - a b)."""
        return self.phase + self.frak_a.scaled(self.beta)


# the slots' own setters, for ``HWElement._of``
_SET_N = HWElement.__dict__["n"].__set__
_SET_ALPHA = HWElement.__dict__["alpha"].__set__
_SET_BETA = HWElement.__dict__["beta"].__set__
_SET_PHASE = HWElement.__dict__["phase"].__set__


def hw_identity(n: int) -> HWElement:
    return HWElement(n, 0, 0)


def hw_mul(d1: HWElement, d2: HWElement) -> HWElement:
    """Group law (a,b,c)(a',b',c') = (a+a', b+b', c+c'+ab'-a'b), exactly.

    The phase p1 + p2 - c alpha2 beta1 / n is one fraction over den1 den2 n.
    """
    if d1.n != d2.n:
        raise ValueError("dimension mismatch")
    n, p1, p2 = d1.n, d1.phase, d2.phase
    den = p1.denominator * p2.denominator
    phase = RatMod1.of(
        (p1.numerator * p2.denominator + p2.numerator * p1.denominator) * n
        - _chi_coeff(n) * d2.alpha * d1.beta * den,
        den * n,
    )
    return HWElement._of(n, (d1.alpha + d2.alpha) % n, (d1.beta + d2.beta) % n, phase)


def hw_adjoint(d: HWElement) -> HWElement:
    """The adjoint D(-a, -b, -c); also the group inverse.

    The phase -p - c alpha beta / n is one fraction over den n.
    """
    n, p = d.n, d.phase
    phase = RatMod1.of(
        -p.numerator * n - _chi_coeff(n) * d.alpha * d.beta * p.denominator,
        p.denominator * n,
    )
    return HWElement._of(n, -d.alpha % n, -d.beta % n, phase)


def hw_scalar_mul(d: HWElement, q: RatMod1) -> HWElement:
    """Multiply the operator by the scalar e(q)."""
    return HWElement._of(d.n, d.alpha, d.beta, d.phase + q)


def hw_x(n: int) -> HWElement:
    return HWElement.from_canonical(n, 0, 1, 0)


def hw_z(n: int) -> HWElement:
    n = _check_dimension(n)
    return HWElement.from_canonical(n, pow(_chi_coeff(n), -1, n), 0, 0)


def _displacement_action(elements, rep: str) -> tuple[np.ndarray, np.ndarray]:
    """(phases, src) with (D_i f)(x) = phases[i, x] f(src[i, x]) on the rep's
    values, for k elements D_i = e(phase_i) D(alpha_i, beta_i) of one n, as
    (k, n) stacks; the integer x-term t gives the factor e(t/n).  A phase
    denominator may exceed int64 (``hw_scalar_mul``), so each phase's
    quotient is taken in Python ints, a RatMod1 being reduced to [0, 1),
    and reaches ``_unit`` as a float."""
    n = elements[0].n
    if any(d.n != n for d in elements):
        raise ValueError("dimension mismatch")
    ab = np.array([(d.alpha, d.beta) for d in elements])
    alpha, beta = ab[:, :1], ab[:, 1:]
    quotients = [[d.phase.numerator / d.phase.denominator] for d in elements]
    c = _chi_coeff(n)
    x = np.arange(n)
    if rep == POSITION:
        src, t = (x - beta) % n, c * alpha % n * x
    else:
        src = (x - c * alpha) % n
        t = -beta * src
    phases = _unit(t, n)
    phases *= _unit(quotients)
    return phases, src


def _displace_values(v: np.ndarray, rep: str, elements) -> np.ndarray:
    """``displace`` on the last axis of a (k, n) stack of ``rep`` values, by
    k elements of that n acting row by row (or all on one (1, n) row)."""
    phases, src = _displacement_action(elements, rep)
    # one row is a 1-D gather, twice as fast as the row-wise one at large n
    phases *= v[0][src] if len(v) == 1 else np.take_along_axis(v, src, axis=-1)
    return phases


def displace(d: HWElement, f: FiniteState) -> FiniteState:
    if d.n != f.n:
        raise ValueError("dimension mismatch")
    values = _displace_values(f.amplitudes[None], f.rep, [d])[0]
    return FiniteState(d.n, f.rep, values)


def hw_matrix(d: HWElement, rep: str = POSITION) -> np.ndarray:
    return _hw_matrices([d], rep)[0]


def _hw_matrices(elements, rep: str = POSITION) -> np.ndarray:
    """``hw_matrix`` of each element, all of one n, as one (k, n, n) stack."""
    n = elements[0].n
    phases, src = _displacement_action(elements, rep)
    m = np.zeros((len(elements), n, n), dtype=complex)
    m[np.arange(len(elements))[:, None], np.arange(n), src] = phases
    return m


def _hw_sum(elements, rep: str) -> np.ndarray:
    """The sum of the ``_hw_matrices`` stack, scattered into one matrix in its order."""
    n = elements[0].n
    phases, src = _displacement_action(elements, rep)
    m = np.zeros((n, n), dtype=complex)
    np.add.at(m, (np.arange(n), src), phases)
    return m


# ---------------------------------------------------------------------------
# Parity operators and phase points
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PhasePoint:
    """A parity phase-space point: a-index, b-index over Z(n).

    For even n the ``doubled`` variant reads the a-index over Z(2n)
    (a/(4n) instead of a/(2n)); it is the exploratory grid.
    """

    n: int
    a: int
    b: int
    doubled: bool = False

    def __post_init__(self) -> None:
        if not type(self.n) is type(self.a) is type(self.b) is int:
            for name in ("n", "a", "b"):
                object.__setattr__(self, name, _index(getattr(self, name), name))
        if self.doubled and self.n % 2:
            raise ValueError("doubled grid applies to even n only")
        mod_a = 2 * self.n if self.doubled else self.n
        if not (0 <= self.a < mod_a and 0 <= self.b < self.n):
            raise ValueError("phase point out of range")

    @property
    def frak_a(self) -> RatMod1:
        """c a/(2n), over 4n on the doubled grid."""
        return RatMod1.of(_chi_coeff(self.n) * self.a, (4 if self.doubled else 2) * self.n)


def parity_displacement(pt: PhasePoint) -> HWElement:
    """The element D(2a, 2b, 0) whose composition with F^2 is the parity."""
    return HWElement.from_phase_space(pt.n, pt.frak_a.scaled(2), 2 * pt.b)


def parity_apply(pt: PhasePoint, f: FiniteState) -> FiniteState:
    if pt.n != f.n:
        raise ValueError("dimension mismatch")
    return reflect(displace(parity_displacement(pt), f))


def parity_matrix(pt: PhasePoint, rep: str = POSITION) -> np.ndarray:
    """The matrix of x |-> -x applied after D(2a, 2b, 0): its rows reversed mod n."""
    return _parity_matrices([pt], rep)[0]


def _parity_matrices(points, rep: str = POSITION) -> np.ndarray:
    """``parity_matrix`` of each point, all of one n, as one (k, n, n) stack."""
    stack = _hw_matrices([parity_displacement(pt) for pt in points], rep)
    return stack[:, _dilation(points[0].n, -1)]


def _weyl_wigner_values(v: np.ndarray, rep: str, displacements, parities) -> list[complex]:
    """The point kernel of the Weyl and Wigner functions: (f, D f) for each
    displacement D, then (f, P f) for each parity P (x -> -x after D), as one
    stacked action, reduced row by row as ``inner`` does.  v is a (1, n)
    row of one state's ``rep`` values, acted on by every element, or a
    (k, n) stack with each element's own state in its row."""
    h = _displace_values(v, rep, displacements + parities)
    # assigned in place, so every row stays contiguous: np.vdot sums a
    # strided row in another order
    n = v.shape[-1]
    reflected = slice(len(displacements), None)
    h[reflected] = h[reflected][:, _dilation(n, -1)]
    w = _measure_weight(n, rep)
    states = v if len(v) == len(h) else [v[0]] * len(h)
    return [w * complex(np.vdot(f, row)) for f, row in zip(states, h)]


def _point_elements(n: int, points, kind: str, doubled: bool = False) -> tuple[list, list]:
    """The kernel's (displacements, parities) for (a, b) points of one kind:
    D(a, b, 0) for weyl, parity_displacement(PhasePoint(n, a, b, doubled)) for wigner."""
    if kind == "weyl":
        return [HWElement.from_canonical(n, a, b, 0) for a, b in points], []
    if kind == "wigner":
        return [], [parity_displacement(PhasePoint(n, a, b, doubled)) for a, b in points]
    raise ValueError(f"unknown kind {kind!r}")


def weyl_wigner(
    f: FiniteState, a: int, b: int, kind: str, doubled: bool = False
) -> complex:
    """The Weyl function (f, D(a,b,0) f) or the Wigner function (f, P(a,b) f).

    One point, the point kernel's stack of one; ``wigner_table`` gives the
    whole table and this is its oracle.  A label that is not an integer is a
    ValueError naming ``a`` or ``b``, at either kind.
    """
    points = [(_index(a, "a"), _index(b, "b"))]
    elements = _point_elements(f.n, points, kind, doubled)
    return _weyl_wigner_values(f.amplitudes[None], f.rep, *elements)[0]


def _shift_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(x, x - b) mod n as [b, x] arrays: D(a, b, 0) lives on these entries."""
    x = np.arange(n)
    return np.broadcast_to(x, (n, n)), (x - x[:, None]) % n


def _reflect_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(-y - b, y - b) mod n as [b, y] arrays: P(a, b)^T lives on these entries."""
    y = np.arange(n)
    return (-y - y[:, None]) % n, (y - y[:, None]) % n


def _wrapped_diagonals(theta: np.ndarray) -> np.ndarray:
    """[..., b, x] = theta[..., x, x - b] of a (..., n, n) stack, in C order:
    a gather behind a leading slice would not be, and its sum over x would
    run in another order than one matrix's."""
    n = theta.shape[-1]
    rows, cols = _shift_indices(n)
    return np.take(theta.reshape(theta.shape[:-2] + (n * n,)), rows * n + cols, axis=-1)


def _displacement_phases(n: int) -> np.ndarray:
    """e(s_ab) as an [a, b] array, with the scalar exponent s_ab = -c ab/(2n)
    of D(a, b, 0) reduced exactly before the float."""
    j = np.arange(n)
    return _unit(-_chi_coeff(n) * j[:, None] * j, 2 * n)


def _parity_k(n: int, doubled: bool) -> int:
    """k with P(a, b)[x, -x - 2b] = e(-k a (x + b) / n), so k a/n = 4 frak_a:
    4 odd, 2 even, 1 doubled."""
    if doubled and n % 2:
        raise ValueError("doubled grid applies to even n only")
    return (1 if doubled else 2) * _chi_coeff(n)


def wigner_table(f: FiniteState, kind: str, doubled: bool = False) -> np.ndarray:
    """Every value of ``weyl_wigner`` at once, as an (a_range, n) array [a, b].

    One length-n FFT per b over the wrapped diagonals of f f^*, in
    O(n^2 log n) time and O(n^2) memory, on the position values:

        Weyl:   V(a,b) = (1/n) e(s_ab) sum_x e(c a x/n) f*(x) f(x - b)
        Wigner: W(a,b) = (1/n) sum_y e(-k a y/n) f*(y - b) f(-y - b)

    a_range is 2n on the even-n doubled Wigner grid and n otherwise;
    ``doubled`` has no effect on the Weyl table, as in ``weyl_wigner``.

    The Weyl table is complex.  The Wigner table is float64: P(a, b) is
    Hermitian, so W is real, and the table is the real part of the FFT,
    bit for bit; its imaginary part is rounding noise and is dropped.
    """
    if kind not in ("weyl", "wigner"):
        raise ValueError(f"unknown kind {kind!r}")
    n = f.n
    v = to_position(f).amplitudes
    if kind == "weyl":
        rows, cols = _shift_indices(n)
        diag = np.fft.ifft(v.conj()[rows] * v[cols], axis=1)  # [b, m]
        return _displacement_phases(n) * diag[:, _dilation(n, _chi_coeff(n))].T
    ka = _dilation(n, _parity_k(n, doubled), 2 * n if doubled else n)
    rows, cols = _reflect_indices(n)
    diag = np.fft.fft(v[rows] * v.conj()[cols], axis=1, norm="forward")  # [b, m]
    return diag.real[:, ka].T


# ---------------------------------------------------------------------------
# Operators, tomography identities
# ---------------------------------------------------------------------------


def random_operator(n: int, rng) -> np.ndarray:
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def _square_operator(theta) -> np.ndarray:
    m = np.asarray(theta, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 2:
        raise ValueError("operator must be a square matrix with n >= 2")
    return m


def _displacement_grid(n: int) -> np.ndarray:
    """The D(a, b, 0) position matrices as an [a, b] grid, the brute-force
    reference for the tomography sums: n^4 values, so for small n only."""
    points = [HWElement.from_canonical(n, a, b, 0) for a in range(n) for b in range(n)]
    return _hw_matrices(points).reshape(n, n, n, n)


def _character_sum(n: int, k: int) -> np.ndarray:
    """sum_{a < n} e(k a d / n) for each d in Z(n), exactly: n where n | k d, else 0."""
    return np.where(_dilation(n, k) == 0, float(n), 0.0)


def resolution_identity_check(theta) -> float:
    """Residual of (1/n) sum_{a,b} D theta D^dagger = tr(theta) 1.

    Entry [x, y] of D(a,b,0) theta D(a,b,0)^dagger is
    e(c a (x - y)/n) theta[x - b, y - b], so entry [x, y] of the sum is
    (1/n) A(x - y) S(x - y) with A(d) = sum_a e(c a d/n) and
    S(d) = sum_z theta[z, z - d]: it depends on x - y only.
    """
    return float(_resolution_residuals(_square_operator(theta)))


def _resolution_residuals(theta: np.ndarray) -> np.ndarray:
    """``resolution_identity_check`` of each operator of a (..., n, n) stack."""
    n = theta.shape[-1]
    s = _wrapped_diagonals(theta).sum(axis=-1)  # S(d), d = b
    acc = _character_sum(n, _chi_coeff(n)) * s / n
    acc[..., 0] -= np.trace(theta, axis1=-2, axis2=-1)
    return np.abs(acc).max(axis=-1)


def operator_expand(theta) -> tuple[np.ndarray, float]:
    """Expand theta over the displacement basis; return (coefficients, residual).

    theta = (1/n) sum_{a,b} D(a,b,0) tr[D(a,b,0)^dagger theta].  The adjoint
    here is the group adjoint D(-a,-b,0) of the continuum formalism; for odd
    n it coincides with canonical index negation, for even n the two differ
    by an exact sign (-1)^(a+b).

    D(a,b,0) holds e(s_ab + c a x/n) at [x, x - b], so the coefficient
    e(-s_ab) sum_x e(-c a x/n) theta[x, x - b] is an FFT of theta's b-th
    wrapped diagonal, and the reconstruction is an inverse FFT per b.
    """
    coeffs, residual = _expand_stack(_square_operator(theta))
    return coeffs, float(residual)


def _expand_stack(theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``operator_expand`` of each operator of a (..., n, n) stack: the
    coefficients [..., a, b] and the residuals [...]."""
    n = theta.shape[-1]
    diag = _wrapped_diagonals(theta)
    ca = _dilation(n, _chi_coeff(n))
    phases = _displacement_phases(n)
    coeffs = phases.conj() * np.fft.fft(diag)[..., ca].swapaxes(-1, -2)
    # recon[x, x - b] = (1/n) sum_a coeffs[a, b] e(s_ab + c a x/n)
    spectrum = np.empty(theta.shape, dtype=complex)
    spectrum[..., ca] = (coeffs * phases).swapaxes(-1, -2)
    recon = np.fft.ifft(spectrum)
    return coeffs, np.abs(recon - diag).max(axis=(-2, -1))


def coherent_check(g: FiniteState) -> float:
    """Residual of the coherent-state resolution of the identity.

    The fiducial must be normalized; the projector carries the measure
    weight, so (1/n) sum_{a,b} |g_ab><g_ab| = 1.  Entry [x, y] of the sum is
    (w/n) A(x - y) r(x - y), with r the circular autocorrelation of g's
    values and A(d) the character sum over the label that sets the phase:
    sum_a e(c a d/n) on the position side, sum_b e(-b d/n) on the momentum
    side.
    """
    if abs(norm(g) - 1.0) > 1e-9:
        raise ValueError("fiducial state must be normalized")
    return float(_coherent_residuals(g.amplitudes, g.rep))


def _coherent_residuals(v: np.ndarray, rep: str) -> np.ndarray:
    """``coherent_check`` of each fiducial of a (..., n) stack of normalized
    ``rep`` values."""
    n = v.shape[-1]
    k = _chi_coeff(n) if rep == POSITION else -1
    spectrum = np.fft.fft(v)
    r = np.fft.ifft(spectrum * spectrum.conj())  # r(d) = sum_z g(z + d) g*(z)
    acc = _character_sum(n, k) * r * (_measure_weight(n, rep) / n)
    acc[..., 0] -= 1.0
    return np.abs(acc).max(axis=-1)


@dataclass(frozen=True)
class ParityCheckResult:
    expansion_residual: float  # parity as character-weighted displacement sum
    sandwich_residual: float  # sum P theta P = tr(theta) 1
    tomography_residual: float  # theta = (1/n) sum P tr(theta P)


def _parity_expansion_residual(n: int) -> float:
    """Max gap of P(a, b) = (1/n) sum_{a',b'} omega_n(2(a'b - ab')) D(a',b',0), odd n.

    Entry [x, x - b'] of the sum is (1/n) e(-2ab'/n) sum_{a'} e(s_{a'b'} + 2a'm/n)
    with m = 2(b + x), and P(a, b) holds e(-4a(x + b)/n) = e(-2ab'/n) at b' = m:
    each a's gap is the a = 0 gap times e(-2ab'/n).  m covers Z(n) for odd n, so
    that gap is the inverse FFT over a' of e(s_{a'b'}) minus the identity, [m, b'].
    """
    spectrum = np.fft.ifft(_displacement_phases(n), axis=0)  # [m, b']
    return float(np.max(np.abs(spectrum - np.eye(n))))


def parity_expand_check(theta) -> ParityCheckResult:
    """Finite analogs of the parity identities, for odd n; even n is a ValueError.

    P(a, b) holds e(-k a (x + b)/n) at [x, -x - 2b], so entry [x, y] of
    sum P theta P is A(x - y) sum_b theta[-x - 2b, -y - 2b] with
    A(d) = sum_a e(-k a d/n); tr(theta P(a, b)) is an FFT over y of
    theta[-y - b, y - b]; and the tomography sum at [y - b, -y - b] is an FFT
    over a of those traces.
    """
    theta = _square_operator(theta)
    n = theta.shape[0]
    if n % 2 == 0:
        raise ValueError("unsupported regime: the parity identities hold for odd n only")
    sandwich, tomo = _parity_residuals(theta)
    return ParityCheckResult(_parity_expansion_residual(n), float(sandwich), float(tomo))


def _parity_residuals(theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sandwich and tomography residuals of ``parity_expand_check`` for
    each operator of a (..., n, n) stack, n odd."""
    n = theta.shape[-1]
    k = _parity_k(n, False)
    j = np.arange(n)

    diag = theta[..., (-j[:, None]) % n, (-j[:, None] - j) % n]  # [z, d] = theta[-z, -z - d]
    sandwich = _character_sum(n, -k)[_dilation(n, -1)] * diag.sum(axis=-2) / n
    sandwich[..., 0] -= np.trace(theta, axis1=-2, axis2=-1)

    rows, cols = _reflect_indices(n)
    traces = np.fft.fft(theta[..., rows, cols])[..., _dilation(n, k)]
    # sum_a e(-k a y/n) tr(theta P(a, b)), the entry at [y - b, -y - b]:
    # (b, y) -> (y - b, -y - b) is one-to-one for odd n, so each entry gets one
    weights = np.fft.fft(traces)[..., _dilation(n, k)]
    tomo = -theta
    tomo[..., cols, rows] += weights / n
    return np.abs(sandwich).max(axis=-1), np.abs(tomo).max(axis=(-2, -1))


# ---------------------------------------------------------------------------
# Marginal operators
# ---------------------------------------------------------------------------


def _hat_values(momentum_values: np.ndarray) -> np.ndarray:
    """hat(y/2) = sum_P e(y P / 2n) F(P), indexed by y mod 2n: 2n times the
    inverse FFT of F zero-padded to length 2n."""
    n = len(momentum_values)
    return 2 * n * np.fft.ifft(momentum_values, 2 * n)


def marginal_a_matrix(n: int, a: int) -> np.ndarray:
    """A(a) = integral db D(a, b, 0), as a momentum-representation matrix.

    The label a is a/n for odd n and a/(2n) for even n.  For even n the
    b-integral runs over Z(2n) with weight 1/(2n) because the half phases
    depend on b mod 2n; ``from_phase_space`` keeps b unreduced in the phase.
    """
    n = _check_dimension(n)
    a = _index(a, "a")
    b_range = n if n % 2 else 2 * n
    frak_a = RatMod1.of(a, b_range)
    els = [HWElement.from_phase_space(n, frak_a, b) for b in range(b_range)]
    return _hw_sum(els, MOMENTUM) / b_range


def marginal_a_expected(gt: np.ndarray, ft: np.ndarray, a: int) -> complex:
    """[g~(a)]* f~(-a) on the momentum grid; 0 off-grid (odd a, even n)."""
    n = len(gt)
    if len(ft) != n:
        raise ValueError("dimension mismatch")
    if n % 2:
        return gt[a % n].conjugate() * ft[(-a) % n]
    if a % 2:
        return 0j
    return gt[(a // 2) % n].conjugate() * ft[(-(a // 2)) % n]


def marginal_b_matrix(n: int, b: int) -> np.ndarray:
    """B(b) = |2|-weighted integral da D(a, b, 0), momentum representation.

    Odd n: the plain sum of D(a, b, 0) over the a-grid.  Even n: the
    a-integrand for odd b depends on the coset section, so the operator is
    pinned by the canonical zero-integer-part phases, giving the rank-one
    kernel K[P, Q] = e(-b (P + Q) / 2n); for even b this equals the section
    sum.  The index b runs mod 2n for even n.
    """
    n = _check_dimension(n)
    b = _index(b, "b")
    if n % 2:
        els = [HWElement.from_canonical(n, a, b, 0) for a in range(n)]
        return _hw_sum(els, MOMENTUM)
    p = np.arange(n)
    return _unit(-b * (p[:, None] + p[None, :]), 2 * n)


def marginal_b_expected(
    g_pos: np.ndarray, f_pos: np.ndarray, gt: np.ndarray, ft: np.ndarray, b: int
) -> complex:
    """[g(b/2)]* f(-b/2), through the hat transform when n is even."""
    n = len(ft)
    if not len(g_pos) == len(f_pos) == len(gt) == n:
        raise ValueError("dimension mismatch")
    if n % 2:
        inv2 = pow(2, -1, n)
        return g_pos[(inv2 * b) % n].conjugate() * f_pos[(-inv2 * b) % n]
    gh = _hat_values(gt)
    fh = _hat_values(ft)
    return gh[b % (2 * n)].conjugate() * fh[(-b) % (2 * n)]


def parity_marginal_a_matrix(n: int, a: int) -> np.ndarray:
    """cal-A(a) = (1/n) sum_b P(a, b), momentum representation (odd n)."""
    if n < 2 or n % 2 == 0:
        raise ValueError("unsupported regime: parity marginals need odd n >= 3")
    a = _index(a, "a")
    els = [parity_displacement(PhasePoint(n, a, b)) for b in range(n)]
    return _hw_sum(els, MOMENTUM)[_dilation(n, -1)] / n


def parity_marginal_b_matrix(n: int, b: int) -> np.ndarray:
    """cal-B(b) = sum_a P(a, b), momentum representation (odd n)."""
    if n < 2 or n % 2 == 0:
        raise ValueError("unsupported regime: parity marginals need odd n >= 3")
    b = _index(b, "b")
    els = [parity_displacement(PhasePoint(n, a, b)) for a in range(n)]
    return _hw_sum(els, MOMENTUM)[_dilation(n, -1)]


def momentum_pairing(gt: np.ndarray, m: np.ndarray, ft: np.ndarray) -> complex:
    """(g~, M f~) with the counting measure on the momentum side."""
    return complex(np.vdot(gt, m @ ft))


# ---------------------------------------------------------------------------
# CRT tensor factorization
# ---------------------------------------------------------------------------


_FACTOR_TOL = 1e-12  # relative rank-one residual accepted as a product


def _decompose_array(a: np.ndarray) -> list[tuple[complex, list[np.ndarray]]]:
    if a.ndim == 1:
        return [(1.0 + 0j, [a.copy()])]
    m = a.reshape(a.shape[0], -1)
    scale = np.max(np.abs(m))
    if scale == 0.0:
        return []
    i0, j0 = np.unravel_index(np.argmax(np.abs(m)), m.shape)
    u = m[:, j0]
    v = m[i0, :] / m[i0, j0]
    if np.max(np.abs(m - np.outer(u, v))) <= _FACTOR_TOL * scale:
        rest = _decompose_array(v.reshape(a.shape[1:]))
        return [(c, [u] + vecs) for c, vecs in rest]
    out = []
    basis = np.eye(a.shape[0])
    for i in range(a.shape[0]):
        sub = a[i]
        if np.max(np.abs(sub)) == 0.0:
            continue
        for c, vecs in _decompose_array(sub):
            out.append((c, [basis[i].astype(complex)] + vecs))
    return out


def tensor_factor(f: FiniteState) -> list[tuple[complex, dict[int, FiniteState]]]:
    """Write f as a sum of product states over the prime-power components.

    Position indices split by the mu map, momentum indices by the nu-hat map.
    A product state comes back as a single term (factors up to scalar); the
    general fallback is the exact basis-slice decomposition with rank <= n.
    """
    factors = crt_idempotents(f.n)
    src, dims = _flat_indices(f.n, f.rep)
    a = np.zeros(dims, dtype=complex)
    a.flat[src] = f.amplitudes
    terms = []
    for coeff, vecs in _decompose_array(a):
        terms.append(
            (
                coeff,
                {
                    fac.p: FiniteState(fac.q, f.rep, vec)
                    for fac, vec in zip(factors, vecs)
                },
            )
        )
    return terms


def tensor_join(
    terms: list[tuple[complex, dict[int, FiniteState]]], n: int, rep: str
) -> FiniteState:
    factors = crt_idempotents(n)
    dims = tuple(f.q for f in factors)
    a = np.zeros(dims, dtype=complex)
    for coeff, parts in terms:
        cur = np.asarray(coeff, dtype=complex)
        for fac in factors:
            st = parts[fac.p]
            if st.n != fac.q or st.rep != rep:
                raise ValueError("factor does not match the prime-power component")
            cur = np.multiply.outer(cur, st.amplitudes)
        a = a + cur
    src, _ = _flat_indices(n, rep)
    return FiniteState(n, rep, a.flat[src].copy())

