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
Q/Z, and every phase is reduced mod 1 in integers before it becomes a float
angle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numbers import (
    RatMod1,
    ZERO_MOD1,
    crt_idempotents,
    crt_split_mu,
    crt_split_nu_hat,
    rat_decompose,
)

_TWO_PI = 2.0 * math.pi


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
        if self.n < 1:
            raise ValueError(f"n={self.n} must be >= 1")
        if self.rep not in (POSITION, MOMENTUM):
            raise ValueError(f"unknown rep {self.rep!r}")
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex)
        if self.amplitudes.shape != (self.n,):
            raise ValueError("amplitude length does not match n")

    @property
    def measure_weight(self) -> float:
        return 1.0 / self.n if self.rep == POSITION else 1.0


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


def fourier(f: FiniteState) -> FiniteState:
    """Apply the Fourier operator: forward kernel, source measure, tag flip."""
    return FiniteState(
        f.n,
        MOMENTUM if f.rep == POSITION else POSITION,
        f.measure_weight * np.fft.fft(f.amplitudes),
    )


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
    return FiniteState(f.n, MOMENTUM, np.fft.fft(f.amplitudes) / f.n)


def to_position(f: FiniteState) -> FiniteState:
    """Coordinate change: the position-side values of the same state."""
    if f.rep == POSITION:
        return f
    return FiniteState(f.n, POSITION, f.n * np.fft.ifft(f.amplitudes))


def extend(f: FiniteState, ell: int) -> FiniteState:
    """The isometric embedding Z(n) -> Z(ell), n | ell: position values extend
    periodically, momentum values move from P to (ell/n) P with zero padding."""
    if ell % f.n:
        raise ValueError(f"{f.n} does not divide {ell}")
    if f.rep == POSITION:
        return FiniteState(ell, POSITION, np.tile(f.amplitudes, ell // f.n))
    out = np.zeros(ell, dtype=complex)
    out[:: ell // f.n] = f.amplitudes
    return FiniteState(ell, MOMENTUM, out)


def fourier_matrix(n: int) -> np.ndarray:
    """The fixed-representation unitary of the Fourier operator.

    Applying this to position values gives sqrt(n) times the values that
    ``fourier`` stores on the momentum side (the measure retag factor).
    This dense n x n matrix is the oracle the FFT paths are checked against.
    """
    j = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(j, j) / n) / math.sqrt(n)


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


def fourier_good(f: FiniteState) -> FiniteState:
    """Good's prime-factor transform: CRT index remaps, per-prime-power FFTs."""
    if len(crt_idempotents(f.n)) == 1:
        return fourier(f)
    other = MOMENTUM if f.rep == POSITION else POSITION
    src, dims = _flat_indices(f.n, f.rep)
    dst, _ = _flat_indices(f.n, other)
    a = np.zeros(dims, dtype=complex)
    a.flat[src] = f.amplitudes
    a = f.measure_weight * np.fft.fftn(a)
    return FiniteState(f.n, other, a.flat[dst])


# ---------------------------------------------------------------------------
# The Heisenberg-Weyl group on Z(n)
# ---------------------------------------------------------------------------


def _chi_coeff(n: int) -> int:
    """c with position phase chi(2 a x) = omega_n(c alpha x): 2 odd, 1 even."""
    return 2 if n % 2 else 1


@dataclass(frozen=True)
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
        if self.n < 2:
            raise ValueError("n must be >= 2")
        if not (0 <= self.alpha < self.n and 0 <= self.beta < self.n):
            raise ValueError("alpha, beta must be canonical residues in [0, n)")

    @classmethod
    def from_canonical(cls, n: int, alpha: int, beta: int, gamma: int) -> "HWElement":
        alpha, beta, gamma = alpha % n, beta % n, gamma % n
        phase = RatMod1.of(2 * gamma - _chi_coeff(n) * alpha * beta, 2 * n)
        return cls(n, alpha, beta, phase)

    @classmethod
    def from_phase_space(
        cls, n: int, a: RatMod1, b: int, c: RatMod1 = ZERO_MOD1
    ) -> "HWElement":
        """Build from continuum data (a, b, c); requires 2a on the 1/n grid."""
        r, rem = divmod(2 * n * a.numerator, a.denominator)
        if rem:
            raise ValueError(f"a={a} does not displace the Z({n}) momentum grid")
        alpha = r * pow(_chi_coeff(n), -1, n) % n
        return cls(n, alpha, b % n, c - a.scaled(b))

    @property
    def frak_a(self) -> RatMod1:
        """The continuum label a in Q/Z (alpha/n odd, alpha/(2n) even)."""
        return RatMod1.of(_chi_coeff(self.n) * self.alpha, 2 * self.n)

    @property
    def frak_c(self) -> RatMod1:
        """The continuum label c in Q/Z (phase = c - a b)."""
        return self.phase + self.frak_a.scaled(self.beta)


def hw_identity(n: int) -> HWElement:
    return HWElement(n, 0, 0)


def hw_mul(d1: HWElement, d2: HWElement) -> HWElement:
    """Group law (a,b,c)(a',b',c') = (a+a', b+b', c+c'+ab'-a'b), exactly."""
    if d1.n != d2.n:
        raise ValueError("dimension mismatch")
    n, c = d1.n, _chi_coeff(d1.n)
    cross = RatMod1.of(c * d2.alpha * d1.beta, n)
    return HWElement(
        n,
        (d1.alpha + d2.alpha) % n,
        (d1.beta + d2.beta) % n,
        d1.phase + d2.phase - cross,
    )


def hw_adjoint(d: HWElement) -> HWElement:
    """The adjoint D(-a, -b, -c); also the group inverse."""
    n, c = d.n, _chi_coeff(d.n)
    t = RatMod1.of(c * d.alpha * d.beta, n)
    return HWElement(n, (-d.alpha) % n, (-d.beta) % n, -d.phase - t)


def hw_scalar_mul(d: HWElement, q: RatMod1) -> HWElement:
    """Multiply the operator by the scalar e(q)."""
    return HWElement(d.n, d.alpha, d.beta, d.phase + q)


def hw_x(n: int) -> HWElement:
    return HWElement.from_canonical(n, 0, 1, 0)


def hw_z(n: int) -> HWElement:
    return HWElement.from_canonical(n, pow(_chi_coeff(n), -1, n), 0, 0)


def _displacement_action(
    n: int, alpha, beta, phase, rep: str
) -> tuple[np.ndarray, np.ndarray]:
    """(phases, src) with (D f)(x) = phases[..., x] f(src[..., x]) on the rep's
    values, for D = e(phase) D(alpha, beta): alpha, beta are ints and phase
    is in turns, each a scalar or a (k, 1) column for k elements at once.
    The x-dependent exponents are reduced mod n in integers before the float."""
    c = _chi_coeff(n)
    x = np.arange(n)
    if rep == POSITION:
        src, turns = (x - beta) % n, c * alpha % n * x % n
    else:
        src = (x - c * alpha) % n
        turns = -(beta * src % n)
    return np.exp(1j * (_TWO_PI * (phase + turns / n))), src


def _turns(q: RatMod1) -> float:
    return q.numerator / q.denominator


def displace(d: HWElement, f: FiniteState) -> FiniteState:
    if d.n != f.n:
        raise ValueError("dimension mismatch")
    phases, src = _displacement_action(d.n, d.alpha, d.beta, _turns(d.phase), f.rep)
    return FiniteState(d.n, f.rep, phases * f.amplitudes[src])


def hw_matrix(d: HWElement, rep: str = POSITION) -> np.ndarray:
    phases, src = _displacement_action(d.n, d.alpha, d.beta, _turns(d.phase), rep)
    m = np.zeros((d.n, d.n), dtype=complex)
    m[np.arange(d.n), src] = phases
    return m


def _hw_matrices(elements, rep: str = POSITION) -> np.ndarray:
    """``hw_matrix`` of each element, all of one n, as one (k, n, n) stack."""
    n = elements[0].n
    if any(d.n != n for d in elements):
        raise ValueError("dimension mismatch")
    alpha, beta, phase = (
        np.array(col)[:, None]
        for col in zip(*((d.alpha, d.beta, _turns(d.phase)) for d in elements))
    )
    phases, src = _displacement_action(n, alpha, beta, phase, rep)
    m = np.zeros((len(elements), n, n), dtype=complex)
    m[np.arange(len(elements))[:, None], np.arange(n), src] = phases
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
        if self.doubled and self.n % 2:
            raise ValueError("doubled grid applies to even n only")
        mod_a = 2 * self.n if self.doubled else self.n
        if not (0 <= self.a < mod_a and 0 <= self.b < self.n):
            raise ValueError("phase point out of range")

    @property
    def frak_a(self) -> RatMod1:
        """c a/(2n), over 4n on the doubled grid."""
        return RatMod1.of(_chi_coeff(self.n) * self.a, (4 if self.doubled else 2) * self.n)

    def canonical(self) -> "PhasePoint":
        """Reduce the a-index by the exact quarter period when one exists."""
        q = parity_quarter_period(self.n, self.doubled)
        if q is None:
            return self
        return PhasePoint(self.n, self.a % q, self.b, self.doubled)


def parity_quarter_period(n: int, doubled: bool = False) -> int | None:
    """The a-index shift equal to 1/4 in Q/Z, when it lies on the grid."""
    if n % 2:
        return None  # 1/4 is not a multiple of 1/n for odd n
    return n if doubled else n // 2


def parity_displacement(pt: PhasePoint) -> HWElement:
    """The element D(2a, 2b, 0) whose composition with F^2 is the parity."""
    return HWElement.from_phase_space(pt.n, pt.frak_a.scaled(2), 2 * pt.b)


def parity_apply(pt: PhasePoint, f: FiniteState) -> FiniteState:
    if pt.n != f.n:
        raise ValueError("dimension mismatch")
    return reflect(displace(parity_displacement(pt), f))


def parity_matrix(pt: PhasePoint, rep: str = POSITION) -> np.ndarray:
    """The matrix of x |-> -x applied after D(2a, 2b, 0): its rows reversed mod n."""
    return hw_matrix(parity_displacement(pt), rep)[_dilation(pt.n, -1)]


def weyl_wigner(
    f: FiniteState, a: int, b: int, kind: str, doubled: bool = False
) -> complex:
    """The Weyl function (f, D(a,b,0) f) or the Wigner function (f, P(a,b) f).

    One point at a time; ``wigner_table`` gives the whole table and this is
    its oracle.
    """
    if kind == "weyl":
        return inner(f, displace(HWElement.from_canonical(f.n, a, b, 0), f))
    if kind == "wigner":
        return inner(f, parity_apply(PhasePoint(f.n, a, b, doubled), f))
    raise ValueError(f"unknown kind {kind!r}")


def _shift_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(x, x - b) mod n as [b, x] arrays: D(a, b, 0) lives on these entries."""
    x = np.arange(n)
    return np.broadcast_to(x, (n, n)), (x - x[:, None]) % n


def _reflect_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(-y - b, y - b) mod n as [b, y] arrays: P(a, b)^T lives on these entries."""
    y = np.arange(n)
    return (-y - y[:, None]) % n, (y - y[:, None]) % n


def _displacement_phases(n: int) -> np.ndarray:
    """e(s_ab) as an [a, b] array, with the scalar exponent s_ab = -c ab/(2n)
    of D(a, b, 0) reduced exactly before the float."""
    j = np.arange(n)
    return np.exp(2j * np.pi * ((-_chi_coeff(n) * j[:, None] * j) % (2 * n)) / (2 * n))


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
    return diag[:, ka].T


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


def _displacement_grid(n: int) -> list[list[np.ndarray]]:
    """The n x n grid of D(a, b, 0) position matrices, built point by point.

    The brute-force reference for the tomography sums: it holds n^4 values,
    so it is for small n only.
    """
    return [
        [hw_matrix(HWElement.from_canonical(n, a, b, 0)) for b in range(n)]
        for a in range(n)
    ]


def _character_sum(n: int, k: int, length: int) -> np.ndarray:
    """sum_{a < length} e(k a d / n) for each d in Z(n), by one FFT over a.

    ``length`` is a multiple of n: n, or 2n on the doubled parity grid.
    """
    return np.fft.fft(np.ones(length))[_dilation(length, -k * (length // n), n)]


def resolution_identity_check(theta) -> float:
    """Residual of (1/n) sum_{a,b} D theta D^dagger = tr(theta) 1.

    Entry [x, y] of D(a,b,0) theta D(a,b,0)^dagger is
    e(c a (x - y)/n) theta[x - b, y - b], so entry [x, y] of the sum is
    (1/n) A(x - y) S(x - y) with A(d) = sum_a e(c a d/n) and
    S(d) = sum_z theta[z, z - d]: it depends on x - y only.
    """
    theta = _square_operator(theta)
    n = theta.shape[0]
    rows, cols = _shift_indices(n)
    s = theta[rows, cols].sum(axis=1)  # S(d), d = b
    acc = _character_sum(n, _chi_coeff(n), n) * s / n
    acc[0] -= np.trace(theta)
    return float(np.max(np.abs(acc)))


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
    theta = _square_operator(theta)
    n = theta.shape[0]
    rows, cols = _shift_indices(n)
    diag = theta[rows, cols]  # [b, x] = theta[x, x - b]
    ca = _dilation(n, _chi_coeff(n))
    phases = _displacement_phases(n)
    coeffs = phases.conj() * np.fft.fft(diag, axis=1)[:, ca].T
    # recon[x, x - b] = (1/n) sum_a coeffs[a, b] e(s_ab + c a x/n)
    spectrum = np.empty((n, n), dtype=complex)
    spectrum[:, ca] = (coeffs * phases).T
    recon = np.fft.ifft(spectrum, axis=1)
    return coeffs, float(np.max(np.abs(recon - diag)))


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
    n = g.n
    k = _chi_coeff(n) if g.rep == POSITION else -1
    spectrum = np.fft.fft(g.amplitudes)
    r = np.fft.ifft(spectrum * spectrum.conj())  # r(d) = sum_z g(z + d) g*(z)
    acc = _character_sum(n, k, n) * r * (g.measure_weight / n)
    acc[0] -= 1.0
    return float(np.max(np.abs(acc)))


@dataclass(frozen=True)
class ParityCheckResult:
    expansion_residual: float  # parity as character-weighted displacement sum
    sandwich_residual: float  # sum P theta P = tr(theta) 1
    tomography_residual: float  # theta = (1/n) sum P tr(theta P)


def _parity_expansion_residual(n: int) -> float:
    """Max gap of P(a, b) = (1/n) sum_{a',b'} omega_n(2(a'b - ab')) D(a',b',0), odd n.

    Entry [x, x - b'] of the sum is
    (1/n) e(-2ab'/n) sum_{a'} e(s_{a'b'} + 2a'(b + x)/n): one inverse FFT over
    a' per b', shared by every (a, b).  The n^2 matrices are compared in a
    loop over a, in O(n^3) memory.
    """
    j = np.arange(n)
    b, x = j[:, None], j[None, :]
    spectrum = np.fft.ifft(_displacement_phases(n), axis=0)  # [m, b']
    terms = spectrum[(2 * (b + x)) % n]  # [b, x, b'] up to e(-2ab'/n)
    worst = 0.0
    for a in range(n):
        gap = np.exp(-2j * np.pi * ((2 * a * j) % n) / n) * terms
        # P(a, b) holds e(-4a(x + b)/n) at [x, -x - 2b], i.e. b' = 2(x + b)
        gap[b, x, (2 * (b + x)) % n] -= np.exp(-2j * np.pi * ((4 * a * (b + x)) % n) / n)
        worst = np.maximum(worst, np.max(np.abs(gap)))  # a NaN gap stays
    return float(worst)


def parity_expand_check(theta, exploratory: bool = False) -> ParityCheckResult:
    """Finite analogs of the parity identities; guaranteed for odd n.

    For even n the doubled-grid variants are exploratory and only run when
    ``exploratory`` is set; residuals are then reported without any claim.

    P(a, b) holds e(-k a (x + b)/n) at [x, -x - 2b], so entry [x, y] of
    sum P theta P is A(x - y) sum_b theta[-x - 2b, -y - 2b] with
    A(d) = sum_a e(-k a d/n); tr(theta P(a, b)) is an FFT over y of
    theta[-y - b, y - b]; and the tomography sum at [y - b, -y - b] is an FFT
    over a of those traces.
    """
    theta = _square_operator(theta)
    n = theta.shape[0]
    if n % 2 == 0 and not exploratory:
        raise ValueError("unsupported regime: even n needs exploratory=True")
    doubled = n % 2 == 0
    a_range = 2 * n if doubled else n
    k = _parity_k(n, doubled)
    expansion = 0.0 if doubled else _parity_expansion_residual(n)
    j = np.arange(n)

    # 2b runs g = gcd(2, n) times over the residues = 0 mod g, so entry
    # [x, x + d] of the sum over b depends on x mod g and d only
    g = 2 if doubled else 1
    diag = theta[(-j[:, None]) % n, (-j[:, None] - j) % n]  # [z, d] = theta[-z, -z - d]
    per_class = g * diag.reshape(n // g, g, n).sum(axis=0)  # [x mod g, d]
    sandwich = _character_sum(n, -k, a_range)[_dilation(n, -1)] * per_class / a_range
    sandwich[:, 0] -= np.trace(theta)

    rows, cols = _reflect_indices(n)
    traces = np.fft.fft(theta[rows, cols], axis=1)[:, _dilation(n, k, a_range)]
    # sum_a e(-k a y/n) tr(theta P(a, b)), the entry at [y - b, -y - b]
    weights = np.fft.fft(traces, axis=1)[:, _dilation(a_range, k * (a_range // n), n)]
    tomo = -theta.copy()
    np.add.at(tomo, (cols, rows), weights / a_range)
    return ParityCheckResult(
        expansion, float(np.max(np.abs(sandwich))), float(np.max(np.abs(tomo)))
    )


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
    b_range = n if n % 2 else 2 * n
    frak_a = RatMod1.of(a, b_range)
    return sum(
        hw_matrix(HWElement.from_phase_space(n, frak_a, b), MOMENTUM)
        for b in range(b_range)
    ) / b_range


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
    if n % 2:
        return sum(
            hw_matrix(HWElement.from_canonical(n, a, b, 0), MOMENTUM) for a in range(n)
        )
    p = np.arange(n)
    return np.exp(-2j * np.pi * b * (p[:, None] + p[None, :]) / (2 * n))


def marginal_b_expected(
    g_pos: np.ndarray, f_pos: np.ndarray, gt: np.ndarray, ft: np.ndarray, b: int
) -> complex:
    """[g(b/2)]* f(-b/2), through the hat transform when n is even."""
    n = len(ft)
    if n % 2:
        inv2 = pow(2, -1, n)
        return g_pos[(inv2 * b) % n].conjugate() * f_pos[(-inv2 * b) % n]
    gh = _hat_values(gt)
    fh = _hat_values(ft)
    return gh[b % (2 * n)].conjugate() * fh[(-b) % (2 * n)]


def parity_marginal_a_matrix(n: int, a: int) -> np.ndarray:
    """cal-A(a) = (1/n) sum_b P(a, b), momentum representation (odd n)."""
    if n % 2 == 0:
        raise ValueError("unsupported regime: parity marginals need odd n")
    acc = np.zeros((n, n), dtype=complex)
    for b in range(n):
        acc += parity_matrix(PhasePoint(n, a, b), MOMENTUM)
    return acc / n


def parity_marginal_b_matrix(n: int, b: int) -> np.ndarray:
    """cal-B(b) = sum_a P(a, b), momentum representation (odd n)."""
    if n % 2 == 0:
        raise ValueError("unsupported regime: parity marginals need odd n")
    acc = np.zeros((n, n), dtype=complex)
    for a in range(n):
        acc += parity_matrix(PhasePoint(n, a, b), MOMENTUM)
    return acc


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


def hw_factor(d: HWElement) -> dict[int, HWElement]:
    """Factor D on Z(n) into prime-power displacement operators.

    The continuum labels a and c split by exact partial fractions, the
    position shift b by reduction; the per-prime scalar phases absorb the
    half-phase bookkeeping so the matrix identity is exact.
    """
    factors = crt_idempotents(d.n)
    a_parts = rat_decompose(d.frak_a)
    c_parts = rat_decompose(d.frak_c)
    out = {}
    covered = ZERO_MOD1
    for fac in factors:
        ap = a_parts.get(fac.p)
        cp = c_parts.get(fac.p)
        c_local = cp.as_ratmod1 if cp is not None else ZERO_MOD1
        covered = covered + c_local
        out[fac.p] = HWElement.from_phase_space(
            fac.q,
            ap.as_ratmod1 if ap is not None else ZERO_MOD1,
            d.beta,
            c_local,
        )
    # scalar phase supported away from the primes of n rides on one factor
    extra = d.frak_c - covered
    if extra:
        p0 = factors[0].p
        out[p0] = hw_scalar_mul(out[p0], extra)
    return out

