"""Balanced two-branch superpositions of n coherent modes and their
two-qubit pictures.

The superposition of |z>^n with |-z>^n (relative sign +1 or -1, called
even or odd parity here) is controlled by the overlap p = <z|-z>, the
parity and the mode count n.  Two qubit pictures are realized: splitting
the n modes into blocks of k and n - k gives a pure two-logical-qubit
state, while tracing out all but the first two modes gives a rank-two
X-shaped density matrix.  Both carry an independent numerical oracle: the
explicit 2^n expansion of the state in the logical product basis.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .coherent import Overlap
from .errors import DomainError, _is_whole

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_TOL = 1e-10
X_STRUCTURE_TOL = 1e-12
MAX_VECTOR_MODES = 12

PAULI = (
    np.eye(2, dtype=complex),
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)
# _PAULI_PAIRS[a, b] = sigma_a x sigma_b
_PAULI_PAIRS = np.array([[np.kron(pa, pb) for pb in PAULI] for pa in PAULI])
# the entries off the main and anti diagonals, which an X state leaves empty
_OFF_X = np.array([[0, 1, 1, 0], [1, 0, 0, 1], [1, 0, 0, 1], [0, 1, 1, 0]], dtype=bool)
_OFF_X.flags.writeable = False


class Parity(Enum):
    """Relative sign between the two branches of the superposition."""

    EVEN = "even"
    ODD = "odd"

    @property
    def sign(self) -> int:
        return 1 if self is Parity.EVEN else -1


@dataclass(frozen=True)
class SuperpositionSpec:
    """Parameters of the balanced superposition: overlap p in [0, 1],
    branch parity and mode count n >= 2.

    p = 1 with odd parity is the p -> 1 limit of the odd branch, the
    shared-single-excitation (W-type) state: the superposition vector
    itself vanishes there, but every closed form is continuous and takes
    its limit value (`werner_discord` gives the pair discord explicitly).
    """

    p: float
    parity: Parity
    n: int

    def __post_init__(self) -> None:
        if not 0.0 <= self.p <= 1.0:
            raise DomainError(f"overlap must lie in [0, 1], got {self.p}")
        if not isinstance(self.parity, Parity):
            raise DomainError(f"parity must be a Parity, got {self.parity!r}")
        _check_mode_count(self.n)
        if not isinstance(self.n, int):
            object.__setattr__(self, "n", int(self.n))

    @classmethod
    def from_overlap(cls, overlap: Overlap, parity: Parity, n: int) -> "SuperpositionSpec":
        return cls(overlap.value, parity, n)

    @property
    def q(self) -> float:
        """Cross-branch weight p^(n-2) left after tracing out n - 2 modes."""
        return self.p ** (self.n - 2)


def _check_mode_count(n) -> None:
    """Refuse n unless it is a whole number from 2 to the largest float:
    the closed forms take float(n) and p ** n."""
    if not _is_whole(n) or n < 2:
        raise DomainError(f"mode count must be an integer >= 2, got {n}")
    if n > sys.float_info.max:
        raise DomainError(f"mode count must be at most {sys.float_info.max}, got {n}")


def _block_weights(p: float, size: int) -> tuple[float, float]:
    pl = p**size
    return math.sqrt((1.0 + pl) / 2.0), math.sqrt((1.0 - pl) / 2.0)


@dataclass(frozen=True)
class PureBipartition:
    """Two-logical-qubit amplitudes of the k|(n-k) block splitting.

    Even parity populates |00> and |11>, odd parity |01> and |10>.
    """

    c00: float
    c01: float
    c10: float
    c11: float


def pure_bipartition(spec: SuperpositionSpec, k: int) -> PureBipartition:
    """Write the superposition as two logical qubits of k and n - k modes.

    With block weights a_l = sqrt((1 + p^l)/2), b_l = sqrt((1 - p^l)/2),
    the even amplitudes are 2 N a_k a_(n-k) and 2 N b_k b_(n-k).  The odd
    ones, 2 N a_k b_(n-k) and 2 N a_(n-k) b_k, are written as
    a_k sqrt(R(n-k)) and a_(n-k) sqrt(R(k)) with R(m) = (1 - p^m)/(1 - p^n),
    which stays accurate as p -> 1 where b and N^-1 both vanish.
    """
    if not _is_whole(k) or not 1 <= k <= spec.n - 1:
        raise DomainError(f"block size must satisfy 1 <= k <= n-1, got k={k}, n={spec.n}")
    return PureBipartition(*_pure_amplitudes(spec.p, spec.n, spec.parity.sign, int(k)))


def _pure_amplitudes(p: float, n: int, sign: int, k: int) -> tuple[float, float, float, float]:
    """(c00, c01, c10, c11) of `pure_bipartition` for a valid (p, n, sign, k)."""
    a_k, b_k = _block_weights(p, k)
    a_r, b_r = _block_weights(p, n - k)
    if sign == 1:
        norm = 2.0 / math.sqrt(2.0 + 2.0 * p**n)  # twice the prefactor 1/sqrt(2 + 2 p^n)
        return norm * a_k * a_r, 0.0, 0.0, norm * b_k * b_r
    c01 = a_k * math.sqrt(_pow_ratio(p, n - k, n))
    return 0.0, c01, a_r * math.sqrt(_pow_ratio(p, k, n)), 0.0


def _density_spectrum(m: np.ndarray) -> np.ndarray:
    """Eigenvalues (`eigvalsh`) of the square complex matrix m, once it
    passes as a density matrix: finite entries, Hermitian within
    HERMITICITY_TOL, unit trace within TRACE_TOL and no eigenvalue below
    -PSD_TOL."""
    # every check below is a comparison, which a NaN entry would pass
    if not np.isfinite(m).all():
        raise DomainError("density matrix has a non-finite entry")
    if np.max(np.abs(m - m.conj().T)) > HERMITICITY_TOL:
        raise DomainError("density matrix must be Hermitian")
    tr = m.trace()
    if abs(tr - 1.0) > TRACE_TOL:
        raise DomainError(f"density matrix must have unit trace, got {tr}")
    vals = np.linalg.eigvalsh(m)
    if vals.min() < -PSD_TOL:
        raise DomainError("density matrix has a negative eigenvalue beyond tolerance")
    return vals


@dataclass(frozen=True, eq=False)
class TwoQubitState:
    """A validated two-qubit density matrix, basis (|00>, |01>, |10>, |11>).

    Construction enforces finite entries, Hermiticity and unit trace to
    1e-12 and positive semidefiniteness to -1e-10, and keeps the
    eigenvalues that check computed: `matrix` and `spectrum` (ascending,
    from `np.linalg.eigvalsh`) are stored read-only, and every entropy of
    the state reads `spectrum`.
    """

    matrix: np.ndarray
    spectrum: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        m = np.array(self.matrix, dtype=complex)
        if m.shape != (4, 4):
            raise DomainError(f"expected a 4x4 matrix, got shape {m.shape}")
        vals = _density_spectrum(m)
        m.setflags(write=False)
        vals.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "spectrum", vals)

    @property
    def is_x(self) -> bool:
        """True when only the main and anti diagonals are populated."""
        return bool(np.max(np.abs(self.matrix[_OFF_X])) <= X_STRUCTURE_TOL)


def superposition_vector(spec: SuperpositionSpec) -> np.ndarray:
    """Expand the superposition in the 2^n logical product basis.

    Per mode, |z> maps to a|0> + b|1> and |-z> to a|0> - b|1> with
    a = sqrt((1+p)/2), b = sqrt((1-p)/2); the amplitude of a basis label
    is then fixed by its bit weight.  The vector is divided by its own
    2-norm, so this oracle shares no normalization with the closed forms.
    Meant as a desk-scale oracle, so n is capped at MAX_VECTOR_MODES.
    """
    if spec.n > MAX_VECTOR_MODES:
        raise DomainError(f"explicit expansion capped at {MAX_VECTOR_MODES} modes, got n={spec.n}")
    n = spec.n
    a = math.sqrt((1.0 + spec.p) / 2.0)
    b = math.sqrt((1.0 - spec.p) / 2.0)
    sign = spec.parity.sign
    amps = np.zeros(2**n)
    for idx in range(2**n):
        w = idx.bit_count()
        amps[idx] = a ** (n - w) * b**w * (1 + sign * (-1) ** w)
    norm = np.linalg.norm(amps)
    if norm == 0.0:
        raise DomainError("the odd superposition vanishes at p = 1 and cannot be normalized")
    return amps / norm


def partial_trace_pair(state_vector: np.ndarray) -> TwoQubitState:
    """Reduce a pure 2^n-mode state to its first two modes."""
    psi = np.asarray(state_vector, dtype=complex).ravel()
    # a power of two has a single bit set
    if psi.size < 4 or psi.size & (psi.size - 1):
        raise DomainError(f"state vector length {psi.size} is not 2^n with n >= 2")
    block = psi.reshape(4, -1)
    return TwoQubitState(block @ block.conj().T)


def _pow_ratio(p: float, m: float, n: float) -> float:
    """(1 - p^m) / (1 - p^n), evaluated without cancellation as p -> 1,
    where both factors vanish, with limit m/n at p = 1."""
    if p == 0.0:
        return 0.0 if m == 0 else 1.0  # p^0 = 1 even at p = 0
    if p == 1.0:
        return m / n
    lp = math.log(p)
    return math.expm1(m * lp) / math.expm1(n * lp)


def _pair_block(p: float, m: float, sign: int) -> tuple[float, float, float, float, float]:
    """Two single modes of the superposition after tracing out a block of
    m other modes: the distinct X entries (rho00, rho33, rho03, rho11) of
    the pair, with rho11 = rho22 = rho12 and every other entry zero, and
    the concurrence between the second mode and the traced block.

    With a^2 = (1+p)/2, b^2 = (1-p)/2, a_m^2 = (1+p^m)/2, b_m^2 = (1-p^m)/2,
    branch sign s and w = (1 + s p^m)/(1 + s p^(m+2)), the even block
    (rho00, rho33, rho03) is (a^4, b^4, a^2 b^2) w and
    rho11 = (1 - s p^m)(1 - s p)/4 * (1 + s p)/(1 + s p^(m+2)).  The block
    purifies the rank-two pair, so by Koashi-Winter the least conditional
    entropy of the second mode, after a measurement on the first, is the
    entanglement of formation of the second mode against the block, whose
    concurrence is 4 p a b a_m b_m / (1 + s p^(m+2)) = 2 p sqrt(rho11 w).
    Every closed form of the pair derives from these five numbers; the odd
    ratios, whose factors vanish as p -> 1, go through `_pow_ratio`.
    """
    a2 = (1.0 + p) / 2.0
    b2 = (1.0 - p) / 2.0
    if sign == 1:
        p_m, p_n = p**m, p ** (m + 2)
        outer = (1.0 + p_m) / (1.0 + p_n)
        one_exc = 0.25 * (1.0 - p_m) * (1.0 - p) * ((1.0 + p) / (1.0 + p_n))
    else:
        outer = _pow_ratio(p, m, m + 2)
        one_exc = 0.25 * (1.0 + p**m) * (1.0 + p) * _pow_ratio(p, 1, m + 2)
    kw_conc = 2.0 * p * math.sqrt(one_exc * outer)
    return outer * a2 * a2, outer * b2 * b2, outer * a2 * b2, one_exc, kw_conc


def reduced_rho12(spec: SuperpositionSpec) -> TwoQubitState:
    """Closed-form reduction to the first two modes: a rank-two X state
    with the entries of `_pair_block`."""
    r00, r33, r03, r11, _ = _pair_block(spec.p, spec.n - 2, spec.parity.sign)
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = r00
    m[3, 3] = r33
    m[0, 3] = m[3, 0] = r03
    m[1, 1] = m[2, 2] = m[1, 2] = m[2, 1] = r11
    return TwoQubitState(m)


def bloch_matrix(state: TwoQubitState) -> np.ndarray:
    """Pauli-pair expectation table R[a, b] = Tr[rho (sigma_a x sigma_b)]
    of a two-qubit state, as a read-only real 4x4 array.

    R[0, 0] = 1 for a unit-trace state; the density matrix is recovered as
    rho = (1/4) sum_ab R[a, b] sigma_a x sigma_b.
    """
    products = state.matrix @ _PAULI_PAIRS.reshape(16, 4, 4)
    table = np.trace(products, axis1=1, axis2=2).real.reshape(4, 4).copy()
    table.setflags(write=False)
    return table


def marginals(state: TwoQubitState) -> tuple[np.ndarray, np.ndarray]:
    """Single-mode reduced density matrices (first mode, second mode)."""
    m = state.matrix.reshape(2, 2, 2, 2)
    return np.einsum("ikjk->ij", m), np.einsum("kikj->ij", m)
