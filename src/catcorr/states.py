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
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .coherent import AlgebraSpec, Overlap
from .errors import DomainError, WernerLimitRequired

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_TOL = 1e-10
X_STRUCTURE_TOL = 1e-12

PAULI = (
    np.eye(2, dtype=complex),
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)
# _PAULI_PAIRS[a, b] = sigma_a x sigma_b
_PAULI_PAIRS = np.array([[np.kron(pa, pb) for pb in PAULI] for pa in PAULI])


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
    branch parity and mode count n >= 2, with optional provenance of p.

    p = 1 with odd parity is degenerate (the branches cancel); that limit
    is served by `werner_limit_state` and `werner_discord` instead.
    """

    p: float
    parity: Parity
    n: int
    algebra: AlgebraSpec | None = None
    z: complex | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.p <= 1.0:
            raise DomainError(f"overlap must lie in [0, 1], got {self.p}")
        if not isinstance(self.parity, Parity):
            raise DomainError(f"parity must be a Parity, got {self.parity!r}")
        try:
            whole = self.n == int(self.n)
        except (TypeError, ValueError, OverflowError):  # NaN, +-inf, not a number
            whole = False
        if not whole or self.n < 2:
            raise DomainError(f"mode count must be an integer >= 2, got {self.n}")
        if not isinstance(self.n, int):
            object.__setattr__(self, "n", int(self.n))
        if self.p == 1.0 and self.parity is Parity.ODD:
            raise WernerLimitRequired(
                "overlap 1 with odd parity is degenerate; use werner_limit_state(n) "
                "or werner_discord(n) for this limit"
            )

    @classmethod
    def from_overlap(cls, overlap: Overlap, parity: Parity, n: int) -> "SuperpositionSpec":
        return cls(overlap.value, parity, n, algebra=overlap.algebra, z=overlap.z)

    @property
    def branch_sign(self) -> int:
        return self.parity.sign

    @property
    def q(self) -> float:
        """Cross-branch weight p^(n-2) left after tracing out n - 2 modes."""
        return self.p ** (self.n - 2)


def normalization(spec: SuperpositionSpec) -> float:
    """Normalization prefactor [2 + 2 p^n sign]^(-1/2) of the superposition."""
    return 1.0 / math.sqrt(2.0 + 2.0 * spec.p**spec.n * spec.branch_sign)


def _block_weights(p: float, size: int) -> tuple[float, float]:
    pl = p**size
    return math.sqrt((1.0 + pl) / 2.0), math.sqrt((1.0 - pl) / 2.0)


@dataclass(frozen=True)
class PureBipartition:
    """Two-logical-qubit amplitudes of the k|(n-k) block splitting.

    Even parity populates |00> and |11>, odd parity |01> and |10>.
    """

    k: int
    n: int
    c00: float
    c01: float
    c10: float
    c11: float

    def amplitudes(self) -> np.ndarray:
        """Amplitudes ordered (|00>, |01>, |10>, |11>)."""
        return np.array([self.c00, self.c01, self.c10, self.c11])


def pure_bipartition(spec: SuperpositionSpec, k: int) -> PureBipartition:
    """Write the superposition as two logical qubits of k and n - k modes.

    With block weights a_l = sqrt((1 + p^l)/2), b_l = sqrt((1 - p^l)/2),
    the even amplitudes are 2 N a_k a_(n-k) and 2 N b_k b_(n-k).  The odd
    ones, 2 N a_k b_(n-k) and 2 N a_(n-k) b_k, are written as
    a_k sqrt(R(n-k)) and a_(n-k) sqrt(R(k)) with R(m) = (1 - p^m)/(1 - p^n),
    which stays accurate as p -> 1 where b and N^-1 both vanish.
    """
    if k != int(k) or not 1 <= k <= spec.n - 1:
        raise DomainError(f"block size must satisfy 1 <= k <= n-1, got k={k}, n={spec.n}")
    k = int(k)
    p, n = spec.p, spec.n
    a_k, b_k = _block_weights(p, k)
    a_r, b_r = _block_weights(p, n - k)
    c00 = c01 = c10 = c11 = 0.0
    if spec.branch_sign == 1:
        norm = 2.0 * normalization(spec)
        c00, c11 = norm * a_k * a_r, norm * b_k * b_r
    else:
        c01 = a_k * math.sqrt(_pow_ratio(p, n - k, n, -1))
        c10 = a_r * math.sqrt(_pow_ratio(p, k, n, -1))
    return PureBipartition(k=k, n=n, c00=c00, c01=c01, c10=c10, c11=c11)


@dataclass(frozen=True, eq=False)
class TwoQubitState:
    """A validated two-qubit density matrix, basis (|00>, |01>, |10>, |11>).

    Construction enforces Hermiticity and unit trace to 1e-12 and
    positive semidefiniteness to -1e-10; the matrix is stored read-only.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.array(self.matrix, dtype=complex)
        if m.shape != (4, 4):
            raise DomainError(f"expected a 4x4 matrix, got shape {m.shape}")
        if np.max(np.abs(m - m.conj().T)) > HERMITICITY_TOL:
            raise DomainError("density matrix is not Hermitian")
        tr = m.trace()
        if abs(tr - 1.0) > TRACE_TOL:
            raise DomainError(f"density matrix must have unit trace, got {tr}")
        if np.linalg.eigvalsh(m).min() < -PSD_TOL:
            raise DomainError("density matrix has a negative eigenvalue beyond tolerance")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def is_x(self) -> bool:
        """True when only the main and anti diagonals are populated."""
        mask = np.ones((4, 4), dtype=bool)
        idx = np.arange(4)
        mask[idx, idx] = False
        mask[idx, 3 - idx] = False
        return bool(np.max(np.abs(self.matrix[mask])) <= X_STRUCTURE_TOL)

    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues in descending order.

        X-shaped matrices decouple into two 2x2 blocks, solved
        analytically; anything else goes through the dense eigensolver.
        """
        m = self.matrix
        if self.is_x:
            vals = np.array(
                _block_eigenvalues(m[0, 0].real, m[3, 3].real, m[0, 3])
                + _block_eigenvalues(m[1, 1].real, m[2, 2].real, m[1, 2])
            )
        else:
            vals = np.linalg.eigvalsh(m)
        return np.sort(vals)[::-1]


def _block_eigenvalues(d1: float, d2: float, off: complex) -> tuple[float, float]:
    mean = 0.5 * (d1 + d2)
    radius = math.hypot(0.5 * (d1 - d2), abs(off))
    return mean + radius, mean - radius


def superposition_vector(spec: SuperpositionSpec, max_modes: int = 12) -> np.ndarray:
    """Expand the superposition in the 2^n logical product basis.

    Per mode, |z> maps to a|0> + b|1> and |-z> to a|0> - b|1> with
    a = sqrt((1+p)/2), b = sqrt((1-p)/2); the amplitude of a basis label
    is then fixed by its bit weight.  Meant as a desk-scale oracle, so n
    is capped (default 12).
    """
    if spec.n > max_modes:
        raise DomainError(f"explicit expansion capped at {max_modes} modes, got n={spec.n}")
    n = spec.n
    a, b = _block_weights(spec.p, 1)
    norm = normalization(spec)
    sign = spec.branch_sign
    amps = np.zeros(2**n)
    for idx in range(2**n):
        w = idx.bit_count()
        amps[idx] = norm * a ** (n - w) * b**w * (1 + sign * (-1) ** w)
    return amps


def partial_trace_pair(state_vector: np.ndarray) -> TwoQubitState:
    """Reduce a pure 2^n-mode state to its first two modes."""
    psi = np.asarray(state_vector, dtype=complex).ravel()
    n = int(round(math.log2(psi.size)))
    if 2**n != psi.size or n < 2:
        raise DomainError(f"state vector length {psi.size} is not 2^n with n >= 2")
    block = psi.reshape(4, -1)
    return TwoQubitState(block @ block.conj().T)


def _pow_ratio(p: float, m: int, n: int, sign: int) -> float:
    """(1 + sign p^m) / (1 + sign p^n).

    With sign -1 both factors vanish as p -> 1, so the ratio is evaluated
    without cancellation, with limit m/n at p = 1.
    """
    if sign == 1:
        return (1.0 + p**m) / (1.0 + p**n)
    if p == 0.0:
        return 0.0 if m == 0 else 1.0  # p^0 = 1 even at p = 0
    if p == 1.0:
        return m / n
    lp = math.log(p)
    return math.expm1(m * lp) / math.expm1(n * lp)


def _pair_entries(spec: SuperpositionSpec) -> tuple[float, float, float, float]:
    """The distinct entries (rho00, rho33, rho03, rho11) of the two-mode
    reduction, with rho11 = rho22 = rho12; every other entry is zero.

    With a^2 = (1+p)/2, b^2 = (1-p)/2, branch sign c and cross weight
    q = p^(n-2), the even block (rho00, rho33, rho03) is
    (a^4, b^4, a^2 b^2) (1 + c q)/(1 + c p^n) and the one-excitation entry
    is a^2 b^2 (1 - c q)/(1 + c p^n) = (1 - c q)(1 - c p)/4 * (1 + c p)/(1 + c p^n).
    Every closed form of the pair derives from these four numbers.
    """
    p, n, c = spec.p, spec.n, spec.branch_sign
    a2 = (1.0 + p) / 2.0
    b2 = (1.0 - p) / 2.0
    outer = _pow_ratio(p, n - 2, n, c)
    one_exc = 0.25 * (1.0 - c * spec.q) * (1.0 - c * p) * _pow_ratio(p, 1, n, c)
    return outer * a2 * a2, outer * b2 * b2, outer * a2 * b2, one_exc


def reduced_rho12(spec: SuperpositionSpec) -> TwoQubitState:
    """Closed-form reduction to the first two modes: a rank-two X state
    with the entries of `_pair_entries`."""
    r00, r33, r03, r11 = _pair_entries(spec)
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


def werner_limit_state(n: int) -> TwoQubitState:
    """Two-mode reduction of the n-mode single-excitation (W-type) state.

    Population (n-2)/n on |00>, 1/n on each of |01>, |10> with coherence
    1/n between them, nothing on |11>.  For n = 2 this is the Bell state
    (|01> + |10>)/sqrt(2).
    """
    if n != int(n) or n < 2:
        raise DomainError(f"mode count must be an integer >= 2, got {n}")
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = (n - 2) / n
    m[1, 1] = m[2, 2] = m[1, 2] = m[2, 1] = 1.0 / n
    return TwoQubitState(m)


def marginals(state: TwoQubitState) -> tuple[np.ndarray, np.ndarray]:
    """Single-mode reduced density matrices (first mode, second mode)."""
    m = state.matrix.reshape(2, 2, 2, 2)
    return np.einsum("ikjk->ij", m), np.einsum("kikj->ij", m)
