"""Entropic and entanglement measures for the two-qubit pictures.

Every closed form here (mutual information, the Koashi-Winter minimum of
the measurement-conditioned entropy, quantum discord) is paired with an
independent brute-force route that scans projective measurement
directions on a theta-phi grid and refines the best one on a shrinking
local patch; agreement between the two routes is the correctness standard
of the package.  All entropies are in bits.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .states import (
    PSD_TOL,
    PAULI,
    PureBipartition,
    SuperpositionSpec,
    TwoQubitState,
    _block_eigenvalues,
    _pair_entries,
    bloch_matrix,
    marginals,
)

DEFAULT_GRID = (181, 361)
# largest n_theta * n_phi the scan accepts, about 30x the default grid; the
# field itself allocates only its output of n_theta * n_phi / 2 floats plus
# buffers for one block of _FIELD_BLOCK directions
MAX_GRID_DIRECTIONS = 2_000_000
# directions per block of the conditional-entropy field: eight rows of the
# default grid, so a block's buffers (about 0.6 MB) stay in the L2 cache
_FIELD_BLOCK = 8 * 361
# refinement patch: _PATCH_POINTS x _PATCH_POINTS tangent offsets spanning
# +-h around the best direction, h starting at one grid step and divided by
# _PATCH_SHRINK per level (so the next patch spans one spacing of this one)
# while above _PATCH_STEP_TOL
_PATCH_POINTS = 9
_PATCH_SHRINK = 4.0
_PATCH_STEP_TOL = 1e-9
# theta grid of the X-state kernel on [0, pi/2] before golden-section
# refinement.  The objective can have a local minimum at theta = 0 and a
# deeper one inside (test_x_state_kernel_finds_interior_optimum); 5 points
# bound each refinement bracket to pi/4 for about the evaluations of a
# search over the whole interval
_X_THETA_POINTS = 5
LINE_SEARCH_STEP_TOL = 1e-10
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class MeasurementBasis:
    """Projective measurement direction on the first qubit.

    theta in [0, pi], phi in [0, 2 pi); the two projectors point along
    plus/minus the unit vector (sin t cos f, sin t sin f, cos t).
    """

    theta: float
    phi: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.theta <= math.pi + 1e-12:
            raise DomainError(f"theta must lie in [0, pi], got {self.theta}")
        if not 0.0 <= self.phi <= 2.0 * math.pi + 1e-12:
            raise DomainError(f"phi must lie in [0, 2 pi), got {self.phi}")

    def direction(self) -> tuple[float, float, float]:
        st = math.sin(self.theta)
        return st * math.cos(self.phi), st * math.sin(self.phi), math.cos(self.theta)


@dataclass(frozen=True)
class CorrelationReport:
    """Pairwise correlation measures of one state, all entropies in bits."""

    mutual_info: float
    classical_corr: float
    discord: float
    concurrence: float
    eof: float
    s_cond_min: float
    argmin: MeasurementBasis

    def __post_init__(self) -> None:
        if abs(self.discord - (self.mutual_info - self.classical_corr)) > 1e-9:
            raise DomainError("discord must equal mutual information minus classical part")
        for name in ("mutual_info", "classical_corr", "discord", "eof", "s_cond_min"):
            if getattr(self, name) < -1e-12:
                raise DomainError(f"{name} must be nonnegative, got {getattr(self, name)}")
        if not -1e-12 <= self.concurrence <= 1.0 + 1e-12:
            raise DomainError(f"concurrence must lie in [0, 1], got {self.concurrence}")


def binary_entropy(x: float) -> float:
    """H(x) = -x log2 x - (1-x) log2(1-x), with H(0) = H(1) = 0.

    Arguments are accepted within 1e-12 of [0, 1] and clamped.
    """
    if not -1e-12 <= x <= 1.0 + 1e-12:
        raise DomainError(f"binary entropy argument must lie in [0, 1], got {x}")
    x = min(max(float(x), 0.0), 1.0)
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def von_neumann_entropy(state) -> float:
    """Von Neumann entropy in bits.

    Accepts a TwoQubitState (X-shaped ones use the analytic block
    eigenvalues) or a square Hermitian PSD ndarray of any dimension.
    """
    if isinstance(state, TwoQubitState):
        vals = state.eigenvalues()
    else:
        m = np.asarray(state, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DomainError(f"density matrix must be square, got shape {m.shape}")
        if np.max(np.abs(m - m.conj().T)) > 1e-10:
            raise DomainError("density matrix must be Hermitian")
        vals = np.linalg.eigvalsh(m)
    vals = np.asarray(vals, dtype=float)
    if vals.min() < -PSD_TOL:
        raise DomainError("density matrix has a negative eigenvalue beyond tolerance")
    vals = np.clip(vals, 0.0, 1.0)
    pos = vals[vals > 0.0]
    return float(-(pos * np.log2(pos)).sum())


def concurrence_pure(bp: PureBipartition) -> float:
    """Concurrence 2 |c00 c11 - c01 c10| of the pure block splitting."""
    return 2.0 * abs(bp.c00 * bp.c11 - bp.c01 * bp.c10)


def discord_pure(bp: PureBipartition) -> CorrelationReport:
    """Correlation report of the pure block splitting.

    Measuring one side of a pure state leaves the other side pure, so the
    conditional entropy vanishes for every direction and discord,
    classical correlation and entanglement of formation all equal the
    marginal entropy H((1 + sqrt(1 - C^2))/2).
    """
    conc = concurrence_pure(bp)
    ent = _eof_from_concurrence(conc)
    return CorrelationReport(
        mutual_info=2.0 * ent,
        classical_corr=ent,
        discord=ent,
        concurrence=conc,
        eof=ent,
        s_cond_min=0.0,
        argmin=MeasurementBasis(math.pi / 2.0, 0.0),
    )


def concurrence_x(state: TwoQubitState) -> float:
    """Wootters concurrence of a two-qubit state.

    X-shaped matrices use the two-branch shortcut
    2 max(0, |rho_14| - sqrt(rho_22 rho_33), |rho_23| - sqrt(rho_11 rho_44));
    everything else goes through the spin-flip spectrum.
    """
    m = state.matrix
    if state.is_x:
        corner = abs(m[0, 3]) - math.sqrt(max(0.0, m[1, 1].real * m[2, 2].real))
        inner = abs(m[1, 2]) - math.sqrt(max(0.0, m[0, 0].real * m[3, 3].real))
        return 2.0 * max(0.0, corner, inner)
    flip = np.kron(PAULI[2], PAULI[2])
    vals = np.linalg.eigvals(m @ flip @ m.conj() @ flip)
    roots = np.sort(np.sqrt(np.clip(vals.real, 0.0, None)))[::-1]
    return float(max(0.0, roots[0] - roots[1] - roots[2] - roots[3]))


def _eof_from_concurrence(conc: float) -> float:
    # H((1 + sqrt(1 - C^2))/2), taken at the smaller eigenvalue
    # (1 - sqrt(1 - C^2))/2 written without cancellation
    c_sq = conc * conc
    return binary_entropy(0.5 * c_sq / (1.0 + math.sqrt(max(0.0, 1.0 - c_sq))))


def mutual_information(spec: SuperpositionSpec) -> float:
    """Closed-form mutual information of the two-mode reduction:
    2 H(marginal eigenvalue) - H(joint eigenvalue), see
    `discord_mixed_closed`."""
    return discord_mixed_closed(spec).mutual_info


def conditional_entropy(state: TwoQubitState, basis: MeasurementBasis) -> float:
    """Average entropy of the second qubit after measuring the first
    along `basis`, weighted by the outcome probabilities."""
    table = bloch_matrix(state).R
    d1, d2, d3 = basis.direction()
    return float(
        _cond_entropy_field(table, np.float64(d1), np.float64(d2), np.float64(d3))
    )


def _cond_entropy_field(table, d1, d2, d3):
    """Measurement-conditioned entropy, vectorized over direction arrays.

    For each outcome the conditional qubit has Bloch vector
    (R[0,b] + sum_i R[i,b] s_i) / (1 + sum_i R[i,0] s_i) with s the signed
    direction, so its entropy is H((1 + |r|)/2); zero-probability
    outcomes contribute nothing.

    The directions are taken in blocks of _FIELD_BLOCK.  Each block forms
    the four dot products w_b = sum_i R[i,b] d_i once, stacks the two
    outcomes on a leading axis as offset_b + w_b and offset_b - w_b with
    offset = (1, R[0,1], R[0,2], R[0,3]), and runs the rest in place on
    preallocated buffers.  Every element goes through the same operations
    in the same order for any block size or input shape.
    """
    shape = np.shape(d1)
    d1, d2, d3 = np.ravel(d1), np.ravel(d2), np.ravel(d3)
    size = d1.size
    out = np.empty(size)
    m = min(size, _FIELD_BLOCK)
    rows = table[1:, :, None]
    offset = np.array([1.0, table[0, 1], table[0, 2], table[0, 3]])[:, None]
    dots, tmp = np.empty((4, m)), np.empty((4, m))
    # buffers are flat so that the views of a shorter last block stay
    # contiguous
    stacked = np.empty(8 * m)
    flat = np.empty((5, 2 * m))
    flags = np.empty((2, 2 * m), dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        for lo in range(0, size, m):
            k = min(m, size - lo)
            w, t = dots[:, :k], tmp[:, :k]
            np.multiply(rows[0], d1[lo : lo + k], out=w)
            w += np.multiply(rows[1], d2[lo : lo + k], out=t)
            w += np.multiply(rows[2], d3[lo : lo + k], out=t)
            sv = stacked[: 8 * k].reshape(2, 4, k)
            np.add(offset, w, out=sv[0])
            np.subtract(offset, w, out=sv[1])
            weight, r, h, g, lg = (buf[: 2 * k].reshape(2, k) for buf in flat)
            dead, unit = (buf[: 2 * k].reshape(2, k) for buf in flags)

            # sv[:, 0] = 1 + s.R[1:, 0] is twice the outcome probability
            q = sv[:, 0]
            np.multiply(0.5, q, out=weight)
            np.greater(weight, 1e-15, out=dead)
            np.logical_not(dead, out=dead)
            v = sv[:, 1:]
            np.multiply(v, v, out=v)
            np.add(v[:, 0], v[:, 1], out=r)
            r += v[:, 2]
            np.sqrt(r, out=r)
            r /= np.abs(q, out=q)
            np.minimum(r, 1.0, out=r)

            # H(x) at x = (1 + r)/2 in [1/2, 1]; x = 1 is masked below
            x = r
            x *= 0.5
            x += 0.5
            np.greater_equal(x, 1.0, out=unit)
            np.log2(x, out=h)
            h *= x
            np.negative(h, out=h)
            np.subtract(1.0, x, out=g)
            g *= np.log2(g, out=lg)
            h -= g

            # dead outcomes and pure conditionals contribute exactly 0
            h *= weight
            dead |= unit
            h[dead] = 0.0
            np.add(h[0], h[1], out=out[lo : lo + k])
    return out.reshape(shape)


def koashi_winter_min(spec: SuperpositionSpec) -> float:
    """Minimum conditional entropy of the two-mode reduction, attained at
    the equatorial direction theta = pi/2, phi = 0; see
    `discord_mixed_closed`."""
    return discord_mixed_closed(spec).s_cond_min


def discord_mixed_closed(spec: SuperpositionSpec) -> CorrelationReport:
    """Closed-form correlation report of the two-mode reduction.

    Everything derives from the pair-state entries rho00, rho33, rho03 and
    rho11 = rho22 = rho12: the marginal eigenvalues are rho33 + rho11 and
    its complement, the rank-two joint state has eigenvalues
    lam_even = rho00 + rho33 and lam_odd = 2 rho11, and the concurrence is
    2 |rho03 - rho11|.  The rank-two purification adds a single ancilla
    qubit, so the minimum conditional entropy (Koashi-Winter) equals the
    entanglement of formation between the unmeasured mode and the ancilla,
    H((1 + sqrt(1 - Q))/2) with Q = 4 p^2 lam_even lam_odd / (1 + p^2); the
    optimal measurement is equatorial.  Discord = marginal entropy +
    that minimum - joint entropy.
    """
    r00, r33, r03, r11 = _pair_entries(spec)
    lam_even, lam_odd = r00 + r33, 2.0 * r11
    # binary entropies take the smaller eigenvalue, which carries full
    # relative precision; r00 >= r33 makes r33 + r11 the smaller marginal one
    s_marg = binary_entropy(r33 + r11)
    s_joint = binary_entropy(min(lam_even, lam_odd))
    q_sq = 4.0 * spec.p**2 * lam_even * lam_odd / (1.0 + spec.p**2)
    s_min = _eof_from_concurrence(math.sqrt(q_sq))
    info = 2.0 * s_marg - s_joint
    disc = s_marg + s_min - s_joint
    conc = 2.0 * abs(r03 - r11)
    return CorrelationReport(
        mutual_info=info,
        classical_corr=info - disc,
        discord=disc,
        concurrence=conc,
        eof=_eof_from_concurrence(conc),
        s_cond_min=s_min,
        argmin=MeasurementBasis(math.pi / 2.0, 0.0),
    )


@functools.lru_cache(maxsize=4)
def _direction_grid(n_theta: int, n_phi: int):
    """Read-only scan directions: the rows theta <= pi/2 of the
    n_theta x n_phi grid linspace(0, pi) x linspace(0, 2 pi).

    Measuring along d and along -d only swaps the two outcomes, so the
    lower hemisphere repeats the upper one.  linspace is symmetric about
    pi/2, so the first (n_theta + 1) // 2 rows are those with theta <= pi/2.
    """
    theta = np.linspace(0.0, math.pi, n_theta)[: (n_theta + 1) // 2]
    phi = np.linspace(0.0, 2.0 * math.pi, n_phi)
    tt, pp = np.meshgrid(theta, phi, indexing="ij")
    st = np.sin(tt)
    arrays = (theta, phi, st * np.cos(pp), st * np.sin(pp), np.cos(tt))
    for arr in arrays:
        arr.flags.writeable = False
    return arrays


def _golden_section(fun, lo: float, hi: float, step_tol: float = LINE_SEARCH_STEP_TOL):
    """Golden-section minimum of a scalar function on [lo, hi]."""
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = fun(c), fun(d)
    while b - a > step_tol:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = fun(d)
    if fc <= fd:
        return c, fc
    return d, fd


def _discord_x(
    r00: float, r11: float, r22: float, r33: float, c03: float, c12: float
) -> float:
    """Discord of the real X state with populations r00..r33 and
    coherences c03 = rho_03, c12 = rho_12, measured on the first qubit.

    With a3 = <Z x 1>, b3 = <1 x Z>, T33 = <Z x Z> and the transverse
    correlations 2 (c03 + c12), 2 (c12 - c03), measuring along
    (sin t cos f, sin t sin f, cos t) leaves the second qubit with Bloch
    length |v+-| / (1 +- a3 cos t), where
    |v+-|^2 = sin^2 t (T11^2 cos^2 f + T22^2 sin^2 f) + (b3 +- T33 cos t)^2.
    The entropy falls as that length grows, so the minimum over f lies on
    the meridian of the larger transverse correlation,
    T_perp = 2 (|c03| + |c12|); d -> -d swaps the two outcomes, so
    t in [0, pi/2] suffices.  The minimum over t is taken on a coarse grid
    and refined by golden section.
    """
    a3 = r00 + r11 - r22 - r33
    b3 = r00 - r11 + r22 - r33
    t33 = r00 - r11 - r22 + r33
    t_perp = 2.0 * (abs(c03) + abs(c12))

    def s_cond(theta: float) -> float:
        cos_t = math.cos(theta)
        trans = (t_perp * math.sin(theta)) ** 2
        total = 0.0
        for sign in (1.0, -1.0):
            weight = 1.0 + sign * a3 * cos_t  # twice the outcome probability
            if weight > 2e-15:
                length = math.sqrt(trans + (b3 + sign * t33 * cos_t) ** 2)
                r = min(length / weight, 1.0)
                total += 0.5 * weight * binary_entropy(0.5 - 0.5 * r)
        return total

    step = 0.5 * math.pi / (_X_THETA_POINTS - 1)
    best_val, i = min((s_cond(k * step), k) for k in range(_X_THETA_POINTS))
    _, val = _golden_section(
        s_cond, max(0.0, (i - 1) * step), min(0.5 * math.pi, (i + 1) * step)
    )
    s_ab = 0.0
    for lam in _block_eigenvalues(r00, r33, c03) + _block_eigenvalues(r11, r22, c12):
        if lam > 0.0:
            s_ab -= lam * math.log2(lam)
    return binary_entropy(min(r00 + r11, r22 + r33)) + min(best_val, val) - s_ab


def discord_brute_force(
    state: TwoQubitState, grid: tuple[int, int] = DEFAULT_GRID
) -> CorrelationReport:
    """Correlation report with the conditional-entropy minimum found by an
    exhaustive scan over projective measurement directions.

    Fully independent of the closed forms: entropies come from eigenvalue
    solvers and the minimum from direct evaluation of the measurement
    average.  `grid` = (n_theta, n_phi) sets the steps of the theta-phi
    grid linspace(0, pi, n_theta) x linspace(0, 2 pi, n_phi) (default
    181 x 361, floor 64 x 128, at most MAX_GRID_DIRECTIONS points).  Since
    d and -d give the same average, only the rows theta <= pi/2 are
    evaluated; the first minimum in (theta, phi) order is kept.  It is
    refined by a shrinking local patch: 9 x 9 directions spanning +-h
    along the unit tangents of the grid minimum, h starting at one grid
    step and divided by 4 per level down to 1e-9 rad; a patch point
    replaces the best only if strictly lower.  A direction tied with the
    equatorial one within 1e-12 is reported as the canonical (pi/2, 0), and
    one tied with its phi = 0 counterpart gets phi = 0, so flat objectives
    (pure states) resolve deterministically.
    """
    n_theta, n_phi = grid
    if n_theta < 64 or n_phi < 128:
        raise DomainError(f"scan grid must be at least 64 x 128, got {grid}")
    if n_theta * n_phi > MAX_GRID_DIRECTIONS:
        raise DomainError(
            f"scan grid must have at most {MAX_GRID_DIRECTIONS} points, got {grid}"
        )
    table = bloch_matrix(state).R
    theta, phi, d1, d2, d3 = _direction_grid(n_theta, n_phi)
    values = _cond_entropy_field(table, d1, d2, d3)
    flat = int(np.argmin(values))  # first occurrence: lexicographic (theta, phi)
    i, j = divmod(flat, n_phi)
    best_theta, best_phi = float(theta[i]), float(phi[j])
    best_val = float(values[i, j])

    # patch offsets run along the unit tangents e_theta and e_phi of the grid
    # minimum; steps in theta and phi themselves would shrink the phi scale
    # as sin(theta) and, near the poles, stretch the minimum into a valley
    # that the patch cannot follow.  The refinement moves less than two
    # grid steps, so this one frame serves every level
    st, ct = math.sin(best_theta), math.cos(best_theta)
    sp, cp = math.sin(best_phi), math.cos(best_phi)
    best_dir = np.array([st * cp, st * sp, ct])
    offsets = np.linspace(-1.0, 1.0, _PATCH_POINTS)
    u, v = np.repeat(offsets, _PATCH_POINTS), np.tile(offsets, _PATCH_POINTS)
    tangent = np.outer([ct * cp, ct * sp, -st], u) + np.outer([-sp, cp, 0.0], v)
    h = max(math.pi / (n_theta - 1), 2.0 * math.pi / (n_phi - 1))
    while h > _PATCH_STEP_TOL:
        patch = best_dir[:, None] + h * tangent
        patch /= np.linalg.norm(patch, axis=0)
        patch_vals = _cond_entropy_field(table, *patch)
        k = int(np.argmin(patch_vals))
        if patch_vals[k] < best_val:
            best_val = float(patch_vals[k])
            best_dir = patch[:, k]
            x, y, z = best_dir.tolist()
            best_theta, best_phi = math.atan2(math.hypot(x, y), z), math.atan2(y, x)
        h /= _PATCH_SHRINK

    def objective(th: float, ph: float) -> float:
        st = math.sin(th)
        return float(
            _cond_entropy_field(
                table,
                np.float64(st * math.cos(ph)),
                np.float64(st * math.sin(ph)),
                np.float64(math.cos(th)),
            )
        )

    equatorial = objective(math.pi / 2.0, 0.0)
    if equatorial <= best_val + 1e-12:
        best_theta, best_phi = math.pi / 2.0, 0.0
        best_val = min(best_val, equatorial)
    else:
        at_phi0 = objective(best_theta, 0.0)
        if at_phi0 <= best_val + 1e-12:  # flat phi direction
            best_phi = 0.0
            best_val = min(best_val, at_phi0)
    best_phi %= 2.0 * math.pi

    rho_a, rho_b = marginals(state)
    s_a = von_neumann_entropy(rho_a)
    s_b = von_neumann_entropy(rho_b)
    s_ab = von_neumann_entropy(state)
    info = s_a + s_b - s_ab
    disc = s_a + best_val - s_ab
    conc = concurrence_x(state)
    return CorrelationReport(
        mutual_info=info,
        classical_corr=info - disc,
        discord=disc,
        concurrence=conc,
        eof=_eof_from_concurrence(conc),
        s_cond_min=best_val,
        argmin=MeasurementBasis(best_theta, best_phi),
    )


def werner_discord(n: int) -> float:
    """Pairwise discord of the n-mode single-excitation (W-type) state:
    H(1 - 1/n) + H(1/2 + sqrt(n^2 - 4n + 8)/(2n)) - H(1 - 2/n).

    Equals 1 at n = 2 and decays to zero for large n.
    """
    if n != int(n) or n < 2:
        raise DomainError(f"mode count must be an integer >= 2, got {n}")
    root = math.sqrt(n * n - 4.0 * n + 8.0) / n
    return (
        binary_entropy(1.0 - 1.0 / n)
        + binary_entropy(0.5 + 0.5 * root)
        - binary_entropy(1.0 - 2.0 / n)
    )
