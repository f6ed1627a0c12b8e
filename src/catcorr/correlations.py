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

from .errors import DomainError, _is_whole
from .states import (
    PAULI,
    PureBipartition,
    SuperpositionSpec,
    TwoQubitState,
    _density_spectrum,
    _pair_block,
    bloch_matrix,
    marginals,
)

DEFAULT_GRID = (181, 361)
# roundoff allowed outside the range of a checked quantity: a report
# field, a measurement angle or a binary-entropy argument within this of
# its range passes (binary_entropy clamps it), one further out is a
# DomainError
_RANGE_SLACK = 1e-12
# largest n_theta * n_phi the scan accepts, about 30x the default grid; the
# field itself allocates only its output of at most n_theta * n_phi / 2
# floats and the work of one block: at most _FIELD_BLOCK directions, or one
# folded grid row of at most 15 625 (n_theta >= 64 bounds n_phi by 31 250)
MAX_GRID_DIRECTIONS = 2_000_000
# directions per block of both field kernels: 24 rows of the default grid,
# so that its folded X-state call (91 x 91) is one block.  On a 2-CPU Xeon
# that call took 172-174 us against 197-202 us at 16 rows, two blocks
# (medians of 31 interleaved in-process rounds)
_FIELD_BLOCK = 24 * 361
# an outcome whose q, twice its probability, is at most this contributes
# nothing to the conditional entropy
_LIVE_Q = 2e-15
# a scan minimum within this of the value at (pi/2, 0) is reported as that
# direction, and one within this of the value at phi = 0 gets phi = 0, so
# flat objectives resolve deterministically
_TIE_TOL = 1e-12
# refinement patch: _PATCH_POINTS x _PATCH_POINTS tangent offsets spanning
# +-h around the best direction, h starting at one grid step and divided by
# _PATCH_SHRINK per level (so the next patch spans one spacing of this one)
# while above _PATCH_STEP_TOL
_PATCH_POINTS = 9
_PATCH_SHRINK = 4.0
_PATCH_STEP_TOL = 1e-9
# the patch offsets (u, v) in units of h, u major: every pair of
# linspace(-1, 1, _PATCH_POINTS)
_PATCH_U = np.repeat(np.linspace(-1.0, 1.0, _PATCH_POINTS), _PATCH_POINTS)
_PATCH_V = np.tile(np.linspace(-1.0, 1.0, _PATCH_POINTS), _PATCH_POINTS)
_PATCH_U.flags.writeable = _PATCH_V.flags.writeable = False
# the Bloch-table slots a real X state leaves zero: all but R[0,0], R[0,3],
# R[3,0] and the correlations R[i,i]
_OFF_REAL_X = ~np.array(
    [[1, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0], [1, 0, 0, 1]], dtype=bool
)
_OFF_REAL_X.flags.writeable = False
# the signs of the two measurement outcomes, along axis 0 of the per-row
# terms of `_x_field`
_SIGNS = np.array([1.0, -1.0])[:, None, None]
_SIGNS.flags.writeable = False
# theta grid of the X-state kernel on [0, pi/2], whose minimum the sign of
# the objective's slope then places.  The objective can have a local
# minimum at theta = 0 and a deeper one inside
# (test_x_state_kernel_finds_interior_optimum); 5 points bound the bracket
# of a slope root to one grid step, pi/8
_X_THETA_POINTS = 5
_X_THETA_GRID = tuple(
    k * (0.5 * math.pi / (_X_THETA_POINTS - 1)) for k in range(_X_THETA_POINTS)
)
# the slope root is taken to a bracket at most this wide in theta; near
# the root the objective is off its minimum by about its curvature times
# the square of this, far below rounding
_ROOT_STEP_TOL = 1e-12
# an outcome of weight w (twice its probability) below this at theta = 0
# is nearly dead: it bends the objective within about w / T_perp of the
# pole, far inside the first grid step, so `_polar_minimum` adds a ladder
# of angles from there (_LADDER_FACTOR) to its grid
_ENDPOINT_LIVE_MARGIN = 1e-6
# the ladder's rungs are its first angle times powers of this factor
# below the first grid step
_LADDER_FACTOR = 4.0
# an outcome exactly pure at theta = 0 makes the pole a minimum from the
# right: its term rises like theta^2 log(1/theta).  That layer can be far
# thinner than a grid step, with a well beyond it, so the ladder then
# starts at this angle; a well nearer the pole is within rounding of the
# pole's value, as its depth is about the curvature times this squared
_PURE_POLE_RUNG = 1e-8


@dataclass(frozen=True)
class MeasurementBasis:
    """Projective measurement direction on the first qubit.

    theta in [0, pi], phi in [0, 2 pi); the two projectors point along
    plus/minus the unit vector (sin t cos f, sin t sin f, cos t).
    """

    theta: float
    phi: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.theta <= math.pi + _RANGE_SLACK:
            raise DomainError(f"theta must lie in [0, pi], got {self.theta}")
        if not 0.0 <= self.phi <= 2.0 * math.pi + _RANGE_SLACK:
            raise DomainError(f"phi must lie in [0, 2 pi), got {self.phi}")

    def direction(self) -> tuple[float, float, float]:
        st = math.sin(self.theta)
        return st * math.cos(self.phi), st * math.sin(self.phi), math.cos(self.theta)


@dataclass(frozen=True)
class CorrelationReport:
    """Pairwise correlation measures of one state, all entropies in bits;
    classical correlation I - D and entanglement of formation E(C) are derived."""

    mutual_info: float
    discord: float
    concurrence: float
    s_cond_min: float
    argmin: MeasurementBasis

    def __post_init__(self) -> None:
        _check_correlations(self.mutual_info, self.discord, self.concurrence, self.s_cond_min)

    @property
    def classical_corr(self) -> float:
        return self.mutual_info - self.discord

    @property
    def eof(self) -> float:
        return _eof_from_concurrence(self.concurrence)


def _check_correlations(
    mutual_info: float, discord: float, concurrence: float, s_cond_min: float
) -> None:
    """The checks of every CorrelationReport, on its fields but argmin."""
    classical_corr = mutual_info - discord
    # negated comparisons, so that a NaN field fails every check; on a qubit
    # pair I <= 2 and D, J, S_min, C <= 1, which also rejects infinities
    if not (0.0 <= mutual_info <= 2.0 and 0.0 <= discord <= 1.0
            and 0.0 <= classical_corr <= 1.0 and 0.0 <= s_cond_min <= 1.0
            and 0.0 <= concurrence <= 1.0):
        # only values beyond _RANGE_SLACK fail; J after D, so a NaN discord
        # is named as such
        names = ("mutual_info", "discord", "classical_corr", "s_cond_min")
        values = (mutual_info, discord, classical_corr, s_cond_min)
        for name, value, bound in zip(names, values, (2.0, 1.0, 1.0, 1.0)):
            if not value >= -_RANGE_SLACK:
                raise DomainError(f"{name} must be nonnegative, got {value}")
            if not value <= bound + _RANGE_SLACK:
                raise DomainError(f"{name} must not exceed {bound:g}, got {value}")
        if not -_RANGE_SLACK <= concurrence <= 1.0 + _RANGE_SLACK:
            raise DomainError(f"concurrence must lie in [0, 1], got {concurrence}")


# optimal measurement of the closed forms: discord_mixed_closed and discord_pure
_EQUATORIAL = MeasurementBasis(math.pi / 2.0, 0.0)


def binary_entropy(x: float) -> float:
    """H(x) = -x log2 x - (1-x) log2(1-x), with H(0) = H(1) = 0.

    Arguments are accepted within _RANGE_SLACK (1e-12) of [0, 1] and clamped.
    """
    if not 0.0 < x < 1.0:  # also NaN
        if -_RANGE_SLACK <= x <= 1.0 + _RANGE_SLACK:
            return 0.0
        raise DomainError(f"binary entropy argument must lie in [0, 1], got {x}")
    x = float(x)
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def von_neumann_entropy(state) -> float:
    """Von Neumann entropy in bits, from the dense eigensolver.

    Accepts a TwoQubitState, whose `spectrum` was computed and checked on
    construction, or a nonempty square ndarray of any dimension, which
    `_density_spectrum` diagonalizes after the checks of `TwoQubitState`:
    finite, Hermitian, unit trace and PSD.  A pure state gives +0.0.
    """
    if isinstance(state, TwoQubitState):
        return _spectrum_entropy(state.spectrum)
    m = np.asarray(state, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or not m.size:
        raise DomainError(f"density matrix must be square and nonempty, got shape {m.shape}")
    return _spectrum_entropy(_density_spectrum(m))


def _spectrum_entropy(vals) -> float:
    """Entropy in bits of a density matrix with eigenvalues vals (1-D).

    vals come from a checked matrix: a spectrum `_density_spectrum`
    returned, or that of a marginal of a checked state, whose smallest
    eigenvalue is at least the sum of the state's two smallest (so down
    to -2e-10).  Rounding outside [0, 1] is clipped and adds nothing.
    """
    vals = np.clip(vals, 0.0, 1.0)
    pos = vals[vals > 0.0]
    # 0.0 - sum: an exactly-zero sum (a pure state) gives +0.0, not -0.0
    return float(0.0 - (pos * np.log2(pos)).sum())


def concurrence_pure(bp: PureBipartition) -> float:
    """Concurrence 2 |c00 c11 - c01 c10| of the pure block splitting."""
    return _concurrence_pure(bp.c00, bp.c01, bp.c10, bp.c11)


def _concurrence_pure(c00: float, c01: float, c10: float, c11: float) -> float:
    return 2.0 * abs(c00 * c11 - c01 * c10)


def discord_pure(bp: PureBipartition) -> CorrelationReport:
    """Correlation report of the pure block splitting.

    Measuring one side of a pure state leaves the other side pure, so the
    conditional entropy vanishes for every direction and discord,
    classical correlation and entanglement of formation all equal the
    marginal entropy H((1 + sqrt(1 - C^2))/2).
    """
    return CorrelationReport(*_pure_correlations(concurrence_pure(bp)), _EQUATORIAL)


def _pure_correlations(conc: float) -> tuple[float, ...]:
    """The fields but argmin of `discord_pure` at concurrence conc."""
    ent = _eof_from_concurrence(conc)
    return 2.0 * ent, ent, conc, 0.0


def concurrence_x(state: TwoQubitState) -> float:
    """Wootters concurrence of a two-qubit state.

    X-shaped matrices use the two-branch shortcut
    2 max(0, |rho_14| - sqrt(rho_22 rho_33), |rho_23| - sqrt(rho_11 rho_44));
    everything else takes the descending singular values l_i of
    sqrt(rho) Y sqrt(rho)* Y, with Y = sigma_y x sigma_y and sqrt(rho) from
    the clipped eigendecomposition, and returns max(0, l1 - l2 - l3 - l4).
    Those are the square roots of the spin-flip spectrum, obtained without
    taking square roots of its rounding-level eigenvalues; sqrt(rho) takes
    those of rho, so rotated odd pair states miss `concurrence_t` by up to
    3e-8 as p -> 1 (about 6e-12 at 1 - p = 1e-4), even ones by 1e-13.
    """
    m = state.matrix
    if state.is_x:
        corner = abs(m[0, 3]) - math.sqrt(max(0.0, m[1, 1].real * m[2, 2].real))
        inner = abs(m[1, 2]) - math.sqrt(max(0.0, m[0, 0].real * m[3, 3].real))
        # abs of a complex numpy entry is a numpy scalar
        return float(2.0 * max(0.0, corner, inner))
    vals, vecs = np.linalg.eigh(m)
    root = (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T
    flip = np.kron(PAULI[2], PAULI[2])
    sing = np.linalg.svd(root @ flip @ root.conj() @ flip, compute_uv=False)
    return float(max(0.0, sing[0] - sing[1] - sing[2] - sing[3]))


def _eof_from_concurrence(conc: float) -> float:
    # H((1 + sqrt(1 - C^2))/2), taken at the smaller eigenvalue
    # (1 - sqrt(1 - C^2))/2 written without cancellation
    c_sq = conc * conc
    return binary_entropy(0.5 * c_sq / (1.0 + math.sqrt(max(0.0, 1.0 - c_sq))))


def _outcome_entropy(len_sq, q):
    """-q/2 H(x) per outcome at x = (1 + sqrt(len_sq)/q)/2, written over len_sq.

    q is twice the outcome probability, broadcast against len_sq, the
    squared length of the conditional Bloch vector times q.  Dead outcomes
    (not q > _LIVE_Q) and pure conditionals (x >= 1) contribute exactly 0.
    The caller silences the divisions.
    """
    x = np.sqrt(len_sq, out=len_sq)
    # q > _LIVE_Q wherever the outcome is live, so q = |q| there and the
    # weight -q/2 carries the entropy's sign
    x /= q
    x *= 0.5
    x += 0.5
    zero = x >= 1.0
    zero |= ~(q > _LIVE_Q)
    # 1 - x and a log2 buffer in one allocation: as two, the oracle_sweep
    # benchmark took about 80 page faults per item, as the allocator gave
    # back the heap top between calls, and ran 8% slower
    y, t = np.empty((2,) + x.shape)
    np.subtract(1.0, x, out=y)
    y *= np.log2(y, out=t)
    x *= np.log2(x, out=t)
    x += y
    x *= q * -0.5
    np.copyto(x, 0.0, where=zero)
    return x


def _cond_entropy_field(table, d1, d2, d3):
    """Measurement-conditioned entropy, vectorized over direction arrays.

    For each outcome the conditional qubit has Bloch vector
    (R[0,b] + sum_i R[i,b] s_i) / (1 + sum_i R[i,0] s_i) with s the signed
    direction; `_outcome_entropy` weighs its entropy H((1 + |r|)/2).  The
    directions are taken in blocks of _FIELD_BLOCK; every element goes
    through the same operations in the same order for any block size or
    input shape.

    `discord_brute_force` calls this for every table with a nonzero slot
    in _OFF_REAL_X, where a real X state has zeros; `_x_field` serves the
    rest.
    """
    shape = np.shape(d1)
    d1, d2, d3 = np.ravel(d1), np.ravel(d2), np.ravel(d3)
    out = np.empty(d1.size)
    # rows of coefficients R[i, :] and the offsets (1, R[0,1], R[0,2], R[0,3])
    c1, c2, c3 = table[1:, :, None]
    offset = np.array([1.0, table[0, 1], table[0, 2], table[0, 3]])[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        for lo in range(0, d1.size, _FIELD_BLOCK):
            block = slice(lo, lo + _FIELD_BLOCK)
            # w_b = sum_i R[i,b] d_i; the outcomes are offset_b +- w_b
            w = c1 * d1[block] + c2 * d2[block] + c3 * d3[block]
            h = [_outcome_entropy(v1 * v1 + v2 * v2 + v3 * v3, q)
                 for q, v1, v2, v3 in (offset + w, offset - w)]
            np.add(*h, out=out[block])
    return out.reshape(shape)


def _x_field(table, d1, d2, d3):
    """`_cond_entropy_field` on the table of a real X state, with its bits.

    Such a table is nonzero only at R[0,0], R[0,3], R[3,0] and R[i,i]
    (pair and dephased states).  A 2-D input is rows of the grid of
    `_direction_grid`, or of its representative columns, along which
    d3 = cos(theta) is one float; any other input is taken as one
    direction per row.  q = +-R[3,0] d3 + 1 and the z term
    (+-R[3,3] d3 + R[0,3])^2 are formed once per row.  The offsets R[0,1]
    and R[0,2] are zero and (+-0 +- w)^2 = w^2, so both outcomes share the
    transverse term w1^2 + w2^2, with w1 = R[1,1] d1 and w2 = R[2,2] d2.
    Negation is exact, the general kernel's terms at zero coefficients are
    signed zeros, which leave a nonzero sum unchanged, and the sign of a
    zero sum is lost in 1 +- w and in the squares: these are the q and
    squared lengths `_cond_entropy_field` forms, in its order, and both
    kernels finish with `_outcome_entropy`.

    Whole rows are taken in blocks of at most _FIELD_BLOCK directions, or
    of one row when a row is longer.  The caller checks the table.
    """
    shape = np.shape(d1)
    if len(shape) != 2:
        d1, d2, d3 = (np.reshape(d, (-1, 1)) for d in (d1, d2, d3))
    n_rows, n_phi = d1.shape
    rows = max(1, _FIELD_BLOCK // n_phi)
    # per outcome (axis 0) and row (axis 1), broadcast along the row
    q = _SIGNS * (table[3, 0] * d3[:, :1]) + 1.0
    z_sq = np.square(_SIGNS * (table[3, 3] * d3[:, :1]) + table[0, 3])
    out = np.empty((n_rows, n_phi))
    with np.errstate(divide="ignore", invalid="ignore"):
        for lo in range(0, n_rows, rows):
            block = slice(lo, lo + rows)
            # the transverse term w1^2 + w2^2, then each outcome's z term
            h = _outcome_entropy(
                np.square(d1[block] * table[1, 1]) + np.square(d2[block] * table[2, 2])
                + z_sq[:, block], q[:, block])
            np.add(h[0], h[1], out=out[block])
    return out.reshape(shape)


def koashi_winter_min(spec: SuperpositionSpec) -> float:
    """Minimum conditional entropy of the two-mode reduction, attained at
    the equatorial direction theta = pi/2, phi = 0; see
    `discord_mixed_closed`."""
    return discord_mixed_closed(spec).s_cond_min


def discord_mixed_closed(spec: SuperpositionSpec) -> CorrelationReport:
    """Closed-form correlation report of the two-mode reduction.

    Everything derives from `_pair_block`, with n - 2 traced modes: the
    marginal eigenvalues are rho33 + rho11 and its complement, the
    rank-two joint state has eigenvalues lam_even = rho00 + rho33 and
    lam_odd = 2 rho11, and the concurrence is 2 |rho03 - rho11|.  The
    traced modes purify the pair, so the minimum conditional entropy
    (Koashi-Winter) equals the entanglement of formation between the
    unmeasured mode and the traced block, H((1 + sqrt(1 - C^2))/2) with C
    the block concurrence of `_pair_block`; the optimal measurement is
    equatorial.  Discord = marginal entropy + that minimum - joint entropy.
    """
    return CorrelationReport(*_pair_correlations(spec.p, spec.n, spec.parity.sign), _EQUATORIAL)


def _pair_correlations(p: float, n: int, sign: int) -> tuple[float, ...]:
    """The fields but argmin of `discord_mixed_closed` for a valid (p, n, sign)."""
    r00, r33, r03, r11, kw_conc = _pair_block(p, n - 2, sign)
    # binary entropies take the smaller eigenvalue, which carries full
    # relative precision; r00 >= r33 makes r33 + r11 the smaller marginal one
    s_marg = binary_entropy(r33 + r11)
    s_joint = binary_entropy(min(r00 + r33, 2.0 * r11))
    s_min = _eof_from_concurrence(kw_conc)
    info = 2.0 * s_marg - s_joint
    disc = s_marg + s_min - s_joint
    return info, disc, 2.0 * abs(r03 - r11), s_min


@functools.lru_cache(maxsize=4)
def _direction_grid(n_theta: int, n_phi: int):
    """Read-only scan directions: the rows theta <= pi/2 of the
    n_theta x n_phi grid linspace(0, pi) x linspace(0, 2 pi), and the
    number of its representative columns.

    Measuring along d and along -d only swaps the two outcomes, so the
    lower hemisphere repeats the upper one.  linspace is symmetric about
    pi/2, so the first (n_theta + 1) // 2 rows are those with theta <= pi/2.

    The columns are folded along the mirrors of phi.  With m = n_phi - 1,
    column j has the orbit {j, m - j}, and when m is even also
    (m/2 - j) mod m and (m/2 + j) mod m (phi -> 2 pi - phi, pi - phi and
    pi + phi); its representative is the smallest index of the orbit.
    cos(phi_j) and sin(phi_j) take the magnitudes of those at the
    representative and keep their own signs, so a column's |d1| and |d2|
    are bitwise those of its representative (sign flips are exact), while
    phi itself stays the plain linspace.  The representatives are the
    first n_rep columns: 91 of 361 at the default grid, m // 4 + 1 for
    even m and (m + 1) / 2 for odd m.
    """
    theta = np.linspace(0.0, math.pi, n_theta)[: (n_theta + 1) // 2]
    phi = np.linspace(0.0, 2.0 * math.pi, n_phi)
    m = n_phi - 1
    rep = np.arange(n_phi)
    rep = np.minimum(rep, m - rep)  # the 2 pi - phi mirror
    if m % 2 == 0:
        rep = np.minimum(rep, m // 2 - rep)  # the pi - phi mirror, rep <= m/2
    cos_phi, sin_phi = np.cos(phi), np.sin(phi)
    cos_phi = np.copysign(np.abs(cos_phi)[rep], cos_phi)
    sin_phi = np.copysign(np.abs(sin_phi)[rep], sin_phi)
    st, ct = np.sin(theta)[:, None], np.cos(theta)[:, None]
    arrays = (theta, phi, st * cos_phi, st * sin_phi, np.repeat(ct, n_phi, axis=1))
    for arr in arrays:
        arr.flags.writeable = False
    return arrays + (int(rep.max()) + 1,)


@functools.lru_cache(maxsize=4)
def _patch_steps(n_theta: int, n_phi: int):
    """Read-only column of the refinement patch half-widths h of the
    n_theta x n_phi grid: one grid step, divided by _PATCH_SHRINK per level
    while above _PATCH_STEP_TOL."""
    steps, h = [], max(math.pi / (n_theta - 1), 2.0 * math.pi / (n_phi - 1))
    while h > _PATCH_STEP_TOL:
        steps.append(h)
        h /= _PATCH_SHRINK
    column = np.array(steps)[:, None]
    column.flags.writeable = False
    return column


def _atanh_ratio(r: float, w: float, root_u: float, d: float) -> float:
    """k(r) = atanh(r) / r (1 at r = 0) at r = root_u / w, d = w^2 - u.

    Up to r = 1/2 it is atanh(r) / r as such; above, from the log form
    atanh(r) = log(w + sqrt(u)) - log(w^2 - u) / 2, whose w^2 - u the
    caller forms without cancellation, so that it keeps its precision as
    r -> 1.  Near r = 0 a log form would lose it instead.
    """
    if r <= 0.5:
        return math.atanh(r) / r if r else 1.0
    return (math.log(w + root_u) - 0.5 * math.log(d)) / r


def _polar_slope(
    theta: float, r00: float, r11: float, r22: float, r33: float,
    a3: float, b3: float, t33: float, t_perp: float,
):
    """A number with the sign of ds/dtheta, the slope of the polar-angle
    objective s of `_discord_x` at theta in [0, pi/2], or None where a
    live outcome is pure (r = 1) and the slope is undefined.

    With c = cos theta, each outcome +-1 has weight w = 1 +- a3 c, squared
    conditional Bloch length r^2 = u / w^2, u = T_perp^2 (1 - c^2) + m^2,
    m = b3 +- T33 c, and adds w/2 h(r), h(r) = H((1 + r)/2), with
    h'(r) = -atanh(r) / ln 2 and h''(r) = -1 / (ln 2 (1 - r^2)); below,
    k(r) = atanh(r) / r (1 at r = 0) and log is the natural logarithm.
    ds/dc = sum over the outcomes of +-(a3/2) h(r) - w/(2 ln 2) atanh(r) r',
    and ds/dtheta = -sin(theta) ds/dc.  This returns -2 ln 2 ds/dc, the
    sum of +-1/2 a3 log(1 - r^2) + k(r) (+-T33 m - T_perp^2 c) / w.
    - At theta = 0, ds/dtheta = 0 and d2s/dtheta2 = -ds/dc, so the value
      is positive where the pole is a strict local minimum.
    - At theta = pi/2, where the slope is 0, s is even in c, so
      d2s/dtheta2 = d2s/dc2 at c = 0.  There both weights are 1 and
      u0 = T_perp^2 + b3^2 = r^2, and this returns -ln 2 u0 d2s/dc2,
      k(r) T_perp^2 (T33^2 - u0) + (T33 b3 - a3 u0)^2 / (1 - u0), whose
      sign is that of the slope just below pi/2: negative where pi/2 is a
      strict local minimum.

    Nothing is formed from 1 +- a3 c, which cancels near purity.  With
    s2 = sin^2(theta/2), the + outcome has w = 2 (r00 + r11) - 2 a3 s2,
    m = 2 (r00 - r11) - 2 T33 s2, w + m = 4 r00 - 4 (r00 - r22) s2 and
    w - m = 4 r11 - 4 (r11 - r33) s2; the - outcome w = 2 (r22 + r33) +
    2 a3 s2, m = 2 (r22 - r33) + 2 T33 s2, w + m = 4 r22 + 4 (r00 - r22) s2
    and w - m = 4 r33 + 4 (r11 - r33) s2 (its m is b3 - T33 c, so its
    term takes -m); and w^2 - u = (w - m)(w + m) - T_perp^2 sin^2 theta,
    which is w^2 (1 - r^2).  A dead outcome (w not above _LIVE_Q), which
    the objective leaves out, adds nothing.
    """
    tt = t_perp * t_perp
    if theta == 0.5 * math.pi:
        # 1 - u = (1 - b3)(1 + b3) - T_perp^2, both weights 1
        u = tt + b3 * b3
        d = 4.0 * (r00 + r22) * (r11 + r33) - tt
        if not d > 0.0:
            return None
        r = math.sqrt(u)
        return _atanh_ratio(r, 1.0, r, d) * tt * (t33 * t33 - u) + (t33 * b3 - a3 * u) ** 2 / d
    s2 = math.sin(0.5 * theta) ** 2
    trans = tt * math.sin(theta) ** 2
    ttc = tt * math.cos(theta)
    slope = 0.0
    for sign, w, m, w_plus_m, w_minus_m in (
        (1.0, 2.0 * (r00 + r11) - 2.0 * a3 * s2, 2.0 * (r00 - r11) - 2.0 * t33 * s2,
         4.0 * r00 - 4.0 * (r00 - r22) * s2, 4.0 * r11 - 4.0 * (r11 - r33) * s2),
        (-1.0, 2.0 * (r22 + r33) + 2.0 * a3 * s2, 2.0 * (r22 - r33) + 2.0 * t33 * s2,
         4.0 * r22 + 4.0 * (r00 - r22) * s2, 4.0 * r33 + 4.0 * (r11 - r33) * s2),
    ):
        if not w > _LIVE_Q:
            continue
        d = w_minus_m * w_plus_m - trans
        if not d > 0.0:
            return None
        root_u = math.sqrt(trans + m * m)
        k = _atanh_ratio(root_u / w, w, root_u, d)
        slope += 0.5 * sign * a3 * math.log(d / (w * w)) + k * (sign * t33 * m - ttc) / w
    return slope


def _slope_search(s_cond, c: float, s_c, g_c: float, f: float, g_f, entries) -> float:
    """A local minimum of the objective s_cond between c and f, where the
    slope g_c of `_polar_slope` (at the X entries `entries`) at c points
    down towards f.

    Where g_f, the slope at f, points back towards c, the bracket narrows
    on slopes alone: false position alternating with bisection.  Where g_f
    is None, midpoints decide by value (s_c is s_cond(c), read only here):
    one lower than c replaces c and one no lower replaces f, until a
    midpoint's slope points back towards c and brackets a root.  Ends at
    a bracket at most _ROOT_STEP_TOL wide, at its false-position point (at
    c where no root was bracketed), or at a probe where the slope is 0 or
    undefined.
    """
    bisect = True
    while abs(f - c) > _ROOT_STEP_TOL:
        bisect = g_f is None or not bisect
        m = 0.5 * (c + f) if bisect else c - g_c * (f - c) / (g_f - g_c)
        g = _polar_slope(m, *entries)
        if g is None or g == 0.0:
            return m
        if (g < 0.0) != (g_c < 0.0):
            f, g_f = m, g
        elif g_f is not None:
            c, g_c = m, g
        else:
            s_m = s_cond(m)
            if s_m < s_c:
                c, s_c, g_c = m, s_m, g
            else:
                f = m
    return c if g_f is None else c - g_c * (f - c) / (g_f - g_c)


def _polar_minimum(s_cond, entries) -> tuple[float, float]:
    """The minimum over theta in [0, pi/2] of the polar-angle objective
    s_cond of `_discord_x`, and its theta; `entries` are the X entries
    (r00, r11, r22, r33, a3, b3, T33, T_perp) that `_polar_slope` takes.

    s >= 0, so a value of 0.0 at the pole is kept with no other read.  The
    grid is _X_THETA_GRID, with a ladder of angles inserted after the pole
    where T_perp > 0 and the objective bends far inside the first step:
    from _PURE_POLE_RUNG where a live outcome is pure at the pole (a
    minimum from the right, with the other outcome mixed), and otherwise
    from w / T_perp where an outcome's weight w at the pole is below
    _ENDPOINT_LIVE_MARGIN; its rungs grow by _LADDER_FACTOR up to the first
    step.  The first grid minimum is kept when its value is 0.0, when its
    slope is undefined (a live outcome is pure) or 0, at the pole where a
    positive slope makes it a minimum from the right, and at pi/2 where a
    negative one makes it a minimum from the left.  Otherwise the slope at
    the neighbouring grid point on the downhill side decides: an undefined
    one keeps the grid minimum, and one call to `_slope_search` takes the
    minimum between the two points, on slopes where that slope points
    back, and on values where it does not, as the neighbour is no lower.
    The value is s_cond there unless the grid value is lower.
    """
    best_val = s_cond(0.0)
    if best_val == 0.0:
        return 0.0, 0.0
    r00, r11, r22, r33, _, _, _, t_perp = entries
    grid, weight = _X_THETA_GRID, 2.0 * min(r00 + r11, r22 + r33)
    rung = grid[1]  # no ladder
    if t_perp > 0.0:
        products = r00 * r11, r22 * r33
        if weight > _LIVE_Q and min(products) <= 0.0 < max(products):
            rung = _PURE_POLE_RUNG
        elif 0.0 < weight < _ENDPOINT_LIVE_MARGIN:
            rung = weight / t_perp
    if rung < grid[1]:
        ladder = []
        while rung < grid[1]:
            ladder.append(rung)
            rung *= _LADDER_FACTOR
        grid = (0.0, *ladder, *grid[1:])
    # first minimum of the grid: a tie keeps the smaller theta
    i = 0
    for k in range(1, len(grid)):
        value = s_cond(grid[k])
        if value < best_val:
            best_val, i = value, k
    best_theta = grid[i]
    if best_val == 0.0:
        return best_val, best_theta
    g = _polar_slope(best_theta, *entries)
    if g is None or g == 0.0:
        return best_val, best_theta
    j = i + 1 if g < 0.0 else i - 1
    if not 0 <= j < len(grid):
        return best_val, best_theta
    g_j = _polar_slope(grid[j], *entries)
    if g_j is None:
        return best_val, best_theta
    theta = _slope_search(s_cond, best_theta, best_val, g, grid[j],
                          g_j if (g_j < 0.0) != (g < 0.0) else None, entries)
    value = s_cond(theta)
    return (value, theta) if value < best_val else (best_val, best_theta)


def _block_eigenvalues(d1: float, d2: float, off: complex) -> tuple[float, float]:
    """Eigenvalues of the Hermitian 2x2 block [[d1, off], [conj(off), d2]]."""
    mean = 0.5 * (d1 + d2)
    radius = math.hypot(0.5 * (d1 - d2), abs(off))
    return mean + radius, mean - radius


def _discord_x(
    r00: float, r11: float, r22: float, r33: float, c03: float, c12: float
) -> tuple[float, float]:
    """Discord of the real X state with populations r00..r33 and
    coherences c03 = rho_03, c12 = rho_12, measured on the first qubit,
    and the polar angle theta* of the optimal measurement.

    With a3 = <Z x 1>, b3 = <1 x Z>, T33 = <Z x Z> and the transverse
    correlations 2 (c03 + c12), 2 (c12 - c03), measuring along
    (sin t cos f, sin t sin f, cos t) leaves the second qubit with Bloch
    length |v+-| / (1 +- a3 cos t), where
    |v+-|^2 = sin^2 t (T11^2 cos^2 f + T22^2 sin^2 f) + (b3 +- T33 cos t)^2.
    The entropy falls as that length grows, so the minimum over f lies on
    the meridian of the larger transverse correlation,
    T_perp = 2 (|c03| + |c12|); d -> -d swaps the two outcomes, so
    t in [0, pi/2] suffices.  `_polar_minimum` takes the minimum over t
    from one coarse grid (with a ladder of angles next to the pole where
    the objective bends far inside its first step) and the sign of the
    objective's slope: theta* is the grid minimum where its value is 0 or
    the slope there marks a local minimum, and otherwise where the search
    between it and the grid point on its downhill side ends: at a root of
    the slope, or at a midpoint where a live outcome is pure.
    """
    a3 = r00 + r11 - r22 - r33
    b3 = r00 - r11 + r22 - r33
    t33 = r00 - r11 - r22 + r33
    t_perp = 2.0 * (abs(c03) + abs(c12))
    cos, sin, sqrt, log2 = math.cos, math.sin, math.sqrt, math.log2

    def s_cond(theta: float) -> float:
        # binary_entropy written out: x = (1 - r)/2 lies in (0, 1/2] for
        # r < 1, a pure conditional (r >= 1) contributes exactly 0, and a
        # NaN length raises as binary_entropy would.  The two outcomes
        # (1 +- a3 cos t, b3 +- T33 cos t) are written out rather than
        # looped over a sign: negation is exact, so the bits are those of
        # the loop, and the dephasing_dynamics benchmark ran about 1.1x
        # faster.  (...) ** 2 stays: float ** calls libm pow, which differed
        # from x * x in 2527 of 3e6 uniform doubles in [0, 1) on glibc
        cos_t = cos(theta)
        ac = a3 * cos_t
        tc = t33 * cos_t
        trans = (t_perp * sin(theta)) ** 2
        total = 0.0
        weight = 1.0 + ac  # twice the outcome probability
        if weight > _LIVE_Q:
            r = sqrt(trans + (b3 + tc) ** 2) / weight
            if r < 1.0:
                x = 0.5 - 0.5 * r
                y = 1.0 - x
                total += 0.5 * weight * (-x * log2(x) - y * log2(y))
            elif r != r:
                raise DomainError(f"conditional Bloch length is NaN at theta {theta}")
        weight = 1.0 - ac
        if weight > _LIVE_Q:
            r = sqrt(trans + (b3 - tc) ** 2) / weight
            if r < 1.0:
                x = 0.5 - 0.5 * r
                y = 1.0 - x
                total += 0.5 * weight * (-x * log2(x) - y * log2(y))
            elif r != r:
                raise DomainError(f"conditional Bloch length is NaN at theta {theta}")
        return total

    val, theta = _polar_minimum(s_cond, (r00, r11, r22, r33, a3, b3, t33, t_perp))
    s_ab = 0.0
    for lam in _block_eigenvalues(r00, r33, c03) + _block_eigenvalues(r11, r22, c12):
        if lam > 0.0:
            s_ab -= lam * math.log2(lam)
    return binary_entropy(min(r00 + r11, r22 + r33)) + val - s_ab, theta


def discord_brute_force(
    state: TwoQubitState, grid: tuple[int, int] = DEFAULT_GRID
) -> CorrelationReport:
    """Correlation report with the conditional-entropy minimum found by an
    exhaustive scan over projective measurement directions.

    Fully independent of the closed forms: the entropies come from the
    dense eigensolver through the eigenvalue-to-entropy step of
    `von_neumann_entropy` (S(AB) from the `spectrum` the state's
    construction checked, S(A) and S(B) from one `eigvalsh` call on both
    marginals), the minimum from direct evaluation of the measurement
    average and the concurrence from the matrix entries (`concurrence_x`).

    `grid` = (n_theta, n_phi) sets the steps of the theta-phi grid
    linspace(0, pi, n_theta) x linspace(0, 2 pi, n_phi) (default 181 x 361,
    floor 64 x 128, at most MAX_GRID_DIRECTIONS points; a whole float such
    as 181.0 is accepted, 181.5 or NaN is a domain error).  Since d and -d
    give the same average, only the rows theta <= pi/2 are evaluated; the
    first minimum in (theta, phi) order is kept.  It is refined on local
    patches of 9 x 9 directions spanning +-h along the unit tangents of the
    grid minimum, h starting at one grid step and divided by 4 per level
    down to 1e-9 rad (13 levels at the default grid); a patch point
    replaces the best only if strictly lower, and the levels are taken in
    order.  A level that does not improve leaves the centre in place, so
    the patches of all remaining levels are evaluated in one field call,
    and only a level that improves calls again for the levels after it.
    A direction tied with the equatorial one within _TIE_TOL (1e-12) is
    reported as the canonical (pi/2, 0), and one tied with its phi = 0
    counterpart gets phi = 0, so flat objectives (pure states) resolve
    deterministically.
    Every refinement call also evaluates those two tie directions, at the
    theta of the best direction when it is made; only when the last call
    moved theta and the equatorial rule does not fire is the phi = 0 one
    evaluated again.  A scan of a pair state makes about 3 field calls in
    all, one of a random full-rank state about 12.

    The kernel is chosen once per scan, from the table: a table zero in
    every slot of _OFF_REAL_X, that of a real X state (pair and dephased
    states), takes `_x_field` for every call, any other table
    `_cond_entropy_field`.  The two give the same bits.  A real X
    state reads a direction only through (R[1,1] d1)^2 and (R[2,2] d2)^2,
    so its grid call evaluates only the representative columns of
    `_direction_grid` (91 of 361 by default), whose |d1| and |d2| are
    bitwise those of every column they fold onto.  Each representative is
    the first column of its orbit, so the first minimum of the folded grid
    is the cell of the full one.
    """
    n_theta, n_phi = grid
    if not (_is_whole(n_theta) and _is_whole(n_phi)):
        raise DomainError(f"scan grid sizes must be whole numbers, got {grid}")
    n_theta, n_phi = int(n_theta), int(n_phi)
    if n_theta < 64 or n_phi < 128:
        raise DomainError(f"scan grid must be at least 64 x 128, got {grid}")
    if n_theta * n_phi > MAX_GRID_DIRECTIONS:
        raise DomainError(
            f"scan grid must have at most {MAX_GRID_DIRECTIONS} points, got {grid}"
        )
    table = bloch_matrix(state)
    # one kernel for every field call of the scan
    field = _cond_entropy_field if table[_OFF_REAL_X].any() else _x_field
    theta, phi, *grid_dirs, n_rep = _direction_grid(n_theta, n_phi)
    if field is _x_field:
        # a column's values are bitwise those of its representative, and
        # the representatives are the first columns of their orbits
        grid_dirs = [d[:, :n_rep] for d in grid_dirs]
    values = field(table, *grid_dirs)
    # first occurrence: lexicographic (theta, phi), on the folded grid too
    i, j = divmod(int(np.argmin(values)), values.shape[1])
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
    tangent = np.outer([ct * cp, ct * sp, -st], _PATCH_U) + np.outer([-sp, cp, 0.0], _PATCH_V)
    steps = _patch_steps(n_theta, n_phi)
    # a level that does not improve leaves the centre in place, so the
    # patches of every remaining level are evaluated in one call; the first
    # level that improves moves the centre, and the levels after it are
    # evaluated again around the new one.  Each call also evaluates the
    # tie-rule directions (pi/2, 0) and (tie_theta, 0), tie_theta the best
    # theta when it was made
    level = 0
    while level < len(steps):
        patches = best_dir[:, None, None] + steps[level:] * tangent[:, None, :]
        patches /= np.linalg.norm(patches, axis=0)
        tie_theta = best_theta
        ties = [
            [math.sin(th) for th in (math.pi / 2.0, tie_theta)],
            [0.0, 0.0],
            [math.cos(th) for th in (math.pi / 2.0, tie_theta)],
        ]
        vals = field(table, *np.concatenate((patches.reshape(3, -1), ties), axis=1))
        equatorial, at_phi0 = vals[-2:].tolist()
        patch_vals = vals[:-2].reshape(patches.shape[1:])
        better = np.flatnonzero(patch_vals.min(axis=1) < best_val)
        if not better.size:
            break
        j = int(better[0])
        k = int(np.argmin(patch_vals[j]))
        best_val = float(patch_vals[j, k])
        best_dir = patches[:, j, k]
        x, y, z = best_dir.tolist()
        best_theta, best_phi = math.atan2(math.hypot(x, y), z), math.atan2(y, x)
        level += j + 1

    if equatorial <= best_val + _TIE_TOL:
        best_theta, best_phi = math.pi / 2.0, 0.0
        best_val = min(best_val, equatorial)
    else:
        if best_theta != tie_theta:  # the last call moved theta
            at_phi0 = float(field(
                table,
                np.float64(math.sin(best_theta)),
                np.float64(0.0),
                np.float64(math.cos(best_theta)),
            ))
        if at_phi0 <= best_val + _TIE_TOL:  # flat phi direction
            best_phi = 0.0
            best_val = min(best_val, at_phi0)
    best_phi %= 2.0 * math.pi

    # both marginal spectra from one eigensolver call; the marginals of a
    # validated state need no checks of their own
    rho_a, rho_b = marginals(state)
    s_a, s_b = map(_spectrum_entropy, np.linalg.eigvalsh(np.stack((rho_a, rho_b))))
    s_ab = _spectrum_entropy(state.spectrum)
    info = s_a + s_b - s_ab
    disc = s_a + best_val - s_ab
    return CorrelationReport(
        mutual_info=info,
        discord=disc,
        concurrence=concurrence_x(state),
        s_cond_min=best_val,
        argmin=MeasurementBasis(best_theta, best_phi),
    )


def werner_discord(n: int) -> float:
    """Pairwise discord of the n-mode single-excitation (W-type) state:
    H(1 - 1/n) + H(1/2 + sqrt(n^2 - 4n + 8)/(2n)) - H(1 - 2/n).

    Equals 1 at n = 2 and decays to zero for large n.
    """
    if not _is_whole(n) or n < 2:
        raise DomainError(f"mode count must be an integer >= 2, got {n}")
    root = math.sqrt(n * n - 4.0 * n + 8.0) / n
    return (
        binary_entropy(1.0 - 1.0 / n)
        + binary_entropy(0.5 + 0.5 * root)
        - binary_entropy(1.0 - 2.0 / n)
    )
