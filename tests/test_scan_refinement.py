"""The batched patch refinement of the scan against the loop it replaced.

`discord_brute_force` evaluates the refinement patches of every remaining
level in one field call and evaluates again only after a level improves.
Each of those calls also evaluates the two tie-rule directions, and every
call of a pair or dephased state goes through `_x_field`.
`reference_brute_force` below is the scan with one field call per level,
unchanged but for the name and its return value: the scan must return the
same bits on every state.
"""

import math

import numpy as np

from catcorr import (
    DephasingChannel,
    MeasurementBasis,
    Parity,
    SuperpositionSpec,
    TwoQubitState,
    apply_dephasing,
    bloch_matrix,
    discord_brute_force,
    marginals,
    reduced_rho12,
    von_neumann_entropy,
)
from catcorr import correlations
from catcorr.correlations import (
    DEFAULT_GRID,
    _PATCH_POINTS,
    _PATCH_SHRINK,
    _PATCH_STEP_TOL,
    _cond_entropy_field,
    _direction_grid,
    _spectrum_entropy,
)
from catcorr.states import PAULI
from conftest import random_full_rank_state

GRIDS = ((181, 361), (64, 128))


def reference_brute_force(state, grid):
    n_theta, n_phi = grid
    table = bloch_matrix(state)
    theta, phi, d1, d2, d3, _ = _direction_grid(n_theta, n_phi)
    values = _cond_entropy_field(table, d1, d2, d3)
    flat = int(np.argmin(values))  # first occurrence: lexicographic (theta, phi)
    i, j = divmod(flat, n_phi)
    best_theta, best_phi = float(theta[i]), float(phi[j])
    best_val = float(values[i, j])

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

    # the tie-rule directions (pi/2, 0) and (best_theta, 0) in one call
    tie_theta = (math.pi / 2.0, best_theta)
    equatorial, at_phi0 = _cond_entropy_field(
        table,
        np.array([math.sin(th) for th in tie_theta]),
        np.zeros(2),
        np.array([math.cos(th) for th in tie_theta]),
    ).tolist()
    if equatorial <= best_val + 1e-12:
        best_theta, best_phi = math.pi / 2.0, 0.0
        best_val = min(best_val, equatorial)
    elif at_phi0 <= best_val + 1e-12:  # flat phi direction
        best_phi = 0.0
        best_val = min(best_val, at_phi0)
    best_phi %= 2.0 * math.pi

    # the marginals of a checked state are not checked again: their
    # eigenvalues can reach -2 PSD_TOL on a state that passed
    rho_a, rho_b = marginals(state)
    s_a = _spectrum_entropy(np.linalg.eigvalsh(rho_a))
    s_b = _spectrum_entropy(np.linalg.eigvalsh(rho_b))
    s_ab = von_neumann_entropy(state)
    info = s_a + s_b - s_ab
    disc = s_a + best_val - s_ab
    return disc, best_val, best_theta, best_phi, info


def scan_bits(state, grid):
    rep = discord_brute_force(state, grid=grid)
    fields = (rep.discord, rep.s_cond_min, rep.argmin.theta, rep.argmin.phi, rep.mutual_info)
    return [float(x).hex() for x in fields]


def seeded_pair_specs(rng, count):
    for _ in range(count):
        parity = Parity.EVEN if rng.integers(2) else Parity.ODD
        yield SuperpositionSpec(float(rng.uniform(0.0, 1.0)), parity, int(rng.integers(2, 9)))


def pole_rotated_states(rng):
    # the construction of test_brute_force_finds_minima_near_the_poles:
    # rotate the first qubit so that the optimum sits next to a pole
    for _ in range(4):
        state = random_full_rank_state(rng)
        d_opt = np.array(discord_brute_force(state).argmin.direction())
        for target_theta in (1e-3, 0.02, 0.05, math.pi - 0.02):
            target_phi = rng.uniform(0.0, 2.0 * math.pi)
            target = np.array(MeasurementBasis(target_theta, target_phi).direction())
            axis = np.cross(d_opt, target)
            angle = math.atan2(np.linalg.norm(axis), d_opt @ target)
            n_sigma = sum(c * pauli for c, pauli in zip(axis / np.linalg.norm(axis), PAULI[1:]))
            rot = math.cos(angle / 2.0) * PAULI[0] - 1j * math.sin(angle / 2.0) * n_sigma
            u = np.kron(rot, PAULI[0])
            m = u @ state.matrix @ u.conj().T
            yield TwoQubitState(0.5 * (m + m.conj().T))


def edge_states():
    ground = np.zeros((4, 4), dtype=complex)
    ground[0, 0] = 1.0
    return [
        TwoQubitState(ground),
        reduced_rho12(SuperpositionSpec(1.0, Parity.ODD, 2)),  # Bell state
        TwoQubitState(np.eye(4, dtype=complex) / 4.0),
        # accepted within PSD_TOL; the first marginal has the eigenvalue
        # -1.8e-10, which a PSD check of its own would refuse
        TwoQubitState(np.diag([0.5 + 0.9e-10, 0.5 + 0.9e-10, -0.9e-10, -0.9e-10]).astype(complex)),
    ]


def ends_on_an_improving_level():
    """A dephased pair state whose default-grid scan improves at the last
    refinement level, away from the equator: the (theta, 0) value of that
    call's tie directions is stale, and the scan evaluates it again."""
    return apply_dephasing(
        reduced_rho12(SuperpositionSpec(0.9, Parity.EVEN, 3)),
        DephasingChannel.from_gamma(0.2),
    )


def counted_field_calls(monkeypatch):
    """Patch both field kernels to log (kernel, directions) per call."""
    calls = []
    for name in ("_x_field", "_cond_entropy_field"):
        def counted(table, d1, *rest, _name=name, _field=getattr(correlations, name)):
            calls.append((_name, np.size(d1)))
            return _field(table, d1, *rest)

        monkeypatch.setattr(correlations, name, counted)
    return calls


def test_batched_refinement_matches_sequential_loop_bitwise(rng):
    pairs = [reduced_rho12(s) for s in seeded_pair_specs(rng, 60)]
    dephased = [
        apply_dephasing(reduced_rho12(s), DephasingChannel.from_gamma(float(rng.random())))
        for s in seeded_pair_specs(rng, 30)
    ]
    # a scan minimum 3.2e-10 below the equatorial value, at theta = 1.5232:
    # outside the tie rule's 1e-12, so it is not reported as (pi/2, 0)
    dephased.append(
        apply_dephasing(
            reduced_rho12(SuperpositionSpec(0.846, Parity.EVEN, 4)),
            DephasingChannel.from_gamma(0.33481787109375005),
        )
    )
    dephased.append(ends_on_an_improving_level())
    states = pairs + dephased + list(pole_rotated_states(rng)) + edge_states()
    states += [random_full_rank_state(rng) for _ in range(200)]
    for state in states:
        for grid in GRIDS:
            ref = [float(x).hex() for x in reference_brute_force(state, grid)]
            assert scan_bits(state, grid) == ref, (state.matrix, grid)


def test_pair_state_scan_makes_few_field_calls(rng, monkeypatch):
    # the grid and one batched refinement call per improving level, which
    # also evaluates the tie-rule directions; the sequential loop made 15
    # calls at the default grid
    calls = counted_field_calls(monkeypatch)
    per_scan = []
    for spec in seeded_pair_specs(rng, 100):
        calls.clear()
        discord_brute_force(reduced_rho12(spec))
        assert calls[0][0] == "_x_field"
        per_scan.append(len(calls))
    assert max(per_scan) <= 5
    assert sum(per_scan) / len(per_scan) <= 3.18


def test_scan_diagonalizes_only_the_marginals(rng, monkeypatch):
    # S(AB) reads the spectrum the state's construction checked; both
    # marginal spectra come from one stacked call
    states = [reduced_rho12(SuperpositionSpec(0.6, Parity.ODD, 3)), random_full_rank_state(rng)]
    solver, shapes = np.linalg.eigvalsh, []

    def counted(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return solver(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    for state in states:
        shapes.clear()
        discord_brute_force(state)
        assert shapes == [(2, 2, 2)]


def test_scan_ending_on_an_improving_level_evaluates_the_phi0_tie_again(monkeypatch):
    calls = counted_field_calls(monkeypatch)
    discord_brute_force(ends_on_an_improving_level())
    assert calls[-1] == ("_x_field", 1)
    # pair states end on the equator, where the tie rule needs no new call
    calls.clear()
    discord_brute_force(reduced_rho12(SuperpositionSpec(0.9, Parity.EVEN, 3)))
    assert calls[-1][1] > 81


def test_patch_levels_hold_the_step_tolerance_on_both_sides(monkeypatch):
    # the default grid's 13th patch half-width is pi/180 / 4^12, about
    # 1.04e-9: a _PATCH_STEP_TOL 1% above it leaves 12 levels, 1% below 13
    last = math.pi / 180.0 / _PATCH_SHRINK**12
    assert correlations._patch_steps(*DEFAULT_GRID)[-1, 0] == last
    try:
        for factor, levels in ((1.01, 12), (0.99, 13)):
            monkeypatch.setattr(correlations, "_PATCH_STEP_TOL", factor * last)
            correlations._patch_steps.cache_clear()
            assert len(correlations._patch_steps(*DEFAULT_GRID)) == levels
    finally:
        monkeypatch.undo()
        correlations._patch_steps.cache_clear()
