"""The blocked conditional-entropy kernel against the formula it replaced.

`_cond_entropy_field` evaluates the scan's objective in fixed blocks of
directions, with the two measurement outcomes stacked and every step done
in place.  `reference_field` and `reference_h2` below are the per-outcome
formula it replaced, unchanged but for the names: the kernel must return the same bits
for every input shape it serves (the scan grid, the refinement patch and
the scalar tie-rule calls).
"""

import tracemalloc

import numpy as np

from catcorr import (
    Parity,
    SuperpositionSpec,
    TwoQubitState,
    bloch_matrix,
    discord_brute_force,
    reduced_rho12,
    werner_limit_state,
)
from catcorr.correlations import _FIELD_BLOCK, _cond_entropy_field, _direction_grid
from catcorr.states import PAULI


def reference_h2(x):
    # vectorized binary entropy, inputs assumed near [0, 1]
    x = np.clip(np.asarray(x, dtype=float), 0.0, 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        raw = -x * np.log2(x) - (1.0 - x) * np.log2(1.0 - x)
    return np.where((x <= 0.0) | (x >= 1.0), 0.0, raw)


def reference_field(table, d1, d2, d3):
    total = 0.0
    for sign in (1.0, -1.0):
        u = sign * (table[1, 0] * d1 + table[2, 0] * d2 + table[3, 0] * d3)
        weight = 0.5 * (1.0 + u)
        v1 = table[0, 1] + sign * (table[1, 1] * d1 + table[2, 1] * d2 + table[3, 1] * d3)
        v2 = table[0, 2] + sign * (table[1, 2] * d1 + table[2, 2] * d2 + table[3, 2] * d3)
        v3 = table[0, 3] + sign * (table[1, 3] * d1 + table[2, 3] * d2 + table[3, 3] * d3)
        with np.errstate(divide="ignore", invalid="ignore"):
            r = np.sqrt(v1 * v1 + v2 * v2 + v3 * v3) / np.abs(1.0 + u)
        live = weight > 1e-15
        r = np.where(live, np.minimum(r, 1.0), 0.0)
        total = total + np.where(live, weight, 0.0) * reference_h2(0.5 + 0.5 * r)
    return total


def bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


def random_full_rank_state(rng):
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    m = g @ g.conj().T
    return TwoQubitState(m / m.trace().real)


def kernel_states(rng):
    states = [random_full_rank_state(rng) for _ in range(8)]
    for p, n in ((0.3, 2), (0.7, 5), (0.999, 4)):
        for parity in Parity:
            states.append(reduced_rho12(SuperpositionSpec(p, parity, n)))
    # Bell state: every conditional state is pure, so x rounds to 1 at
    # almost every direction
    states.append(werner_limit_state(2))
    # |00><00| measured along z: the second outcome has weight 0
    ground = np.zeros((4, 4), dtype=complex)
    ground[0, 0] = 1.0
    states.append(TwoQubitState(ground))
    states.append(TwoQubitState(np.eye(4, dtype=complex) / 4.0))
    return states


def direction_sets(rng):
    patch = rng.normal(size=(3, 81))
    patch /= np.linalg.norm(patch, axis=0)
    scalars = [tuple(np.float64(c) for c in patch[:, k]) for k in range(3)]
    return [
        _direction_grid(181, 361)[2:],
        _direction_grid(65, 129)[2:],
        tuple(patch),
    ] + scalars


def test_field_matches_per_outcome_reference_bitwise(rng):
    # the default half grid and 33 x 129 both end in a shorter block
    assert (91 * 361) % _FIELD_BLOCK and (33 * 129) % _FIELD_BLOCK
    for state in kernel_states(rng):
        table = bloch_matrix(state)
        for directions in direction_sets(rng):
            new = _cond_entropy_field(table, *directions)
            ref = reference_field(table, *directions)
            assert np.shape(new) == np.shape(ref)
            assert np.array_equal(bits(new), bits(ref))


def test_bloch_matrix_matches_trace_loop_bitwise(rng):
    pairs = [[np.kron(a, b) for b in PAULI] for a in PAULI]
    states = kernel_states(rng) + [random_full_rank_state(rng) for _ in range(200)]
    for p in np.linspace(0.01, 0.99, 25):
        for parity in Parity:
            states.append(reduced_rho12(SuperpositionSpec(float(p), parity, 3)))
    for state in states:
        loop = np.empty((4, 4))
        for a in range(4):
            for b in range(4):
                loop[a, b] = np.trace(state.matrix @ pairs[a][b]).real
        assert np.array_equal(bits(bloch_matrix(state)), bits(loop))


def test_scan_memory_does_not_grow_with_the_grid(rng):
    # the cached directions are kept between scans and are not counted; the
    # scan itself should need its 500 x 1999 field (8 MB) plus one block
    grid = (1000, 1999)
    _direction_grid(*grid)
    state = random_full_rank_state(rng)
    tracemalloc.start()
    try:
        discord_brute_force(state, grid=grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16e6
