"""The scan's field routine against the formula it replaced.

`reference_field` and `reference_h2` in conftest.py are the per-outcome
formula that `_field` now evaluates in blocks of rows, unchanged but for
the names.  `_field` must return its bits with either term function on
every input the scan serves, in the scan's one layout (d1 and d2 rows x
columns, d3 one column): the grid, the refinement patches with the two
tie-rule directions, those two directions alone, and single directions,
one per row.  `_general_terms` is held to it on every table, `_x_terms`
on the tables of real X states.  The scan picks one term function per
state.  The two share their last step, `_outcome_entropy`, so each is
held to the reference, never to the other.
"""

import sys
import threading
import tracemalloc

import numpy as np
import pytest

from catcorr import (
    DephasingChannel,
    Parity,
    SuperpositionSpec,
    TwoQubitState,
    apply_dephasing,
    bloch_matrix,
    discord_brute_force,
    reduced_rho12,
)
from catcorr.correlations import (
    _FIELD_BLOCK,
    _LIVE_Q,
    _OFF_REAL_X,
    _direction_grid,
    _discord_x,
    _field,
    _general_terms,
    _x_terms,
)
from catcorr.states import PAULI
from conftest import counted_field_calls, random_full_rank_state, reference_field


def bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


def kernel_states(rng):
    states = [random_full_rank_state(rng) for _ in range(8)]
    for p, n in ((0.3, 2), (0.7, 5), (0.999, 4)):
        for parity in Parity:
            states.append(reduced_rho12(SuperpositionSpec(p, parity, n)))
    # Bell state: every conditional state is pure, so x rounds to 1 at
    # almost every direction
    states.append(reduced_rho12(SuperpositionSpec(1.0, Parity.ODD, 2)))
    # |00><00| measured along z: the second outcome has weight 0
    ground = np.zeros((4, 4), dtype=complex)
    ground[0, 0] = 1.0
    states.append(TwoQubitState(ground))
    # the same state mixed with 1e-11 of white noise: along +z the second
    # outcome has probability 5e-12, above the dead-outcome threshold of 1e-15
    states.append(TwoQubitState((1.0 - 1e-11) * ground + 1e-11 * np.eye(4) / 4.0))
    states.append(TwoQubitState(np.eye(4, dtype=complex) / 4.0))
    pair = reduced_rho12(SuperpositionSpec(0.6, Parity.EVEN, 3))
    states += rotated_and_complex_x(pair)
    # dephasing raises the pair to rank 4
    states.append(apply_dephasing(pair, DephasingChannel.from_gamma(0.4)))
    return states


def rotated_and_complex_x(pair):
    """The pair state rotated about z on the first qubit, which has two
    nonzero coefficients in the transverse columns, and one with complex
    coherences, which make R[1,2] and R[2,1] nonzero: X states whose
    tables are not those of a real X state."""
    turn = np.kron(np.diag([1.0, np.exp(0.7j)]), np.eye(2))
    complex_x = pair.matrix.copy()
    complex_x[0, 3] *= np.exp(0.4j)
    complex_x[3, 0] = np.conj(complex_x[0, 3])
    complex_x[1, 2] *= np.exp(-1.1j)
    complex_x[2, 1] = np.conj(complex_x[1, 2])
    return [TwoQubitState(turn @ pair.matrix @ turn.conj().T), TwoQubitState(complex_x)]


def signed_zero_tables():
    """X tables with every zero slot set to -0.0, so the offsets R[0,1] and
    R[0,2] are -0.0, and copies with one column of coefficients all zero."""
    tables = []
    for spec in (SuperpositionSpec(0.7, Parity.ODD, 5), SuperpositionSpec(1.0, Parity.ODD, 2)):
        table = np.array(bloch_matrix(reduced_rho12(spec)))
        table[table == 0.0] = -0.0
        tables.append(table)
        for b, zero in ((0, -0.0), (1, 0.0), (3, -0.0)):
            flat = table.copy()
            flat[1:, b] = zero
            tables.append(flat)
    return tables


def direction_sets(rng):
    patch = rng.normal(size=(3, 81))
    patch /= np.linalg.norm(patch, axis=0)
    singles = [tuple(patch[:, k:k + 1, None]) for k in range(3)]
    return [
        _direction_grid(181, 361)[2:5],
        _direction_grid(65, 129)[2:5],
        tuple(patch[:, :, None]),
    ] + singles


def test_field_matches_per_outcome_reference_bitwise(rng):
    # the default half grid ends in a shorter block of rows
    assert 91 % (_FIELD_BLOCK // 361)
    tables = [bloch_matrix(state) for state in kernel_states(rng)]
    for table in tables + signed_zero_tables():
        for directions in direction_sets(rng):
            new = _field(_general_terms, table, *directions)
            ref = reference_field(table, *directions)
            assert np.shape(new) == np.shape(ref)
            assert np.array_equal(bits(new), bits(ref))


def test_x_field_matches_per_outcome_reference_bitwise(rng):
    # 65 x 129 and the default grid end in a shorter block of rows; the
    # folded rows of 64 x 20000 are longer than a block, one row per block
    assert 33 % (_FIELD_BLOCK // 129) and 91 % (_FIELD_BLOCK // 361)
    *long_rows, _, n_rep = _direction_grid(64, 20000)[2:]
    assert n_rep == 10000 > _FIELD_BLOCK
    tables = [bloch_matrix(state) for state in kernel_states(rng)] + signed_zero_tables()
    tables = [table for table in tables if not table[_OFF_REAL_X].any()]
    assert len(tables) == 19
    patch = rng.normal(size=(3, 1053, 1))
    patch /= np.linalg.norm(patch, axis=0)
    # the tie-rule directions (pi/2, 0) and (0.4, 0), and single directions:
    # the equator, the pole and three of the patch
    tie_theta = [[np.pi / 2.0], [0.4]]
    ties = (np.sin(tie_theta), np.zeros((2, 1)), np.cos(tie_theta))
    singles = [(1.0, 0.0, 0.0), (0.0, 0.0, 1.0)] + [tuple(patch[:, k, 0]) for k in range(3)]
    direction_sets = [_direction_grid(*grid)[2:5]
                      for grid in ((64, 128), (65, 129), (181, 361), (1000, 1999))]
    direction_sets += [tuple(d[:, :n_rep] for d in long_rows), tuple(patch), ties]
    direction_sets += [tuple(np.array(single)[:, None, None]) for single in singles]
    for table in tables:
        for directions in direction_sets:
            new = _field(_x_terms, table, *directions)
            ref = reference_field(table, *directions)
            assert np.shape(new) == np.shape(ref)
            assert np.array_equal(bits(new), bits(ref)), (table, np.shape(new))


def test_field_kernels_match_reference_bitwise_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    edges = st.sampled_from((0.0, -0.0, 1.0, -1.0))

    @st.composite
    def real_x_tables(draw):
        # populations, and coherences of either sign up to the PSD bound
        pops = np.array(draw(st.lists(st.sampled_from((0.0, 1.0)) | st.floats(0.0, 1.0),
                                      min_size=4, max_size=4)))
        hypothesis.assume(pops.sum() > 0.0)
        pops /= pops.sum()
        m = np.diag(pops).astype(complex)
        for i, j in ((0, 3), (1, 2)):
            m[i, j] = m[j, i] = draw(edges | st.floats(-1.0, 1.0)) * np.sqrt(pops[i] * pops[j])
        table = np.array(bloch_matrix(TwoQubitState(m)))
        # every slot a real X state leaves zero is 0.0 or -0.0
        signs = draw(st.lists(st.booleans(), min_size=10, max_size=10))
        table[_OFF_REAL_X] = np.where(signs, -0.0, 0.0)
        return table

    @st.composite
    def direction_sets(draw):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        kind = draw(st.sampled_from(("single", "column", "grid")))
        if kind == "grid":
            grid = draw(st.integers(2, 80)), draw(st.integers(2, 700))
            return _direction_grid(*grid)[2:5]
        # one direction per row, as the refinement passes them
        size = 1 if kind == "single" else draw(st.integers(1, 2 * _FIELD_BLOCK + 3))
        d = rng.normal(size=(3, size, 1))
        # leading poles or equatorial directions, where components are zero
        axis = draw(st.sampled_from(((0, 0, 1), (0, 0, -1), (1, 0, 0), (0, 1, 0))))
        d[:, : draw(st.integers(0, size))] = np.array(axis)[:, None, None]
        d /= np.linalg.norm(d, axis=0)
        return tuple(d)

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @hypothesis.given(real_x_tables(), direction_sets())
    def check(table, directions):
        ref = reference_field(table, *directions)
        for terms in (_x_terms, _general_terms):
            new = _field(terms, table, *directions)
            assert np.shape(new) == np.shape(ref)
            assert np.array_equal(bits(new), bits(ref)), terms.__name__

    check()


def test_scan_takes_one_kernel_chosen_from_the_table(rng, monkeypatch):
    calls = counted_field_calls(monkeypatch)

    def kernels(state, grid=(181, 361)):
        calls.clear()
        discord_brute_force(state, grid=grid)
        return {name for name, _ in calls}

    pairs = [reduced_rho12(SuperpositionSpec(p, parity, n))
             for p, n in ((0.3, 2), (0.6, 3), (1.0, 5)) for parity in Parity]
    dephased = [apply_dephasing(pair, DephasingChannel.from_gamma(0.4)) for pair in pairs]
    others = rotated_and_complex_x(pairs[2]) + [random_full_rank_state(rng)]
    assert all(kernels(state) == {"_x_terms"} for state in pairs + dephased)
    assert all(kernels(state) == {"_general_terms"} for state in others)
    # at any grid: 64 x 6000 folds to rows of 3000, 64 x 20000 to rows
    # longer than one block
    assert _direction_grid(64, 6000)[-1] < _FIELD_BLOCK < _direction_grid(64, 20000)[-1]
    for grid in ((64, 6000), (64, 20000)):
        assert all(kernels(state, grid) == {"_x_terms"} for state in pairs[:2] + dephased[:1])
        assert kernels(others[0], grid) == {"_general_terms"}


# m = n_phi - 1 odd (the 2 pi - phi fold only), even but not a multiple of
# 4, a multiple of 4 (the default), odd again, and the largest test grid
FOLD_GRIDS = ((64, 128), (65, 131), (181, 361), (181, 362), (1000, 1999))


def phi_orbit(j, n_phi):
    """Column j's images under phi -> 2 pi - phi, and for even m = n_phi - 1
    also under pi - phi and pi + phi, as grid column indices."""
    m = n_phi - 1
    orbit = {j, m - j}
    if m % 2 == 0:
        orbit |= {(m // 2 - j) % m, (m // 2 + j) % m}
    return orbit


def test_grid_columns_fold_onto_their_representatives():
    counts = {128: 64, 131: 33, 361: 91, 362: 181, 1999: 500}
    for n_theta, n_phi in FOLD_GRIDS:
        theta, phi, d1, d2, d3, _, n_rep = _direction_grid(n_theta, n_phi)
        reps = [min(phi_orbit(j, n_phi)) for j in range(n_phi)]
        # the representatives are the smallest of their orbits, and the
        # folded grid is the first n_rep columns in order
        assert n_rep == counts[n_phi]
        assert sorted(set(reps)) == list(range(n_rep))
        for d in (d1, d2):
            assert np.array_equal(bits(np.abs(d)), bits(np.abs(d[:, reps])))
        # theta and phi are the plain linspace; the trig moved by ulps and
        # kept its own signs
        assert np.array_equal(bits(phi), bits(np.linspace(0.0, 2.0 * np.pi, n_phi)))
        assert np.array_equal(
            bits(theta), bits(np.linspace(0.0, np.pi, n_theta)[: (n_theta + 1) // 2]))
        st = np.sin(theta)[:, None]
        tol = 2.0 * np.spacing(2.0 * np.pi)
        for d, plain in ((d1, st * np.cos(phi)), (d2, st * np.sin(phi))):
            assert np.max(np.abs(d - plain)) <= tol
            assert np.array_equal(np.signbit(d), np.signbit(plain))
        # d3 is the cos(theta) column, one float per row
        assert np.array_equal(bits(d3), bits(np.cos(theta)[:, None]))


def test_folded_grid_call_matches_the_full_grid_bitwise():
    pairs = [reduced_rho12(SuperpositionSpec(p, parity, n))
             for p, n in ((0.3, 2), (0.6, 4), (0.999, 7)) for parity in Parity]
    dephased = [apply_dephasing(pair, DephasingChannel.from_gamma(0.4)) for pair in pairs[:4]]
    # every conditional state of the Bell pair is pure, so every direction
    # ties; |00> has a dead outcome at the pole
    bell = reduced_rho12(SuperpositionSpec(1.0, Parity.ODD, 2))
    ground = np.zeros((4, 4), dtype=complex)
    ground[0, 0] = 1.0
    tables = [bloch_matrix(s) for s in pairs + dephased + [bell, TwoQubitState(ground)]]
    assert not any(table[_OFF_REAL_X].any() for table in tables)
    for n_theta, n_phi in FOLD_GRIDS:
        _, _, d1, d2, d3, _, n_rep = _direction_grid(n_theta, n_phi)
        reps = [min(phi_orbit(j, n_phi)) for j in range(n_phi)]
        for table in tables:
            full = _field(_x_terms, table, d1, d2, d3)
            # the scan's grid call
            folded = _field(_x_terms, table, d1[:, :n_rep], d2[:, :n_rep], d3[:, :n_rep])
            assert np.array_equal(bits(full), bits(folded[:, reps]))
            # first minimum in (theta, phi) order
            assert (np.unravel_index(np.argmin(full), full.shape)
                    == np.unravel_index(np.argmin(folded), folded.shape))


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
    # scan itself should need its field plus the work of one block.  The
    # pair state takes `_x_terms` on the folded grid, a 500 x 500 field
    # (2 MB); the random state takes `_general_terms` on the 500 x 1999
    # one (8 MB)
    grid = (1000, 1999)
    _direction_grid(*grid)
    peaks = []
    pair = reduced_rho12(SuperpositionSpec(0.6, Parity.EVEN, 4))
    for state in (random_full_rank_state(rng), pair):
        tracemalloc.start()
        try:
            discord_brute_force(state, grid=grid)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) < 16e6


def traced_peaks(calls):
    """The traced peak of each (terms, table, directions) `_field` call,
    measured in a fresh thread after one untraced call of each."""
    peaks = []

    def measure():
        for terms, table, directions in calls:
            _field(terms, table, *directions)
            tracemalloc.start()
            try:
                _field(terms, table, *directions)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()

    thread = threading.Thread(target=measure)
    thread.start()
    thread.join(timeout=60.0)
    assert len(peaks) == len(calls)
    return peaks


def test_x_field_call_memory_peak():
    # len_sq and the scratch of _outcome_entropy in one allocation, and no
    # transverse temporaries alive while it runs: the traced peak of the
    # folded default-grid call (91 x 91) was 553 kB and that of a
    # 1 055-direction call (13 patch levels and the two tie directions)
    # 114 kB while the kernel kept a boolean mask of dead outcomes, and is
    # 537 kB and 112 kB without it; either may grow by at most 10% over the
    # former
    table = bloch_matrix(reduced_rho12(SuperpositionSpec(0.6, Parity.EVEN, 4)))
    *grid, _, n_rep = _direction_grid(181, 361)[2:]
    patch = np.random.default_rng(3).normal(size=(3, 1055, 1))
    patch /= np.linalg.norm(patch, axis=0)
    bounds = (553e3, 114e3)
    peaks = traced_peaks([(_x_terms, table, [d[:, :n_rep] for d in grid]),
                          (_x_terms, table, tuple(patch))])
    assert all(peak <= 1.1 * bound for bound, peak in zip(bounds, peaks)), peaks


def test_general_field_call_memory_peak(rng):
    # both outcomes and the scratch of _outcome_entropy in one array per
    # block: the traced peak of a default-grid call on a random full-rank
    # table, 24 rows per block, is 0.959 MB (1.583 MB when each sum and
    # outcome was a new array); it may grow by at most 10%
    table = bloch_matrix(random_full_rank_state(rng))
    [peak] = traced_peaks([(_general_terms, table, _direction_grid(181, 361)[2:5])])
    assert peak <= 1.1 * 0.959e6, peak


def test_dead_outcome_threshold_is_one_rule_in_every_kernel():
    # diag(r00, 0, r22, r33) is classical on the first qubit.  Measured
    # along z, outcome 0 leaves the second qubit pure and outcome 1 leaves
    # it mixed, with q, twice its probability, 1 - (r00 - r22 - r33).  The
    # entries and q are whole numbers of units 2^-53: q = 18 units (2.0e-15,
    # trace 1) and 19 units (2.1e-15, trace 1 + 2^-53) are the nearest q on
    # either side of _LIVE_Q.  Flipping the first qubit makes the small
    # outcome the other one
    unit = 2.0 ** -53
    pole = tuple(np.array([0.0, 0.0, 1.0])[:, None, None])
    big, r33 = 1.0 - 9 * unit, 5 * unit
    for r22, live in ((4 * unit, False), (5 * unit, True)):
        q = 1.0 - (big - r22 - r33)
        assert q == (19 if live else 18) * unit and (q > _LIVE_Q) == live
        for pops in ((big, 0.0, r22, r33), (r22, r33, big, 0.0)):
            table = bloch_matrix(TwoQubitState(np.diag(pops).astype(complex)))
            assert 1.0 - abs(table[3, 0]) == q
            # a live small outcome adds its entropy, 1 bit at r22 = r33,
            # times q/2
            for terms in (_general_terms, _x_terms):
                assert _field(terms, table, *pole).item() == (0.5 * q if live else 0.0)
            # the discord of a classical state is 0 (here 0.06 q, from the
            # extra unit of trace) while the minimum counts the mixed
            # outcome; a dead one lowers it by about q/2
            discord, _ = _discord_x(*pops, 0.0, 0.0)
            assert abs(discord) < 0.1 * q if live else discord < -0.4 * q


def report_hex(report):
    values = (report.mutual_info, report.discord, report.concurrence, report.s_cond_min,
              report.argmin.theta, report.argmin.phi)
    return [float.hex(float(v)) for v in values]


def test_concurrent_scans_match_a_single_thread_bitwise(rng):
    # numpy releases the GIL in its loops, so scans that shared any work
    # array would mix each other's blocks.  The random states take the
    # general terms alongside
    pair = reduced_rho12(SuperpositionSpec(0.6, Parity.EVEN, 3))
    groups = [
        [reduced_rho12(SuperpositionSpec(p, parity, 4)) for p, parity in
         ((0.3, Parity.EVEN), (0.8, Parity.ODD))],
        [apply_dephasing(pair, DephasingChannel.from_gamma(g)) for g in (0.2, 0.7)],
        [random_full_rank_state(rng) for _ in range(2)],
        [reduced_rho12(SuperpositionSpec(0.95, Parity.ODD, 7)), random_full_rank_state(rng)],
    ]
    expected = [[report_hex(discord_brute_force(s)) for s in group] for group in groups]
    start = threading.Barrier(len(groups))
    got = [None] * len(groups)

    def scan(k):
        start.wait()
        got[k] = [report_hex(discord_brute_force(s)) for s in groups[k] * 3]

    threads = [threading.Thread(target=scan, args=(k,)) for k in range(len(groups))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert got == [group * 3 for group in expected]
