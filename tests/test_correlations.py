import math

import numpy as np
import pytest

from catcorr import (
    CorrelationReport,
    DephasingChannel,
    DomainError,
    MeasurementBasis,
    Parity,
    SuperpositionSpec,
    TwoQubitState,
    apply_dephasing,
    binary_entropy,
    concurrence_pure,
    concurrence_x,
    concurrence_t,
    discord_brute_force,
    discord_mixed_closed,
    discord_pure,
    discord_t,
    koashi_winter_min,
    pure_bipartition,
    reduced_rho12,
    von_neumann_entropy,
    werner_discord,
)
from catcorr import correlations
from catcorr.correlations import _eof_from_concurrence
from catcorr.states import PAULI, _pair_block
from conftest import cond_entropy, random_full_rank_state


def spec(p, parity, n):
    return SuperpositionSpec(p=p, parity=parity, n=n)


def random_specs(rng, count, p_max=1.0):
    out = []
    while len(out) < count:
        p = float(rng.uniform(0.0, p_max))
        n = int(rng.integers(2, 10))
        parity = Parity.EVEN if rng.integers(2) else Parity.ODD
        out.append(spec(p, parity, n))
    return out


# ---------------------------------------------------------------- entropies


def test_binary_entropy_basics():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == 1.0
    assert binary_entropy(0.8727) == pytest.approx(0.5499866527372161, abs=1e-15)


def test_binary_entropy_symmetry(rng):
    for x in rng.uniform(0.0, 1.0, size=50):
        assert binary_entropy(float(x)) == pytest.approx(
            binary_entropy(float(1.0 - x)), abs=1e-14
        )


def test_binary_entropy_domain():
    assert binary_entropy(-5e-13) == 0.0  # clamped
    assert binary_entropy(1.0 + 5e-13) == 0.0
    with pytest.raises(DomainError):
        binary_entropy(1.001)
    with pytest.raises(DomainError):
        binary_entropy(-0.001)
    with pytest.raises(DomainError):
        binary_entropy(math.nan)


def test_binary_entropy_of_numpy_scalar_is_python_float():
    for x in (0.0, 1e-300, 0.25, 0.5, 0.8727, 1.0 - 2**-53, 1.0, -5e-13, 1.0 + 5e-13):
        value = binary_entropy(np.float64(x))
        assert type(value) is float
        assert value == binary_entropy(x)
        # the clamped formula the helper has always evaluated
        y = min(max(x, 0.0), 1.0)
        expect = 0.0 if y in (0.0, 1.0) else -y * math.log2(y) - (1.0 - y) * math.log2(1.0 - y)
        assert value == expect


def test_von_neumann_entropy_known_values():
    pure = np.zeros((4, 4), dtype=complex)
    pure[0, 0] = 1.0
    assert von_neumann_entropy(pure) == 0.0
    assert von_neumann_entropy(np.eye(4, dtype=complex) / 4.0) == pytest.approx(2.0)
    assert von_neumann_entropy(np.diag([0.5, 0.5, 0.0, 0.0])) == pytest.approx(1.0)
    # 2x2 inputs work too
    assert von_neumann_entropy(np.eye(2) / 2.0) == pytest.approx(1.0)


def test_von_neumann_entropy_of_a_pure_state_is_positive_zero():
    # the negated sum of an exactly-zero entropy gave -0.0 bits
    pure = np.zeros((4, 4), dtype=complex)
    pure[0, 0] = 1.0
    for state in (TwoQubitState(pure), pure, np.array([[1.0]])):
        assert math.copysign(1.0, von_neumann_entropy(state)) == 1.0


def test_von_neumann_entropy_state_vs_array(rng):
    for s in random_specs(rng, 25):
        state = reduced_rho12(s)
        assert von_neumann_entropy(state) == pytest.approx(
            von_neumann_entropy(state.matrix), abs=1e-12
        )


def test_von_neumann_entropy_rejects_bad_input():
    with pytest.raises(DomainError):
        von_neumann_entropy(np.ones((2, 3)))
    with pytest.raises(DomainError, match="nonempty"):
        von_neumann_entropy(np.zeros((0, 0)))  # was numpy's bare ValueError
    m = np.diag([0.5, 0.5]).astype(complex)
    m[0, 1] = 0.3  # not hermitian
    with pytest.raises(DomainError):
        von_neumann_entropy(m)
    with pytest.raises(DomainError):
        von_neumann_entropy(np.diag([1.5, -0.5]))


def test_von_neumann_entropy_rejects_matrices_without_unit_trace():
    # the identity and zero matrices gave -0.0 bits, diag(0.3, 0.3) 1.04
    for m in (np.eye(4), np.zeros((2, 2)), np.diag([0.3, 0.3])):
        with pytest.raises(DomainError, match="unit trace"):
            von_neumann_entropy(m)


def test_von_neumann_entropy_and_state_share_the_hermiticity_tolerance():
    # 1e-11 at [0, 1] only: von_neumann_entropy accepted it (2.0 bits) with
    # a bound of 1e-10, while TwoQubitState refused it
    m = np.eye(4, dtype=complex) / 4.0
    m[0, 1] = 1e-11
    with pytest.raises(DomainError, match="Hermitian"):
        von_neumann_entropy(m)
    with pytest.raises(DomainError, match="Hermitian"):
        TwoQubitState(m)


def test_von_neumann_entropy_rejects_nan():
    # a NaN entry passes every comparison, and the filter on positive
    # eigenvalues would drop it as if it were zero, giving -0.0
    with pytest.raises(DomainError, match="non-finite"):
        von_neumann_entropy(np.array([[math.nan, 0.0], [0.0, 1.0]]))


# ------------------------------------------------------------- pure states


def test_concurrence_pure_frozen_value():
    bp = pure_bipartition(spec(0.5, Parity.EVEN, 3), 1)
    assert concurrence_pure(bp) == pytest.approx(0.7453559924999298, abs=1e-15)


def test_concurrence_pure_matches_amplitudes(rng):
    for s in random_specs(rng, 30, p_max=0.999):
        k = int(rng.integers(1, s.n))
        bp = pure_bipartition(s, k)
        assert concurrence_pure(bp) == pytest.approx(
            2.0 * abs(bp.c00 * bp.c11 - bp.c01 * bp.c10), abs=1e-15
        )


def test_concurrence_pure_block_symmetry(rng):
    for s in random_specs(rng, 20, p_max=0.999):
        k = int(rng.integers(1, s.n))
        assert concurrence_pure(pure_bipartition(s, k)) == pytest.approx(
            concurrence_pure(pure_bipartition(s, s.n - k)), abs=1e-14
        )


def test_two_mode_odd_superposition_is_maximally_entangled():
    for p in (0.0, 0.3, 0.9, 0.999):
        bp = pure_bipartition(spec(p, Parity.ODD, 2), 1)
        assert concurrence_pure(bp) == pytest.approx(1.0, abs=1e-12)
        assert discord_pure(bp).discord == pytest.approx(1.0, abs=1e-12)
    # roundoff in the amplitudes grows like 1/(1 - p^2) near the limit
    bp = pure_bipartition(spec(0.999999, Parity.ODD, 2), 1)
    assert concurrence_pure(bp) == pytest.approx(1.0, abs=1e-9)


def test_concurrence_pure_near_degenerate_odd_limit():
    bp = pure_bipartition(spec(1.0 - 1e-9, Parity.ODD, 4), 2)
    assert concurrence_pure(bp) == pytest.approx(1.0, abs=1e-8)


def test_discord_pure_report_structure(rng):
    for s in random_specs(rng, 20, p_max=0.999):
        k = int(rng.integers(1, s.n))
        bp = pure_bipartition(s, k)
        rep = discord_pure(bp)
        ent = rep.discord
        assert rep.eof == ent
        assert rep.classical_corr == ent
        assert rep.mutual_info == pytest.approx(2.0 * ent, abs=1e-14)
        assert rep.s_cond_min == 0.0
        assert rep.argmin.theta == pytest.approx(math.pi / 2.0)
        assert rep.argmin.phi == 0.0


def test_discord_pure_agrees_with_brute_force(rng):
    # the 4-dimensional projector onto the block splitting is a valid
    # two-qubit state, so the scan oracle applies directly
    for s in random_specs(rng, 6, p_max=0.98):
        k = int(rng.integers(1, s.n))
        bp = pure_bipartition(s, k)
        c = np.array([bp.c00, bp.c01, bp.c10, bp.c11], dtype=complex)
        state = TwoQubitState(np.outer(c, c.conj()))
        brute = discord_brute_force(state)
        assert brute.discord == pytest.approx(discord_pure(bp).discord, abs=1e-6)
        assert brute.s_cond_min < 1e-9


def test_discord_pure_odd_limit_profile():
    # near degenerate overlap the splitting entropy depends only on the
    # imbalance between the two blocks
    n = 5
    for k in (1, 2):
        bp = pure_bipartition(spec(1.0 - 1e-9, Parity.ODD, n), k)
        expect = binary_entropy(0.5 + 0.5 * abs(n - 2 * k) / n)
        assert discord_pure(bp).discord == pytest.approx(expect, abs=1e-6)


# ------------------------------------------------------------- concurrence


def test_concurrence_x_on_werner_family():
    for n in range(2, 9):
        assert concurrence_x(reduced_rho12(spec(1.0, Parity.ODD, n))) == pytest.approx(
            2.0 / n, abs=1e-14
        )


def test_concurrence_x_is_a_python_float(rng):
    # abs of a complex numpy entry gave np.float64 on the X branch
    bell = reduced_rho12(spec(1.0, Parity.ODD, 2))
    for state in (bell, random_full_rank_state(rng)):
        assert type(concurrence_x(state)) is float
    report = discord_brute_force(bell)
    assert type(report.concurrence) is float and report.concurrence == 1.0


def test_concurrence_x_matches_closed_form(rng):
    for s in random_specs(rng, 40, p_max=0.999):
        state = reduced_rho12(s)
        closed = discord_mixed_closed(s).concurrence
        assert concurrence_x(state) == pytest.approx(closed, abs=1e-12)


def test_spin_flip_fallback_on_pure_states(rng):
    for _ in range(25):
        c = rng.normal(size=4) + 1j * rng.normal(size=4)
        c /= np.linalg.norm(c)
        state = TwoQubitState(np.outer(c, c.conj()))
        expect = 2.0 * abs(c[0] * c[3] - c[1] * c[2])
        assert concurrence_x(state) == pytest.approx(expect, abs=1e-12)


def _random_local_unitary(rng):
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    u, _ = np.linalg.qr(g)
    return u


def test_spin_flip_fallback_invariant_under_local_rotations(rng):
    # mix a Bell projector with white noise (known concurrence), then hide
    # the X structure with local unitaries; the non-X route must recover
    # the same value
    bell = np.zeros((4, 4), dtype=complex)
    bell[0, 0] = bell[3, 3] = bell[0, 3] = bell[3, 0] = 0.5
    for f in (0.2, 0.5, 0.8):
        rho = f * bell + (1.0 - f) * np.eye(4) / 4.0
        expect = max(0.0, (3.0 * f - 1.0) / 2.0)
        u = np.kron(_random_local_unitary(rng), _random_local_unitary(rng))
        rotated = TwoQubitState(u @ rho @ u.conj().T)
        assert concurrence_x(rotated) == pytest.approx(expect, abs=1e-12)


def test_non_x_concurrence_of_rotated_pair_states(rng):
    # rank-two pair states, fresh or dephased, hidden by local unitaries:
    # square roots of the rounding-level spin-flip eigenvalues would miss
    # concurrence_t by about 1e-8 here
    def gap(s):
        channel = DephasingChannel.from_gamma(float(rng.choice([0.0, rng.random()])))
        u = np.kron(_random_local_unitary(rng), _random_local_unitary(rng))
        m = u @ apply_dephasing(reduced_rho12(s), channel).matrix @ u.conj().T
        rotated = TwoQubitState(0.5 * (m + m.conj().T))
        assert not rotated.is_x
        return abs(concurrence_x(rotated) - concurrence_t(s, channel))

    for s in random_specs(rng, 100, p_max=0.999):
        assert gap(s) <= 1e-12
    # odd states nearer p = 1 lose precision all the same: sqrt(rho) takes
    # square roots of rounding-level eigenvalues of rho.  Worst gaps over 400
    # draws with n <= 50: 6.4e-12 at 1 - p = 1e-4, 2.2e-8 at 1e-8, 2.9e-8 at
    # 1e-12
    for one_minus_p, envelope in ((1e-4, 5e-11), (1e-8, 1e-7), (1e-12, 1e-7)):
        for n in rng.integers(2, 51, size=10).tolist():
            assert gap(spec(1.0 - one_minus_p, Parity.ODD, n)) <= envelope, (one_minus_p, n)


# ----------------------------------------------------- closed-form discord


def test_mutual_information_against_entropy_oracle(rng):
    for s in random_specs(rng, 40):
        state = reduced_rho12(s)
        s_joint = von_neumann_entropy(state)
        rho_a = state.matrix.reshape(2, 2, 2, 2)
        s_marg = von_neumann_entropy(np.einsum("ikjk->ij", rho_a))
        assert discord_mixed_closed(s).mutual_info == pytest.approx(
            2.0 * s_marg - s_joint, abs=1e-11
        )


def test_conditional_entropy_equatorial_matches_koashi_winter(rng):
    worst = 0.0
    for s in random_specs(rng, 60, p_max=0.999):
        got = cond_entropy(reduced_rho12(s), math.pi / 2.0, 0.0)
        worst = max(worst, abs(got - koashi_winter_min(s)))
    assert worst < 1e-12


def test_conditional_entropy_dominates_the_closed_minimum(rng):
    for s in random_specs(rng, 15, p_max=0.999):
        state = reduced_rho12(s)
        floor = koashi_winter_min(s)
        for _ in range(20):
            theta, phi = rng.uniform(0.0, math.pi), rng.uniform(0.0, 2.0 * math.pi)
            assert cond_entropy(state, theta, phi) >= floor - 1e-12


def test_conditional_entropy_skips_dead_outcome():
    vacuum = np.zeros((4, 4), dtype=complex)
    vacuum[0, 0] = 1.0
    state = TwoQubitState(vacuum)
    # measuring along +z leaves the second qubit pure and the -z outcome
    # never fires; the average must be exactly zero
    assert cond_entropy(state, 0.0, 0.0) == 0.0


def test_discord_closed_report_identities(rng):
    for s in random_specs(rng, 30, p_max=0.999):
        rep = discord_mixed_closed(s)
        assert rep.classical_corr == pytest.approx(
            rep.mutual_info - rep.discord, abs=1e-12
        )
        assert rep.s_cond_min == pytest.approx(koashi_winter_min(s), abs=1e-14)
        expect_eof = binary_entropy(
            0.5 + 0.5 * math.sqrt(max(0.0, 1.0 - rep.concurrence**2))
        )
        assert rep.eof == pytest.approx(expect_eof, abs=1e-14)


def test_discord_closed_vs_brute_force_sample():
    for p in (0.15, 0.5, 0.85):
        for parity in (Parity.EVEN, Parity.ODD):
            for n in (2, 3, 6):
                s = spec(p, parity, n)
                closed = discord_mixed_closed(s)
                brute = discord_brute_force(reduced_rho12(s))
                assert brute.discord == pytest.approx(closed.discord, abs=1e-9)
                assert brute.s_cond_min == pytest.approx(closed.s_cond_min, abs=1e-9)
                assert brute.concurrence == pytest.approx(closed.concurrence, abs=1e-9)


def test_discord_limits():
    # orthogonal branches for n >= 3 give a classically correlated pair
    rep = discord_mixed_closed(spec(0.0, Parity.EVEN, 3))
    assert rep.discord == 0.0
    assert rep.mutual_info == pytest.approx(1.0, abs=1e-14)
    assert rep.classical_corr == pytest.approx(1.0, abs=1e-14)
    # identical branches on the even sign leave a product state
    rep = discord_mixed_closed(spec(1.0, Parity.EVEN, 5))
    assert rep.discord == 0.0
    assert rep.mutual_info == 0.0
    # the two-mode odd superposition is a Bell state at any overlap
    for p in (0.1, 0.6, 0.95):
        rep = discord_mixed_closed(spec(p, Parity.ODD, 2))
        assert rep.discord == pytest.approx(1.0, abs=1e-12)
        assert rep.mutual_info == pytest.approx(2.0, abs=1e-12)
        assert rep.concurrence == pytest.approx(1.0, abs=1e-12)


def test_two_mode_even_discord_profile():
    # the two-mode even pair is pure, so its discord is the entropy of one
    # marginal and the conditional entropy bottoms out at zero
    for p in (0.0, 0.3, 0.7, 0.95):
        rep = discord_mixed_closed(spec(p, Parity.EVEN, 2))
        expect = binary_entropy((1.0 + p) ** 2 / (2.0 * (1.0 + p * p)))
        assert rep.discord == pytest.approx(expect, abs=1e-12)
        assert rep.s_cond_min == pytest.approx(0.0, abs=1e-12)


def test_purification_complement_concurrence(rng):
    # rebuild the pair state from its two sector eigenvectors, purify with a
    # one-qubit ancilla, and check that tracing out the first mode leaves a
    # complement whose concurrence matches what the conditional-entropy
    # minimum prices in
    for s in random_specs(rng, 40, p_max=0.999):
        m = reduced_rho12(s).matrix
        lam_even = float((m[0, 0] + m[3, 3]).real)
        lam_odd = float((m[1, 1] + m[2, 2]).real)
        v_even = np.zeros(4)
        if lam_even > 0.0:
            v_even[[0, 3]] = (m[0, 0].real, m[0, 3].real)
            v_even /= np.linalg.norm(v_even)
        v_odd = np.zeros(4)
        v_odd[[1, 2]] = 1.0 / math.sqrt(2.0)
        rebuilt = lam_even * np.outer(v_even, v_even) + lam_odd * np.outer(v_odd, v_odd)
        assert np.max(np.abs(rebuilt - m)) < 1e-12

        psi = np.zeros((2, 2, 2))  # axes: mode 1, mode 2, ancilla
        psi[:, :, 0] = math.sqrt(max(lam_even, 0.0)) * v_even.reshape(2, 2)
        psi[:, :, 1] = math.sqrt(max(lam_odd, 0.0)) * v_odd.reshape(2, 2)
        rho23 = np.einsum("ijk,ilm->jklm", psi, psi).reshape(4, 4)
        p, n, c = s.p, s.n, s.parity.sign
        priced = p * p * (1.0 - p * p) * (1.0 - p ** (2 * n - 4)) / (1.0 + p**n * c) ** 2
        got = concurrence_x(TwoQubitState(rho23))
        assert got == pytest.approx(math.sqrt(max(priced, 0.0)), abs=1e-10)


# ------------------------------------------------------------- brute force


def test_brute_force_accepts_a_state_whose_marginal_dips_below_the_psd_tolerance():
    # -e >= -PSD_TOL passes the state's check, but the first marginal,
    # diag(1 + 2e, -2e), has an eigenvalue below -PSD_TOL, which the scan
    # refused with "negative eigenvalue beyond tolerance"
    e = 0.9e-10
    state = TwoQubitState(np.diag([0.5 + e, 0.5 + e, -e, -e]))
    report = discord_brute_force(state)
    assert report.mutual_info == pytest.approx(0.0, abs=1e-9)
    assert report.s_cond_min == pytest.approx(1.0, abs=1e-9)


def test_brute_force_grid_floor():
    state = reduced_rho12(spec(0.5, Parity.EVEN, 3))
    with pytest.raises(DomainError):
        discord_brute_force(state, grid=(32, 64))


def test_brute_force_grid_sizes_must_be_whole():
    state = reduced_rho12(spec(0.5, Parity.EVEN, 3))
    for grid in ((181.5, 361), (181, 361.5), (math.nan, 361), (181, math.nan)):
        with pytest.raises(DomainError, match="whole numbers"):
            discord_brute_force(state, grid=grid)
    whole = discord_brute_force(state, grid=(64.0, np.float64(128.0)))
    assert whole == discord_brute_force(state, grid=(64, 128))


def test_brute_force_grid_cap_rejects_before_allocating():
    # 10^12 directions would need terabytes; the cap must fire first
    state = reduced_rho12(spec(0.5, Parity.EVEN, 3))
    with pytest.raises(DomainError):
        discord_brute_force(state, grid=(10**6, 10**6))


def test_conditional_entropy_is_antipodally_symmetric(rng):
    # measuring along d and -d only swaps the outcomes, which is what lets
    # the scan keep theta <= pi/2
    for _ in range(20):
        state = random_full_rank_state(rng)
        assert not state.is_x
        for _ in range(5):
            theta, phi = rng.uniform(0.0, math.pi), rng.uniform(0.0, 2.0 * math.pi)
            flipped = math.pi - theta, (phi + math.pi) % (2.0 * math.pi)
            assert cond_entropy(state, theta, phi) == pytest.approx(
                cond_entropy(state, *flipped), abs=1e-14
            )


def test_brute_force_matches_multistart_scipy_on_non_x_states(rng):
    # general full-rank states have no known optimal direction; a local
    # optimizer started from random directions must not find a lower
    # conditional entropy than the scan
    pytest.importorskip("scipy")
    from scipy.optimize import minimize

    def s_cond(state, x):
        theta, phi = x[0] % (2.0 * math.pi), x[1]
        if theta > math.pi:  # fold the unbounded plane onto the sphere
            theta, phi = 2.0 * math.pi - theta, phi + math.pi
        return cond_entropy(state, theta, phi % (2.0 * math.pi))

    for _ in range(30):
        state = random_full_rank_state(rng)
        best = math.inf
        for _ in range(3):
            start = [math.acos(rng.uniform(-1.0, 1.0)), rng.uniform(0.0, 2.0 * math.pi)]
            res = minimize(
                lambda x: s_cond(state, x),
                start,
                method="BFGS",
                options={"gtol": 1e-8},
            )
            best = min(best, res.fun)
        assert discord_brute_force(state).s_cond_min <= best + 1e-14


def test_brute_force_finds_minima_near_the_poles(rng):
    # rotating the first qubit moves the optimal direction without changing
    # the minimum; near theta = 0 or pi, steps in phi shrink to nothing, and
    # the refinement must still reach the minimum from the grid
    for _ in range(4):
        state = random_full_rank_state(rng)
        ref = discord_brute_force(state)
        d_opt = np.array(ref.argmin.direction())
        for target_theta in (1e-3, 0.02, 0.05, math.pi - 0.02):
            target_phi = rng.uniform(0.0, 2.0 * math.pi)
            target = np.array(MeasurementBasis(target_theta, target_phi).direction())
            axis = np.cross(d_opt, target)
            angle = math.atan2(np.linalg.norm(axis), d_opt @ target)
            n_sigma = sum(c * pauli for c, pauli in zip(axis / np.linalg.norm(axis), PAULI[1:]))
            rot = math.cos(angle / 2.0) * PAULI[0] - 1j * math.sin(angle / 2.0) * n_sigma
            u = np.kron(rot, PAULI[0])
            m = u @ state.matrix @ u.conj().T
            rotated = TwoQubitState(0.5 * (m + m.conj().T))
            for grid in ((181, 361), (64, 128)):
                got = discord_brute_force(rotated, grid=grid)
                assert got.s_cond_min == pytest.approx(ref.s_cond_min, abs=1e-14)


def test_brute_force_canonical_argmin(rng):
    # flat objectives (pure pair states) and equatorial optima must both
    # land on the canonical direction, deterministically
    for s in (spec(0.5, Parity.ODD, 2), spec(0.5, Parity.EVEN, 2), spec(0.5, Parity.EVEN, 4)):
        rep = discord_brute_force(reduced_rho12(s))
        assert rep.argmin.theta == math.pi / 2.0
        assert rep.argmin.phi == 0.0
        again = discord_brute_force(reduced_rho12(s))
        assert again.discord == rep.discord
        assert again.s_cond_min == rep.s_cond_min


def test_tie_rule_fires_only_within_its_tolerance(monkeypatch):
    # dephased pair states p = 0.846, n = 4, even, whose minimum leaves the
    # equator as gamma grows.  At the first gamma the scan minimum lies
    # 3.2e-10 below the equatorial value, outside _TIE_TOL, and is kept; at
    # the second (found by bisection) it lies 2.0e-13 below, inside, and the
    # scan reports the canonical (pi/2, 0)
    pair = reduced_rho12(spec(0.846, Parity.EVEN, 4))
    far, near = (apply_dephasing(pair, DephasingChannel.from_gamma(gamma))
                 for gamma in (0.33481787109375005, 0.3347980041503907))
    kept = discord_brute_force(far)
    assert round(kept.argmin.theta, 4) == 1.5232 and kept.argmin.phi == 0.0
    assert 3e-10 < cond_entropy(far, math.pi / 2.0, 0.0) - kept.s_cond_min < 3.5e-10
    tied = discord_brute_force(near)
    assert (tied.argmin.theta, tied.argmin.phi) == (math.pi / 2.0, 0.0)
    # with no tolerance the same scan keeps its minimum off the equator
    monkeypatch.setattr(correlations, "_TIE_TOL", 0.0)
    untied = discord_brute_force(near)
    assert untied.argmin.theta < 1.57
    assert 0.0 < cond_entropy(near, math.pi / 2.0, 0.0) - untied.s_cond_min < 1e-12
    assert untied.s_cond_min == tied.s_cond_min


def test_brute_force_beats_coarse_grid():
    state = reduced_rho12(spec(0.7, Parity.ODD, 5))
    fine = discord_brute_force(state)
    coarse = discord_brute_force(state, grid=(64, 128))
    # refinement must close the gap between the two resolutions
    assert abs(fine.s_cond_min - coarse.s_cond_min) < 1e-9


# ------------------------------------------------------------ werner limit


def test_werner_discord_frozen_values():
    assert werner_discord(2) == pytest.approx(1.0, abs=1e-14)
    assert werner_discord(3) == pytest.approx(0.5500477595827578, abs=1e-14)
    assert werner_discord(4) == pytest.approx(0.412154161151989, abs=1e-14)
    with pytest.raises(DomainError):
        werner_discord(1)


def test_werner_discord_decays():
    vals = [werner_discord(n) for n in range(2, 21)] + [
        werner_discord(n) for n in (30, 60, 120, 200)
    ]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert werner_discord(200) < 0.05


def test_odd_branch_approaches_werner_discord():
    # the closed form at p = 0.999 should sit close to the limit value,
    # and march toward it as p climbs
    far = discord_mixed_closed(spec(0.99, Parity.ODD, 3)).discord
    near = discord_mixed_closed(spec(0.999, Parity.ODD, 3)).discord
    limit = werner_discord(3)
    assert abs(near - limit) < 1e-3
    assert abs(near - limit) < abs(far - limit)


def test_closed_form_at_odd_p_one_is_werner_discord():
    # the general closed form needs no special case at the W-type limit;
    # the explicit W formula is its independent reference
    for n in range(2, 201):
        closed = discord_mixed_closed(spec(1.0, Parity.ODD, n))
        assert abs(closed.discord - werner_discord(n)) <= 1e-14, n
        assert closed.concurrence == pytest.approx(2.0 / n, abs=1e-14)


def _closed_values(s):
    """Every closed-form number of one spec, flattened."""
    report = discord_mixed_closed(s)
    values = list(_pair_block(s.p, s.n - 2, s.parity.sign))
    values += [report.mutual_info, report.classical_corr, report.discord]
    values += [report.concurrence, report.eof, report.s_cond_min]
    values += [report.argmin.theta, report.argmin.phi]
    for k in range(1, s.n):
        bp = pure_bipartition(s, k)
        values += [bp.c00, bp.c01, bp.c10, bp.c11]
    for gamma in (0.0, 0.3, 0.9):
        channel = DephasingChannel.from_gamma(gamma)
        values += [concurrence_t(s, channel), discord_t(s, channel)]
    return np.array(values)


def test_closed_forms_are_continuous_at_odd_p_one():
    for n in range(2, 51):
        at = _closed_values(spec(1.0, Parity.ODD, n))
        near = _closed_values(spec(1.0 - 1e-12, Parity.ODD, n))
        assert np.max(np.abs(at - near)) <= 1e-9, n


def test_werner_discord_vs_brute_force():
    for n in range(2, 7):
        brute = discord_brute_force(reduced_rho12(spec(1.0, Parity.ODD, n)))
        assert brute.discord == pytest.approx(werner_discord(n), abs=1e-9)
        assert brute.concurrence == pytest.approx(2.0 / n, abs=1e-12)


# ---------------------------------------------------------------- plumbing


def test_measurement_basis_validation():
    MeasurementBasis(0.0, 0.0)
    MeasurementBasis(math.pi, 2.0 * math.pi)
    with pytest.raises(DomainError):
        MeasurementBasis(-0.1, 0.0)
    with pytest.raises(DomainError):
        MeasurementBasis(0.0, 7.0)
    d = MeasurementBasis(1.1, 2.2).direction()
    assert math.hypot(*d) == pytest.approx(1.0, abs=1e-15)


def test_correlation_report_validation():
    basis = MeasurementBasis(math.pi / 2.0, 0.0)
    report = CorrelationReport(1.0, 0.6, 0.5, 0.2, basis)
    assert report.classical_corr == 1.0 - 0.6
    assert report.eof == _eof_from_concurrence(report.concurrence)
    with pytest.raises(DomainError):
        CorrelationReport(1.0, -0.2, 0.5, 0.2, basis)
    with pytest.raises(DomainError):
        CorrelationReport(1.0, 0.6, 1.5, 0.2, basis)
    # the first negative value names the error: the stored fields in
    # declaration order, with classical_corr = I - D right after discord
    negative = {
        "mutual_info": (-0.1, 0.2, 0.2),
        "discord": (0.2, -0.2, 0.2),
        "classical_corr": (0.2, 0.3, 0.2),
        "s_cond_min": (1.0, 0.6, -0.1),
    }
    for name, (info, disc, s_min) in negative.items():
        with pytest.raises(DomainError, match=f"^{name} must be nonnegative, got -"):
            CorrelationReport(info, disc, 0.5, s_min, basis)


def test_correlation_report_rejects_values_above_the_qubit_bounds():
    basis = MeasurementBasis(math.pi / 2.0, 0.0)
    with pytest.raises(DomainError, match=r"^mutual_info must not exceed 2, got inf$"):
        CorrelationReport(math.inf, 0.5, 0.5, 0.1, basis)
    with pytest.raises(DomainError, match=r"^s_cond_min must not exceed 1, got inf$"):
        CorrelationReport(1.0, 0.6, 0.5, math.inf, basis)
    # I <= 2 and D, J = I - D, S_min <= 1 on a qubit pair, with 1e-12 slack
    CorrelationReport(2.0 + 1e-12, 1.0 + 1e-12, 1.0, 1.0 + 1e-12, basis)
    above = {
        "mutual_info": (2.0 + 1e-9, 1.0, 0.0),
        "discord": (1.5, 1.0 + 1e-9, 0.0),
        "classical_corr": (1.5, 0.4, 0.0),
        "s_cond_min": (1.0, 0.6, 1.0 + 1e-9),
    }
    for name, (info, disc, s_min) in above.items():
        with pytest.raises(DomainError, match=f"^{name} must not exceed"):
            CorrelationReport(info, disc, 0.5, s_min, basis)


def test_range_slack_is_one_tolerance_on_both_sides():
    # every range check allows _RANGE_SLACK = 1e-12 of roundoff: 0.5e-12
    # outside a range passes, 2e-12 outside is a DomainError
    basis = MeasurementBasis(math.pi / 2.0, 0.0)
    for d, inside in ((0.5e-12, True), (2e-12, False)):
        # (mutual_info, discord, concurrence, s_cond_min) one end out, the
        # rest inside; classical_corr = mutual_info - discord
        reports = {
            "mutual_info": [(-d, 0.0, 0.5, 0.25), (2.0 + d, 1.0, 0.5, 0.25)],
            "discord": [(0.5, -d, 0.5, 0.25), (1.5, 1.0 + d, 0.5, 0.25)],
            "classical_corr": [(0.5, 0.5 + d, 0.5, 0.25), (1.0 + d, 0.0, 0.5, 0.25)],
            "s_cond_min": [(0.5, 0.25, 0.5, -d), (0.5, 0.25, 0.5, 1.0 + d)],
            "concurrence": [(0.5, 0.25, -d, 0.25), (0.5, 0.25, 1.0 + d, 0.25)],
        }
        angles = {"theta": (math.pi + d, 0.0), "phi": (0.0, 2.0 * math.pi + d)}
        if inside:
            for fields in reports.values():
                for values in fields:
                    CorrelationReport(*values, basis)
            for theta, phi in angles.values():
                MeasurementBasis(theta, phi)
            assert binary_entropy(-d) == binary_entropy(1.0 + d) == 0.0
            continue
        for name, fields in reports.items():
            for values in fields:
                with pytest.raises(DomainError, match=f"^{name} must"):
                    CorrelationReport(*values, basis)
        for name, (theta, phi) in angles.items():
            with pytest.raises(DomainError, match=f"^{name} must"):
                MeasurementBasis(theta, phi)
        for x in (-d, 1.0 + d):
            with pytest.raises(DomainError):
                binary_entropy(x)
    # the angles' lower ends take no slack
    for theta, phi in ((-0.5e-12, 0.0), (0.0, -0.5e-12)):
        with pytest.raises(DomainError):
            MeasurementBasis(theta, phi)


@pytest.mark.parametrize("field", ["mutual_info", "discord", "concurrence", "s_cond_min"])
def test_correlation_report_rejects_nan(field):
    values = dict(
        mutual_info=1.0, discord=0.6, concurrence=0.5, s_cond_min=0.2,
        argmin=MeasurementBasis(math.pi / 2.0, 0.0),
    )
    values[field] = math.nan
    with pytest.raises(DomainError):
        CorrelationReport(**values)
