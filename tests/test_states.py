import math

import numpy as np
import pytest

from catcorr import (
    AlgebraSpec,
    DomainError,
    Parity,
    SuperpositionSpec,
    TwoQubitState,
    WernerLimitRequired,
    bloch_matrix,
    marginals,
    normalization,
    overlap_closed,
    partial_trace_pair,
    pure_bipartition,
    reduced_rho12,
    superposition_vector,
    werner_limit_state,
)
from catcorr.states import PAULI


def spec(p, parity, n):
    return SuperpositionSpec(p=p, parity=parity, n=n)


def test_spec_validation():
    with pytest.raises(DomainError):
        spec(-0.1, Parity.EVEN, 3)
    with pytest.raises(DomainError):
        spec(1.1, Parity.EVEN, 3)
    with pytest.raises(DomainError):
        spec(0.5, Parity.EVEN, 1)
    with pytest.raises(WernerLimitRequired):
        spec(1.0, Parity.ODD, 4)
    spec(1.0, Parity.EVEN, 4)  # GHZ-like limit is fine
    # a parity given as its string value would fail only later, in the forms
    with pytest.raises(DomainError):
        spec(0.5, "even", 3)
    with pytest.raises(DomainError):
        spec(0.5, None, 3)
    # an integral float mode count is stored as an int, so the explicit
    # expansion can size its vector from it
    s = spec(0.5, Parity.EVEN, 3.0)
    assert s.n == 3 and type(s.n) is int
    assert type(spec(0.5, Parity.EVEN, np.int64(3)).n) is int
    assert superposition_vector(s).shape == (8,)
    with pytest.raises(DomainError):
        spec(0.5, Parity.EVEN, 3.5)
    # int(n) would raise ValueError, OverflowError or TypeError for these
    for n in (math.nan, math.inf, -math.inf, "four"):
        with pytest.raises(DomainError, match="mode count"):
            spec(0.5, Parity.EVEN, n)


def test_spec_derived_quantities():
    s = spec(0.5, Parity.ODD, 4)
    assert s.branch_sign == -1.0
    assert s.q == 0.25
    s2 = spec(0.3, Parity.EVEN, 2)
    assert s2.q == 1.0  # p**0


def test_from_overlap_carries_algebra():
    alg = AlgebraSpec.su11(0.5)
    s = SuperpositionSpec.from_overlap(overlap_closed(alg, 0.3), Parity.EVEN, 3)
    assert s.p == pytest.approx(0.8348623853211009, abs=1e-15)
    assert s.algebra is alg
    assert s.z == 0.3


def test_normalization_frozen_value():
    # 1/sqrt(2 - 2*0.5**4) for the odd four-mode state
    got = normalization(spec(0.5, Parity.ODD, 4))
    assert got == pytest.approx(0.7302967433402214, abs=1e-15)


def test_normalization_limits():
    assert normalization(spec(0.0, Parity.EVEN, 3)) == pytest.approx(0.5 ** 0.5)
    assert normalization(spec(0.0, Parity.ODD, 3)) == pytest.approx(0.5 ** 0.5)
    assert normalization(spec(1.0, Parity.EVEN, 5)) == 0.5


def test_pure_bipartition_amplitudes_normalized(rng):
    for _ in range(25):
        p = rng.uniform(0.0, 1.0)
        n = int(rng.integers(2, 9))
        k = int(rng.integers(1, n))
        parity = Parity.EVEN if rng.integers(2) else Parity.ODD
        if parity is Parity.ODD and p == 1.0:
            continue
        bp = pure_bipartition(spec(p, parity, n), k)
        c = bp.amplitudes()
        assert np.vdot(c, c).real == pytest.approx(1.0, abs=1e-12)
        assert bp.k == k
        assert np.all(np.abs(c) <= 1.0 + 1e-12)


def test_pure_bipartition_k_range():
    with pytest.raises(DomainError):
        pure_bipartition(spec(0.5, Parity.EVEN, 4), 0)
    with pytest.raises(DomainError):
        pure_bipartition(spec(0.5, Parity.EVEN, 4), 4)


def test_pure_bipartition_even_odd_support():
    even = pure_bipartition(spec(0.6, Parity.EVEN, 5), 2)
    assert even.c01 == 0.0 and even.c10 == 0.0
    assert even.c00 > 0.0 and even.c11 > 0.0
    odd = pure_bipartition(spec(0.6, Parity.ODD, 5), 2)
    assert odd.c00 == 0.0 and odd.c11 == 0.0
    assert odd.c01 > 0.0 and odd.c10 > 0.0


def test_superposition_vector_normalized(rng):
    for n in range(2, 9):
        p = float(rng.uniform(0.0, 0.99))
        for parity in (Parity.EVEN, Parity.ODD):
            vec = superposition_vector(spec(p, parity, n))
            assert vec.shape == (2 ** n,)
            assert np.vdot(vec, vec).real == pytest.approx(1.0, abs=1e-12)


def test_superposition_vector_parity_support():
    vec = superposition_vector(spec(0.4, Parity.EVEN, 3))
    weights = np.abs(vec) ** 2
    for idx in range(8):
        if idx.bit_count() % 2 == 1:
            assert weights[idx] == pytest.approx(0.0, abs=1e-15)
    vec = superposition_vector(spec(0.4, Parity.ODD, 3))
    weights = np.abs(vec) ** 2
    for idx in range(8):
        if idx.bit_count() % 2 == 0:
            assert weights[idx] == pytest.approx(0.0, abs=1e-15)


def test_superposition_vector_mode_cap():
    with pytest.raises(DomainError):
        superposition_vector(spec(0.5, Parity.EVEN, 13), max_modes=12)


def test_reduced_rho12_against_full_trace(rng):
    # closed-form pair state vs brute partial trace of the full 2**n vector
    worst = 0.0
    for n in range(3, 11):
        for _ in range(50):
            p = float(rng.uniform(0.0, 1.0))
            parity = Parity.EVEN if rng.integers(2) else Parity.ODD
            if parity is Parity.ODD and p == 1.0:
                continue
            s = spec(p, parity, n)
            closed = reduced_rho12(s).matrix
            brute = partial_trace_pair(superposition_vector(s)).matrix
            worst = max(worst, float(np.max(np.abs(closed - brute))))
    # the two-mode odd pair at p = 0 is the Bell state (|01> + |10>)/sqrt(2)
    bell = spec(0.0, Parity.ODD, 2)
    brute = partial_trace_pair(superposition_vector(bell)).matrix
    worst = max(worst, float(np.max(np.abs(reduced_rho12(bell).matrix - brute))))
    assert worst < 1e-12


def test_reduced_rho12_worked_example():
    # orthogonal branches (p=0) put weight 1/4 on every X entry because
    # a = b = 1/sqrt(2) and the cross weight q vanishes; parity cannot matter
    for n in (3, 4):
        for parity in (Parity.EVEN, Parity.ODD):
            rho = reduced_rho12(spec(0.0, parity, n)).matrix
            for i, j in ((0, 0), (1, 1), (2, 2), (3, 3), (0, 3), (1, 2)):
                assert rho[i, j] == pytest.approx(0.25, abs=1e-15)
            assert rho[0, 1] == 0.0


def test_reduced_rho12_is_x_state(rng):
    for _ in range(20):
        p = float(rng.uniform(0.0, 1.0))
        n = int(rng.integers(3, 12))
        s = spec(p, Parity.EVEN, n)
        state = reduced_rho12(s)
        assert state.is_x


def test_two_qubit_state_validation():
    good = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
    TwoQubitState(good)
    with pytest.raises(DomainError):
        TwoQubitState(good * 2.0)  # trace 2
    bad = good.copy()
    bad[0, 1] = 0.2  # not hermitian
    with pytest.raises(DomainError):
        TwoQubitState(bad)
    neg = np.diag([0.7, 0.5, -0.1, -0.1]).astype(complex)
    with pytest.raises(DomainError):
        TwoQubitState(neg)
    with pytest.raises(DomainError):
        TwoQubitState(np.eye(3, dtype=complex) / 3.0)


def test_two_qubit_state_matrix_read_only():
    state = TwoQubitState(np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex))
    with pytest.raises(ValueError):
        state.matrix[0, 0] = 9.0


def test_x_structure_detection():
    m = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
    m[0, 3] = m[3, 0] = 0.05
    m[1, 2] = m[2, 1] = 0.05
    assert TwoQubitState(m).is_x
    m2 = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
    m2[0, 1] = m2[1, 0] = 0.01
    assert not TwoQubitState(m2).is_x


def test_analytic_eigenvalues_match_solver(rng):
    worst = 0.0
    for _ in range(200):
        p = float(rng.uniform(0.0, 1.0))
        n = int(rng.integers(2, 10))
        parity = Parity.EVEN if rng.integers(2) else Parity.ODD
        if parity is Parity.ODD and p == 1.0:
            continue
        state = reduced_rho12(spec(p, parity, n))
        analytic = state.eigenvalues()
        solver = np.sort(np.linalg.eigvalsh(state.matrix))[::-1]
        worst = max(worst, float(np.max(np.abs(analytic - solver))))
        assert np.all(np.diff(analytic) <= 1e-15)  # descending
    assert worst < 1e-12


def test_bloch_matrix_round_trip(rng):
    for _ in range(50):
        p = float(rng.uniform(0.0, 1.0))
        n = int(rng.integers(2, 9))
        state = reduced_rho12(spec(p, Parity.EVEN, n))
        table = bloch_matrix(state)
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 0.0
        assert table[0, 0] == pytest.approx(1.0, abs=1e-12)
        back = sum(
            table[a, b] * np.kron(PAULI[a], PAULI[b]) for a in range(4) for b in range(4)
        )
        assert np.max(np.abs(back / 4.0 - state.matrix)) < 1e-12


def test_bloch_matrix_nonzero_pattern():
    state = reduced_rho12(spec(0.7, Parity.ODD, 5))
    r = bloch_matrix(state)
    assert r.shape == (4, 4)
    assert r.dtype.kind == "f"
    nonzero = {(a, b) for a in range(4) for b in range(4) if abs(r[a, b]) > 1e-12}
    assert nonzero == {(0, 0), (0, 3), (3, 0), (1, 1), (2, 2), (3, 3)}
    assert r[0, 3] == pytest.approx(r[3, 0], abs=1e-14)


def test_marginals_partial_traces(rng):
    for _ in range(30):
        p = float(rng.uniform(0.0, 1.0))
        n = int(rng.integers(2, 9))
        state = reduced_rho12(spec(p, Parity.EVEN, n))
        rho_a, rho_b = marginals(state)
        assert np.trace(rho_a).real == pytest.approx(1.0, abs=1e-12)
        assert np.trace(rho_b).real == pytest.approx(1.0, abs=1e-12)
        # pair states here are exchange symmetric
        assert np.max(np.abs(rho_a - rho_b)) < 1e-12


def test_werner_limit_state_structure():
    for n in range(2, 9):
        state = werner_limit_state(n)
        m = state.matrix
        assert m[0, 0].real == pytest.approx((n - 2) / n, abs=1e-15)
        assert m[1, 1].real == pytest.approx(1.0 / n, abs=1e-15)
        assert m[2, 2].real == pytest.approx(1.0 / n, abs=1e-15)
        assert m[3, 3].real == pytest.approx(0.0, abs=1e-15)
        assert m[1, 2].real == pytest.approx(1.0 / n, abs=1e-15)
    with pytest.raises(DomainError):
        werner_limit_state(1)


def test_werner_limit_is_odd_p_to_one_limit():
    # approaching p -> 1 on the odd branch lands on the shared-excitation state
    n = 5
    near = reduced_rho12(spec(1.0 - 1e-9, Parity.ODD, n)).matrix
    limit = werner_limit_state(n).matrix
    assert np.max(np.abs(near - limit)) < 1e-7


def test_even_p_one_collapses_to_vacuum():
    # identical branches on the even sign leave the bare product state
    rho = reduced_rho12(spec(1.0, Parity.EVEN, 6)).matrix
    expect = np.zeros((4, 4), dtype=complex)
    expect[0, 0] = 1.0
    assert np.max(np.abs(rho - expect)) < 1e-14
