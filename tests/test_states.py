import math
from fractions import Fraction

import numpy as np
import pytest

from catcorr import (
    AlgebraSpec,
    DomainError,
    Parity,
    SuperpositionSpec,
    TwoQubitState,
    bloch_matrix,
    concurrence_x,
    marginals,
    overlap_closed,
    partial_trace_pair,
    pure_bipartition,
    reduced_rho12,
    superposition_vector,
    werner_discord,
)
from catcorr.correlations import _block_eigenvalues
from catcorr.states import (
    HERMITICITY_TOL,
    PAULI,
    PSD_TOL,
    TRACE_TOL,
    X_STRUCTURE_TOL,
    _pair_block,
)
from conftest import random_full_rank_state


def spec(p, parity, n):
    return SuperpositionSpec(p=p, parity=parity, n=n)


def test_spec_validation():
    with pytest.raises(DomainError):
        spec(-0.1, Parity.EVEN, 3)
    with pytest.raises(DomainError):
        spec(1.1, Parity.EVEN, 3)
    with pytest.raises(DomainError):
        spec(0.5, Parity.EVEN, 1)
    spec(1.0, Parity.EVEN, 4)  # GHZ-like limit is fine
    spec(1.0, Parity.ODD, 4)  # and so is the W-type limit of the odd branch
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


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf, 3.5])
@pytest.mark.parametrize(
    "call",
    [
        lambda x: SuperpositionSpec(0.5, Parity.EVEN, x),
        lambda x: pure_bipartition(SuperpositionSpec(0.5, Parity.EVEN, 6), x),
        lambda x: werner_discord(x),
    ],
    ids=["spec_n", "block_size", "werner_n"],
)
def test_whole_number_arguments_refuse_non_integers(call, x):
    # int(x) raises ValueError for NaN and OverflowError for inf
    with pytest.raises(DomainError):
        call(x)


def test_spec_derived_quantities():
    s = spec(0.5, Parity.ODD, 4)
    assert s.parity.sign == -1
    assert s.q == 0.25
    s2 = spec(0.3, Parity.EVEN, 2)
    assert s2.q == 1.0  # p**0


def test_from_overlap_takes_the_overlap_value():
    alg = AlgebraSpec.su11(0.5)
    overlap = overlap_closed(alg, 0.3)
    s = SuperpositionSpec.from_overlap(overlap, Parity.EVEN, 3)
    assert s.p == pytest.approx(0.8348623853211009, abs=1e-15)
    assert s == SuperpositionSpec(overlap.value, Parity.EVEN, 3)


def test_pure_bipartition_amplitudes_normalized(rng):
    for _ in range(25):
        p = rng.uniform(0.0, 1.0)
        n = int(rng.integers(2, 9))
        k = int(rng.integers(1, n))
        parity = Parity.EVEN if rng.integers(2) else Parity.ODD
        bp = pure_bipartition(spec(p, parity, n), k)
        c = np.array([bp.c00, bp.c01, bp.c10, bp.c11])
        assert np.vdot(c, c).real == pytest.approx(1.0, abs=1e-12)
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
        superposition_vector(spec(0.5, Parity.EVEN, 13))


def test_partial_trace_pair_rejects_bad_lengths():
    for size in (0, 1, 2, 3, 6, 12):
        with pytest.raises(DomainError, match=f"length {size} is not 2\\^n"):
            partial_trace_pair(np.ones(size) / math.sqrt(max(size, 1)))


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


def three_block_vector(p, m, sign):
    """Normalized superposition with its modes grouped in blocks of 1, 1
    and m, each block a qubit on which |+-z> of all its modes is
    a_j |0> +- b_j |1>, a_j^2 = (1 + p^j)/2 and b_j^2 = (1 - p^j)/2.

    p^j is taken exactly and rounded once, so b_j keeps full relative
    precision as p -> 1; the vector is divided by its own norm."""
    plus = minus = np.ones(1)
    for size in (1, 1, m):
        power = Fraction(p) ** size
        a, b = math.sqrt((1 + power) / 2), math.sqrt((1 - power) / 2)
        plus = np.kron(plus, [a, b])
        minus = np.kron(minus, [a, -b])
    vec = plus + sign * minus
    return (vec / np.linalg.norm(vec)).reshape(2, 2, 2)


def test_pair_block_against_three_block_oracle():
    overlaps = [0.0, 1e-3, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99]
    overlaps += [1.0 - 10.0**-k for k in range(3, 7)]
    for parity in Parity:
        for m in range(41):
            for p in overlaps:
                r00, r33, r03, r11, kw_conc = _pair_block(p, m, parity.sign)
                psi = three_block_vector(p, m, parity.sign)
                # tracing out the block leaves the pair
                pair = np.einsum("ijk,lnk->ijln", psi, psi).reshape(4, 4)
                closed = np.zeros((4, 4))
                closed[0, 0], closed[3, 3] = r00, r33
                closed[0, 3] = closed[3, 0] = r03
                closed[1, 1] = closed[2, 2] = closed[1, 2] = closed[2, 1] = r11
                assert np.max(np.abs(pair - closed)) <= 1e-14, (parity, m, p)
                # tracing out the first mode leaves the second against the block
                rest = np.einsum("ijk,iln->jkln", psi, psi).reshape(4, 4)
                got = concurrence_x(TwoQubitState(rest))
                assert abs(got - kw_conc) <= 1e-12, (parity, m, p)


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


def test_two_qubit_state_rejects_nan():
    # one NaN on the diagonal passes every comparison-based check
    one = np.diag([math.nan, 0.5, 0.3, 0.2]).astype(complex)
    with pytest.raises(DomainError, match="non-finite"):
        TwoQubitState(one)
    # an all-NaN matrix fails as a domain error, not inside the eigensolver
    with pytest.raises(DomainError, match="non-finite"):
        TwoQubitState(np.full((4, 4), math.nan, dtype=complex))


def test_two_qubit_state_matrix_read_only():
    state = TwoQubitState(np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex))
    with pytest.raises(ValueError):
        state.matrix[0, 0] = 9.0


def test_two_qubit_state_keeps_its_checked_spectrum(rng):
    # the eigenvalues of the construction's check, read-only, are what
    # eigvalsh gives on the stored matrix, bit for bit
    states = [reduced_rho12(spec(float(rng.uniform(0.0, 1.0)), parity, 4)) for parity in Parity]
    states += [random_full_rank_state(rng) for _ in range(3)]
    for state in states:
        assert state.spectrum.tobytes() == np.linalg.eigvalsh(state.matrix).tobytes()
        assert not state.spectrum.flags.writeable
        with pytest.raises(ValueError):
            state.spectrum[0] = 0.0


def test_x_structure_detection():
    m = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
    m[0, 3] = m[3, 0] = 0.05
    m[1, 2] = m[2, 1] = 0.05
    assert TwoQubitState(m).is_x
    m2 = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
    m2[0, 1] = m2[1, 0] = 0.01
    assert not TwoQubitState(m2).is_x


def test_density_checks_hold_each_tolerance_on_both_sides():
    # each check 1% inside its tolerance passes and 1% outside it refuses;
    # HERMITICITY_TOL was already refused outside it at 1e-11
    base = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
    for factor, accepted in ((0.99, True), (1.01, False)):
        trace = base.copy()
        trace[3, 3] += factor * TRACE_TOL  # trace 1 + that
        negative = np.diag([0.5 + factor * PSD_TOL, 0.3, 0.2, -factor * PSD_TOL]).astype(complex)
        hermitian = base.copy()
        hermitian[0, 1] = factor * HERMITICITY_TOL  # |m - m^dagger| of that
        for m in (trace, negative, hermitian):
            if accepted:
                TwoQubitState(m)
            else:
                with pytest.raises(DomainError):
                    TwoQubitState(m)


def test_x_structure_holds_its_tolerance_on_both_sides():
    # an entry off the X pattern 1% inside X_STRUCTURE_TOL leaves an X
    # state, 1% outside it does not
    for factor, is_x in ((0.99, True), (1.01, False)):
        m = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
        m[0, 1] = m[1, 0] = factor * X_STRUCTURE_TOL
        assert TwoQubitState(m).is_x == is_x


def test_analytic_eigenvalues_match_solver(rng):
    worst = 0.0
    for _ in range(200):
        p = float(rng.uniform(0.0, 1.0))
        n = int(rng.integers(2, 10))
        parity = Parity.EVEN if rng.integers(2) else Parity.ODD
        m = reduced_rho12(spec(p, parity, n)).matrix
        analytic = np.sort(
            _block_eigenvalues(m[0, 0].real, m[3, 3].real, m[0, 3])
            + _block_eigenvalues(m[1, 1].real, m[2, 2].real, m[1, 2])
        )
        solver = np.linalg.eigvalsh(m)  # ascending
        worst = max(worst, float(np.max(np.abs(analytic - solver))))
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
        state = reduced_rho12(spec(1.0, Parity.ODD, n))
        m = state.matrix
        assert m[0, 0].real == pytest.approx((n - 2) / n, abs=1e-15)
        assert m[1, 1].real == pytest.approx(1.0 / n, abs=1e-15)
        assert m[2, 2].real == pytest.approx(1.0 / n, abs=1e-15)
        assert m[3, 3].real == pytest.approx(0.0, abs=1e-15)
        assert m[1, 2].real == pytest.approx(1.0 / n, abs=1e-15)
    with pytest.raises(DomainError):
        reduced_rho12(spec(1.0, Parity.ODD, 1))


def test_werner_limit_is_odd_p_to_one_limit():
    # approaching p -> 1 on the odd branch lands on the shared-excitation state
    n = 5
    near = reduced_rho12(spec(1.0 - 1e-9, Parity.ODD, n)).matrix
    limit = reduced_rho12(spec(1.0, Parity.ODD, n)).matrix
    assert np.max(np.abs(near - limit)) < 1e-7


def test_odd_p_one_is_the_w_state_exactly():
    # the shared-single-excitation pair: (n-2)/n on |00>, 1/n on |01>, |10>
    # and between them, nothing on |11>
    for n in range(2, 9):
        w = np.zeros((4, 4), dtype=complex)
        w[0, 0] = (n - 2) / n
        w[1, 1] = w[2, 2] = w[1, 2] = w[2, 1] = 1.0 / n
        rho = reduced_rho12(spec(1.0, Parity.ODD, n)).matrix
        assert np.array_equal(rho, w), n


def test_superposition_vector_normalizes_itself():
    # 1 - p = 1e-12 on the odd branch, where the closed prefactor
    # 1/sqrt(2 - 2 p^n) loses digits (norm 1 - 1.25e-12 at n = 6)
    for n in range(2, 9):
        for parity in Parity:
            vec = superposition_vector(spec(1.0 - 1e-12, parity, n))
            assert abs(np.linalg.norm(vec) - 1.0) <= 1e-15, (n, parity)


def test_odd_p_one_has_no_superposition_vector():
    # the two branches cancel, so the state itself does not exist there
    with pytest.raises(DomainError, match="vanishes"):
        superposition_vector(spec(1.0, Parity.ODD, 4))


def test_even_p_one_collapses_to_vacuum():
    # identical branches on the even sign leave the bare product state
    rho = reduced_rho12(spec(1.0, Parity.EVEN, 6)).matrix
    expect = np.zeros((4, 4), dtype=complex)
    expect[0, 0] = 1.0
    assert np.max(np.abs(rho - expect)) < 1e-14
