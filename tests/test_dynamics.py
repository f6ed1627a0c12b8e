import math

import numpy as np
import pytest

from catcorr import (
    DephasingChannel,
    DomainError,
    MeasurementBasis,
    Parity,
    SuperpositionSpec,
    TwoQubitState,
    apply_dephasing,
    concurrence_t,
    concurrence_x,
    conditional_entropy,
    default_time_grid,
    discord_brute_force,
    discord_mixed_closed,
    discord_t,
    reduced_rho12,
    sudden_death_time,
)
from catcorr.correlations import _discord_x


def spec(p, parity, n):
    return SuperpositionSpec(p=p, parity=parity, n=n)


def test_channel_gamma_growth():
    ch = DephasingChannel(gamma_rate=0.0, t=5.0)
    assert ch.gamma == 0.0
    ch = DephasingChannel(gamma_rate=1.0, t=0.0)
    assert ch.gamma == 0.0
    ch = DephasingChannel(gamma_rate=2.0, t=1.0)
    assert ch.gamma == pytest.approx(1.0 - math.exp(-2.0), abs=1e-15)
    assert DephasingChannel(gamma_rate=1.0, t=math.inf).gamma == 1.0


def test_channel_validation():
    with pytest.raises(DomainError):
        DephasingChannel(gamma_rate=-1.0, t=0.0)
    with pytest.raises(DomainError):
        DephasingChannel(gamma_rate=1.0, t=-0.5)
    with pytest.raises(DomainError):
        DephasingChannel(gamma_rate=math.nan, t=1.0)
    with pytest.raises(DomainError):  # 0 * inf leaves gamma undefined
        DephasingChannel(gamma_rate=0.0, t=math.inf)


def test_channel_from_gamma_round_trip(rng):
    for g in rng.uniform(0.0, 0.999, size=20):
        ch = DephasingChannel.from_gamma(float(g), gamma_rate=0.7)
        assert ch.gamma == pytest.approx(float(g), abs=1e-12)
    assert DephasingChannel.from_gamma(1.0).t == math.inf
    with pytest.raises(DomainError):
        DephasingChannel.from_gamma(1.5)
    with pytest.raises(DomainError):
        DephasingChannel.from_gamma(0.5, gamma_rate=0.0)


def test_kraus_closure():
    ch = DephasingChannel(gamma_rate=1.3, t=0.8)
    e0, e1 = ch.kraus_single()
    closure = e0.conj().T @ e0 + e1.conj().T @ e1
    assert np.max(np.abs(closure - np.eye(2))) < 1e-15


def test_apply_dephasing_action(rng):
    for _ in range(20):
        p = float(rng.uniform(0.0, 0.99))
        n = int(rng.integers(2, 8))
        parity = Parity.EVEN if rng.integers(2) else Parity.ODD
        s = spec(p, parity, n)
        before = reduced_rho12(s)
        ch = DephasingChannel(gamma_rate=1.0, t=float(rng.uniform(0.0, 3.0)))
        after = apply_dephasing(before, ch).matrix
        decay = 1.0 - ch.gamma
        # populations frozen, coherences damped by 1 - gamma
        assert np.max(np.abs(np.diag(after) - np.diag(before.matrix))) < 1e-14
        assert after[0, 3] == pytest.approx(before.matrix[0, 3] * decay, abs=1e-14)
        assert after[1, 2] == pytest.approx(before.matrix[1, 2] * decay, abs=1e-14)


def test_apply_dephasing_identity_at_t0():
    s = spec(0.6, Parity.ODD, 4)
    state = reduced_rho12(s)
    ch = DephasingChannel(gamma_rate=1.0, t=0.0)
    assert np.max(np.abs(apply_dephasing(state, ch).matrix - state.matrix)) < 1e-15


def test_concurrence_t_matches_spin_flip_oracle(rng):
    worst = 0.0
    for _ in range(40):
        p = float(rng.uniform(0.0, 0.99))
        n = int(rng.integers(2, 9))
        parity = Parity.EVEN if rng.integers(2) else Parity.ODD
        s = spec(p, parity, n)
        ch = DephasingChannel(gamma_rate=1.0, t=float(rng.uniform(0.0, 4.0)))
        closed = concurrence_t(s, ch)
        oracle = concurrence_x(apply_dephasing(reduced_rho12(s), ch))
        worst = max(worst, abs(closed - oracle))
    assert worst < 1e-10


def test_concurrence_t_zero_time_matches_static(rng):
    ch = DephasingChannel(gamma_rate=1.0, t=0.0)
    for _ in range(20):
        p = float(rng.uniform(0.0, 0.99))
        n = int(rng.integers(2, 9))
        parity = Parity.EVEN if rng.integers(2) else Parity.ODD
        s = spec(p, parity, n)
        assert concurrence_t(s, ch) == pytest.approx(
            discord_mixed_closed(s).concurrence, abs=1e-14
        )


def test_sudden_death_time_formula():
    s = spec(0.5, Parity.ODD, 4)
    q = 0.25
    expect = math.log((1.0 + q) / (1.0 - q))
    assert sudden_death_time(s, 1.0) == pytest.approx(expect, abs=1e-12)
    assert sudden_death_time(s, 2.0) == pytest.approx(expect / 2.0, abs=1e-12)
    for rate in (0.0, -1.0, math.nan):
        with pytest.raises(DomainError):
            sudden_death_time(s, rate)


def test_sudden_death_time_edge_cases():
    # q = 1 keeps entanglement alive forever
    assert sudden_death_time(spec(0.5, Parity.ODD, 2), 1.0) == math.inf
    assert sudden_death_time(spec(1.0, Parity.EVEN, 5), 1.0) == math.inf
    # orthogonal branches never had any
    assert sudden_death_time(spec(0.0, Parity.EVEN, 4), 1.0) == 0.0


def test_concurrence_dies_exactly_at_t_death(rng):
    for _ in range(15):
        p = float(rng.uniform(0.2, 0.95))
        n = int(rng.integers(3, 8))
        parity = Parity.EVEN if rng.integers(2) else Parity.ODD
        s = spec(p, parity, n)
        rate = float(rng.uniform(0.3, 2.0))
        t0 = sudden_death_time(s, rate)
        assert concurrence_t(s, DephasingChannel(rate, 0.999 * t0)) > 0.0
        assert concurrence_t(s, DephasingChannel(rate, 1.001 * t0)) == 0.0
        assert concurrence_t(s, DephasingChannel(rate, 3.0 * t0)) == 0.0


def test_discord_survives_entanglement_death():
    s = spec(0.5, Parity.EVEN, 4)
    rate = 1.0
    t0 = sudden_death_time(s, rate)
    ch = DephasingChannel(rate, 2.0 * t0)
    assert concurrence_t(s, ch) == 0.0
    assert discord_t(s, ch) > 1e-3


def test_discord_t_zero_time_matches_closed(rng):
    for _ in range(6):
        p = float(rng.uniform(0.1, 0.95))
        n = int(rng.integers(2, 7))
        parity = Parity.EVEN if rng.integers(2) else Parity.ODD
        s = spec(p, parity, n)
        ch = DephasingChannel(gamma_rate=1.0, t=0.0)
        assert discord_t(s, ch) == pytest.approx(
            discord_mixed_closed(s).discord, abs=1e-9
        )


def test_discord_t_vanishes_for_uncorrelated_state():
    s = spec(0.0, Parity.EVEN, 3)
    ch = DephasingChannel(gamma_rate=1.0, t=1.0)
    assert abs(discord_t(s, ch)) < 1e-12


def _oracle_specs(rng):
    # n = 2 (no sudden death), odd parity near the degenerate p = 1,
    # large n, then random specs
    parities = (Parity.EVEN, Parity.ODD)
    out = []
    for _ in range(8):
        out.append(spec(float(rng.uniform(0.05, 0.95)), parities[rng.integers(2)], 2))
        out.append(spec(1.0 - 10.0 ** float(rng.uniform(-9.0, -2.0)), Parity.ODD,
                        int(rng.integers(3, 9))))
        out.append(spec(float(rng.uniform(0.9, 0.99)), parities[rng.integers(2)],
                        int(rng.integers(20, 51))))
    for _ in range(16):
        out.append(spec(float(rng.uniform(0.0, 0.99)), parities[rng.integers(2)],
                        int(rng.integers(3, 13))))
    return out


def test_discord_t_matches_scan_oracle(rng):
    worst = 0.0
    for s in _oracle_specs(rng):
        rate = float(rng.uniform(0.5, 2.0))
        # the death time (or 5/(3 rate) without one), then twice and three times it
        for t in default_time_grid(s, rate, steps=4)[1:]:
            ch = DephasingChannel(rate, float(t))
            oracle = discord_brute_force(
                apply_dephasing(reduced_rho12(s), ch), grid=(64, 128)
            ).discord
            worst = max(worst, abs(discord_t(s, ch) - oracle))
    assert worst < 1e-9


def _random_x_entries(rng):
    # unequal populations, coherences of either sign up to the PSD limit
    r00, r11, r22, r33 = rng.dirichlet(np.full(4, 0.7))
    c03 = rng.choice((-1.0, 1.0)) * math.sqrt(r00 * r33) * rng.uniform(0.0, 1.0)
    c12 = rng.choice((-1.0, 1.0)) * math.sqrt(r11 * r22) * rng.uniform(0.0, 1.0)
    return float(r00), float(r11), float(r22), float(r33), float(c03), float(c12)


def _x_state(r00, r11, r22, r33, c03, c12):
    m = np.diag([r00, r11, r22, r33]).astype(complex)
    m[0, 3] = m[3, 0] = c03
    m[1, 2] = m[2, 1] = c12
    return TwoQubitState(m)


def test_x_state_kernel_matches_scan_oracle(rng):
    cases = [_random_x_entries(rng) for _ in range(96)]
    cases += [
        (1.0, 0.0, 0.0, 0.0, 0.0, 0.0),  # product |00>
        (0.5, 0.0, 0.0, 0.5, -0.5, 0.0),  # Bell state with a negative coherence
        (0.0, 0.5, 0.5, 0.0, 0.0, 0.5),  # Bell state on the inner block
        (0.4, 0.3, 0.2, 0.1, 0.0, 0.0),  # classical: no coherence
    ]
    worst = 0.0
    for entries in cases:
        oracle = discord_brute_force(_x_state(*entries), grid=(64, 128)).discord
        worst = max(worst, abs(_discord_x(*entries) - oracle))
    assert worst < 1e-9


def test_x_state_kernel_finds_interior_optimum():
    # the optimal polar angle lies strictly inside (0, pi/2), up to d -> -d;
    # the first three states also have a local minimum at theta = 0, so a
    # theta search caught in that basin would show here
    cases = [
        (0.0722, 0.038, 0.0, 0.8898, 0.2318, 0.0),
        (0.9272, 0.0, 0.0612, 0.0116, 0.0809, 0.0),
        (0.0387, 0.0888, 0.0, 0.8725, -0.1487, 0.0),
        (0.0059, 0.0136, 0.9802, 0.0003, -0.0007, -0.1068),
    ]
    for k, entries in enumerate(cases):
        state = _x_state(*entries)
        report = discord_brute_force(state, grid=(64, 128))
        assert abs(math.sin(2.0 * report.argmin.theta)) > 0.5
        if k < 3:
            at_pole = conditional_entropy(state, MeasurementBasis(0.0, 0.0))
            assert at_pole < conditional_entropy(
                state, MeasurementBasis(1e-3, report.argmin.phi)
            )
        assert abs(_discord_x(*entries) - report.discord) < 1e-9


def test_discord_t_vanishes_when_fully_dephased():
    ch = DephasingChannel.from_gamma(1.0)
    for s in (spec(0.5, Parity.EVEN, 4), spec(0.3, Parity.ODD, 2),
              spec(1.0 - 1e-9, Parity.ODD, 6), spec(0.95, Parity.EVEN, 50)):
        value = discord_t(s, ch)
        assert math.isfinite(value)
        assert abs(value) < 1e-12


def test_default_time_grid_shapes():
    s = spec(0.5, Parity.ODD, 4)
    grid = default_time_grid(s, 1.0)
    assert grid.shape == (200,)
    assert grid[0] == 0.0
    assert grid[-1] == pytest.approx(3.0 * sudden_death_time(s, 1.0), abs=1e-12)
    # infinite death time falls back to a rate-scaled horizon
    grid = default_time_grid(spec(0.5, Parity.ODD, 2), 2.0, steps=50)
    assert grid.shape == (50,)
    assert grid[-1] == pytest.approx(2.5, abs=1e-12)
    # so does zero death time (p = 0)
    grid = default_time_grid(spec(0.0, Parity.EVEN, 3), 1.0, steps=10)
    assert grid[-1] == pytest.approx(5.0, abs=1e-12)
    with pytest.raises(DomainError):
        default_time_grid(s, 1.0, steps=1)
    # 3 t_death and 5/rate both overflow at a subnormal rate
    for p in (0.5, 0.0):
        with pytest.raises(DomainError, match="horizon"):
            default_time_grid(spec(p, Parity.ODD, 4), 1e-320)
