"""Acceptance gate: eight go/no-go checks on the whole package.

Each test prints exactly one pass/fail line (run with -s to see them all
live); the assertions carry the same tolerances the lines report.
"""

import math
import time

import numpy as np
import pytest

from catcorr import (
    AlgebraSpec,
    DephasingChannel,
    Parity,
    SuperpositionSpec,
    apply_dephasing,
    concurrence_t,
    concurrence_x,
    discord_brute_force,
    discord_mixed_closed,
    discord_pure,
    discord_t,
    koashi_winter_min,
    overlap_closed,
    overlap_series,
    partial_trace_pair,
    pure_bipartition,
    reduced_rho12,
    sudden_death_time,
    superposition_vector,
    werner_discord,
)

P_GRID = [0.05 * k for k in range(1, 20)]
N_GRID = range(2, 9)
PARITIES = (Parity.EVEN, Parity.ODD)


def _verdict(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"criterion {num} [{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"criterion {num} {name}: {detail}"


@pytest.fixture(scope="module")
def scan_sweep():
    """Closed-form and scan-oracle reports over the 266-state grid."""
    start = time.perf_counter()
    rows = []
    for p in P_GRID:
        for n in N_GRID:
            for parity in PARITIES:
                spec = SuperpositionSpec(p, parity, n)
                closed = discord_mixed_closed(spec)
                brute = discord_brute_force(reduced_rho12(spec))
                rows.append((spec, closed, brute))
    elapsed = time.perf_counter() - start
    return rows, elapsed


def test_criterion_1_closed_discord_matches_scan_oracle(scan_sweep):
    rows, elapsed = scan_sweep
    worst = max(abs(c.discord - b.discord) for _, c, b in rows)
    ok = worst < 1e-6 and elapsed < 60.0
    _verdict(
        1,
        "closed vs scan discord on 266 states",
        ok,
        f"worst |closed-scan| = {worst:.3e} (tol 1e-6), elapsed {elapsed:.1f}s (limit 60s)",
    )


def test_criterion_2_conditional_entropy_minimum(scan_sweep):
    rows, _ = scan_sweep
    theta_step = math.pi / 180.0
    worst_val = max(abs(b.s_cond_min - koashi_winter_min(s)) for s, _, b in rows)
    worst_theta = max(abs(b.argmin.theta - math.pi / 2.0) for _, _, b in rows)
    ok = worst_val < 1e-8 and worst_theta <= theta_step + 1e-12
    _verdict(
        2,
        "scan minimum matches purification closed form",
        ok,
        f"worst value gap = {worst_val:.3e} (tol 1e-8), "
        f"worst |theta - pi/2| = {worst_theta:.3e} (limit one grid step {theta_step:.3e})",
    )


def test_criterion_3_partial_trace_oracle(rng):
    worst = 0.0
    for n in range(3, 11):
        for _ in range(50):
            p = float(rng.uniform(0.0, 1.0))
            parity = PARITIES[int(rng.integers(2))]
            if parity is Parity.ODD and p == 1.0:
                continue
            spec = SuperpositionSpec(p, parity, n)
            closed = reduced_rho12(spec).matrix
            oracle = partial_trace_pair(superposition_vector(spec)).matrix
            worst = max(worst, float(np.max(np.abs(closed - oracle))))
    ok = worst < 1e-12
    _verdict(
        3,
        "closed pair state vs 2^n partial trace",
        ok,
        f"worst entrywise gap = {worst:.3e} (tol 1e-12, n 3..10, 50 draws each)",
    )


def test_criterion_4_overlap_series_vs_closed():
    cases = []
    for z in np.linspace(0.0, 2.5, 120):
        cases.append((AlgebraSpec.harmonic(), complex(z)))
    for j in (0.5, 1.0, 1.5, 3.0):
        top = 0.99 if (2 * j) % 2 == 1 else 2.0
        for z in np.linspace(0.0, top, 30):
            cases.append((AlgebraSpec.su2(j), complex(z)))
    for k in (0.5, 1.0, 2.5, 4.0):
        for z in np.linspace(0.0, 0.96, 30):
            cases.append((AlgebraSpec.su11(k), complex(z)))
    worst = max(
        abs(overlap_closed(alg, z).value - overlap_series(alg, z).value)
        for alg, z in cases
    )
    ok = worst < 1e-10
    _verdict(
        4,
        "series overlap vs closed kernels",
        ok,
        f"worst gap = {worst:.3e} (tol 1e-10, {len(cases)} points over 3 algebras)",
    )


def test_criterion_5_limit_cases():
    gaps = []
    # (a) orthogonal branches make every pure splitting maximally discordant
    for n in N_GRID:
        for parity in PARITIES:
            for k in range(1, n):
                spec = SuperpositionSpec(0.0, parity, n)
                gaps.append(abs(discord_pure(pure_bipartition(spec, k)).discord - 1.0))
    worst_pure = max(gaps)
    # (b) the two-mode antisymmetric pair state stays at unit discord
    worst_n2 = max(
        abs(discord_mixed_closed(SuperpositionSpec(p, Parity.ODD, 2)).discord - 1.0)
        for p in np.linspace(0.0, 0.999, 200)
    )
    # (c) discord vanishes identically at both uncorrelated ends
    end_vals = []
    for n in range(3, 9):
        for parity in PARITIES:
            end_vals.append(discord_mixed_closed(SuperpositionSpec(0.0, parity, n)).discord)
        end_vals.append(discord_mixed_closed(SuperpositionSpec(1.0, Parity.EVEN, n)).discord)
    ends_exact = all(v == 0.0 for v in end_vals)
    # (d) shared-excitation limit: scan oracle vs closed expression
    worst_w = max(
        abs(
            discord_brute_force(reduced_rho12(SuperpositionSpec(1.0, Parity.ODD, n))).discord
            - werner_discord(n)
        )
        for n in range(3, 9)
    )
    # (e) its concurrence is 2/n, also as the odd-branch overlap approaches 1
    worst_c = max(
        max(
            abs(concurrence_x(reduced_rho12(SuperpositionSpec(1.0, Parity.ODD, n))) - 2.0 / n),
            abs(
                discord_mixed_closed(
                    SuperpositionSpec(1.0 - 1e-9, Parity.ODD, n)
                ).concurrence
                - 2.0 / n
            ),
        )
        for n in range(3, 9)
    )
    ok = (
        worst_pure < 1e-12
        and worst_n2 < 1e-12
        and ends_exact
        and worst_w < 1e-6
        and worst_c < 1e-6
    )
    _verdict(
        5,
        "limit cases",
        ok,
        f"pure splittings |D-1| = {worst_pure:.1e} (tol 1e-12); "
        f"n=2 odd |D-1| = {worst_n2:.1e} (tol 1e-12); "
        f"uncorrelated ends exact zero = {ends_exact}; "
        f"shared-excitation discord gap = {worst_w:.1e} (tol 1e-6); "
        f"concurrence 2/n gap = {worst_c:.1e} (tol 1e-6)",
    )


def test_criterion_6_sweep_shape_properties():
    p_values = np.linspace(0.0, 0.999, 500)

    def curve(n, parity):
        return np.array(
            [
                discord_mixed_closed(SuperpositionSpec(float(p), parity, n)).discord
                for p in p_values
            ]
        )

    even = {n: curve(n, Parity.EVEN) for n in (4, 5, 25)}
    zero_end = max(abs(even[n][0]) for n in even)
    one_end = max(even[n][-1] for n in even)
    interior = all(0 < int(np.argmax(even[n])) < len(p_values) - 1 for n in even)
    larger_n = max(even[25]) > max(even[4]) and max(even[25]) > max(even[5])
    odd_25 = curve(25, Parity.ODD)
    odd_interior = 0 < int(np.argmax(odd_25)) < len(p_values) - 1
    ok = zero_end == 0.0 and one_end < 1e-2 and interior and larger_n and odd_interior
    _verdict(
        6,
        "sweep shape properties",
        ok,
        f"even-branch D(0) = {zero_end:.1e} (exact 0), D(0.999) max = {one_end:.1e} "
        f"(< 1e-2), interior maxima = {interior}, n=25 peak dominates = {larger_n}, "
        f"odd n=25 peak interior = {odd_interior}",
    )


def test_criterion_7_dephasing_dynamics(rng):
    worst_conc = 0.0
    worst_t0 = 0.0
    dead_ok = True
    for _ in range(20):
        p = float(rng.uniform(0.0, 0.95))
        n = int(rng.integers(2, 9))
        parity = PARITIES[int(rng.integers(2))]
        spec = SuperpositionSpec(p, parity, n)
        rate = float(rng.uniform(0.3, 2.0))
        t0 = sudden_death_time(spec, rate)
        q = spec.q
        if q < 1.0:
            formula = (math.log1p(q) - math.log1p(-q)) / rate
            worst_t0 = max(worst_t0, abs(t0 - formula))
        horizon = 3.0 * t0 if 0.0 < t0 < math.inf else 5.0 / rate
        for t in np.linspace(0.0, horizon, 200):
            channel = DephasingChannel(rate, float(t))
            closed = concurrence_t(spec, channel)
            oracle = concurrence_x(apply_dephasing(reduced_rho12(spec), channel))
            worst_conc = max(worst_conc, abs(closed - oracle))
            if t >= t0 and closed != 0.0:
                dead_ok = False
    survivors = []
    for _ in range(6):
        p = float(rng.uniform(0.2, 0.95))
        n = int(rng.integers(3, 9))
        parity = PARITIES[int(rng.integers(2))]
        spec = SuperpositionSpec(p, parity, n)
        t0 = sudden_death_time(spec, 1.0)
        survivors.append(discord_t(spec, DephasingChannel(1.0, 2.0 * t0)))
    min_disc = min(survivors)
    ok = worst_conc < 1e-10 and worst_t0 < 1e-12 and dead_ok and min_disc > 1e-9
    _verdict(
        7,
        "dephasing dynamics",
        ok,
        f"closed vs Kraus-evolved concurrence gap = {worst_conc:.1e} (tol 1e-10, 20 specs x "
        f"200 times); death-time formula gap = {worst_t0:.1e} (tol 1e-12); zero past "
        f"death = {dead_ok}; min discord at 2 t0 = {min_disc:.1e} (> 1e-9)",
    )


def test_criterion_8_invariant_suite(rng):
    violations = 0
    checked = 0
    for _ in range(1000):
        p = float(rng.uniform(0.0, 1.0))
        n = int(rng.integers(2, 11))
        parity = PARITIES[int(rng.integers(2))]
        if parity is Parity.ODD and p == 1.0:
            continue
        spec = SuperpositionSpec(p, parity, n)
        channel = DephasingChannel(float(rng.uniform(0.1, 2.0)), float(rng.uniform(0.0, 3.0)))
        state = reduced_rho12(spec)
        evolved = apply_dephasing(state, channel)
        for m in (state.matrix, evolved.matrix):
            checked += 1
            if abs(m.trace() - 1.0) > 1e-12:
                violations += 1
            if np.max(np.abs(m - m.conj().T)) > 1e-12:
                violations += 1
            if np.linalg.eigvalsh(m).min() < -1e-10:
                violations += 1
            top = m.reshape(2, 2, 2, 2)
            if np.max(np.abs(np.einsum("ikjk->ij", top) - np.einsum("kikj->ij", top))) > 1e-12:
                violations += 1
        report = discord_mixed_closed(spec)
        if abs(report.discord - (report.mutual_info - report.classical_corr)) > 1e-12:
            violations += 1
    ok = violations == 0 and checked >= 1000
    _verdict(
        8,
        "invariant suite",
        ok,
        f"{violations} violations over {checked} constructed/evolved states "
        "(trace, Hermiticity, positivity, marginal equality, additivity identity)",
    )
