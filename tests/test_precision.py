"""Closed forms near the degenerate odd limit p -> 1, against a 50-digit
reference built from the textbook (uncancelled) formulas."""

import numpy as np
import pytest

from catcorr import (
    DephasingChannel,
    Parity,
    SuperpositionSpec,
    concurrence_pure,
    concurrence_t,
    discord_mixed_closed,
    koashi_winter_min,
    pure_bipartition,
)

mpmath = pytest.importorskip("mpmath")
mp = mpmath.mp

TOL = 1e-12
GAMMAS = (0.0, 0.5, 0.99)


def _h(x):
    return sum(-y * mpmath.log(y, 2) for y in (x, 1 - x) if y > 0)


def _reference(p, c, n, k, gammas):
    """Discord, mutual information, concurrence, Koashi-Winter minimum,
    dephased concurrences and pure k|(n-k) concurrence at exact p."""
    den = 1 + c * p**n
    marg = (1 + p) * (1 + c * p ** (n - 1)) / (2 * den)
    lam = (1 + p * p) * (1 + c * p ** (n - 2)) / (2 * den)
    q_sq = p * p * (1 - p * p) * (1 - p ** (2 * n - 4)) / den**2
    s_min = _h((1 + mpmath.sqrt(1 - q_sq)) / 2)
    info = 2 * _h(marg) - _h(lam)
    disc = _h(marg) + s_min - _h(lam)
    conc = (p ** (n - 2) - p**n) / den
    scale = (1 - p * p) / (4 * den)
    qc = c * p ** (n - 2)
    conc_t = []
    for gamma in gammas:
        decay = 1 - mpmath.mpf(gamma)
        corner = scale * (decay * (1 + qc) - (1 - qc))
        inner = scale * (decay * (1 - qc) - (1 + qc))
        conc_t.append(2 * max(0, corner, inner))
    pure = mpmath.sqrt((1 - p ** (2 * k)) * (1 - p ** (2 * (n - k)))) / den
    return disc, info, conc, s_min, conc_t, pure


def test_closed_forms_match_50_digit_reference_near_p_one():
    channels = [DephasingChannel.from_gamma(g) for g in GAMMAS]
    worst = {}

    def record(name, got, expect):
        worst[name] = max(worst.get(name, 0.0), abs(float(got - expect)))

    with mpmath.workdps(50):
        for eps in np.logspace(-15, -2, 14):
            p = 1.0 - float(eps)  # the reference uses this float exactly
            for n in range(2, 51):
                for parity in (Parity.EVEN, Parity.ODD):
                    spec = SuperpositionSpec(p, parity, n)
                    k = n // 2
                    disc, info, conc, s_min, conc_t, pure = _reference(
                        mp.mpf(p), parity.sign, n, k, [ch.gamma for ch in channels]
                    )
                    report = discord_mixed_closed(spec)
                    record("discord", report.discord, disc)
                    record("mutual_info", report.mutual_info, info)
                    record("concurrence", report.concurrence, conc)
                    record("koashi_winter_min", koashi_winter_min(spec), s_min)
                    for ch, expect in zip(channels, conc_t):
                        record("concurrence_t", concurrence_t(spec, ch), expect)
                    bp = pure_bipartition(spec, k)
                    record("concurrence_pure", concurrence_pure(bp), pure)
    assert max(worst.values()) <= TOL, worst
