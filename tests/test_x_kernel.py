"""The X-state discord kernel against the form it replaced.

`_discord_x` evaluates the binary entropy of its polar-angle objective
inline.  `reference_discord_x` below is the form that called
`binary_entropy` for each outcome, unchanged but for the name: the kernel
must return the same bits on every input.
"""

import math

import numpy as np
import pytest

from catcorr import DomainError, Parity
from catcorr.correlations import (
    _X_THETA_POINTS,
    _block_eigenvalues,
    _discord_x,
    _golden_section,
    binary_entropy,
)
from catcorr.states import _pair_block


def reference_discord_x(
    r00: float, r11: float, r22: float, r33: float, c03: float, c12: float
) -> float:
    a3 = r00 + r11 - r22 - r33
    b3 = r00 - r11 + r22 - r33
    t33 = r00 - r11 - r22 + r33
    t_perp = 2.0 * (abs(c03) + abs(c12))

    def s_cond(theta: float) -> float:
        cos_t = math.cos(theta)
        trans = (t_perp * math.sin(theta)) ** 2
        total = 0.0
        for sign in (1.0, -1.0):
            weight = 1.0 + sign * a3 * cos_t  # twice the outcome probability
            if weight > 2e-15:
                length = math.sqrt(trans + (b3 + sign * t33 * cos_t) ** 2)
                r = min(length / weight, 1.0)
                total += 0.5 * weight * binary_entropy(0.5 - 0.5 * r)
        return total

    step = 0.5 * math.pi / (_X_THETA_POINTS - 1)
    best_val, i = min((s_cond(k * step), k) for k in range(_X_THETA_POINTS))
    _, val = _golden_section(
        s_cond, max(0.0, (i - 1) * step), min(0.5 * math.pi, (i + 1) * step)
    )
    s_ab = 0.0
    for lam in _block_eigenvalues(r00, r33, c03) + _block_eigenvalues(r11, r22, c12):
        if lam > 0.0:
            s_ab -= lam * math.log2(lam)
    return binary_entropy(min(r00 + r11, r22 + r33)) + min(best_val, val) - s_ab


def random_x_entries(rng, count):
    # unequal populations, coherences of either sign up to the PSD bound
    for _ in range(count):
        r00, r11, r22, r33 = rng.dirichlet(np.ones(4)).tolist()
        s03, s12 = rng.choice((-1.0, 1.0), size=2).tolist()
        f03, f12 = rng.random(2).tolist()
        yield (r00, r11, r22, r33,
               s03 * f03 * math.sqrt(r00 * r33), s12 * f12 * math.sqrt(r11 * r22))


def dephased_pair_entries(rng):
    overlaps = [0.05, 0.5, 0.9, 0.999] + [1.0 - 10.0 ** -k for k in range(4, 13)]
    for parity in Parity:
        for n in (2, 3, 4, 7, 20, 50):
            for p in overlaps:
                r00, r33, r03, r11, _ = _pair_block(p, n - 2, parity.sign)
                for gamma in [0.0, 1.0] + rng.random(3).tolist():
                    decay = 1.0 - gamma
                    yield r00, r11, r11, r33, decay * r03, decay * r11


BOUNDARY_ENTRIES = [
    # interior optima of test_x_state_kernel_finds_interior_optimum
    (0.0722, 0.038, 0.0, 0.8898, 0.2318, 0.0),
    (0.9272, 0.0, 0.0612, 0.0116, 0.0809, 0.0),
    (0.0387, 0.0888, 0.0, 0.8725, -0.1487, 0.0),
    (0.0059, 0.0136, 0.9802, 0.0003, -0.0007, -0.1068),
    # dephased pairs near p = 1 whose optimum is an interior well next to
    # theta = 0 (theta* ~ 7.5e-4 and ~ 4.0e-3), below s(0) by 4.1e-10 and
    # 2.8e-8: only the golden-section comparisons find it
    (0.9999972472605235, 1.2512449887640687e-06, 1.2512449887640687e-06,
     2.5024949875150816e-07, 0.00033966112149885134, 8.495758916917835e-07),
    (0.9999907410715136, 4.504340307865265e-06, 4.504340307865265e-06,
     2.5024787057648767e-07, 0.0003134477866445946, 2.822365256167071e-06),
    # |00><00|: the outcome of -z has probability 0
    (1.0, 0.0, 0.0, 0.0, 0.0, 0.0),
    # Bell states: every conditional state is pure, r = 1
    (0.5, 0.0, 0.0, 0.5, 0.5, 0.0),
    (0.5, 0.0, 0.0, 0.5, -0.5, 0.0),
    (0.0, 0.5, 0.5, 0.0, 0.0, 0.5),
    # classical state without coherences
    (0.4, 0.1, 0.2, 0.3, 0.0, 0.0),
    (0.25, 0.25, 0.25, 0.25, 0.0, 0.0),
]


def test_x_kernel_matches_binary_entropy_reference_bitwise(rng):
    cases = list(random_x_entries(rng, 2000))
    cases += dephased_pair_entries(rng)
    cases += BOUNDARY_ENTRIES
    for entries in cases:
        assert _discord_x(*entries).hex() == reference_discord_x(*entries).hex(), entries


def test_x_kernel_rejects_nan_like_the_reference():
    # a NaN coherence reaches the entropy as a NaN Bloch length
    entries = (0.4, 0.1, 0.2, 0.3, math.nan, 0.0)
    with pytest.raises(DomainError):
        reference_discord_x(*entries)
    with pytest.raises(DomainError):
        _discord_x(*entries)
