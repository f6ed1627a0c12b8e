import math

import numpy as np
import pytest

from catcorr import TwoQubitState, bloch_matrix


@pytest.fixture
def rng():
    return np.random.default_rng(20260817)


def random_full_rank_state(rng):
    """A full-rank two-qubit state g g^dagger / Tr, g complex Gaussian from rng."""
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    m = g @ g.conj().T
    return TwoQubitState(m / m.trace().real)


def reference_h2(x):
    # vectorized binary entropy, inputs assumed near [0, 1]
    x = np.clip(np.asarray(x, dtype=float), 0.0, 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        raw = -x * np.log2(x) - (1.0 - x) * np.log2(1.0 - x)
    return np.where((x <= 0.0) | (x >= 1.0), 0.0, raw)


def reference_field(table, d1, d2, d3):
    """Measurement-conditioned entropy of the Bloch table `table`, per
    outcome, at the directions (d1, d2, d3): the formula the field kernels
    evaluate in blocks, and their bitwise reference."""
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


def cond_entropy(state, theta, phi):
    """Average entropy of the second qubit of `state` after measuring the
    first along (sin t cos f, sin t sin f, cos t), weighted by the outcome
    probabilities: `reference_field` at that one direction."""
    st = math.sin(theta)
    direction = st * math.cos(phi), st * math.sin(phi), math.cos(theta)
    return float(reference_field(bloch_matrix(state), *map(np.float64, direction)))
