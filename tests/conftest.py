import numpy as np
import pytest

from catcorr import TwoQubitState


@pytest.fixture
def rng():
    return np.random.default_rng(20260817)


def random_full_rank_state(rng):
    """A full-rank two-qubit state g g^dagger / Tr, g complex Gaussian from rng."""
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    m = g @ g.conj().T
    return TwoQubitState(m / m.trace().real)
