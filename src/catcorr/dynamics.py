"""Independent single-mode dephasing on both modes of the pair.

Populations are untouched while the two X-state coherences decay by
1 - gamma = exp(-rate * t).  Entanglement dies at a finite time whenever
the cross-branch weight p^(n-2) is below one; the measurement-optimized
discord survives past that point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .correlations import _discord_x
from .errors import DomainError, _is_whole
from .states import SuperpositionSpec, TwoQubitState, _pair_block

# points of a default time grid, and of the dynamics command's --t-steps
DEFAULT_T_STEPS = 200


@dataclass(frozen=True)
class DephasingChannel:
    """Dephasing for a time t at a fixed decay rate.

    gamma = 1 - exp(-rate t) grows monotonically from 0 to 1.  The
    single-mode Kraus pair diag(1, sqrt(1-gamma)), diag(0, sqrt(gamma))
    resolves the identity for every gamma in [0, 1].  gamma is computed
    once, from the rate and the time, which alone set repr, eq and hash.
    """

    gamma_rate: float
    t: float
    gamma: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.gamma_rate < 0.0 or math.isnan(self.gamma_rate):
            raise DomainError(f"decay rate must be nonnegative, got {self.gamma_rate}")
        if self.t < 0.0 or math.isnan(self.t):
            raise DomainError(f"time must be nonnegative, got {self.t}")
        gamma = -math.expm1(-self.gamma_rate * self.t)
        # a zero rate for an infinite time (0 * inf) leaves gamma undefined
        if math.isnan(gamma):
            raise DomainError(
                f"gamma is undefined for rate {self.gamma_rate} and time {self.t}"
            )
        object.__setattr__(self, "gamma", gamma)

    @classmethod
    def from_gamma(cls, gamma: float) -> "DephasingChannel":
        """Channel reaching the prescribed gamma in [0, 1] at unit rate."""
        if not 0.0 <= gamma <= 1.0:
            raise DomainError(f"gamma must lie in [0, 1], got {gamma}")
        if gamma == 1.0:
            return cls(1.0, math.inf)
        return cls(1.0, -math.log1p(-gamma))

    def kraus_single(self) -> tuple[np.ndarray, np.ndarray]:
        g = self.gamma
        e0 = np.diag([1.0, math.sqrt(1.0 - g)]).astype(complex)
        e1 = np.diag([0.0, math.sqrt(g)]).astype(complex)
        return e0, e1


def apply_dephasing(state: TwoQubitState, channel: DephasingChannel) -> TwoQubitState:
    """Kraus-sum evolution with the dephasing pair acting on each mode.

    Diagonal entries are preserved; the X-state coherences pick up the
    factor 1 - gamma.  Each Kraus product kron(first, second) is
    diagonal, so it acts as its diagonal d: d_i rho_ij conj(d_j), with
    the bits of the matrix products op @ rho @ op^dagger.
    """
    rho = state.matrix
    diagonals = [np.diag(op) for op in channel.kraus_single()]
    out = np.zeros((4, 4), dtype=complex)
    for first in diagonals:
        for second in diagonals:
            d = np.multiply.outer(first, second).ravel()
            out += (d[:, None] * rho) * d.conj()[None, :]
    return TwoQubitState(out)


def concurrence_t(spec: SuperpositionSpec, channel: DephasingChannel) -> float:
    """Closed-form concurrence of the dephased pair.

    Dephasing scales both X-state coherences, rho03 and rho12 (equal to
    the population rho11 before dephasing), by 1 - gamma and leaves the
    populations alone, so the concurrence is
    2 max(0, (1-gamma) rho03 - rho11, (1-gamma) rho11 - rho03).
    """
    _, _, r03, r11, _ = _pair_block(spec.p, spec.n - 2, spec.parity.sign)
    decay = 1.0 - channel.gamma
    return 2.0 * max(0.0, decay * r03 - r11, decay * r11 - r03)


def sudden_death_time(spec: SuperpositionSpec, gamma_rate: float) -> float:
    """Time at which the dephased concurrence hits zero:
    (1/rate) [ln(1 + p^(n-2)) - ln(1 - p^(n-2))].

    Infinite when the cross-branch weight is one (n = 2, or p = 1 with
    even parity); zero when p = 0.
    """
    if not gamma_rate > 0.0:
        raise DomainError(f"decay rate must be positive, got {gamma_rate}")
    q = spec.q
    if q >= 1.0:
        return math.inf
    return (math.log1p(q) - math.log1p(-q)) / gamma_rate


def discord_t(spec: SuperpositionSpec, channel: DephasingChannel) -> float:
    """Measurement-optimized discord of the dephased pair.

    The dephased pair is a real X state: the pair entries with both
    coherences scaled by 1 - gamma.  Its projective discord is taken
    exactly by the X-state reduction (optimal azimuth in closed form, the
    polar angle from one grid of angles and the sign of the objective's
    slope, see `_polar_minimum`); `discord_brute_force` on
    `apply_dephasing(reduced_rho12(spec), channel)` is the independent 2-D
    check.  Once dephasing raises the rank above two this is an upper
    bound on the unrestricted-POVM discord.
    """
    r00, r33, r03, r11, _ = _pair_block(spec.p, spec.n - 2, spec.parity.sign)
    decay = 1.0 - channel.gamma
    return _discord_x(r00, r11, r11, r33, decay * r03, decay * r11)[0]


def default_time_grid(
    spec: SuperpositionSpec, gamma_rate: float, steps: int = DEFAULT_T_STEPS
) -> np.ndarray:
    """Uniform sweep times: [0, 3 t_death] when the death time is finite
    and positive, otherwise [0, 5/rate].  A rate that is not finite and
    positive, or so small that the horizon overflows, is a domain error,
    and so is a step count that is not a whole number of at least 2 (a
    whole float such as 3.0 is accepted)."""
    if not _is_whole(steps) or steps < 2:
        raise DomainError(f"need a whole number of at least 2 time steps, got {steps!r}")
    if not 0.0 < gamma_rate < math.inf:
        raise DomainError(f"decay rate must be positive and finite, got {gamma_rate}")
    t_death = sudden_death_time(spec, gamma_rate)
    horizon = 3.0 * t_death if 0.0 < t_death < math.inf else 5.0 / gamma_rate
    if not horizon < math.inf:
        raise DomainError(f"time horizon overflows at decay rate {gamma_rate}")
    return np.linspace(0.0, horizon, int(steps))
