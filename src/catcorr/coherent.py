"""Coherent-state families and the overlap between opposite-phase states.

Three ladder algebras are supported, each fixed by its structure function
F(n): the harmonic oscillator (F(n) = n), the spin algebra su(2) with spin
j (F(n) = n(2j + 1 - n), a finite ladder that ends at n = 2j) and su(1,1)
with Bargmann index k (F(n) = n(2k - 1 + n), amplitudes restricted to the
open unit disc).  The overlap p = <z|-z> between coherent states of equal
amplitude and opposite phase is the single parameter every downstream
correlation quantity depends on.  It is available in closed form
(`overlap_closed`) and by direct summation of the defining series
(`overlap_series`); the two routes are independent and cross-validate
each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import ConvergenceError, DomainError

DEFAULT_SERIES_TOL = 1e-14
SERIES_TERM_CAP = 10**6


class AlgebraKind(Enum):
    """Ladder algebra selecting the coherent-state family."""

    HARMONIC = "harmonic"
    SU2 = "su2"
    SU11 = "su11"


@dataclass(frozen=True)
class AlgebraSpec:
    """A ladder algebra plus its representation parameter.

    For SU2 the parameter is the spin j, for SU11 the Bargmann index k;
    both must be positive half-integers.  The harmonic oscillator carries
    no parameter.
    """

    kind: AlgebraKind
    rep_param: float | None = None

    def __post_init__(self) -> None:
        if self.kind is AlgebraKind.HARMONIC:
            return
        r = self.rep_param
        if r is None:
            raise DomainError(f"{self.kind.value} needs a representation parameter")
        if not 0.0 < r < math.inf or abs(2.0 * r - round(2.0 * r)) > 1e-9:
            raise DomainError(
                f"representation parameter must be a positive half-integer, got {r}"
            )

    @classmethod
    def harmonic(cls) -> "AlgebraSpec":
        return cls(AlgebraKind.HARMONIC)

    @classmethod
    def su2(cls, j: float) -> "AlgebraSpec":
        return cls(AlgebraKind.SU2, j)

    @classmethod
    def su11(cls, k: float) -> "AlgebraSpec":
        return cls(AlgebraKind.SU11, k)


def structure_function(alg: AlgebraSpec, n: int) -> float:
    """Evaluate the structure function F(n) of the algebra.

    F(n) = n for the harmonic oscillator, n(2k - 1 + n) for su(1,1), and
    n(2j + 1 - n) for su(2).  The su(2) ladder terminates where F first
    vanishes again, at n = 2j + 1; larger n is a domain error.
    """
    if n != int(n) or n < 0:
        raise DomainError(f"level index must be a nonnegative integer, got {n}")
    n = int(n)
    if alg.kind is AlgebraKind.HARMONIC:
        return float(n)
    if alg.kind is AlgebraKind.SU11:
        return n * (2.0 * alg.rep_param - 1.0 + n)
    top = int(round(2.0 * alg.rep_param)) + 1
    if n > top:
        raise DomainError(
            f"su(2) ladder with j={alg.rep_param} ends at level {top}, got n={n}"
        )
    return n * (2.0 * alg.rep_param + 1.0 - n)


@dataclass(frozen=True)
class Overlap:
    """The real overlap p = <z|-z> tagged with its provenance.

    p equals 1 exactly at z = 0 and lies in [0, 1) otherwise.  Amplitudes
    whose kernel value falls outside [0, 1] (possible for half-integer
    spins beyond the unit circle) are rejected; roundoff-level excursions
    are clamped.
    """

    value: float
    algebra: AlgebraSpec
    z: complex

    def __post_init__(self) -> None:
        v = float(self.value)
        if not -1e-12 <= v <= 1.0 + 1e-12:
            raise DomainError(
                f"overlap {v} lies outside [0, 1]; amplitude {self.z} is outside "
                f"the admissible domain of {self.algebra.kind.value}"
            )
        object.__setattr__(self, "value", min(max(v, 0.0), 1.0))


def overlap_closed(alg: AlgebraSpec, z: complex) -> Overlap:
    """Closed-form overlap of |z> and |-z>.

    exp(-2|z|^2) for the harmonic oscillator and
    ((1 - |z|^2)/(1 + |z|^2))^(2j) resp. ^(2k) for su(2) / su(1,1).
    su(1,1) amplitudes must satisfy |z| < 1.
    """
    x = abs(z) ** 2
    if alg.kind is AlgebraKind.HARMONIC:
        return Overlap(math.exp(-2.0 * x), alg, z)
    if alg.kind is AlgebraKind.SU11 and x >= 1.0:
        raise DomainError(f"su(1,1) amplitudes live on the open unit disc, got |z|={abs(z)}")
    power = int(round(2.0 * alg.rep_param))
    base = (1.0 - x) / (1.0 + x)
    return Overlap(base**power, alg, z)


def _logaddexp(a: float, b: float) -> float:
    if a == -math.inf:
        return b
    if b == -math.inf:
        return a
    hi, lo = (a, b) if a >= b else (b, a)
    return hi + math.log1p(math.exp(lo - hi))


def overlap_series(
    alg: AlgebraSpec,
    z: complex,
    tol: float = DEFAULT_SERIES_TOL,
    term_cap: int = SERIES_TERM_CAP,
) -> Overlap:
    """Overlap summed directly from the coherent-state expansion.

    p = N(|z|)^2 sum_n (F(n)!/(n!)^2) (-|z|^2)^n, with N(|z|)^-2 the same
    sum at +|z|^2.  The generalized factorials are accumulated
    incrementally in log space so large representation parameters cannot
    overflow; the even- and odd-n halves of the alternating numerator are
    carried as two positive log-sums.  Terms are added until the latest
    one falls below tol (relative to the running sum, with a 100x safety
    margin so slowly decaying su(1,1) tails stay inside the contract);
    exceeding the term cap raises ConvergenceError.
    """
    if tol <= 0.0:
        raise DomainError(f"series tolerance must be positive, got {tol}")
    x = abs(z) ** 2
    if alg.kind is AlgebraKind.SU11 and x >= 1.0:
        raise DomainError(f"su(1,1) amplitudes live on the open unit disc, got |z|={abs(z)}")
    if x == 0.0:
        return Overlap(1.0, alg, z)
    log_x = math.log(x)
    log_stop = math.log(tol) - math.log(100.0)
    log_even = 0.0  # n = 0 term
    log_odd = -math.inf
    log_coeff = 0.0  # log of F(n)!/(n!)^2, running
    n = 0
    while True:
        n += 1
        if n > term_cap:
            raise ConvergenceError(f"overlap series did not converge in {term_cap} terms")
        f_n = structure_function(alg, n)
        if f_n == 0.0:
            break  # finite su(2) ladder exhausted
        log_coeff += math.log(f_n) - 2.0 * math.log(n)
        log_term = log_coeff + n * log_x
        if n % 2 == 0:
            log_even = _logaddexp(log_even, log_term)
        else:
            log_odd = _logaddexp(log_odd, log_term)
        if log_term < log_stop + _logaddexp(log_even, log_odd):
            break
    log_den = _logaddexp(log_even, log_odd)
    p = math.exp(log_even - log_den) - math.exp(log_odd - log_den)
    return Overlap(p, alg, z)
