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

# the series stops once its latest term falls below this, relative to its sum
SERIES_TOL = 1e-14
# roundoff-level excursions of an overlap beyond [0, 1] that are clamped
OVERLAP_SLACK = 1e-12
# largest rounding bound of a returned series sum: the oracle's 1e-10 tolerance
_SERIES_ROUNDING_MAX = 1e-10
# a representation parameter r is taken as a half-integer when 2r lies
# within this of an integer, that is r within 5e-10 of the half-integer
_HALF_INTEGER_TOL = 1e-9


class AlgebraKind(Enum):
    """Ladder algebra selecting the coherent-state family; the harmonic
    oscillator's are Glauber's coherent states."""

    HARMONIC = "glauber"
    SU2 = "su2"
    SU11 = "su11"


@dataclass(frozen=True)
class AlgebraSpec:
    """A ladder algebra plus its representation parameter.

    For SU2 the parameter is the spin j, for SU11 the Bargmann index k;
    both must be positive half-integers, and a value r whose 2r lies within
    1e-9 of an integer (r within 5e-10 of a half-integer) is stored as that
    exact half-integer.  The harmonic oscillator carries no parameter.
    """

    kind: AlgebraKind
    rep_param: float | None = None

    def __post_init__(self) -> None:
        r = self.rep_param
        if self.kind is AlgebraKind.HARMONIC:
            if r is not None:
                raise DomainError(f"glauber takes no representation parameter, got {r}")
            return
        if r is None:
            raise DomainError(f"{self.kind.value} needs a representation parameter")
        two_r = 2.0 * r  # inf for a finite r that overflows
        if not 0.5 < two_r < math.inf or abs(two_r - round(two_r)) > _HALF_INTEGER_TOL:
            raise DomainError(
                f"representation parameter must be a positive half-integer, got {r}"
            )
        object.__setattr__(self, "rep_param", round(two_r) / 2)

    @classmethod
    def harmonic(cls) -> "AlgebraSpec":
        return cls(AlgebraKind.HARMONIC)

    @classmethod
    def su2(cls, j: float) -> "AlgebraSpec":
        return cls(AlgebraKind.SU2, j)

    @classmethod
    def su11(cls, k: float) -> "AlgebraSpec":
        return cls(AlgebraKind.SU11, k)


def _structure_function(alg: AlgebraSpec, n: int) -> float:
    """The structure function F(n) of the algebra at a level n >= 1 of
    `overlap_series`.

    F(n) = n for the harmonic oscillator, n(2k - 1 + n) for su(1,1), and
    n(2j + 1 - n) for su(2), whose ladder ends where F first vanishes
    again, at n = 2j + 1: the series stops there.
    """
    if alg.kind is AlgebraKind.HARMONIC:
        return float(n)
    if alg.kind is AlgebraKind.SU11:
        return n * (2.0 * alg.rep_param - 1.0 + n)
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
        if not -OVERLAP_SLACK <= v <= 1.0 + OVERLAP_SLACK:
            raise DomainError(
                f"overlap {v} lies outside [0, 1]; amplitude {self.z} is outside "
                f"the admissible domain of {self.algebra.kind.value}"
            )
        object.__setattr__(self, "value", min(max(v, 0.0), 1.0))


def _amplitude_sq(alg: AlgebraSpec, z: complex) -> float:
    """|z|^2, inf where it overflows; a z with a NaN part is refused, and
    su(1,1) amplitudes must lie in the open unit disc."""
    if z != z:  # abs(complex(inf, nan)) is inf, not NaN
        raise DomainError(f"amplitude must be a number, got z={z}")
    try:
        x = abs(z) ** 2
    except OverflowError:
        x = math.inf
    if alg.kind is AlgebraKind.SU11 and x >= 1.0:
        raise DomainError(f"su(1,1) amplitudes live on the open unit disc, got z={z}")
    return x


def overlap_closed(alg: AlgebraSpec, z: complex) -> Overlap:
    """Closed-form overlap of |z> and |-z>.

    exp(-2|z|^2) for the harmonic oscillator and
    ((1 - |z|^2)/(1 + |z|^2))^(2j) resp. ^(2k) for su(2) / su(1,1).
    su(1,1) amplitudes must satisfy |z| < 1.  An su(2) |z|^2 that
    overflows takes the limit base -1: p = 1 at integer spin, and the
    negative kernel -1 at half-integer spin.
    """
    x = _amplitude_sq(alg, z)
    if alg.kind is AlgebraKind.HARMONIC:
        return Overlap(math.exp(-2.0 * x), alg, z)
    base = (1.0 - x) / (1.0 + x) if x < math.inf else -1.0
    return Overlap(base ** int(2.0 * alg.rep_param), alg, z)


def _logaddexp(a: float, b: float) -> float:
    # exp(-inf) is 0, so an operand of -inf returns the other one
    hi, lo = (a, b) if a >= b else (b, a)
    return hi + math.log1p(math.exp(lo - hi))


def overlap_series(alg: AlgebraSpec, z: complex) -> Overlap:
    """Overlap summed directly from the coherent-state expansion.

    p = N(|z|)^2 sum_n (F(n)!/(n!)^2) (-|z|^2)^n, with N(|z|)^-2 the same
    sum at +|z|^2.  The generalized factorials are accumulated
    incrementally in log space so large representation parameters cannot
    overflow; the even- and odd-n halves of the alternating numerator are
    carried as two positive log-sums.  Terms are added until the latest
    one falls below SERIES_TOL (relative to the running sum, with a 100x
    safety margin so slowly decaying su(1,1) tails stay inside the
    contract) or an su(2) ladder ends.  The two halves cancel, so the sum
    of n terms carries a rounding bound of n eps (1 + log of its size),
    and the series raises ConvergenceError as soon as it exceeds 1e-10.
    log_even starts at 0 and only grows, so this bound caps every series
    at _SERIES_ROUNDING_MAX / ulp(1), about 4.5e5 terms, and sums long
    su(2) ladders that converge sooner.  A sum that ends negative by more
    than the clamp but within its bound also raises ConvergenceError.
    """
    x = _amplitude_sq(alg, z)
    if x == 0.0:
        return Overlap(1.0, alg, z)
    log_x = math.log(x)
    log_stop = math.log(SERIES_TOL) - math.log(100.0)
    log_even = log_sum = 0.0  # the n = 0 term
    log_odd = -math.inf
    log_coeff = 0.0  # log of F(n)!/(n!)^2, running
    n, rounding = 0, 0.0
    while True:
        f_n = _structure_function(alg, n + 1)
        if f_n == 0.0:
            break  # finite su(2) ladder exhausted
        n += 1
        log_coeff += math.log(f_n) - 2.0 * math.log(n)
        log_term = log_coeff + n * log_x
        if n % 2 == 0:
            log_even = _logaddexp(log_even, log_term)
        else:
            log_odd = _logaddexp(log_odd, log_term)
        log_sum = _logaddexp(log_even, log_odd)
        # the halves are carried as logarithms up to log_sum in size, so each
        # of the n terms can cost p about eps * log_sum in rounding
        rounding = n * math.ulp(1.0) * (1.0 + log_sum)
        if rounding > _SERIES_ROUNDING_MAX:
            raise ConvergenceError(
                f"overlap series lost its value to cancellation: the rounding of "
                f"its first {n} terms already exceeds {_SERIES_ROUNDING_MAX:g}"
            )
        if log_term < log_stop + log_sum:
            break
    p = math.exp(log_even - log_sum) - math.exp(log_odd - log_sum)
    if -rounding <= p < -OVERLAP_SLACK:
        raise ConvergenceError(
            f"overlap series lost its value to cancellation: the even and odd halves "
            f"differ by {p:.3g}, within the rounding {rounding:.3g} of its {n} terms"
        )
    return Overlap(p, alg, z)
