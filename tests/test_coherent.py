import math
import re

import numpy as np
import pytest

from catcorr import (
    AlgebraKind,
    AlgebraSpec,
    ConvergenceError,
    DomainError,
    Overlap,
    coherent,
    overlap_closed,
    overlap_series,
)
from catcorr.coherent import _structure_function

HARMONIC = AlgebraSpec.harmonic()


def test_structure_function_harmonic():
    assert _structure_function(HARMONIC, 0) == 0.0
    assert _structure_function(HARMONIC, 3) == 3.0


def test_structure_function_su2():
    alg = AlgebraSpec.su2(0.5)
    assert _structure_function(alg, 1) == 1.0  # 1*(2*0.5+1-1)
    alg = AlgebraSpec.su2(1.0)
    assert [_structure_function(alg, n) for n in range(4)] == [0.0, 2.0, 2.0, 0.0]


def test_structure_function_su11():
    alg = AlgebraSpec.su11(1.0)
    assert _structure_function(alg, 2) == 2 * (2 * 1.0 - 1 + 2)
    assert _structure_function(alg, 1) == 2.0


def test_rep_param_validation():
    with pytest.raises(DomainError):
        AlgebraSpec.su2(0.4)  # not a half-integer
    with pytest.raises(DomainError):
        AlgebraSpec.su11(-1.0)
    with pytest.raises(DomainError):
        AlgebraSpec(AlgebraKind.SU2)  # missing parameter
    # 2r overflows for 1e308, and 1e-320 lies within 1e-9 of 0
    for bad in (math.inf, -math.inf, math.nan, 1e308, 1e-320):
        with pytest.raises(DomainError, match="half-integer"):
            AlgebraSpec.su2(bad)
    with pytest.raises(DomainError, match="glauber"):
        AlgebraSpec(AlgebraKind.HARMONIC, 1.0)  # glauber takes no parameter
    AlgebraSpec.su2(1.5)  # fine
    AlgebraSpec.harmonic()  # no parameter needed
    # a value whose 2r lies within 1e-9 of an integer (r within 5e-10 of a
    # half-integer) is stored as that half-integer, and one further out is
    # refused
    assert AlgebraSpec.su11(0.5 + 4e-10).rep_param == 0.5
    assert AlgebraSpec.su2(3.0 - 4e-10) == AlgebraSpec.su2(3)
    assert AlgebraSpec.su2(0.5 + 4.5e-10).rep_param == 0.5
    for make in (AlgebraSpec.su2, AlgebraSpec.su11):
        with pytest.raises(DomainError, match="half-integer"):
            make(0.5 + 6e-10)


@pytest.mark.parametrize("make", [AlgebraSpec.su11, AlgebraSpec.su2])
@pytest.mark.parametrize("exact", [0.5, 3.0])
def test_near_half_integer_parameters_give_the_bits_of_the_half_integer(make, exact):
    # both routes read the stored half-integer, so the series stays within
    # 1e-10 of the closed form and the finite su(2) ladder keeps its length
    for near in (exact + 4e-10, exact - 4e-10):
        for route in (overlap_closed, overlap_series):
            assert route(make(near), 0.3).value == route(make(exact), 0.3).value


def test_overlap_closed_glauber():
    assert overlap_closed(HARMONIC, 0.0).value == 1.0
    assert overlap_closed(HARMONIC, 1.0).value == pytest.approx(math.exp(-2.0), abs=1e-15)
    assert overlap_closed(HARMONIC, 1.0j).value == pytest.approx(math.exp(-2.0), abs=1e-15)
    # |z|^2 or |z| itself overflows: the overlap is 0, as at z = inf
    for huge in (1e155, 1e200j, complex(1e308, 1e308), math.inf):
        assert overlap_closed(HARMONIC, huge).value == 0.0


def test_overlap_closed_su2():
    assert overlap_closed(AlgebraSpec.su2(0.5), 1.0).value == 0.0
    assert overlap_closed(AlgebraSpec.su2(1.0), 2.0).value == pytest.approx((3.0 / 5.0) ** 2)
    # half-integer spins beyond the unit circle give a negative kernel
    with pytest.raises(DomainError):
        overlap_closed(AlgebraSpec.su2(0.5), 2.0)
    # |z|^2 overflows: the base takes its limit -1, as it rounds to at 1e100
    for huge in (1e160, math.inf):
        assert overlap_closed(AlgebraSpec.su2(1.0), huge).value == 1.0
        with pytest.raises(DomainError, match="overlap -1.0 lies outside"):
            overlap_closed(AlgebraSpec.su2(0.5), huge)
        with pytest.raises(ConvergenceError):
            overlap_series(AlgebraSpec.su2(1.0), huge)


def test_overlap_closed_su11():
    got = overlap_closed(AlgebraSpec.su11(0.5), 0.3).value
    assert got == pytest.approx(0.8348623853211009, abs=1e-15)
    with pytest.raises(DomainError):
        overlap_closed(AlgebraSpec.su11(0.5), 1.0)
    with pytest.raises(DomainError):
        overlap_series(AlgebraSpec.su11(0.5), 1.2)
    for route in (overlap_closed, overlap_series):
        with pytest.raises(DomainError, match="unit disc"):
            route(AlgebraSpec.su11(0.5), 1e200)  # |z|^2 overflows


@pytest.mark.parametrize("alg", [HARMONIC, AlgebraSpec.su2(1), AlgebraSpec.su11(1)],
                         ids=lambda alg: alg.kind.value)
@pytest.mark.parametrize("z", ["nan", "nanj", "0.1+nanj", "inf+nanj"])
def test_nan_amplitudes_are_refused(alg, z):
    # a NaN |z|^2 once passed as the overflow limit (closed p = 1) and sent
    # the series to its term cap; abs(inf+nanj) is inf, taken as an overflow
    for route in (overlap_closed, overlap_series):
        with pytest.raises(DomainError, match="amplitude must be a number"):
            route(alg, complex(z))


def test_overlap_value_range_enforced():
    with pytest.raises(DomainError):
        Overlap(1.5, HARMONIC, 0.0)
    with pytest.raises(DomainError):
        Overlap(-0.2, HARMONIC, 1.0)
    # roundoff-level excursions clamp instead of failing
    assert Overlap(-1e-13, HARMONIC, 1.0).value == 0.0
    assert Overlap(1.0 + 1e-13, HARMONIC, 0.0).value == 1.0


def test_overlap_slack_holds_on_both_sides():
    # 1% inside OVERLAP_SLACK beyond either end an overlap clamps to [0, 1],
    # 1% outside it is a DomainError
    slack = coherent.OVERLAP_SLACK
    assert Overlap(1.0 + 0.99 * slack, HARMONIC, 0.0).value == 1.0
    assert Overlap(-0.99 * slack, HARMONIC, 1.0).value == 0.0
    for value in (1.0 + 1.01 * slack, -1.01 * slack):
        with pytest.raises(DomainError):
            Overlap(value, HARMONIC, 1.0)


def counted_terms(monkeypatch):
    """Patch the structure function to record the last term index n that
    `overlap_series` asks it for: the number of terms summed."""
    last = [0]
    original = coherent._structure_function

    def counted(alg, n):
        last[0] = n
        return original(alg, n)

    monkeypatch.setattr(coherent, "_structure_function", counted)
    return last


def test_series_tol_holds_on_both_sides(monkeypatch):
    # the harmonic series at |z|^2 = x has terms x^n / n! and sum e^x, and
    # stops at the first term below SERIES_TOL / 100 of its sum: its 20th
    # term is 1% inside that bound at |z| = 1.18815, where 20 terms are
    # summed, and 1% outside it at |z| = 1.18879, where a 21st is added
    terms = counted_terms(monkeypatch)
    for z, factor, summed in ((1.18815, 0.99, 20), (1.18879, 1.01, 21)):
        x = z * z
        last_term = math.exp(20 * math.log(x) - math.lgamma(21) - x)
        assert abs(last_term / (coherent.SERIES_TOL / 100.0) - factor) < 1e-3
        series = overlap_series(HARMONIC, complex(z)).value
        assert terms[0] == summed
        assert abs(series - overlap_closed(HARMONIC, complex(z)).value) < 1e-15


def test_series_rounding_max_holds_on_both_sides(monkeypatch):
    # su(1,1) with k = 1/2 near the unit circle: the sum of n terms has the
    # rounding bound n eps (1 + log N^-2), N^-2 = 1 / (1 - |z|^2).  At
    # |z| = 0.999721 the bound of the whole sum is 0.992 of
    # _SERIES_ROUNDING_MAX and the overlap is returned; at |z| = 0.999726
    # it would reach 1.011 of it, and the series is refused after more
    # terms than the first sum took, within its last 2%
    terms = counted_terms(monkeypatch)
    alg = AlgebraSpec.su11(0.5)
    z = 0.999721
    series = overlap_series(alg, complex(z)).value
    inside = terms[0]
    bound = inside * math.ulp(1.0) * (1.0 - math.log1p(-z * z))
    assert 0.99 < bound / coherent._SERIES_ROUNDING_MAX < 0.995
    assert abs(series - overlap_closed(alg, complex(z)).value) < coherent._SERIES_ROUNDING_MAX
    with pytest.raises(ConvergenceError, match="rounding"):
        overlap_series(alg, complex(0.999726))
    assert inside < terms[0] < 1.02 * inside


@pytest.mark.parametrize(
    "alg,z_max",
    [
        (HARMONIC, 2.5),
        (AlgebraSpec.su2(0.5), 0.999),
        (AlgebraSpec.su2(2.0), 1.8),
        (AlgebraSpec.su11(0.5), 0.97),
        (AlgebraSpec.su11(3.0), 0.97),
    ],
)
def test_series_matches_closed(alg, z_max):
    for z in np.linspace(0.0, z_max, 41):
        closed = overlap_closed(alg, complex(z)).value
        series = overlap_series(alg, complex(z)).value
        assert abs(closed - series) < 1e-10


def test_series_at_zero_amplitude():
    assert overlap_series(HARMONIC, 0.0).value == 1.0


def test_series_su2_ladder_is_exact():
    # the su(2) series is a finite polynomial ratio, so it matches the
    # closed kernel even far outside the unit circle
    alg = AlgebraSpec.su2(3.0)
    for z in (1.5, 4.0, 9.0):
        closed = overlap_closed(alg, z).value
        series = overlap_series(alg, z).value
        assert abs(closed - series) < 1e-12


def test_series_su2_negative_kernel_rejected():
    with pytest.raises(DomainError):
        overlap_series(AlgebraSpec.su2(0.5), 2.0)
    # half-integer spins beyond the unit circle have a truly negative kernel
    for j, z in ((2.5, 1.5), (10.5, 3.0)):
        with pytest.raises(DomainError, match="admissible domain"):
            overlap_series(AlgebraSpec.su2(j), z)


def test_series_su2_ladder_above_the_cap_fails_before_summing(monkeypatch):
    def no_terms(alg, n):
        raise AssertionError("summed a ladder that cannot fit under the cap")

    monkeypatch.setattr(coherent, "_structure_function", no_terms)
    with pytest.raises(ConvergenceError, match="ladder"):
        overlap_series(AlgebraSpec.su2(1e9), 0.3)
    monkeypatch.setattr(coherent, "SERIES_TERM_CAP", 10)
    with pytest.raises(ConvergenceError, match="ladder"):
        overlap_series(AlgebraSpec.su2(6.0), 0.3)


def test_series_su2_ladder_of_exactly_the_cap(monkeypatch):
    # 2j = 10 terms under a cap of 10: the ladder ends before the cap bites
    monkeypatch.setattr(coherent, "SERIES_TERM_CAP", 10)
    alg = AlgebraSpec.su2(5.0)
    series = overlap_series(alg, 3.0).value
    assert abs(series - overlap_closed(alg, 3.0).value) < 1e-12


def test_series_su2_cancellation_is_a_convergence_error():
    # at large spin the even and odd halves both tend to 1/2 and the true
    # overlap underflows to 0; rounding leaves the sum at about -7e-12
    with pytest.raises(ConvergenceError, match="cancellation"):
        overlap_series(AlgebraSpec.su2(1e5), 0.3)


@pytest.mark.parametrize("j", [1e5, 3e5, 5e5])
def test_series_refuses_a_sum_whose_rounding_exceeds_the_contract(j):
    # these sums end 2.0e-10, 4.7e-10 and 1.1e-9 above the true overlap of
    # about 0; their rounding bounds are 4.7e-6 to 1.2e-4.  The running bound
    # passes 1e-10 after 215 to 236 of their 1.2e5 to 5.9e5 terms, and the
    # series stops there
    with pytest.raises(ConvergenceError, match="cancellation") as info:
        overlap_series(AlgebraSpec.su2(j), 1.2)
    assert int(re.search(r"(\d+) terms", str(info.value)).group(1)) < 1000


def test_series_rounding_check_keeps_ordinary_inputs():
    # README's overlap example, and the su(1,1) input whose rounding bound,
    # 5.7e-13, is the largest among the overlap commands of closed_sweep
    # seeds 0-29 in bench/
    cases = [(AlgebraSpec.su11(0.5), 0.3), (AlgebraSpec.su11(3.0), -0.895846 - 0.079354j)]
    for alg, z in cases:
        assert abs(overlap_series(alg, z).value - overlap_closed(alg, z).value) < 1e-10


def test_series_tolerance_contract():
    closed = overlap_closed(HARMONIC, 1.2).value
    series = overlap_series(HARMONIC, 1.2).value
    assert abs(closed - series) < 10.0 * coherent.SERIES_TOL


def test_series_term_cap(monkeypatch):
    monkeypatch.setattr(coherent, "SERIES_TERM_CAP", 10)
    with pytest.raises(ConvergenceError, match="10 terms"):
        overlap_series(AlgebraSpec.su11(4.0), 0.95)


@pytest.mark.parametrize(
    "alg,z_max",
    [(HARMONIC, 3.0), (AlgebraSpec.su2(1.0), 1.0), (AlgebraSpec.su11(1.5), 0.95)],
)
def test_overlap_monotone_decreasing(alg, z_max):
    zs = np.linspace(0.0, z_max, 30)
    vals = [overlap_closed(alg, complex(z)).value for z in zs]
    assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))
    assert vals[0] == 1.0
    assert all(v < 1.0 for v in vals[1:])


def test_overlap_depends_only_on_modulus(rng):
    for _ in range(20):
        r = rng.uniform(0.05, 0.9)
        angle = rng.uniform(0.0, 2.0 * math.pi)
        z = r * complex(math.cos(angle), math.sin(angle))
        for alg in (HARMONIC, AlgebraSpec.su2(1.0), AlgebraSpec.su11(1.0)):
            assert overlap_closed(alg, z).value == pytest.approx(
                overlap_closed(alg, r).value, abs=1e-12
            )
            assert overlap_series(alg, z).value == pytest.approx(
                overlap_series(alg, r).value, abs=1e-12
            )


def test_overlap_provenance_carried():
    ov = overlap_closed(AlgebraSpec.su11(0.5), 0.3)
    assert ov.algebra.kind is AlgebraKind.SU11
    assert ov.z == 0.3
