import math

import numpy as np
import pytest

from catcorr import (
    AlgebraKind,
    AlgebraSpec,
    ConvergenceError,
    DomainError,
    Overlap,
    overlap_closed,
    overlap_series,
    structure_function,
)

HARMONIC = AlgebraSpec.harmonic()


def test_structure_function_harmonic():
    assert structure_function(HARMONIC, 0) == 0.0
    assert structure_function(HARMONIC, 3) == 3.0


def test_structure_function_su2():
    alg = AlgebraSpec.su2(0.5)
    assert structure_function(alg, 1) == 1.0  # 1*(2*0.5+1-1)
    alg = AlgebraSpec.su2(1.0)
    assert [structure_function(alg, n) for n in range(4)] == [0.0, 2.0, 2.0, 0.0]
    with pytest.raises(DomainError):
        structure_function(alg, 4)  # beyond the finite ladder


def test_structure_function_su11():
    alg = AlgebraSpec.su11(1.0)
    assert structure_function(alg, 2) == 2 * (2 * 1.0 - 1 + 2)
    assert structure_function(alg, 1) == 2.0


def test_structure_function_domain():
    with pytest.raises(DomainError):
        structure_function(HARMONIC, -1)
    with pytest.raises(DomainError):
        structure_function(HARMONIC, 2.5)


def test_rep_param_validation():
    with pytest.raises(DomainError):
        AlgebraSpec.su2(0.4)  # not a half-integer
    with pytest.raises(DomainError):
        AlgebraSpec.su11(-1.0)
    with pytest.raises(DomainError):
        AlgebraSpec(AlgebraKind.SU2)  # missing parameter
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(DomainError, match="half-integer"):
            AlgebraSpec.su2(bad)
    AlgebraSpec.su2(1.5)  # fine
    AlgebraSpec.harmonic()  # no parameter needed


def test_overlap_closed_glauber():
    assert overlap_closed(HARMONIC, 0.0).value == 1.0
    assert overlap_closed(HARMONIC, 1.0).value == pytest.approx(math.exp(-2.0), abs=1e-15)
    assert overlap_closed(HARMONIC, 1.0j).value == pytest.approx(math.exp(-2.0), abs=1e-15)


def test_overlap_closed_su2():
    assert overlap_closed(AlgebraSpec.su2(0.5), 1.0).value == 0.0
    assert overlap_closed(AlgebraSpec.su2(1.0), 2.0).value == pytest.approx((3.0 / 5.0) ** 2)
    # half-integer spins beyond the unit circle give a negative kernel
    with pytest.raises(DomainError):
        overlap_closed(AlgebraSpec.su2(0.5), 2.0)


def test_overlap_closed_su11():
    got = overlap_closed(AlgebraSpec.su11(0.5), 0.3).value
    assert got == pytest.approx(0.8348623853211009, abs=1e-15)
    with pytest.raises(DomainError):
        overlap_closed(AlgebraSpec.su11(0.5), 1.0)
    with pytest.raises(DomainError):
        overlap_series(AlgebraSpec.su11(0.5), 1.2)


def test_overlap_value_range_enforced():
    with pytest.raises(DomainError):
        Overlap(1.5, HARMONIC, 0.0)
    with pytest.raises(DomainError):
        Overlap(-0.2, HARMONIC, 1.0)
    # roundoff-level excursions clamp instead of failing
    assert Overlap(-1e-13, HARMONIC, 1.0).value == 0.0
    assert Overlap(1.0 + 1e-13, HARMONIC, 0.0).value == 1.0


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


def test_series_tolerance_contract():
    for tol in (1e-6, 1e-10, 1e-14):
        closed = overlap_closed(HARMONIC, 1.2).value
        series = overlap_series(HARMONIC, 1.2, tol=tol).value
        assert abs(closed - series) < 10.0 * tol
    with pytest.raises(DomainError):
        overlap_series(HARMONIC, 1.0, tol=0.0)


def test_series_term_cap():
    with pytest.raises(ConvergenceError):
        overlap_series(AlgebraSpec.su11(4.0), 0.95, term_cap=10)


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
