"""The oracles share no code with the closed forms they check.

Every closed-form helper is replaced by one that raises, in every catcorr
module that binds it; the oracle routes (explicit 2^n expansion, partial
trace, Kraus dephasing, measurement scan, eigensolver entropies, matrix
concurrence, series overlap) must still return exactly what they returned
before.  Every public name is placed on one side of that line, or among
the inputs and results that both sides share.
"""

import importlib

import pytest

import catcorr
from catcorr import (
    AlgebraSpec,
    DephasingChannel,
    Parity,
    SuperpositionSpec,
    apply_dephasing,
    concurrence_x,
    discord_brute_force,
    overlap_series,
    partial_trace_pair,
    superposition_vector,
    von_neumann_entropy,
)

MODULES = [
    importlib.import_module(name)
    for name in (
        "catcorr",
        "catcorr.coherent",
        "catcorr.states",
        "catcorr.correlations",
        "catcorr.dynamics",
        "catcorr.cli",
    )
]
CLOSED_FORMS = {
    "catcorr.states": (
        "_pair_block",
        "_pow_ratio",
        "_block_weights",
        "_pure_amplitudes",
        "pure_bipartition",
        "reduced_rho12",
    ),
    "catcorr.correlations": (
        "_block_eigenvalues",
        "_discord_x",
        "_atanh_ratio",
        "_polar_minimum",
        "_polar_slope",
        "_slope_search",
        "_pair_correlations",
        "_pure_correlations",
        "_concurrence_pure",
        "discord_mixed_closed",
        "discord_pure",
        "concurrence_pure",
        "koashi_winter_min",
        "werner_discord",
    ),
    "catcorr.dynamics": ("concurrence_t", "discord_t", "sudden_death_time"),
    "catcorr.coherent": ("overlap_closed",),
}
ORACLES = (
    "apply_dephasing",
    "bloch_matrix",
    "concurrence_x",
    "discord_brute_force",
    "marginals",
    "overlap_series",
    "partial_trace_pair",
    "superposition_vector",
    "von_neumann_entropy",
)
# with binary_entropy, which the eof of every CorrelationReport reads
INPUTS_AND_RESULTS = (
    "AlgebraKind",
    "AlgebraSpec",
    "ConvergenceError",
    "CorrelationReport",
    "DephasingChannel",
    "DomainError",
    "MeasurementBasis",
    "Overlap",
    "Parity",
    "PureBipartition",
    "SuperpositionSpec",
    "TwoQubitState",
    "binary_entropy",
    "default_time_grid",
)
SPECS = [
    SuperpositionSpec(0.5, Parity.EVEN, 4),
    SuperpositionSpec(0.2, Parity.EVEN, 3),
    SuperpositionSpec(0.9, Parity.ODD, 5),
    SuperpositionSpec(1.0 - 1e-6, Parity.ODD, 6),
]
CHANNEL = DephasingChannel(gamma_rate=1.0, t=0.5)
OVERLAPS = [
    (AlgebraSpec.harmonic(), 0.7),
    (AlgebraSpec.su2(1.5), 0.4),
    (AlgebraSpec.su11(0.5), 0.3),
]


def oracle_values():
    values = []
    for spec in SPECS:
        pair = partial_trace_pair(superposition_vector(spec))
        for state in (pair, apply_dephasing(pair, CHANNEL)):
            values.append(state.matrix.tolist())
            values.append(discord_brute_force(state))
            values.append(von_neumann_entropy(state))
            values.append(concurrence_x(state))
    for alg, z in OVERLAPS:
        values.append(overlap_series(alg, z).value)
    return values


def disable_closed_forms(monkeypatch):
    for home_name, names in CLOSED_FORMS.items():
        home = importlib.import_module(home_name)
        for name in names:
            original = getattr(home, name)

            def closed_form(*args, _name=f"{home_name}.{name}", **kwargs):
                raise AssertionError(f"an oracle called the closed form {_name}")

            for module in MODULES:
                if vars(module).get(name) is original:
                    monkeypatch.setattr(module, name, closed_form)


def test_oracles_run_without_the_closed_forms(monkeypatch):
    before = oracle_values()
    disable_closed_forms(monkeypatch)
    # the patches bite: a closed form now raises
    with pytest.raises(AssertionError, match="closed form"):
        importlib.import_module("catcorr.states").reduced_rho12(SPECS[0])
    assert oracle_values() == before


def test_every_public_name_has_one_side():
    closed = tuple(
        name for names in CLOSED_FORMS.values() for name in names if not name.startswith("_")
    )
    placed = closed + ORACLES + INPUTS_AND_RESULTS
    assert sorted(placed) == sorted(catcorr.__all__)
