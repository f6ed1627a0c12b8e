"""The public names of catcorr, and the readers outside the package that
depend on them.

`catcorr.__all__` is held to an explicit list, so that adding or removing
a public name is a deliberate edit here.  The README's python blocks and
the benchmark under bench/ read the package from outside; their sources
are parsed, never imported or run, and every name they read must resolve.
"""

import ast
import importlib
import re
from pathlib import Path

import catcorr
import catcorr.cli  # the benchmark reads catcorr.cli.main

ROOT = Path(__file__).resolve().parent.parent
PUBLIC_NAMES = (
    # inputs
    "AlgebraKind",
    "AlgebraSpec",
    "DephasingChannel",
    "Parity",
    "SuperpositionSpec",
    "default_time_grid",
    # results and errors
    "ConvergenceError",
    "CorrelationReport",
    "DomainError",
    "MeasurementBasis",
    "Overlap",
    "PureBipartition",
    "TwoQubitState",
    # closed forms
    "concurrence_pure",
    "concurrence_t",
    "discord_mixed_closed",
    "discord_pure",
    "discord_t",
    "koashi_winter_min",
    "overlap_closed",
    "pure_bipartition",
    "reduced_rho12",
    "sudden_death_time",
    "werner_discord",
    # oracles
    "apply_dephasing",
    "bloch_matrix",
    "concurrence_x",
    "discord_brute_force",
    "marginals",
    "overlap_series",
    "partial_trace_pair",
    "superposition_vector",
    "von_neumann_entropy",
    # shared by both routes
    "binary_entropy",
)


def test_all_is_the_public_list():
    assert len(PUBLIC_NAMES) == 34
    assert sorted(catcorr.__all__) == sorted(PUBLIC_NAMES)
    namespace = {}
    exec("from catcorr import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(PUBLIC_NAMES)


def readme_imports():
    """The names every ```python block of the README imports from catcorr."""
    text = (ROOT / "README.md").read_text()
    names = set()
    for block in re.findall(r"^```python\n(.*?)^```", text, flags=re.M | re.S):
        for node in ast.walk(ast.parse(block)):
            if isinstance(node, ast.ImportFrom) and node.module == "catcorr":
                names.update(alias.name for alias in node.names)
    return names


def test_readme_imports_only_public_names():
    names = readme_imports()
    assert names
    assert names <= set(PUBLIC_NAMES)


def attribute_chains(path):
    """Every dotted chain catcorr.a.b... read in the source at path."""
    chains = set()
    for node in ast.walk(ast.parse(path.read_text())):
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if parts and isinstance(node, ast.Name) and node.id == "catcorr":
            chains.add(tuple(reversed(parts)))
    return chains


def test_the_benchmark_reads_resolve():
    chains = set()
    for name in ("workloads.py", "worker.py"):
        chains |= attribute_chains(ROOT / "bench" / name)
    assert ("koashi_winter_min",) in chains
    for chain in chains:
        obj = catcorr
        for attr in chain:
            obj = getattr(obj, attr)


def test_the_tracer_layers_resolve():
    tree = ast.parse((ROOT / "bench" / "tracer.py").read_text())
    (layers,) = [
        ast.literal_eval(node.value) for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets)
    ]
    assert "marginals" in layers["states"]
    for layer, names in layers.items():
        module = importlib.import_module(f"catcorr.{layer}")
        for name in names:
            assert name in vars(module), f"catcorr.{layer}.{name}"
