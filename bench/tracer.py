"""Span tracing of catcorr's public functions, installed from outside the package.

Each listed function is replaced by one wrapper in every module namespace
that binds it (a call from `catcorr.dynamics` to `discord_brute_force`
goes through `catcorr.dynamics.discord_brute_force`, not through
`catcorr.correlations`).  Classes are traced through their `__post_init__`
validation, patched on the class itself, so the class object stays the same
and `isinstance` checks inside the package keep working.  Spans are kept in
memory as (name, start, end, parent, item) and written out by the caller.
"""

from __future__ import annotations

import importlib
import time
from functools import wraps

LAYERS = {
    "coherent": ("overlap_closed", "overlap_series"),
    "states": (
        "reduced_rho12",
        "TwoQubitState",
        "bloch_matrix",
        "marginals",
        "pure_bipartition",
    ),
    "correlations": (
        "discord_mixed_closed",
        "discord_brute_force",
        "discord_pure",
        "concurrence_x",
        "von_neumann_entropy",
    ),
    "dynamics": ("DephasingChannel", "apply_dephasing", "concurrence_t", "discord_t"),
    "cli": ("main",),
}
SPAN_NAMES = tuple(f"{layer}.{name}" for layer, names in LAYERS.items() for name in names)


class Tracer:
    """Records nested spans of traced calls while installed."""

    def __init__(self) -> None:
        self.spans: list = []
        self.item = -1
        self._stack: list[int] = []
        self._undo: list = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.item)

        return traced

    def install(self) -> None:
        modules = [importlib.import_module("catcorr")]
        modules += [importlib.import_module(f"catcorr.{layer}") for layer in LAYERS]
        for layer, names in LAYERS.items():
            home = importlib.import_module(f"catcorr.{layer}")
            for name in names:
                original = vars(home)[name]
                span = f"{layer}.{name}"
                if isinstance(original, type):
                    init = vars(original)["__post_init__"]
                    self._patch(original, "__post_init__", self.wrap(span, init))
                    continue
                wrapper = self.wrap(span, original)
                for module in modules:
                    if vars(module).get(name) is original:
                        self._patch(module, name, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


def self_times(spans) -> tuple[dict[str, int], dict[str, float]]:
    """Call counts and self seconds per span name.

    A span's self time is its duration minus the durations of its direct
    children, which lie inside it because spans nest on one thread.
    """
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    calls: dict[str, int] = {}
    seconds: dict[str, float] = {}
    for (name, start, end, _, _), inner in zip(spans, child):
        calls[name] = calls.get(name, 0) + 1
        seconds[name] = seconds.get(name, 0.0) + (end - start - inner)
    return calls, seconds
