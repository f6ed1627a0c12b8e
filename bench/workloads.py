"""The benchmark's three workloads: seeded inputs, one work item, and checks.

Every workload draws its inputs from `random.Random` seeded with the
workload name and the seed, so the same seed gives the same inputs.  The
program receives only those inputs.  `run(i)` performs work item `i` and
returns a value that is compared bit for bit between repeats and between
traced and untraced runs.  `check(results)` validates one result per item
against a reference that is computed outside the timed region.

Calls go through module attributes (`catcorr.discord_brute_force`, ...)
at call time, so an installed tracer sees them.
"""

from __future__ import annotations

import hashlib
import math
import os
import random
from dataclasses import dataclass, field

import numpy as np

import catcorr
import catcorr.cli

SCAN_TOL = 1e-6  # closed or production value against a 2-D measurement scan
KW_TOL = 1e-8  # scan minimum against the Koashi-Winter closed form
CONC_TOL = 1e-12  # closed dephased concurrence against the Wootters formula
SERIES_TOL = 1e-10  # closed overlap kernel against its series
RANGE_SLACK = 1e-12  # roundoff allowed outside [0, 1]
# Discord is second order in the surviving coherence; below this coherence it
# falls under the double-precision resolution of the entropy sum, so its sign
# past the sudden-death time is not checked there.
SURVIVAL_COHERENCE = 1e-6

ALGEBRAS = {
    "glauber": catcorr.AlgebraKind.HARMONIC,
    "su2": catcorr.AlgebraKind.SU2,
    "su11": catcorr.AlgebraKind.SU11,
}
REP_PARAMS = (0.5, 1.0, 1.5, 2.0, 3.0)


@dataclass
class Checked:
    """Outcome of a workload's checks.

    `failures` maps an item index to the reason it failed; `gaps` holds
    the worst gap seen by each check next to its tolerance.
    """

    failures: dict[int, str] = field(default_factory=dict)
    gaps: dict[str, tuple[float, float]] = field(default_factory=dict)

    def gap(self, index: int, name: str, value: float, tol: float) -> None:
        worst, _ = self.gaps.get(name, (0.0, tol))
        self.gaps[name] = (max(worst, value), tol)
        if not value <= tol:
            self.fail(index, f"{name} gap {value:.3e} exceeds {tol:.0e}")

    def fail(self, index: int, reason: str) -> None:
        self.failures.setdefault(index, reason)

    @property
    def max_abs_err(self) -> float:
        return self.gaps["discord"][0]


def _spec(p: float, parity: str, n: int):
    return catcorr.SuperpositionSpec(p, catcorr.Parity(parity), n)


def _amplitude(rng: random.Random, radius_max: float) -> complex:
    radius = rng.uniform(0.05, radius_max)
    phase = rng.uniform(0.0, 2.0 * math.pi)
    return complex(round(radius * math.cos(phase), 6), round(radius * math.sin(phase), 6))


class OracleSweep:
    """Closed-form discord next to the 2-D scan of the closed pair state.

    Rank-two pair states over p in (0, 1), n in 2..8 and both parities; a
    quarter of them start from a coherent amplitude via `overlap_closed`.
    """

    name = "oracle_sweep"
    size = 400

    def __init__(self, seed: int, workdir: str) -> None:
        rng = random.Random(f"{self.name}:{seed}")
        self.inputs = []
        for _ in range(self.size):
            parity = rng.choice(("even", "odd"))
            n = rng.randint(2, 8)
            if rng.random() < 0.25:
                algebra = rng.choice(sorted(ALGEBRAS))
                rep = None if algebra == "glauber" else rng.choice(REP_PARAMS)
                z = _amplitude(rng, 1.5 if algebra == "glauber" else 0.9)
                self.inputs.append((algebra, rep, z, parity, n))
            else:
                self.inputs.append((None, None, rng.uniform(1e-9, 1.0 - 1e-9), parity, n))

    def _make_spec(self, i: int):
        algebra, rep, value, parity, n = self.inputs[i]
        if algebra is None:
            return _spec(value, parity, n)
        overlap = catcorr.overlap_closed(catcorr.AlgebraSpec(ALGEBRAS[algebra], rep), value)
        return catcorr.SuperpositionSpec.from_overlap(overlap, catcorr.Parity(parity), n)

    def run(self, i: int):
        spec = self._make_spec(i)
        closed = catcorr.discord_mixed_closed(spec)
        scan = catcorr.discord_brute_force(catcorr.reduced_rho12(spec))
        return spec.p, closed.discord, scan.discord, scan.s_cond_min

    def check(self, results: dict) -> Checked:
        out = Checked()
        for i, (p, closed, scan, s_min) in results.items():
            _, _, _, parity, n = self.inputs[i]
            out.gap(i, "discord", abs(closed - scan), SCAN_TOL)
            kw = catcorr.koashi_winter_min(_spec(p, parity, n))
            out.gap(i, "koashi_winter", abs(s_min - kw), KW_TOL)
        return out

    def scan_states(self, count: int):
        return [catcorr.reduced_rho12(self._make_spec(i)) for i in range(count)]


class DephasingDynamics:
    """Seeded specs, each swept over its `default_time_grid`; one item is
    one time point through `DephasingChannel`, `concurrence_t` and `discord_t`.

    Eight specs each have n = 2 (no sudden death), odd parity near p = 1,
    and large n; 40 more are drawn at random.  Many specs with few points
    each keep the spread of item costs alike from seed to seed.
    """

    name = "dephasing_dynamics"
    specs_per_kind = 8
    random_specs = 40
    t_steps = 5

    def __init__(self, seed: int, workdir: str) -> None:
        rng = random.Random(f"{self.name}:{seed}")
        specs = []
        for _ in range(self.specs_per_kind):
            specs += [
                (rng.uniform(0.05, 0.95), rng.choice(("even", "odd")), 2),
                # 1 - p >= 1e-4: from about 2e-5 down, concurrence_t misses
                # CONC_TOL (cancellation in normalization(spec)**2, a known
                # open defect).
                (1.0 - 10.0 ** rng.uniform(-4.0, -2.0), "odd", rng.randint(3, 8)),
                (rng.uniform(0.9, 0.99), rng.choice(("even", "odd")), rng.randint(20, 50)),
            ]
        specs += [
            (rng.uniform(0.05, 0.95), rng.choice(("even", "odd")), rng.randint(3, 12))
            for _ in range(self.random_specs)
        ]
        self.inputs = []
        self.sampled = set()  # one point per spec also goes through the 2-D scan
        for p, parity, n in specs:
            rate = rng.uniform(0.5, 2.0)
            times = catcorr.default_time_grid(_spec(p, parity, n), rate, self.t_steps)
            self.sampled.add(len(self.inputs) + rng.randrange(self.t_steps))
            self.inputs += [(p, parity, n, rate, float(t)) for t in times]

    def run(self, i: int):
        p, parity, n, rate, t = self.inputs[i]
        spec = _spec(p, parity, n)
        channel = catcorr.DephasingChannel(rate, t)
        return catcorr.concurrence_t(spec, channel), catcorr.discord_t(spec, channel)

    def _evolved(self, i: int):
        p, parity, n, rate, t = self.inputs[i]
        channel = catcorr.DephasingChannel(rate, t)
        return catcorr.apply_dephasing(catcorr.reduced_rho12(_spec(p, parity, n)), channel)

    def check(self, results: dict) -> Checked:
        out = Checked(gaps={"discord": (0.0, SCAN_TOL)})
        for i, (conc, disc) in results.items():
            p, parity, n, rate, t = self.inputs[i]
            evolved = self._evolved(i)
            out.gap(i, "concurrence", abs(conc - catcorr.concurrence_x(evolved)), CONC_TOL)
            if i in self.sampled:
                scan = catcorr.discord_brute_force(evolved).discord
                out.gap(i, "discord", abs(disc - scan), SCAN_TOL)
            spec = _spec(p, parity, n)
            past_death = 0.0 < spec.q < 1.0 and t > catcorr.sudden_death_time(spec, rate)
            coherence = max(abs(evolved.matrix[0, 3]), abs(evolved.matrix[1, 2]))
            if past_death and coherence >= SURVIVAL_COHERENCE and disc <= 0.0:
                out.fail(i, f"discord {disc!r} not positive past the sudden-death time")
        return out

    def scan_states(self, count: int):
        return [self._evolved(i) for i in sorted(self.sampled)[:count]]


class ClosedSweep:
    """In-process `catcorr.cli.main` calls of the closed-form commands.

    30 calls each of `figure 1|2|3`, `sweep-pure` and `overlap`.  Each
    command takes every pairing of a p-step count in `P_STEPS` with one of
    its three shapes (1, 2 or 3 values of n; even, odd or both parities;
    the algebra) exactly twice, so every seed gives the same rows per
    command; the seed picks n, k, p_max, amplitudes and the order.
    """

    name = "closed_sweep"
    P_STEPS = (16, 32, 64, 128, 256)
    P_MAX = (0.9, 0.99, 0.999, 1.0 - 1e-6, 1.0 - 1e-9)
    # From p_max = 1 - 1e-6 on, odd-parity sweep-pure exits with code 3: its
    # concurrence exceeds 1 by ~7e-12 (cancellation in the normalization, a
    # known open defect), so the pure splitting stops at 0.999.
    PURE_P_MAX = (0.9, 0.99, 0.999)
    SHAPES = {
        "figure 1": (1, 2, 3),
        "figure 2": (1, 2, 3),
        "figure 3": (1, 2, 3),
        "sweep-pure": ("even", "odd", "both"),
        "overlap": tuple(sorted(ALGEBRAS)),
    }

    def __init__(self, seed: int, workdir: str) -> None:
        rng = random.Random(f"{self.name}:{seed}")
        self.inputs = []
        for command, shapes in self.SHAPES.items():
            pairs = [(s, shape) for s in self.P_STEPS for shape in shapes] * 2
            p_maxes = self.PURE_P_MAX if command == "sweep-pure" else self.P_MAX
            p_max = list(p_maxes) * (len(pairs) // len(p_maxes))
            rng.shuffle(p_max)
            for (steps, shape), pm in zip(pairs, p_max):
                sweep = ["--p-steps", str(steps), "--p-max", repr(pm)]
                if command == "overlap":
                    z = _amplitude(rng, 2.0 if shape == "glauber" else 0.9)
                    argv = ["overlap", "--algebra", shape, "--z", repr(z)]
                    if shape != "glauber":
                        argv += ["--rep-param", repr(rng.choice(REP_PARAMS))]
                elif command == "sweep-pure":
                    n = rng.randint(2, 50)
                    argv = ["sweep-pure", "--n", str(n), "--k", str(rng.randint(1, n - 1))]
                    argv += ["--parity", shape] + sweep
                else:
                    ns = rng.sample(range(2, 51), shape)
                    argv = command.split() + ["--n", *map(str, ns)] + sweep
                self.inputs.append(argv)
        rng.shuffle(self.inputs)
        self.paths = [os.path.join(workdir, f"{i}.out") for i in range(len(self.inputs))]
        self._rng = rng

    def run(self, i: int):
        path = self.paths[i]
        code = catcorr.cli.main(self.inputs[i] + ["--out", path])
        if code != 0:
            raise RuntimeError(f"catcorr {' '.join(self.inputs[i])} exited with {code}")
        with open(path, "rb") as fh:
            return hashlib.blake2b(fh.read(), digest_size=16).hexdigest()

    def check(self, results: dict) -> Checked:
        out = Checked(gaps={"discord": (0.0, SCAN_TOL)})
        for i in sorted(results):
            with open(self.paths[i], encoding="utf-8") as fh:
                lines = fh.read().splitlines()
            argv = self.inputs[i]
            try:
                if argv[0] == "overlap":
                    self._check_overlap(i, lines, out)
                else:
                    self._check_sweep(i, argv, lines, out)
            except (ValueError, IndexError, KeyError) as exc:
                out.fail(i, f"unparseable output: {exc!r}")
        return out

    @staticmethod
    def _check_overlap(i: int, lines: list[str], out: Checked) -> None:
        fields = dict(line.split(" = ", 1) for line in lines[1:])
        closed = float(fields["overlap_closed"])
        series = float(fields["overlap_series"])
        for value in (closed, series):
            if not -RANGE_SLACK <= value <= 1.0 + RANGE_SLACK:
                out.fail(i, f"overlap {value!r} outside [0, 1]")
        out.gap(i, "overlap_series", abs(closed - series), SERIES_TOL)

    def _check_sweep(self, i: int, argv: list[str], lines: list[str], out: Checked) -> None:
        if not lines[0].startswith(f"# catcorr {argv[0]}"):
            out.fail(i, f"missing metadata line, got {lines[0]!r}")
        header = lines[1].split(",")
        rows = [dict(zip(header, line.split(","), strict=True)) for line in lines[2:]]
        if len(rows) != self._expected_rows(argv):
            out.fail(i, f"{len(rows)} rows, expected {self._expected_rows(argv)}")
        for row in rows:
            for column in ("discord", "concurrence"):
                if column in row:
                    value = float(row[column])
                    if not -RANGE_SLACK <= value <= 1.0 + RANGE_SLACK:
                        out.fail(i, f"{column} {value!r} outside [0, 1]")
        small = [row for row in rows if int(row["n"]) <= 10]
        if small:
            row = self._rng.choice(small)
            reference = self._reference(row)
            out.gap(i, "discord", abs(float(row["discord"]) - reference), SCAN_TOL)

    @staticmethod
    def _expected_rows(argv: list[str]) -> int:
        steps = int(argv[argv.index("--p-steps") + 1])
        if argv[0] == "sweep-pure":
            return steps * (2 if argv[argv.index("--parity") + 1] == "both" else 1)
        ns = argv[argv.index("--n") + 1 : argv.index("--p-steps")]
        return steps * len(ns) * (2 if argv[1] == "1" else 1)

    @staticmethod
    def _reference(row: dict) -> float:
        """Discord of the sampled row from the explicit 2^n state vector.

        The vector is renormalized here: its own prefactor loses digits to
        cancellation on the odd branch near p = 1, while the amplitudes
        themselves stay accurate.
        """
        n = int(row["n"])
        psi = catcorr.superposition_vector(_spec(float(row["p"]), row["parity"], n))
        psi = psi / np.linalg.norm(psi)
        if "k" not in row:
            return catcorr.discord_brute_force(catcorr.partial_trace_pair(psi)).discord
        # pure k|(n-k) splitting: discord equals the entanglement entropy
        k = int(row["k"])
        weights = np.linalg.svd(psi.reshape(2**k, 2 ** (n - k)), compute_uv=False) ** 2
        weights = weights[weights > 0.0]
        return float(-(weights * np.log2(weights)).sum())

    def scan_states(self, count: int):
        states = []
        for argv in self.inputs:
            if argv[0] == "figure" and len(states) < count:
                n = int(argv[argv.index("--n") + 1])
                p = float(argv[argv.index("--p-max") + 1]) / 2.0
                states.append(catcorr.reduced_rho12(_spec(p, "even", n)))
        return states


WORKLOADS = {cls.name: cls for cls in (OracleSweep, DephasingDynamics, ClosedSweep)}
