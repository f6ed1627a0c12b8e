"""Command-line front end: deterministic CSV sweeps and point reports.

Exit codes: 0 success, 1 usage error, 2 I/O error, 3 domain or numeric
error.  All floats are emitted with 12 significant digits and identical
invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

import numpy as np

from . import __version__
from .coherent import AlgebraKind, AlgebraSpec, overlap_closed, overlap_series
from .correlations import (
    concurrence_x,
    discord_brute_force,
    discord_mixed_closed,
    discord_pure,
    werner_discord,
)
from .dynamics import (
    DephasingChannel,
    apply_dephasing,
    concurrence_t,
    default_time_grid,
    discord_t,
    sudden_death_time,
)
from .errors import ConvergenceError, DomainError, WernerLimitRequired
from .states import (
    Parity,
    SuperpositionSpec,
    pure_bipartition,
    reduced_rho12,
    werner_limit_state,
)

P_MAX_DEFAULT = 0.999
P_STEPS_DEFAULT = 500
T_STEPS_DEFAULT = 200
# most points a p or t sweep accepts, checked before any grid is allocated
MAX_SWEEP_STEPS = 10**6
FIGURE_N_DEFAULT = {1: (2,), 2: (4, 5, 25), 3: (4, 5, 25)}
FIGURE_PARITIES = {1: ("even", "odd"), 2: ("even",), 3: ("odd",)}


class UsageError(Exception):
    """Bad flag combination detected after argument parsing."""


def _check_sweep(steps: int, p_max: float | None = None) -> None:
    """Reject a sweep size or p_max out of range before any grid is allocated."""
    if not 2 <= steps <= MAX_SWEEP_STEPS:
        raise UsageError(f"a sweep takes 2 to {MAX_SWEEP_STEPS} points, got {steps}")
    if p_max is not None and not 0.0 < p_max < 1.0:
        raise UsageError(f"--p-max must lie in (0, 1), got {p_max}")


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.12g}"
    return str(value)


def _meta(command: str, **fields) -> str:
    parts = [f"# catcorr {command}", f"version={__version__}"]
    parts += [f"{key}={_fmt(val)}" for key, val in fields.items()]
    return " ".join(parts)


def _emit(path: str | None, lines: list[str]) -> None:
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def run_figure(args) -> list[str]:
    """Discord-versus-p sweep data for one of the three standard panels."""
    _check_sweep(args.p_steps, args.p_max)
    fig = args.fig
    n_list = args.n or FIGURE_N_DEFAULT[fig]
    parities = FIGURE_PARITIES[fig]
    lines = [
        _meta(
            f"figure {fig}",
            n=",".join(str(n) for n in n_list),
            parity=",".join(parities),
            p_max=args.p_max,
            p_steps=args.p_steps,
        ),
        "p,n,parity,discord",
    ]
    # tolist() gives the same floats as float(np.float64), bit for bit
    p_values = np.linspace(0.0, args.p_max, args.p_steps).tolist()
    for n in n_list:
        for parity in parities:
            sign = Parity(parity)
            for p in p_values:
                report = discord_mixed_closed(SuperpositionSpec(p, sign, n))
                lines.append(f"{_fmt(p)},{n},{parity},{_fmt(report.discord)}")
    return lines


def run_sweep_pure(args) -> list[str]:
    """Concurrence and discord of the pure k|(n-k) splitting versus p."""
    _check_sweep(args.p_steps, args.p_max)
    n, k = args.n, args.k
    parities = ("even", "odd") if args.parity == "both" else (args.parity,)
    lines = [
        _meta(
            "sweep-pure",
            n=n,
            k=k,
            parity=",".join(parities),
            p_max=args.p_max,
            p_steps=args.p_steps,
        ),
        "p,n,k,parity,concurrence,discord",
    ]
    p_values = np.linspace(0.0, args.p_max, args.p_steps).tolist()
    for parity in parities:
        sign = Parity(parity)
        for p in p_values:
            bp = pure_bipartition(SuperpositionSpec(p, sign, n), k)
            report = discord_pure(bp)
            lines.append(
                f"{_fmt(p)},{n},{k},{parity},"
                f"{_fmt(report.concurrence)},{_fmt(report.discord)}"
            )
    return lines


def run_dynamics(args) -> list[str]:
    """Dephasing sweep: closed-form and Wootters concurrence plus the
    discord of `discord_t` on a uniform time grid."""
    _check_sweep(args.t_steps)
    rate = args.gamma_rate
    if not 0.0 < rate < math.inf:
        raise UsageError(f"--gamma-rate must be positive and finite, got {rate}")
    spec = _resolve_spec(args)
    t_death = sudden_death_time(spec, rate)
    times = default_time_grid(spec, rate, args.t_steps)
    lines = [
        _meta(
            "dynamics",
            p=spec.p,
            n=spec.n,
            parity=spec.parity.value,
            gamma_rate=rate,
            t_steps=args.t_steps,
            t0=t_death,
        ),
        "t,gamma,concurrence_closed,concurrence_wootters,discord,is_past_t0",
    ]
    state = reduced_rho12(spec)
    for t in times:
        channel = DephasingChannel(rate, float(t))
        lines.append(
            ",".join(
                [
                    _fmt(t),
                    _fmt(channel.gamma),
                    _fmt(concurrence_t(spec, channel)),
                    _fmt(concurrence_x(apply_dephasing(state, channel))),
                    _fmt(discord_t(spec, channel)),
                    "1" if t >= t_death else "0",
                ]
            )
        )
    return lines


def _report_lines(label: str, report) -> list[str]:
    return [
        f"{label}mutual_information_bits = {_fmt(report.mutual_info)}",
        f"{label}classical_correlation_bits = {_fmt(report.classical_corr)}",
        f"{label}discord_bits = {_fmt(report.discord)}",
        f"{label}concurrence = {_fmt(report.concurrence)}",
        f"{label}entanglement_of_formation_bits = {_fmt(report.eof)}",
        f"{label}conditional_entropy_min_bits = {_fmt(report.s_cond_min)}",
        f"{label}argmin_theta = {_fmt(report.argmin.theta)}",
        f"{label}argmin_phi = {_fmt(report.argmin.phi)}",
    ]


def run_point(args) -> list[str]:
    """Full closed-form report, brute-force cross-check and residual for a
    single parameter point, plus the pure splitting when --k is given; with
    --werner-limit, the report on the p -> 1 odd-parity limit state."""
    grid = _parse_grid(args.grid)
    if args.werner_limit:
        given = [
            "--" + name.replace("_", "-")
            for name in ("p", "parity", "algebra", "z", "rep_param", "k")
            if getattr(args, name) is not None
        ]
        if given:
            raise UsageError(f"{', '.join(given)} cannot be combined with --werner-limit")
        return _werner_point(args.n, grid)
    if args.parity is None:
        raise UsageError("--parity is required unless --werner-limit is given")
    try:
        spec = _resolve_spec(args)
    except WernerLimitRequired as exc:
        raise WernerLimitRequired(f"{exc}; rerun with --werner-limit") from None
    closed = discord_mixed_closed(spec)
    brute = discord_brute_force(reduced_rho12(spec), grid=grid)
    lines = [
        f"p = {_fmt(spec.p)}",
        f"n = {spec.n}",
        f"parity = {spec.parity.value}",
    ]
    if spec.algebra is not None:
        lines.insert(0, f"algebra = {_KIND_NAMES[spec.algebra.kind]} z = {spec.z}")
    lines += _report_lines("", closed)
    lines.append(f"discord_brute_force_bits = {_fmt(brute.discord)}")
    lines.append(f"closed_minus_brute = {_fmt(closed.discord - brute.discord)}")
    if args.k is not None:
        bp = pure_bipartition(spec, args.k)
        pure = discord_pure(bp)
        lines.append(f"pure splitting k = {args.k}")
        lines.append(
            "pure_amplitudes = "
            + ",".join(_fmt(c) for c in (bp.c00, bp.c01, bp.c10, bp.c11))
        )
        lines.append(f"pure_concurrence = {_fmt(pure.concurrence)}")
        lines.append(f"pure_discord_bits = {_fmt(pure.discord)}")
    return lines


def _werner_point(n: int, grid: tuple[int, int]) -> list[str]:
    """Report on the p -> 1 odd-parity limit state for n modes."""
    state = werner_limit_state(n)
    closed = werner_discord(n)
    brute = discord_brute_force(state, grid=grid)
    return [
        f"werner limit, n = {n}",
        f"discord_closed_bits = {_fmt(closed)}",
        f"discord_brute_force_bits = {_fmt(brute.discord)}",
        f"closed_minus_brute = {_fmt(closed - brute.discord)}",
        f"concurrence = {_fmt(concurrence_x(state))}",
    ]


def run_overlap(args) -> list[str]:
    """Closed-form versus series overlap at one amplitude."""
    alg = _resolve_algebra(args)
    z = _parse_complex(args.z)
    closed = overlap_closed(alg, z)
    series = overlap_series(alg, z)
    return [
        f"algebra = {_KIND_NAMES[alg.kind]}"
        + (f" rep_param = {_fmt(alg.rep_param)}" if alg.rep_param is not None else ""),
        f"z = {z}",
        f"overlap_closed = {_fmt(closed.value)}",
        f"overlap_series = {_fmt(series.value)}",
        f"closed_minus_series = {_fmt(closed.value - series.value)}",
    ]


class _Parser(argparse.ArgumentParser):
    # usage problems exit with code 1, not argparse's default 2
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_grid(text: str) -> tuple[int, int]:
    try:
        n_theta, n_phi = (int(part) for part in text.lower().split("x"))
    except ValueError as exc:
        raise UsageError(f"grid must look like 181x361, got {text!r}") from exc
    return n_theta, n_phi


def _parse_complex(text: str) -> complex:
    try:
        return complex(text)
    except ValueError as exc:
        raise UsageError(f"cannot parse amplitude {text!r} as a complex number") from exc


_ALGEBRAS = {
    "glauber": AlgebraKind.HARMONIC,
    "su2": AlgebraKind.SU2,
    "su11": AlgebraKind.SU11,
}
_KIND_NAMES = {kind: name for name, kind in _ALGEBRAS.items()}


def _resolve_algebra(args) -> AlgebraSpec:
    if args.algebra is None or args.z is None:
        raise UsageError("--algebra and --z must be given together")
    if args.algebra == "glauber" and args.rep_param is not None:
        raise UsageError("--rep-param does not apply to --algebra glauber")
    return AlgebraSpec(_ALGEBRAS[args.algebra], args.rep_param)


def _resolve_spec(args) -> SuperpositionSpec:
    parity = Parity(args.parity)
    if args.algebra is not None:
        if args.p is not None:
            raise UsageError("--p cannot be combined with --algebra")
        alg = _resolve_algebra(args)
        overlap = overlap_closed(alg, _parse_complex(args.z))
        return SuperpositionSpec.from_overlap(overlap, parity, args.n)
    if args.rep_param is not None:
        raise UsageError("--rep-param needs --algebra")
    if args.z is not None:
        raise UsageError("--z needs --algebra")
    if args.p is None:
        raise UsageError("give either --p or --algebra with --z")
    return SuperpositionSpec(args.p, parity, args.n)


def build_parser() -> _Parser:
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=None)
    p_sweep = argparse.ArgumentParser(add_help=False)
    p_sweep.add_argument("--p-steps", type=int, default=P_STEPS_DEFAULT)
    p_sweep.add_argument("--p-max", type=float, default=P_MAX_DEFAULT)
    algebra = argparse.ArgumentParser(add_help=False)
    algebra.add_argument("--algebra", choices=sorted(_ALGEBRAS), default=None)
    algebra.add_argument("--z", default=None)
    algebra.add_argument("--rep-param", type=float, default=None)
    spec = argparse.ArgumentParser(add_help=False, parents=[algebra])
    spec.add_argument("--p", type=float, default=None)
    spec.add_argument("--n", type=int, required=True)

    parser = _Parser(prog="catcorr", description=__doc__)
    parser.add_argument("--version", action="version", version=f"catcorr {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    fig = sub.add_parser(
        "figure", parents=[p_sweep, out], help="discord-versus-p sweep for a standard panel"
    )
    fig.add_argument("fig", type=int, choices=(1, 2, 3))
    fig.add_argument("--n", type=int, nargs="+", default=None)
    fig.set_defaults(run=run_figure)

    point = sub.add_parser(
        "point", parents=[spec, out], help="closed-form report plus brute-force check"
    )
    point.add_argument("--parity", choices=("even", "odd"), default=None)
    point.add_argument("--k", type=int, default=None)
    point.add_argument("--grid", default="181x361")
    point.add_argument("--werner-limit", action="store_true")
    point.set_defaults(run=run_point)

    sweep = sub.add_parser(
        "sweep-pure", parents=[p_sweep, out], help="pure-splitting concurrence and discord sweep"
    )
    sweep.add_argument("--n", type=int, required=True)
    sweep.add_argument("--k", type=int, required=True)
    sweep.add_argument("--parity", choices=("even", "odd", "both"), default="both")
    sweep.set_defaults(run=run_sweep_pure)

    dyn = sub.add_parser(
        "dynamics", parents=[spec, out], help="dephasing sweep with sudden-death marker"
    )
    dyn.add_argument("--parity", choices=("even", "odd"), required=True)
    dyn.add_argument("--gamma-rate", type=float, required=True)
    dyn.add_argument("--t-steps", type=int, default=T_STEPS_DEFAULT)
    dyn.set_defaults(run=run_dynamics)

    over = sub.add_parser(
        "overlap", parents=[algebra, out], help="closed-form versus series overlap"
    )
    over.set_defaults(run=run_overlap)
    return parser


@functools.lru_cache(maxsize=1)
def _shared_parser() -> _Parser:
    # building the parser costs about a millisecond; repeated in-process
    # main() calls reuse one, and each parse_args call makes a fresh namespace
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _shared_parser().parse_args(argv)
    try:
        _emit(args.out, args.run(args))
    except UsageError as exc:
        print(f"catcorr: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"catcorr: {exc}", file=sys.stderr)
        return 2
    except (DomainError, WernerLimitRequired, ConvergenceError, ValueError) as exc:
        print(f"catcorr: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
