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
    DEFAULT_GRID,
    _check_correlations,
    _concurrence_pure,
    _pair_correlations,
    _pure_correlations,
    concurrence_x,
    discord_brute_force,
    discord_mixed_closed,
    discord_pure,
)
from .dynamics import (
    DEFAULT_T_STEPS,
    DephasingChannel,
    apply_dephasing,
    concurrence_t,
    default_time_grid,
    discord_t,
    sudden_death_time,
)
from .errors import ConvergenceError
from .states import Parity, SuperpositionSpec, _pure_amplitudes, pure_bipartition, reduced_rho12

P_MAX_DEFAULT = 0.999
P_STEPS_DEFAULT = 500
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
    if isinstance(value, float):
        return f"{value:.12g}"
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
    # as many rows as figure 2 at the largest --p-steps, checked before the first
    rows = args.p_steps * len(n_list) * len(parities)
    if rows > 3 * MAX_SWEEP_STEPS:
        raise UsageError(f"a figure takes at most {3 * MAX_SWEEP_STEPS} rows, got {rows}")
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
    # tolist() gives the same floats as float(np.float64), bit for bit; each p
    # is printed once per sweep
    grid = [(p, _fmt(p)) for p in np.linspace(0.0, args.p_max, args.p_steps).tolist()]
    for n in n_list:
        for parity in parities:
            # one spec validates (n, parity) for every p in [0, p_max]
            sign = SuperpositionSpec(args.p_max, Parity(parity), n).parity.sign
            for p, p_text in grid:
                fields = _pair_correlations(p, n, sign)
                _check_correlations(*fields)
                lines.append(f"{p_text},{n},{parity},{_fmt(fields[1])}")
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
    grid = [(p, _fmt(p)) for p in np.linspace(0.0, args.p_max, args.p_steps).tolist()]
    for parity in parities:
        # one splitting validates (n, k, parity) for every p in [0, p_max]
        pure_bipartition(SuperpositionSpec(args.p_max, Parity(parity), n), k)
        sign = Parity(parity).sign
        for p, p_text in grid:
            conc = _concurrence_pure(*_pure_amplitudes(p, n, sign, k))
            fields = _pure_correlations(conc)
            _check_correlations(*fields)
            lines.append(f"{p_text},{n},{k},{parity},{_fmt(conc)},{_fmt(fields[1])}")
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


def _report_lines(report) -> list[str]:
    return [
        f"mutual_information_bits = {_fmt(report.mutual_info)}",
        f"classical_correlation_bits = {_fmt(report.classical_corr)}",
        f"discord_bits = {_fmt(report.discord)}",
        f"concurrence = {_fmt(report.concurrence)}",
        f"entanglement_of_formation_bits = {_fmt(report.eof)}",
        f"conditional_entropy_min_bits = {_fmt(report.s_cond_min)}",
        f"argmin_theta = {_fmt(report.argmin.theta)}",
        f"argmin_phi = {_fmt(report.argmin.phi)}",
    ]


def run_point(args) -> list[str]:
    """Full closed-form report, brute-force cross-check and residual for a
    single parameter point, plus the pure splitting when --k is given."""
    grid = _parse_grid(args.grid)
    spec = _resolve_spec(args)
    closed = discord_mixed_closed(spec)
    brute = discord_brute_force(reduced_rho12(spec), grid=grid)
    lines = [
        f"p = {_fmt(spec.p)}",
        f"n = {spec.n}",
        f"parity = {spec.parity.value}",
    ]
    if args.algebra is not None:
        lines.insert(0, f"algebra = {args.algebra} z = {_parse_complex(args.z)}")
    lines += _report_lines(closed)
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


def run_overlap(args) -> list[str]:
    """Closed-form versus series overlap at one amplitude."""
    alg = _resolve_algebra(args)
    z = _parse_complex(args.z)
    closed = overlap_closed(alg, z)
    series = overlap_series(alg, z)
    return [
        f"algebra = {args.algebra}"
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


def _resolve_algebra(args) -> AlgebraSpec:
    if args.algebra is None or args.z is None:
        raise UsageError("--algebra and --z must be given together")
    if args.algebra == "glauber" and args.rep_param is not None:
        raise UsageError("--rep-param does not apply to --algebra glauber")
    if args.algebra != "glauber" and args.rep_param is None:
        raise UsageError(f"--algebra {args.algebra} needs --rep-param")
    return AlgebraSpec(AlgebraKind(args.algebra), args.rep_param)


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


# building the parser costs about a millisecond; repeated in-process main()
# calls reuse one, and each parse_args call makes a fresh namespace
@functools.lru_cache(maxsize=1)
def build_parser() -> _Parser:
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument(
        "--out", default=None, help="write the output to this file instead of stdout"
    )
    p_sweep = argparse.ArgumentParser(add_help=False)
    p_sweep.add_argument(
        "--p-steps", type=int, default=P_STEPS_DEFAULT,
        help=f"number of p values from 0 to --p-max, 2 to {MAX_SWEEP_STEPS} (default %(default)s)",
    )
    p_sweep.add_argument(
        "--p-max", type=float, default=P_MAX_DEFAULT,
        help="largest overlap p of the sweep, in (0, 1) (default %(default)s)",
    )
    algebra = argparse.ArgumentParser(add_help=False)
    algebra.add_argument(
        "--algebra", choices=sorted(kind.value for kind in AlgebraKind), default=None,
        help="coherent-state family whose overlap at --z sets p",
    )
    algebra.add_argument(
        "--z", default=None, help="coherent amplitude, a Python complex such as 0.3+0.1j"
    )
    algebra.add_argument(
        "--rep-param", type=float, default=None,
        help="spin j of su2 or Bargmann index k of su11, a positive half-integer",
    )
    spec = argparse.ArgumentParser(add_help=False, parents=[algebra])
    spec.add_argument(
        "--p", type=float, default=None, help="overlap p = <z|-z> in [0, 1], instead of --algebra"
    )
    spec.add_argument("--n", type=int, required=True, help="mode count, at least 2")
    spec.add_argument(
        "--parity", choices=("even", "odd"), required=True,
        help="relative sign of the two branches",
    )

    parser = _Parser(prog="catcorr", description=__doc__)
    parser.add_argument("--version", action="version", version=f"catcorr {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    fig = sub.add_parser(
        "figure", parents=[p_sweep, out], help="discord-versus-p sweep for a standard panel"
    )
    fig.add_argument(
        "fig", type=int, choices=(1, 2, 3),
        help="panel: 1 is n = 2 with both parities, 2 even and 3 odd parity at n = 4, 5, 25",
    )
    fig.add_argument(
        "--n", type=int, nargs="+", default=None, help="mode counts in place of the panel's own"
    )
    fig.set_defaults(run=run_figure)

    point = sub.add_parser(
        "point", parents=[spec, out], help="closed-form report plus brute-force check"
    )
    point.add_argument(
        "--k", type=int, default=None, help="also report the pure k|(n-k) splitting"
    )
    point.add_argument(
        "--grid", default="{}x{}".format(*DEFAULT_GRID),
        help="measurement scan grid NTHETAxNPHI (default %(default)s)",
    )
    point.set_defaults(run=run_point)

    sweep = sub.add_parser(
        "sweep-pure", parents=[p_sweep, out], help="pure-splitting concurrence and discord sweep"
    )
    sweep.add_argument("--n", type=int, required=True, help="mode count, at least 2")
    sweep.add_argument(
        "--k", type=int, required=True, help="block size of the k|(n-k) splitting"
    )
    sweep.add_argument(
        "--parity", choices=("even", "odd", "both"), default="both",
        help="relative sign of the two branches (default %(default)s)",
    )
    sweep.set_defaults(run=run_sweep_pure)

    dyn = sub.add_parser(
        "dynamics", parents=[spec, out], help="dephasing sweep with sudden-death marker"
    )
    dyn.add_argument(
        "--gamma-rate", type=float, required=True,
        help="dephasing rate; gamma(t) = 1 - exp(-rate t)",
    )
    dyn.add_argument(
        "--t-steps", type=int, default=DEFAULT_T_STEPS,
        help=f"number of time points, 2 to {MAX_SWEEP_STEPS} (default %(default)s)",
    )
    dyn.set_defaults(run=run_dynamics)

    over = sub.add_parser(
        "overlap", parents=[algebra, out], help="closed-form versus series overlap"
    )
    over.set_defaults(run=run_overlap)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _emit(args.out, args.run(args))
    except (UsageError, OSError, ValueError, ConvergenceError) as exc:
        print(f"catcorr: {exc}", file=sys.stderr)
        # DomainError is a ValueError: 1 usage, 2 I/O, 3 domain or numeric
        return 1 if isinstance(exc, UsageError) else 2 if isinstance(exc, OSError) else 3
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
