"""`figure` and `sweep-pure` rows equal the rows of the report route.

The sweeps validate the spec once per (n, parity) and evaluate each row
through the float kernels behind `discord_mixed_closed` and `discord_pure`,
with the checks of `CorrelationReport`.  The reference loops below are the
report route: a validated spec and a full report for every row.  Lines,
exit codes and error messages must be identical.
"""

import math
import random

import numpy as np
import pytest

import catcorr.cli as cli
from catcorr import (
    CorrelationReport,
    DomainError,
    MeasurementBasis,
    Parity,
    SuperpositionSpec,
    discord_mixed_closed,
    discord_pure,
    pure_bipartition,
)
from catcorr.cli import (
    FIGURE_N_DEFAULT,
    FIGURE_PARITIES,
    _check_sweep,
    _fmt,
    _meta,
    build_parser,
    main,
)

P_MAXES = (0.9, 0.999, 1.0 - 1e-6, 1.0 - 1e-9)


def reference_figure(args) -> list[str]:
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


def reference_sweep_pure(args) -> list[str]:
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


def figure_argv(fig, ns, p_max, steps):
    return ["figure", str(fig), "--n", *map(str, ns), "--p-max", repr(p_max),
            "--p-steps", str(steps)]


def pure_argv(n, k, parity, p_max, steps):
    return ["sweep-pure", "--n", str(n), "--k", str(k), "--parity", parity,
            "--p-max", repr(p_max), "--p-steps", str(steps)]


def assert_same_rows(argv):
    args = build_parser().parse_args(argv)
    reference = reference_figure if argv[0] == "figure" else reference_sweep_pure
    assert args.run(args) == reference(args), argv


def seeded_figure_cases(seed, count):
    rng = random.Random(f"figure rows:{seed}")
    for _ in range(count):
        ns = rng.sample(range(2, 51), rng.randint(1, 3))
        yield figure_argv(rng.choice((1, 2, 3)), ns, rng.choice(P_MAXES), rng.randint(2, 300))


@pytest.mark.parametrize("seed", range(3))
def test_figure_rows_match_the_report_route(seed):
    for argv in seeded_figure_cases(seed, 12):
        assert_same_rows(argv)


def test_figure_rows_at_the_edges():
    for p_max in P_MAXES:
        assert_same_rows(figure_argv(1, [2, 3, 50], p_max, 300))
        assert_same_rows(figure_argv(3, [2, 3], p_max, 2))
    for fig in (1, 2, 3):
        args = build_parser().parse_args(["figure", str(fig), "--p-steps", "40"])
        assert args.run(args) == reference_figure(args)


@pytest.mark.parametrize("n", [2, 3, 7, 24, 50])
def test_pure_rows_match_the_report_route_for_every_k(n):
    rng = random.Random(f"pure rows:{n}")
    for k in range(1, n):
        assert_same_rows(pure_argv(n, k, "both", rng.choice(P_MAXES), rng.randint(2, 120)))


def test_rows_match_the_report_route_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @st.composite
    def argvs(draw):
        p_max = draw(st.sampled_from(P_MAXES))
        steps = draw(st.integers(2, 300))
        if draw(st.booleans()):
            ns = draw(st.lists(st.integers(2, 50), min_size=1, max_size=3, unique=True))
            return figure_argv(draw(st.sampled_from((1, 2, 3))), ns, p_max, steps)
        n = draw(st.integers(2, 50))
        k = draw(st.integers(1, n - 1))
        parity = draw(st.sampled_from(("even", "odd", "both")))
        return pure_argv(n, k, parity, p_max, steps)

    @hypothesis.settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @hypothesis.given(argvs())
    def check(argv):
        assert_same_rows(argv)

    check()


ARGMIN = MeasurementBasis(0.0, 0.0)
# report fields but argmin, each set failing one check of CorrelationReport
BAD_FIELDS = [
    (0.0, -1e-9, 0.5, 0.0),  # negative discord
    (-1e-9, 0.0, 0.5, 0.0),  # negative mutual information
    (1e-9, -1e-9, 0.5, 0.0),  # negative discord, classical part above I
    (0.1, 0.1 + 1e-9, 0.5, 0.0),  # discord above I: negative classical part
    (0.3, 0.2, 0.5, -1e-9),  # negative s_cond_min
    (0.3, 0.2, -1e-9, 0.0),  # concurrence below 0
    (0.3, 0.2, 1.0 + 1e-9, 0.0),  # concurrence above 1
    (0.3, math.nan, 0.5, 0.0),  # NaN discord
    (math.nan, 0.2, 0.5, 0.0),  # NaN mutual information
    (-1e-9, -2e-9, 0.5, 0.0),  # negative mutual information and discord
    (0.3, 0.2, 0.5, math.nan),  # NaN s_cond_min
    (0.3, 0.2, math.nan, 0.0),  # NaN concurrence
]


def report_message(fields):
    with pytest.raises(DomainError) as info:
        CorrelationReport(*fields, ARGMIN)
    return str(info.value)


@pytest.mark.parametrize("fields", BAD_FIELDS)
@pytest.mark.parametrize(
    "kernel,argv",
    [
        ("_pair_correlations", ["figure", "2", "--p-steps", "5"]),
        ("_pure_correlations", ["sweep-pure", "--n", "6", "--k", "2", "--p-steps", "5"]),
    ],
    ids=["figure", "sweep-pure"],
)
def test_a_bad_row_exits_three_with_the_report_message(monkeypatch, capsys, kernel, argv, fields):
    monkeypatch.setattr(cli, kernel, lambda *args: fields)
    assert main(argv) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"catcorr: {report_message(fields)}\n"


def test_pure_concurrence_range_check_fires_through_the_kernels(monkeypatch, capsys):
    # amplitudes that are not normalized give a concurrence of 1.0082
    monkeypatch.setattr(cli, "_pure_amplitudes", lambda *args: (0.71, 0.0, 0.0, 0.71))
    assert main(["sweep-pure", "--n", "6", "--k", "2", "--p-steps", "5"]) == 3
    message = report_message(cli._pure_correlations(2.0 * 0.71 * 0.71))
    assert "concurrence must lie in [0, 1]" in message
    assert capsys.readouterr().err == f"catcorr: {message}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["figure", "1", "--n", "1"],
        ["figure", "2", "--n", "4", "1", "--p-steps", "5"],
        ["figure", "3", "--n", "0", "--p-steps", "5"],
        ["sweep-pure", "--n", "1", "--k", "1"],
        ["sweep-pure", "--n", "4", "--k", "0"],
        ["sweep-pure", "--n", "4", "--k", "4"],
        ["sweep-pure", "--n", "4", "--k", "9", "--parity", "odd"],
        ["sweep-pure", "--n", "5", "--k", "-1", "--parity", "even"],
    ],
)
def test_invalid_specs_fail_as_in_the_report_route(capsys, argv):
    args = build_parser().parse_args(argv)
    reference = reference_figure if argv[0] == "figure" else reference_sweep_pure
    with pytest.raises(DomainError) as info:
        reference(args)
    assert main(argv) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"catcorr: {info.value}\n"
