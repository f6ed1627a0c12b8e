import argparse
import hashlib
import inspect
import math
import subprocess
import sys

import pytest

from catcorr import (
    Parity,
    SuperpositionSpec,
    __version__,
    discord_mixed_closed,
    sudden_death_time,
    werner_discord,
)
from catcorr import cli
from catcorr.cli import (
    MAX_SWEEP_STEPS,
    UsageError,
    _check_sweep,
    _parse_grid,
    build_parser,
    main,
)
from catcorr.correlations import DEFAULT_GRID
from catcorr.dynamics import DEFAULT_T_STEPS, default_time_grid


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_report(text):
    out = {}
    for line in text.splitlines():
        if " = " in line:
            key, value = line.split(" = ", 1)
            out[key] = value
    return out


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    assert capsys.readouterr().out.strip() == f"catcorr {__version__}"


def test_missing_command_is_usage_error():
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 1


def test_unknown_figure_is_usage_error():
    with pytest.raises(SystemExit) as info:
        main(["figure", "5"])
    assert info.value.code == 1


def test_dynamics_takes_no_scan_grid():
    with pytest.raises(SystemExit) as info:
        main(["dynamics", "--p", "0.5", "--n", "4", "--parity", "even",
              "--gamma-rate", "1", "--grid", "64x128"])
    assert info.value.code == 1


def test_figure_csv_layout(capsys):
    code, out, _ = run_cli(capsys, ["figure", "2", "--p-steps", "7", "--p-max", "0.9"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("# catcorr figure 2 ")
    assert f"version={__version__}" in lines[0]
    assert lines[1] == "p,n,parity,discord"
    rows = [line.split(",") for line in lines[2:]]
    assert len(rows) == 3 * 7  # three n values, even parity only
    assert [row[1] for row in rows[:7]] == ["4"] * 7  # n-major ordering
    assert {row[2] for row in rows} == {"even"}
    # spot-check the last row against the library
    p, n = float(rows[-1][0]), int(rows[-1][1])
    expect = discord_mixed_closed(SuperpositionSpec(p, Parity.EVEN, n)).discord
    assert float(rows[-1][3]) == pytest.approx(expect, abs=1e-11)
    # every emitted discord is a valid bit count for a two-qubit state
    assert all(-1e-9 <= float(row[3]) <= 2.0 + 1e-9 for row in rows)


def test_figure_one_odd_branch_is_flat(capsys):
    code, out, _ = run_cli(capsys, ["figure", "1", "--p-steps", "6"])
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[2:]]
    assert {row[1] for row in rows} == {"2"}
    odd = [float(row[3]) for row in rows if row[2] == "odd"]
    assert len(odd) == 6
    assert all(abs(v - 1.0) < 1e-11 for v in odd)
    even = [float(row[3]) for row in rows if row[2] == "even"]
    assert even[0] == pytest.approx(1.0, abs=1e-12)  # Bell state at p=0


def test_point_report(capsys):
    code, out, _ = run_cli(
        capsys, ["point", "--p", "0.5", "--n", "4", "--parity", "even", "--k", "2"]
    )
    assert code == 0
    report = parse_report(out)
    spec = SuperpositionSpec(0.5, Parity.EVEN, 4)
    closed = discord_mixed_closed(spec)
    assert float(report["discord_bits"]) == pytest.approx(closed.discord, abs=1e-11)
    assert float(report["concurrence"]) == pytest.approx(closed.concurrence, abs=1e-11)
    assert abs(float(report["closed_minus_brute"])) < 1e-9
    assert float(report["argmin_theta"]) == pytest.approx(math.pi / 2.0, abs=1e-11)
    assert "pure_concurrence" in report
    assert "pure_discord_bits" in report


def test_point_werner_limit(capsys):
    code, out, _ = run_cli(capsys, ["point", "--p", "1", "--n", "4", "--parity", "odd"])
    assert code == 0
    report = parse_report(out)
    assert float(report["discord_bits"]) == pytest.approx(
        werner_discord(4), abs=1e-11
    )
    assert abs(float(report["closed_minus_brute"])) < 1e-9
    assert float(report["concurrence"]) == pytest.approx(0.5, abs=1e-11)


def test_w_limit_is_an_ordinary_spec(capsys):
    # odd parity at p = 1 goes through the same commands as any other point
    code, out, _ = run_cli(capsys, ["point", "--p", "1", "--n", "5", "--parity", "odd"])
    assert code == 0
    report = parse_report(out)
    assert float(report["discord_bits"]) == pytest.approx(werner_discord(5), abs=1e-11)
    assert float(report["concurrence"]) == 0.4
    # p = exp(-2 |z|^2) = 1 at z = 0
    code, out, _ = run_cli(
        capsys, ["point", "--algebra", "glauber", "--z", "0", "--n", "3", "--parity", "odd"]
    )
    assert code == 0
    report = parse_report(out)
    assert float(report["p"]) == 1.0
    assert float(report["discord_bits"]) == pytest.approx(werner_discord(3), abs=1e-11)
    code, out, _ = run_cli(
        capsys, ["dynamics", "--p", "1", "--n", "4", "--parity", "odd", "--gamma-rate", "1"]
    )
    assert code == 0
    assert "t0=inf" in out.splitlines()[0]  # the W pair never loses its entanglement


def test_point_algebra_route(capsys):
    code, out, _ = run_cli(
        capsys,
        ["point", "--algebra", "glauber", "--z", "1.0", "--n", "3", "--parity", "even"],
    )
    assert code == 0
    report = parse_report(out)
    assert report["algebra"].startswith("glauber")
    assert float(report["p"]) == pytest.approx(math.exp(-2.0), abs=1e-12)
    # |z|^2 overflows at 1e200: p = 0 as at z = infj, below the algebra line
    outs = []
    for z in ("1e200", "infj"):
        argv = ["point", "--algebra", "glauber", "--z", z, "--n", "4", "--parity", "even"]
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        outs.append(out.split("\n", 1)[1])
    assert outs[0] == outs[1]
    assert parse_report(outs[0])["p"] == "0"
    # su(2) at spin 1: |z|^2 overflows at 1e160 and inf, and the base rounds
    # to -1 at 1e100, so all three give p = 1 and the same report
    outs = []
    for z in ("1e100", "1e160", "inf"):
        argv = ["point", "--algebra", "su2", "--z", z, "--rep-param", "1",
                "--n", "4", "--parity", "even"]
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        outs.append(out.split("\n", 1)[1])
    assert outs[0] == outs[1] == outs[2]
    assert parse_report(outs[0])["p"] == "1"


def test_sweep_pure_rows(capsys):
    code, out, _ = run_cli(
        capsys,
        ["sweep-pure", "--n", "2", "--k", "1", "--parity", "odd", "--p-steps", "5"],
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "p,n,k,parity,concurrence,discord"
    rows = [line.split(",") for line in lines[2:]]
    assert len(rows) == 5
    for row in rows:
        assert row[1:4] == ["2", "1", "odd"]
        assert float(row[4]) == pytest.approx(1.0, abs=1e-11)
        assert float(row[5]) == pytest.approx(1.0, abs=1e-11)


def test_dynamics_prints_rounding_level_discord_unfloored(capsys):
    # at p = 0 the pair is (1 + X x X) / 4, classically correlated in the X
    # basis, and dephasing only scales its X x X term, so its discord is 0
    # at every time; the column prints the kernel's value as it is, within
    # two ulps of 1 on either side of 0 (README "Numerical notes"): 58 of
    # the 200 rows are negative
    code, out, _ = run_cli(capsys, "dynamics --p 0 --n 3 --parity even --gamma-rate 1".split())
    assert code == 0
    discords = [float(line.split(",")[4]) for line in out.splitlines()[2:]]
    assert len(discords) == 200
    assert max(map(abs, discords)) <= 4.5e-16
    assert min(discords) < 0.0 < max(discords)


def test_dynamics_csv(capsys):
    code, out, _ = run_cli(
        capsys,
        [
            "dynamics",
            "--p", "0.5",
            "--n", "4",
            "--parity", "even",
            "--gamma-rate", "1.0",
            "--t-steps", "5",
        ],
    )
    assert code == 0
    lines = out.splitlines()
    meta = dict(part.split("=", 1) for part in lines[0].split()[3:])
    t0 = sudden_death_time(SuperpositionSpec(0.5, Parity.EVEN, 4), 1.0)
    assert float(meta["t0"]) == pytest.approx(t0, abs=1e-11)
    assert "grid" not in meta
    header = "t,gamma,concurrence_closed,concurrence_wootters,discord,is_past_t0"
    assert lines[1] == header
    rows = [line.split(",") for line in lines[2:]]
    assert len(rows) == 5
    assert rows[0][0] == "0"
    assert [row[5] for row in rows] == ["0", "0", "1", "1", "1"]
    for row in rows:
        closed, wootters = float(row[2]), float(row[3])
        assert closed == pytest.approx(wootters, abs=1e-9)
        if row[5] == "1":
            assert closed == 0.0
        # discord outlives the entanglement
        assert float(row[4]) > 1e-6


def test_overlap_report(capsys):
    code, out, _ = run_cli(
        capsys, ["overlap", "--algebra", "su11", "--z", "0.3", "--rep-param", "0.5"]
    )
    assert code == 0
    report = parse_report(out)
    assert float(report["overlap_closed"]) == pytest.approx(
        0.8348623853211009, abs=1e-12
    )
    assert abs(float(report["closed_minus_series"])) < 1e-10
    # a parameter within 1e-9 of 0.5 is the half-integer 0.5
    for algebra in ("su11", "su2"):
        exact, near = (
            run_cli(capsys, ["overlap", "--algebra", algebra, "--z", "0.3", "--rep-param", r])
            for r in ("0.5", "0.5000000004")
        )
        assert near == exact
        assert exact[0] == 0


def test_out_file_matches_stdout(tmp_path, capsys):
    argv = ["figure", "3", "--p-steps", "5", "--p-max", "0.8"]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    target = tmp_path / "fig3.csv"
    assert main(argv + ["--out", str(target)]) == 0
    capsys.readouterr()
    assert target.read_text(encoding="utf-8") == out
    assert out.endswith("\n")


def test_usage_errors_exit_one(capsys):
    # argparse itself reports a missing --parity and the deleted --werner-limit
    assert _main_code(["point", "--p", "0.5", "--n", "4"]) == 1
    assert "--parity" in capsys.readouterr().err
    assert _main_code(["point", "--n", "5", "--werner-limit"]) == 1
    assert capsys.readouterr().out == ""
    cases = [
        ["point", "--p", "0.5", "--n", "4", "--parity", "even", "--grid", "banana"],
        ["figure", "2", "--p-max", "1.5"],
        ["figure", "2", "--p-steps", "1"],
        ["dynamics", "--p", "0.5", "--n", "4", "--parity", "even", "--gamma-rate", "-1"],
        ["dynamics", "--p", "0.5", "--n", "4", "--parity", "even", "--gamma-rate", "nan"],
        ["dynamics", "--p", "0.5", "--n", "4", "--parity", "even", "--gamma-rate", "inf"],
        ["dynamics", "--p", "0.5", "--n", "4", "--parity", "even", "--gamma-rate", "1",
         "--t-steps", "1"],
        ["point", "--algebra", "glauber", "--n", "3", "--parity", "even"],  # no --z
        ["point", "--n", "3", "--parity", "even"],  # neither --p nor --algebra
    ]
    for argv in cases:
        code, _, err = run_cli(capsys, argv)
        assert code == 1, argv
        assert err.startswith("catcorr:")


def test_unparsable_amplitude_exits_one(capsys):
    code, out, err = run_cli(capsys, ["overlap", "--algebra", "glauber", "--z", "banana"])
    assert (code, out) == (1, "")
    assert err == "catcorr: cannot parse amplitude 'banana' as a complex number\n"


def test_parser_defaults_are_the_library_defaults():
    parser = build_parser()
    spec = ["--p", "0.5", "--n", "4", "--parity", "even"]
    assert _parse_grid(parser.parse_args(["point", *spec]).grid) == DEFAULT_GRID
    t_steps = parser.parse_args(["dynamics", *spec, "--gamma-rate", "1"]).t_steps
    assert t_steps == DEFAULT_T_STEPS
    assert inspect.signature(default_time_grid).parameters["steps"].default == DEFAULT_T_STEPS


def test_sweep_sizes_above_the_cap_exit_one(capsys, monkeypatch):
    # 10**12 points would need 8 TB for the grid alone; the cap is checked
    # before anything is allocated
    huge = str(10**12)
    cases = [
        ["figure", "2", "--p-steps", huge],
        ["sweep-pure", "--n", "4", "--k", "2", "--p-steps", huge],
        ["dynamics", "--p", "0.5", "--n", "4", "--parity", "even",
         "--gamma-rate", "1.0", "--t-steps", huge],
    ]
    for argv in cases:
        code, out, err = run_cli(capsys, argv)
        assert code == 1, argv
        assert out == ""
        assert str(MAX_SWEEP_STEPS) in err
    for p_max in (None, 0.999):
        with pytest.raises(UsageError):
            _check_sweep(MAX_SWEEP_STEPS + 1, p_max)
        _check_sweep(MAX_SWEEP_STEPS, p_max)

    # --n takes any number of mode counts, so a figure also caps its rows at
    # 3 * MAX_SWEEP_STEPS, those of figure 2 at the largest --p-steps; the
    # count is checked before the first row, which here raises
    class FirstRow(Exception):
        pass

    def first_row(*args):
        raise FirstRow

    monkeypatch.setattr(cli, "_pair_correlations", first_row)
    # 1000 p values x 2 parities x 1500 mode counts = 3 * MAX_SWEEP_STEPS rows
    argv = ["figure", "1", "--p-steps", "1000", "--n", *map(str, range(2, 1502))]
    code, out, err = run_cli(capsys, argv + ["1502"])
    assert code == 1
    assert out == ""
    assert f"at most {3 * MAX_SWEEP_STEPS} rows" in err
    with pytest.raises(FirstRow):
        main(argv)


@pytest.mark.parametrize(
    "argv",
    [
        ["point", "--algebra", "glauber", "--z", "1.0", "--rep-param", "2",
         "--n", "3", "--parity", "even"],
        ["dynamics", "--algebra", "glauber", "--z", "1.0", "--rep-param", "2",
         "--n", "3", "--parity", "even", "--gamma-rate", "1.0"],
        ["overlap", "--algebra", "glauber", "--z", "1.0", "--rep-param", "2"],
    ],
    ids=["point", "dynamics", "overlap"],
)
def test_rep_param_with_glauber_is_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == 1
    assert out == ""
    assert "--rep-param" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["overlap", "--algebra", "su2", "--z", "0.3"],
        ["point", "--algebra", "su11", "--z", "0.3", "--n", "4", "--parity", "even"],
        ["dynamics", "--algebra", "su2", "--z", "0.3", "--n", "4", "--parity", "even",
         "--gamma-rate", "1.0"],
    ],
    ids=["overlap", "point", "dynamics"],
)
def test_missing_rep_param_is_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == 1
    assert out == ""
    assert "needs --rep-param" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["point", "--p", "0.5", "--rep-param", "2", "--n", "4", "--parity", "even"],
        ["point", "--rep-param", "2", "--n", "4", "--werner-limit"],
        ["dynamics", "--p", "0.5", "--rep-param", "2", "--n", "4", "--parity", "even",
         "--gamma-rate", "1.0"],
        ["point", "--p", "0.5", "--n", "4", "--werner-limit"],
        ["point", "--parity", "odd", "--n", "4", "--werner-limit"],
        ["point", "--algebra", "su2", "--z", "0.3", "--n", "4", "--werner-limit"],
        ["point", "--p", "0.5", "--z", "1.0", "--n", "4", "--parity", "even"],
        ["dynamics", "--p", "0.5", "--z", "1.0", "--n", "4", "--parity", "even",
         "--gamma-rate", "1.0"],
        ["point", "--p", "0.9", "--algebra", "glauber", "--z", "1.0", "--n", "4",
         "--parity", "even"],
        ["dynamics", "--p", "0.9", "--algebra", "glauber", "--z", "1.0", "--n", "4",
         "--parity", "even", "--gamma-rate", "1.0"],
        ["point", "--z", "0.3", "--n", "4", "--werner-limit"],
        ["point", "--k", "2", "--n", "4", "--werner-limit"],
    ],
    ids=[
        "point-rep-param", "werner-rep-param", "dynamics-rep-param",
        "werner-p", "werner-parity", "werner-algebra",
        "point-z", "dynamics-z", "point-p-algebra", "dynamics-p-algebra",
        "werner-z", "werner-k",
    ],
)
def test_ignored_flags_are_usage_errors(capsys, argv):
    code = _main_code(argv)
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    if "--werner-limit" in argv:
        # the flag is gone: argparse refuses it, or the --parity it stood in for
        assert ": error: " in err
        assert "--werner-limit" in err or "--parity" in err
    else:
        assert err.startswith("catcorr: --")


def test_io_errors_exit_two(capsys):
    code, _, err = run_cli(
        capsys, ["figure", "1", "--p-steps", "3", "--out", "/no-such-dir/x.csv"]
    )
    assert code == 2
    assert "catcorr:" in err


def test_domain_errors_exit_three(capsys):
    cases = [
        ["point", "--p", "1.5", "--n", "4", "--parity", "odd"],
        ["overlap", "--algebra", "su11", "--z", "1.2", "--rep-param", "1"],
        ["point", "--algebra", "su2", "--z", "2.0", "--rep-param", "0.5",
         "--n", "3", "--parity", "even"],
        ["sweep-pure", "--n", "4", "--k", "9", "--p-steps", "3"],
        ["point", "--p", "0.5", "--n", "4", "--parity", "even",
         "--grid", "1000000x1000000"],  # above the cap, rejected before allocating
        ["overlap", "--algebra", "su2", "--z", "0.3", "--rep-param", "inf"],
        ["overlap", "--algebra", "su2", "--z", "0.3", "--rep-param", "nan"],
        # the running rounding bound of the series passes 1e-10, after 298 and
        # 175 terms
        ["overlap", "--algebra", "su2", "--z", "0.3", "--rep-param", "1e5"],
        ["overlap", "--algebra", "su2", "--z", "0.3", "--rep-param", "1e9"],
        ["point", "--algebra", "su2", "--z", "0.3", "--rep-param", "inf",
         "--n", "3", "--parity", "even"],
        # |z|^2 overflows and exits as --z inf does; 2r overflows
        ["overlap", "--algebra", "glauber", "--z", "1e155"],
        ["overlap", "--algebra", "su2", "--z", "0.3", "--rep-param", "1e308"],
        # the limit of the su(2) kernel at spin 1/2 is -1; the series refuses inf
        ["point", "--algebra", "su2", "--z", "1e160", "--rep-param", "0.5",
         "--n", "4", "--parity", "even"],
        ["overlap", "--algebra", "su2", "--z", "1e160", "--rep-param", "1"],
        # a NaN amplitude, once taken as p = 1 by the closed form
        ["point", "--algebra", "su11", "--z", "nan", "--rep-param", "1",
         "--n", "4", "--parity", "even"],
        ["overlap", "--algebra", "glauber", "--z", "nanj"],
        # 5/rate overflows: rejected before the time grid turns into NaN
        ["dynamics", "--p", "0.5", "--n", "4", "--parity", "even",
         "--gamma-rate", "1e-320"],
        # a mode count beyond the largest float, which float(n) cannot take
        ["point", "--p", "0.5", "--n", str(2**1024), "--parity", "odd"],
        ["figure", "2", "--n", str(2**1024)],
        ["sweep-pure", "--n", str(2**1024), "--k", "1", "--parity", "odd"],
        ["dynamics", "--p", "0.5", "--n", str(2**1024), "--parity", "odd",
         "--gamma-rate", "1"],
    ]
    for argv in cases:
        code, _, err = run_cli(capsys, argv)
        assert code == 3, argv
        assert "catcorr:" in err


def test_point_uncorrelated_example(capsys):
    code, out, _ = run_cli(capsys, ["point", "--p", "0", "--n", "5", "--parity", "odd"])
    assert code == 0
    report = parse_report(out)
    assert float(report["discord_bits"]) == 0.0
    assert float(report["concurrence"]) == 0.0


def test_point_two_mode_odd_bell_state(capsys):
    # p = 0, n = 2, odd parity is the Bell state (|01> + |10>)/sqrt(2)
    code, out, _ = run_cli(capsys, ["point", "--p", "0", "--n", "2", "--parity", "odd"])
    assert code == 0
    report = parse_report(out)
    assert report["discord_bits"] == "1"
    assert float(report["concurrence"]) == pytest.approx(1.0, abs=1e-12)


def test_sweep_pure_odd_near_degenerate_limit(capsys):
    code, out, _ = run_cli(
        capsys,
        ["sweep-pure", "--n", "14", "--k", "7", "--parity", "odd",
         "--p-max", "0.999999999", "--p-steps", "64"],
    )
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[2:]]
    assert len(rows) == 64
    assert all(float(row[4]) <= 1.0 for row in rows)


def _run_module(argv):
    return subprocess.run(
        [sys.executable, "-m", "catcorr", *argv],
        capture_output=True,
        timeout=120,
    )


def test_module_entry_point_and_determinism():
    argv = ["figure", "2", "--p-steps", "9", "--p-max", "0.9"]
    first = _run_module(argv)
    second = _run_module(argv)
    assert first.returncode == 0
    assert first.stdout == second.stdout  # byte-identical reruns
    assert first.stdout.splitlines()[1] == b"p,n,parity,discord"


def test_module_entry_point_domain_exit():
    proc = _run_module(["point", "--p", "0.5", "--n", "1", "--parity", "odd"])
    assert proc.returncode == 3


def _main_code(argv):
    # argparse reports its own usage errors by raising SystemExit
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def test_every_flag_has_help(capsys):
    parser = build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert sorted(commands.choices) == ["dynamics", "figure", "overlap", "point", "sweep-pure"]
    for name, sub in commands.choices.items():
        for action in sub._actions:
            assert action.help and action.help != argparse.SUPPRESS, (name, action.dest)
    assert _main_code(["point", "--help"]) == 0
    out = capsys.readouterr().out
    assert "--grid GRID" in out
    assert "measurement scan grid" in out


def test_reused_parser_leaks_no_state(capsys):
    sequence = [
        ["figure", "1", "--p-steps", "7"],
        ["figure", "2", "--n", "4", "5", "--p-steps", "7"],
        ["figure", "2", "--p-steps", "7"],  # must get the default n again
        ["figure", "5"],  # argparse usage error
        ["overlap", "--algebra", "su11", "--z", "1.2", "--rep-param", "1"],  # domain error
        ["sweep-pure", "--n", "6", "--k", "3", "--p-steps", "7"],
        ["overlap", "--algebra", "su11", "--z", "0.3", "--rep-param", "0.5"],
    ]
    fresh = {}
    for argv in sequence:
        proc = _run_module(argv)
        fresh[tuple(argv)] = (proc.returncode, proc.stdout.decode("utf-8"))
    codes = []
    for argv in sequence:
        code = _main_code(argv)
        assert (code, capsys.readouterr().out) == fresh[tuple(argv)], argv
        codes.append(code)
    assert codes == [0, 0, 0, 1, 3, 0, 0]
    assert ",25," in fresh[("figure", "2", "--p-steps", "7")][1]


# sha256 of the stdout of README examples, taken before the in-process
# speed-ups of the closed-form commands, with the version field as it was
_PINNED_VERSION = "0.1.0"
_README_DIGESTS = {
    "figure 2": "2b805f34f5c54104d2ee9e00d65601cfb1fec43af32be730623a7fb3a0d59ecb",
    "figure 3 --n 3 25 --p-steps 800":
        "c908c38bf9f817d7a79cf74cad8cc3382454853288d40029ae1c7204d8447f04",
    "sweep-pure --n 6 --k 3 --parity both":
        "b40b98f8554a04bb0b374364c3196c50ef4da051bc4faaaef3a44d5b64454730",
    "dynamics --p 0.5 --n 4 --parity even --gamma-rate 1.0":
        "4567be040d553dbe2fec54d5e1cffe0654ebd0ecfd4dca82a147ac7f62ecab31",
    "overlap --algebra su11 --z 0.3 --rep-param 0.5":
        "7296b5d85ee1799f25468734e2415beeb0c7dd17941c86d5df99304cc0e0ed5a",
}


@pytest.mark.parametrize("command", sorted(_README_DIGESTS))
def test_readme_outputs_are_pinned(capsys, command):
    code, out, _ = run_cli(capsys, command.split())
    assert code == 0
    out = out.replace(f"version={__version__}", f"version={_PINNED_VERSION}")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == _README_DIGESTS[command]


# sha256 of two `dynamics` outputs that are not README examples, a pair
# near p = 1 with discords of 1e-11 and below and a nearly orthogonal odd
# pair; a change to the polar-angle search of discord_t moves their
# printed digits (a golden-section tolerance of sqrt(eps) instead of 1e-10
# changed 51 and 2 of their rows).  The odd pair's digest is taken with
# discord_t keeping the grid value at an endpoint that the sign of the
# objective's slope makes a minimum, where the search returned a value a
# few ulps lower: 5 of its 200 rows moved by one unit in the 12th
# significant digit.  The pair near
# p = 1 is taken with the polar minimum placed by the sign of the slope,
# evaluated once at its root: all 200 of its discords moved by up to
# 2.6e-15 from the golden-section values, each closer to a 50-digit
# minimum (at t = 0, 1.082979e-11 became 1.083239e-11 against 1.083127e-11).
# It was taken again with the ladder's rungs among the points of the theta
# grid: the t = 0 row alone moved, 1.083239e-11 to 1.082993e-11, 1.3e-15
# from the 50-digit value where it had been 1.1e-15.
# Two more pin the search paths themselves, taken with the polar optimum
# placed by Illinois false position: at p = 0.846, 3 rows end at a slope
# root where the optimum leaves the equator, and in the W pair (p = 1, odd)
# 189 of the 200 rows climbed the ladder from a pure pole (all 200 now
# add its rungs to the theta grid; no printed byte moved)
_DYNAMICS_DIGESTS = {
    "dynamics --p 0.999999 --n 3 --parity even --gamma-rate 1.3":
        "fe1dd70e5e52568e1529910bd0670dabe459ffdad586dbbd495c06a15a96bf5b",
    "dynamics --p 0.05 --n 4 --parity odd --gamma-rate 1.3":
        "a5e4952b01167eeadde38df89edb1e523c192daa1874695d08b41ddcf0d9829f",
    "dynamics --p 0.846 --n 4 --parity even --gamma-rate 1":
        "87c1720bc02ba6ce45e7809b7ea87ccf3d5ce6be733373cb03d66adeefb942e8",
    "dynamics --p 1 --n 4 --parity odd --gamma-rate 1":
        "b3959f2118dc1298d26972b0acbc748f8d3641a39a61b0fcb91ce9504c4ed63f",
}


@pytest.mark.parametrize("command", sorted(_DYNAMICS_DIGESTS))
def test_dynamics_search_outputs_are_pinned(capsys, command):
    code, out, _ = run_cli(capsys, command.split())
    assert code == 0
    out = out.replace(f"version={__version__}", f"version={_PINNED_VERSION}")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == _DYNAMICS_DIGESTS[command]


# sha256 of the closed-form lines of the README `point` examples, every
# line but the two that come from the scan, whose last digits depend on
# the LAPACK build; taken before the pair kernel read the Koashi-Winter
# term from the traced block
_README_POINT_DIGESTS = {
    "point --p 0.5 --n 4 --parity even --k 2":
        "210c0950c8651338fe243fa07f0620356cb7ac056073557252fffe9f278752a0",
    "point --algebra glauber --z 1.0 --n 4 --parity even":
        "b5edec11a7833234055700062a2f1d984f42c9f1b9fa8809960da63d8f7c1d94",
    "point --p 1 --n 5 --parity odd":
        "e66ae2bb11c5fbfc801404313f76527f69f8dc55f358e4ac6a5658ba4f324051",
}


@pytest.mark.parametrize("command", sorted(_README_POINT_DIGESTS))
def test_readme_point_closed_forms_are_pinned(capsys, command):
    code, out, _ = run_cli(capsys, command.split())
    assert code == 0
    closed = [
        line for line in out.splitlines(keepends=True)
        if not line.startswith(("discord_brute_force_bits", "closed_minus_brute"))
    ]
    assert len(closed) == len(out.splitlines()) - 2
    digest = hashlib.sha256("".join(closed).encode("utf-8")).hexdigest()
    assert digest == _README_POINT_DIGESTS[command]
