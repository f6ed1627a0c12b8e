import hashlib
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
from catcorr.cli import MAX_SWEEP_STEPS, UsageError, _check_sweep, main


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
    code, out, _ = run_cli(capsys, ["point", "--n", "4", "--werner-limit"])
    assert code == 0
    report = parse_report(out)
    assert float(report["discord_closed_bits"]) == pytest.approx(
        werner_discord(4), abs=1e-11
    )
    assert abs(float(report["closed_minus_brute"])) < 1e-9
    assert float(report["concurrence"]) == pytest.approx(0.5, abs=1e-11)


def test_point_algebra_route(capsys):
    code, out, _ = run_cli(
        capsys,
        ["point", "--algebra", "glauber", "--z", "1.0", "--n", "3", "--parity", "even"],
    )
    assert code == 0
    report = parse_report(out)
    assert report["algebra"].startswith("glauber")
    assert float(report["p"]) == pytest.approx(math.exp(-2.0), abs=1e-12)


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
    cases = [
        ["point", "--p", "0.5", "--n", "4"],  # parity missing
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


def test_sweep_sizes_above_the_cap_exit_one(capsys):
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
    code, out, err = run_cli(capsys, argv)
    assert code == 1
    assert out == ""
    assert err.startswith("catcorr: --")


def test_io_errors_exit_two(capsys):
    code, _, err = run_cli(
        capsys, ["figure", "1", "--p-steps", "3", "--out", "/no-such-dir/x.csv"]
    )
    assert code == 2
    assert "catcorr:" in err


def test_domain_errors_exit_three(capsys):
    cases = [
        ["point", "--p", "1.0", "--n", "4", "--parity", "odd"],
        ["overlap", "--algebra", "su11", "--z", "1.2", "--rep-param", "1"],
        ["overlap", "--algebra", "su2", "--z", "0.5"],  # rep param missing
        ["point", "--algebra", "su2", "--z", "2.0", "--rep-param", "0.5",
         "--n", "3", "--parity", "even"],
        ["sweep-pure", "--n", "4", "--k", "9", "--p-steps", "3"],
        ["point", "--p", "0.5", "--n", "4", "--parity", "even",
         "--grid", "1000000x1000000"],  # above the cap, rejected before allocating
        ["overlap", "--algebra", "su2", "--z", "0.3", "--rep-param", "inf"],
        ["overlap", "--algebra", "su2", "--z", "0.3", "--rep-param", "nan"],
        ["point", "--algebra", "su2", "--z", "0.3", "--rep-param", "inf",
         "--n", "3", "--parity", "even"],
        # 5/rate overflows: rejected before the time grid turns into NaN
        ["dynamics", "--p", "0.5", "--n", "4", "--parity", "even",
         "--gamma-rate", "1e-320"],
    ]
    for argv in cases:
        code, _, err = run_cli(capsys, argv)
        assert code == 3, argv
        assert "catcorr:" in err


def test_werner_pointer_in_degenerate_error(capsys):
    code, _, err = run_cli(capsys, ["point", "--p", "1.0", "--n", "4", "--parity", "odd"])
    assert code == 3
    assert "--werner-limit" in err


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
    proc = _run_module(["point", "--p", "1.0", "--n", "4", "--parity", "odd"])
    assert proc.returncode == 3


def _main_code(argv):
    # argparse reports its own usage errors by raising SystemExit
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


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
