"""CLI contract tests: flag parsing, file emission, verify exit codes."""

import csv
import dataclasses
import hashlib
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import pinchsel.vss
from pinchsel import cli, harness, verify
from pinchsel.cli import (
    _OPTIONS, _resolve, build_parser, header_line, main, parse_n_values, parse_solvers,
    system_config,
)
from pinchsel.config import SystemConfig, dbm_to_watts, watts_to_dbm
from pinchsel.harness import ExperimentSpec, run_sweep
from pinchsel.metric import ActivationVector, InvariantError


def read_sweep_summary(path):
    """Re-parse a sweep summary CSV as (N, solver, rate, evals, active) rows."""
    rows = []
    with path.open(newline="") as fh:
        for record in csv.reader(line for line in fh if not line.startswith("#")):
            if record[0] == "N":
                continue
            rows.append(
                (int(record[0]), record[1], float(record[2]), float(record[3]), float(record[4]))
            )
    return rows


class TestParsing:
    def test_single_value(self):
        assert parse_n_values("10") == (10,)

    def test_comma_list(self):
        assert parse_n_values("5,10,20") == (5, 10, 20)

    def test_range_with_step(self):
        assert parse_n_values("5..50:5") == (5, 10, 15, 20, 25, 30, 35, 40, 45, 50)

    def test_range_default_step(self):
        assert parse_n_values("3..6") == (3, 4, 5, 6)

    def test_mixed_tokens(self):
        assert parse_n_values("2,5..7") == (2, 5, 6, 7)

    @pytest.mark.parametrize("bad", ["", "0", "-3", "10..5:2", "5..10:0", "a"])
    def test_rejects_bad_input(self, bad):
        with pytest.raises(ValueError):
            parse_n_values(bad)

    @pytest.mark.parametrize(
        "text,token",
        [("5,x", "x"), ("5..:2", "5..:2"), ("5..10:x", "5..10:x"), ("2.5", "2.5")],
    )
    def test_bad_token_is_named(self, text, token, tmp_path, capsys):
        assert main(["sweep", "--n", text, "--out-dir", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err == f"error: bad antenna-count token {token!r} in {text!r}\n"

    def test_repeats_dropped_in_first_appearance_order(self):
        assert parse_n_values("6,4,6,3..7:2,4") == (6, 4, 3, 5, 7)

    def test_value_count_is_refused_before_the_list_is_built(self):
        # every value is within the per-value limit; the two tokens hold
        # 2^25 of them, gigabytes once built as a list and deduplicated
        text = f"1..{2**24},1..{2**24}"
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"has more than {2**24} values"):
                parse_n_values(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**16

    def test_value_count_counts_repeats(self, monkeypatch):
        monkeypatch.setattr(cli, "MAX_BLOCK_ENTRIES", 4)
        assert parse_n_values("1..2,3..4") == (1, 2, 3, 4)
        with pytest.raises(ValueError, match="'1..2,2..3,3' has more than 4 values"):
            parse_n_values("1..2,2..3,3")

    def test_solver_aliases(self):
        assert parse_solvers("vss,brute") == ("vss", "brute_force")
        assert parse_solvers("singleton") == ("best_singleton",)
        with pytest.raises(ValueError):
            parse_solvers("vss,magic")


class TestDbmConversion:
    def test_minus_ninety_dbm(self):
        assert dbm_to_watts(-90.0) == pytest.approx(1e-12, rel=1e-15)

    def test_ten_dbm(self):
        assert dbm_to_watts(10.0) == pytest.approx(1e-2, rel=1e-15)

    def test_round_trip(self):
        assert watts_to_dbm(dbm_to_watts(3.7)) == pytest.approx(3.7, rel=1e-12)

    def test_overflow_is_a_value_error(self):
        with pytest.raises(ValueError, match="4000 dBm"):
            dbm_to_watts(4000.0)

    @pytest.mark.parametrize("watts", [0.0, -1e-3])
    def test_non_positive_power_is_a_value_error(self, watts):
        with pytest.raises(ValueError, match=f"power must be positive, got {watts}"):
            watts_to_dbm(watts)


@pytest.mark.parametrize(
    "args,message",
    [
        (["--power-dbm", "4000"], "power_dbm: 4000 dBm is too large to convert to watts"),
        (["--noise-dbm", "4000"], "noise_dbm: 4000 dBm is too large to convert to watts"),
        (["--power-dbm", "inf"], "tx_power must be finite, got inf"),
        (["--power-dbm", "1e400"], "tx_power must be finite, got inf"),
        (["--height", "inf"], "height must be finite, got inf"),
        (["--neff", "inf"], "refractive_index must be finite, got inf"),
        (["--room", "nan"], "room_side must be finite, got nan"),
        (["--config", "power_dbm = inf"], "tx_power must be finite, got inf"),
    ],
    ids=["power-4000", "noise-4000", "power-inf", "power-1e400", "height-inf", "neff-inf",
         "room-nan", "file-power-inf"],
)
@pytest.mark.parametrize("command", ["sweep", "convergence"])
def test_non_finite_setting_is_a_usage_error(command, args, message, tmp_path, capsys):
    if args[0] == "--config":
        (tmp_path / "run.cfg").write_text(args[1] + "\n")
        args = ["--config", str(tmp_path / "run.cfg")]
    out = tmp_path / "out"
    argv = [command, "--n", "5", "--trials", "1", *args, "--out-dir", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "args,settings",
    [
        (["--height", "1e300"], "room_side=50, height=1e+300, feed_x=-25, carrier_freq=2.8e+10"),
        (["--room", "1e200"], "room_side=1e+200, height=3, feed_x=-5e+199, carrier_freq=2.8e+10"),
        (
            ["--freq-ghz", "1e290", "--room", "1e20"],
            "room_side=1e+20, height=3, feed_x=-5e+19, carrier_freq=1e+299",
        ),
        (
            ["--freq-ghz", "1e-320"],
            "room_side=50, height=3, feed_x=-25, carrier_freq=9.99989e-312",
        ),
    ],
    ids=["height-1e300", "room-1e200", "freq-1e290-room-1e20", "freq-1e-320"],
)
@pytest.mark.parametrize("command", ["sweep", "convergence"])
def test_channel_outside_float_range_is_a_usage_error(
    command, args, settings, tmp_path, capsys
):
    # finite settings whose distances, phases or wavelength overflow are
    # refused by name, before numpy can warn
    out = tmp_path / "out"
    argv = [command, "--n", "5", "--trials", "1", *args, "--out-dir", str(out)]
    assert main(argv) == 1
    message = f"the channel leaves the float range: {settings}, refractive_index=1.4"
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "args,message",
    [
        (["--q-bins", "0"], "phase_bins must be >= 1, got 0"),
        (["--room", "-1"], "room_side must be positive, got -1.0"),
        (["--neff", "0.5"], "refractive_index must be >= 1, got 0.5"),
        (["--config", "trials 3"], "{cfg}:1: expected 'key = value', got 'trials 3'"),
    ],
    ids=["q-bins-0", "room-minus-1", "neff-0.5", "file-line-without-equals"],
)
@pytest.mark.parametrize("command", ["sweep", "convergence"])
def test_setting_out_of_range_is_a_usage_error(command, args, message, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    if args[0] == "--config":
        cfg.write_text(args[1] + "\n")
        args = ["--config", str(cfg)]
    out = tmp_path / "out"
    argv = [command, "--n", "5", "--trials", "1", *args, "--out-dir", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {message.format(cfg=cfg)}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "args,message",
    [
        (
            ["--power-dbm", "3000", "--noise-dbm", "-300"],
            "the SNR scale leaves the float range: "
            "tx_power=1e+297, noise_power=1e-33, carrier_freq=2.8e+10",
        ),
        (
            # a finite SNR scale whose product with the metric overflows
            ["--power-dbm", "2990", "--room", "1e-5", "--height", "1e-5"],
            "the rate at metric 4.50501e+10 leaves the float range: tx_power=1e+296, "
            "noise_power=1e-12, carrier_freq=2.8e+10, room_side=1e-05, height=1e-05",
        ),
        (
            ["--room", "1e-320", "--height", "1e-320"],
            "a user stands 0 m from an antenna, too close for the float range: "
            "room_side=9.99989e-321, height=9.99989e-321",
        ),
        (
            # the distances' squares underflow inside the norm
            ["--room", "1e-300", "--height", "1e-300"],
            "a user stands 0 m from an antenna, too close for the float range: "
            "room_side=1e-300, height=1e-300",
        ),
        (
            # each gain is finite, but the power of their coherent sum is not
            ["--room", "1e-160", "--height", "1e-160"],
            "a user stands 1.01641e-160 m from an antenna, too close for the float "
            "range: room_side=1e-160, height=1e-160",
        ),
    ],
    ids=["snr-scale", "rate", "subnormal-geometry", "underflowing-distance",
         "overflowing-power"],
)
@pytest.mark.parametrize("command", ["sweep", "convergence"])
def test_snr_or_geometry_outside_float_range_is_a_usage_error(
    command, args, message, tmp_path, capsys
):
    # no rate of inf reaches a file, and no numpy warning escapes
    out = tmp_path / "out"
    argv = [command, "--n", "5", "--trials", "1", *args, "--out-dir", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "args,header,rate",
    [
        (["--power-dbm", "3000"], "power_dbm=3000 noise_dbm=-90 room=50 height=3", "1000.27"),
        (["--noise-dbm", "-300"], "power_dbm=10 noise_dbm=-300 room=50 height=3", "76.7721"),
        (["--height", "1e-310"], "power_dbm=10 noise_dbm=-90 room=50 height=1e-310", "6.47295"),
    ],
    ids=["power-3000", "noise-minus-300", "height-1e-310"],
)
def test_extreme_but_representable_settings_still_run(args, header, rate, tmp_path):
    # each alone keeps the SNR and the channel in range; the bytes are the
    # ones written before the SNR and distance refusals existed
    assert main(["sweep", "--n", "5", "--trials", "1", *args, "--out-dir", str(tmp_path)]) == 0
    assert (tmp_path / "vss_rate_vs_N.dat").read_text() == (
        f"# n=5 users=1 trials=1 seed=7 solvers=vss q_bins=4 {header} "
        f"freq_ghz=28 neff=1.4 feed_x=auto\n5 {rate}\n"
    )


class TestSweepCommand:
    def test_emits_one_dat_per_solver(self, tmp_path):
        rc = main(
            [
                "sweep", "--n", "5..50:5", "--solvers", "vss,pgga", "--users", "2",
                "--trials", "2", "--seed", "7", "--out-dir", str(tmp_path),
            ]
        )
        assert rc == 0
        for solver in ("vss", "pgga"):
            path = tmp_path / f"{solver}_rate_vs_N.dat"
            data = np.loadtxt(path)
            assert data.shape == (10, 2)
            assert list(data[:, 0]) == [5, 10, 15, 20, 25, 30, 35, 40, 45, 50]
            assert path.read_text().startswith("# ")

    def test_reruns_byte_identical(self, tmp_path):
        args = [
            "sweep", "--n", "6,9", "--solvers", "vss", "--trials", "3",
            "--seed", "1", "--out-dir", str(tmp_path),
        ]
        assert main(args) == 0
        first = (tmp_path / "vss_rate_vs_N.dat").read_bytes()
        assert main(args) == 0
        assert (tmp_path / "vss_rate_vs_N.dat").read_bytes() == first

    def test_shared_parser_leaks_no_state_between_calls(self, tmp_path):
        assert build_parser() is build_parser()
        first, second = tmp_path / "first", tmp_path / "second"
        argv = ["sweep", "--n", "4", "--users", "2", "--feed-x", "auto", "--trials", "2"]
        assert main([*argv, "--out-dir", str(first)]) == 0
        assert main(["sweep", "--n", "4", "--out-dir", str(second)]) == 0
        first_header = (first / "vss_rate_vs_N.dat").read_text().splitlines()[0]
        header = (second / "vss_rate_vs_N.dat").read_text().splitlines()[0]
        assert " users=2 trials=2 " in first_header
        assert " users=1 trials=150 " in header

    def test_brute_dominates_vss_in_files(self, tmp_path):
        rc = main(
            [
                "sweep", "--n", "10", "--solvers", "vss,brute", "--trials", "1",
                "--seed", "1", "--out-dir", str(tmp_path),
            ]
        )
        assert rc == 0
        vss_rate = np.loadtxt(tmp_path / "vss_rate_vs_N.dat").reshape(-1, 2)[0, 1]
        brute_rate = np.loadtxt(tmp_path / "brute_force_rate_vs_N.dat").reshape(-1, 2)[0, 1]
        assert brute_rate >= vss_rate

    def test_brute_force_cap_violation_exits_one(self, tmp_path):
        rc = main(
            [
                "sweep", "--n", "30", "--solvers", "brute", "--trials", "1",
                "--seed", "1", "--out-dir", str(tmp_path),
            ]
        )
        assert rc == 1

    def test_csv_round_trip(self, tmp_path):
        rc = main(
            [
                "sweep", "--n", "5,8", "--solvers", "vss,singleton", "--trials", "4",
                "--seed", "9", "--out-dir", str(tmp_path), "--format", "csv",
            ]
        )
        assert rc == 0
        assert not (tmp_path / "vss_rate_vs_N.dat").exists()
        rows = read_sweep_summary(tmp_path / "sweep_summary.csv")
        spec = ExperimentSpec(
            base_config=SystemConfig(n_antennas=5, n_users=1),
            n_values=(5, 8),
            solvers=("vss", "best_singleton"),
            n_trials=4,
            seed=9,
        )
        agg = run_sweep(spec)
        assert len(rows) == 4
        for n, solver, mean_rate, mean_evals, mean_active in rows:
            entry = agg[n, solver]
            assert mean_rate == entry.mean_min_rate
            assert mean_evals == entry.mean_evaluations
            assert mean_active == entry.mean_active_count

    def test_repeated_n_runs_once(self, monkeypatch, tmp_path):
        calls = []
        real = harness.run_trial

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(harness, "run_trial", counting)
        rc = main(["sweep", "--n", "4,4", "--trials", "1", "--out-dir", str(tmp_path)])
        assert rc == 0
        assert len(calls) == 1
        lines = (tmp_path / "vss_rate_vs_N.dat").read_text().splitlines()
        assert len(lines) == 2 and lines[1].startswith("4 ")
        assert lines[0].startswith("# n=4 users=1 ")

    def test_missing_n_exits_one(self, tmp_path):
        assert main(["sweep", "--out-dir", str(tmp_path)]) == 1

    def test_bad_flag_exits_one(self, tmp_path, capsys):
        # a flag and a config-file value meet the same format check
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("format = yaml\n")
        out = tmp_path / "out"
        for extra in (["--format", "yaml"], ["--config", str(cfg_file)]):
            assert main(["sweep", "--n", "5", *extra, "--out-dir", str(out)]) == 1
            err = capsys.readouterr().err
            assert err == "error: --format must be dat, csv or both, got 'yaml'\n"
        assert not out.exists()


class TestConvergenceCommand:
    def test_emits_monotone_curves(self, tmp_path):
        rc = main(
            [
                "convergence", "--n", "20,30", "--users", "1", "--trials", "5",
                "--seed", "7", "--out-dir", str(tmp_path),
            ]
        )
        assert rc == 0
        for n in (20, 30):
            data = np.loadtxt(tmp_path / f"conv_N{n}_M1.dat").reshape(-1, 2)
            stages = list(data[:, 0])
            assert stages == list(range(1, len(stages) + 1))  # 1..max, no gaps
            rates = list(data[:, 1])
            assert rates == sorted(rates)

    def test_oversized_trellis_block_exits_one(self, tmp_path, capsys):
        rc = main(
            [
                "convergence", "--n", "100", "--users", "6", "--q-bins", "8",
                "--trials", "1", "--out-dir", str(tmp_path),
            ]
        )
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "N=100, Q=8, M=6" in err and str(2**24) in err
        assert not list(tmp_path.iterdir())

    def test_bad_run_leaves_no_output_dir(self, tmp_path):
        out = tmp_path / "D"
        rc = main(["convergence", "--n", "4", "--trials", "0", "--out-dir", str(out)])
        assert rc == 1
        assert not out.exists()

    def test_bad_solvers_key_exits_one_as_sweep_does(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("solvers = magic\n")
        out = tmp_path / "out"
        errors = []
        for command in ("sweep", "convergence"):
            args = [command, "--n", "5", "--config", str(cfg_file), "--out-dir", str(out)]
            assert main(args) == 1
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        assert errors[1].startswith("error: unknown solver 'magic'")
        assert not out.exists()

    def test_several_n_match_separate_runs(self, tmp_path):
        # one sweep over every N keeps each N's trials: rows equal those of
        # one run per N, and only the header's n= differs
        def run(n_text):
            out = tmp_path / n_text
            argv = ["convergence", "--n", n_text, "--trials", "5", "--out-dir", str(out)]
            assert main(argv) == 0
            return out

        both = run("50,80")
        csv_rows = (both / "convergence_summary.csv").read_text().splitlines()[2:]
        separate_csv_rows = []
        for n in (50, 80):
            single = run(str(n))
            name = f"conv_N{n}_M1.dat"
            header, *rows = (both / name).read_text().splitlines()
            single_header, *single_rows = (single / name).read_text().splitlines()
            assert rows == single_rows
            assert header.replace("n=50,80 ", f"n={n} ") == single_header
            separate_csv_rows += (single / "convergence_summary.csv").read_text().splitlines()[2:]
        assert csv_rows == separate_csv_rows

    def test_single_antenna_single_line(self, tmp_path):
        rc = main(
            [
                "convergence", "--n", "1", "--trials", "2", "--seed", "3",
                "--out-dir", str(tmp_path),
            ]
        )
        assert rc == 0
        data = np.loadtxt(tmp_path / "conv_N1_M1.dat").reshape(-1, 2)
        assert data.shape == (1, 2)


@pytest.mark.parametrize("command", ["sweep", "convergence"])
def test_oversized_trellis_refused_before_any_trial(command, monkeypatch, tmp_path):
    # N=2000 breaks the block limit at Q=8, M=4; N=5 and N=10 would run
    calls = []
    real = harness.run_trial

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(harness, "run_trial", counting)
    rc = main(
        [
            command, "--n", "5,10,2000", "--users", "4", "--q-bins", "8",
            "--trials", "3", "--out-dir", str(tmp_path),
        ]
    )
    assert rc == 1
    assert calls == []
    assert not list(tmp_path.iterdir())


class TestConfigFile:
    def test_file_values_used_and_flags_win(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("n = 4,6\ntrials = 2\nusers = 2\nseed = 5\n# comment\n")
        out_a = tmp_path / "a"
        rc = main(["sweep", "--config", str(cfg_file), "--out-dir", str(out_a)])
        assert rc == 0
        data = np.loadtxt(out_a / "vss_rate_vs_N.dat")
        assert list(data[:, 0]) == [4, 6]

        out_b = tmp_path / "b"
        rc = main(
            ["sweep", "--config", str(cfg_file), "--n", "3", "--out-dir", str(out_b)]
        )
        assert rc == 0
        data = np.loadtxt(out_b / "vss_rate_vs_N.dat").reshape(-1, 2)
        assert list(data[:, 0]) == [3]

    def test_unknown_key_rejected(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("n = 4\nwibble = 2\n")
        assert main(["sweep", "--config", str(cfg_file)]) == 1

    def test_missing_file_exits_one(self, tmp_path):
        assert main(["sweep", "--config", str(tmp_path / "nope.cfg")]) == 1

    @pytest.mark.parametrize("command", ["sweep", "convergence"])
    def test_repeated_key_refused_with_both_lines(self, command, tmp_path, capsys):
        # spelling and case fold into one key, so "Trials" repeats "trials"
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("n = 4\ntrials = 2\n# again\nTrials = 3\n")
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg_file), "--out-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {cfg_file}:4: config key trials is already set on line 2\n"
        assert not out.exists()

    def test_feed_x_auto_means_default(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("n = 4\ntrials = 1\nfeed_x = Auto\n")
        numeric_file = tmp_path / "numeric.cfg"
        numeric_file.write_text("feed_x = 5\n")
        out_a, out_b, out_c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        assert main(["sweep", "--config", str(cfg_file), "--out-dir", str(out_a)]) == 0
        assert main(["sweep", "--n", "4", "--trials", "1", "--out-dir", str(out_b)]) == 0
        # the flag takes the same converter as the file, and beats the file
        assert main(
            [
                "sweep", "--n", "4", "--trials", "1", "--feed-x", "auto",
                "--config", str(numeric_file), "--out-dir", str(out_c),
            ]
        ) == 0
        auto_dat = (out_a / "vss_rate_vs_N.dat").read_bytes()
        assert auto_dat == (out_b / "vss_rate_vs_N.dat").read_bytes()
        assert auto_dat == (out_c / "vss_rate_vs_N.dat").read_bytes()
        assert b"feed_x=auto" in auto_dat

    def test_bad_feed_x_in_file_names_the_key(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("n = 4\nfeed_x = abc\n")
        assert main(["sweep", "--config", str(cfg_file), "--out-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err == "error: feed_x takes a number (m) or auto, got 'abc'\n"

    @pytest.mark.parametrize(
        "line,message",
        [
            ("trials = abc", "config key trials: expected an integer, got 'abc'"),
            ("users = 1.5", "config key users: expected an integer, got '1.5'"),
            ("power_dbm = loud", "config key power_dbm: expected a number, got 'loud'"),
        ],
    )
    def test_bad_number_in_file_names_the_key(self, line, message, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"n = 4\n{line}\n")
        assert main(["sweep", "--config", str(cfg_file), "--out-dir", str(tmp_path)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not list(tmp_path.glob("*.dat"))


# Header lines recorded before the option table replaced the hand-written
# header: every output file starts with one, and every digest depends on it.
DEFAULT_HEADER = (
    "n=10 users=1 trials=150 seed=7 solvers=vss q_bins=4 power_dbm=10 "
    "noise_dbm=-90 room=50 height=3 freq_ghz=28 neff=1.4 feed_x=auto"
)
EVERY_KEY_HEADER = (
    "n=5,10,15,20,3 users=2 trials=3 seed=11 solvers=brute_force,best_singleton,vss "
    "q_bins=6 power_dbm=12.5 noise_dbm=-87.25 room=40.5 height=2.75 "
    "freq_ghz=27.125 neff=1.45 feed_x=-3.5"
)
EVERY_KEY = {
    "n": "5..20:5,3",
    "users": "2",
    "trials": "3",
    "seed": "11",
    "solvers": "brute,singleton,vss",
    "q_bins": "6",
    "power_dbm": "12.5",
    "noise_dbm": "-87.25",
    "room": "40.5",
    "height": "2.75",
    "freq_ghz": "27.125",
    "neff": "1.45",
    "feed_x": "-3.5",
    "out_dir": "elsewhere",
    "format": "csv",
}


class TestHeader:
    @staticmethod
    def header(argv):
        args = build_parser().parse_args(argv)
        return header_line(_resolve(args, need_solvers=args.command == "sweep"))

    @pytest.mark.parametrize("command", ["sweep", "convergence"])
    def test_defaults(self, command):
        assert self.header([command, "--n", "10"]) == DEFAULT_HEADER

    def test_every_key_by_flags(self):
        flags = [
            text for key, value in EVERY_KEY.items()
            for text in ("--" + key.replace("_", "-"), value)
        ]
        assert self.header(["sweep", *flags]) == EVERY_KEY_HEADER

    def test_every_key_by_config_file(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("".join(f"{k} = {v}\n" for k, v in EVERY_KEY.items()))
        assert self.header(["sweep", "--config", str(cfg_file)]) == EVERY_KEY_HEADER

    def test_written_file_carries_it(self, tmp_path):
        assert main(["sweep", "--n", "10", "--trials", "1", "--out-dir", str(tmp_path)]) == 0
        first = (tmp_path / "vss_rate_vs_N.dat").read_text().splitlines()[0]
        assert first == "# " + DEFAULT_HEADER.replace("trials=150", "trials=1")

    def test_floats_read_back_to_the_values_set(self):
        settings = {
            "power_dbm": "12.3456789", "noise_dbm": "-90.000001", "room": "12.3456789",
            "height": "3.0000001", "freq_ghz": "28.123456789", "neff": "1.41421356",
            "feed_x": "-6.1728394",
        }
        flags = [
            text for key, value in settings.items()
            for text in ("--" + key.replace("_", "-"), value)
        ]
        header = self.header(["sweep", "--n", "10", *flags])
        written = dict(item.split("=") for item in header.split())
        for key, value in settings.items():
            assert float(written[key]) == float(value), (key, written[key])

    def test_default_system_config_is_the_dataclass_default(self):
        settings = _resolve(build_parser().parse_args(["sweep", "--n", "10"]), True)
        assert system_config(settings, 10) == SystemConfig(n_antennas=10)


# Every file both run commands write, under each --format, as sha256 prefixes
# recorded before the two commands shared one writer.
OUTPUT_ARGS = {
    "sweep": ["--n", "4,6", "--solvers", "vss,brute,pgga,singleton", "--users", "2"],
    "convergence": ["--n", "30,40", "--users", "2"],
}
OUTPUT_FILES = {  # (.dat files in written order, CSV summary)
    "sweep": (
        ["vss_rate_vs_N.dat", "brute_force_rate_vs_N.dat", "pgga_rate_vs_N.dat",
         "best_singleton_rate_vs_N.dat"],
        "sweep_summary.csv",
    ),
    "convergence": (["conv_N30_M2.dat", "conv_N40_M2.dat"], "convergence_summary.csv"),
}
OUTPUT_DIGESTS = {
    "vss_rate_vs_N.dat": "ed49423f6e945f8bc0636b9c9f8d54fe",
    "brute_force_rate_vs_N.dat": "ed49423f6e945f8bc0636b9c9f8d54fe",
    "pgga_rate_vs_N.dat": "df54a82d7d9d60661874bb9ab6ccbcc5",
    "best_singleton_rate_vs_N.dat": "430229b72a510eb827abaa3cb420a293",
    "sweep_summary.csv": "4f2d9afefbbc15a1302035438e0d8679",
    "conv_N30_M2.dat": "7d0d85a4ad58a52fd9c8111c1fe2d13a",
    "conv_N40_M2.dat": "8c634638c3188fe1abd24bc67028e030",
    "convergence_summary.csv": "350d96256d520a8e17379da6d6e431a4",
}


@pytest.mark.parametrize("fmt", ["dat", "csv", "both"])
@pytest.mark.parametrize("command", ["sweep", "convergence"])
def test_output_bytes_pinned(command, fmt, tmp_path, capsys):
    out = tmp_path / "out"
    argv = [command, *OUTPUT_ARGS[command], "--trials", "3", "--format", fmt]
    assert main([*argv, "--out-dir", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert all(line.startswith("wrote ") for line in lines)
    wrote = [str(Path(line[len("wrote "):]).relative_to(out)) for line in lines]
    dat, summary = OUTPUT_FILES[command]
    assert wrote == {"dat": dat, "csv": [summary], "both": [*dat, summary]}[fmt]
    assert sorted(p.name for p in out.iterdir()) == sorted(wrote)
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()[:32] for name in wrote}
    assert digests == {name: OUTPUT_DIGESTS[name] for name in wrote}


def test_bad_feed_x_flag_says_number_or_auto(tmp_path, capsys):
    assert main(["sweep", "--n", "4", "--feed-x", "abc", "--out-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err == "error: feed_x takes a number (m) or auto, got 'abc'\n"
    assert "_feed_x" not in err and "Traceback" not in err


NUMBER_KEYS = [key for key, opt in _OPTIONS.items() if opt.convert in (int, float)]


@pytest.mark.parametrize("source", ["flag", "file"])
@pytest.mark.parametrize("key", NUMBER_KEYS)
def test_bad_number_is_one_line_naming_its_source(key, source, tmp_path, capsys):
    # flag text and file text meet the same converter and the same message
    flag = "--" + key.replace("_", "-")
    if source == "flag":
        args, named = [flag, "abc"], flag
    else:
        (tmp_path / "run.cfg").write_text(f"{key} = abc\n")
        args, named = ["--config", str(tmp_path / "run.cfg")], f"config key {key}"
    kind = "an integer" if _OPTIONS[key].convert is int else "a number"
    out = tmp_path / "out"
    assert main(["sweep", "--n", "5", *args, "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {named}: expected {kind}, got 'abc'\n"
    assert not out.exists()


def test_file_value_a_flag_overrides_is_not_converted(tmp_path):
    (tmp_path / "run.cfg").write_text("trials = abc\nfeed_x = abc\nsolvers = magic\n")
    argv = ["sweep", "--config", str(tmp_path / "run.cfg"), "--n", "5", "--trials", "1",
            "--feed-x", "auto", "--solvers", "vss"]
    assert main([*argv, "--out-dir", str(tmp_path / "out")]) == 0


def test_bad_verify_seed_is_one_line(capsys):
    assert main(["verify", "--quick", "--seed", "abc"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: --seed: expected an integer, got 'abc'\n"
    assert captured.out == ""


def test_negative_verify_seed_runs_every_check(capsys):
    # any integer seed, as sweep takes it; at -1 the quick single-user match
    # reads 0.900, so the battery may fail, but it runs all five checks
    rc = main(["verify", "--quick", "--seed", "-1"])
    captured = capsys.readouterr()
    assert rc in (0, 2)
    assert captured.err == ""
    assert len([line for line in captured.out.splitlines() if line.startswith("[")]) == 5


@pytest.mark.parametrize(
    "args,message",
    [
        (
            ["--n", "20", "--users", "963", "--solvers", "brute"],
            "refusing exhaustive search for M=963 users at N=20: "
            "its working memory exceeds the bound of 256 MiB",
        ),
        (
            ["--n", "100", "--users", str(10**18), "--solvers", "singleton"],
            f"a channel of M={10**18} users by N=100 antennas exceeds the limit "
            f"of {2**24} entries",
        ),
        (
            ["--n", "5,1..10000000000000000", "--solvers", "pgga"],
            "antenna-count token '1..10000000000000000' exceeds the limit of "
            f"{2**24} antennas",
        ),
    ],
)
def test_oversized_run_is_one_line_before_any_channel(
    args, message, tmp_path, monkeypatch, capsys
):
    def no_channel(*_):
        raise AssertionError("a channel was built")

    monkeypatch.setattr(harness, "build_channel_matrix", no_channel)
    out = tmp_path / "out"
    assert main(["sweep", *args, "--trials", "1", "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "args,message",
    [
        (["sweep", "--n", "4", "--trials"], "argument --trials: expected one argument"),
        (["convergence", "--n", "4", "--q-bins"], "argument --q-bins: expected one argument"),
        (["sweep", "--n", "4", "--bogus", "1"], "unrecognized arguments: --bogus 1"),
        (["convergence", "--n", "4", "--solvers", "vss"], "unrecognized arguments: --solvers vss"),
        (["verify", "--seed"], "argument --seed: expected one argument"),
    ],
)
def test_usage_error_is_one_line_naming_the_flag(args, message, tmp_path, capsys):
    # as a bad value is: no usage block, exit 1, no output directory
    out = tmp_path / "out"
    if args[0] != "verify":
        args = [args[0], "--out-dir", str(out), *args[1:]]
    assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""
    assert not out.exists()


# --help texts at 80 columns, recorded before flags lost their argparse types
HELP_TEXT = {
    "sweep": (
        "usage: pinchsel sweep [-h] [--n N] [--users USERS] [--trials TRIALS]\n"
        "                      [--seed SEED] [--solvers SOLVERS] [--q-bins Q_BINS]\n"
        "                      [--power-dbm POWER_DBM] [--noise-dbm NOISE_DBM]\n"
        "                      [--room ROOM] [--height HEIGHT] [--freq-ghz FREQ_GHZ]\n"
        "                      [--neff NEFF] [--feed-x FEED_X] [--out-dir OUT_DIR]\n"
        "                      [--format {dat,csv,both}] [--config CONFIG]\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --n N                 antenna counts: 10, 5,10,20 or 5..50:5\n"
        "  --users USERS         number of ground users\n"
        "  --trials TRIALS       Monte Carlo trials per point\n"
        "  --seed SEED           master seed\n"
        "  --solvers SOLVERS     comma list: vss, brute, pgga, singleton\n"
        "  --q-bins Q_BINS       phase bins per user\n"
        "  --power-dbm POWER_DBM\n"
        "                        transmit power\n"
        "  --noise-dbm NOISE_DBM\n"
        "                        noise power\n"
        "  --room ROOM           room side length (m)\n"
        "  --height HEIGHT       waveguide height (m)\n"
        "  --freq-ghz FREQ_GHZ   carrier (GHz)\n"
        "  --neff NEFF           waveguide refractive index\n"
        "  --feed-x FEED_X       feed x (m) or auto\n"
        "  --out-dir OUT_DIR     output directory\n"
        "  --format {dat,csv,both}\n"
        "                        outputs\n"
        "  --config CONFIG       key=value config file\n"
    ),
    "convergence": (
        "usage: pinchsel convergence [-h] [--n N] [--users USERS] [--trials TRIALS]\n"
        "                            [--seed SEED] [--q-bins Q_BINS]\n"
        "                            [--power-dbm POWER_DBM] [--noise-dbm NOISE_DBM]\n"
        "                            [--room ROOM] [--height HEIGHT]\n"
        "                            [--freq-ghz FREQ_GHZ] [--neff NEFF]\n"
        "                            [--feed-x FEED_X] [--out-dir OUT_DIR]\n"
        "                            [--format {dat,csv,both}] [--config CONFIG]\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --n N                 antenna counts: 10, 5,10,20 or 5..50:5\n"
        "  --users USERS         number of ground users\n"
        "  --trials TRIALS       Monte Carlo trials per point\n"
        "  --seed SEED           master seed\n"
        "  --q-bins Q_BINS       phase bins per user\n"
        "  --power-dbm POWER_DBM\n"
        "                        transmit power\n"
        "  --noise-dbm NOISE_DBM\n"
        "                        noise power\n"
        "  --room ROOM           room side length (m)\n"
        "  --height HEIGHT       waveguide height (m)\n"
        "  --freq-ghz FREQ_GHZ   carrier (GHz)\n"
        "  --neff NEFF           waveguide refractive index\n"
        "  --feed-x FEED_X       feed x (m) or auto\n"
        "  --out-dir OUT_DIR     output directory\n"
        "  --format {dat,csv,both}\n"
        "                        outputs\n"
        "  --config CONFIG       key=value config file\n"
    ),
    "verify": (
        "usage: pinchsel verify [-h] [--quick] [--seed SEED]\n"
        "\n"
        "options:\n"
        "  -h, --help   show this help message and exit\n"
        "  --quick      reduced trial counts\n"
        "  --seed SEED\n"
    ),
}


@pytest.mark.parametrize("command", sorted(HELP_TEXT))
def test_help_text_unchanged(command, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    assert main([command, "--help"]) == 0
    assert capsys.readouterr().out == HELP_TEXT[command]


class TestVerifyCommand:
    def test_quick_verify_passes(self, capsys):
        rc = main(["verify", "--quick"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.count("[PASS]") == 5
        assert "[FAIL]" not in out

    def test_faulty_quantizer_fails_verification(self, monkeypatch, capsys):
        monkeypatch.setattr(
            pinchsel.vss, "quantize_phase", lambda phi, n_bins: n_bins
        )
        rc = main(["verify", "--quick"])
        out = capsys.readouterr().out
        assert rc == 2
        assert "[FAIL]" in out

    def test_broken_array_binning_fails_verification(self, monkeypatch, capsys):
        # the trellis bins with np.arctan2 and falls back to the scalar
        # quantizer only near bin edges; a 1 rad shift moves every mid-bin
        # probe at Q >= 4 into another bin, away from any edge
        real = np.arctan2
        monkeypatch.setattr(np, "arctan2", lambda y, x: real(y, x) + 1.0)
        rc = main(["verify", "--quick"])
        out = capsys.readouterr().out
        assert rc == 2
        assert "[FAIL] quantizer-edge-sweep" in out

    def test_trellis_result_off_the_stage_walk_fails(self, monkeypatch):
        real = verify.vss_select

        def perturbed(gains, n_bins):
            res = real(gains, n_bins)
            return dataclasses.replace(res, metric=math.nextafter(res.metric, 0.0))

        monkeypatch.setattr(verify, "vss_select", perturbed)
        passed, detail = verify.check_trellis_invariants(quick=True, seed=7)
        assert not passed
        assert "differs from the independent stage walk" in detail

    def test_trellis_above_the_oracle_fails_trellis_invariants(self, monkeypatch, capsys):
        # verify's own oracle goes through the harness ordering check
        real = verify.brute_force_select
        monkeypatch.setattr(
            verify, "brute_force_select", lambda B: dataclasses.replace(real(B), metric=0.0)
        )
        rc = main(["verify", "--quick"])
        out = capsys.readouterr().out
        assert rc == 2
        failed = [line for line in out.splitlines() if line.startswith("[FAIL]")]
        assert len(failed) == 1
        assert failed[0].startswith(
            "[FAIL] trellis-invariants: invariant violated: trellis metric "
        )
        assert failed[0].endswith(" exceeds exhaustive optimum 0.0")

    def test_trellis_invariants_apply_the_evaluation_bound(self, monkeypatch):
        real = verify.vss_select
        monkeypatch.setattr(
            verify,
            "vss_select",
            lambda gains, n_bins: dataclasses.replace(real(gains, n_bins), evaluations=10**9),
        )
        with pytest.raises(InvariantError, match="exceed the Q\\^M N\\^2 bound"):
            verify.check_trellis_invariants(quick=True, seed=7)

    def test_oracle_match_is_the_same_selection(self, monkeypatch):
        # an equal metric with another mask is not a match
        real = harness.brute_force_select

        def relabelled(B):
            res = real(B)
            mask = res.activation.mask
            return dataclasses.replace(res, activation=ActivationVector(mask[1:] + mask[:1]))

        monkeypatch.setattr(harness, "brute_force_select", relabelled)
        passed, detail = verify.check_oracle_multi_user(quick=True, seed=7)
        assert "exact matches 0/20" in detail

    def test_invariant_breach_fails_its_check_and_battery_goes_on(
        self, monkeypatch, capsys
    ):
        # a trellis that beats the oracle trips run_trial's ordering check
        real = harness.vss_select

        def inflated(B, n_bins):
            return dataclasses.replace(real(B, n_bins), metric=math.inf)

        monkeypatch.setattr(harness, "vss_select", inflated)
        rc = main(["verify", "--quick"])
        out = capsys.readouterr().out
        assert rc == 2
        lines = [line for line in out.splitlines() if line.startswith("[")]
        assert len(lines) == 5
        failed = [line for line in lines if line.startswith("[FAIL]")]
        assert [line.split(":")[0] for line in failed] == [
            "[FAIL] oracle-equivalence-single-user",
            "[FAIL] oracle-equivalence-multi-user",
        ]
        assert all("exceeds exhaustive optimum" in line for line in failed)


def test_invariant_violation_exits_two(monkeypatch, capsys, tmp_path):
    # rebinding the module global must reach run_trial, whose ordering check
    # then fails: a singleton can never beat the trellis
    real = harness.best_singleton

    def inflated(B):
        res = real(B)
        return dataclasses.replace(res, metric=math.inf)

    monkeypatch.setattr(harness, "best_singleton", inflated)
    rc = main(
        [
            "sweep", "--n", "5", "--solvers", "vss,singleton", "--trials", "1",
            "--out-dir", str(tmp_path),
        ]
    )
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and "exceeds trellis metric" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "solvers,metric,message",
    [
        ("brute,pgga", math.inf, "greedy metric inf exceeds exhaustive optimum"),
        ("pgga,singleton", -math.inf, "exceeds greedy metric -inf"),
    ],
)
def test_greedy_ordering_violation_exits_two(
    solvers, metric, message, monkeypatch, capsys, tmp_path
):
    # greedy starts from the best singleton and can never beat the oracle
    real = harness.greedy_pgga_select
    monkeypatch.setattr(
        harness,
        "greedy_pgga_select",
        lambda B: dataclasses.replace(real(B), metric=metric),
    )
    rc = main(
        [
            "sweep", "--n", "6", "--solvers", solvers, "--trials", "1",
            "--out-dir", str(tmp_path),
        ]
    )
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err
